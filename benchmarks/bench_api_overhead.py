"""Public-API overhead: the facade + wire format must be nearly free.

The API redesign routes every request through ``JobSpec`` compilation,
the ``Orchestrator`` facade and (on the wire) an encode/decode pass.
This bench pins down what that costs per request on the path where
overhead could plausibly matter — a *warm-cache* submit, where the
service itself answers in microseconds:

- direct:  ``service.submit(problem)`` with a pre-built
  ``PlanningProblem`` (the pre-redesign fast path);
- facade:  ``Orchestrator.submit(spec)`` — spec -> problem compile
  (memoized), then the same cached service path;
- wire:    the full protocol round-trip — decode a ``plan_request``
  JSON line, submit, wrap the result in a ``plan_response``, encode it.

All three run twice: on the stock service, and with
``ordered_admission=True`` — the configuration the socket frontend
actually runs, where a hit is answered at submit only while its tenant
has nothing waiting in the broker.

Required: the API layers add well under 5% of the latency of a direct
``Planner.plan()`` solve — in practice microseconds next to a solve's
seconds — and stay within tight absolute budgets of the direct warm
path, so a regression (say, compilation losing its memoization) fails
loudly.
"""

import gc
import time

from conftest import once, print_table

from repro.api import GoalSpec, JobSpec, Orchestrator, PlanRequestV1, decode, encode
from repro.core import Planner
from repro.service import PlanningService, ServiceConfig

SPEC = JobSpec(name="kmeans", input_gb=16.0, goal=GoalSpec(deadline_hours=6.0))
ROUNDS = 300

#: Absolute per-request budgets for the API layers, over the direct
#: warm-cache submit they wrap (measured ~2-8us / ~45us; ~70us with the
#: job re-validated on every line, as before the decode memo).
FACADE_BUDGET_S = 50e-6
WIRE_BUDGET_S = 150e-6


def _mean_latency(fn, rounds: int = ROUNDS) -> float:
    gc.collect()
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def measure(ordered_admission: bool = False):
    config = ServiceConfig(
        pool_mode="inline", ordered_admission=ordered_admission
    )
    with PlanningService(config) as service:
        orchestrator = Orchestrator(service=service)
        problem = orchestrator.compile(SPEC)
        request_line = encode(PlanRequestV1(job=SPEC, tenant="bench"))

        # The baseline the satellite names: one direct Planner.plan().
        t0 = time.perf_counter()
        Planner().plan(problem)
        plan_s = time.perf_counter() - t0

        # Warm the plan cache.
        first = service.submit(problem).result(timeout=300.0)
        assert first.ok and not first.cached

        def direct():
            result = service.submit(problem).result(timeout=60.0)
            assert result.cached

        def facade():
            result = orchestrator.submit(SPEC).result(timeout=60.0)
            assert result.cached

        def wire():
            request = decode(request_line)
            result = orchestrator.submit(request).result(timeout=60.0)
            line = encode(orchestrator.respond(result, request.request_id))
            assert '"cached": true' in line

        # Best-of-two per path, interleaved, so one GC pause or scheduler
        # hiccup cannot brand a 3-microsecond dispatch as a regression.
        direct_s = min(_mean_latency(direct), _mean_latency(direct))
        facade_s = min(_mean_latency(facade), _mean_latency(facade))
        wire_s = min(_mean_latency(wire), _mean_latency(wire))
    return plan_s, direct_s, facade_s, wire_s


def test_api_overhead(benchmark, bench_metrics):
    stock, ordered = once(
        benchmark, lambda: (measure(), measure(ordered_admission=True))
    )
    plan_s = stock[0]

    runs = (("stock", stock), ("ordered_admission", ordered))
    rows = [("direct Planner.plan()", f"{plan_s * 1e3:10.2f}ms", "baseline")]
    for label, (_, direct_s, facade_s, wire_s) in runs:
        rows += [
            (f"direct service.submit [{label}]", f"{direct_s * 1e6:10.1f}us",
             f"{100 * direct_s / plan_s:8.4f}%"),
            (f"Orchestrator.submit [{label}]", f"{facade_s * 1e6:10.1f}us",
             f"{100 * facade_s / plan_s:8.4f}%"),
            (f"decode+submit+encode [{label}]", f"{wire_s * 1e6:10.1f}us",
             f"{100 * wire_s / plan_s:8.4f}%"),
        ]
    print_table(
        "Public-API overhead on a warm cache (per request)",
        rows,
        headers=("path", "latency", "of a solve"),
    )
    # What the socket frontend pays per hit is the ordered row.
    bench_metrics("direct_us", ordered[1] * 1e6)
    bench_metrics("facade_us", ordered[2] * 1e6)
    bench_metrics("wire_us", ordered[3] * 1e6)

    for label, (_, direct_s, facade_s, wire_s) in runs:
        facade_over = facade_s - direct_s
        wire_over = wire_s - direct_s
        print(f"{label}: facade dispatch adds {facade_over * 1e6:.1f}us "
              f"({100 * facade_over / direct_s:+.1f}% of a warm submit); "
              f"wire round-trip adds {wire_over * 1e6:.1f}us")

        # The satellite's requirement: encode/decode + facade dispatch add
        # <5% latency over a direct Planner.plan() — they are microseconds
        # next to a solve's seconds.
        assert wire_s < 0.05 * plan_s, (
            f"{label}: wire path costs {100 * wire_s / plan_s:.2f}% "
            "of a solve (>= 5%)"
        )
        # And absolute regression guards over the direct warm path: if
        # spec compilation or decoding loses its memoization (or the wire
        # format grows a quadratic hot spot), these trip.
        assert facade_over < FACADE_BUDGET_S, (
            f"{label}: facade adds {facade_over * 1e6:.1f}us "
            f"(> {FACADE_BUDGET_S * 1e6:.0f}us)"
        )
        assert wire_over < WIRE_BUDGET_S, (
            f"{label}: wire adds {wire_over * 1e6:.1f}us "
            f"(> {WIRE_BUDGET_S * 1e6:.0f}us)"
        )
