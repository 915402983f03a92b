"""Frontend dispatch: cache-hit throughput against tenant count, and the
10k-tenant socket accountability run.

The broker is one min-heap on ``(priority, deadline, seq)`` and a hit is
answered at submit unless its tenant has something queued ahead of it,
so what a cache-served request costs the service must not depend on how
many tenants there are — the property that makes one broker enough
(docs/service.md, "Why there are no shards").

Two gates:

- ``test_cache_hit_dispatch_is_flat`` — the same warmed, cache-served
  8,192-request drain through one ``PlanningService`` with the backlog
  spread over 64 and over 4,096 tenants; required: per-request cost at
  4,096 tenants within 2x of 64.
- ``test_frontend_10k_tenants`` — a real ``repro serve --listen``
  subprocess driven by the asyncio loadgen with 10,000 concurrent
  tenant connections; required: every request answered (completed or a
  structured shed/error response), zero lost.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time

from conftest import once, print_table

from repro.service import (
    PlanningService,
    PlanRequest,
    ServiceConfig,
    problem_for_scenario,
)
from repro.service.frontend import generate_wire_workload, run_loadgen

#: Distinct problems in the drain workload (tiny grid = cache-heavy,
#: exactly like real planning traffic).
PROBLEM_KWARGS = (
    dict(input_gb=8.0, deadline_hours=6.0),
    dict(input_gb=16.0, deadline_hours=6.0),
    dict(input_gb=16.0, deadline_hours=8.0),
    dict(input_gb=32.0, deadline_hours=8.0),
)
REQUESTS = 8192
TENANT_COUNTS = (64, 4096)
#: Concurrent submitters modelling the asyncio frontend's connection
#: storm: many client sessions deliver requests faster than one
#: dispatcher can serve them, so a real backlog of active tenants
#: builds — the regime in which a per-tenant scan would show.
SUBMITTERS = 8


def drain_elapsed(tenants: int) -> tuple[float, int]:
    """Wall time to push REQUESTS cache-served requests from ``tenants``
    tenants through one service (ordered admission, the socket
    frontend's setting: per-tenant FIFO across hits and misses)."""
    per_tenant = REQUESTS // tenants
    problems = [problem_for_scenario("quickstart", **kw) for kw in PROBLEM_KWARGS]
    config = ServiceConfig(
        pool_mode="inline",
        max_workers=1,
        ordered_admission=True,
        max_pending_total=REQUESTS * 2,
        max_pending_per_tenant=per_tenant * 2,
    )
    with PlanningService(config) as service:
        # Warm every distinct problem into the plan cache so the drain
        # below is pure cache-hit dispatch.
        for problem in problems:
            assert service.submit(problem, tenant="warmup").result(
                timeout=300.0
            ).ok

        tickets: list[list] = [[] for _ in range(SUBMITTERS)]
        failures: list[BaseException] = []

        def submit_slice(slot: int) -> None:
            try:
                for index in range(slot, tenants, SUBMITTERS):
                    tenant = f"tenant-{index:05d}"
                    for repeat in range(per_tenant):
                        tickets[slot].append(service.submit_request(PlanRequest(
                            tenant=tenant,
                            problem=problems[(index + repeat) % len(problems)],
                            priority=index % 3,
                        )))
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        threads = [
            threading.Thread(target=submit_slice, args=(slot,))
            for slot in range(SUBMITTERS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        for slice_tickets in tickets:
            for ticket in slice_tickets:
                assert ticket.result(timeout=600.0).ok
        elapsed = time.perf_counter() - t0
        hits = service.metrics.cache_hits
    return elapsed, hits


def test_cache_hit_dispatch_is_flat(benchmark, bench_metrics):
    runs = once(
        benchmark, lambda: [drain_elapsed(tenants) for tenants in TENANT_COUNTS]
    )
    (few, few_hits), (many, many_hits) = runs

    print_table(
        f"Cache-hit drain, {REQUESTS} requests through one service",
        [
            (f"{tenants} tenants", f"{elapsed:.2f} s",
             f"{REQUESTS / elapsed:,.0f} req/s",
             f"{elapsed / REQUESTS * 1e6:.0f} us/request")
            for tenants, (elapsed, _) in zip(TENANT_COUNTS, runs)
        ],
        ("backlog spread over", "wall", "throughput", "cost"),
    )
    bench_metrics("dispatch_rps", REQUESTS / many)
    bench_metrics("dispatch_cost_ratio", many / few)

    # Every request was served from the plan cache in both runs — the
    # comparison is dispatch cost, not solver luck.
    assert few_hits == many_hits == REQUESTS
    # One heap: 64x the tenants may not cost 2x per request.
    assert many <= 2.0 * few


# -- 10k concurrent tenants over the socket ------------------------------

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def run_10k_tenants():
    """Start ``repro serve --listen`` as a subprocess (each side needs
    its own file-descriptor budget for 10k sockets) and drive it with
    10,000 concurrent tenant connections."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", "127.0.0.1:0",
         "--pool", "thread", "--workers", "2",
         "--max-pending-total", "16384",
         "--max-pending-per-tenant", "64"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = server.stderr.readline()
        match = LISTEN_RE.search(line)
        assert match, f"no listen line from server: {line!r}"
        address = f"{match.group(1)}:{match.group(2)}"
        # Keep draining stderr: a full pipe would block the server's
        # event loop mid-benchmark.
        drainer = threading.Thread(
            target=server.stderr.read, daemon=True
        )
        drainer.start()
        workload = generate_wire_workload(10_000, 1, seed=0, distinct=6)
        report = asyncio.run(run_loadgen(
            [address],
            workload,
            connect_concurrency=512,
            response_timeout_s=300.0,
        ))
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
    return report


def test_frontend_10k_tenants(benchmark, bench_metrics):
    report = once(benchmark, run_10k_tenants)

    print_table(
        "10k concurrent tenants over the socket frontend",
        [
            ("sent", f"{report.sent}", ""),
            ("completed", f"{report.completed}",
             f"{report.cached} cached"),
            ("shed (rejected)", f"{report.rejected}",
             f"{report.shed_rate:.2%}"),
            ("expired/failed", f"{report.expired + report.failed}", ""),
            ("lost", f"{report.lost}", ""),
            ("p50 / p99", f"{report.percentile_s(50):.3f} s",
             f"{report.percentile_s(99):.3f} s"),
            ("wall", f"{report.elapsed_s:.1f} s",
             f"{report.answered / report.elapsed_s:,.0f} resp/s"),
        ],
        ("metric", "value", "detail"),
    )
    bench_metrics("tenants_10k_p99_s", report.percentile_s(99))
    bench_metrics("tenants_10k_shed_rate", report.shed_rate)
    bench_metrics("tenants_10k_lost", float(report.lost))

    assert report.sent == 10_000
    assert report.connect_failures == 0
    # Accountability under load: every request got a response — a plan
    # or a structured shed/error on the existing vocabulary — and none
    # vanished.
    assert report.lost == 0
    assert report.answered == report.sent
    # The workload is cache-heavy by construction; the vast majority
    # must actually complete, shedding is the escape valve.
    assert report.completed >= report.sent * 0.8
