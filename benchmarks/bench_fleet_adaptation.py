"""Fleet adaptation: event-driven re-planning vs. a fixed cadence.

The paper's adaptation claim (Figs. 12-14) at fleet scale: eight
concurrent deployments share one simulated substrate — one spot market
(the two Fig. 13 price histories), one failure process — under a 2x
node-rate under-estimate (the Section 6.4 scenario: nodes turn out
faster than modeled, so the honest reaction is to *shrink* the
allocation).  Two runtimes face identical worlds:

- ``event``: the fleet scheduler re-plans a deployment the moment a
  substrate event or an observed deviation concerns it;
- ``interval``: the same fleet re-plans only on a fixed 8 h cadence —
  the non-adaptive baseline, blind between marks.

Event-driven re-planning must be cheaper on *both* traces: the stale
plans keep renting nodes sized for the believed (half) rate, while the
adaptive fleet rightsizes within an hour of observing reality.  The
shared plan cache must also show coalescing: deployments of equal shape
re-planning on the same shared event pay for one solve.
"""

from conftest import once, print_table

from repro.cloud.traces import aws_like_trace, electricity_like_trace
from repro.core import Goal, MarginBidder, PlannerJob, WindowMaxPredictor
from repro.core.spot_sim import spot_services
from repro.fleet import FleetConfig, FleetScheduler, Substrate

DAYS = 8
SEED = 2012
DEPLOYMENTS = 8
DEADLINE_HOURS = 10.0
CADENCE_HOURS = 8.0
START_HOUR = 26.0  # 02:00 on day two: predictors have history, night is cheap
#: Fig. 12's deviation, inverted: actual per-node rate is 2x the believed.
RATE_FACTOR = 2.0


def build_fleet(trace, mode: str) -> FleetScheduler:
    spot = spot_services()[0]
    substrate = Substrate(
        {spot.name: trace},
        eviction_bids={spot.name: spot.price_per_node_hour},
    )
    fleet = FleetScheduler(
        substrate,
        FleetConfig(
            mode=mode,
            interval_cadence_hours=CADENCE_HOURS,
            start_hour=START_HOUR,
        ),
    )
    for i in range(DEPLOYMENTS):
        fleet.add(
            f"tenant-{i + 1}",
            PlannerJob(name="kmeans", input_gb=16.0 if i % 2 == 0 else 24.0),
            spot_services(),
            Goal.min_cost(deadline_hours=DEADLINE_HOURS),
            predictor=MarginBidder(WindowMaxPredictor(5), margin=0.3),
            actual_rates={spot.name: spot.throughput_gb_per_hour * RATE_FACTOR},
        )
    return fleet


def run_all():
    results = {}
    for label, maker in (
        ("electricity", electricity_like_trace),
        ("aws", aws_like_trace),
    ):
        trace = maker(days=DAYS, seed=SEED)
        for mode in ("event", "interval"):
            results[(label, mode)] = build_fleet(trace, mode).run()
    return results


def test_fleet_adaptation(benchmark):
    results = once(benchmark, run_all)

    rows = []
    for (label, mode), result in results.items():
        rows.append(
            (
                label,
                mode,
                f"{result.total_cost:.2f}",
                f"{result.makespan_hours:.0f}",
                f"{result.deadlines_met}/{len(result.deployments)}",
                result.total_replans,
                f"{result.solves}+{result.cache_hits}",
            )
        )
    print_table(
        "Fleet adaptation: 8 deployments, one substrate (Fig. 13 traces)",
        rows,
        ("trace", "mode", "total $", "makespan h", "met", "re-plans",
         "solves+hits"),
    )

    for label in ("electricity", "aws"):
        event = results[(label, "event")]
        interval = results[(label, "interval")]
        # Everyone shares one substrate and completes.
        assert event.completed == DEPLOYMENTS
        assert interval.completed == DEPLOYMENTS
        # The headline: reacting to events beats waiting for the cadence.
        assert event.total_cost < interval.total_cost, label
        # Adaptation keeps the fleet inside its deadlines.
        assert event.deadlines_met == DEPLOYMENTS
        # Event-driven re-plans actually happened (not a trivial tie) ...
        assert event.total_replans > interval.total_replans
        # ... and coalesced: same-shape deployments re-planning on shared
        # events hit the warm plan cache instead of re-solving.
        assert event.cache_hits > event.solves

    total_event = sum(r.total_cost for (_, m), r in results.items() if m == "event")
    total_interval = sum(
        r.total_cost for (_, m), r in results.items() if m == "interval"
    )
    saving = 1.0 - total_event / total_interval
    print(f"\nevent-driven total ${total_event:.2f} vs "
          f"fixed-interval ${total_interval:.2f} ({saving:.0%} cheaper)")
    assert saving > 0.10


# -- the incremental solver on the Fig. 13 spot replan mix -----------------
#
# This measures ``IncrementalSolver`` -- the service's ``--incremental``
# path (``repro serve --pool thread --incremental``) -- on a same-shape
# replan burst over the Fig. 13 spot trace.  It is not a path the fleet
# runs: the fleet re-plans cold through ``Planner.plan`` (docs/solver.md,
# "The fleet re-plans cold").

REPLAN_STEPS = 16


#: Per-replan believed-rate drift: the spread of learned node rates a
#: fleet's deviation-triggered replans carry within one scheduler step.
RATE_DRIFT = (1.0, 1.01, 0.99, 1.005, 0.995, 1.008,
              0.992, 1.002, 0.998, 1.006, 0.994, 1.004)


def replan_mix(trace) -> list:
    """The Fig. 13 spot-trace replan mix: a burst of deviation-triggered
    replans over one horizon.  Every problem sees the same rolled-forward
    price forecast off the trace, but each carries a slightly different
    *learned* node rate — so the problems share one structure and differ
    only in data (matrix coefficients and costs)."""
    from repro.core import NetworkConditions, PlanningProblem

    spot = spot_services()[0]
    estimates = WindowMaxPredictor(5).estimate(
        trace, START_HOUR, int(DEADLINE_HOURS)
    )
    problems = []
    for step in range(REPLAN_STEPS):
        factor = RATE_DRIFT[step % len(RATE_DRIFT)]
        services = [
            s.replace(throughput_gb_per_hour=s.throughput_gb_per_hour * factor)
            if s.can_compute
            else s
            for s in spot_services()
        ]
        problems.append(
            PlanningProblem(
                job=PlannerJob(name="kmeans", input_gb=16.0),
                services=services,
                network=NetworkConditions(),
                goal=Goal.min_cost(deadline_hours=DEADLINE_HOURS),
                spot_price_estimates={spot.name: estimates},
            )
        )
    return problems


def measure_warm_replans():
    import time

    from repro.core.planner import Planner
    from repro.service import IncrementalSolver

    trace = electricity_like_trace(days=DAYS, seed=SEED)
    problems = replan_mix(trace)

    cold_planner = Planner()
    cold = []
    for problem in problems:
        t0 = time.perf_counter()
        plan = cold_planner.plan(problem)
        cold.append((time.perf_counter() - t0, plan.objective_value))

    warm_solver = IncrementalSolver()
    warm_solver.solve(problems[0])  # seed the retained matrix
    warm = []
    for problem in problems:
        t0 = time.perf_counter()
        plan = warm_solver.solve(problem)
        warm.append((time.perf_counter() - t0, plan.objective_value))

    return cold, warm, warm_solver.stats


def test_fleet_warm_replan_speedup(benchmark, bench_metrics):
    cold, warm, stats = once(benchmark, measure_warm_replans)

    cold_mean = sum(t for t, _ in cold) / len(cold)
    warm_mean = sum(t for t, _ in warm) / len(warm)
    speedup = cold_mean / warm_mean
    rows = [
        (k, f"{ct*1e3:.1f} ms", f"{wt*1e3:.1f} ms", f"{ct/wt:.1f}x",
         f"{abs(wo - co) / max(1.0, abs(co)):.2e}")
        for k, ((ct, co), (wt, wo)) in enumerate(zip(cold, warm))
    ]
    print_table(
        "IncrementalSolver: warm vs cold on the Fig. 13 spot replan mix",
        rows,
        ("hour", "cold", "warm", "speedup", "rel obj diff"),
    )
    print(f"\nmean cold {cold_mean*1e3:.1f} ms, mean warm {warm_mean*1e3:.1f} ms "
          f"({speedup:.1f}x); warm={stats.warm} cold={stats.cold} "
          f"fallbacks={stats.structural_fallbacks + stats.rejected_fallbacks}")

    bench_metrics("warm_speedup", speedup)
    bench_metrics("cold_mean_s", cold_mean)
    bench_metrics("warm_mean_s", warm_mean)
    bench_metrics("warm_solves", stats.warm)

    # The replan hot path must be >= 5x faster than solving cold ...
    assert speedup >= 5.0, f"warm re-solve only {speedup:.1f}x faster than cold"
    # ... with the same answers (objective within the 1 % solver gap) ...
    for (_, cold_obj), (_, warm_obj) in zip(cold, warm):
        assert abs(warm_obj - cold_obj) <= 0.01 * max(1.0, abs(cold_obj))
    # ... via genuine warm re-certification, not cache luck.
    assert stats.warm >= REPLAN_STEPS - 2
