"""Figure 16: model solving time vs input size and available resources.

Paper (Section 6.6): CPLEX solving time grows with input size (larger
inputs need more execution intervals, hence bigger models) and roughly
doubles with each feature/service set added: EC2-only < S3+EC2 <
EC2+S3+local.  Model *creation* stays under a second — and here it is
two different costs: the first build of a shape lays the model out
(``build_ms``), every later build of that shape only fills numbers into
the cached layout (``rebuild_ms``), which is all a re-plan pays.

Our substrate solves with HiGHS instead of CPLEX, so absolute times are
not comparable — the shape (growth in input size, ordering across
resource sets) is what this bench checks.  Each cell also reports the
branch & bound nodes its solve explored (0: the root relaxation was
integral, so no branch & bound ran); the grid's total is the
``cold_nodes`` metric.
"""

import math
import time
from dataclasses import replace

from conftest import once, print_table

from repro.cloud import ec2_m1_large, local_cluster, s3
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    build_model,
    model_builder,
)

INPUT_SIZES_GB = (32.0, 64.0, 128.0, 256.0)

RESOURCE_SETS = {
    "EC2 only": lambda: [ec2_m1_large()],
    "S3+EC2": lambda: [ec2_m1_large(), s3()],
    "EC2+S3+local": lambda: [ec2_m1_large(), s3(), local_cluster(5)],
}


def deadline_for(input_gb: float) -> float:
    """Horizon scales with input size, as in the paper (the input size
    'gives a lower bound on execution steps to include in the model')."""
    upload_hours = input_gb / NetworkConditions.from_mbit_s(16.0).uplink_gb_per_hour
    return max(6.0, math.ceil(upload_hours * 1.3))


def measure():
    # Whatever ran earlier in this process, each cell's first build below
    # is the first build of its shape.
    model_builder._layout.cache_clear()
    measurements = []
    for set_name, factory in RESOURCE_SETS.items():
        for input_gb in INPUT_SIZES_GB:
            problem = PlanningProblem(
                job=PlannerJob(name="sweep", input_gb=input_gb),
                services=factory(),
                network=NetworkConditions.from_mbit_s(16.0),
                goal=Goal.min_cost(deadline_hours=deadline_for(input_gb)),
            )
            t0 = time.perf_counter()
            built = build_model(problem)
            build_seconds = time.perf_counter() - t0
            # The same deployment re-planned: same shape, another uplink.
            drifted = replace(problem, network=NetworkConditions.from_mbit_s(16.1))
            t0 = time.perf_counter()
            build_model(drifted)
            rebuild_seconds = time.perf_counter() - t0
            solution = built.solve()
            measurements.append(
                (
                    set_name,
                    input_gb,
                    build_seconds,
                    solution.solve_seconds,
                    built.model.stats()["variables"],
                    rebuild_seconds,
                    solution.mip_node_count,
                )
            )
    return measurements


def test_fig16_solving_time(benchmark, bench_metrics):
    measurements = once(benchmark, measure)

    rows = [
        (s, f"{gb:.0f} GB", f"{build_s*1e3:.1f} ms", f"{rebuild_s*1e3:.2f} ms",
         f"{solve_s:.2f} s", nodes, vars_)
        for s, gb, build_s, solve_s, vars_, rebuild_s, nodes in measurements
    ]
    print_table(
        "Fig. 16: model build/solve time vs input size and resources",
        rows,
        ("resources", "input", "build", "rebuild", "solve", "B&B nodes (0: integral root)",
         "variables"),
    )
    build_ms = sum(m[2] for m in measurements) * 1e3
    rebuild_ms = sum(m[5] for m in measurements) * 1e3
    cold_nodes = sum(m[6] for m in measurements)
    print(f"\nover the grid: first builds {build_ms:.1f} ms, "
          f"re-builds {rebuild_ms:.2f} ms ({build_ms / rebuild_ms:.0f}x), "
          f"{cold_nodes} branch & bound nodes")
    bench_metrics("build_ms", build_ms)
    bench_metrics("rebuild_ms", rebuild_ms)
    bench_metrics("cold_nodes", cold_nodes)

    # Shape: model creation is cheap (paper: < 1 s) ...
    assert all(m[2] < 1.0 for m in measurements)
    # ... and building a shape again costs a fraction of laying it out.
    assert rebuild_ms <= build_ms / 3
    # ... model size grows with input size within each resource set ...
    for set_name in RESOURCE_SETS:
        sizes = [m[4] for m in measurements if m[0] == set_name]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    # ... and richer resource sets produce bigger models at equal input.
    largest = {m[0]: m[4] for m in measurements if m[1] == INPUT_SIZES_GB[-1]}
    assert largest["EC2 only"] < largest["S3+EC2"] < largest["EC2+S3+local"]
    # Everything solved.
    assert all(m[3] >= 0 for m in measurements)


# -- incremental re-solve: warm-started, delta-patched LPs -----------------

RESOLVE_INPUT_GB = 64.0
RESOLVE_STEPS = 10


def resolve_problem(uplink_mbit: float) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="resolve", input_gb=RESOLVE_INPUT_GB),
        services=RESOURCE_SETS["S3+EC2"](),
        network=NetworkConditions.from_mbit_s(uplink_mbit),
        goal=Goal.min_cost(deadline_hours=deadline_for(RESOLVE_INPUT_GB)),
    )


def resolve_series() -> list[PlanningProblem]:
    """A re-plan series: the same deployment re-planned as the observed
    uplink drifts a little around its nominal 16 Mbit/s.  Structure is
    identical across the series; only bounds/RHS/cost data move."""
    jitter = (0.0, 0.1, -0.1, 0.05, -0.05, 0.08, -0.08, 0.02, -0.02, 0.06)
    return [resolve_problem(16.0 + jitter[k % len(jitter)])
            for k in range(RESOLVE_STEPS)]


def measure_resolve():
    from repro.core.planner import Planner
    from repro.service import IncrementalSolver

    series = resolve_series()

    cold_planner = Planner()
    cold = []
    for problem in series:
        t0 = time.perf_counter()
        plan = cold_planner.plan(problem)
        cold.append((time.perf_counter() - t0, plan.objective_value))

    warm_solver = IncrementalSolver()
    warm_solver.solve(resolve_problem(16.0))  # seed the retained matrix
    warm = []
    for problem in series:
        t0 = time.perf_counter()
        plan = warm_solver.solve(problem)
        warm.append((time.perf_counter() - t0, plan.objective_value))

    return cold, warm, warm_solver.stats


def test_fig16_incremental_resolve(benchmark, bench_metrics):
    cold, warm, stats = once(benchmark, measure_resolve)

    cold_mean = sum(t for t, _ in cold) / len(cold)
    warm_mean = sum(t for t, _ in warm) / len(warm)
    speedup = cold_mean / warm_mean
    rows = [
        (k, f"{ct*1e3:.1f} ms", f"{wt*1e3:.1f} ms", f"{ct/wt:.1f}x",
         f"{abs(wo - co) / max(1.0, abs(co)):.2e}")
        for k, ((ct, co), (wt, wo)) in enumerate(zip(cold, warm))
    ]
    print_table(
        "Incremental re-solve: warm (delta-patched) vs cold per re-plan",
        rows,
        ("step", "cold", "warm", "speedup", "rel obj diff"),
    )
    print(f"\nmean cold {cold_mean*1e3:.1f} ms, mean warm {warm_mean*1e3:.1f} ms "
          f"({speedup:.1f}x); warm={stats.warm} cold={stats.cold} "
          f"fallbacks={stats.structural_fallbacks + stats.rejected_fallbacks}")

    bench_metrics("warm_speedup", speedup)
    bench_metrics("cold_mean_s", cold_mean)
    bench_metrics("warm_mean_s", warm_mean)
    bench_metrics("warm_solves", stats.warm)
    bench_metrics("warm_rate", stats.warm_rate)

    # The replan hot path must be >= 5x faster than cold solving ...
    assert speedup >= 5.0, f"warm re-solve only {speedup:.1f}x faster than cold"
    # ... while answering with the same plan (objective equal within
    # solver tolerance, the 1 % MIP gap both paths run under) for every
    # step of the series ...
    for (_, cold_obj), (_, warm_obj) in zip(cold, warm):
        assert abs(warm_obj - cold_obj) <= 0.01 * max(1.0, abs(cold_obj))
    # ... and the speed must come from actual warm answers, not caching
    # accidents: most of the series re-certified the retained basis.
    assert stats.warm >= RESOLVE_STEPS - 2
