"""Figure 9: storage-mix sweep with 10x S3 price and larger inputs.

Paper (analytic extension of Fig. 8): with S3 storage priced 10x higher
and inputs of 64/128/256 GB, hitting the sweet spot matters more as data
grows — savings reach about a third of the cost at 256 GB, with the
optimum near 50% on EC2.
"""

from dataclasses import dataclass

import pytest
from conftest import once, print_table

from bench_fig08_storage_mix_32gb import FRACTIONS, sweep
from repro.core import Planner, build_model

SIZES_GB = (64.0, 128.0, 256.0)


@dataclass
class TallyingPlanner(Planner):
    """A :class:`Planner` that sums its solves' time and branch & bound
    nodes."""

    solve_seconds: float = 0.0
    nodes: int = 0

    def plan(self, problem):
        built = build_model(problem)
        solution = built.solve(self.time_limit, self.mip_gap)
        self.solve_seconds += solution.solve_seconds
        self.nodes += solution.mip_node_count
        return built.extract_plan(solution)


def full_sweep(planner):
    # The 8 Mbit/s uplink moves 3.52 GB/h: the horizon must scale with
    # the input (the paper's Fig. 9 is an analytic projection, so it has
    # no deadline pressure either).  The LP interval coarsens with the
    # input so the MILP stays tractable (~24-32 intervals at every
    # size); Fig. 9 is a shape result, and the billing-granularity error
    # this introduces is well below the effects being plotted.
    # Migration is disabled: the sweep pins placement via upload
    # fractions, so letting the solver shuffle data afterwards only
    # blurs the swept variable while blowing up the MILP.  The MIP gap
    # is relaxed to 3% (vs the default 1%) — well below the cost
    # differences Fig. 9 plots.
    results = {}
    for size in SIZES_GB:
        deadline = float(int(size / 3.5 * 1.25) + 2)
        interval = max(1.0, round(deadline / 28.0))
        results[size] = sweep(
            input_gb=size,
            s3_price_multiplier=10.0,
            deadline=deadline,
            interval_hours=interval,
            allow_migration=False,
            planner=planner,
        )
    return results


def test_fig09_scaled_storage_mix(benchmark, bench_metrics):
    planner = TallyingPlanner(mip_gap=0.03, time_limit=60.0)
    results = once(benchmark, lambda: full_sweep(planner))

    rows = []
    for size, costs in results.items():
        for fraction, cost in costs.items():
            rows.append((f"{size:.0f} GB", f"{fraction:.2f}", f"${cost:.2f}"))
    print_table(
        "Fig. 9: cost vs EC2 fraction, 10x S3 price (paper: min near 1/2)",
        rows,
        ("input", "fraction on EC2", "cost"),
    )
    print(f"\nover the sweep: {planner.solve_seconds:.1f} s solving, "
          f"{planner.nodes} branch & bound nodes")
    bench_metrics("solve_s", planner.solve_seconds)
    bench_metrics("cold_nodes", planner.nodes)

    for size, costs in results.items():
        interior = {f: c for f, c in costs.items() if 0.0 < f < 1.0}
        best_f = min(interior, key=interior.get)
        best = interior[best_f]
        worst_endpoint = max(costs[0.0], costs[1.0])
        # Shape: interior optimum beats both endpoints at every size.
        assert best <= costs[0.0] + 1e-6 and best <= costs[1.0] + 1e-6

    # Savings (vs the worst endpoint) grow with input size and reach
    # roughly a third at 256 GB (paper: "about 1/3 of the cost").
    def savings(costs):
        interior = {f: c for f, c in costs.items() if 0.0 < f < 1.0}
        best = min(interior.values())
        worst = max(costs[0.0], costs[1.0])
        return 1.0 - best / worst

    series = [savings(results[size]) for size in SIZES_GB]
    assert series[-1] >= series[0] - 0.02  # non-decreasing (tolerance)
    assert series[-1] > 0.20
