"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the impact of modeling
decisions the reproduction had to make:

- streaming (eq. 4, same-interval) vs staged (lag-1) upload semantics;
- per-interval vs constant node allocation;
- allowing vs forbidding mid-run data migration;
- interval granularity (1 h vs 0.5 h).
"""

import pytest
from conftest import once, print_table

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, Planner, PlannerJob, PlanningProblem

NETWORK = NetworkConditions.from_mbit_s(16.0)
JOB = PlannerJob(name="kmeans", input_gb=32.0)


def plan_with(**kwargs):
    problem = PlanningProblem(
        job=JOB,
        services=public_cloud(),
        network=NETWORK,
        goal=Goal.min_cost(deadline_hours=kwargs.pop("deadline", 6.0)),
        **kwargs,
    )
    return Planner().plan(problem)


def test_ablation_streaming_vs_staged(benchmark):
    plans = once(
        benchmark,
        lambda: {
            "streaming (lag 0)": plan_with(upload_read_lag=0),
            "staged (lag 1)": plan_with(upload_read_lag=1),
        },
    )
    rows = [
        (name, f"${p.predicted_cost:.2f}", f"{p.predicted_completion_hours:.1f}h",
         p.peak_nodes())
        for name, p in plans.items()
    ]
    print_table("Ablation: upload/read semantics", rows,
                ("variant", "cost", "completion", "peak nodes"))
    # Staged semantics waste the first interval, so they can never be
    # cheaper and typically need a higher peak.
    assert plans["staged (lag 1)"].predicted_cost >= plans["streaming (lag 0)"].predicted_cost - 1e-6


def test_ablation_constant_nodes(benchmark):
    plans = once(
        benchmark,
        lambda: {
            "per-interval": plan_with(),
            "constant": plan_with(constant_nodes=True),
        },
    )
    rows = [
        (name, f"${p.predicted_cost:.2f}", p.peak_nodes())
        for name, p in plans.items()
    ]
    print_table("Ablation: node allocation shape", rows,
                ("variant", "cost", "peak nodes"))
    # Constant allocation is a restriction: never cheaper.
    assert plans["constant"].predicted_cost >= plans["per-interval"].predicted_cost - 1e-6


def test_ablation_migration(benchmark):
    plans = once(
        benchmark,
        lambda: {
            "with migration": plan_with(allow_migration=True),
            "no migration": plan_with(allow_migration=False),
        },
    )
    rows = [(name, f"${p.predicted_cost:.2f}") for name, p in plans.items()]
    print_table("Ablation: data migration (Section 4.5)", rows, ("variant", "cost"))
    assert (
        plans["no migration"].predicted_cost
        >= plans["with migration"].predicted_cost - 1e-6
    )


def test_ablation_interval_granularity(benchmark):
    plans = once(
        benchmark,
        lambda: {
            "1.0 h": plan_with(interval_hours=1.0),
            "0.5 h": plan_with(interval_hours=0.5),
        },
    )
    rows = [
        (name, f"${p.predicted_cost:.2f}",
         p.model_stats["variables"], f"{p.solve_seconds:.2f}s")
        for name, p in plans.items()
    ]
    print_table("Ablation: interval granularity", rows,
                ("Δ", "cost", "variables", "solve"))
    # Finer intervals at least double the model size.
    assert plans["0.5 h"].model_stats["variables"] > 1.8 * plans["1.0 h"].model_stats["variables"]
