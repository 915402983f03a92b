"""The array-native builder against the expression formulation.

``repro.core.model_builder`` lays a model out once per shape and fills
numbers into arrays; ``reference_model`` (beside this file) writes the
same Section-4 formulation constraint by constraint over ``repro.lp``'s
expression front-end.  For every problem here the two must agree on
column names and order, integrality, row names and order, sparsity, and
— exactly — on bounds, right-hand sides and matrix coefficients; on
objective coefficients to 1e-12 relative (the one place accumulation
order may differ).  One solution vector must extract to equal plans.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import reference_model
from repro.api import GoalSpec, JobSpec
from repro.api.compiler import compile_spec
from repro.cloud import hybrid_cloud, local_cluster, public_cloud, s3
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
    build_model,
)
from repro.core.model_builder import kept_problem
from repro.core.spot_sim import spot_services
from repro.lp import Solution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "service"))
from test_incremental_properties import make_problem, perturbations  # noqa: E402

NET = NetworkConditions.from_mbit_s(16.0)


def problem(**overrides) -> PlanningProblem:
    fields = dict(
        job=PlannerJob(name="eq", input_gb=32.0),
        services=public_cloud(),
        network=NET,
        goal=Goal.min_cost(deadline_hours=6.0),
    )
    fields.update(overrides)
    return PlanningProblem(**fields)


def multi_provider():
    """Three providers with charges on both sides of every boundary, so
    one flow is priced under up to three labels."""
    other = s3().replace(
        name="blob", provider="other", transfer_in_cost_gb=0.02,
        transfer_out_cost_gb=0.12, cost_put=2e-5, cost_get=3e-6,
    )
    metered_local = local_cluster(4).replace(
        transfer_in_cost_gb=0.01, transfer_out_cost_gb=0.03,
        price_per_node_hour=0.05, storage_capacity_gb=100.0,
    )
    return public_cloud() + [other, metered_local]


MID_RUN = SystemState(
    hour=2.0,
    source_remaining_gb=16.0,
    stored_input={"ec2.m1.large": 4.0},
    map_done_gb=12.0,
    stored_output={"ec2.m1.large": 0.02, "s3": 0.002},
    reduce_done_gb=0.002,
    stored_result={"s3": 0.001},
    downloaded_gb=0.001,
)

SPOT = spot_services()
SPOT_NAME = next(s.name for s in SPOT if s.is_spot)

GRID = {
    "public": problem(),
    "hybrid": problem(services=hybrid_cloud(local_nodes=5),
                      goal=Goal.min_cost(deadline_hours=8.0)),
    "spot": compile_spec(JobSpec(input_gb=32.0, catalog="spot", spot_price=0.2,
                                 goal=GoalSpec(deadline_hours=10.0))),
    "spot_estimates_shorter_than_the_horizon": problem(
        services=SPOT, goal=Goal.min_cost(deadline_hours=9.0),
        spot_price_estimates={SPOT_NAME: [0.3, 0.1, 0.25]},
    ),
    "spot_without_estimates": problem(services=SPOT),
    "multi_provider": problem(services=multi_provider()),
    "min_time_with_budget": problem(
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=8)),
    "min_time_hybrid": problem(
        services=hybrid_cloud(local_nodes=5),
        goal=Goal.min_time(budget_usd=30.0, horizon_hours=7)),
    "min_time_multi_provider": problem(
        services=multi_provider(),
        goal=Goal.min_time(budget_usd=60.0, horizon_hours=5)),
    "constant_nodes": problem(constant_nodes=True),
    "no_migration": problem(allow_migration=False),
    "strict_phase_gap": problem(strict_phase_gap=True),
    "upload_read_lag": problem(upload_read_lag=1),
    "upload_fractions": problem(
        upload_fractions={"s3": 0.25, "ec2.m1.large": 0.75},
        goal=Goal.min_cost(deadline_hours=8.0)),
    "mid_run_state": problem(goal=Goal.min_cost(deadline_hours=4.0), state=MID_RUN),
    "mid_run_min_time": problem(
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=5), state=MID_RUN),
    "no_reduce_by_ratio": problem(
        job=PlannerJob(name="eq", input_gb=16.0, map_output_ratio=0.0)),
    "no_reduce_by_size": problem(job=PlannerJob(name="eq", input_gb=1e-6)),
    "no_reduce_min_time": problem(
        job=PlannerJob(name="eq", input_gb=16.0, map_output_ratio=0.0),
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=6)),
    "no_result": problem(
        job=PlannerJob(name="eq", input_gb=16.0, reduce_output_ratio=0.0),
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=6)),
    "half_hour_intervals": problem(interval_hours=0.5,
                                   goal=Goal.min_cost(deadline_hours=4.0)),
    "one_interval": problem(job=PlannerJob(name="eq", input_gb=1.0),
                            goal=Goal.min_cost(deadline_hours=1.0)),
    "everything": problem(
        services=hybrid_cloud(local_nodes=3),
        goal=Goal.min_time(budget_usd=50.0, horizon_hours=6),
        constant_nodes=True, strict_phase_gap=True, upload_read_lag=1,
        upload_fractions={"local.cluster": 0.5}, state=MID_RUN,
    ),
}


def reference(p: PlanningProblem):
    """The reference model of the problem the builder builds for."""
    return reference_model.build_model(kept_problem(p))


def assert_same_model(p: PlanningProblem) -> None:
    built, ref = build_model(p), reference(p)
    got, want = built.model.compile(), ref.model.compile()

    assert got.col_names == want.col_names
    assert built.model.row_names == tuple(c.name for c in ref.model.constraints)
    assert got.negated == want.negated
    for name in ("integrality", "indptr", "indices", "data",
                 "row_lb", "row_ub", "var_lb", "var_ub"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    # No template slot was left unfilled.
    for name in ("objective", "data", "row_lb", "row_ub", "var_lb", "var_ub"):
        assert not np.isnan(getattr(got, name)).any(), name
    assert np.allclose(got.objective, want.objective, rtol=1e-12, atol=0.0)
    assert got.objective_offset == want.objective_offset
    assert built.model.stats() == ref.model.stats()


@pytest.mark.parametrize("name", GRID)
def test_grid_problem_builds_the_reference_matrix(name):
    assert_same_model(GRID[name])


@pytest.mark.parametrize("name", GRID)
def test_objective_is_the_reference_objective_to_the_bit(name):
    """Stricter than the contract (1e-12): prices are summed label by
    label in the reference's order, so today not a bit differs — which is
    what keeps HiGHS on the very same pivots as before the rewrite."""
    p = GRID[name]
    got = build_model(p).model.compile().objective
    want = reference(p).model.compile().objective
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=perturbations)
def test_drawn_data_builds_the_reference_matrix(data):
    assert_same_model(make_problem(*data))


def plans_of_one_vector(p: PlanningProblem):
    built, ref = build_model(p), reference(p)
    solution = built.solve(time_limit=60.0)
    assert solution.status.has_solution, solution.message
    mirrored = Solution(
        status=solution.status,
        objective=solution.objective,
        values={var: float(solution.x[var.index]) for var in ref.model.variables},
        solve_seconds=solution.solve_seconds,
    )
    return built.extract_plan(solution), ref.extract_plan(mirrored)


@pytest.mark.parametrize("name", [
    "public", "hybrid", "spot_estimates_shorter_than_the_horizon",
    "multi_provider", "min_time_with_budget", "mid_run_state",
    "no_reduce_by_ratio", "upload_fractions", "everything",
])
def test_one_solution_vector_extracts_to_equal_plans(name):
    got, want = plans_of_one_vector(GRID[name])
    # Same decisions, to the bit and in the same dict order ...
    assert [i.to_dict() for i in got.intervals] == [i.to_dict() for i in want.intervals]
    for a, b in zip(got.intervals, want.intervals):
        for field in ("nodes", "upload_gb", "map_read_gb", "map_write_gb",
                      "reduce_read_gb", "reduce_write_gb", "migrate_gb",
                      "download_gb", "stored_gb"):
            assert list(getattr(a, field)) == list(getattr(b, field)), field
    # ... and the same money, up to summation order.
    assert got.predicted_cost == pytest.approx(want.predicted_cost, rel=1e-12, abs=1e-12)
    assert list(got.predicted_cost_breakdown) == list(want.predicted_cost_breakdown)
    for label, value in want.predicted_cost_breakdown.items():
        assert got.predicted_cost_breakdown[label] == pytest.approx(
            value, rel=1e-12, abs=1e-12), label
    assert got.predicted_completion_hours == want.predicted_completion_hours
    assert got.objective_value == want.objective_value
    assert got.solver_status == want.solver_status
    assert got.model_stats == want.model_stats


def test_a_zero_coefficient_is_no_entry_in_either_build():
    # map_output_ratio == 0 zeroes the read side of every map_io row: the
    # build drops those entries (its sparsity is then its own, not the
    # layout's) exactly as compiling the expression model drops them.
    p = GRID["no_reduce_by_ratio"]
    built = build_model(p)
    compiled = built.model.compile()
    assert len(compiled.data) < len(built.layout.data)
    assert compiled.indices is not built.layout.indices
    assert np.all(compiled.data != 0.0)
    # The size summary still counts the terms the formulation wrote.
    assert built.model.stats()["nonzeros"] == len(built.layout.data)
    same_shape = replace(p, job=replace(p.job, input_gb=1e-6, map_output_ratio=0.002))
    assert build_model(same_shape).layout is built.layout
