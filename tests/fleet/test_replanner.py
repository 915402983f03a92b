"""CachingPlanner: canonical key -> plan cache -> planner, optimal plans
only; SharedPredictor: one answer per (trace, hour, horizon)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud import SpotTrace, public_cloud
from repro.cloud.traces import electricity_like_trace
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    WindowMaxPredictor,
)
from repro.core.model_builder import PlanningError
from repro.core.spot_sim import spot_services
from repro.fleet import CachingPlanner
from repro.fleet.replanner import SharedPredictor

SPOT = next(s.name for s in spot_services() if s.is_spot)


def make_problem(input_gb=4.0) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(16.0),
        goal=Goal.min_cost(deadline_hours=3.0),
    )


class StubPlanner:
    """Duck-types ``Planner.plan``: answers with ``status``, or raises."""

    def __init__(self, status="optimal", error=None):
        self.status = status
        self.error = error
        self.calls = []

    def plan(self, problem):
        self.calls.append(problem)
        if self.error is not None:
            raise self.error
        return SimpleNamespace(solver_status=self.status, call=len(self.calls))


def test_identical_problems_solve_once_and_count_hits():
    stub = StubPlanner()
    planner = CachingPlanner(stub)
    first = planner.plan(make_problem())
    assert planner.plan(make_problem()) is first
    assert planner.plan(make_problem()) is first
    planner.plan(make_problem(input_gb=5.0))
    assert len(stub.calls) == 2
    assert (planner.solves, planner.hits) == (2, 2)


def test_a_feasible_plan_is_returned_but_not_cached():
    stub = StubPlanner(status="feasible")
    planner = CachingPlanner(stub)
    first = planner.plan(make_problem())
    assert first.solver_status == "feasible"
    second = planner.plan(make_problem())
    assert second is not first
    assert len(stub.calls) == 2
    assert (planner.solves, planner.hits) == (2, 0)
    assert len(planner.cache) == 0


def test_a_planning_error_propagates_uncached_and_uncounted():
    stub = StubPlanner(error=PlanningError("no plan", status="infeasible"))
    planner = CachingPlanner(stub)
    seen = []
    planner.on_solve = seen.append
    for _ in range(2):
        with pytest.raises(PlanningError):
            planner.plan(make_problem())
    assert len(stub.calls) == 2
    assert (planner.solves, planner.hits) == (0, 0)
    assert len(planner.cache) == 0
    assert seen == []


def test_on_solve_fires_once_per_miss():
    planner = CachingPlanner(StubPlanner())
    seen = []
    planner.on_solve = seen.append
    for gb in (4.0, 4.0, 5.0, 4.0, 5.0, 6.0):
        planner.plan(make_problem(input_gb=gb))
    assert len(seen) == planner.solves == 3
    assert all(seconds >= 0.0 for seconds in seen)


def spot_problem(estimates, price=None) -> PlanningProblem:
    services = spot_services()
    if price is not None:
        services = [
            s.replace(price_per_node_hour=price) if s.is_spot else s
            for s in services
        ]
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=4.0),
        services=services,
        network=NetworkConditions.from_mbit_s(16.0),
        goal=Goal.min_cost(deadline_hours=3.0),
        spot_price_estimates={SPOT: np.asarray(estimates, dtype=float)},
    )


def test_one_spot_estimate_value_apart_is_another_entry():
    stub = StubPlanner()
    planner = CachingPlanner(stub)
    planner.plan(spot_problem([0.2, 0.2, 0.2]))
    planner.plan(spot_problem([0.2, 0.2, 0.21]))
    planner.plan(spot_problem([0.2, 0.2, 0.2]))
    assert (planner.solves, planner.hits, len(planner.cache)) == (2, 1, 2)


def test_one_service_price_apart_is_another_entry():
    stub = StubPlanner()
    planner = CachingPlanner(stub)
    planner.plan(spot_problem([0.2] * 3, price=0.34))
    planner.plan(spot_problem([0.2] * 3, price=0.35))
    planner.plan(spot_problem([0.2] * 3, price=0.34))
    assert (planner.solves, planner.hits, len(planner.cache)) == (2, 1, 2)


def test_the_key_compares_floats_by_value():
    # 0.0 == -0.0 shares a key; a NaN is unequal to itself, so never hits.
    planner = CachingPlanner(StubPlanner())
    planner.plan(spot_problem([0.2, 0.0, 0.2]))
    planner.plan(spot_problem([0.2, -0.0, 0.2]))
    assert (planner.solves, planner.hits) == (1, 1)
    planner.plan(spot_problem([0.2, float("nan"), 0.2]))
    planner.plan(spot_problem([0.2, float("nan"), 0.2]))
    assert (planner.solves, planner.hits) == (3, 1)


class CountingPredictor(WindowMaxPredictor):
    def __init__(self):
        super().__init__(5)
        self.calls = 0

    def estimate(self, trace, now_hour, horizon_hours):
        self.calls += 1
        return super().estimate(trace, now_hour, horizon_hours)


def test_a_shared_estimate_is_read_only():
    shared = SharedPredictor(WindowMaxPredictor(5))
    estimate = shared.estimate(electricity_like_trace(days=5), 37.0, 6)
    with pytest.raises(ValueError):
        estimate[0] = 0.0
    problem = spot_problem(estimate)
    with pytest.raises(ValueError):
        problem.spot_price_estimates[SPOT] *= 2.0


def test_shared_estimates_are_kept_for_the_hour_only():
    inner = CountingPredictor()
    shared = SharedPredictor(inner)
    trace = electricity_like_trace(days=5)
    first = shared.estimate(trace, 37.0, 6)
    assert shared.estimate(trace, 37.0, 6) is first
    shared.estimate(trace, 37.0, 5)
    assert inner.calls == 2
    shared.estimate(trace, 38.0, 6)
    assert shared.estimate(trace, 37.0, 6) is not first
    assert inner.calls == 4
    other = SpotTrace(trace.prices[::-1].copy())
    assert not np.array_equal(shared.estimate(other, 37.0, 6), first)
    assert inner.calls == 5
