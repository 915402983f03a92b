"""CachingPlanner: fingerprint -> plan cache -> planner, optimal plans only."""

from types import SimpleNamespace

import pytest

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, PlannerJob, PlanningProblem
from repro.core.model_builder import PlanningError
from repro.fleet import CachingPlanner


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
