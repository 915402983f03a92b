"""One route table for the cold path.

Every way a problem reaches a cold solve is
``built.extract_plan(built.solve(limit, gap))``; ``extract_plan`` owns
the one no-solution :class:`PlanningError`.  So every route must return
the same plan for a feasible problem and raise the same error — status,
``budgeted`` flag and message — for an infeasible one, across thread and
process boundaries alike.
"""

import pytest

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, PlannerJob, PlanningProblem
from repro.core.model_builder import PlanningError, build_model
from repro.core.planner import Planner
from repro.lp import SolveStatus
from repro.service import IncrementalSolver, SolverPool, solve_problem


def make_problem(input_gb, goal) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="route-table", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(16.0),
        goal=goal,
    )


PROBLEMS = {
    "feasible": make_problem(4.0, Goal.min_cost(deadline_hours=3.0)),
    # 64 GB cannot even be uploaded through 16 Mbit/s within an hour.
    "infeasible": make_problem(64.0, Goal.min_cost(deadline_hours=1.0)),
    "budget_infeasible": make_problem(
        4.0, Goal.min_time(budget_usd=0.01, horizon_hours=3)
    ),
}


def via_pool(mode):
    def route(problem):
        pool = SolverPool(max_workers=1, mode=mode)
        try:
            return pool.submit(problem).result(timeout=300.0)
        finally:
            pool.shutdown()

    return route


ROUTES = {
    "solve_problem": solve_problem,
    "pool_inline": via_pool("inline"),
    "pool_thread": via_pool("thread"),
    # Also proves the error survives pickling out of a worker process.
    "pool_process": via_pool("process"),
    "incremental": lambda problem: IncrementalSolver().solve(problem),
}


def outcome(route, problem):
    """What a route makes of a problem, in comparable form."""
    try:
        plan = route(problem)
    except PlanningError as exc:
        return ("error", exc.status, exc.budgeted, str(exc))
    return ("plan", plan.solver_status, plan.objective_value)


@pytest.fixture(scope="module")
def reference():
    return {
        name: outcome(Planner().plan, problem)
        for name, problem in PROBLEMS.items()
    }


def test_the_reference_route_covers_all_three_outcomes(reference):
    assert reference["feasible"][:2] == ("plan", "optimal")
    # The message ends in HiGHS's own name for the model status.
    message = "planning failed for 'route-table': infeasible (Infeasible)"
    assert reference["infeasible"] == ("error", "infeasible", False, message)
    assert reference["budget_infeasible"] == ("error", "infeasible", True, message)


def test_a_solve_out_of_time_has_no_solution():
    built = build_model(PROBLEMS["feasible"])
    solution = built.solve(time_limit=0.0)
    assert solution.status is SolveStatus.ERROR
    assert solution.x is None
    with pytest.raises(PlanningError) as raised:
        built.extract_plan(solution)
    assert raised.value.status == "error"
    assert str(raised.value) == (
        "planning failed for 'route-table': error (Time limit reached)"
    )


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_route_agrees_with_planner_plan(route, problem, reference):
    got = outcome(ROUTES[route], PROBLEMS[problem])
    expected = reference[problem]
    if expected[0] == "plan":
        assert got[:2] == expected[:2]
        assert got[2] == pytest.approx(expected[2], rel=1e-9)
    else:
        assert got == expected
