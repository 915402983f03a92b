"""Property suite: incremental solves agree with cold solves.

Strict mode pins the contract the replan hot path relies on: a warm
answer is only accepted when proven optimal against the fresh root
bound, so across randomized data perturbations the incremental solver
must reproduce the cold objective to 1e-9 relative — or fall back to
the cold path outright (structural changes, failed certification).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Goal, NetworkConditions, PlannerJob, PlanningProblem
from repro.core.planner import Planner
from repro.cloud import public_cloud
from repro.service import IncrementalSolver

DEADLINES = (2.0, 3.0)  # two horizons -> two structural fingerprints


def make_problem(uplink: float, input_gb: float, deadline: float,
                 price_factor: float) -> PlanningProblem:
    services = [
        s.replace(price_per_node_hour=s.price_per_node_hour * price_factor)
        if s.can_compute
        else s
        for s in public_cloud()
    ]
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=input_gb),
        services=services,
        network=NetworkConditions.from_mbit_s(uplink),
        goal=Goal.min_cost(deadline_hours=deadline),
    )


perturbations = st.tuples(
    st.floats(min_value=14.0, max_value=18.0),   # uplink: bounds/RHS drift
    st.floats(min_value=1.5, max_value=2.5),     # input: RHS drift
    st.sampled_from(DEADLINES),                  # horizon: structure switch
    st.floats(min_value=0.9, max_value=1.1),     # price: objective drift
)


class TestPlanningLevelAgreement:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(series=st.lists(perturbations, min_size=1, max_size=3))
    def test_strict_incremental_equals_cold(self, series):
        solver = IncrementalSolver(strict=True, mip_gap=1e-9)
        cold = Planner(mip_gap=1e-9)
        solver.solve(make_problem(16.0, 2.0, DEADLINES[0], 1.0))  # seed
        for uplink, input_gb, deadline, price in series:
            problem = make_problem(uplink, input_gb, deadline, price)
            warm_plan = solver.solve(problem)
            cold_plan = cold.plan(problem)
            assert warm_plan.solver_status == "optimal"
            assert cold_plan.solver_status == "optimal"
            # Strict warm answers are proven optimal against the fresh
            # root bound, so they match cold to solver precision ...
            assert abs(warm_plan.objective_value - cold_plan.objective_value) <= (
                1e-9 * max(1.0, abs(cold_plan.objective_value))
            )
            # ... and stay feasible: the plan meets its deadline.
            assert warm_plan.predicted_completion_hours <= deadline + 1e-6
        # Every solve is accounted for, whichever path answered it.
        assert solver.stats.solves == 1 + len(series)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(uplink=st.floats(min_value=14.0, max_value=18.0))
    def test_structure_switches_fall_back_cold_and_stay_correct(self, uplink):
        solver = IncrementalSolver(strict=True, mip_gap=1e-9)
        cold = Planner(mip_gap=1e-9)
        for deadline in (DEADLINES[0], DEADLINES[1], DEADLINES[0]):
            problem = make_problem(uplink, 2.0, deadline, 1.0)
            warm_plan = solver.solve(problem)
            cold_plan = cold.plan(problem)
            assert abs(warm_plan.objective_value - cold_plan.objective_value) <= (
                1e-9 * max(1.0, abs(cold_plan.objective_value))
            )
        # The third solve found its horizon's entry retained (an LRU with
        # capacity for both shapes): no structural fallbacks, some reuse.
        assert solver.stats.structural_fallbacks == 0
        assert solver.stats.solves == 3

