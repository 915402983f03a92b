"""Unit tests for the fluid executor's charging and truncation rules."""

import pytest

from repro.accounting import CostCategory
from repro.cloud import SpotTrace, public_cloud
from repro.core import Goal, NetworkConditions, Planner, PlannerJob, PlanningProblem
from repro.core.conditions import ActualConditions
from repro.core.executor import FluidExecutor
from repro.core.plan import PlanInterval
from repro.core.problem import SystemState
from repro.core.spot_sim import spot_services

NET = NetworkConditions.from_mbit_s(16.0)


@pytest.fixture
def setup():
    job = PlannerJob(name="x", input_gb=14.0)
    problem = PlanningProblem(
        job=job,
        services=public_cloud(),
        network=NET,
        goal=Goal.min_cost(deadline_hours=4.0),
    )
    plan = Planner().plan(problem)
    return job, problem, plan


class TestExecution:
    def test_interval_outcomes_track_plan(self, setup):
        job, problem, plan = setup
        executor = FluidExecutor(problem, ActualConditions.as_predicted())
        state = SystemState.initial(job)
        outcome = executor.execute_interval(plan.intervals[0], state)
        assert outcome.uploaded_gb == pytest.approx(
            plan.intervals[0].total_upload_gb, abs=1e-6
        )
        assert outcome.map_shortfall == pytest.approx(0.0, abs=1e-6)
        assert state.hour == pytest.approx(1.0)

    def test_full_plan_completes_job(self, setup):
        job, problem, plan = setup
        executor = FluidExecutor(problem, ActualConditions.as_predicted())
        state = SystemState.initial(job)
        for interval in plan.intervals:
            executor.execute_interval(interval, state)
        assert executor.is_complete(state)
        state.validate_against(job)

    def test_slow_nodes_cause_shortfall(self, setup):
        job, problem, plan = setup
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.1, "ec2.m1.xlarge": 0.1}
        )
        executor = FluidExecutor(problem, actual)
        state = SystemState.initial(job)
        busy = next(i for i in plan.intervals if i.map_gb > 0.5)
        for interval in plan.intervals:
            outcome = executor.execute_interval(interval, state)
            if interval is busy:
                assert outcome.map_shortfall > 0.5
                break

    def test_slow_uplink_truncates_uploads(self, setup):
        job, problem, plan = setup
        executor = FluidExecutor(problem, ActualConditions(uplink_factor=0.5))
        state = SystemState.initial(job)
        first = next(i for i in plan.intervals if i.total_upload_gb > 1.0)
        outcome = executor.execute_interval(first, state)
        assert outcome.uploaded_gb <= 0.5 * NET.uplink_gb_per_hour + 1e-6

    def test_compute_charges_match_nodes(self, setup):
        job, problem, plan = setup
        executor = FluidExecutor(problem, ActualConditions.as_predicted())
        state = SystemState.initial(job)
        for interval in plan.intervals:
            executor.execute_interval(interval, state)
        compute = sum(
            e.amount
            for e in executor.ledger
            if e.category is CostCategory.COMPUTE
        )
        assert compute == pytest.approx(
            0.34 * plan.total_node_hours("ec2.m1.large")
            + 0.68 * plan.total_node_hours("ec2.m1.xlarge"),
            rel=1e-6,
        )

    def test_never_negative_stocks(self, setup):
        job, problem, plan = setup
        executor = FluidExecutor(problem, ActualConditions.as_predicted())
        state = SystemState.initial(job)
        for interval in plan.intervals:
            executor.execute_interval(interval, state)
            for gb in (
                list(state.stored_input.values())
                + list(state.stored_output.values())
                + list(state.stored_result.values())
            ):
                assert gb >= -1e-9
            assert state.source_remaining_gb >= -1e-9


class TestSpotMarketRule:
    """EC2 spot semantics (Section 4.7): a held bid at or above the
    market price runs and is charged the market price, not the bid."""

    PRICES = [0.10, 0.20, 0.30, 0.15]

    def run_hour(self, hour, bid):
        services = spot_services()
        spot = services[0].name
        job = PlannerJob(name="x", input_gb=1.0)
        problem = PlanningProblem(
            job=job, services=services, network=NET,
            goal=Goal.min_cost(deadline_hours=4.0),
        )
        actual = ActualConditions(spot_traces={spot: SpotTrace(self.PRICES)})
        executor = FluidExecutor(problem, actual, hour_offset=hour)
        executor.bids[spot] = bid
        interval = PlanInterval(
            index=0, start_hour=0.0, duration_hours=1.0, nodes={spot: 2}
        )
        outcome = executor.execute_interval(interval, SystemState.initial(job))
        compute = [e for e in executor.ledger if e.category is CostCategory.COMPUTE]
        return spot, outcome, compute

    def test_charged_market_price_not_bid(self):
        spot, outcome, compute = self.run_hour(hour=0.0, bid=0.50)
        assert outcome.nodes == {spot: 2}
        assert [e.unit_price for e in compute] == [0.10]
        assert sum(e.amount for e in compute) == pytest.approx(2 * 0.10)

    def test_bid_equal_to_price_runs(self):
        spot, outcome, compute = self.run_hour(hour=1.0, bid=0.20)
        assert outcome.nodes == {spot: 2}
        assert outcome.outbid_services == []
        assert [e.unit_price for e in compute] == [0.20]

    def test_outbid_terminates_and_charges_nothing(self):
        spot, outcome, compute = self.run_hour(hour=2.0, bid=0.25)
        assert spot not in outcome.nodes
        assert outcome.outbid_services == [spot]
        assert compute == []
