"""Tests for the planning problem vocabulary (jobs, goals, network, state)."""

import pytest

from repro.cloud import public_cloud
from repro.core import (
    Goal,
    GoalKind,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
)


class TestPlannerJob:
    def test_derived_sizes(self):
        job = PlannerJob(input_gb=32.0, map_output_ratio=0.01, reduce_output_ratio=0.5)
        assert job.map_output_gb == pytest.approx(0.32)
        assert job.result_gb == pytest.approx(0.16)

    def test_rates_scale(self):
        job = PlannerJob(input_gb=32.0, throughput_scale=2.0, reduce_speed_factor=4.0)
        service = public_cloud()[0]
        assert job.map_rate(service) == pytest.approx(0.88)
        assert job.reduce_rate(service) == pytest.approx(0.88 * 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_gb": 0.0},
            {"input_gb": -1.0},
            {"map_output_ratio": -0.1},
            {"throughput_scale": 0.0},
            {"reduce_speed_factor": 0.0},
        ],
    )
    def test_invalid_jobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlannerJob(**{"input_gb": 32.0, **kwargs})


class TestGoal:
    def test_min_cost(self):
        goal = Goal.min_cost(deadline_hours=6.0)
        assert goal.kind is GoalKind.MINIMIZE_COST
        assert goal.deadline_hours == 6.0

    def test_min_time(self):
        goal = Goal.min_time(budget_usd=30.0, horizon_hours=12.0)
        assert goal.kind is GoalKind.MINIMIZE_TIME
        assert goal.budget_usd == 30.0
        assert goal.deadline_hours == 12.0

    def test_invalid_goals(self):
        with pytest.raises(ValueError):
            Goal.min_cost(deadline_hours=0)
        with pytest.raises(ValueError):
            Goal.min_time(budget_usd=-5)


class TestNetworkConditions:
    def test_paper_default_uplink(self):
        net = NetworkConditions()
        assert net.uplink_gb_per_hour == pytest.approx(7.03, abs=0.01)

    def test_from_mbit(self):
        net = NetworkConditions.from_mbit_s(8.0)
        assert net.uplink_gb_per_hour == pytest.approx(3.52, abs=0.01)
        assert net.downlink_gb_per_hour == pytest.approx(3.52, abs=0.01)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NetworkConditions(uplink_gb_per_hour=0.0)


class TestSystemState:
    def test_initial_state(self):
        job = PlannerJob(input_gb=32.0)
        state = SystemState.initial(job)
        assert state.source_remaining_gb == 32.0
        assert state.map_done_gb == 0.0

    def test_consistent_state_accepted(self):
        job = PlannerJob(input_gb=32.0)
        state = SystemState(
            source_remaining_gb=16.0,
            stored_input={"s3": 8.0},
            map_done_gb=8.0,
            stored_output={"s3": 8.0 * job.map_output_ratio},
        )
        state.validate_against(job)

    def test_excess_input_rejected(self):
        job = PlannerJob(input_gb=32.0)
        state = SystemState(source_remaining_gb=30.0, stored_input={"s3": 10.0})
        with pytest.raises(ValueError):
            state.validate_against(job)

    def test_unaccounted_output_rejected(self):
        job = PlannerJob(input_gb=32.0)
        state = SystemState(source_remaining_gb=16.0, map_done_gb=16.0)
        with pytest.raises(ValueError):
            state.validate_against(job)


class TestPlanningProblem:
    def make(self, **kwargs):
        defaults = dict(
            job=PlannerJob(input_gb=32.0),
            services=public_cloud(),
            network=NetworkConditions(),
            goal=Goal.min_cost(deadline_hours=6.0),
        )
        defaults.update(kwargs)
        return PlanningProblem(**defaults)

    def test_horizon_intervals(self):
        assert self.make().horizon_intervals == 6
        assert self.make(interval_hours=0.5).horizon_intervals == 12

    def test_unknown_fraction_service_rejected(self):
        with pytest.raises(ValueError):
            self.make(upload_fractions={"azure": 0.5})

    def test_fractions_over_one_rejected(self):
        with pytest.raises(ValueError):
            self.make(upload_fractions={"s3": 0.7, "ec2.m1.large": 0.7})

    def test_unknown_spot_estimate_rejected(self):
        with pytest.raises(ValueError):
            self.make(spot_price_estimates={"azure": [0.1]})

    def test_bad_lag_rejected(self):
        with pytest.raises(ValueError):
            self.make(upload_read_lag=2)

    def test_service_partition(self):
        problem = self.make()
        storage = {s.name for s in problem.storage_services()}
        compute = {s.name for s in problem.compute_services()}
        assert "s3" in storage and "s3" not in compute
        assert "ec2.m1.large" in storage and "ec2.m1.large" in compute
