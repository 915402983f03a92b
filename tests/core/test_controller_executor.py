"""Tests for the fluid executor and the adaptive job controller."""

import pytest

from repro.cloud import public_cloud
from repro.cloud.traces import constant_trace
from repro.core import (
    CurrentPricePredictor,
    Goal,
    NetworkConditions,
    PlannerJob,
)
from repro.core.conditions import ActualConditions
from repro.core.controller import ControllerConfig, JobController
from repro.core.spot_sim import spot_services

NET = NetworkConditions.from_mbit_s(16.0)
JOB = PlannerJob(name="kmeans", input_gb=32.0)


def run_controller(services=None, actual=None, deadline=6.0, **kwargs):
    controller = JobController(
        JOB,
        services if services is not None else public_cloud(),
        Goal.min_cost(deadline_hours=deadline),
        network=NET,
        **kwargs,
    )
    return controller.run(actual or ActualConditions.as_predicted())


class TestNominalExecution:
    def test_completes_on_time_without_replans(self):
        result = run_controller()
        assert result.completed
        assert result.deadline_met
        assert result.replans == 0

    def test_cost_matches_plan_when_predictions_hold(self):
        result = run_controller()
        assert result.total_cost == pytest.approx(
            result.plans[0].predicted_cost, rel=0.02
        )

    def test_final_state_accounts_every_byte(self):
        result = run_controller()
        state = result.final_state
        assert state.map_done_gb == pytest.approx(JOB.input_gb, abs=1e-4)
        assert state.source_remaining_gb == pytest.approx(0.0, abs=1e-4)
        assert state.downloaded_gb == pytest.approx(JOB.result_gb, abs=1e-4)

    def test_ledger_total_equals_result_cost(self):
        result = run_controller()
        assert result.ledger.total() == pytest.approx(result.total_cost)

    def test_node_series_matches_outcomes(self):
        result = run_controller()
        assert len(result.node_series) == len(result.outcomes)


class TestAdaptation:
    def test_overestimated_rate_triggers_replan_and_recovery(self):
        believed = [
            s.replace(throughput_gb_per_hour=1.44)
            if s.name == "ec2.m1.large"
            else s
            for s in public_cloud()
        ]
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.44, "ec2.m1.xlarge": 0.3}
        )
        result = run_controller(services=believed, actual=actual)
        assert result.replans >= 1
        assert result.completed
        assert result.deadline_met  # the paper's Fig. 12 outcome

    def test_each_plan_builds_its_problem_once(self, monkeypatch):
        calls = []
        problem = JobController._problem

        def counted(self, state, deadline_override=None):
            calls.append(deadline_override)
            return problem(self, state, deadline_override)

        monkeypatch.setattr(JobController, "_problem", counted)
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.1, "ec2.m1.xlarge": 0.1}
        )
        result = run_controller(actual=actual)
        assert result.replans >= 1
        assert calls == [None] * (1 + result.replans)  # no horizon extension

    def test_underestimated_rate_detected(self):
        # Derate every instance type so the planner cannot dodge the
        # misprediction by switching types.
        believed = [
            s.replace(throughput_gb_per_hour=s.throughput_gb_per_hour * 0.6)
            if s.can_compute
            else s
            for s in public_cloud()
        ]
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.44, "ec2.m1.xlarge": 0.85}
        )
        result = run_controller(services=believed, actual=actual)
        assert result.completed
        # Faster-than-believed nodes: observed rate deviation re-plans to
        # fewer nodes (paper: "react to under-estimation ... reducing the
        # number of EC2 instances").
        assert result.replans >= 1

    def test_degraded_uplink_still_completes(self):
        actual = ActualConditions(uplink_factor=0.7)
        result = run_controller(actual=actual, deadline=8.0)
        assert result.completed

    def test_severe_shortfall_recovered_with_many_nodes(self):
        # Nodes at 1/4 speed: the controller re-plans and brute-forces
        # the deadline with a much larger (and costlier) allocation.
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.1, "ec2.m1.xlarge": 0.1}
        )
        nominal = run_controller()
        result = run_controller(actual=actual)
        assert result.completed
        assert result.replans >= 1
        assert result.total_cost > 2.0 * nominal.total_cost

    def test_congested_uplink_misses_deadline_but_finishes(self):
        # Upload alone needs 32 / (7.03 * 0.5) = 9.1 h > the 6 h deadline;
        # no amount of compute can save it, so the horizon extends.
        actual = ActualConditions(uplink_factor=0.5)
        result = run_controller(actual=actual)
        assert result.completed
        assert result.completion_hours > 6.0
        assert not result.deadline_met


class TestSpotExecution:
    def test_constant_trace_behaves_like_on_demand(self):
        trace = constant_trace(0.16, days=3)
        controller = JobController(
            JOB,
            spot_services(),
            Goal.min_cost(deadline_hours=10.0),
            network=NET,
            predictor=CurrentPricePredictor(),
            trace=trace,
        )
        result = controller.run(
            ActualConditions(spot_traces={"ec2.m1.large.spot": trace})
        )
        assert result.completed
        # 73 node-hours at a flat $0.16 plus small S3 costs.
        assert result.total_cost == pytest.approx(73 * 0.16, rel=0.06)

    def test_spot_requires_predictor(self):
        with pytest.raises(ValueError):
            JobController(
                JOB, spot_services(), Goal.min_cost(deadline_hours=10.0), network=NET
            )

    def test_outbid_hours_are_not_charged(self):
        import numpy as np

        from repro.cloud import SpotTrace

        # Price spikes above any sane bid in hours 2-4.
        prices = np.full(72, 0.16)
        prices[2:5] = 10.0
        trace = SpotTrace(prices)
        controller = JobController(
            JOB,
            spot_services(),
            Goal.min_cost(deadline_hours=12.0),
            network=NET,
            predictor=CurrentPricePredictor(),
            trace=trace,
        )
        result = controller.run(
            ActualConditions(spot_traces={"ec2.m1.large.spot": trace})
        )
        assert result.completed
        # Nothing was ever charged at the spike price.
        assert all(e.unit_price < 1.0 for e in result.ledger)


class TestConfig:
    def test_max_replans_cap(self):
        config = ControllerConfig(max_replans=0)
        actual = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.2, "ec2.m1.xlarge": 0.2}
        )
        result = run_controller(actual=actual, config=config)
        assert result.replans <= 1  # only the plan-exhausted fallback
