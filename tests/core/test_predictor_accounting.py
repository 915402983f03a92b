"""Tests for spot predictors, the cost ledger, and plan objects."""

import numpy as np
import pytest

from repro.accounting import CostCategory, CostLedger
from repro.cloud import SpotTrace, electricity_like_trace
from repro.core import (
    CurrentPricePredictor,
    OptimalPredictor,
    WindowMaxPredictor,
    predictor_suite,
)
from repro.core.plan import ExecutionPlan, PlanInterval


@pytest.fixture
def trace():
    # 3 days: hour-of-day pattern 0.1 + 0.01 * hour.
    prices = np.tile(0.1 + 0.01 * np.arange(24), 3)
    return SpotTrace(prices)


class TestPredictors:
    def test_optimal_returns_actual_future(self, trace):
        est = OptimalPredictor().estimate(trace, now_hour=30.0, horizon_hours=4)
        expected = [trace.price_at(30 + h) for h in range(4)]
        assert list(est) == pytest.approx(expected)

    def test_p0_is_flat_current(self, trace):
        est = CurrentPricePredictor().estimate(trace, now_hour=30.0, horizon_hours=5)
        assert np.all(est == trace.price_at(30.0))

    def test_window_max_tracks_hour_of_day(self, trace):
        est = WindowMaxPredictor(2).estimate(trace, now_hour=48.0, horizon_hours=24)
        # The trace repeats daily, so same-hour max == the actual price.
        expected = [trace.price_at(48 + h) for h in range(24)]
        assert list(est) == pytest.approx(expected)

    def test_window_max_captures_spikes(self):
        prices = np.full(96, 0.1)
        prices[30] = 0.5  # a spike at hour 30 (= hour-of-day 6, day 1)
        trace = SpotTrace(prices)
        est = WindowMaxPredictor(3).estimate(trace, now_hour=72.0, horizon_hours=24)
        assert est[6] == pytest.approx(0.5)  # remembered at that hour
        assert est[7] == pytest.approx(0.1)

    def test_window_requires_positive_days(self):
        with pytest.raises(ValueError):
            WindowMaxPredictor(0)

    def test_bid_defaults_to_first_estimate(self, trace):
        predictor = CurrentPricePredictor()
        assert predictor.bid(trace, 10.0) == pytest.approx(trace.price_at(10.0))

    def test_suite_contents(self):
        names = [p.name for p in predictor_suite(windows=(5, 13))]
        assert names == ["opt", "p0", "p5", "p13"]

    def test_optimal_never_costlier_than_others_on_average(self):
        # Sanity: averaged over many hours, the oracle's mean estimate is
        # a lower bound on the conservative window-max estimate.
        trace = electricity_like_trace(days=10, seed=5)
        opt = OptimalPredictor().estimate(trace, 120.0, 24).mean()
        pessimist = WindowMaxPredictor(5).estimate(trace, 120.0, 24).mean()
        assert pessimist >= opt - 1e-9


class TestCostLedger:
    def test_amounts_accumulate(self):
        ledger = CostLedger()
        ledger.add(0.0, "ec2", CostCategory.COMPUTE, "lease", 5, "node-h", 0.34)
        ledger.add(1.0, "s3", CostCategory.STORAGE, "GB-h", 10, "GB-h", 0.001)
        assert ledger.total() == pytest.approx(5 * 0.34 + 0.01)
        assert len(ledger) == 2

    def test_negative_inputs_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.add(0.0, "x", CostCategory.COMPUTE, "d", -1, "u", 1.0)
        with pytest.raises(ValueError):
            ledger.add(0.0, "x", CostCategory.COMPUTE, "d", 1, "u", -1.0)

    def test_figure5_breakdown_mapping(self):
        ledger = CostLedger()
        ledger.add(0.0, "ec2.m1.large", CostCategory.COMPUTE, "lease", 10, "h", 0.34)
        ledger.add(0.0, "s3", CostCategory.STORAGE, "gbh", 100, "GB-h", 2e-4)
        ledger.add(0.0, "s3", CostCategory.REQUESTS, "puts", 32, "GB", 1.6e-4)
        ledger.add(0.0, "ec2.m1.large", CostCategory.TRANSFER, "out", 1, "GB", 0.1)
        breakdown = ledger.figure5_breakdown()
        assert breakdown["computation/EC2"] == pytest.approx(3.4)
        assert breakdown["storage/S3"] == pytest.approx(0.02 + 32 * 1.6e-4)
        assert breakdown["network transfer"] == pytest.approx(0.1)
        assert sum(breakdown.values()) == pytest.approx(ledger.total())


def _interval(index, start, nodes=0, upload=0.0):
    interval = PlanInterval(index=index, start_hour=start, duration_hours=1.0)
    if nodes:
        interval.nodes["ec2"] = nodes
    if upload:
        interval.upload_gb["s3"] = upload
    return interval


class TestExecutionPlan:
    def make_plan(self, intervals):
        return ExecutionPlan(
            intervals=intervals,
            predicted_cost=1.0,
            predicted_cost_breakdown={},
            predicted_completion_hours=float(len(intervals)),
            objective_value=1.0,
            solver_status="optimal",
            solve_seconds=0.0,
        )

    def test_interval_lookup(self):
        plan = self.make_plan([_interval(1, 0.0, 2), _interval(2, 1.0, 4)])
        assert plan.interval_at(0.5).index == 1
        assert plan.interval_at(1.0).index == 2
        assert plan.interval_at(99.0).index == 2  # clamps to the last

    def test_peak_and_node_hours(self):
        plan = self.make_plan([_interval(1, 0.0, 2), _interval(2, 1.0, 4)])
        assert plan.peak_nodes() == 4
        assert plan.total_node_hours() == pytest.approx(6.0)

    def test_requires_intervals(self):
        with pytest.raises(ValueError):
            self.make_plan([])
