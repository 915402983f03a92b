"""When a deployment re-plans: the monitor's taxonomy and precedence, the
fixed cadence, and stepping a run."""

import numpy as np
import pytest

from repro.cloud import SpotTrace, public_cloud
from repro.core import (
    CurrentPricePredictor,
    Goal,
    NetworkConditions,
    PlannerJob,
)
from repro.core.conditions import ActualConditions
from repro.core.controller import ControllerConfig, JobController
from repro.core.executor import IntervalOutcome
from repro.core.spot_sim import spot_services

NET = NetworkConditions.from_mbit_s(16.0)
JOB = PlannerJob(name="kmeans", input_gb=8.0)
#: The believed per-node rate of ec2.m1.large, as the monitor scales it.
LARGE_RATE = {s.name: s.throughput_gb_per_hour for s in public_cloud()}[
    "ec2.m1.large"
] * JOB.throughput_scale


def outcome(index=2, start_hour=1.0, duration=1.0, **kwargs):
    defaults = dict(
        nodes={"ec2.m1.large": 4},
        uploaded_gb=0.0,
        map_gb=4.0,
        reduce_gb=0.0,
        downloaded_gb=0.0,
        planned_map_gb=4.0,
        planned_upload_gb=0.0,
        cost=1.0,
    )
    defaults.update(kwargs)
    return IntervalOutcome(
        index=index, start_hour=start_hour, duration_hours=duration, **defaults
    )


@pytest.fixture(scope="module")
def run():
    """A planned, never-stepped run: its beliefs stay the catalog's."""
    run = JobController(
        JOB, public_cloud(), Goal.min_cost(deadline_hours=4.0), network=NET
    ).start()
    yield run
    run.close()


class TestDefaultPolicy:
    def test_quiet_interval_fires_nothing(self, run):
        assert run.monitor(
            outcome(observed_rates={"ec2.m1.large": LARGE_RATE})
        ) is None

    def test_eviction_has_highest_precedence(self, run):
        out = outcome(
            outbid_services=["ec2.m1.large.spot"],
            spot_data_lost_gb=2.0,
            map_gb=0.0,  # also a 100% shortfall
        )
        kind, reason = run.monitor(out)
        assert kind == "eviction"
        assert "out-bid on ec2.m1.large.spot" in reason

    def test_storage_loss_is_a_failure(self, run):
        kind, reason = run.monitor(outcome(spot_data_lost_gb=1.5))
        assert kind == "failure"
        assert "1.5 GB" in reason
        kind, reason = run.monitor(outcome(failed_services=["ec2.m1.large"]))
        assert (kind, reason) == ("failure", "worker failure on ec2.m1.large")

    def test_progress_shortfall_is_a_deviation(self, run):
        kind, reason = run.monitor(outcome(map_gb=2.0, planned_map_gb=4.0))
        assert kind == "deviation"
        assert "shortfall" in reason

    def test_rate_deviation_uses_believed_rates(self, run):
        kind, reason = run.monitor(
            outcome(observed_rates={"ec2.m1.large": 2.0 * LARGE_RATE})
        )
        assert kind == "deviation"
        assert "rate deviation" in reason
        # Within threshold: quiet.
        assert run.monitor(
            outcome(observed_rates={"ec2.m1.large": 1.05 * LARGE_RATE})
        ) is None

    def test_price_deviation_compares_estimate_to_trace(self):
        # The plan is made at hour 0 from a 0.16 market; the market then
        # spikes to 0.40 from hour 24.
        trace = SpotTrace(np.r_[np.full(24, 0.16), np.full(24, 0.40)])
        spot_run = JobController(
            JOB,
            spot_services(),
            Goal.min_cost(deadline_hours=4.0),
            network=NET,
            predictor=CurrentPricePredictor(),
            trace=trace,
        ).start()
        try:
            name = spot_services()[0].name
            kind, reason = spot_run.monitor(outcome(index=1, start_hour=30.0))
            assert (kind, reason) == ("price", f"spot price deviation on {name}")
            # Estimates that match the market stay quiet.
            assert spot_run.monitor(outcome(index=1, start_hour=1.0)) is None
        finally:
            spot_run.close()


def replan_hours(cadence_hours, actual=None, input_gb=32.0, deadline=14.0,
                 mbit_s=8.0):
    result = JobController(
        PlannerJob(name="kmeans", input_gb=input_gb),
        public_cloud(),
        Goal.min_cost(deadline_hours=deadline),
        network=NetworkConditions.from_mbit_s(mbit_s),
        cadence_hours=cadence_hours,
    ).run(actual)
    return [(r.hour, r.kind) for r in result.replan_records]


class TestIntervalTrigger:
    def test_fires_exactly_on_cadence_crossings(self):
        # Interval [1, 2) ends on the mark at 2 and re-plans at hour 2,
        # not an interval later; the job completes at hour 10.
        assert replan_hours(2.0) == [
            (2.0, "interval"), (4.0, "interval"), (6.0, "interval"),
            (8.0, "interval"),
        ]

    def test_cadence_longer_than_interval(self):
        # Marks at 2.5, 5, 7.5 land inside intervals [2,3), [4,5), [7,8).
        assert [h for h, _ in replan_hours(2.5)] == [3.0, 5.0, 8.0]

    def test_interval_policy_ignores_everything_else(self):
        # Nodes twice as fast as believed: the monitor re-plans at once,
        # a cadence controller only on its mark.
        fast = ActualConditions(
            throughput_gb_per_hour={"ec2.m1.large": 0.88, "ec2.m1.xlarge": 1.7}
        )
        # 16 GB runs past the mark at hour 2 even on the fast nodes.
        small = dict(input_gb=16.0, deadline=6.0, mbit_s=16.0)
        assert "deviation" in {k for _, k in replan_hours(None, fast, **small)}
        assert replan_hours(2.0, fast, **small) == [(2.0, "interval")]

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError, match="cadence_hours"):
            JobController(
                JOB, public_cloud(), Goal.min_cost(deadline_hours=4.0),
                cadence_hours=0,
            )


class TestControllerRunStepping:
    def controller(self, **kwargs):
        return JobController(
            JOB,
            public_cloud(),
            Goal.min_cost(deadline_hours=4.0),
            network=NET,
            **kwargs,
        )

    def test_stepping_matches_run(self):
        # Slower nodes than believed: the plan's own service (m1.xlarge
        # is dominated by m1.large and never planned).
        actual = ActualConditions(throughput_gb_per_hour={"ec2.m1.large": 0.3})
        whole = self.controller().run(actual)
        run = self.controller().start(actual)
        outcomes = []
        while (out := run.step()) is not None:
            outcomes.append(out)
        stepped = run.result()
        assert stepped.completed == whole.completed
        assert stepped.replans == whole.replans
        assert stepped.total_cost == pytest.approx(whole.total_cost)
        assert [o.index for o in outcomes] == [o.index for o in whole.outcomes]

    def test_replan_records_name_their_trigger(self):
        # Slower nodes than believed: the plan's own service (m1.xlarge
        # is dominated by m1.large and never planned).
        actual = ActualConditions(throughput_gb_per_hour={"ec2.m1.large": 0.3})
        result = self.controller().run(actual)
        assert result.replans >= 1
        assert len(result.replan_records) == result.replans
        assert len(result.plans) == result.replans + 1
        for record in result.replan_records:
            assert record.kind in (
                "interval", "deviation", "price", "eviction", "failure",
                "capacity", "exhausted", "external",
            )
            assert result.plans[record.plan_index] is not None

    def test_request_replan_external(self):
        run = self.controller().start()
        assert run.step() is not None
        assert run.request_replan("operator asked", kind="external")
        run.step()
        assert any(r.kind == "external" for r in run.replan_records)

    def test_request_replan_refused_when_done(self):
        controller = self.controller()
        run = controller.start()
        while run.step() is not None:
            pass
        assert run.done
        assert not run.request_replan("too late")

    def test_request_replan_respects_cap(self):
        controller = self.controller(config=ControllerConfig(max_replans=0))
        run = controller.start()
        run.step()
        assert not run.request_replan("never allowed")
