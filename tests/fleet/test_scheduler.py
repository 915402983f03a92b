"""Fleet scheduler: lockstep stepping, budgets, coalescing, the wire."""

import numpy as np
import pytest

from repro.api import DeployEventV1, decode, encode
from repro.cloud import SpotTrace
from repro.cloud.traces import (
    aws_like_trace,
    constant_trace,
    electricity_like_trace,
)
from repro.core import (
    CurrentPricePredictor,
    Goal,
    MarginBidder,
    NetworkConditions,
    PlannerJob,
    WindowMaxPredictor,
)
from repro.core.spot_sim import spot_services
from repro.fleet import (
    FailureInjector,
    FailureSpec,
    FleetConfig,
    FleetScheduler,
    Substrate,
    fleet_summary,
)

SPOT = spot_services()[0].name
CEILING = spot_services()[0].price_per_node_hour
RATE = spot_services()[0].throughput_gb_per_hour


def build_fleet(trace=None, mode="event", n=2, deadline=8.0, failures=None,
                actual_rates=None, input_gb=2.0, **config_kwargs):
    trace = trace if trace is not None else constant_trace(0.16, days=3)
    substrate = Substrate(
        {SPOT: trace}, eviction_bids={SPOT: CEILING}, failures=failures
    )
    fleet = FleetScheduler(
        substrate,
        FleetConfig(mode=mode, interval_cadence_hours=6.0, **config_kwargs),
    )
    for i in range(n):
        fleet.add(
            f"tenant-{i + 1}",
            PlannerJob(name="kmeans", input_gb=input_gb),
            spot_services(),
            Goal.min_cost(deadline_hours=deadline),
            network=NetworkConditions.from_mbit_s(16.0),
            predictor=CurrentPricePredictor(),
            actual_rates=actual_rates,
        )
    return fleet


class TestFleetRun:
    def test_all_deployments_complete_on_one_substrate(self):
        result = build_fleet(n=3).run()
        assert result.completed == 3
        assert result.deadlines_met == 3
        assert result.total_cost > 0
        assert len(result.deployments) == 3
        assert result.mode == "event"

    def test_identical_deployments_coalesce_onto_one_solve(self):
        result = build_fleet(n=4).run()
        # Four identical initial plans: one cold solve, three cache hits.
        assert result.solves >= 1
        assert result.cache_hits >= result.solves
        assert result.solves + result.cache_hits >= 4

    def test_stream_is_valid_v1_wire_format(self):
        events = []
        # 12 GB over a tight deadline keeps compute running across
        # several intervals, so the 2x actual rate is observed and acted
        # on mid-flight.
        build_fleet(
            n=2, input_gb=12.0, deadline=5.0,
            actual_rates={SPOT: RATE * 2.0},
        ).run(on_event=events.append)
        assert events
        kinds = set()
        for event in events:
            assert isinstance(event, DeployEventV1)
            line = encode(event)
            assert decode(line) == event
            kinds.add(event.event)
        # The 2x actual rate forces deviation re-plans, so the stream
        # carries both interval and replan events.
        assert kinds == {"interval", "replan"}
        replans = [e for e in events if e.event == "replan"]
        for event in replans:
            assert event.trigger
            assert event.reason
            assert event.duration_hours == 0.0

    def test_describe_summarizes_the_fleet(self):
        result = build_fleet(n=2).run()
        text = result.describe()
        assert "2 deployments" in text
        assert "tenant-1" in text and "tenant-2" in text


class TestReplanBudget:
    def test_zero_budget_falls_back_to_interval_behavior(self):
        """The satellite edge case: an event-mode fleet with no budget
        must behave exactly like the fixed-interval baseline."""
        rates = {SPOT: RATE * 2.0}
        zero = build_fleet(
            mode="event", replan_budget=0, actual_rates=rates
        ).run()
        interval = build_fleet(
            mode="interval", actual_rates=rates
        ).run()
        assert zero.total_cost == pytest.approx(interval.total_cost)
        assert zero.total_replans == interval.total_replans
        assert [d.result.completion_hours for d in zero.deployments] == [
            d.result.completion_hours for d in interval.deployments
        ]
        assert all(d.event_replans == 0 for d in zero.deployments)

    def test_budget_bounds_event_driven_replans(self):
        result = build_fleet(
            mode="event", replan_budget=1, actual_rates={SPOT: RATE * 2.0}
        ).run()
        assert all(d.event_replans <= 1 for d in result.deployments)

    def test_interval_mode_spends_no_budget(self):
        result = build_fleet(
            mode="interval", actual_rates={SPOT: RATE * 2.0}
        ).run()
        assert all(d.event_replans == 0 for d in result.deployments)


class TestEventReactions:
    def test_eviction_on_boundary_triggers_immediate_replan(self):
        """A price spike above the on-demand ceiling lands exactly on an
        interval boundary; the event-mode fleet re-plans the affected
        deployments at that boundary (not at the next cadence mark)."""
        prices = np.full(72, 0.16)
        prices[3:5] = 10.0  # crosses the ceiling exactly at hour 3.0
        fleet = build_fleet(trace=SpotTrace(prices), mode="event", n=2,
                            input_gb=12.0, deadline=6.0)
        result = fleet.run()
        assert result.completed == 2
        assert any(e.kind == "eviction" and e.hour == 3.0
                   for e in result.events)
        for summary in result.deployments:
            kinds = {r.kind for r in summary.result.replan_records}
            assert "eviction" in kinds
            hours = [r.hour for r in summary.result.replan_records
                     if r.kind == "eviction"]
            # The reaction lands on the boundary itself, not at the next
            # cadence mark (6 h) — the whole point of event mode.
            assert min(hours) == pytest.approx(3.0)

    def test_node_failure_degrades_and_recovers(self):
        failures = FailureInjector(
            schedule=[FailureSpec(hour=1.0, service=SPOT, severity=0.5,
                                  duration_hours=1.0)]
        )
        # A tight deadline and an 8 GB input force compute both during
        # the failure window and after the restore, so both rates are
        # observable.
        result = build_fleet(
            mode="event", n=1, failures=failures, input_gb=8.0, deadline=5.0
        ).run()
        summary = result.deployments[0]
        assert summary.result.completed
        observed = [
            rate
            for outcome in summary.result.outcomes
            for rate in outcome.observed_rates.values()
        ]
        # Both the degraded and the recovered rate were actually seen.
        assert any(rate == pytest.approx(RATE * 0.5) for rate in observed)
        assert any(rate == pytest.approx(RATE) for rate in observed)
        kinds = {r.kind for r in summary.result.replan_records}
        assert "failure" in kinds


class TestValidation:
    def test_mismatched_interval_is_rejected(self):
        fleet = build_fleet(n=0)
        with pytest.raises(ValueError, match="does not match the"):
            fleet.add(
                "bad",
                PlannerJob(name="kmeans", input_gb=2.0),
                spot_services(),
                Goal.min_cost(deadline_hours=8.0),
                predictor=CurrentPricePredictor(),
                problem_kwargs={"interval_hours": 2.0},
            )

    def test_spot_service_requires_a_trace(self):
        substrate = Substrate({})
        fleet = FleetScheduler(substrate, FleetConfig())
        with pytest.raises(ValueError, match="has no trace"):
            fleet.add(
                "bad",
                PlannerJob(name="kmeans", input_gb=2.0),
                spot_services(),
                Goal.min_cost(deadline_hours=8.0),
                predictor=CurrentPricePredictor(),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(mode="psychic")
        with pytest.raises(ValueError):
            FleetConfig(replan_budget=-1)
        with pytest.raises(ValueError):
            FleetConfig(interval_cadence_hours=0.0)


class TestCapacity:
    def test_capacity_drop_caps_subsequent_plans(self):
        substrate = Substrate(
            {SPOT: constant_trace(0.16, days=3)},
            eviction_bids={SPOT: CEILING},
            capacity={SPOT: 64},
            capacity_schedule=[(2.0, SPOT, 2)],
        )
        fleet = FleetScheduler(
            substrate, FleetConfig(mode="event", interval_cadence_hours=6.0)
        )
        # 12 GB against a 5 h deadline needs well over 2 concurrent
        # nodes.  At 10 Mbit/s (4.5 GB/h) at most 9 GB is up by hour 2,
        # so every plan still has >= 3 GB to map in hours 2-4 — more
        # than 2 nodes can — when the cap lands; with the cap the job
        # runs long (horizon extension) but every subsequent plan
        # respects the limit.
        fleet.add(
            "capped",
            PlannerJob(name="kmeans", input_gb=12.0),
            spot_services(),
            Goal.min_cost(deadline_hours=5.0),
            network=NetworkConditions.from_mbit_s(10.0),
            predictor=CurrentPricePredictor(),
        )
        result = fleet.run()
        summary = result.deployments[0]
        assert summary.result.completed
        assert summary.result.plans[0].peak_nodes(SPOT) > 2
        # Every plan adopted after the hour-2 capacity change respects
        # the 2-node limit (the initial plan did not).
        replanned = [
            summary.result.plans[r.plan_index]
            for r in summary.result.replan_records
            if r.hour >= 2.0
        ]
        assert replanned, "the capacity change should force a re-plan"
        for plan in replanned:
            assert plan.peak_nodes(SPOT) <= 2
        # And what actually ran stayed within the limit after the change.
        for outcome in summary.result.outcomes:
            if outcome.start_hour >= 3.0:
                assert outcome.nodes.get(SPOT, 0) <= 2


    def test_capacity_drop_ignores_intervals_already_run(self):
        # The plan's 8-node peak is in hour 5; the drop to 1 node lands at
        # hour 6, and the one interval left needs 1 node.  Nothing still
        # to run violates the limit, so no re-plan and no budget spent.
        substrate = Substrate(
            {SPOT: constant_trace(0.16, days=3)},
            eviction_bids={SPOT: CEILING},
            capacity={SPOT: 64},
            capacity_schedule=[(6.0, SPOT, 1)],
        )
        fleet = FleetScheduler(
            substrate, FleetConfig(mode="event", interval_cadence_hours=24.0)
        )
        fleet.add(
            "late-drop",
            PlannerJob(name="kmeans", input_gb=4.0),
            spot_services(),
            Goal.min_cost(deadline_hours=8.0),
            network=NetworkConditions.from_mbit_s(8.0),
            predictor=CurrentPricePredictor(),
        )
        summary = fleet.run().deployments[0]
        executed = [o.nodes.get(SPOT, 0) for o in summary.result.outcomes]
        assert max(executed[:6]) > 1
        assert executed[6:] and max(executed[6:]) <= 1
        assert "capacity" not in [r.kind for r in summary.result.replan_records]
        assert summary.budget_remaining == 16


class CountingWindowMax(WindowMaxPredictor):
    """``p5`` that records every question the fleet asks it."""

    def __init__(self):
        super().__init__(5)
        self.estimates = []
        self.bids = []

    def estimate(self, trace, now_hour, horizon_hours):
        self.estimates.append((trace.label, now_hour, horizon_hours))
        return super().estimate(trace, now_hour, horizon_hours)

    def bid(self, trace, now_hour):
        self.bids.append((trace.label, now_hour))
        # Not through self.estimate: only the fleet's questions count.
        return float(WindowMaxPredictor.estimate(self, trace, now_hour, 1)[0])


def electricity(seed=37, label="electricity"):
    return SpotTrace(electricity_like_trace(days=5, seed=seed).prices, label=label)


def spot_fleet(predictors, traces=None):
    """One 4 GB, 12 h deployment per predictor, from hour 37; with
    ``traces`` (spot service name -> trace), deployment k runs on the
    k-th spot service, round robin."""
    traces = traces or {SPOT: electricity()}
    substrate = Substrate(
        traces, eviction_bids={name: CEILING for name in traces}
    )
    fleet = FleetScheduler(substrate, FleetConfig(mode="event", start_hour=37.0))
    names = list(traces)
    for i, predictor in enumerate(predictors):
        spot = names[i % len(names)]
        fleet.add(
            f"tenant-{i + 1}",
            PlannerJob(name="kmeans", input_gb=4.0),
            [s.replace(name=spot) if s.is_spot else s for s in spot_services()],
            Goal.min_cost(deadline_hours=12.0),
            network=NetworkConditions.from_mbit_s(16.0),
            predictor=predictor,
        )
    return fleet


class TestSharedEstimates:
    def test_each_question_reaches_the_predictor_once(self):
        predictor = CountingWindowMax()
        result = spot_fleet([predictor] * 8).run()
        assert result.completed == 8 and result.total_replans > 8
        asked = predictor.estimates
        assert len(asked) == len(set(asked))
        # Re-plans ask at later hours: sharing held past the initial plans.
        assert len({hour for _, hour, _ in asked}) > 1
        bids = predictor.bids
        assert sorted(hour for _, hour in bids) == [
            37.0 + h for h in range(len(bids))
        ]

    def test_a_shared_predictor_changes_no_outcome(self):
        shared = spot_fleet([WindowMaxPredictor(5)] * 8).run()
        # A predictor per deployment shares nothing.
        alone = spot_fleet([WindowMaxPredictor(5) for _ in range(8)]).run()
        assert fleet_summary(shared) == fleet_summary(alone)

    def test_margin_bidder_keeps_its_margin(self):
        trace = aws_like_trace(days=5, seed=37)
        fleet = spot_fleet(
            [MarginBidder(WindowMaxPredictor(5), margin=0.2)] * 3,
            traces={SPOT: trace},
        )
        fleet.run(max_hours=1.0)
        expected = WindowMaxPredictor(5).bid(trace, 37.0) * 1.2
        assert expected < CEILING
        for deployment in fleet.deployments:
            assert deployment.run._executor.bids[SPOT] == expected

    def test_deployments_on_two_traces_never_share_an_entry(self):
        other = f"{SPOT}-b"
        traces = {SPOT: electricity(37, "a"), other: electricity(38, "b")}
        predictor = CountingWindowMax()
        fleet = spot_fleet([predictor] * 4, traces=traces)
        # Alternate the two traces' questions through the one table.
        for deployment in fleet.deployments:
            controller = deployment.controller
            own = WindowMaxPredictor(5).estimate(controller.trace, 37.0, 12)
            assert np.array_equal(
                controller.predictor.estimate(controller.trace, 37.0, 12), own
            )
        assert predictor.estimates == [("a", 37.0, 12), ("b", 37.0, 12)]
        fleet.run()
        asked = predictor.estimates
        assert len(asked) == len(set(asked))
        assert {("a", 37.0), ("b", 37.0)} <= set(predictor.bids)
