"""The Orchestrator facade: plan / submit / deploy / structured errors."""

import multiprocessing
import threading
import time

import pytest

from repro.api import (
    DeployEventV1,
    ErrorV1,
    GoalSpec,
    JobSpec,
    NetworkSpec,
    Orchestrator,
    OrchestratorError,
    PlanRequestV1,
    decode,
    encode,
    error_v1_from_exception,
)
from repro.core.conditions import ActualConditions
from repro.core.planner import Planner
from repro.exec import BACKENDS
from repro.obs.trace import RunTracer, TraceCollector
from repro.service import ServiceConfig

INLINE = ServiceConfig(pool_mode="inline", max_workers=1)

SPEC = JobSpec(input_gb=4.0, goal=GoalSpec(deadline_hours=3.0))
INFEASIBLE = JobSpec(input_gb=64.0, goal=GoalSpec(deadline_hours=2.0))


class NoSolve(Planner):
    """A planner that fails the test if anything reaches the solver."""

    def plan(self, problem):
        raise AssertionError("solved before the request was validated")


class TestPlan:
    def test_plan_solves_a_spec(self):
        plan = Orchestrator().plan(SPEC)
        assert plan.solver_status == "optimal"
        assert plan.predicted_cost > 0

    def test_plan_matches_direct_planner(self):
        """The facade adds declaration, not a different optimum."""
        from repro.core import Planner

        orchestrator = Orchestrator()
        direct = Planner().plan(orchestrator.compile(SPEC))
        via_api = orchestrator.plan(SPEC)
        assert via_api.predicted_cost == pytest.approx(direct.predicted_cost)

    def test_infeasible_spec_raises_structured_error(self):
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator().plan(INFEASIBLE)
        assert excinfo.value.error.code == "infeasible"

    def test_budget_goal_maps_to_budget_exceeded(self):
        spec = JobSpec(
            input_gb=8.0,
            goal=GoalSpec(objective="minimize-time", budget_usd=0.01,
                          deadline_hours=4.0),
        )
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator().plan(spec)
        assert excinfo.value.error.code == "budget_exceeded"

    def test_missing_catalog_file_is_bad_request(self):
        spec = JobSpec(catalog="xml", services_xml="/nonexistent.xml")
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator().plan(spec)
        assert excinfo.value.error.code == "bad_request"


class TestSubmit:
    def test_submit_and_cache_hit(self):
        with Orchestrator(service_config=INLINE) as orchestrator:
            first = orchestrator.submit(SPEC).result(timeout=120.0)
            second = orchestrator.submit(SPEC).result(timeout=120.0)
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert first.error_code == ""

    def test_plan_v1_round_trip(self):
        request = PlanRequestV1(job=SPEC, tenant="acme", request_id="r-1")
        with Orchestrator(service_config=INLINE) as orchestrator:
            response = orchestrator.plan_v1(request, timeout=120.0)
        assert response.ok
        assert response.status == "completed"
        assert response.tenant == "acme"
        assert response.request_id == "r-1"
        assert response.predicted_cost > 0
        assert response.peak_nodes >= 1
        assert response.solver_status == "optimal"
        assert decode(encode(response)) == response

    def test_failed_solve_carries_stable_code(self):
        """Satellite fix: no more stringified-exception-only errors."""
        request = PlanRequestV1(job=INFEASIBLE, tenant="acme")
        with Orchestrator(service_config=INLINE) as orchestrator:
            response = orchestrator.plan_v1(request, timeout=120.0)
        assert response.status == "failed"
        assert isinstance(response.error, ErrorV1)
        assert response.error.code == "infeasible"
        assert decode(encode(response)) == response

    def test_result_error_code_populated_by_service(self):
        with Orchestrator(service_config=INLINE) as orchestrator:
            result = orchestrator.submit(INFEASIBLE).result(timeout=120.0)
        assert result.status.value == "failed"
        assert result.error_code == "infeasible"
        assert "infeasible" in result.error

    def test_shared_external_service(self):
        """An orchestrator wrapping a caller-owned service must not stop it."""
        from repro.service import PlanningService

        service = PlanningService(INLINE)
        with service:
            orchestrator = Orchestrator(service=service)
            result = orchestrator.submit(SPEC).result(timeout=120.0)
            assert result.ok
            orchestrator.close()
            # Still usable: close() must not have stopped the service.
            assert orchestrator.submit(SPEC).result(timeout=120.0).ok

    def test_submit_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="JobSpec"):
            Orchestrator(service_config=INLINE).submit("a string")


class TestDeploy:
    def test_deploy_streams_versioned_events(self):
        events = []
        orchestrator = Orchestrator()
        result = orchestrator.deploy(
            SPEC, tenant="acme", on_event=events.append
        )
        assert result.completed
        assert events, "deployment must stream at least one interval"
        assert all(isinstance(e, DeployEventV1) for e in events)
        assert all(e.tenant == "acme" for e in events)
        # Events round-trip through the wire format.
        assert decode(encode(events[0])) == events[0]
        # The stream is the deployment: indices advance, costs sum up.
        assert [e.index for e in events] == sorted(e.index for e in events)
        assert sum(e.cost for e in events) == pytest.approx(result.total_cost)

    def test_deploy_returns_controller_result(self):
        """deploy runs the controller to the end and hands back its result."""
        from repro.core.controller import ControllerResult

        result = Orchestrator().deploy(SPEC, tenant="acme")
        assert isinstance(result, ControllerResult)
        assert result.completed and result.deadline_met
        assert result.total_cost > 0

    def test_spot_without_predictor_is_bad_request(self):
        spec = JobSpec(input_gb=4.0, goal=GoalSpec(deadline_hours=3.0),
                       catalog="spot")
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator().deploy(spec)
        assert excinfo.value.error.code == "bad_request"

    def test_unknown_backend_is_bad_request_before_any_solve(self):
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator(planner=NoSolve()).deploy(SPEC, backend="nope")
        assert excinfo.value.error.code == "bad_request"
        assert "unknown execution backend 'nope'" in str(excinfo.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_backend_option_is_bad_request_before_any_solve(
        self, backend
    ):
        with pytest.raises(OrchestratorError) as excinfo:
            Orchestrator(planner=NoSolve()).deploy(
                SPEC, backend=backend, backend_options={"task_gbb": 1},
            )
        assert excinfo.value.error.code == "bad_request"
        assert "unknown backend options ['task_gbb']" in str(excinfo.value)


#: The chaos deploy of ``tests/obs/test_replay.py``: nodes run at about
#: half their modeled rate, so the run re-plans at least twice.
CHAOS_SPEC = JobSpec(
    name="chaos",
    input_gb=32.0,
    goal=GoalSpec(deadline_hours=6.0),
    network=NetworkSpec(uplink_mbit_s=16.0),
)
CHAOS_RATES = {"ec2.m1.large": 0.25, "ec2.m1.xlarge": 0.5}


def chaos_deploy(orchestrator=None, **kwargs):
    return (orchestrator or Orchestrator()).deploy(
        CHAOS_SPEC,
        tenant="acme",
        actual=ActualConditions(throughput_gb_per_hour=dict(CHAOS_RATES)),
        **kwargs,
    )


class TestDeployStream:
    """What ``on_event`` sees is the deployment, as the tracer logs it."""

    @pytest.fixture(scope="class")
    def streamed(self):
        events, threads = [], []

        def on_event(event):
            events.append(event)
            threads.append(threading.current_thread())

        collector = TraceCollector()
        result = chaos_deploy(
            on_event=on_event, tracer=RunTracer(collector)
        )
        return events, threads, collector.records, result

    def test_deviation_still_completes(self, streamed):
        result = streamed[3]
        assert result.completed
        assert result.replans >= 2

    def test_streams_every_interval(self, streamed):
        events, _, _, result = streamed
        intervals = [e for e in events if e.event == "interval"]
        assert len(intervals) == len(result.outcomes)
        assert [e.cost for e in intervals] == [
            pytest.approx(o.cost) for o in result.outcomes
        ]

    def test_streams_every_replan(self, streamed):
        events, _, _, result = streamed
        replans = [e for e in events if e.event == "replan"]
        assert len(replans) == result.replans
        assert [e.trigger for e in replans] == [
            r.kind for r in result.replan_records
        ]
        assert len(events) == len(replans) + len(result.outcomes)

    def test_replan_index_counts_the_intervals_before_it(self, streamed):
        events = streamed[0]
        for position, event in enumerate(events):
            if event.event == "replan":
                before = sum(e.event == "interval" for e in events[:position])
                assert event.index == before

    def test_events_equal_the_traced_payloads_in_order(self, streamed):
        events, _, records, _ = streamed
        traced = [
            DeployEventV1.from_dict(r.payload)
            for r in records if r.kind in ("interval", "replan")
        ]
        assert traced == events

    def test_on_event_runs_on_the_calling_thread(self, streamed):
        threads = streamed[1]
        assert threads
        assert all(t is threading.current_thread() for t in threads)

    def test_concurrent_deploys_get_distinct_session_ids(self):
        alone = chaos_deploy()
        orchestrator = Orchestrator()
        ids, results = [], []

        def deploy():
            events = []
            results.append(chaos_deploy(orchestrator, on_event=events.append))
            ids.append(events[0].session_id)

        threads = [threading.Thread(target=deploy) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert sorted(ids) == [1, 2]
        assert len(results) == 2

        def executed(result):
            # Everything but the plans' solver timings and the ledger object.
            return (result.completed, result.completion_hours,
                    result.total_cost, result.outcomes, result.replan_records,
                    result.node_series, result.task_series)

        for result in results:
            assert executed(result) == executed(alone)


class Disconnected(Exception):
    """The consumer of a deploy stream went away."""


class TestDeployStops:
    @pytest.mark.parametrize("backend", ["sim", "pool"])
    def test_raising_on_event_stops_the_deployment(self, backend):
        """A consumer that fails (``repro deploy --stream | head -1``)
        ends the deployment: nothing keeps running or writing after
        ``deploy`` has re-raised."""
        def on_event(event):
            raise Disconnected(event.event)

        collector = TraceCollector()
        threads_before = threading.active_count()
        with pytest.raises(Disconnected):
            chaos_deploy(
                on_event=on_event,
                tracer=RunTracer(collector),
                backend=backend,
            )
        count = collector.count
        time.sleep(0.3)
        assert collector.count == count
        assert threading.active_count() == threads_before
        assert multiprocessing.active_children() == []


class TestErrorMapping:
    def test_exception_wrapping(self):
        from repro.core.model_builder import PlanningError

        error = error_v1_from_exception(
            PlanningError("nope", status="infeasible", budgeted=False)
        )
        assert error.code == "infeasible"
        error = error_v1_from_exception(
            PlanningError("nope", status="infeasible", budgeted=True)
        )
        assert error.code == "budget_exceeded"
        assert error_v1_from_exception(TimeoutError("slow")).code == "timeout"
        assert error_v1_from_exception(RuntimeError("?")).code == "internal"

    def test_planning_error_survives_pickling(self):
        """Process-pool workers ship PlanningError back by pickle; the
        structured state must survive the trip."""
        import pickle

        from repro.core.model_builder import PlanningError

        original = PlanningError("msg", status="infeasible", budgeted=True)
        clone = pickle.loads(pickle.dumps(original))
        assert str(clone) == "msg"
        assert clone.status == "infeasible"
        assert clone.budgeted is True

    def test_admission_rejection_maps_to_rejected(self):
        from repro.service import error_code_for_exception
        from repro.service.broker import AdmissionError

        assert error_code_for_exception(AdmissionError("full")) == "rejected"
