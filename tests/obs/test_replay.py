"""Deterministic replay: byte-identical re-emission, verify, resume.

The fleet scenario is chosen so its substrate narrates all three event
kinds — a spot eviction, an injected node failure and a price spike —
because the replay guarantee has to hold through the messy paths, not
just the happy one.  The deploy scenario is the chaos case: actual
throughput far below the believed catalog rates, forcing re-plans, then
the run is "killed" after each interval and resumed by re-execution.
"""

import dataclasses

import pytest

from repro.api import GoalSpec, JobSpec, NetworkSpec, Orchestrator
from repro.api.orchestrator import OrchestratorError
from repro.core.conditions import ActualConditions
from repro.obs.replay import (
    FLEET_DEFAULTS,
    deterministic_lines,
    fleet_inputs,
    resume,
    scenario_of,
    verify,
)
from repro.obs.trace import RunTracer, TraceCollector, TraceError

#: A short fleet run whose substrate emits an eviction, a failure and a
#: price spike (seed/start_hour found by search; pinned by the test).
FLEET_SCENARIO = {
    "deployments": 2,
    "days": 3,
    "deadline": 10.0,
    "input_gb": 2.0,
    "failure_rate": 0.08,
    "seed": 9,
    "start_hour": 36.0,
}

#: Ground truth far below the catalog's believed rates — forces the
#: controller to re-plan mid-flight (the Fig. 12 deviation mechanic).
CHAOS_RATES = {"ec2.m1.large": 0.25, "ec2.m1.xlarge": 0.5}


def run_fleet(scenario):
    collector = TraceCollector()
    tracer = RunTracer(collector)
    specs, substrate, config, predictor = fleet_inputs(scenario)
    tracer.begin("fleet", scenario)
    result = Orchestrator().fleet(
        specs, substrate, fleet_config=config, predictor=predictor,
        tracer=tracer,
    )
    return collector.records, result


def run_chaos_deploy():
    spec = JobSpec(
        name="chaos",
        input_gb=32.0,
        goal=GoalSpec(deadline_hours=6.0),
        network=NetworkSpec(uplink_mbit_s=16.0),
    )
    actual = ActualConditions(throughput_gb_per_hour=dict(CHAOS_RATES))
    collector = TraceCollector()
    tracer = RunTracer(collector)
    result = Orchestrator().deploy(
        spec, tenant="acme", actual=actual, tracer=tracer
    )
    return collector.records, result


@pytest.fixture(scope="module")
def fleet_log():
    return run_fleet(FLEET_SCENARIO)


@pytest.fixture(scope="module")
def deploy_log():
    return run_chaos_deploy()


class TestFleetReplay:
    def test_log_covers_the_messy_substrate_paths(self, fleet_log):
        records, _ = fleet_log
        kinds = {
            r.payload["event_kind"]
            for r in records
            if r.kind == "substrate_event"
        }
        assert {"eviction", "failure", "price"} <= kinds

    def test_same_scenario_twice_is_byte_identical(self, fleet_log):
        """Satellite: same seed + same scenario ⇒ identical re-emitted
        event stream, evictions and failures included."""
        first, _ = fleet_log
        second, _ = run_fleet(FLEET_SCENARIO)
        assert deterministic_lines(first) == deterministic_lines(second)

    def test_verify_passes_on_an_honest_log(self, fleet_log):
        records, _ = fleet_log
        report = verify(records)
        assert report.ok
        assert report.compared == len(deterministic_lines(records))
        assert "verified: streams identical" in report.describe()

    def test_verify_flags_a_tampered_log(self, fleet_log):
        records, _ = fleet_log
        tampered = list(records)
        index = next(
            i for i, r in enumerate(tampered) if r.kind == "interval"
        )
        payload = dict(tampered[index].payload)
        payload["cost"] = payload["cost"] + 1.0
        tampered[index] = dataclasses.replace(
            tampered[index], payload=payload
        )
        report = verify(tampered)
        assert not report.ok
        assert "DIVERGED" in report.describe()

    def test_truncated_log_resumes_to_the_same_result(self, fleet_log):
        records, result = fleet_log
        truncated = records[: 2 * len(records) // 3]
        resumed = resume(truncated)
        assert resumed.total_cost == result.total_cost
        assert resumed.total_replans == result.total_replans

    def test_resume_rejects_a_log_from_another_run(self, fleet_log):
        records, _ = fleet_log
        truncated = list(records[: 2 * len(records) // 3])
        index = next(
            i for i, r in enumerate(truncated) if r.kind == "interval"
        )
        payload = dict(truncated[index].payload)
        payload["cost"] = payload["cost"] + 1.0
        truncated[index] = dataclasses.replace(
            truncated[index], payload=payload
        )
        with pytest.raises(TraceError, match="not a prefix"):
            resume(truncated)

    def test_resume_rejects_a_complete_log(self, fleet_log):
        records, _ = fleet_log
        assert records[-1].kind == "run_end"
        with pytest.raises(TraceError, match="nothing to resume"):
            resume(records)


class TestDeployReplay:
    def test_chaos_run_actually_replans(self, deploy_log):
        _, result = deploy_log
        assert result.replans >= 2

    def test_verify_passes(self, deploy_log):
        records, _ = deploy_log
        assert verify(records).ok

    def test_crash_resume_after_any_interval(self, deploy_log):
        """Kill the run right after each interval record, and before the
        first; every re-executed resume converges to the original result."""
        records, result = deploy_log
        intervals = [
            i for i, r in enumerate(records) if r.kind == "interval"
        ]
        assert len(intervals) >= 3
        for cut in [intervals[0], *(i + 1 for i in intervals)]:
            resumed = resume(records[:cut])
            assert resumed.total_cost == result.total_cost
            assert resumed.completion_hours == result.completion_hours
            assert resumed.replans == result.replans
            assert resumed.completed == result.completed

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_crash_resume_from_any_snapshot(self, deploy_log, fraction):
        """Kill the run right after the interval record a fraction of
        the way through (the points at which snapshot records used to be
        written); re-execution must converge to the original result."""
        records, result = deploy_log
        intervals = [
            i for i, r in enumerate(records) if r.kind == "interval"
        ]
        cut = intervals[int(fraction * (len(intervals) - 1))]
        resumed = resume(records[: cut + 1])
        assert resumed.total_cost == result.total_cost
        assert resumed.completion_hours == result.completion_hours
        assert resumed.replans == result.replans
        assert resumed.completed == result.completed

    def test_crash_before_first_snapshot_reexecutes(self, deploy_log):
        """Kill the run before its first interval record: nothing past
        the header is logged, and resume re-executes from the start."""
        records, result = deploy_log
        first_interval = next(
            i for i, r in enumerate(records) if r.kind == "interval"
        )
        resumed = resume(records[:first_interval])
        assert resumed.total_cost == result.total_cost

    def test_resume_rejects_a_log_from_another_run(self, deploy_log):
        """A logged interval this scenario does not produce, or a
        run_start naming another job, is refused, not finished."""
        records, _ = deploy_log
        index = next(
            i for i, r in enumerate(records) if r.kind == "interval"
        )
        for position, change in (
            (index, lambda p: {**p, "cost": p["cost"] + 1.0}),
            (1, lambda p: {**p, "scenario": {
                **p["scenario"],
                "spec": {**p["scenario"]["spec"], "input_gb": 16.0},
            }}),
        ):
            truncated = list(records[: index + 1])
            truncated[position] = dataclasses.replace(
                truncated[position],
                payload=change(truncated[position].payload),
            )
            with pytest.raises(TraceError, match="not a prefix"):
                resume(truncated)

    def test_spot_trace_deploy_cannot_auto_begin(self):
        from repro.obs.replay import trace_for

        spec = JobSpec(name="spot-job", input_gb=2.0, catalog="spot")
        tracer = RunTracer(TraceCollector())
        with pytest.raises(OrchestratorError) as exc_info:
            Orchestrator().deploy(
                spec,
                trace=trace_for("aws", 1, 0),
                tracer=tracer,
            )
        assert exc_info.value.error.code == "bad_request"
        assert "fleet runtime" in exc_info.value.error.message


class TestScenarioPlumbing:
    def test_scenario_of_reads_record_one(self, fleet_log):
        records, _ = fleet_log
        run_kind, scenario = scenario_of(records)
        assert run_kind == "fleet"
        assert scenario == FLEET_SCENARIO

    def test_scenario_of_rejects_a_headless_log(self, fleet_log):
        records, _ = fleet_log
        with pytest.raises(TraceError, match="run_start"):
            scenario_of([records[0]] + records[2:])

    def test_fleet_inputs_applies_defaults(self):
        specs, _, config, _ = fleet_inputs({"deployments": 3})
        assert len(specs) == 3
        assert config.start_hour == FLEET_DEFAULTS["start_hour"]
        assert specs[0][0] == "tenant-1"
        assert specs[0][1].catalog == "spot"

    def test_fleet_inputs_rejects_unknown_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            fleet_inputs({"predictor": "psychic"})
