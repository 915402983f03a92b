"""Chaos suite: kill real workers mid-interval, watch the loop absorb it.

Every test here carries the ``chaos`` marker (run with ``-m chaos``;
excluded by nothing — they are part of the default run too, sized to
finish in seconds).  The injection is real: a ``chaos_kill_task`` spec
makes the worker process SIGKILL itself, which breaks the process pool
(or the stub's subprocess) exactly the way an OOM-killed node would.

The asserted chain is the paper's monitor loop end-to-end: the kill
becomes a ``failed_services`` entry and a 100% shortfall on that
interval's outcome, the failure trigger fires, a *budgeted* re-plan
lands, and the run still completes — with the loss visible in the
durable trace log, not just in the in-memory result.

Trace logs are written under ``$CHAOS_LOG_DIR`` when set (the CI chaos
job sets it and uploads the directory as an artifact), else the test's
tmp dir.
"""

import os
from pathlib import Path

import pytest

from repro.api import GoalSpec, JobSpec, Orchestrator
from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, PlannerJob
from repro.core.conditions import ActualConditions
from repro.core.controller import ControllerConfig, JobController
from repro.obs.replay import resume, verify
from repro.obs.trace import RunTracer, TraceError, TraceWriter, read_trace

pytestmark = pytest.mark.chaos

NET = NetworkConditions.from_mbit_s(16.0)

#: Kill the second task the run ever creates — always mid-map-phase for
#: a multi-GB job, whatever the solved plan's interval shapes are.
KILL_SECOND_TASK = {
    "task_gb": 1.0,
    "payload_bytes": 1024,
    "chaos_kill_task": 1,
}


def chaos_log_path(tmp_path: Path, name: str) -> Path:
    root = os.environ.get("CHAOS_LOG_DIR")
    if root:
        directory = Path(root)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / name
    return tmp_path / name


def run_with_kill(backend: str, **options):
    controller = JobController(
        PlannerJob(name="chaos", input_gb=4.0),
        public_cloud(),
        Goal.min_cost(deadline_hours=4.0),
        network=NET,
        backend=backend,
        backend_options={**KILL_SECOND_TASK, **options},
    )
    return controller.run(ActualConditions.as_predicted())


class TestPoolWorkerKill:
    def test_kill_fires_failure_trigger_and_run_completes(self):
        result = run_with_kill("pool")
        assert result.completed
        # The broken pool surfaced as a worker failure, not silence.
        lossy = [o for o in result.outcomes if o.failed_services]
        assert lossy
        assert lossy[0].map_shortfall > 0.5  # the batch really died
        # The failure trigger (not deviation/price) claimed the re-plan.
        assert any(
            record.kind == "failure"
            and "worker failure" in record.reason
            for record in result.replan_records
        )

    def test_replan_is_budgeted(self):
        result = run_with_kill("pool")
        assert 1 <= result.replans <= ControllerConfig().max_replans

    def test_pool_recovers_after_the_kill(self):
        """The kill fires exactly once (retried work gets new task ids),
        so every interval after the lossy one executes cleanly."""
        result = run_with_kill("pool")
        # Positions in the executed sequence — ``outcome.index`` restarts
        # at 1 with each adopted plan, so it cannot order across re-plans.
        lossy = [
            position for position, outcome in enumerate(result.outcomes)
            if outcome.failed_services
        ]
        assert len(lossy) == 1
        after = result.outcomes[lossy[0] + 1:]
        assert after  # the run went on
        assert all(not o.failed_services for o in after)

    def test_loss_is_visible_in_the_trace_log(self, tmp_path):
        log = chaos_log_path(tmp_path, "pool_worker_kill.jsonl")
        writer = TraceWriter(log)
        try:
            result = Orchestrator().deploy(
                JobSpec(
                    name="chaos-wc",
                    input_gb=4.0,
                    goal=GoalSpec(deadline_hours=4.0),
                ),
                tracer=RunTracer(writer),
                backend="pool",
                backend_options=dict(KILL_SECOND_TASK),
            )
        finally:
            writer.close()
        assert result.completed
        records = read_trace(log)
        assert records[-1].kind == "run_end"
        lossy = [
            r for r in records
            if r.kind == "interval" and r.payload.get("failed_services")
        ]
        assert lossy, "the worker loss never reached the trace log"
        assert any(
            r.kind == "replan" and r.payload.get("trigger") == "failure"
            for r in records
        )
        completed = [
            r for r in records
            if r.kind == "lifecycle"
            and r.payload.get("phase") == "completed"
        ]
        assert completed
        # The log knows which substrate ran the job...
        started = [
            r for r in records
            if r.kind == "lifecycle" and r.payload.get("phase") == "started"
        ]
        assert started[0].payload.get("backend") == "pool"
        # ...and replay refuses to byte-verify a nondeterministic one, or
        # to resume a crashed one by re-executing it.
        with pytest.raises(TraceError, match="pool"):
            verify(records)
        with pytest.raises(TraceError, match="pool"):
            resume(records[:-1])


class TestStubWorkerKill:
    def test_kill_fails_the_whole_batch_and_run_completes(self):
        """The container contract: a SIGKILL takes the subprocess down,
        non-zero exit fails the batch, and the loop absorbs it the same
        way it absorbs a broken pool."""
        result = run_with_kill("stub")
        assert result.completed
        assert any(o.failed_services for o in result.outcomes)
        assert any(
            record.kind == "failure" for record in result.replan_records
        )
