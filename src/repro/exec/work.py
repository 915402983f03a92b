"""Real-work execution: planned intervals materialized as task batches.

:class:`WorkExecutor` is the ``pool`` and ``stub`` backends; the two
differ only in the :class:`TaskRunner` :func:`repro.exec.make_executor`
hands it.  Per interval it

1. derives a batch of :class:`~repro.exec.tasks.TaskSpec` from the
   plan's map/reduce flows (one node schema for every backend),
2. hands the batch to its :class:`TaskRunner` (a process pool, a
   subprocess, one day a container fleet), and
3. runs the fluid interval accounting with the map/reduce capacity
   **capped by what the workers actually completed** — a dead or
   timed-out worker becomes a progress shortfall plus an entry in
   ``IntervalOutcome.failed_services``, which fires the failure trigger
   and drives a re-plan, exactly the paper's monitor loop.

The plan-only invariant is preserved by construction: real completions
can only *lower* the fluid capacity, never raise it above the plan.

Runtime state (the worker pool, the task counter, collected reduce
output) lives on the executor and survives re-planning via
:meth:`~repro.core.executor.FluidExecutor.rebind` — a re-plan changes
the believed world, not the substrate.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from ..accounting import CostLedger
from ..core.conditions import ActualConditions
from ..core.executor import FluidExecutor, IntervalOutcome
from ..core.plan import PlanInterval
from ..core.problem import PlanningProblem, SystemState
from ..mapreduce.functions import sum_reduce
from .tasks import TaskResult, TaskSpec

_EPS = 1e-9

#: Default options shared by the real-execution backends.
DEFAULT_OPTIONS = {
    #: Plan-GB one task accounts for (chunking granularity).
    "task_gb": 1.0,
    #: Bytes of real input synthesized per map task.
    "payload_bytes": 16384,
    #: Chaos hook: global sequence number of the task whose worker
    #: SIGKILLs itself (``None`` = no chaos).  The sequence survives
    #: re-planning, so the kill happens exactly once per run.
    "chaos_kill_task": None,
}


class TaskRunner(abc.ABC):
    """Executes one task batch on some substrate; never raises per-task."""

    @abc.abstractmethod
    def run_batch(self, specs: list[TaskSpec]) -> list[TaskResult]:
        """Run the batch; returns one result per spec, in spec order."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release the substrate's resources."""


@dataclass
class TaskReport:
    """What one interval's real task batch achieved."""

    results: list[TaskResult] = field(default_factory=list)
    #: Successfully completed map plan-GB per compute service.
    map_gb: dict[str, float] = field(default_factory=dict)
    #: Successfully completed reduce plan-GB (all services).
    reduce_gb: float = 0.0
    #: Services with at least one non-ok task this interval.
    failed_services: list[str] = field(default_factory=list)


class WorkExecutor(FluidExecutor):
    """Fluid accounting capped by real task execution (see module doc);
    built by :func:`repro.exec.make_executor` with the full option dict."""

    def __init__(
        self,
        problem: PlanningProblem,
        actual: ActualConditions,
        ledger: CostLedger | None = None,
        hour_offset: float = 0.0,
        *,
        name: str,
        runner: TaskRunner,
        options: dict,
    ) -> None:
        super().__init__(problem, actual, ledger, hour_offset=hour_offset)
        self.name = name
        self.options = options
        self._runner = runner
        self._task_seq = 0
        self._report: TaskReport | None = None
        #: Map-task outputs awaiting a reduce task.
        self._pending_partials: list[dict] = []
        self._collected: dict = {}
        self.tasks_run = 0
        self.tasks_failed = 0

    def execute_interval(
        self, interval: PlanInterval, state: SystemState
    ) -> IntervalOutcome:
        specs = self._plan_tasks(interval, state)
        report = self._execute_tasks(specs) if specs else None
        self._report = report
        try:
            outcome = super().execute_interval(interval, state)
        finally:
            self._report = None
        if report is not None:
            self._absorb(specs, report, outcome)
        return outcome

    def close(self) -> None:
        self._runner.close()

    # -- capacity caps (the seam into the fluid accounting) ----------------

    def _map_capacity(self, name: str, count: int, delta: float) -> float:
        capacity = super()._map_capacity(name, count, delta)
        if self._report is not None:
            capacity = min(capacity, self._report.map_gb.get(name, 0.0))
        return capacity

    def _reduce_capacity(
        self,
        interval: PlanInterval,
        nodes: dict[str, int],
        delta: float,
        map_gb_this_interval: float,
    ) -> float:
        capacity = super()._reduce_capacity(
            interval, nodes, delta, map_gb_this_interval
        )
        if self._report is not None:
            capacity = min(capacity, self._report.reduce_gb)
        return capacity

    # -- task derivation ---------------------------------------------------

    def _next_spec(self, kind: str, service: str, gb: float, **extra) -> TaskSpec:
        seq = self._task_seq
        self._task_seq += 1
        chaos = ""
        if self.options["chaos_kill_task"] is not None and (
            seq == int(self.options["chaos_kill_task"])
        ):
            chaos = "kill"
        return TaskSpec(
            task_id=f"{self.job.name}-{kind}-{seq:06d}",
            kind=kind,
            service=service,
            gb=gb,
            payload_bytes=(
                int(self.options["payload_bytes"]) if kind == "map" else 0
            ),
            chaos=chaos,
            **extra,
        )

    def _chunks(self, total_gb: float) -> list[float]:
        """Split ``total_gb`` of planned work into task-sized chunks."""
        if total_gb <= _EPS:
            return []
        task_gb = max(float(self.options["task_gb"]), _EPS)
        count = max(1, math.ceil(total_gb / task_gb - 1e-9))
        return [total_gb / count] * count

    def _plan_tasks(
        self, interval: PlanInterval, state: SystemState
    ) -> list[TaskSpec]:
        """The interval's planned work, as a task batch.

        Map flows chunk per (source, compute) plan entry.  Reduce tasks
        are derived when the map phase is (or will be, per plan) done
        this interval: the remaining reduce work is chunked round-robin
        over the interval's allocated services, each task draining an
        equal share of the pending map partials.
        """
        job = self.job
        specs: list[TaskSpec] = []
        planned_map = 0.0
        for (src, dst), planned in sorted(interval.map_read_gb.items()):
            planned_map += planned
            for gb in self._chunks(planned):
                specs.append(self._next_spec("map", dst, gb))
        will_finish_map = (
            state.map_done_gb + planned_map >= job.input_gb - 1e-6
        )
        reduce_remaining = job.map_output_gb - state.reduce_done_gb
        services = sorted(interval.nodes)
        if (
            job.map_output_gb > _EPS
            and reduce_remaining > _EPS
            and will_finish_map
            and services
        ):
            chunks = self._chunks(reduce_remaining)
            pending = self._pending_partials
            self._pending_partials = []
            share = max(1, math.ceil(len(pending) / max(1, len(chunks))))
            for position, gb in enumerate(chunks):
                partials = tuple(
                    pending[position * share:(position + 1) * share]
                )
                specs.append(self._next_spec(
                    "reduce",
                    services[position % len(services)],
                    gb,
                    partials=partials,
                ))
        return specs

    # -- result absorption -------------------------------------------------

    def _execute_tasks(self, specs: list[TaskSpec]) -> TaskReport:
        results = self._runner.run_batch(specs)
        report = TaskReport(results=results)
        failed: set[str] = set()
        by_id = {result.task_id: result for result in results}
        for spec in specs:
            result = by_id.get(spec.task_id)
            if result is not None and result.ok:
                if spec.kind == "map":
                    report.map_gb[spec.service] = (
                        report.map_gb.get(spec.service, 0.0) + spec.gb
                    )
                else:
                    report.reduce_gb += spec.gb
            else:
                failed.add(spec.service)
        report.failed_services = sorted(failed)
        return report

    def _absorb(
        self,
        specs: list[TaskSpec],
        report: TaskReport,
        outcome: IntervalOutcome,
    ) -> None:
        by_id = {result.task_id: result for result in report.results}
        for spec in specs:
            result = by_id.get(spec.task_id)
            self.tasks_run += 1
            if result is not None and result.ok:
                if spec.kind == "map":
                    self._pending_partials.append(dict(result.counts))
                else:
                    self._collected = sum_reduce(
                        [self._collected, result.counts]
                    )
            else:
                self.tasks_failed += 1
                if spec.kind == "reduce" and spec.partials:
                    # The merge never happened; its inputs go back into
                    # the queue so the re-planned work re-merges them.
                    self._pending_partials.extend(
                        dict(p) for p in spec.partials
                    )
        if report.failed_services:
            outcome.failed_services = list(report.failed_services)

    def collected_counts(self) -> dict:
        """The reduce output merged so far (plus still-pending partials)."""
        return sum_reduce([self._collected, *self._pending_partials])


__all__ = ["DEFAULT_OPTIONS", "TaskReport", "TaskRunner", "WorkExecutor"]
