"""The one node/task schema every execution backend speaks.

A backend executes an interval's planned work as a batch of *tasks*.
Whatever the substrate — an in-process call, a process-pool worker, a
subprocess standing in for a container — the task is the same JSON
object (:class:`TaskSpec`) and the answer is the same JSON object
(:class:`TaskResult`).  The stub-container contract is exactly the
reference design's Docker contract: the spec batch arrives on **stdin**,
the result batch leaves on **stdout**, and a non-zero exit status means
the whole batch failed (see :mod:`repro.exec.handler`).

Tasks are pure functions of their spec: input bytes are synthesized
deterministically from the task's seed, and every task runs the
wordcount pair of :mod:`repro.mapreduce.functions` — a spec never
carries code, so it serializes to JSON and survives a process
boundary.

:func:`execute_task` is the single worker-side entry point all backends
share; :func:`execute_task_wire` is its dict-in/dict-out form (the
picklable target a :class:`~concurrent.futures.ProcessPoolExecutor`
submits, and the loop the stdin/stdout handler runs).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..mapreduce.functions import (
    seed_for,
    sum_reduce,
    synthesize_text,
    wordcount_map,
)

#: Task kinds — the two MapReduce phases.
TASK_KINDS = ("map", "reduce")

#: Result statuses.  ``killed`` marks a worker that died (SIGKILL,
#: broken pool); ``timeout`` a task that exceeded its per-node budget.
TASK_STATUSES = ("ok", "error", "timeout", "killed")

#: Per-node task timeout, seconds.
DEFAULT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class TaskSpec:
    """One unit of real work, addressed to one node of one service."""

    task_id: str
    #: ``"map"`` or ``"reduce"``.
    kind: str
    #: Compute service whose node runs this task (plan vocabulary).
    service: str
    #: Plan-GB this task accounts for (fluid bookkeeping, not payload size).
    gb: float
    #: Bytes of input to synthesize for a map task.
    payload_bytes: int = 0
    #: Reduce only: the partial counts this task merges.
    partials: tuple = ()
    #: Chaos hook: ``"kill"`` makes the worker SIGKILL itself (tests).
    chaos: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}"
            )
        object.__setattr__(self, "gb", float(self.gb))
        object.__setattr__(
            self, "partials", tuple(dict(p) for p in self.partials)
        )

    @property
    def seed(self) -> int:
        """Deterministic input seed — a pure function of the task id."""
        return seed_for(self.task_id)

    def to_dict(self) -> dict:
        data = {
            "task_id": self.task_id,
            "kind": self.kind,
            "service": self.service,
            "gb": self.gb,
            "payload_bytes": self.payload_bytes,
        }
        if self.partials:
            data["partials"] = [dict(p) for p in self.partials]
        if self.chaos:
            data["chaos"] = self.chaos
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskSpec":
        return cls(
            task_id=str(data["task_id"]),
            kind=str(data["kind"]),
            service=str(data["service"]),
            gb=float(data["gb"]),
            payload_bytes=int(data.get("payload_bytes", 0)),
            partials=tuple(dict(p) for p in data.get("partials", ())),
            chaos=str(data.get("chaos", "")),
        )


@dataclass(frozen=True)
class TaskResult:
    """What one task's execution produced."""

    task_id: str
    status: str
    #: Worker-side wall-clock seconds (diagnostic, nondeterministic).
    seconds: float = 0.0
    #: Merged/partial counts the task produced (map output / reduce output).
    counts: dict = field(default_factory=dict)
    error: str = ""

    def __post_init__(self) -> None:
        if self.status not in TASK_STATUSES:
            raise ValueError(
                f"unknown task status {self.status!r}; "
                f"expected one of {TASK_STATUSES}"
            )
        object.__setattr__(self, "counts", dict(self.counts))

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        data = {
            "task_id": self.task_id,
            "status": self.status,
            "seconds": self.seconds,
        }
        if self.counts:
            data["counts"] = dict(self.counts)
        if self.error:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskResult":
        return cls(
            task_id=str(data["task_id"]),
            status=str(data["status"]),
            seconds=float(data.get("seconds", 0.0)),
            counts=dict(data.get("counts", {})),
            error=str(data.get("error", "")),
        )


# ---------------------------------------------------------------------------
# worker-side execution — shared by every backend


def execute_task(spec: TaskSpec) -> TaskResult:
    """Run one task and return its result (never raises for task errors).

    The chaos hook runs *before* any work: a ``chaos="kill"`` spec makes
    the worker process SIGKILL itself, which is how the chaos suite
    injects a mid-interval worker death without mocking.
    """
    if spec.chaos == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    start = time.perf_counter()
    try:
        if spec.kind == "map":
            data = synthesize_text(spec.seed, spec.payload_bytes)
            counts = wordcount_map(data)
        else:
            counts = sum_reduce(spec.partials)
        return TaskResult(
            task_id=spec.task_id,
            status="ok",
            seconds=time.perf_counter() - start,
            counts=counts,
        )
    except Exception as exc:  # a task failure is data, not a crash
        return TaskResult(
            task_id=spec.task_id,
            status="error",
            seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def execute_task_wire(spec_dict: dict) -> dict:
    """Dict-in/dict-out :func:`execute_task` — the process-pool target."""
    return execute_task(TaskSpec.from_dict(spec_dict)).to_dict()


# ---------------------------------------------------------------------------
# the stdin/stdout batch framing (stub-container contract)


def encode_batch(specs: list[TaskSpec]) -> str:
    """The JSON a container/subprocess reads from stdin."""
    return json.dumps({"tasks": [spec.to_dict() for spec in specs]})


def decode_batch(text: str) -> list[TaskSpec]:
    data = json.loads(text)
    return [TaskSpec.from_dict(entry) for entry in data["tasks"]]


def encode_results(results: list[TaskResult]) -> str:
    """The JSON a container/subprocess writes to stdout."""
    return json.dumps({"results": [result.to_dict() for result in results]})


def decode_results(text: str) -> list[TaskResult]:
    data = json.loads(text)
    return [TaskResult.from_dict(entry) for entry in data["results"]]


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "TASK_KINDS",
    "TASK_STATUSES",
    "TaskResult",
    "TaskSpec",
    "decode_batch",
    "decode_results",
    "encode_batch",
    "encode_results",
    "execute_task",
    "execute_task_wire",
]
