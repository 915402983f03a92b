"""Execution backends: the fluid executor, alone or on a task runner.

``sim`` is :class:`~repro.core.executor.FluidExecutor` itself — the only
deterministic backend (``repro replay --verify`` accepts only sim logs).
``pool`` and ``stub`` are one :class:`WorkExecutor` that really executes
each interval's planned map/reduce work as a task batch, on a local
process pool (:class:`~repro.exec.pool.ProcessPoolRunner`) or in a
subprocess speaking the container's JSON stdin/stdout contract
(:class:`~repro.exec.stub.SubprocessRunner`).  All three share the fluid
bookkeeping, so plan-only execution, shortfall reporting and ledger
accounting hold identically; ``tests/exec`` asserts that over
:data:`BACKENDS`, and ``docs/executors.md`` is the narrative guide.
"""

from __future__ import annotations

from ..core.executor import FluidExecutor
from .tasks import (
    DEFAULT_TIMEOUT_S,
    TASK_KINDS,
    TASK_STATUSES,
    TaskResult,
    TaskSpec,
    decode_batch,
    decode_results,
    encode_batch,
    encode_results,
    execute_task,
    execute_task_wire,
)
from .work import DEFAULT_OPTIONS, TaskRunner, WorkExecutor

#: Execution backends :func:`make_executor` can build, in maturity order.
BACKENDS = ("sim", "pool", "stub")


def make_executor(
    backend: str,
    problem,
    actual,
    ledger=None,
    *,
    hour_offset: float = 0.0,
    options: dict | None = None,
) -> FluidExecutor:
    """Build the named backend's executor.

    ``options`` overrides :data:`DEFAULT_OPTIONS` (ignored by ``sim``).
    Raises :class:`ValueError` for an unknown backend, listing
    :data:`BACKENDS`.
    """
    if backend == "sim":
        return FluidExecutor(problem, actual, ledger, hour_offset=hour_offset)
    options = {**DEFAULT_OPTIONS, **(options or {})}
    # The runners load concurrent.futures/subprocess machinery; import
    # them on demand so ``import repro.exec`` stays light.
    if backend == "pool":
        from .pool import ProcessPoolRunner

        runner = ProcessPoolRunner()
    elif backend == "stub":
        from .stub import SubprocessRunner

        runner = SubprocessRunner()
    else:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"expected one of {list(BACKENDS)}"
        )
    return WorkExecutor(
        problem, actual, ledger, hour_offset=hour_offset,
        name=backend, runner=runner, options=options,
    )


__all__ = [
    "BACKENDS",
    "DEFAULT_OPTIONS",
    "DEFAULT_TIMEOUT_S",
    "TASK_KINDS",
    "TASK_STATUSES",
    "TaskResult",
    "TaskRunner",
    "TaskSpec",
    "WorkExecutor",
    "decode_batch",
    "decode_results",
    "encode_batch",
    "encode_results",
    "execute_task",
    "execute_task_wire",
    "make_executor",
]
