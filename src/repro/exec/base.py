"""The ``Executor`` protocol: one controller, many substrates.

The deploy/monitor/adapt loop (:mod:`repro.core.controller`) is defined
by the paper's deployment invariant — execute only what the plan
contains, surface shortfalls, let re-planning absorb reality — not by
the fluid simulator it historically ran against.  This module names the
seam: anything satisfying :class:`Executor` can sit under a
:class:`~repro.core.controller.ControllerRun`.

Three backends ship (:data:`BACKENDS`):

``sim``
    The fluid simulator behind the interface — byte-identical behaviour
    to the historical controller, and the only *deterministic* backend
    (``repro replay --verify`` accepts only sim-backend logs).
``pool``
    A local process-pool MapReduce runner: the interval's planned work
    is materialized as tasks and actually executed — real map/reduce
    callables over real bytes — on a
    :class:`~concurrent.futures.ProcessPoolExecutor`, with per-node
    timeouts.  Worker deaths surface as ``failed_services`` on the
    outcome and fire the failure trigger.
``stub``
    A stand-in container backend: the same task batch is shelled into a
    subprocess speaking the JSON stdin/stdout contract
    (:mod:`repro.exec.handler`) — swap the command line for ``docker
    run`` and nothing else changes.

All three mutate the same :class:`~repro.core.problem.SystemState`
through the same fluid bookkeeping, so plan-only execution, shortfall
reporting and ledger accounting hold identically — the conformance
suite (``tests/exec``) asserts exactly that, parameterized over
:data:`BACKENDS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accounting import CostLedger
    from ..core.conditions import ActualConditions
    from ..core.executor import IntervalOutcome
    from ..core.plan import PlanInterval
    from ..core.problem import PlanningProblem, SystemState

#: Execution backends :func:`make_executor` can build, in maturity order.
BACKENDS = ("sim", "pool", "stub")


@runtime_checkable
class Executor(Protocol):
    """What the controller requires of an execution backend.

    Attributes
    ----------
    name:
        The backend selector this executor answers to (``"sim"`` ...).
    bids:
        Per-spot-service bid, written by the controller before every
        interval (:meth:`JobController._update_bids`).
    """

    name: str
    bids: dict[str, float]

    def run_interval(
        self, interval: "PlanInterval", state: "SystemState"
    ) -> "IntervalOutcome":
        """Execute one planned interval, mutating ``state`` and charging
        the ledger; returns what actually happened."""
        ...

    def is_complete(self, state: "SystemState") -> bool:
        """True once the job's work is done under ``state``."""
        ...

    def rebind(self, problem: "PlanningProblem") -> None:
        """Adopt a re-planned problem (new believed services/estimates)
        without discarding executor-held runtime state — worker pools,
        task counters and collected results survive re-planning."""
        ...

    def close(self) -> None:
        """Release backend resources (worker pools, subprocesses)."""
        ...


def make_executor(
    backend: str,
    problem: "PlanningProblem",
    actual: "ActualConditions",
    ledger: "CostLedger | None" = None,
    *,
    hour_offset: float = 0.0,
    options: dict | None = None,
) -> Executor:
    """Build the named backend's executor.

    ``options`` is the backend's knob dict (ignored by ``sim``): task
    sizing (``task_gb``, ``payload_bytes``), per-node ``timeout_s``,
    ``max_workers``, the registry ``function`` to run, and the chaos
    hook ``chaos_kill_task``.  Raises :class:`ValueError` for an unknown
    backend, listing :data:`BACKENDS`.
    """
    if backend == "sim":
        from .sim import SimExecutor

        return SimExecutor(problem, actual, ledger, hour_offset=hour_offset)
    if backend == "pool":
        from .pool import PoolExecutor

        return PoolExecutor(
            problem, actual, ledger, hour_offset=hour_offset,
            options=options,
        )
    if backend == "stub":
        from .stub import StubContainerExecutor

        return StubContainerExecutor(
            problem, actual, ledger, hour_offset=hour_offset,
            options=options,
        )
    raise ValueError(
        f"unknown execution backend {backend!r}; expected one of {list(BACKENDS)}"
    )


__all__ = ["BACKENDS", "Executor", "make_executor"]
