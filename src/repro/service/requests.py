"""Request/response vocabulary of the planning service.

Customers — *tenants* — submit :class:`PlanRequest` objects: a
:class:`~repro.core.problem.PlanningProblem` plus scheduling metadata
(priority, a turnaround deadline, a solver time budget).  The service
answers with a :class:`PlanResult` carrying the plan (or the failure),
whether it came from the cache, and the request's timing breakdown.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass

from ..core.plan import ExecutionPlan
from ..core.problem import PlanningProblem


def error_code_for_exception(exc: BaseException) -> str:
    """Classify a failure into a stable public error code.

    The codes are part of the versioned API (``repro.api.ERROR_CODES``):
    ``infeasible`` / ``budget_exceeded`` for problems with no acceptable
    deployment, ``timeout`` for turnaround/solver waits, ``rejected`` for
    admission refusals, ``solver_error`` for backend failures on valid
    models, ``bad_request`` for malformed problems, ``internal`` for
    everything else.  Classification uses the exception's structured
    state (:class:`PlanningError.status`), never string parsing.
    """
    from ..core.model_builder import PlanningError
    from ..lp.model import SolverError
    from .broker import AdmissionError

    if isinstance(exc, PlanningError):
        status = exc.status
        if status in ("infeasible", "unbounded"):
            return "budget_exceeded" if exc.budgeted else "infeasible"
        return "solver_error"
    if isinstance(exc, SolverError):
        return "solver_error"
    if isinstance(exc, AdmissionError):
        return "rejected"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return "bad_request"
    return "internal"


class RequestStatus(enum.Enum):
    """Lifecycle of a submitted request."""

    PENDING = "pending"        # queued in the broker
    RUNNING = "running"        # dispatched to a solver worker
    COMPLETED = "completed"    # plan available (solved or cached)
    FAILED = "failed"          # solver error / infeasible problem
    REJECTED = "rejected"      # refused by admission control or shutdown
    EXPIRED = "expired"        # turnaround deadline passed while queued


@dataclass
class PlanRequest:
    """One tenant's planning request.

    Attributes
    ----------
    tenant:
        Account the request is billed/queued under.
    problem:
        The planning problem to solve.
    priority:
        Smaller is more urgent (0 = platinum).  Orders requests across
        tenant queues; ties break by turnaround deadline, then FIFO.
    deadline_s:
        Turnaround SLO in seconds from submission.  A request still
        queued when it expires is failed as :attr:`RequestStatus.EXPIRED`
        rather than solved uselessly late.
    time_budget_s:
        Cap on the solver's own time limit *when this request triggers a
        solve* (the paper's 3-minute bound is the service default;
        tenants may tighten it).  A request served from the cache or by
        coalescing onto an identical in-flight solve never runs its own
        solver, so the budget does not apply there — bound total
        turnaround with ``deadline_s`` instead.
    """

    tenant: str
    problem: PlanningProblem
    priority: int = 1
    deadline_s: float | None = None
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive")


@dataclass
class PlanResult:
    """Terminal outcome of a request."""

    request_id: int
    tenant: str
    status: RequestStatus
    plan: ExecutionPlan | None = None
    error: str = ""
    #: Stable machine-readable code for ``error`` (one of the public
    #: API's ``ERROR_CODES``); empty when the request succeeded.
    error_code: str = ""
    #: True when the plan was served from the plan cache (including
    #: requests coalesced onto another tenant's identical in-flight solve).
    cached: bool = False
    fingerprint: str = ""
    #: Seconds spent queued in the broker before dispatch.
    queue_wait_s: float = 0.0
    #: Seconds spent solving (0 for cache hits).
    solve_s: float = 0.0
    #: Submission-to-completion wall time.
    total_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.COMPLETED and self.plan is not None


class SubmittedRequest:
    """Handle returned by :meth:`PlanningService.submit`.

    The service completes it asynchronously; callers block on
    :meth:`result` (or poll :meth:`done`).
    """

    def __init__(self, request: PlanRequest, request_id: int, fingerprint: str) -> None:
        self.request = request
        self.request_id = request_id
        self.fingerprint = fingerprint
        self.submitted_at = time.perf_counter()
        #: When a broker last queued this ticket (stamped by
        #: :meth:`RequestBroker.submit`).  Queue wait is observed from
        #: here, so a requeued ticket does not count its first pass —
        #: someone else's whole solve — as time spent queued.
        self.enqueued_at = self.submitted_at
        self.dispatched_at: float | None = None
        #: Cooperative cancellation flag (see :meth:`cancel`).
        self.cancelled = False
        self._done = threading.Event()
        self._result: PlanResult | None = None
        self._lock = threading.Lock()
        self._callbacks: list = []

    # -- service side -----------------------------------------------------

    def _complete(self, result: PlanResult) -> None:
        with self._lock:
            if self._result is not None:  # first completion wins
                return
            self._result = result
            callbacks, self._callbacks = self._callbacks, []
        self._done.set()
        for callback in callbacks:
            callback(self)

    # -- caller side ------------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> None:
        """Ask the service to drop this request if still queued.

        Cooperative: a request already solving completes normally; one
        still waiting — in the broker queue, for a solver slot, or on an
        identical solve in flight — is finished as REJECTED when its
        turn comes, without touching the solver.  The socket frontend
        calls this for every outstanding request of a disconnected
        client.
        """
        self.cancelled = True

    def add_done_callback(self, callback) -> None:
        """Invoke ``callback(ticket)`` once the request is terminal.

        Fires immediately (on the calling thread) when the request has
        already completed; otherwise fires on the service thread that
        completes it.  The asyncio frontend bridges completions back to
        its event loop through this hook.
        """
        with self._lock:
            if self._result is None:
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: float | None = None) -> PlanResult:
        """Block until the service finishes the request."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not finished within {timeout}s"
            )
        assert self._result is not None
        return self._result

    @property
    def tenant(self) -> str:
        return self.request.tenant

    #: Absolute monotonic instant at which the turnaround SLO expires.
    @property
    def expires_at(self) -> float | None:
        if self.request.deadline_s is None:
            return None
        return self.submitted_at + self.request.deadline_s
