"""The multi-tenant planning service.

``PlanningService`` is the front-end the tentpole describes: tenants
submit :class:`PlanningProblem` objects and get execution plans back,
with the service deciding *when* and *whether* to run the LP at all:

1. the **broker** (admission control) orders the backlog by priority and
   turnaround deadline — a plan-cache hit with nothing of its tenant's
   ahead of it there is answered at submit and never enters it;
2. the **dispatcher** answers everything that needs no solver — a hit in
   the fingerprint-keyed **plan cache** never touches one, and a request
   identical to one already *in flight* joins that solve — and never
   waits for one: a cold request leads a flight and moves to the **solve
   queue**, a second broker with the same order, counted against the
   same admission bounds;
3. the **feeder** drains the solve queue into the **solver pool**, which
   runs distinct models concurrently under a bounded worker count and
   per-request time budgets;
4. **metrics** record queue wait, solve latency percentiles and cache
   effectiveness.

The deploy/monitor/adapt side of accepted plans is
:meth:`repro.api.Orchestrator.deploy`, which steps the controller loop
on its caller's thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

from ..core.plan import ExecutionPlan
from ..core.problem import PlanningProblem
from .broker import AdmissionError, RequestBroker
from .cache import SharedPlanCache
from .fingerprint import problem_fingerprint
from .metrics import ServiceMetrics
from .pool import SolverPool
from .requests import (
    PlanRequest,
    PlanResult,
    RequestStatus,
    SubmittedRequest,
    error_code_for_exception,
)

__all__ = ["AdmissionError", "PlanningService", "ServiceConfig"]

#: EWMA weight for the rolling queue-wait estimate behind deadline-aware
#: admission (one new observation moves the estimate by this fraction).
_QUEUE_WAIT_EWMA_ALPHA = 0.2

#: How a request that ends without a plan is counted.
_COUNTED = {
    RequestStatus.REJECTED: ServiceMetrics.record_rejected,
    RequestStatus.EXPIRED: ServiceMetrics.record_expired,
    RequestStatus.FAILED: ServiceMetrics.record_failure,
}


@dataclass
class ServiceConfig:
    """Tuning knobs of one service instance."""

    #: Concurrent solver workers.
    max_workers: int = 2
    #: ``"process"`` | ``"thread"`` | ``"inline"`` (see :class:`SolverPool`).
    pool_mode: str = "process"
    #: Plan-cache entries (fingerprint -> ExecutionPlan); 0 retains none.
    cache_capacity: int = 4096
    #: Admission bounds on what waits in the broker and the solve queue.
    max_pending_total: int = 256
    max_pending_per_tenant: int = 64
    #: Ceiling on any request's solver cut-off (paper Section 4.8).
    solver_time_limit_s: float = 180.0
    mip_gap: float = 0.01
    #: Route thread/inline solves through the delta-aware
    #: :class:`~repro.service.incremental.IncrementalSolver`: requests
    #: that are structurally identical to an earlier solve (same
    #: horizon/services, different numbers) restart warm and may be
    #: answered by re-certifying the previous plan within ``mip_gap``.
    #: Off by default — the stock service answers every distinct request
    #: with its own cold solve.  Needs ``pool_mode`` ``"thread"`` or
    #: ``"inline"``: process workers cannot share the retained state, so
    #: the service refuses to start with ``"process"``.
    incremental: bool = False
    #: Keep per-tenant FIFO across hits and misses alike.  The default
    #: fast path answers every cache hit synchronously at submit time
    #: (hits "never consume queue space"), which can put a tenant's hit
    #: ahead of its own earlier request still waiting in the broker.
    #: With this on (the socket frontend's setting) a hit is answered at
    #: submit only while the broker holds nothing of its tenant's —
    #: nothing it could overtake; otherwise it queues behind that
    #: request and the dispatcher answers it in turn.
    ordered_admission: bool = False
    #: Shed requests at admission when the rolling queue-wait estimate
    #: says the turnaround deadline cannot be met (code ``rejected``,
    #: like any other admission refusal).  Conservative: only trips once
    #: the estimate exceeds twice the deadline, so a cold service never
    #: sheds.  Off by default — the stock service lets such requests
    #: expire in queue instead.
    deadline_shedding: bool = False


class PlanningService:
    """Accepts, schedules, caches and solves tenants' planning requests.

    Parameters
    ----------
    config:
        Tuning knobs (:class:`ServiceConfig`).
    metrics:
        An existing :class:`ServiceMetrics` to record into (defaults to
        a fresh one).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.broker = RequestBroker(
            max_pending_total=self.config.max_pending_total,
            max_pending_per_tenant=self.config.max_pending_per_tenant,
        )
        #: Flight leaders waiting for a solver slot, in broker order.
        #: Unbounded itself: ``_admit`` applies the two bounds to both
        #: queues together, and a ticket once admitted is never refused.
        self.solve_queue = RequestBroker(sys.maxsize, sys.maxsize)
        self.plan_cache = SharedPlanCache(self.config.cache_capacity)
        self.incremental = None
        if self.config.incremental:
            from .incremental import IncrementalSolver

            self.incremental = IncrementalSolver(
                time_limit=self.config.solver_time_limit_s,
                mip_gap=self.config.mip_gap,
                metrics=self.metrics.registry,
            )
        self.pool = SolverPool(
            max_workers=self.config.max_workers,
            mode=self.config.pool_mode,
            time_limit=self.config.solver_time_limit_s,
            mip_gap=self.config.mip_gap,
            incremental=self.incremental,
        )
        self._slots = threading.Semaphore(self.pool.max_workers)
        #: Rolling estimate of broker queue wait (written only by the
        #: dispatcher thread; read racily by admission — a stale value
        #: just delays the deadline-shedding trip by a few dispatches).
        self._queue_wait_ewma = 0.0
        #: Request ids, from 1 (``next`` on a count is atomic).
        self._ids = itertools.count(1)
        self._running = False
        self._stopped = False
        self._dispatcher: threading.Thread | None = None
        self._feeder: threading.Thread | None = None
        self._start_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "PlanningService":
        """Start the dispatcher and the feeder (idempotent; ``submit``
        calls it lazily).

        A stopped service never restarts: its broker is closed for good,
        so only cache hits are served and new work is refused.
        """
        with self._start_lock:
            if not self._running and not self._stopped:
                self._running = True
                self._dispatcher = threading.Thread(
                    target=self._serve,
                    args=(self.broker, self._dispatch),
                    name="repro-dispatcher",
                    daemon=True,
                )
                self._feeder = threading.Thread(
                    target=self._serve,
                    args=(self.solve_queue, self._feed),
                    name="repro-feeder",
                    daemon=True,
                )
                self._dispatcher.start()
                self._feeder.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop accepting work; reject the backlog; drain in-flight solves."""
        with self._start_lock:
            self._running = False
            self._stopped = True
        self.broker.close()
        self.solve_queue.close()
        for ticket in self.broker.drain():
            self._drop(ticket, RequestStatus.REJECTED, "service stopped")
        for ticket in self.solve_queue.drain():
            self._abandon(ticket, RequestStatus.REJECTED, "service stopped")
        for thread in (self._dispatcher, self._feeder):
            if thread is not None:
                thread.join(timeout=10.0)
        self._dispatcher = self._feeder = None
        self.pool.shutdown(wait=wait)

    def __enter__(self) -> "PlanningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission -------------------------------------------------------

    def submit(
        self,
        problem: PlanningProblem,
        *,
        tenant: str = "default",
        priority: int = 1,
        deadline_s: float | None = None,
        time_budget_s: float | None = None,
    ) -> SubmittedRequest:
        """Submit one problem; returns a handle to block on."""
        return self.submit_request(
            PlanRequest(
                tenant=tenant,
                problem=problem,
                priority=priority,
                deadline_s=deadline_s,
                time_budget_s=time_budget_s,
            )
        )

    def submit_request(
        self,
        request: PlanRequest,
        block: bool = False,
        poll_s: float = 0.05,
    ) -> SubmittedRequest:
        """Submit a prepared :class:`PlanRequest`.

        Raises :class:`AdmissionError` when admission refuses the
        request; with ``block=True`` a *full* backlog applies
        backpressure instead (waiting for it to drain) and only a closed
        broker still raises.  The request is counted and time-stamped
        once, so an SLO covers time spent blocked.  A cache hit completes
        synchronously and never consumes queue space — unless
        ``ordered_admission`` is on and the broker still holds a request
        of the same tenant, which it then queues behind.
        """
        if not self._running:
            self.start()
        fingerprint = problem_fingerprint(request.problem)
        ticket = SubmittedRequest(request, next(self._ids), fingerprint)
        self.metrics.record_submitted()

        if not (
            self.config.ordered_admission and self.broker.holds(request.tenant)
        ):
            cached = self.plan_cache.get(fingerprint)
            if cached is not None:
                result = self._finish(
                    ticket, RequestStatus.COMPLETED, plan=cached, cached=True
                )
                self.metrics.record_completion(
                    request.tenant, cached=True, total_s=result.total_s
                )
                return ticket

        if (
            self.config.deadline_shedding
            and request.deadline_s is not None
            and self.broker.pending > 0
            and self._queue_wait_ewma > 2.0 * request.deadline_s
        ):
            self.metrics.record_rejected()
            raise AdmissionError(
                f"estimated queue wait {self._queue_wait_ewma:.2f}s cannot "
                f"meet the {request.deadline_s}s turnaround deadline"
            )

        while True:
            try:
                self._admit(ticket)
                return ticket
            except AdmissionError:
                if not block or self.broker.closed:
                    self.metrics.record_rejected()
                    raise
                time.sleep(poll_s)

    def _admit(self, ticket: SubmittedRequest) -> None:
        """Queue ``ticket`` or raise :class:`AdmissionError`.

        The backlog is what waits in the broker *plus* the cold tickets
        waiting for a solver in the solve queue, so the two bounds apply
        to the sum, here — at submit, where a refusal is synchronous and
        ``block=True`` can turn it into backpressure.
        """
        total = self.config.max_pending_total
        if self.broker.pending + self.solve_queue.pending >= total:
            raise AdmissionError(f"service backlog full ({total} pending)")
        tenant, per_tenant = ticket.tenant, self.config.max_pending_per_tenant
        if (
            self.broker.pending_for(tenant) + self.solve_queue.pending_for(tenant)
            >= per_tenant
        ):
            raise AdmissionError(
                f"tenant {tenant!r} backlog full ({per_tenant} pending)"
            )
        self.broker.submit(ticket)

    # -- dispatch ---------------------------------------------------------

    def _serve(self, queue: RequestBroker, handle) -> None:
        """Thread body of the dispatcher and the feeder."""
        while self._running:
            ticket = queue.pop(timeout=0.2)
            if ticket is None:
                if queue.closed:
                    break
                continue
            try:
                handle(ticket)
            except Exception as exc:  # defensive
                # Whether or not ``ticket`` led its flight: settling one
                # it had only joined costs the joiners a solve of their
                # own, never an answer.
                self._abandon(ticket, RequestStatus.FAILED, exc)

    def _dispatch(self, ticket: SubmittedRequest) -> None:
        """Answer ``ticket`` without a solver, or queue it for one."""
        now = time.perf_counter()
        queue_wait = now - ticket.enqueued_at
        self.metrics.record_queue_wait(queue_wait)
        self._queue_wait_ewma += _QUEUE_WAIT_EWMA_ALPHA * (
            queue_wait - self._queue_wait_ewma
        )
        lapsed = self._lapsed(ticket, "in queue")
        if lapsed is not None:
            self._drop(ticket, *lapsed, queue_wait_s=now - ticket.submitted_at)
            return

        # One atomic look: the plan is cached (it may have landed while
        # this request was queued), an identical solve is in flight
        # (``_on_flight_done`` fires when it settles), or this ticket
        # leads the solve and owes the cache a ``finish`` on every
        # terminal path from here.
        verdict, plan = self.plan_cache.begin(
            ticket.fingerprint, functools.partial(self._on_flight_done, ticket)
        )
        if verdict == "hit":
            self._complete_cached(ticket, plan)
        elif verdict == "leader":
            try:
                self.solve_queue.submit(ticket)
            except AdmissionError as exc:
                self._abandon(ticket, RequestStatus.REJECTED, str(exc))

    def _feed(self, ticket: SubmittedRequest) -> None:
        """Hand flight leader ``ticket`` to a solver worker."""
        # Bounded concurrency: hold the solve queue (and therefore its
        # order) until a worker slot frees up.
        while not self._slots.acquire(timeout=0.2):
            if not self._running:
                self._abandon(ticket, RequestStatus.REJECTED, "service stopped")
                return
        lapsed = self._lapsed(ticket, "waiting for a solver slot")
        if lapsed is not None:
            self._slots.release()
            self._abandon(ticket, *lapsed)
            return

        budget = ticket.request.time_budget_s
        if ticket.expires_at is not None:
            remaining = max(1e-3, ticket.expires_at - time.perf_counter())
            budget = remaining if budget is None else min(budget, remaining)
        # A solve shaped by the leader's own time budget / SLO; joiners
        # must not inherit its outcome.
        budgeted = budget is not None
        ticket.dispatched_at = time.perf_counter()
        try:
            future = self.pool.submit(ticket.request.problem, budget)
        except BaseException as exc:
            # A broken pool must not leak the slot or strand the joiners.
            self._slots.release()
            self._abandon(
                ticket, RequestStatus.FAILED, exc,
                flight_error=exc, budgeted=budgeted,
            )
            return
        future.add_done_callback(
            lambda fut: self._on_solved(ticket, budgeted, fut)
        )

    def _lapsed(
        self, ticket: SubmittedRequest, where: str
    ) -> tuple[RequestStatus, str] | None:
        """Why ``ticket`` should go no further after waiting ``where`` —
        its client is gone or its SLO ran out — or ``None`` if it should."""
        if ticket.cancelled:
            # The submitter (a disconnected socket client) would never
            # read the result.
            return (
                RequestStatus.REJECTED,
                "client disconnected before its request reached a solver",
            )
        expires_at = ticket.expires_at
        if expires_at is not None and time.perf_counter() >= expires_at:
            return (
                RequestStatus.EXPIRED,
                f"turnaround deadline of {ticket.request.deadline_s}s "
                f"expired {where}",
            )
        return None

    def _complete_cached(
        self,
        ticket: SubmittedRequest,
        plan: ExecutionPlan,
        coalesced: bool = False,
    ) -> None:
        """Finish ``ticket`` with a plan it did not solve for."""
        waited = time.perf_counter() - ticket.submitted_at
        self._finish(
            ticket,
            RequestStatus.COMPLETED,
            plan=plan,
            cached=True,
            queue_wait_s=waited,
        )
        self.metrics.record_completion(
            ticket.tenant, cached=True, coalesced=coalesced, total_s=waited
        )

    def _on_flight_done(
        self,
        ticket: SubmittedRequest,
        plan: ExecutionPlan | None,
        error: BaseException | None,
        budgeted: bool,
    ) -> None:
        """The flight ``ticket`` joined has settled.

        Runs on the thread that settled it.  A published plan serves the
        ticket, unless its SLO lapsed during the shared solve; a failure
        not shaped by the leader's own time budget is authoritative and
        fails it with the same code; anything else — a budget-shaped
        failure, a cut-off incumbent (never published), a leader dropped
        before it solved — sends the ticket back through the queue for
        its own full solve.
        """
        if plan is not None:
            lapsed = self._lapsed(ticket, "during the coalesced solve")
            if lapsed is not None:
                self._drop(ticket, *lapsed)
            else:
                self._complete_cached(ticket, plan, coalesced=True)
        elif error is not None and not budgeted:
            self._drop(ticket, RequestStatus.FAILED, error)
        else:
            try:
                self.broker.submit(ticket)
            except AdmissionError as exc:
                self._drop(ticket, RequestStatus.REJECTED, str(exc))

    def _on_solved(
        self, ticket: SubmittedRequest, budgeted: bool, future
    ) -> None:
        self._slots.release()
        now = time.perf_counter()
        queue_wait_s = ticket.dispatched_at - ticket.submitted_at
        solve_s = now - ticket.dispatched_at
        error = future.exception()
        plan = None if error is not None else future.result()
        # Settle the flight before finishing the leader, so a caller that
        # reacts to the leader's result by resubmitting finds the plan.
        # Only optimal plans are published — a cut-off incumbent shaped
        # by one tenant's tiny time budget must not be served to anyone
        # else, so its joiners go back for their own solve.
        optimal = plan is not None and plan.solver_status == "optimal"
        self.plan_cache.finish(
            ticket.fingerprint,
            plan=plan if optimal else None,
            error=error,
            budgeted=budgeted,
        )
        if error is not None:
            self._drop(
                ticket, RequestStatus.FAILED, error,
                queue_wait_s=queue_wait_s, solve_s=solve_s,
            )
            return
        self._finish(
            ticket, RequestStatus.COMPLETED, plan=plan,
            queue_wait_s=queue_wait_s, solve_s=solve_s,
        )
        self.metrics.record_completion(
            ticket.tenant,
            cached=False,
            solve_s=solve_s,
            total_s=now - ticket.submitted_at,
        )

    # -- completion -------------------------------------------------------

    def _abandon(
        self,
        ticket: SubmittedRequest,
        status: RequestStatus,
        error: str | BaseException,
        *,
        flight_error: BaseException | None = None,
        budgeted: bool = False,
    ) -> None:
        """Drop a ticket that will not be solved *and* settle its flight.

        Every terminal path of a flight leader other than a solve ends
        here (stopped, expired or cancelled while waiting for a slot,
        refused by the solve queue, unexpected exception), so no joiner
        waits on a flight nobody will finish: joiners requeue for their
        own solve, or fail with the code of ``flight_error`` (a broken
        pool).
        """
        self._drop(ticket, status, error)
        self.plan_cache.finish(
            ticket.fingerprint, error=flight_error, budgeted=budgeted
        )

    def _drop(
        self,
        ticket: SubmittedRequest,
        status: RequestStatus,
        error: str | BaseException,
        **timing: float,
    ) -> None:
        """Finish ``ticket`` without a plan and count the outcome.

        ``error`` is the message (the code is then the status's own:
        ``rejected``, ``expired``) or the exception that failed it.
        """
        if isinstance(error, BaseException):
            message = f"{type(error).__name__}: {error}"
            code = error_code_for_exception(error)
        else:
            message, code = error, status.value
        self._finish(ticket, status, error=message, error_code=code, **timing)
        if status is RequestStatus.REJECTED and ticket.cancelled:
            self.metrics.record_cancelled()
        else:
            _COUNTED[status](self.metrics)

    def _finish(
        self,
        ticket: SubmittedRequest,
        status: RequestStatus,
        plan: ExecutionPlan | None = None,
        error: str = "",
        error_code: str = "",
        cached: bool = False,
        queue_wait_s: float = 0.0,
        solve_s: float = 0.0,
    ) -> PlanResult:
        result = PlanResult(
            request_id=ticket.request_id,
            tenant=ticket.tenant,
            status=status,
            plan=plan,
            error=error,
            error_code=error_code,
            cached=cached,
            fingerprint=ticket.fingerprint,
            queue_wait_s=queue_wait_s,
            solve_s=solve_s,
            total_s=time.perf_counter() - ticket.submitted_at,
        )
        ticket._complete(result)
        return result
