"""The request broker: admission control and dispatch ordering.

The broker is the service's front door (the broker/scheduler/monitor
split of the orchestration taxonomy).  Admission control bounds both
per-tenant and total backlog, so one noisy tenant cannot starve the rest
of *queue space*.  Dispatch order is priority first (0 = most urgent),
then earliest turnaround deadline, then global FIFO: one min-heap on
``(priority, deadline, seq)``, so ``pop`` is O(log pending) however many
tenants are queued, and within a tenant submissions with equal priority
and deadline stay ordered.
"""

from __future__ import annotations

import heapq
import math
import threading
import time

from .requests import SubmittedRequest


class AdmissionError(RuntimeError):
    """The broker refused a request (queue bounds exceeded)."""


class RequestBroker:
    """Bounded, priority/deadline-aware multi-tenant request queue."""

    def __init__(
        self,
        max_pending_total: int = 256,
        max_pending_per_tenant: int = 64,
    ) -> None:
        if max_pending_total <= 0 or max_pending_per_tenant <= 0:
            raise ValueError("queue bounds must be positive")
        self.max_pending_total = max_pending_total
        self.max_pending_per_tenant = max_pending_per_tenant
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: min-heap of (priority, deadline, seq, ticket).
        self._heap: list[tuple] = []
        #: tenant -> queued tickets (tenants with none are dropped).
        self._per_tenant: dict[str, int] = {}
        #: Tenant of the ticket the consumer is handling: set when ``pop``
        #: hands it out, cleared when the consumer comes back for more.
        self._handling: str | None = None
        self._seq = 0
        self._closed = False

    # -- submission -------------------------------------------------------

    def submit(self, ticket: SubmittedRequest) -> None:
        """Enqueue a ticket or raise :class:`AdmissionError`."""
        tenant = ticket.tenant
        with self._not_empty:
            if self._closed:
                raise AdmissionError("broker is closed")
            if len(self._heap) >= self.max_pending_total:
                raise AdmissionError(
                    f"service backlog full ({self.max_pending_total} pending)"
                )
            queued = self._per_tenant.get(tenant, 0)
            if queued >= self.max_pending_per_tenant:
                raise AdmissionError(
                    f"tenant {tenant!r} backlog full "
                    f"({self.max_pending_per_tenant} pending)"
                )
            deadline = ticket.expires_at
            key = (
                ticket.request.priority,
                deadline if deadline is not None else math.inf,
                self._seq,
            )
            self._seq += 1
            ticket.enqueued_at = time.perf_counter()
            heapq.heappush(self._heap, (*key, ticket))
            self._per_tenant[tenant] = queued + 1
            self._not_empty.notify()

    # -- dispatch ---------------------------------------------------------

    def pop(self, timeout: float | None = None) -> SubmittedRequest | None:
        """The most urgent queued request by ``(priority, deadline,
        seq)``, or ``None`` on timeout/close."""
        with self._not_empty:
            self._handling = None
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            *_, ticket = heapq.heappop(self._heap)
            self._handling = ticket.tenant
            queued = self._per_tenant[ticket.tenant] - 1
            if queued:
                self._per_tenant[ticket.tenant] = queued
            else:
                del self._per_tenant[ticket.tenant]
            return ticket

    def drain(self) -> list[SubmittedRequest]:
        """Remove and return everything still queued (shutdown path)."""
        with self._lock:
            tickets = [entry[-1] for entry in self._heap]
            self._heap.clear()
            self._per_tenant.clear()
            return tickets

    def close(self) -> None:
        """Refuse further submissions and wake blocked ``pop`` calls."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    # -- introspection ----------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._heap)

    def pending_for(self, tenant: str) -> int:
        with self._lock:
            return self._per_tenant.get(tenant, 0)

    def holds(self, tenant: str) -> bool:
        """Whether a request of ``tenant`` has yet to leave this broker:
        one is queued, or the single consumer popped one and has not come
        back for the next.  While false, nothing of the tenant's can be
        overtaken by answering it elsewhere."""
        with self._lock:
            return tenant in self._per_tenant or tenant == self._handling

    def tenants(self) -> list[str]:
        with self._lock:
            return list(self._per_tenant)
