"""Service-level metrics: request counters, latency distributions, cache
effectiveness.

Everything the ``loadgen`` summary and the throughput benchmark report
comes from here.  The instruments themselves live in
:mod:`repro.obs.registry` — the observability layer's telemetry registry
— so one :class:`~repro.obs.registry.MetricsRegistry` snapshot format
serves the planning service, the fleet runtime and ``repro trace
summarize`` alike; this module keeps the service's vocabulary (which
counters exist, what a completion records) and its legacy report shapes.

Thread-safety: the registry primitives lock their own record paths, and
``ServiceMetrics`` adds one reentrant lock around every multi-instrument
update and read, so a pool callback recording a completion can never
race a dashboard poll into a torn view (e.g. ``cache_hits`` bumped but
``completed`` not yet).  The lock is reentrant because ``snapshot()``
reads ``cache_hit_rate`` while holding it.
"""

from __future__ import annotations

import threading

from ..obs.registry import MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "ServiceMetrics",
]

#: Monotonic request counters every service instance maintains.
_COUNTERS = (
    "submitted",
    "rejected",
    "expired",
    "completed",
    "failed",
    "cancelled",
    "cache_hits",
    "cache_misses",
    "coalesced",
)


class ServiceMetrics:
    """Thread-safe counters and latency series for one service instance.

    Backed by an obs-level :class:`MetricsRegistry` (``.registry``):
    callers wanting the unified telemetry snapshot format read
    ``metrics.registry.snapshot()``; the legacy ``snapshot()`` /
    ``describe()`` shapes are preserved for the loadgen report and the
    throughput benchmarks.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.RLock()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The instruments themselves, looked up once: recording is on
        #: every request's path and the registry's lookup is locked.
        self._counters = {name: self.registry.counter(name) for name in _COUNTERS}
        self.queue_wait = self.registry.series("queue_wait")
        self.solve_latency = self.registry.series("solve_latency")
        self.turnaround = self.registry.series("turnaround")
        self.per_tenant_completed: dict[str, int] = {}

    # -- counter views -----------------------------------------------------

    def _count(self, name: str) -> int:
        with self._lock:
            return self._counters[name].value

    @property
    def rejected(self) -> int:
        return self._count("rejected")

    @property
    def expired(self) -> int:
        return self._count("expired")

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def cache_hits(self) -> int:
        return self._count("cache_hits")

    @property
    def cache_misses(self) -> int:
        return self._count("cache_misses")

    @property
    def coalesced(self) -> int:
        return self._count("coalesced")

    @property
    def cancelled(self) -> int:
        return self._count("cancelled")

    # -- recording --------------------------------------------------------

    # One counter is one instrument with its own lock; ``self._lock`` is
    # for the updates and reads that touch several.

    def record_submitted(self) -> None:
        self._counters["submitted"].increment()

    def record_rejected(self) -> None:
        self._counters["rejected"].increment()

    def record_expired(self) -> None:
        self._counters["expired"].increment()

    def record_cancelled(self) -> None:
        self._counters["cancelled"].increment()

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait.record(seconds)

    def record_completion(
        self,
        tenant: str,
        *,
        cached: bool,
        coalesced: bool = False,
        solve_s: float = 0.0,
        total_s: float = 0.0,
    ) -> None:
        counters = self._counters
        with self._lock:
            counters["completed"].increment()
            self.per_tenant_completed[tenant] = (
                self.per_tenant_completed.get(tenant, 0) + 1
            )
            if cached:
                counters["cache_hits"].increment()
            else:
                counters["cache_misses"].increment()
                self.solve_latency.record(solve_s)
            if coalesced:
                counters["coalesced"].increment()
            self.turnaround.record(total_s)

    def record_failure(self) -> None:
        self._counters["failed"].increment()

    # -- reporting --------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        with self._lock:
            hits = self._counters["cache_hits"].value
            lookups = hits + self._counters["cache_misses"].value
            return hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            snap = {name: counter.value
                    for name, counter in self._counters.items()}
            snap["cache_hit_rate"] = self.cache_hit_rate
            snap["queue_wait"] = self.queue_wait.summary()
            snap["solve_latency"] = self.solve_latency.summary()
            snap["turnaround"] = self.turnaround.summary()
            snap["per_tenant_completed"] = dict(self.per_tenant_completed)
            return snap

    def describe(self) -> str:
        """Human-readable summary block (the ``loadgen`` report)."""
        snap = self.snapshot()
        lines = [
            f"requests:    {snap['submitted']} submitted, "
            f"{snap['completed']} completed, {snap['failed']} failed, "
            f"{snap['rejected']} rejected, {snap['expired']} expired",
            f"plan cache:  {snap['cache_hits']} hits / "
            f"{snap['cache_hits'] + snap['cache_misses']} lookups "
            f"(hit rate {snap['cache_hit_rate']:.0%}, "
            f"{snap['coalesced']} coalesced)",
        ]
        for label, key in (
            ("queue wait", "queue_wait"),
            ("solve", "solve_latency"),
            ("turnaround", "turnaround"),
        ):
            s = snap[key]
            lines.append(
                f"{label + ':':12s} mean {s['mean_s'] * 1e3:7.1f} ms   "
                f"p50 {s['p50_s'] * 1e3:7.1f} ms   "
                f"p90 {s['p90_s'] * 1e3:7.1f} ms   "
                f"p99 {s['p99_s'] * 1e3:7.1f} ms"
            )
        return "\n".join(lines)
