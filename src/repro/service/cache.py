"""Plan-cache machinery: a thread-safe LRU and the single-flight plan cache.

:class:`LRUCache` backs the incremental solver's retained structures
and the fleet's plan cache.  Cached plans are treated as immutable by
convention; eviction is strict LRU.

:class:`SharedPlanCache` is the planning service's one plan cache
(fingerprint -> :class:`ExecutionPlan`): that LRU plus a single-flight
table, so concurrent identical cold requests from any number of tenants
coalesce onto one solve instead of thundering the solver pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")

_MISSING = object()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LRUCache(Generic[V]):
    """Bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables the cache (every lookup misses, nothing is
    retained) — useful for measuring cold-path latency.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable, default: V | None = None) -> V | None:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def remove(self, key: Hashable) -> None:
        """Drop ``key`` if present (not counted as an eviction)."""
        with self._lock:
            self._data.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class SharedPlanCache(LRUCache):
    """The service's plan cache: an LRU plus a single-flight table.

    All tenants share it, so a plan solved for one is a hit for every
    other.  The flight table coalesces concurrent identical solves:

    - :meth:`begin` is called for a request about to need a solve.  It
      returns ``("hit", plan)`` when the plan is cached, ``("leader",
      None)`` when the caller should run the solve (a flight is now
      registered under the key), or ``("joined", None)`` when a solve
      for the key is already in flight — the caller's ``on_done``
      callback fires when that solve finishes.  Lookup and registration
      happen under one lock, so a racing :meth:`finish` leaves either
      the plan or the flight to find, never a gap.
    - :meth:`finish` is the leader's obligation on *every* terminal
      path: it publishes the plan (callers pass only plans fit to share)
      and invokes the joiners' callbacks outside the lock as
      ``on_done(plan, error, budgeted)``.

    ``capacity <= 0`` disables retention (every ``get`` misses) but the
    flight table still coalesces concurrent identical solves.
    """

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)
        self._flights: dict[Hashable, list[Callable]] = {}
        self._flight_lock = threading.Lock()

    def begin(self, key: Hashable, on_done: Callable) -> tuple[str, object]:
        with self._flight_lock:
            plan = self.get(key)
            if plan is not None:
                return ("hit", plan)
            flight = self._flights.get(key)
            if flight is not None:
                flight.append(on_done)
                return ("joined", None)
            self._flights[key] = []
            return ("leader", None)

    def finish(
        self,
        key: Hashable,
        plan=None,
        error: BaseException | None = None,
        budgeted: bool = False,
    ) -> None:
        with self._flight_lock:
            if plan is not None:
                self.put(key, plan)
            callbacks = self._flights.pop(key, [])
        # Outside the lock: callbacks complete or requeue tickets, whose
        # own done-callbacks may submit follow-up work.
        for on_done in callbacks:
            on_done(plan, error, budgeted)

    def inflight(self) -> int:
        """Number of registered flights (introspection/tests)."""
        with self._flight_lock:
            return len(self._flights)
