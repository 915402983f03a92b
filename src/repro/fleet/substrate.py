"""The shared cloud substrate: one market, one fault process, one clock.

Before the fleet runtime, every :class:`JobController` simulated its own
private world.  The :class:`Substrate` inverts that: it owns the spot
price traces (:mod:`repro.cloud.spot`, :mod:`repro.cloud.traces`), a
deterministic :class:`FailureInjector` and per-service capacity limits,
and *narrates* what happens each hour as the typed events of
:mod:`repro.fleet.events`.  Every deployment in a
:class:`~repro.fleet.scheduler.FleetScheduler` executes against the same
substrate, so a price spike at hour 17 is the *same* spike for all of
them — the precondition for coalescing their re-plans into one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..cloud.spot import SpotTrace
from ..sim.rng import generator
from .events import (
    CapacityChange,
    NodeFailure,
    PriceSpike,
    SpotEviction,
    SubstrateEvent,
)

__all__ = ["FailureInjector", "FailureSpec", "Substrate"]


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled node-failure episode."""

    hour: float
    service: str
    severity: float = 0.5
    duration_hours: float = 2.0


class FailureInjector:
    """Deterministic node-failure process over the substrate's services.

    Two sources compose: an explicit ``schedule`` of
    :class:`FailureSpec` (reproducible experiments, tests) and a seeded
    random process drawing one failure per (service, hour) with
    probability ``rate_per_hour``.  The random draw is hash-derived per
    (seed, service, hour) — :func:`repro.sim.rng.generator` — so the
    event stream is identical however the simulation is chunked.
    """

    def __init__(
        self,
        rate_per_hour: float = 0.0,
        severity: float = 0.5,
        duration_hours: float = 2.0,
        seed: int = 0,
        schedule: Iterable[FailureSpec] = (),
    ) -> None:
        if not 0.0 <= rate_per_hour < 1.0:
            raise ValueError("rate_per_hour must be in [0, 1)")
        if not 0.0 < severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        self.rate_per_hour = rate_per_hour
        self.severity = severity
        self.duration_hours = duration_hours
        self.seed = seed
        self.schedule = sorted(schedule, key=lambda f: f.hour)

    def failures_at(self, hour: int, services: Sequence[str]) -> list[FailureSpec]:
        """Failure episodes starting within ``[hour, hour + 1)``."""
        out = [
            spec
            for spec in self.schedule
            if hour <= spec.hour < hour + 1 and spec.service in services
        ]
        if self.rate_per_hour > 0:
            for service in services:
                draw = generator(self.seed, "fleet-failure", service, hour).random()
                if draw < self.rate_per_hour:
                    out.append(
                        FailureSpec(
                            hour=float(hour),
                            service=service,
                            severity=self.severity,
                            duration_hours=self.duration_hours,
                        )
                    )
        return out


class Substrate:
    """Shared simulated cloud conditions for a fleet of deployments.

    Parameters
    ----------
    traces:
        Spot price history per (spot) service name.  All deployments
        read prices — and suffer evictions — from these same traces.
    spike_threshold:
        Relative hour-over-hour price move that emits a
        :class:`PriceSpike` event (default 25%, matching the
        controller's price-deviation threshold).
    eviction_bids:
        Per-service bid ceiling; when the market rises above it, a
        :class:`SpotEviction` is emitted (the controller never bids
        above the on-demand price, so that price is the natural
        ceiling).  Services absent here emit no eviction events.
    capacity:
        Initial available node count per service (``None`` = unlimited).
    capacity_schedule:
        ``(hour, service, nodes)`` changes applied — and announced as
        :class:`CapacityChange` events — as the clock passes them.
    failures:
        The :class:`FailureInjector` (``None`` = no failures).
    """

    def __init__(
        self,
        traces: Mapping[str, SpotTrace] | None = None,
        *,
        spike_threshold: float = 0.25,
        eviction_bids: Mapping[str, float] | None = None,
        capacity: Mapping[str, int] | None = None,
        capacity_schedule: Iterable[tuple[float, str, int]] = (),
        failures: FailureInjector | None = None,
    ) -> None:
        if spike_threshold <= 0:
            raise ValueError("spike_threshold must be positive")
        self.traces = dict(traces or {})
        self.spike_threshold = spike_threshold
        self.eviction_bids = dict(eviction_bids or {})
        self.capacity = dict(capacity or {})
        self.capacity_schedule = sorted(capacity_schedule, key=lambda c: c[0])
        self.failures = failures
        #: Services whose ongoing above-ceiling episode was already
        #: announced (one eviction event per episode, not per hour).
        self._evicting: set[str] = set()
        #: All services the substrate knows about (traces, capacity,
        #: scheduled failures).
        scheduled = set() if failures is None else {f.service for f in failures.schedule}
        self.services = sorted(
            set(self.traces) | set(self.capacity) | scheduled
            | {service for _, service, _ in self.capacity_schedule}
        )

    # -- queries -----------------------------------------------------------

    def capacity_of(self, service: str) -> int | None:
        """Currently available nodes for ``service``; ``None`` = unlimited."""
        return self.capacity.get(service)

    # -- the event stream --------------------------------------------------

    def advance(self, start_hour: float, end_hour: float) -> list[SubstrateEvent]:
        """Events occurring in ``[start_hour, end_hour)``, in time order.

        Idempotent for price-spike and failure events (they are derived
        from the traces and the hash-seeded injector); *forward-stateful*
        for the rest, matching how a lockstep scheduler calls it over
        contiguous, advancing windows: capacity-schedule entries passed
        by the clock update :attr:`capacity` and are reported exactly
        once, and an above-ceiling eviction episode is announced exactly
        once — including an episode already in progress at the first
        narrated hour (a fleet may start mid-spike).
        """
        events: list[SubstrateEvent] = []
        first = int(math.floor(start_hour))
        last = int(math.ceil(end_hour))
        for hour in range(first, last):
            if not start_hour <= hour < end_hour:
                continue
            events.extend(self._price_events(hour))
            events.extend(self._failure_events(hour))
        events.extend(self._capacity_events(start_hour, end_hour))
        events.sort(key=lambda e: (e.hour, e.kind, e.service))
        return events

    def _price_events(self, hour: int) -> list[SubstrateEvent]:
        events: list[SubstrateEvent] = []
        for name, trace in sorted(self.traces.items()):
            current = trace.price_at(hour)
            previous = trace.price_at(hour - 1) if hour >= 1 else current
            if previous > 0:
                move = abs(current - previous) / previous
                if move > self.spike_threshold:
                    events.append(
                        PriceSpike(
                            hour=float(hour),
                            service=name,
                            old_price=previous,
                            new_price=current,
                        )
                    )
            ceiling = self.eviction_bids.get(name)
            if ceiling is None:
                continue
            if current > ceiling:
                if name not in self._evicting:
                    self._evicting.add(name)
                    events.append(
                        SpotEviction(
                            hour=float(hour),
                            service=name,
                            price=current,
                            bid_ceiling=ceiling,
                        )
                    )
            else:
                self._evicting.discard(name)
        return events

    def _failure_events(self, hour: int) -> list[SubstrateEvent]:
        if self.failures is None:
            return []
        services = self.services or sorted(self.traces)
        return [
            NodeFailure(
                hour=spec.hour,
                service=spec.service,
                severity=spec.severity,
                duration_hours=spec.duration_hours,
            )
            for spec in self.failures.failures_at(hour, services)
        ]

    def _capacity_events(
        self, start_hour: float, end_hour: float
    ) -> list[SubstrateEvent]:
        events: list[SubstrateEvent] = []
        for hour, service, nodes in self.capacity_schedule:
            if start_hour <= hour < end_hour:
                self.capacity[service] = nodes
                events.append(
                    CapacityChange(hour=float(hour), service=service, nodes=nodes)
                )
        return events
