"""Fluid-flow network model with max-min fair bandwidth sharing.

The paper's evaluation is dominated by data movement: uploads over the
customer's 16 Mbit/s uplink, S3 ↔ EC2 transfers, HDFS replication traffic
(Sections 6.1-6.6).  Rather than simulating packets, we use a *fluid*
model: each transfer is a flow with a remaining size; concurrent flows
share link capacity max-min fairly; the event kernel advances flows
piecewise-linearly between rate changes.

Topology is explicit: links have capacities in MB/s, and routes map
``(src_site, dst_site)`` pairs to link sequences, so the same model covers
the client uplink, per-node NICs and per-node disks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .clock import Simulation
from .events import Event

_EPS_MB = 1e-6


class RoutingError(KeyError):
    """No route is defined between the requested sites."""


@dataclass
class Link:
    """A shared capacity constraint (WAN uplink, NIC, disk spindle...)."""

    name: str
    capacity_mb_s: float
    #: Total MB that have traversed the link (for utilization reports).
    mb_transferred: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_mb_s <= 0:
            raise ValueError(f"link {self.name!r} needs positive capacity")


class Topology:
    """Named links plus (src, dst) -> link-sequence routes."""

    def __init__(self) -> None:
        self.links: dict[str, Link] = {}
        self._routes: dict[tuple[str, str], list[Link]] = {}

    def add_link(self, name: str, capacity_mb_s: float) -> Link:
        if name in self.links:
            raise ValueError(f"duplicate link {name!r}")
        link = Link(name, capacity_mb_s)
        self.links[name] = link
        return link

    def add_route(
        self,
        src: str,
        dst: str,
        link_names: Sequence[str],
        symmetric: bool = True,
    ) -> None:
        """Register the link path from ``src`` to ``dst``.

        An empty path means the transfer is node-local and completes at
        infinite rate.  With ``symmetric`` the reverse route reuses the
        same links (full-duplex links should be added twice instead).
        """
        links = [self.links[name] for name in link_names]
        self._routes[(src, dst)] = links
        if symmetric and (dst, src) not in self._routes:
            self._routes[(dst, src)] = list(reversed(links))

    def route(self, src: str, dst: str) -> list[Link]:
        if (src, dst) in self._routes:
            return self._routes[(src, dst)]
        if src == dst:
            return []  # node-local, no explicit self-route: instantaneous
        raise RoutingError(f"no route {src!r} -> {dst!r}")


@dataclass
class Flow:
    """An in-flight bulk transfer."""

    flow_id: int
    src: str
    dst: str
    size_mb: float
    links: list[Link]
    on_complete: Callable[["Flow"], None] | None
    started_at: float
    remaining_mb: float = field(init=False)
    rate_mb_s: float = 0.0
    completed_at: float | None = None

    def __post_init__(self) -> None:
        self.remaining_mb = self.size_mb

    @property
    def active(self) -> bool:
        return self.completed_at is None


def max_min_fair_rates(
    flow_links: Sequence[Sequence[Link]],
    capacities: dict[str, float] | None = None,
) -> list[float]:
    """Compute max-min fair rates for flows given their link paths.

    Standard progressive filling: repeatedly find the most-contended link,
    fix the fair share of its unfrozen flows, remove that capacity, and
    continue.  Flows with an empty path get ``math.inf``.

    ``capacities`` optionally overrides link capacities by name (used by
    tests); by default each link's ``capacity_mb_s`` is used.
    """
    def capacity_of(link: Link) -> float:
        if capacities is not None and link.name in capacities:
            return capacities[link.name]
        return link.capacity_mb_s

    rates: list[float] = [math.inf] * len(flow_links)
    unfrozen = {i for i, links in enumerate(flow_links) if links}
    remaining = {}
    members: dict[str, set[int]] = {}
    link_by_name: dict[str, Link] = {}
    for i in unfrozen:
        for link in flow_links[i]:
            link_by_name[link.name] = link
            members.setdefault(link.name, set()).add(i)
            remaining.setdefault(link.name, capacity_of(link))

    while unfrozen:
        # Bottleneck link: smallest per-flow fair share among live links.
        best_name, best_share = None, math.inf
        for name, flows_here in members.items():
            live = flows_here & unfrozen
            if not live:
                continue
            share = remaining[name] / len(live)
            if share < best_share:
                best_name, best_share = name, share
        if best_name is None:
            break
        saturated = members[best_name] & unfrozen
        for i in saturated:
            rates[i] = best_share
            unfrozen.discard(i)
            for link in flow_links[i]:
                remaining[link.name] = max(0.0, remaining[link.name] - best_share)
    return rates


class FluidNetwork:
    """Max-min fair fluid network bound to a :class:`Simulation`.

    Rates are piecewise constant: every flow arrival or completion
    triggers a progress update (advancing ``remaining_mb`` at the old
    rates) followed by a global re-allocation and re-scheduling of the
    next completion event.
    """

    def __init__(self, sim: Simulation, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self._flows: list[Flow] = []
        self._flow_ids = itertools.count()
        self._last_update = sim.now
        self._completion_event: Event | None = None
        self.completed_flows: int = 0

    # -- public API ---------------------------------------------------------

    def start_flow(
        self,
        src: str,
        dst: str,
        size_mb: float,
        on_complete: Callable[[Flow], None] | None = None,
    ) -> Flow:
        """Begin transferring ``size_mb`` from ``src`` to ``dst``.

        ``on_complete`` fires from the event loop when the last byte is
        delivered.  Zero-sized and node-local flows complete via an
        immediately scheduled event (never synchronously) so callers can
        rely on callback ordering.
        """
        if size_mb < 0:
            raise ValueError("flow size must be non-negative")
        links = self.topology.route(src, dst)
        self._advance_progress()
        flow = Flow(
            flow_id=next(self._flow_ids),
            src=src,
            dst=dst,
            size_mb=size_mb,
            links=links,
            on_complete=on_complete,
            started_at=self.sim.now,
        )
        self._flows.append(flow)
        self._reallocate()
        return flow

    def utilization_mb(self) -> dict[str, float]:
        """MB moved per link so far (includes in-flight progress)."""
        self._advance_progress()
        self._reallocate()
        return {name: link.mb_transferred for name, link in self.topology.links.items()}

    # -- internals ----------------------------------------------------------

    def _advance_progress(self) -> None:
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                if flow.rate_mb_s > 0 and math.isfinite(flow.rate_mb_s):
                    moved = min(flow.remaining_mb, flow.rate_mb_s * elapsed)
                    flow.remaining_mb -= moved
                    for link in flow.links:
                        link.mb_transferred += moved
        self._last_update = self.sim.now

    def _reallocate(self) -> None:
        active = [f for f in self._flows if f.active]
        rates = max_min_fair_rates([f.links for f in active])
        for flow, rate in zip(active, rates):
            flow.rate_mb_s = rate
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        next_done = math.inf
        for flow in active:
            if flow.remaining_mb <= _EPS_MB or not math.isfinite(flow.rate_mb_s):
                next_done = 0.0
                break
            if flow.rate_mb_s > 0:
                next_done = min(next_done, flow.remaining_mb / flow.rate_mb_s)
        if math.isfinite(next_done):
            self._completion_event = self.sim.schedule(
                next_done, self._handle_completions, priority=-1
            )

    def _handle_completions(self) -> None:
        self._completion_event = None
        self._advance_progress()
        finished = [
            f
            for f in self._flows
            if f.active
            and (f.remaining_mb <= _EPS_MB or not math.isfinite(f.rate_mb_s))
        ]
        for flow in finished:
            flow.remaining_mb = 0.0
            flow.completed_at = self.sim.now
            self._flows.remove(flow)
            self.completed_flows += 1
        self._reallocate()
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)
