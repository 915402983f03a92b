"""Typed substrate events — what the shared cloud does *to* deployments.

Conductor's adaptation story (paper Sections 5.4, 6.4-6.5) is driven by
things the deployment did not choose: spot prices spike, spot instances
are reclaimed, nodes fail, a provider caps capacity.  In the fleet
runtime one :class:`~repro.fleet.substrate.Substrate` owns those
conditions for *all* concurrent deployments and narrates them as the
frozen event types below; the scheduler turns each event into targeted
re-plans for the deployments it concerns.

Every event carries the absolute substrate ``hour`` it happened and the
``service`` it concerns, plus a ``kind`` from the replan-trigger
taxonomy (``docs/adaptation.md``) so events map 1:1 onto the ``replan``
records they cause.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CapacityChange",
    "NodeFailure",
    "PriceSpike",
    "SpotEviction",
    "SubstrateEvent",
]


@dataclass(frozen=True)
class SubstrateEvent:
    """Base: something observable changed in the shared substrate."""

    hour: float
    service: str

    kind = "substrate"

    def describe(self) -> str:
        return f"t={self.hour:g}h {self.service}: {self.kind}"


@dataclass(frozen=True)
class PriceSpike(SubstrateEvent):
    """The spot market moved sharply between consecutive hours.

    Emitted for moves in *either* direction past the substrate's
    ``spike_threshold`` — a crash is as actionable as a spike (cheap
    hours are when a cost-minimizing plan wants to run).
    """

    old_price: float = 0.0
    new_price: float = 0.0

    kind = "price"

    @property
    def rel_change(self) -> float:
        if self.old_price <= 0:
            return 0.0
        return (self.new_price - self.old_price) / self.old_price

    def describe(self) -> str:
        return (
            f"t={self.hour:g}h {self.service}: price "
            f"${self.old_price:.3f} -> ${self.new_price:.3f} "
            f"({self.rel_change:+.0%})"
        )


@dataclass(frozen=True)
class SpotEviction(SubstrateEvent):
    """The market rose above the fleet's bid ceiling: every deployment
    holding this service's instances is terminated this hour (the
    controller caps bids at the on-demand price, so a market above that
    ceiling evicts all bidders)."""

    price: float = 0.0
    bid_ceiling: float = 0.0

    kind = "eviction"

    def describe(self) -> str:
        return (
            f"t={self.hour:g}h {self.service}: evicted "
            f"(market ${self.price:.3f} > ceiling ${self.bid_ceiling:.3f})"
        )


@dataclass(frozen=True)
class NodeFailure(SubstrateEvent):
    """A fraction of the service's node capability failed for a while.

    The scheduler applies it as a throughput degradation on affected
    deployments' :class:`~repro.core.conditions.ActualConditions` —
    ``severity=0.5`` halves the observed per-node rate for
    ``duration_hours`` — which the controllers then *observe* as rate
    deviations, exactly how a real deployment would notice.
    """

    severity: float = 0.5
    duration_hours: float = 2.0

    kind = "failure"

    def describe(self) -> str:
        return (
            f"t={self.hour:g}h {self.service}: node failure "
            f"({self.severity:.0%} degraded for {self.duration_hours:g}h)"
        )


@dataclass(frozen=True)
class CapacityChange(SubstrateEvent):
    """The provider's available node count for a service changed."""

    nodes: int = 0

    kind = "capacity"

    def describe(self) -> str:
        return f"t={self.hour:g}h {self.service}: capacity -> {self.nodes} nodes"
