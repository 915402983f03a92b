"""Failure injection for the storage abstraction layer.

Drives the fault scenarios of paper Section 2.1 against the simulated
storage system: individual block loss (an unreliable backend dropping
an object) and whole-node crashes (every replica on the node vanishes
at once).  Deterministic under a seed, so tests can assert exact
recovery behaviour.

Two usage modes:

- imperative: ``injector.lose_block(...)`` / ``injector.fail_node(...)``
  from a test or scenario script;
- scheduled: ``injector.schedule_node_failure(sim, at_hour, ...)`` hooks
  the event into a :class:`repro.sim.Simulation`, and
  ``injector.arm_random_losses(...)`` samples a Poisson-thinned loss
  process over the registered blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sim.clock import Simulation
from .blocks import BlockId
from .namenode import Namenode


@dataclass(frozen=True)
class FailureEvent:
    """A record of one injected failure (for assertions and reports)."""

    hour: float
    kind: str  # "block-loss" | "node-crash"
    detail: str
    blocks_lost: tuple[BlockId, ...]


class FailureInjector:
    """Injects storage failures into a namenode-backed deployment."""

    def __init__(self, namenode: Namenode) -> None:
        self._namenode = namenode
        self._log: list[FailureEvent] = []
        self._listeners: list[Callable[[FailureEvent], None]] = []

    @property
    def log(self) -> list[FailureEvent]:
        return list(self._log)

    def on_failure(self, listener: Callable[[FailureEvent], None]) -> None:
        """Register a callback fired after every injected failure."""
        self._listeners.append(listener)

    # -- imperative injection -------------------------------------------------

    def lose_block(self, block_id: BlockId, hour: float = 0.0) -> FailureEvent:
        """Drop *every* replica of one block (the object is gone)."""
        for record in self._namenode.locations(block_id):
            self._namenode.remove_location(block_id, record)
        return self._record(hour, "block-loss", str(block_id), (block_id,))

    def lose_replica(
        self, block_id: BlockId, backend: str, node: str = "", hour: float = 0.0
    ) -> FailureEvent:
        """Drop one replica; the block survives if others remain."""
        from .blocks import LocationRecord

        self._namenode.remove_location(
            block_id, LocationRecord(backend=backend, node=node)
        )
        lost = (block_id,) if not self._namenode.locations(block_id) else ()
        return self._record(
            hour, "block-loss", f"{block_id}@{backend}/{node or '-'}", lost
        )

    def fail_node(
        self, backend: str, node: str, hour: float = 0.0
    ) -> FailureEvent:
        """Crash a storage node: every replica it held disappears."""
        touched = self._namenode.drop_node(backend, node)
        lost = tuple(
            block_id
            for block_id in touched
            if not self._namenode.locations(block_id)
        )
        return self._record(hour, "node-crash", f"{backend}/{node}", lost)

    # -- scheduled / random injection --------------------------------------------

    def schedule_node_failure(
        self, sim: Simulation, at_hour: float, backend: str, node: str
    ) -> None:
        sim.schedule_at(
            at_hour, lambda: self.fail_node(backend, node, hour=sim.now)
        )

    def schedule_block_loss(
        self, sim: Simulation, at_hour: float, block_id: BlockId
    ) -> None:
        sim.schedule_at(
            at_hour, lambda: self.lose_block(block_id, hour=sim.now)
        )

    def arm_random_losses(
        self,
        sim: Simulation,
        loss_per_block_hour: float,
        horizon_hours: float,
        rng: np.random.Generator | int | None = None,
        backend: str | None = None,
    ) -> int:
        """Sample block-loss times over the horizon; returns count armed.

        Each currently-registered block independently draws an
        exponential time-to-loss with the given hourly rate; draws
        beyond the horizon mean the block survives.  ``backend``
        restricts losses to blocks with a replica there.
        """
        if loss_per_block_hour < 0:
            raise ValueError("loss rate must be non-negative")
        if loss_per_block_hour == 0:
            return 0
        generator = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        armed = 0
        for block_id in self._namenode.blocks():
            if backend is not None and not any(
                record.backend == backend
                for record in self._namenode.locations(block_id)
            ):
                continue
            delay = float(generator.exponential(1.0 / loss_per_block_hour))
            if delay <= horizon_hours:
                self.schedule_block_loss(sim, sim.now + delay, block_id)
                armed += 1
        return armed

    # -- internals ------------------------------------------------------------------

    def _record(
        self,
        hour: float,
        kind: str,
        detail: str,
        blocks_lost: tuple[BlockId, ...],
    ) -> FailureEvent:
        event = FailureEvent(
            hour=hour, kind=kind, detail=detail, blocks_lost=blocks_lost
        )
        self._log.append(event)
        for listener in self._listeners:
            listener(event)
        return event


def unavailable_files(namenode: Namenode) -> set[str]:
    """Files with at least one unavailable block (cannot be re-read)."""
    return {block_id.file for block_id in namenode.unavailable()}
