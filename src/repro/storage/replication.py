"""Replication and migration management.

The namenode "manages upload, replication and migration of the data as
per the execution plan" (paper Section 5.1).  This module implements the
acting half: keeping blocks at their replication factor (we "replicate
blocks in more than one node for fault tolerance and performance") and
moving data between backends when the plan says so (Section 4.5).
"""

from __future__ import annotations

from typing import Callable

from .backends import LocalDiskBackend
from .blocks import Block, BlockId, LocationRecord
from .client import StorageClient
from .namenode import Namenode


class ReplicationManager:
    """Maintains replica counts and executes plan-driven migrations."""

    def __init__(
        self,
        namenode: Namenode,
        client: StorageClient,
        replication_factor: int = 3,
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.namenode = namenode
        self.client = client
        self.replication_factor = replication_factor

    # -- placement policy -------------------------------------------------------

    def choose_targets(
        self, block_id: BlockId, count: int, backend_name: str
    ) -> list[LocationRecord]:
        """Pick ``count`` nodes for new replicas: least-loaded first,
        excluding nodes that already hold one."""
        backend = self.client.backends[backend_name]
        if not isinstance(backend, LocalDiskBackend):
            return [LocationRecord(backend=backend_name)][:count]
        have = {
            record.node
            for record in self.namenode.locations(block_id)
            if record.backend == backend_name
        }
        candidates = sorted(
            (node for node in backend.nodes if node not in have),
            key=lambda node: backend.stored_mb(node),
        )
        return [
            LocationRecord(backend=backend_name, node=node)
            for node in candidates[:count]
        ]

    # -- repair -------------------------------------------------------------------

    def repair(self, backend_name: str = "local-disk") -> int:
        """Re-replicate under-replicated blocks; returns replicas started.

        Priority hints from the plan are honoured: higher-priority blocks
        are repaired first (Section 5.3).
        """
        started = 0
        candidates = self.namenode.by_priority(
            self.namenode.under_replicated(self.replication_factor)
        )
        for block_id in candidates:
            records = self.namenode.locations(block_id)
            missing = self.replication_factor - len(records)
            source = records[0]
            block = self.namenode.block(block_id)
            for target in self.choose_targets(block_id, missing, backend_name):
                self.client.write(block, source.site, target)
                started += 1
        return started

    # -- migration -------------------------------------------------------------------

    def migrate(
        self,
        block_id: BlockId,
        destination: LocationRecord,
        drop_source: bool = True,
        on_complete: Callable[[Block], None] | None = None,
    ) -> None:
        """Move one block to ``destination`` (plan-driven, Section 4.5).

        The source replica is dropped after the copy lands, so the block
        never becomes unavailable mid-migration.
        """
        records = self.namenode.locations(block_id)
        if not records:
            raise ValueError(f"cannot migrate unavailable block {block_id}")
        source = min(
            records, key=lambda r: 0.0 if r.site == destination.site else 1.0
        )
        block = self.namenode.block(block_id)

        def landed(written: Block) -> None:
            if drop_source and source != destination:
                self.client.backends[source.backend].delete(source.node, block_id)
                self.namenode.remove_location(block_id, source)
            if on_complete is not None:
                on_complete(written)

        self.client.write(block, source.site, destination, landed)
