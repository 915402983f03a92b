"""The namenode: directory service of Conductor's storage system.

"The central component in Conductor's storage system is the namenode,
which provides a directory service for data, and manages upload,
replication and migration of the data as per the execution plan"
(paper Section 5.1).  It maps block ids to location records and counts
each block's replicas.
"""

from __future__ import annotations

from .backends import StorageError
from .blocks import Block, BlockId, LocationRecord


class Namenode:
    """Block directory plus placement bookkeeping."""

    def __init__(self) -> None:
        self._blocks: dict[BlockId, Block] = {}
        self._locations: dict[BlockId, list[LocationRecord]] = {}

    # -- directory ------------------------------------------------------------

    def register(self, block: Block) -> None:
        """Make a block known (it has no replicas yet)."""
        if block.block_id in self._blocks:
            raise ValueError(f"block {block.block_id} already registered")
        self._blocks[block.block_id] = block
        self._locations[block.block_id] = []

    def block(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise StorageError(f"unknown block {block_id}") from None

    def exists(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    # -- locations ------------------------------------------------------------

    def add_location(self, block_id: BlockId, record: LocationRecord) -> None:
        locations = self._locations_of(block_id)
        if record not in locations:
            locations.append(record)

    def remove_location(self, block_id: BlockId, record: LocationRecord) -> None:
        locations = self._locations_of(block_id)
        if record in locations:
            locations.remove(record)

    def locations(self, block_id: BlockId) -> list[LocationRecord]:
        """All replicas' location records (possibly empty — data lost)."""
        return list(self._locations_of(block_id))

    def blocks_at(self, backend: str, node: str = "") -> list[BlockId]:
        """Blocks with a replica on a given backend (and node, if given)."""
        found = []
        for block_id, records in self._locations.items():
            for record in records:
                if record.backend == backend and (not node or record.node == node):
                    found.append(block_id)
                    break
        return found

    # -- replication bookkeeping -----------------------------------------------

    def replication_of(self, block_id: BlockId) -> int:
        return len(self._locations_of(block_id))

    # -- internals ------------------------------------------------------------

    def _locations_of(self, block_id: BlockId) -> list[LocationRecord]:
        if block_id not in self._locations:
            raise StorageError(f"unknown block {block_id}")
        return self._locations[block_id]
