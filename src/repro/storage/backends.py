"""Storage backends: node-local disk daemons and an S3-like object store.

Each backend maps the key-value semantics of Conductor's storage system
onto one concrete service (paper Section 5.1): the local-disk backend
runs a daemon per participating node (the paper used Berkeley DB; ours is
an in-memory table with the same put/get/delete protocol), while the S3
backend models a flat object store addressed through client APIs.

Backends account *placement* (which keys live where, how many MB); the
time data movement takes is the network model's concern, and per-request
protocol overheads are exposed as parameters the client adds to each
chunk operation.
"""

from __future__ import annotations

import abc

from .blocks import Block, BlockId


class StorageError(KeyError):
    """A block/replica was not where the metadata said it would be."""


class StorageBackend(abc.ABC):
    """Common behaviour of all storage backends."""

    def __init__(self, name: str, per_chunk_overhead_s: float = 0.0) -> None:
        self.name = name
        #: Fixed protocol latency added per chunk operation (namenode RTT,
        #: HTTP round-trip, SSL handshake...).  This single parameter is
        #: what separates HDFS from Conductor's layer in Fig. 15.
        self.per_chunk_overhead_s = per_chunk_overhead_s
        #: Observers notified *before* any occupancy change (used by
        #: billing gauges to integrate GB-hours exactly).
        self.observers: list = []

    def _notify(self) -> None:
        for observer in self.observers:
            observer()

    @abc.abstractmethod
    def put(self, node: str, block: Block) -> None:
        """Store a replica of ``block`` at ``node`` (ignored for flat stores)."""

    @abc.abstractmethod
    def get(self, node: str, block_id: BlockId) -> Block:
        """Fetch a replica; raises :class:`StorageError` when absent."""

    @abc.abstractmethod
    def delete(self, node: str, block_id: BlockId) -> None:
        """Drop a replica if present (idempotent)."""

    @abc.abstractmethod
    def contains(self, node: str, block_id: BlockId) -> bool: ...

    @abc.abstractmethod
    def stored_mb(self, node: str | None = None) -> float:
        """MB held (at one node, or in total)."""


class LocalDiskBackend(StorageBackend):
    """Per-node storage daemons (the paper's Berkeley DB daemons).

    Data is partitioned by node: a ``get`` must address a node that
    actually holds the replica, exactly like talking to that node's
    daemon over its put/get/delete protocol.
    """

    def __init__(self, name: str = "local-disk", per_chunk_overhead_s: float = 0.0) -> None:
        super().__init__(name, per_chunk_overhead_s)
        self._tables: dict[str, dict[BlockId, Block]] = {}

    def add_node(self, node: str) -> None:
        self._tables.setdefault(node, {})

    @property
    def nodes(self) -> list[str]:
        return list(self._tables)

    def put(self, node: str, block: Block) -> None:
        if node not in self._tables:
            raise StorageError(f"no storage daemon on node {node!r}")
        self._notify()
        self._tables[node][block.block_id] = block

    def get(self, node: str, block_id: BlockId) -> Block:
        try:
            return self._tables[node][block_id]
        except KeyError:
            raise StorageError(f"{block_id} not on node {node!r}") from None

    def delete(self, node: str, block_id: BlockId) -> None:
        self._notify()
        self._tables.get(node, {}).pop(block_id, None)

    def contains(self, node: str, block_id: BlockId) -> bool:
        return block_id in self._tables.get(node, {})

    def stored_mb(self, node: str | None = None) -> float:
        if node is not None:
            return sum(b.size_mb for b in self._tables.get(node, {}).values())
        return sum(
            b.size_mb for table in self._tables.values() for b in table.values()
        )


class ObjectStoreBackend(StorageBackend):
    """A flat, unlimited object store with S3 semantics.

    The ``node`` argument of put/get is ignored — all clients see one
    namespace, reachable at the backend's network site.
    """

    def __init__(
        self,
        name: str = "s3",
        per_chunk_overhead_s: float = 0.2,
    ) -> None:
        super().__init__(name, per_chunk_overhead_s)
        self._objects: dict[BlockId, Block] = {}

    def put(self, node: str, block: Block) -> None:
        self._notify()
        self._objects[block.block_id] = block

    def get(self, node: str, block_id: BlockId) -> Block:
        try:
            return self._objects[block_id]
        except KeyError:
            raise StorageError(f"{block_id} not in object store {self.name!r}") from None

    def delete(self, node: str, block_id: BlockId) -> None:
        self._notify()
        self._objects.pop(block_id, None)

    def contains(self, node: str, block_id: BlockId) -> bool:
        return block_id in self._objects

    def stored_mb(self, node: str | None = None) -> float:
        return sum(b.size_mb for b in self._objects.values())
