"""Chunked file system driver on top of the key-value store.

The Hadoop integration splits files "into smaller chunks that are stored
as key-value pairs ... for each file we store inodes that list the chunks
that constitute the file content" (paper Section 5.3).  This module is
that driver: path-level create/write/read plus the locality queries the
location-aware scheduler needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .blocks import Block, BlockId, LocationRecord
from .client import StorageClient
from .namenode import Namenode

DEFAULT_CHUNK_MB = 64.0


@dataclass
class Inode:
    """Per-file metadata: ordered chunk list."""

    path: str
    size_mb: float
    chunks: list[BlockId] = field(default_factory=list)


class FileSystemError(KeyError):
    pass


class ConductorFileSystem:
    """File abstraction over Conductor's storage system."""

    def __init__(
        self,
        namenode: Namenode,
        client: StorageClient,
        chunk_mb: float = DEFAULT_CHUNK_MB,
    ) -> None:
        if chunk_mb <= 0:
            raise ValueError("chunk_mb must be positive")
        self.namenode = namenode
        self.client = client
        self.chunk_mb = chunk_mb
        self._inodes: dict[str, Inode] = {}

    # -- namespace ------------------------------------------------------------

    def create(self, path: str, size_mb: float) -> Inode:
        """Register a file and its chunk layout (no data written yet)."""
        if path in self._inodes:
            raise FileSystemError(f"file exists: {path}")
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        inode = Inode(path=path, size_mb=size_mb)
        count = max(1, math.ceil(size_mb / self.chunk_mb - 1e-9)) if size_mb else 0
        remaining = size_mb
        for index in range(count):
            block_id = BlockId(path, index)
            chunk_size = min(self.chunk_mb, remaining)
            remaining -= chunk_size
            self.namenode.register(Block(block_id, chunk_size))
            inode.chunks.append(block_id)
        self._inodes[path] = inode
        return inode

    def inode(self, path: str) -> Inode:
        try:
            return self._inodes[path]
        except KeyError:
            raise FileSystemError(f"no such file: {path}") from None

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def delete(self, path: str) -> None:
        inode = self.inode(path)
        for block_id in inode.chunks:
            for record in self.namenode.locations(block_id):
                self.client.backends[record.backend].delete(record.node, block_id)
                self.namenode.remove_location(block_id, record)
        del self._inodes[path]

    # -- data movement -----------------------------------------------------------

    def upload(
        self,
        path: str,
        from_site: str,
        target_for_chunk: Callable[[int], LocationRecord],
        on_complete: Callable[[], None] | None = None,
        on_chunk: Callable[[BlockId], None] | None = None,
    ) -> None:
        """Stream a file's chunks from a source site into the store.

        ``target_for_chunk(i)`` decides each chunk's destination — this is
        how the controller's plan drives placement ("where and when to
        upload and store what data", Section 5.2).
        """
        inode = self.inode(path)
        pending = len(inode.chunks)
        if pending == 0 and on_complete is not None:
            self.client.sim.schedule(0.0, on_complete)
            return

        def chunk_done(block: Block) -> None:
            nonlocal pending
            pending -= 1
            if on_chunk is not None:
                on_chunk(block.block_id)
            if pending == 0 and on_complete is not None:
                on_complete()

        for index, block_id in enumerate(inode.chunks):
            block = self.namenode.block(block_id)
            self.client.write(block, from_site, target_for_chunk(index), chunk_done)

    # -- locality (for the scheduler) ----------------------------------------------

    def chunk_locations(self, path: str) -> dict[BlockId, list[LocationRecord]]:
        """Replica map for every chunk — the scheduler's locality input
        ("methods for the scheduler to retrieve the location of a task's
        input data", Section 5.3)."""
        return {
            block_id: self.namenode.locations(block_id)
            for block_id in self.inode(path).chunks
        }
