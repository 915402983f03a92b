"""Block and location records for the storage abstraction layer.

Conductor's storage system is a distributed key-value store fronted by a
*namenode* that maps file-block identifiers to location records; each
record carries backend-specific addressing (paper Section 5.1).  Blocks
here carry sizes, not payloads — the simulator moves volumes, and tests
that need real bytes attach a payload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockId:
    """Identifier of one stored chunk: ``(file, index)``."""

    file: str
    index: int

    def __str__(self) -> str:
        return f"{self.file}#{self.index}"


@dataclass
class Block:
    """A chunk of data known to the namenode."""

    block_id: BlockId
    size_mb: float
    payload: bytes | None = None

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError("block size must be non-negative")


@dataclass(frozen=True)
class LocationRecord:
    """Where one replica of a block lives.

    ``backend`` names the storage backend ("local-disk", "s3", ...);
    ``node`` addresses the specific daemon for node-local backends and is
    empty for flat object stores like S3 (paper: "location records contain
    information specific to the storage backend").
    """

    backend: str
    node: str = ""

    @property
    def site(self) -> str:
        """Network site used for routing reads/writes to this replica."""
        return self.node if self.node else self.backend
