"""Conductor's storage abstraction layer (paper Section 5.1).

A distributed key-value store with a namenode directory, pluggable
backends (node-local disk daemons, an S3-like object store), a client
with closest-replica reads and local-write-then-replicate semantics, a
chunked filesystem driver for Hadoop-style access, and the Fig. 15
throughput model.  The deployment layer
(:mod:`repro.core.deployments`) enacts an execution plan's uploads and
migrations itself.
"""

from .backends import LocalDiskBackend, ObjectStoreBackend, StorageBackend, StorageError
from .blocks import Block, BlockId, LocationRecord
from .client import StorageClient, TransferStats
from .filesystem import DEFAULT_CHUNK_MB, ConductorFileSystem, FileSystemError, Inode
from .namenode import Namenode

__all__ = [
    "Block",
    "BlockId",
    "ConductorFileSystem",
    "DEFAULT_CHUNK_MB",
    "FileSystemError",
    "Inode",
    "LocalDiskBackend",
    "LocationRecord",
    "Namenode",
    "ObjectStoreBackend",
    "StorageBackend",
    "StorageClient",
    "StorageError",
    "TransferStats",
]
