"""HDFS-style storage: the baseline Hadoop deployments' filesystem.

HDFS shares the namenode/backend machinery of Conductor's storage layer
but differs where the paper measured differences (Section 6.6, Fig. 15):

- writes use **pipeline replication**: the client streams to the first
  datanode, which streams to the second, and so on — replicas land
  concurrently instead of local-write-then-background-replicate;
- the client protocol is leaner: per-chunk overhead is a fraction of
  Conductor's namenode-mediated key-value path ("HDFS has been actively
  developed for several years ... significant effort ... into
  performance optimization").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..sim import FluidNetwork, Simulation
from ..storage.backends import LocalDiskBackend
from ..storage.blocks import Block, LocationRecord
from ..storage.client import StorageClient
from ..storage.filesystem import ConductorFileSystem
from ..storage.namenode import Namenode

#: Protocol overheads calibrated against the paper's Fig. 15 gap: HDFS's
#: optimized pipeline (block setup + acks) vs. Conductor's namenode
#: round-trip and key-value protocol per chunk.  With a 25 MB/s EBS
#: source and 64 MB chunks these yield ~21 MB/s (HDFS) and ~16 MB/s
#: (Conductor), the paper's measured bars.
HDFS_CHUNK_OVERHEAD_S = 0.45
CONDUCTOR_CHUNK_OVERHEAD_S = 1.45


@dataclass
class HdfsDeployment:
    """A running HDFS instance: namenode + datanode daemons + driver."""

    namenode: Namenode
    backend: LocalDiskBackend
    client: StorageClient
    fs: ConductorFileSystem
    replication: int

    def write_file(
        self,
        path: str,
        size_mb: float,
        from_site: str,
        chunk_mb: float = 64.0,
        on_complete=None,
    ) -> None:
        """Create + upload a file with pipeline-replicated chunks."""
        if self.fs.chunk_mb != chunk_mb:
            self.fs.chunk_mb = chunk_mb
        inode = self.fs.create(path, size_mb)
        if not inode.chunks:
            if on_complete is not None:
                self.client.sim.schedule(0.0, on_complete)
            return
        rotation = itertools.cycle(range(max(1, len(self.backend.nodes))))
        queue = list(inode.chunks)

        # Chunks stream sequentially, as `hadoop fs -put` does: the next
        # block's pipeline starts when the previous one is acknowledged.
        def write_next() -> None:
            if not queue:
                if on_complete is not None:
                    on_complete()
                return
            block = self.namenode.block(queue.pop(0))
            self.pipeline_write(
                block, from_site, start_index=next(rotation),
                on_complete=write_next,
            )

        write_next()

    def pipeline_write(
        self,
        block: Block,
        from_site: str,
        start_index: int = 0,
        on_complete=None,
    ) -> None:
        """Pipeline a chunk through ``replication`` datanodes.

        All pipeline stages stream concurrently; the write completes when
        the last replica lands.  Stage flows contend on the NICs they
        share, which is what caps HDFS throughput at roughly
        NIC/(replication-1) in the Fig. 15 experiment.
        """
        nodes = self.backend.nodes
        if not nodes:
            raise RuntimeError("HDFS has no datanodes")
        chain = [nodes[(start_index + i) % len(nodes)] for i in range(self.replication)]
        chain = list(dict.fromkeys(chain))  # drop duplicates on tiny clusters
        sim = self.client.sim
        network = self.client.network
        pending = len(chain)

        def stage_done(node: str):
            def landed(_flow=None) -> None:
                nonlocal pending
                self.backend.put(node, block)
                self.namenode.add_location(
                    block.block_id, LocationRecord(self.backend.name, node)
                )
                pending -= 1
                if pending == 0:
                    self.client.stats.writes += 1
                    self.client.stats.written_mb += block.size_mb
                    if on_complete is not None:
                        on_complete()
            return landed

        def start_pipeline() -> None:
            previous = from_site
            for node in chain:
                network.start_flow(previous, node, block.size_mb, stage_done(node))
                previous = node

        sim.schedule(self.backend.per_chunk_overhead_s, start_pipeline)


def build_hdfs(
    sim: Simulation,
    network: FluidNetwork,
    datanode_sites: list[str],
    replication: int = 3,
    chunk_mb: float = 64.0,
    backend_name: str = "hdfs",
) -> HdfsDeployment:
    """Stand up an HDFS deployment over the given sites."""
    namenode = Namenode()
    backend = LocalDiskBackend(backend_name, per_chunk_overhead_s=HDFS_CHUNK_OVERHEAD_S)
    for site in datanode_sites:
        backend.add_node(site)
    client = StorageClient(sim, network, namenode, {backend_name: backend})
    fs = ConductorFileSystem(namenode, client, chunk_mb=chunk_mb)
    return HdfsDeployment(
        namenode=namenode,
        backend=backend,
        client=client,
        fs=fs,
        replication=replication,
    )
