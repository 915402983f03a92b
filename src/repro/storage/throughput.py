"""Storage-layer throughput experiment (paper Section 6.6, Fig. 15).

The paper copies 32 GB of 64 MB files from an EBS volume on a large EC2
instance into four storage configurations and measures throughput:

- **HDFS** (replication 3): fastest, ~21 MB/s — years of optimization;
- **Conductor's storage** (replication 3): ~25% slower — the namenode
  round-trip and key-value protocol cost per chunk;
- **S3 via s3cmd**: comparable to Conductor (~15 MB/s);
- **S3 via Hadoop**: far slower (~7 MB/s) — the 2011 Hadoop S3 client
  forced SSL transfer.

The simulation reproduces the mechanism, not magic numbers: the EBS
source read rate, per-connection S3 limits (plain vs SSL) and per-chunk
protocol overheads are the measured 2011 characteristics; throughput
emerges from the fluid network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapreduce.hdfs import CONDUCTOR_CHUNK_OVERHEAD_S, build_hdfs
from ..sim import FluidNetwork, Simulation, Topology
from ..units import MB_PER_GB
from .backends import LocalDiskBackend, ObjectStoreBackend
from .blocks import LocationRecord
from .client import StorageClient
from .filesystem import ConductorFileSystem
from .namenode import Namenode

#: 2011-era component characteristics (MB/s).
EBS_READ_MB_S = 25.0
NODE_NIC_MB_S = 50.0
NODE_DISK_MB_S = 60.0
S3_PLAIN_CONNECTION_MB_S = 16.0
S3_SSL_CONNECTION_MB_S = 7.0
S3_HADOOP_CHUNK_OVERHEAD_S = 0.6  # HTTPS handshake per object
S3CMD_CHUNK_OVERHEAD_S = 0.25


@dataclass
class ThroughputResult:
    """One bar of Fig. 15."""

    option: str
    copied_gb: float
    elapsed_s: float

    @property
    def throughput_mb_s(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.copied_gb * MB_PER_GB / self.elapsed_s


def _base_topology(num_nodes: int) -> Topology:
    """Source node with an EBS volume, N datanodes, an S3 gateway."""
    topo = Topology()
    topo.add_link("ebs", EBS_READ_MB_S)
    topo.add_link("s3-plain", S3_PLAIN_CONNECTION_MB_S)
    topo.add_link("s3-ssl", S3_SSL_CONNECTION_MB_S)
    for i in range(num_nodes):
        topo.add_link(f"nic-{i}", NODE_NIC_MB_S)
        topo.add_link(f"disk-{i}", NODE_DISK_MB_S)
    for i in range(num_nodes):
        topo.add_route("source", f"node-{i}", ["ebs", f"nic-{i}", f"disk-{i}"], symmetric=False)
        topo.add_route(f"node-{i}", "source", [f"nic-{i}"], symmetric=False)
        for j in range(num_nodes):
            if i != j:
                topo.add_route(
                    f"node-{i}", f"node-{j}",
                    [f"nic-{i}", f"nic-{j}", f"disk-{j}"], symmetric=False,
                )
    topo.add_route("source", "s3", ["ebs", "s3-plain"], symmetric=False)
    topo.add_route("source", "s3-ssl-endpoint", ["ebs", "s3-ssl"], symmetric=False)
    return topo


def measure_hdfs(total_gb: float = 32.0, chunk_mb: float = 64.0, nodes: int = 4) -> ThroughputResult:
    """Copy into HDFS with pipeline replication 3."""
    sim = Simulation()
    topo = _base_topology(nodes)
    network = FluidNetwork(sim, topo)
    hdfs = build_hdfs(
        sim, network, [f"node-{i}" for i in range(nodes)],
        replication=3, chunk_mb=chunk_mb,
    )
    done = []
    hdfs.write_file(
        "/bench/data", total_gb * MB_PER_GB, "source", chunk_mb=chunk_mb,
        on_complete=lambda: done.append(sim.now),
    )
    sim.run_until_idle()
    return ThroughputResult("HDFS", total_gb, done[0])


def measure_conductor(total_gb: float = 32.0, chunk_mb: float = 64.0, nodes: int = 4) -> ThroughputResult:
    """Copy into Conductor's storage: local-write + background replication
    to factor 3, with the namenode round-trip per chunk."""
    sim = Simulation()
    topo = _base_topology(nodes)
    network = FluidNetwork(sim, topo)
    namenode = Namenode()
    backend = LocalDiskBackend(
        "local-disk", per_chunk_overhead_s=CONDUCTOR_CHUNK_OVERHEAD_S
    )
    for i in range(nodes):
        backend.add_node(f"node-{i}")
    client = StorageClient(sim, network, namenode, {"local-disk": backend})
    fs = ConductorFileSystem(namenode, client, chunk_mb=chunk_mb)
    inode = fs.create("/bench/data", total_gb * MB_PER_GB)

    done = []
    queue = list(enumerate(inode.chunks))

    # Sequential copy, like the HDFS baseline: the writer acks each chunk
    # before sending the next; replication continues in the background.
    def write_next(_block=None) -> None:
        if not queue:
            done.append(sim.now)
            return
        index, block_id = queue.pop(0)
        block = namenode.block(block_id)
        primary = LocationRecord("local-disk", f"node-{index % nodes}")
        replicas = [
            LocationRecord("local-disk", f"node-{(index + k) % nodes}")
            for k in (1, 2)
        ]
        client.write_local_then_replicate(
            block, "source", primary, replicas, on_local_complete=write_next
        )

    write_next()
    sim.run_until_idle()
    # Throughput is measured at write-acknowledgement (all primaries in);
    # replication finishes in the background, but the copy command has
    # returned — the same thing `time` measures for the real system.
    return ThroughputResult("Conductor", total_gb, done[0])


def measure_s3(
    total_gb: float = 32.0,
    chunk_mb: float = 64.0,
    via_ssl: bool = False,
    label: str | None = None,
) -> ThroughputResult:
    """Copy to S3 over one connection: plain (s3cmd) or SSL (Hadoop)."""
    sim = Simulation()
    topo = _base_topology(1)
    network = FluidNetwork(sim, topo)
    namenode = Namenode()
    overhead = S3_HADOOP_CHUNK_OVERHEAD_S if via_ssl else S3CMD_CHUNK_OVERHEAD_S
    backend = ObjectStoreBackend(
        "s3-ssl-endpoint" if via_ssl else "s3", per_chunk_overhead_s=overhead
    )
    client = StorageClient(sim, network, namenode, {backend.name: backend})
    fs = ConductorFileSystem(namenode, client, chunk_mb=chunk_mb)
    inode = fs.create("/bench/data", total_gb * MB_PER_GB)
    done = []
    # s3 uploads are sequential per connection: chain the chunk writes.
    chunks = list(inode.chunks)

    def write_next() -> None:
        if not chunks:
            done.append(sim.now)
            return
        block = namenode.block(chunks.pop(0))
        client.write(
            block, "source", LocationRecord(backend.name), lambda _b: write_next()
        )

    write_next()
    sim.run_until_idle()
    name = label or ("S3 (Hadoop)" if via_ssl else "S3 (s3cmd)")
    return ThroughputResult(name, total_gb, done[0])


def run_storage_throughput_experiment(
    total_gb: float = 32.0, chunk_mb: float = 64.0
) -> list[ThroughputResult]:
    """All four Fig. 15 bars, in the paper's order."""
    return [
        measure_conductor(total_gb, chunk_mb),
        measure_hdfs(total_gb, chunk_mb),
        measure_s3(total_gb, chunk_mb, via_ssl=True),
        measure_s3(total_gb, chunk_mb, via_ssl=False),
    ]
