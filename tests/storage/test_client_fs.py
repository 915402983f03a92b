"""Integration tests for the storage client and filesystem."""

import pytest

from repro.sim import FluidNetwork, Simulation, Topology
from repro.storage import (
    Block,
    BlockId,
    ConductorFileSystem,
    FileSystemError,
    LocalDiskBackend,
    LocationRecord,
    Namenode,
    ObjectStoreBackend,
    StorageClient,
    StorageError,
)


@pytest.fixture
def world():
    sim = Simulation()
    topo = Topology()
    topo.add_link("uplink", 2.0)
    topo.add_link("s3-gw", 20.0)
    for n in ("n1", "n2", "n3"):
        topo.add_link(f"nic-{n}", 50.0)
    for n in ("n1", "n2", "n3"):
        topo.add_route("client", n, ["uplink", f"nic-{n}"])
        topo.add_route(n, "s3", [f"nic-{n}", "s3-gw"])
        for m in ("n1", "n2", "n3"):
            if n != m:
                topo.add_route(n, m, [f"nic-{n}", f"nic-{m}"], symmetric=False)
    topo.add_route("client", "s3", ["uplink", "s3-gw"])
    network = FluidNetwork(sim, topo)
    namenode = Namenode()
    disk = LocalDiskBackend("local-disk")
    s3 = ObjectStoreBackend("s3", per_chunk_overhead_s=0.0)
    for n in ("n1", "n2", "n3"):
        disk.add_node(n)
    client = StorageClient(sim, network, namenode, {"local-disk": disk, "s3": s3})
    fs = ConductorFileSystem(namenode, client, chunk_mb=64.0)
    return sim, namenode, disk, s3, client, fs


class TestClient:
    def test_write_registers_location(self, world):
        sim, namenode, disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        done = []
        client.write(block, "client", LocationRecord("local-disk", "n1"),
                     lambda b: done.append(b))
        sim.run_until_idle()
        assert done
        assert disk.contains("n1", block.block_id)
        assert namenode.locations(block.block_id) == [LocationRecord("local-disk", "n1")]

    def test_upload_timing_is_bandwidth_bound(self, world):
        sim, namenode, _disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        client.write(block, "client", LocationRecord("local-disk", "n1"))
        sim.run_until_idle()
        assert sim.now == pytest.approx(32.0, abs=0.5)  # 64 MB at 2 MB/s

    def test_read_prefers_local_replica(self, world):
        sim, namenode, disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        namenode.register(block)
        disk.put("n1", block)
        namenode.add_location(block.block_id, LocationRecord("local-disk", "n1"))
        before = client.stats.local_fast_path_hits
        client.read(block.block_id, "n1", lambda b: None)
        sim.run_until_idle()
        assert client.stats.local_fast_path_hits == before + 1

    def test_remote_read_caches_locally(self, world):
        sim, namenode, disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        namenode.register(block)
        disk.put("n1", block)
        namenode.add_location(block.block_id, LocationRecord("local-disk", "n1"))
        client.read(block.block_id, "n2", lambda b: None)
        sim.run_until_idle()
        assert disk.contains("n2", block.block_id)  # cached copy installed

    def test_read_of_lost_block_raises(self, world):
        _sim, namenode, _disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        namenode.register(block)
        with pytest.raises(StorageError):
            client.read(block.block_id, "n1", lambda b: None)

    def test_local_write_then_background_replication(self, world):
        sim, namenode, disk, _s3, client, _fs = world
        block = Block(BlockId("/f", 0), 64.0)
        acks = []
        client.write_local_then_replicate(
            block,
            "n1",
            LocationRecord("local-disk", "n1"),
            [LocationRecord("local-disk", "n2"), LocationRecord("local-disk", "n3")],
            on_local_complete=lambda b: acks.append(sim.now),
        )
        sim.run_until_idle()
        # Local ack fires before the replicas finish.
        assert acks and acks[0] < sim.now
        assert namenode.replication_of(block.block_id) == 3


class TestFileSystem:
    def test_chunking(self, world):
        *_rest, fs = world
        inode = fs.create("/data", 200.0)
        assert len(inode.chunks) == 4  # 64+64+64+8
        sizes = [fs.namenode.block(b).size_mb for b in inode.chunks]
        assert sizes == pytest.approx([64.0, 64.0, 64.0, 8.0])

    def test_duplicate_create_rejected(self, world):
        *_rest, fs = world
        fs.create("/data", 10.0)
        with pytest.raises(FileSystemError):
            fs.create("/data", 10.0)

    def test_upload_and_locations(self, world):
        sim, namenode, _disk, _s3, _client, fs = world
        fs.create("/data", 128.0)
        fs.upload("/data", "client", lambda i: LocationRecord("local-disk", f"n{i % 3 + 1}"))
        sim.run_until_idle()
        locations = fs.chunk_locations("/data")
        assert all(records for records in locations.values())

    def test_delete_removes_replicas(self, world):
        sim, namenode, disk, _s3, _client, fs = world
        fs.create("/data", 64.0)
        fs.upload("/data", "client", lambda i: LocationRecord("local-disk", "n1"))
        sim.run_until_idle()
        fs.delete("/data")
        assert disk.stored_mb() == 0.0
        assert not fs.exists("/data")

    def test_zero_size_file(self, world):
        sim, *_rest, fs = world
        fs.create("/empty", 0.0)
        done = []
        fs.upload("/empty", "client", lambda i: LocationRecord("s3"),
                  on_complete=lambda: done.append(True))
        sim.run_until_idle()
        assert done == [True]
