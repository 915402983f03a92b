"""Tests for the MapReduce engine, schedulers, cluster and HDFS."""

import pytest

from repro.cloud import ec2_m1_large, local_cluster
from repro.mapreduce import (
    CLIENT_SITE,
    Cluster,
    HadoopScheduler,
    LocationAwareScheduler,
    MapReduceEngine,
    MapReduceJob,
    TaskState,
    build_hdfs,
    build_topology,
    wire_node,
)
from repro.sim import FluidNetwork, Simulation
from repro.storage import (
    ConductorFileSystem,
    LocalDiskBackend,
    LocationRecord,
    Namenode,
    ObjectStoreBackend,
    StorageClient,
)


def make_world(uplink_mb_s=2.0):
    sim = Simulation()
    topo = build_topology(uplink_mb_s=uplink_mb_s)
    network = FluidNetwork(sim, topo)
    cluster = Cluster(sim, boot_seconds=0.0)
    disk = LocalDiskBackend("local-disk")
    s3 = ObjectStoreBackend("s3", per_chunk_overhead_s=0.0)
    namenode = Namenode()
    client = StorageClient(sim, network, namenode, {"local-disk": disk, "s3": s3})
    fs = ConductorFileSystem(namenode, client, chunk_mb=64.0)
    cluster.on_node_up(lambda node: disk.add_node(node.site))

    def add_nodes(count, service=None):
        nodes = cluster.allocate(service or ec2_m1_large(), count)
        for node in nodes:
            wire_node(topo, node.site)
            disk.add_node(node.site)
        return nodes

    return sim, cluster, namenode, disk, s3, client, fs, add_nodes


def small_job(input_mb=512.0, **kwargs):
    kwargs.setdefault("setup_seconds", 0.0)
    return MapReduceJob(
        name="job", input_path="/in", input_mb=input_mb, split_mb=64.0, **kwargs
    )


class TestJobGeometry:
    def test_task_counts(self):
        job = small_job(input_mb=200.0)
        assert job.num_map_tasks == 4
        from repro.storage.blocks import BlockId

        tasks = job.make_map_tasks([BlockId("/in", i) for i in range(4)])
        assert [t.input_mb for t in tasks] == pytest.approx([64, 64, 64, 8])

    def test_reduce_tasks_split_output(self):
        job = small_job(map_output_ratio=0.1, num_reducers=4)
        tasks = job.make_reduce_tasks()
        assert len(tasks) == 4
        assert sum(t.input_mb for t in tasks) == pytest.approx(job.map_output_mb)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            MapReduceJob(name="x", input_path="/", input_mb=0)


class TestEngineExecution:
    def run_job(self, nodes=4, input_mb=512.0, straggle=1.0, **job_kwargs):
        sim, cluster, namenode, disk, s3, client, fs, add_nodes = make_world()
        job = small_job(input_mb=input_mb, **job_kwargs)
        inode = fs.create("/in", input_mb)
        node_objs = add_nodes(nodes)
        sim.run_until_idle()
        # Pre-place chunks locally, round-robin.
        for i, block_id in enumerate(inode.chunks):
            site = node_objs[i % nodes].site
            disk.put(site, namenode.block(block_id))
            namenode.add_location(block_id, LocationRecord("local-disk", site))
        scheduler = HadoopScheduler(namenode)
        engine = MapReduceEngine(
            sim, cluster, client, scheduler, job, straggler_spread=straggle
        )
        engine.start(inode.chunks)
        sim.run_until_idle()
        return engine, sim

    def test_completes_all_tasks(self):
        engine, _sim = self.run_job()
        assert engine.is_complete
        tasks = engine.map_tasks + engine.reduce_tasks
        assert all(t.state is TaskState.COMPLETED for t in tasks)

    def test_local_compute_time_matches_slot_rate(self):
        # 8 tasks on 4 nodes x 2 slots: one wave of 64 MB at 0.22 GB/h
        # per slot = 1022 s (all input is node-local).
        engine, sim = self.run_job(nodes=4, input_mb=512.0)
        assert engine.completion_s == pytest.approx(1023, rel=0.05)

    def test_task_series_monotone(self):
        engine, _sim = self.run_job()
        counts = [c for _t, c in engine.task_series]
        assert counts == sorted(counts)
        assert counts[-1] == len(engine.map_tasks) + len(engine.reduce_tasks)

    def test_map_only_job(self):
        engine, _sim = self.run_job(map_output_ratio=0.0)
        assert engine.is_complete
        assert engine.reduce_tasks == []

    def test_reduce_runs_after_all_maps(self):
        engine, _sim = self.run_job(map_output_ratio=0.1, num_reducers=2)
        first_reduce_start = min(t.started_at for t in engine.reduce_tasks)
        last_map_end = max(t.completed_at for t in engine.map_tasks)
        assert first_reduce_start >= last_map_end - 1e-9

    def test_stragglers_slow_completion(self):
        fast, _ = self.run_job(straggle=1.0)
        slow, _ = self.run_job(straggle=1.5)
        assert slow.completion_s > fast.completion_s

    def test_result_chunks_registered(self):
        engine, _sim = self.run_job(map_output_ratio=0.1, num_reducers=2)
        assert len(engine.result_chunks) == 2


class TestSchedulers:
    def test_hadoop_prefers_local(self):
        sim, cluster, namenode, disk, s3, client, fs, add_nodes = make_world()
        inode = fs.create("/in", 128.0)
        nodes = add_nodes(2)
        sim.run_until_idle()
        disk.put(nodes[0].site, namenode.block(inode.chunks[0]))
        namenode.add_location(inode.chunks[0], LocationRecord("local-disk", nodes[0].site))
        disk.put(nodes[1].site, namenode.block(inode.chunks[1]))
        namenode.add_location(inode.chunks[1], LocationRecord("local-disk", nodes[1].site))
        scheduler = HadoopScheduler(namenode)
        job = small_job(input_mb=128.0)
        scheduler.add_tasks(job.make_map_tasks(inode.chunks))
        scheduler.refresh()
        picked = scheduler.next_task(nodes[1])
        assert picked is not None and picked.block == inode.chunks[1]

    def test_location_aware_gates_on_plan(self):
        sim, cluster, namenode, disk, s3, client, fs, add_nodes = make_world()
        inode = fs.create("/in", 64.0)
        nodes = add_nodes(1)
        sim.run_until_idle()
        s3.put("", namenode.block(inode.chunks[0]))
        namenode.add_location(inode.chunks[0], LocationRecord("s3"))
        scheduler = LocationAwareScheduler(namenode)
        job = small_job(input_mb=64.0)
        scheduler.add_tasks(job.make_map_tasks(inode.chunks))
        scheduler.refresh()
        # Data is on S3 but the plan has not opened (ec2, s3): not runnable.
        assert scheduler.next_task(nodes[0]) is None
        scheduler.allow(nodes[0].service.name, "s3")
        assert scheduler.next_task(nodes[0]) is not None

    def location_aware_pair(self):
        """A chunk on a cloud node's disk, a cloud node and an own node."""
        sim, cluster, namenode, disk, s3, client, fs, add_nodes = make_world()
        inode = fs.create("/in", 64.0)
        cloud = add_nodes(1)[0]
        own = add_nodes(1, service=local_cluster(1))[0]
        sim.run_until_idle()
        scheduler = LocationAwareScheduler(namenode)
        scheduler.add_tasks(small_job(input_mb=64.0).make_map_tasks(inode.chunks))
        block = namenode.block(inode.chunks[0])

        def land():
            disk.put(cloud.site, block)
            namenode.add_location(block.block_id, LocationRecord("local-disk", cloud.site))
            scheduler.refresh()

        return scheduler, cloud, own, land

    def test_location_aware_queues_a_task_for_every_allowed_service(self):
        scheduler, cloud, own, land = self.location_aware_pair()
        scheduler.allow(cloud.service.name, "local-disk")
        scheduler.allow(own.service.name, "local-disk")
        land()
        assert scheduler.next_task(own) is not None
        assert scheduler.next_task(cloud) is not None

    def test_location_aware_queues_runnable_tasks_for_a_newly_allowed_service(self):
        scheduler, cloud, own, land = self.location_aware_pair()
        scheduler.allow(cloud.service.name, "local-disk")
        land()
        assert scheduler.next_task(own) is None
        scheduler.allow(own.service.name, "local-disk")
        assert scheduler.next_task(own) is not None


class TestCluster:
    def test_boot_delay(self):
        sim = Simulation()
        cluster = Cluster(sim, boot_seconds=90.0)
        nodes = cluster.allocate(ec2_m1_large(), 2)
        assert not nodes[0].is_up
        sim.run_until_idle()
        assert all(n.is_up for n in nodes)
        assert sim.now == pytest.approx(90.0)

    def test_local_nodes_boot_instantly(self):
        sim = Simulation()
        cluster = Cluster(sim, boot_seconds=90.0)
        cluster.allocate(local_cluster(5), 1)
        sim.run_until_idle()
        assert sim.now == pytest.approx(0.0)

    def test_release_bills_rounded_hours(self):
        sim = Simulation()
        cluster = Cluster(sim, boot_seconds=0.0)
        node = cluster.allocate(ec2_m1_large(), 1)[0]
        sim.run_until_idle()
        sim.schedule(1.5 * 3600, lambda: cluster.release(node))
        sim.run_until_idle()
        entry = next(iter(cluster.ledger))
        assert entry.quantity == pytest.approx(2.0)  # 1.5 h -> 2 billed
        assert entry.amount == pytest.approx(0.68)

    def test_double_release_bills_once(self):
        sim = Simulation()
        cluster = Cluster(sim, boot_seconds=0.0)
        node = cluster.allocate(ec2_m1_large(), 1)[0]
        sim.schedule(3600.0, lambda: None)  # advance the clock one hour
        sim.run_until_idle()
        cluster.release(node)
        cluster.release(node)
        assert len(cluster.ledger) == 1

    def test_routes_between_local_and_cloud_nodes_cross_the_wan(self):
        """A cloud node reading a local node's disk shares ``wan-up`` with
        the uploads, and a local node reading a cloud disk takes
        ``wan-down``; nodes on one side of the WAN never touch it."""
        topo = build_topology()
        for site, local in (("own-0", True), ("ec2-0", False),
                            ("own-1", True), ("ec2-1", False)):
            wire_node(topo, site, local=local)

        def links(src, dst):
            return [link.name for link in topo.route(src, dst)]

        for own in ("own-0", "own-1"):
            for cloud in ("ec2-0", "ec2-1"):
                assert links(own, cloud) == [
                    f"nic-{own}", "wan-up", f"nic-{cloud}", f"disk-{cloud}"
                ]
                assert links(cloud, own) == [
                    f"nic-{cloud}", "wan-down", f"nic-{own}", f"disk-{own}"
                ]
        assert links("own-0", "own-1") == ["nic-own-0", "nic-own-1", "disk-own-1"]
        assert links("ec2-1", "ec2-0") == ["nic-ec2-1", "nic-ec2-0", "disk-ec2-0"]


class TestHdfs:
    def test_pipeline_write_replicates(self):
        sim = Simulation()
        topo = build_topology()
        for i in range(3):
            wire_node(topo, f"dn{i}")
        network = FluidNetwork(sim, topo)
        hdfs = build_hdfs(sim, network, [f"dn{i}" for i in range(3)], replication=3)
        done = []
        hdfs.write_file("/f", 128.0, CLIENT_SITE, on_complete=lambda: done.append(1))
        sim.run_until_idle()
        assert done
        for block_id in hdfs.fs.inode("/f").chunks:
            assert hdfs.namenode.replication_of(block_id) == 3

    def test_no_datanodes_rejected(self):
        sim = Simulation()
        topo = build_topology()
        network = FluidNetwork(sim, topo)
        hdfs = build_hdfs(sim, network, [], replication=3)
        from repro.storage.blocks import Block, BlockId

        with pytest.raises(RuntimeError):
            hdfs.pipeline_write(Block(BlockId("/x", 0), 64.0), CLIENT_SITE)
