"""Deployment strategies: the paper's baselines and Conductor itself.

Section 6.2 compares four ways to run the same MapReduce job on AWS, all
taken from Hadoop/AWS documentation:

- **Hadoop S3** — upload input to S3, then a large EC2 cluster processes
  directly from S3;
- **Hadoop upload first** — upload into HDFS on a single EC2 instance,
  then start more instances to process;
- **Hadoop direct** — HDFS stays on the client side; EC2 instances
  stream input over the customer's WAN link;
- **Conductor** — the LP plan decides node counts, placement and timing,
  deployed through the location-aware scheduler.

Each strategy runs on the same discrete-event substrate (cluster, storage
layer, fluid network) and produces a ledger + runtime breakdown that the
Fig. 5/6/7/10/11 benches print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cloud.catalog import ec2_m1_large, s3
from ..cloud.services import ServiceDescription
from ..mapreduce.cluster import CLIENT_SITE, Cluster, SimNode, build_topology, wire_node
from ..mapreduce.engine import MapReduceEngine
from ..mapreduce.hdfs import CONDUCTOR_CHUNK_OVERHEAD_S, build_hdfs
from ..mapreduce.job import MapReduceJob
from ..mapreduce.scheduler import HadoopScheduler, LocationAwareScheduler
from ..sim import FluidNetwork, Simulation
from ..storage.backends import LocalDiskBackend, ObjectStoreBackend
from ..storage.blocks import LocationRecord
from ..storage.client import StorageClient
from ..storage.filesystem import ConductorFileSystem
from ..storage.namenode import Namenode
from ..units import MB_PER_GB, mbit_s_to_mb_s, seconds_to_hours
from ..accounting import CostCategory, CostLedger
from .plan import ExecutionPlan
from .planner import Planner
from .problem import Goal, NetworkConditions, PlannerJob

_INPUT_PATH = "/input/data"


@dataclass
class DeploymentScenario:
    """Shared configuration for one Section-6 experiment."""

    input_gb: float = 32.0
    split_mb: float = 64.0
    map_output_ratio: float = 0.002
    reduce_output_ratio: float = 1.0
    num_reducers: int = 4
    uplink_mbit_s: float = 16.0
    deadline_hours: float = 6.0
    throughput_gb_per_hour: float = 0.44
    boot_seconds: float = 90.0
    setup_seconds: float = 60.0
    slots_per_node: int = 2
    #: Per-task duration jitter (uniform [1, spread]): the task-variance
    #: Hadoop shows on virtualized hardware (Section 2.1, [20]).
    straggler_spread: float = 1.1
    #: Job-submission overhead per input split when the input lives on
    #: S3: the 2011 Hadoop S3 filesystem listed/HEADed every object over
    #: SSL at submit time — minutes for hundreds of splits.  This is the
    #: overhead that pushes the Hadoop-S3 run "little more than one hour"
    #: past the billing boundary (Section 6.2).
    s3_scan_s_per_chunk: float = 3.0
    #: Conductor plans with this fraction of the measured throughput,
    #: reserving headroom for boot delays, task waves and stragglers the
    #: fluid model cannot see.
    planning_margin: float = 0.95
    #: Optional deployment-safety overrides: plan against a shaved
    #: deadline and/or finer intervals so the realized task tail still
    #: lands inside the real deadline.  ``None`` = use the deadline as-is
    #: at 1-hour granularity.
    planning_deadline_hours: float | None = None
    planning_interval_hours: float = 1.0
    #: Plan with one fixed node count per service (the paper's hybrid
    #: style); more robust to deploy, slightly more expensive.
    constant_node_plan: bool = False
    ec2: ServiceDescription = field(default_factory=ec2_m1_large)
    s3: ServiceDescription = field(default_factory=s3)
    local: ServiceDescription | None = None
    local_nodes: int = 0

    def __post_init__(self) -> None:
        self.ec2 = self.ec2.replace(
            throughput_gb_per_hour=self.throughput_gb_per_hour
        )

    @property
    def input_mb(self) -> float:
        return self.input_gb * MB_PER_GB

    @property
    def uplink_mb_s(self) -> float:
        return mbit_s_to_mb_s(self.uplink_mbit_s)

    def make_job(self, name: str) -> MapReduceJob:
        return MapReduceJob(
            name=name,
            input_path=_INPUT_PATH,
            input_mb=self.input_mb,
            split_mb=self.split_mb,
            map_output_ratio=self.map_output_ratio,
            reduce_output_ratio=self.reduce_output_ratio,
            num_reducers=self.num_reducers,
            setup_seconds=self.setup_seconds,
        )

    def planner_job(self, name: str) -> PlannerJob:
        return PlannerJob(
            name=name,
            input_gb=self.input_gb,
            map_output_ratio=self.map_output_ratio,
            reduce_output_ratio=self.reduce_output_ratio,
        )

    def network_conditions(self) -> NetworkConditions:
        return NetworkConditions.from_mbit_s(self.uplink_mbit_s)


@dataclass
class DeploymentResult:
    """Measured outcome of one deployment strategy run."""

    name: str
    ledger: CostLedger
    runtime_s: float
    upload_s: float | None
    process_s: float | None
    streamed: bool
    deadline_hours: float
    task_series: list[tuple[float, int]] = field(default_factory=list)
    plan: ExecutionPlan | None = None

    @property
    def total_cost(self) -> float:
        return self.ledger.total()

    @property
    def deadline_met(self) -> bool:
        return self.runtime_s <= self.deadline_hours * 3600.0 + 1e-6

    def cost_breakdown(self) -> dict[str, float]:
        return self.ledger.figure5_breakdown()


class _Substrate:
    """Common simulation scaffolding for all strategies."""

    def __init__(self, scenario: DeploymentScenario) -> None:
        from ..sim import FluidNetwork

        self.scenario = scenario
        self.sim = Simulation()
        self.topology = build_topology(uplink_mb_s=scenario.uplink_mb_s)
        self.network = FluidNetwork(self.sim, self.topology)
        self.ledger = CostLedger()
        self.cluster = Cluster(self.sim, self.ledger, boot_seconds=scenario.boot_seconds)
        self.disk = LocalDiskBackend(
            "local-disk", per_chunk_overhead_s=CONDUCTOR_CHUNK_OVERHEAD_S
        )
        self.s3 = ObjectStoreBackend("s3", per_chunk_overhead_s=0.2)
        self.namenode = Namenode()
        self.client = StorageClient(
            self.sim,
            self.network,
            self.namenode,
            {"local-disk": self.disk, "s3": self.s3},
        )
        self.fs = ConductorFileSystem(self.namenode, self.client, chunk_mb=scenario.split_mb)
        self.cluster.on_node_up(self._wire_storage)
        self._s3_meter_stop: float | None = None
        self._meter_scheduled = False

    def _wire_storage(self, node: SimNode) -> None:
        self.disk.add_node(node.site)

    def allocate_nodes(self, service: ServiceDescription, count: int) -> list[SimNode]:
        local = service.price_per_node_hour == 0
        nodes = self.cluster.allocate(
            service, count, slots=self.scenario.slots_per_node
        )
        for node in nodes:
            wire_node(self.topology, node.site, local=local)
            # The storage daemon is reachable as soon as the lease starts:
            # uploads may target a booting node (they arrive after boot).
            self.disk.add_node(node.site)
        return nodes

    # -- billing helpers ---------------------------------------------------------

    def start_s3_storage_meter(self) -> None:
        """Attach an exact GB-hour gauge to the S3 backend.

        The gauge integrates occupancy over time, event-driven: it
        observes before every put/delete and once more at finalize, so no
        periodic sampling events are needed (periodic events would keep
        the simulation from ever going idle).
        """
        if self._meter_scheduled:
            return
        self._meter_scheduled = True
        self._gauge_last_t = self.sim.now
        self._gauge_level_mb = self.s3.stored_mb()
        self._gauge_gb_hours = 0.0

        def observe() -> None:
            now = self.sim.now
            self._gauge_gb_hours += (
                seconds_to_hours(now - self._gauge_last_t)
                * self._gauge_level_mb
                / MB_PER_GB
            )
            self._gauge_last_t = now
            self._gauge_level_mb = self.s3.stored_mb()

        self._gauge_observe = observe
        self.s3.observers.append(observe)

    def stop_s3_storage_meter(self) -> None:
        """Finalize the gauge and charge the accumulated GB-hours."""
        if not self._meter_scheduled:
            return
        self._gauge_observe()
        service = self.scenario.s3
        if self._gauge_gb_hours > 1e-9:
            self.ledger.add(
                0.0,
                service.name,
                CostCategory.STORAGE,
                "GB-hours",
                self._gauge_gb_hours,
                "GB-h",
                service.cost_tstore_gb_hour,
            )

    def charge_s3_requests(self, put_gb: float = 0.0, get_gb: float = 0.0) -> None:
        service = self.scenario.s3
        hour = seconds_to_hours(self.sim.now)
        if put_gb > 1e-9:
            self.ledger.add(
                hour, service.name, CostCategory.REQUESTS, "put requests",
                put_gb, "GB", service.put_cost_per_gb(),
            )
        if get_gb > 1e-9:
            self.ledger.add(
                hour, service.name, CostCategory.REQUESTS, "get requests",
                get_gb, "GB", service.get_cost_per_gb(),
            )

    def charge_download(self, gb: float, service: ServiceDescription) -> None:
        if gb > 1e-9 and service.transfer_out_cost_gb > 0:
            self.ledger.add(
                seconds_to_hours(self.sim.now), service.name, CostCategory.TRANSFER,
                "result download", gb, "GB", service.transfer_out_cost_gb,
            )

    def download_results(self, engine: MapReduceEngine) -> None:
        """Pull result chunks back to the client over the WAN."""
        for block_id in engine.result_chunks:
            self.client.read(block_id, CLIENT_SITE, lambda _b: None)
        result_gb = engine.job.result_mb / MB_PER_GB
        self.charge_download(result_gb, self.scenario.ec2)
        self.sim.run_until_idle()


# --------------------------------------------------------------------------- #
# Baseline strategies                                                          #
# --------------------------------------------------------------------------- #


def run_hadoop_s3(scenario: DeploymentScenario, nodes: int = 100) -> DeploymentResult:
    """Upload to S3, then process from S3 on a large EC2 cluster."""
    sub = _Substrate(scenario)
    sim = sub.sim
    job = scenario.make_job("hadoop-s3")
    inode = sub.fs.create(_INPUT_PATH, scenario.input_mb)
    sub.start_s3_storage_meter()

    upload_done: list[float] = []
    sub.fs.upload(
        _INPUT_PATH,
        CLIENT_SITE,
        lambda i: LocationRecord("s3"),
        on_complete=lambda: upload_done.append(sim.now),
    )
    sim.run_until_idle()
    upload_s = upload_done[0]
    sub.charge_s3_requests(put_gb=scenario.input_gb)

    sub.allocate_nodes(scenario.ec2, nodes)
    scheduler = HadoopScheduler(sub.namenode)
    # Job submission on S3 input: the splits scan dominates setup.
    job.setup_seconds += scenario.s3_scan_s_per_chunk * job.num_map_tasks
    engine = MapReduceEngine(
        sim, sub.cluster, sub.client, scheduler, job,
        throughput_scale=1.0, output_backend="local-disk",
        straggler_spread=scenario.straggler_spread,
    )
    process_start = sim.now
    engine.start(inode.chunks)
    sim.run_until_idle()
    sub.charge_s3_requests(get_gb=scenario.input_gb)
    sub.download_results(engine)
    sub.stop_s3_storage_meter()
    sub.cluster.release_all()
    return DeploymentResult(
        name="Hadoop S3",
        ledger=sub.ledger,
        runtime_s=sim.now,
        upload_s=upload_s,
        process_s=engine.completion_s - process_start if engine.completion_s else None,
        streamed=False,
        deadline_hours=scenario.deadline_hours,
        task_series=engine.task_series,
    )


def run_hadoop_upload_first(
    scenario: DeploymentScenario, nodes: int = 100
) -> DeploymentResult:
    """Upload into single-instance HDFS on EC2, then scale out and process."""
    sub = _Substrate(scenario)
    sim = sub.sim
    job = scenario.make_job("hadoop-upload-first")

    first = sub.allocate_nodes(scenario.ec2, 1)[0]
    sim.run_until_idle()  # let it boot
    hdfs = build_hdfs(sim, sub.network, [first.site], replication=1,
                      chunk_mb=scenario.split_mb)
    upload_done: list[float] = []
    hdfs.write_file(
        _INPUT_PATH, scenario.input_mb, CLIENT_SITE, chunk_mb=scenario.split_mb,
        on_complete=lambda: upload_done.append(sim.now),
    )
    sim.run_until_idle()
    upload_s = upload_done[0]

    sub.allocate_nodes(scenario.ec2, nodes - 1)
    # Processing reads from HDFS: merge its backend into the engine client.
    client = StorageClient(
        sim, sub.network, hdfs.namenode,
        {"hdfs": hdfs.backend, "local-disk": sub.disk},
    )
    scheduler = HadoopScheduler(hdfs.namenode)
    engine = MapReduceEngine(
        sim, sub.cluster, client, scheduler, job, output_backend="local-disk",
        straggler_spread=scenario.straggler_spread,
    )
    process_start = sim.now
    engine.start(hdfs.fs.inode(_INPUT_PATH).chunks)
    sim.run_until_idle()
    for block_id in engine.result_chunks:
        client.read(block_id, CLIENT_SITE, lambda _b: None)
    sub.charge_download(job.result_mb / MB_PER_GB, scenario.ec2)
    sim.run_until_idle()
    sub.cluster.release_all()
    return DeploymentResult(
        name="Hadoop upload first",
        ledger=sub.ledger,
        runtime_s=sim.now,
        upload_s=upload_s,
        process_s=engine.completion_s - process_start if engine.completion_s else None,
        streamed=False,
        deadline_hours=scenario.deadline_hours,
        task_series=engine.task_series,
    )


def run_hadoop_direct(scenario: DeploymentScenario, nodes: int = 16) -> DeploymentResult:
    """HDFS on the client side; EC2 instances stream input over the WAN."""
    sub = _Substrate(scenario)
    sim = sub.sim
    job = scenario.make_job("hadoop-direct")

    hdfs = build_hdfs(sim, sub.network, [CLIENT_SITE], replication=1,
                      chunk_mb=scenario.split_mb)
    # Client-side HDFS: populating it is a local copy, effectively free.
    inode = hdfs.fs.create(_INPUT_PATH, scenario.input_mb)
    for block_id in inode.chunks:
        hdfs.backend.put(CLIENT_SITE, hdfs.namenode.block(block_id))
        hdfs.namenode.add_location(block_id, LocationRecord("hdfs", CLIENT_SITE))

    sub.allocate_nodes(scenario.ec2, nodes)
    if scenario.local is not None and scenario.local_nodes > 0:
        # Hybrid scenario: the customer's own cluster joins the Hadoop
        # cluster alongside the rented instances (Section 6.3).
        sub.allocate_nodes(scenario.local, scenario.local_nodes)
    client = StorageClient(
        sim, sub.network, hdfs.namenode,
        {"hdfs": hdfs.backend, "local-disk": sub.disk},
    )
    scheduler = HadoopScheduler(hdfs.namenode)
    engine = MapReduceEngine(
        sim, sub.cluster, client, scheduler, job, output_backend="local-disk",
        straggler_spread=scenario.straggler_spread,
    )
    engine.start(inode.chunks)
    sim.run_until_idle()
    for block_id in engine.result_chunks:
        client.read(block_id, CLIENT_SITE, lambda _b: None)
    sub.charge_download(job.result_mb / MB_PER_GB, scenario.ec2)
    sim.run_until_idle()
    sub.cluster.release_all()
    return DeploymentResult(
        name="Hadoop direct",
        ledger=sub.ledger,
        runtime_s=sim.now,
        upload_s=None,
        process_s=None,
        streamed=True,
        deadline_hours=scenario.deadline_hours,
        task_series=engine.task_series,
    )


# --------------------------------------------------------------------------- #
# Conductor                                                                    #
# --------------------------------------------------------------------------- #


def run_conductor(
    scenario: DeploymentScenario,
    plan: ExecutionPlan | None = None,
    planner: Planner | None = None,
) -> DeploymentResult:
    """Plan with the LP, deploy through the location-aware scheduler.

    Interval boundaries drive the deployment: node allocations track the
    plan's ``nodes``, uploads follow the plan's per-service amounts, and
    the scheduler only releases tasks whose input sits where the plan
    said (Section 5.3).
    """
    services: list[ServiceDescription] = [scenario.ec2, scenario.s3]
    if scenario.local is not None:
        services.append(scenario.local)
    if plan is None:
        plan = (planner or Planner()).plan(_conductor_problem(scenario, services))

    sub = _Substrate(scenario)
    sim = sub.sim
    job = scenario.make_job("conductor")
    inode = sub.fs.create(_INPUT_PATH, scenario.input_mb)
    sub.start_s3_storage_meter()

    scheduler = LocationAwareScheduler(sub.namenode)
    engine = MapReduceEngine(
        sim, sub.cluster, sub.client, scheduler, job, output_backend="local-disk",
        straggler_spread=scenario.straggler_spread,
    )
    engine.start(inode.chunks)

    deployer = _PlanDeployer(sub, scenario, plan, scheduler, inode.chunks, engine=engine)
    deployer.schedule_intervals()
    sim.run_until_idle()
    sub.download_results(engine)
    sub.stop_s3_storage_meter()
    sub.cluster.release_all()
    return DeploymentResult(
        name="Conductor",
        ledger=sub.ledger,
        runtime_s=sim.now,
        upload_s=None,
        process_s=None,
        streamed=True,
        deadline_hours=scenario.deadline_hours,
        task_series=engine.task_series,
        plan=plan,
    )


def _conductor_problem(scenario, services):
    from .problem import PlanningProblem

    margined = [
        s.replace(
            throughput_gb_per_hour=s.throughput_gb_per_hour * scenario.planning_margin
        )
        if s.can_compute
        else s
        for s in services
    ]
    deadline = scenario.planning_deadline_hours or scenario.deadline_hours
    return PlanningProblem(
        job=scenario.planner_job("conductor"),
        services=margined,
        network=scenario.network_conditions(),
        goal=Goal.min_cost(deadline_hours=deadline),
        interval_hours=scenario.planning_interval_hours,
        constant_nodes=scenario.constant_node_plan,
    )


class _PlanDeployer:
    """Enacts one plan interval at a time on the discrete substrate.

    The deployer is lightly closed-loop, as the controller is (Section
    5.4): at every interval boundary it compares completed map work
    against the plan's cumulative expectation and tops up the next
    interval's node counts to absorb the shortfall — the deployment-level
    equivalent of re-planning when progress monitoring detects deviation.
    """

    def __init__(self, sub: _Substrate, scenario, plan, scheduler, chunks,
                 engine=None) -> None:
        self.sub = sub
        self.scenario = scenario
        self.plan = plan
        self.scheduler = scheduler
        self.pending_chunks = list(chunks)
        self.active: dict[str, list[SimNode]] = {}
        self.engine = engine
        self._planned_cum_map_gb = 0.0
        #: Paced upload queues, one lane per path class so fast LAN
        #: transfers are never serialized behind slow WAN ones.
        self._upload_queues: dict[str, list[tuple[object, LocationRecord]]] = {
            "wan": [],
            "lan": [],
        }
        self._uploads_in_flight = {"wan": 0, "lan": 0}
        self._upload_carry: dict[str, float] = {}
        #: Concurrent chunk transfers per lane (typical client window).
        self.upload_window = 4

    def schedule_intervals(self) -> None:
        # Trailing idle intervals carry no actions; enacting them would
        # release every node while the last tasks still queue.  The plan
        # effectively ends at its last active interval, where the drain
        # loop takes over.
        active = [i for i in self.plan.intervals if not i.is_idle()]
        last = active[-1] if active else self.plan.intervals[-1]
        for interval in self.plan.intervals:
            if interval.start_hour > last.start_hour:
                break
            self.sub.sim.schedule_at(
                interval.start_hour * 3600.0, self._enact, interval
            )
        # Rounding chunk counts to the plan's fractional GB can strand a
        # few chunks; flush whatever remains at the end of the plan.
        self.sub.sim.schedule_at(
            last.start_hour * 3600.0 + 1.0, self._flush_pending
        )
        # Past the plan's horizon: keep working off any backlog at the
        # capacity needed to finish by the deadline.
        self.sub.sim.schedule_at(
            last.end_hour * 3600.0, self._post_plan_check
        )

    def _post_plan_check(self) -> None:
        if self.engine is not None and self.engine.is_complete:
            return
        remaining_gb = self.scenario.input_gb - self._actual_map_gb()
        if remaining_gb <= 1e-6:
            return
        # Past the horizon the plan no longer constrains placement: open
        # every source so stranded data anywhere can be drained.
        for backend in ("local-disk", "s3"):
            self.scheduler.allow(self.scenario.ec2.name, backend)
            if self.scenario.local is not None:
                self.scheduler.allow(self.scenario.local.name, backend)
        service = self.scenario.ec2
        rate = service.throughput_gb_per_hour
        # Size the drain to finish by the deadline (with 20% headroom),
        # never slower than one extra hour.
        now_h = self.sub.sim.now / 3600.0
        remaining_time = max(0.25, self.scenario.deadline_hours - now_h)
        remaining_time = min(remaining_time, 1.0)
        want = math.ceil(remaining_gb / max(rate * remaining_time * 0.8, 1e-9))
        have = self.active.setdefault(service.name, [])
        have[:] = [n for n in have if n.released_at is None]
        if len(have) < want:
            have.extend(self.sub.allocate_nodes(service, want - len(have)))
        elif len(have) > want:
            # Scale down: excess instances release now rather than ride
            # into (and get billed for) another hour.  Idle ones first.
            excess = len(have) - want
            have.sort(key=lambda n: n.busy_slots)
            for node in have[:excess]:
                self.sub.cluster.release(node)
            del have[:excess]
        if self.engine is not None:
            self.engine.dispatch()
        # Check back frequently: the residual tail is small, so reaction
        # time, not capacity, dominates how far past the plan we finish.
        self.sub.sim.schedule(900.0, self._post_plan_check)

    def _actual_map_gb(self) -> float:
        if self.engine is None:
            return 0.0
        done_mb = sum(
            t.input_mb
            for t in self.engine.map_tasks
            if t.completed_at is not None
        )
        return done_mb / MB_PER_GB

    def _arrived_backlog_gb(self) -> float:
        """Input that has landed in cloud storage but is not yet processed
        or being processed — the only work extra nodes can accelerate."""
        if self.engine is None:
            return 0.0
        from ..mapreduce.job import TaskState

        backlog_mb = 0.0
        for task in self.engine.map_tasks:
            if task.state not in (TaskState.PENDING, TaskState.RUNNABLE):
                continue
            if task.block is not None and self.sub.namenode.locations(task.block):
                backlog_mb += task.input_mb
        return backlog_mb / MB_PER_GB

    def _flush_pending(self) -> None:
        while self.pending_chunks:
            block_id = self.pending_chunks.pop(0)
            block = self.sub.namenode.block(block_id)
            target = None
            for name in list(self.active) + ["s3"]:
                target = self._target_for(name)
                if target is not None:
                    break
            if target is None:
                target = LocationRecord("s3")
            if target.backend == "s3":
                self.sub.charge_s3_requests(put_gb=block.size_mb / MB_PER_GB)
            self.sub.client.write(block, CLIENT_SITE, target, self._chunk_arrived)

    def _chunk_arrived(self, _block) -> None:
        """Streamed processing: a chunk landing may unblock tasks."""
        if self.engine is not None:
            self.engine.dispatch()

    def _pump_uploads(self) -> None:
        """Keep up to ``upload_window`` transfers in flight per lane."""
        sub = self.sub
        for lane, queue in self._upload_queues.items():
            while queue and self._uploads_in_flight[lane] < self.upload_window:
                block, target = queue.pop(0)
                self._uploads_in_flight[lane] += 1
                if target.backend == "s3":
                    sub.charge_s3_requests(put_gb=block.size_mb / MB_PER_GB)

                def landed(written, _lane=lane) -> None:
                    self._uploads_in_flight[_lane] -= 1
                    self._chunk_arrived(written)
                    self._pump_uploads()

                sub.client.write(block, CLIENT_SITE, target, landed)

    def _enact(self, interval) -> None:
        sub = self.sub
        # 0. Progress check: if execution lags the plan's cumulative map
        # work AND the lag is compute-bound (the data has arrived but sits
        # unprocessed), add nodes to work off the backlog.  An upload-bound
        # lag gets no extra nodes — they would only idle.
        wanted = dict(interval.nodes)
        shortfall_gb = self._planned_cum_map_gb - self._actual_map_gb()
        self._planned_cum_map_gb += interval.map_gb
        backlog_gb = min(shortfall_gb, self._arrived_backlog_gb())
        service = self.scenario.ec2
        rate = service.throughput_gb_per_hour * interval.duration_hours
        # Tolerate the normal streaming pipeline (data legitimately in
        # flight at a boundary scales with the number of active slots)
        # before declaring a deviation.
        pipeline_depth_gb = 0.15 * max(sum(wanted.values()), 1)
        trigger = max(1.0, pipeline_depth_gb)
        if backlog_gb > trigger:
            extra = math.ceil(backlog_gb / max(rate, 1e-9))
            wanted[service.name] = wanted.get(service.name, 0) + extra
        # 1. Adjust node counts per service.
        for name, want in wanted.items():
            service = self._service(name)
            have = self.active.setdefault(name, [])
            have[:] = [n for n in have if n.released_at is None]
            if len(have) < want:
                have.extend(sub.allocate_nodes(service, want - len(have)))
            elif len(have) > want:
                for node in have[want:]:
                    sub.cluster.release(node)
                del have[want:]
        for name, have in self.active.items():
            if name not in wanted:
                for node in have:
                    sub.cluster.release(node)
                have.clear()
        # 2. Uploads: queue the planned GB of pending chunks per target.
        # Chunks are *paced* — a bounded transfer window, next chunk when
        # one lands — so arrivals spread across the interval the way the
        # fluid plan assumes, instead of all completing at the hour's end.
        chunk_gb = self.scenario.split_mb / MB_PER_GB
        local_name = self.scenario.local.name if self.scenario.local else None
        for name, gb in interval.upload_gb.items():
            # Fractional-GB plans accumulate per service; chunks are sent
            # whenever a whole chunk's worth has been planned (carry-based,
            # so rounding never strands chunks across intervals).
            self._upload_carry[name] = self._upload_carry.get(name, 0.0) + gb
            chunk_count = int(self._upload_carry[name] / chunk_gb + 1e-9)
            lane = "lan" if name == local_name else "wan"
            sent = 0
            for _ in range(min(chunk_count, len(self.pending_chunks))):
                block_id = self.pending_chunks.pop(0)
                target = self._target_for(name)
                if target is None:
                    self.pending_chunks.append(block_id)
                    continue
                self._upload_queues[lane].append(
                    (sub.namenode.block(block_id), target)
                )
                sent += 1
            self._upload_carry[name] -= sent * chunk_gb
        self._pump_uploads()
        # 2.5 Migrations (Section 4.5): move stored chunks between
        # services as the plan dictates.
        for (src_name, dst_name), gb in interval.migrate_gb.items():
            src_backend = "s3" if src_name == "s3" else "local-disk"
            count = int(round(gb * MB_PER_GB / self.scenario.split_mb))
            candidates = sub.namenode.blocks_at(src_backend)
            for block_id in candidates[:count]:
                target = self._target_for(dst_name)
                if target is None:
                    continue
                block = sub.namenode.block(block_id)
                sources = [
                    r for r in sub.namenode.locations(block_id)
                    if r.backend == src_backend
                ]
                if not sources:
                    continue
                source = sources[0]
                if target.backend == "s3":
                    sub.charge_s3_requests(put_gb=block.size_mb / MB_PER_GB)
                if source.backend == "s3":
                    sub.charge_s3_requests(get_gb=block.size_mb / MB_PER_GB)

                def moved(written, _src=source, _bid=block_id):
                    sub.client.backends[_src.backend].delete(_src.node, _bid)
                    sub.namenode.remove_location(_bid, _src)
                    self._chunk_arrived(written)

                sub.client.write(block, source.site, target, moved)
        # 3. Open the plan's (storage -> compute) pairs for the scheduler.
        for (storage_name, compute_name) in interval.map_read_gb:
            backend = "s3" if storage_name == "s3" else "local-disk"
            self.scheduler.allow(compute_name, backend)
            if storage_name == "s3":
                gb = interval.map_read_gb[(storage_name, compute_name)]
                sub.charge_s3_requests(get_gb=gb)

    def _service(self, name: str):
        for candidate in (self.scenario.ec2, self.scenario.s3, self.scenario.local):
            if candidate is not None and candidate.name == name:
                return candidate
        raise KeyError(name)

    def _target_for(self, service_name: str) -> LocationRecord | None:
        if service_name == "s3":
            return LocationRecord("s3")
        nodes = [
            n
            for n in self.sub.cluster.up_nodes(service_name)
        ] or [n for n in self.active.get(service_name, [])]
        if not nodes:
            return None
        node = min(nodes, key=lambda n: self.sub.disk.stored_mb(n.site))
        return LocationRecord("local-disk", node.site)
