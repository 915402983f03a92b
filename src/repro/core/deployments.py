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
layer, fluid network) and produces a ledger + runtime breakdown.  The
Fig. 5, 6 and 10 benches compare Conductor with the baselines; Figs. 7
and 11 run Hadoop direct alone.  Conductor's deployment is the monitored
one (Section 5.4): the job controller steps the substrate one plan
interval at a time and re-plans through ``ControllerRun.monitor``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from ..cloud.catalog import ec2_m1_large, s3
from ..cloud.services import ServiceDescription
from ..mapreduce.cluster import CLIENT_SITE, Cluster, SimNode, build_topology, wire_node
from ..mapreduce.engine import MapReduceEngine
from ..mapreduce.hdfs import CONDUCTOR_CHUNK_OVERHEAD_S, build_hdfs
from ..mapreduce.job import MapReduceJob, TaskState
from ..mapreduce.scheduler import HadoopScheduler, LocationAwareScheduler
from ..sim import FluidNetwork, Simulation
from ..storage.backends import LocalDiskBackend, ObjectStoreBackend
from ..storage.blocks import LocationRecord
from ..storage.client import StorageClient
from ..storage.filesystem import ConductorFileSystem
from ..storage.namenode import Namenode
from ..units import MB_PER_GB, mb_s_to_gb_h, mbit_s_to_mb_s, seconds_to_hours
from ..accounting import CostCategory, CostLedger
from .controller import JobController
from .executor import IntervalOutcome
from .plan import ExecutionPlan
from .planner import Planner
from .problem import Goal, NetworkConditions, PlannerJob, SystemState

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

    def __init__(
        self, scenario: DeploymentScenario, ledger: CostLedger | None = None
    ) -> None:
        self.scenario = scenario
        self.sim = Simulation()
        self.topology = build_topology(uplink_mb_s=scenario.uplink_mb_s)
        self.network = FluidNetwork(self.sim, self.topology)
        self.ledger = ledger if ledger is not None else CostLedger()
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


def run_conductor(scenario: DeploymentScenario) -> DeploymentResult:
    """Plan with the LP, deploy through the location-aware scheduler.

    The deployment is the paper's monitored one (Section 5.4): a
    :class:`~repro.core.controller.ControllerRun` steps the discrete
    substrate one plan interval at a time and re-plans from the measured
    state whenever its monitor sees the run leave the plan, or the plan
    runs out with work left.
    """
    controller = _SubstrateController(scenario)
    result = controller.run()
    executor = controller.executor
    return DeploymentResult(
        name="Conductor",
        ledger=result.ledger,
        runtime_s=executor.finish(),
        upload_s=None,
        process_s=None,
        streamed=True,
        deadline_hours=scenario.deadline_hours,
        task_series=executor.engine.task_series,
        plan=result.plans[0],
    )


class _SubstrateController(JobController):
    """A job controller whose executor is the discrete substrate.

    It plans with the scenario's margined compute rates: the headroom for
    boot delays, task waves and stragglers the fluid model cannot see.
    """

    def __init__(self, scenario: DeploymentScenario) -> None:
        services = [scenario.ec2, scenario.s3]
        if scenario.local is not None:
            services.append(scenario.local)
        margined = [
            s.replace(
                throughput_gb_per_hour=s.throughput_gb_per_hour * scenario.planning_margin
            )
            if s.can_compute
            else s
            for s in services
        ]
        super().__init__(
            scenario.planner_job("conductor"),
            margined,
            Goal.min_cost(deadline_hours=scenario.deadline_hours),
            network=scenario.network_conditions(),
            planner=_ActionPlanner(),
            problem_kwargs={"constant_nodes": scenario.constant_node_plan},
        )
        self.scenario = scenario

    def _executor(self, problem, actual, ledger) -> "_SubstrateExecutor":
        self.executor = _SubstrateExecutor(self.scenario, ledger)
        return self.executor


class _ActionPlanner(Planner):
    """Plans that end with their last action.

    A min-cost plan that finishes early pads the horizon with idle
    intervals.  Work the substrate has not finished when the actions end
    would wait out that padding with no node rented; ending the plan there
    makes it the controller's "plan exhausted" re-plan instead.
    """

    def plan(self, problem) -> ExecutionPlan:
        plan = super().plan(problem)
        intervals = list(plan.intervals)
        while len(intervals) > 1 and intervals[-1].is_idle():
            intervals.pop()
        return replace(plan, intervals=intervals)


class _SubstrateExecutor:
    """The discrete substrate as an executor :class:`ControllerRun` steps.

    Each interval enacts the plan's actions — node counts, paced uploads,
    migrations and the (storage, compute) pairs the location-aware
    scheduler may run (Section 5.3) — then runs the simulation to the
    interval's end and reports what was measured.  It rents no node the
    plan does not name: catching up is the controller's re-plan.
    """

    def __init__(self, scenario: DeploymentScenario, ledger: CostLedger) -> None:
        sub = _Substrate(scenario, ledger)
        self.sub = sub
        self.scenario = scenario
        self.services = {
            s.name: s for s in (scenario.ec2, scenario.s3, scenario.local) if s
        }
        inode = sub.fs.create(_INPUT_PATH, scenario.input_mb)
        sub.start_s3_storage_meter()
        self.scheduler = LocationAwareScheduler(sub.namenode)
        self.engine = MapReduceEngine(
            sub.sim, sub.cluster, sub.client, self.scheduler,
            scenario.make_job("conductor"), output_backend="local-disk",
            on_complete=self._collect_results,
            straggler_spread=scenario.straggler_spread,
        )
        self.engine.start(inode.chunks)
        self.pending_chunks = list(inode.chunks)
        self.active: dict[str, list[SimNode]] = {}
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
        #: Spot bids the controller refreshes; the substrate rents no spot.
        self.bids: dict[str, float] = {}
        self._uploaded_mb = 0.0
        self._results_left = 0
        self._downloaded_mb = 0.0
        self._finished_s: float | None = None

    # -- the executor protocol ---------------------------------------------------

    def execute_interval(self, interval, state: SystemState) -> IntervalOutcome:
        """Enact ``interval``, simulate to its end, sync ``state``."""
        start_s = self.sub.sim.now
        cost, uploaded_mb = self.sub.ledger.total(), self._uploaded_mb
        done = (state.map_done_gb, state.reduce_done_gb, state.downloaded_gb)
        self._enact(interval)
        nodes = {name: len(have) for name, have in self.active.items() if have}
        self.sub.sim.run(until=(state.hour + interval.duration_hours) * 3600.0)
        self._sync(state)
        state.hour += interval.duration_hours
        return IntervalOutcome(
            index=interval.index,
            start_hour=start_s / 3600.0,
            duration_hours=interval.duration_hours,
            nodes=nodes,
            uploaded_gb=(self._uploaded_mb - uploaded_mb) / MB_PER_GB,
            map_gb=state.map_done_gb - done[0],
            reduce_gb=state.reduce_done_gb - done[1],
            downloaded_gb=state.downloaded_gb - done[2],
            planned_map_gb=interval.map_gb,
            planned_upload_gb=interval.total_upload_gb,
            cost=self.sub.ledger.total() - cost,
            observed_rates=self._observed_rates(start_s),
        )

    def is_complete(self, state: SystemState) -> bool:
        return self._finished_s is not None

    def rebind(self, problem) -> None:
        """A re-plan changes nothing here: the next interval carries it."""

    def close(self) -> None:
        """The substrate holds no resources outside the simulation."""

    def finish(self) -> float:
        """Stop the meter and release every node, once; the runtime in s."""
        if self._finished_s is None:
            self._finished_s = self.sub.sim.now
            self.sub.stop_s3_storage_meter()
            self.sub.cluster.release_all()
        return self._finished_s

    # -- measurement ----------------------------------------------------------------

    def _sync(self, state: SystemState) -> None:
        """Read the job's stocks and progress off the namenode and engine."""
        job = self.engine.job
        source_mb = map_mb = reduce_mb = 0.0
        input_mb, output_mb, result_mb = (defaultdict(float) for _ in range(3))
        for task in self.engine.map_tasks:
            done_mb = task.input_mb * self._progress(task)
            map_mb += done_mb
            if done_mb > 0:
                output_mb[self._ran_on(task)] += done_mb * job.map_output_ratio
            if task.state is TaskState.COMPLETED:
                continue
            records = self.sub.namenode.locations(task.block)
            if records:
                input_mb[self._held_by(records[0])] += task.input_mb - done_mb
            else:
                source_mb += task.input_mb  # at the client, or on the wire
        for task in self.engine.reduce_tasks:
            if task.state is TaskState.COMPLETED:
                reduce_mb += task.input_mb
                result_mb[self._ran_on(task)] += task.input_mb * job.reduce_output_ratio
        # Reducers drain map output, and downloads the result, evenly
        # from wherever it sits.
        output_left = _share_left(output_mb, reduce_mb)
        result_left = _share_left(result_mb, self._downloaded_mb)
        state.source_remaining_gb = source_mb / MB_PER_GB
        state.stored_input = {k: v / MB_PER_GB for k, v in input_mb.items()}
        state.stored_output = {
            k: v * output_left / MB_PER_GB for k, v in output_mb.items()
        }
        state.stored_result = {
            k: v * result_left / MB_PER_GB for k, v in result_mb.items()
        }
        state.map_done_gb = map_mb / MB_PER_GB
        state.reduce_done_gb = reduce_mb / MB_PER_GB
        state.downloaded_gb = self._downloaded_mb / MB_PER_GB

    def _progress(self, task) -> float:
        """Share of a map task's input processed, as Hadoop's progress
        counter estimates it: a running task at its node's nominal rate."""
        if task.state is TaskState.COMPLETED:
            return 1.0
        if task.state is not TaskState.RUNNING:
            return 0.0
        node = self.sub.cluster.nodes[task.assigned_node]
        elapsed = self.sub.sim.now - task.started_at
        return min(1.0, elapsed * node.slot_rate_mb_s() / task.input_mb)

    def _observed_rates(self, since_s: float) -> dict[str, float]:
        """Per-node map rate (GB/h) of each service over the map tasks it
        completed since ``since_s``, stragglers and remote reads included."""
        mb, slot_s = defaultdict(float), defaultdict(float)
        for task in self.engine.map_tasks:
            if task.completed_at is not None and task.completed_at > since_s:
                name = self._ran_on(task)
                mb[name] += task.input_mb
                slot_s[name] += task.completed_at - task.started_at
        slots = self.scenario.slots_per_node
        return {name: mb_s_to_gb_h(slots * mb[name] / slot_s[name]) for name in mb}

    def _ran_on(self, task) -> str:
        return self.sub.cluster.nodes[task.assigned_node].service.name

    def _held_by(self, record: LocationRecord) -> str:
        if record.backend == "s3":
            return self.scenario.s3.name
        return self.sub.cluster.nodes[record.node].service.name

    # -- the result ------------------------------------------------------------------

    def _collect_results(self) -> None:
        """Download the result once every reducer's output has landed."""
        sub = self.sub
        chunks = self.engine.result_chunks
        if not all(sub.namenode.locations(block_id) for block_id in chunks):
            sub.sim.schedule(1.0, self._collect_results)
            return
        self._results_left = len(chunks)
        for block_id in chunks:
            sub.client.read(block_id, CLIENT_SITE, self._result_landed)
        sub.charge_download(self.engine.job.result_mb / MB_PER_GB, self.scenario.ec2)

    def _result_landed(self, block) -> None:
        self._downloaded_mb += block.size_mb
        self._results_left -= 1
        if self._results_left == 0:
            self.finish()

    # -- enactment -------------------------------------------------------------------

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
                    self._uploaded_mb += written.size_mb
                    self.engine.dispatch()  # streamed: it may unblock tasks
                    self._pump_uploads()

                sub.client.write(block, CLIENT_SITE, target, landed)

    def _enact(self, interval) -> None:
        sub = self.sub
        # 1. Adjust node counts per service.
        for name, want in interval.nodes.items():
            have = self.active.setdefault(name, [])
            have[:] = [n for n in have if n.released_at is None]
            if len(have) < want:
                have.extend(sub.allocate_nodes(self.services[name], want - len(have)))
            elif len(have) > want:
                for node in have[want:]:
                    sub.cluster.release(node)
                del have[want:]
        for name, have in self.active.items():
            if name not in interval.nodes:
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
            # Fractional-GB plans accumulate per service; a chunk is sent
            # once half of it has been planned, so the chunks sent never
            # stray from the GB planned by more than half a chunk.
            self._upload_carry[name] = self._upload_carry.get(name, 0.0) + gb
            chunk_count = int(self._upload_carry[name] / chunk_gb + 0.5)
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
                    self.engine.dispatch()

                sub.client.write(block, source.site, target, moved)
        # 3. Open the plan's (storage -> compute) pairs for the scheduler.
        for (storage_name, compute_name) in interval.map_read_gb:
            backend = "s3" if storage_name == "s3" else "local-disk"
            self.scheduler.allow(compute_name, backend)
            if storage_name == "s3":
                gb = interval.map_read_gb[(storage_name, compute_name)]
                sub.charge_s3_requests(get_gb=gb)

    def _target_for(self, service_name: str) -> LocationRecord | None:
        if service_name == "s3":
            return LocationRecord("s3")
        nodes = (
            self.sub.cluster.up_nodes(service_name)
            or self.active.get(service_name, [])
        )
        if not nodes:
            return None
        node = min(nodes, key=lambda n: self.sub.disk.stored_mb(n.site))
        return LocationRecord("local-disk", node.site)


def _share_left(held_mb: dict[str, float], consumed_mb: float) -> float:
    """Fraction of ``held_mb``'s total that ``consumed_mb`` leaves."""
    total = sum(held_mb.values())
    return 1.0 - consumed_mb / total if total > 0 else 0.0
