"""The discrete-event MapReduce execution engine.

Drives a :class:`~repro.mapreduce.job.MapReduceJob` over a
:class:`~repro.mapreduce.cluster.Cluster`: free slots pull tasks from the
scheduler; a map task reads its input chunk through the storage client
(network flow if remote, fast path if local), computes for
``split / slot_rate`` seconds, and commits its output locally; once the
map phase drains, reduce tasks shuffle map output and write the final
result.  Completion series feed the paper's Fig. 12b.
"""

from __future__ import annotations

from typing import Callable

from ..sim import Simulation
from ..storage.blocks import Block, BlockId, LocationRecord
from ..storage.client import StorageClient
from .cluster import Cluster, SimNode
from .job import MapReduceJob, Task, TaskKind, TaskState
from .scheduler import Scheduler


class MapReduceEngine:
    """Executes one MapReduce job on the simulated cluster."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        client: StorageClient,
        scheduler: Scheduler,
        job: MapReduceJob,
        throughput_scale: float = 1.0,
        output_backend: str = "local-disk",
        on_complete: Callable[[], None] | None = None,
        straggler_spread: float = 1.25,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.client = client
        self.scheduler = scheduler
        self.job = job
        self.throughput_scale = throughput_scale
        self.output_backend = output_backend
        self.on_complete = on_complete
        #: Per-task slowdown drawn uniformly from [1, straggler_spread]:
        #: the task-duration variance Hadoop exhibits on virtualized
        #: hardware (paper Section 2.1; Zaharia et al. [20]).  1.0
        #: disables straggling.
        self.straggler_spread = max(1.0, straggler_spread)
        from ..sim.rng import generator

        self._rng = generator(seed, "engine", job.name)

        self.map_tasks: list[Task] = []
        self.reduce_tasks: list[Task] = []
        self.completed_tasks = 0
        self.task_series: list[tuple[float, int]] = [(0.0, 0)]
        self.completion_s: float | None = None
        self._started = False
        self._ready = False  # becomes True once job setup completes
        #: Sites holding map output (shuffle sources).
        self._map_output_sites: list[str] = []
        self._result_chunks: list[BlockId] = []
        cluster.on_node_up(lambda node: self.dispatch())

    # -- lifecycle ------------------------------------------------------------

    def start(self, chunks: list[BlockId]) -> None:
        """Submit the job: create map tasks over the input chunks."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self.map_tasks = self.job.make_map_tasks(chunks)
        self.scheduler.add_tasks(self.map_tasks)
        self.sim.schedule(self.job.setup_seconds, self._setup_done)

    def _setup_done(self) -> None:
        self._ready = True
        self.scheduler.refresh()
        self.dispatch()

    @property
    def is_complete(self) -> bool:
        return self.completion_s is not None

    @property
    def result_chunks(self) -> list[BlockId]:
        return list(self._result_chunks)

    # -- dispatch loop ------------------------------------------------------------

    def dispatch(self) -> None:
        """Fill free slots with runnable tasks (call on any state change)."""
        if not self._started or not self._ready or self.is_complete:
            return
        self.scheduler.refresh()
        progress = True
        while progress:
            progress = False
            for node in self.cluster.up_nodes():
                if node.free_slots <= 0:
                    continue
                task = self.scheduler.next_task(node)
                if task is None:
                    continue
                self._assign(task, node)
                progress = True

    def _assign(self, task: Task, node: SimNode) -> None:
        task.state = TaskState.RUNNING
        task.assigned_node = node.node_id
        task.started_at = self.sim.now
        node.busy_slots += 1
        if task.kind is TaskKind.MAP:
            self._run_map(task, node)
        else:
            self._run_reduce(task, node)

    # -- map path ------------------------------------------------------------

    def _run_map(self, task: Task, node: SimNode) -> None:
        assert task.block is not None
        self.client.read(
            task.block, node.site, lambda block: self._map_compute(task, node, block)
        )

    def _map_compute(self, task: Task, node: SimNode, block: Block) -> None:
        # Hadoop streams records: input transfer and computation overlap,
        # so the task takes max(read, compute), not their sum.  By the
        # time the read completes, (now - started_at) of compute is
        # already amortized.
        rate = node.slot_rate_mb_s(self.throughput_scale)
        elapsed = self.sim.now - (task.started_at or self.sim.now)
        duration = task.input_mb / rate * self._straggle()
        remaining = max(0.0, duration - elapsed)
        self.sim.schedule(remaining, self._map_done, task, node)

    def _map_done(self, task: Task, node: SimNode) -> None:
        # Map output commits to the node's local storage (standard Hadoop);
        # its size is tracked in aggregate for the shuffle.
        if node.site not in self._map_output_sites:
            self._map_output_sites.append(node.site)
        self._complete(task, node)
        if all(t.state is TaskState.COMPLETED for t in self.map_tasks):
            self._start_reduce_phase()
        self.dispatch()

    # -- reduce path ------------------------------------------------------------

    def _start_reduce_phase(self) -> None:
        if self.job.map_output_mb <= 1e-9:
            self._finish()
            return
        self.reduce_tasks = self.job.make_reduce_tasks()
        self.scheduler.add_tasks(self.reduce_tasks)
        self.dispatch()

    def _run_reduce(self, task: Task, node: SimNode) -> None:
        # Shuffle: fetch this reducer's share of map output.  Sources are
        # the map nodes; we model the fetch as one flow from the most
        # loaded source site (the stragglers' site dominates in practice).
        sources = self._map_output_sites or [node.site]
        source = sources[hash(task.task_id) % len(sources)]
        if task.input_mb <= 1e-9 or source == node.site:
            self._reduce_compute(task, node)
            return
        self.client.network.start_flow(
            source, node.site, task.input_mb, lambda _f: self._reduce_compute(task, node)
        )

    def _reduce_compute(self, task: Task, node: SimNode) -> None:
        # Shuffle and reduce computation overlap, as in the map path.
        rate = node.slot_rate_mb_s(self.throughput_scale) * self.job.reduce_speed_factor
        elapsed = self.sim.now - (task.started_at or self.sim.now)
        duration = task.input_mb / rate * self._straggle()
        remaining = max(0.0, duration - elapsed)
        self.sim.schedule(remaining, self._reduce_done, task, node)

    def _straggle(self) -> float:
        if self.straggler_spread <= 1.0:
            return 1.0
        return float(self._rng.uniform(1.0, self.straggler_spread))

    def _reduce_done(self, task: Task, node: SimNode) -> None:
        # Commit this reducer's result chunk to storage at the node.
        index = self.reduce_tasks.index(task)
        block_id = BlockId(f"{self.job.name}.out", index)
        size = task.input_mb * self.job.reduce_output_ratio
        block = Block(block_id, size)
        target = LocationRecord(backend=self.output_backend, node=self._output_node(node))
        self.client.write(block, node.site, target, lambda _b: None)
        self._result_chunks.append(block_id)
        self._complete(task, node)
        if all(t.state is TaskState.COMPLETED for t in self.reduce_tasks):
            self._finish()
        self.dispatch()

    def _output_node(self, node: SimNode) -> str:
        backend = self.client.backends[self.output_backend]
        if hasattr(backend, "nodes"):
            nodes = getattr(backend, "nodes")
            if node.site in nodes:
                return node.site
            if nodes:
                return nodes[0]
        return ""

    # -- bookkeeping ------------------------------------------------------------

    def _complete(self, task: Task, node: SimNode) -> None:
        task.state = TaskState.COMPLETED
        task.completed_at = self.sim.now
        node.busy_slots -= 1
        self.completed_tasks += 1
        self.task_series.append((self.sim.now, self.completed_tasks))

    def _finish(self) -> None:
        if self.completion_s is None:
            self.completion_s = self.sim.now
            if self.on_complete is not None:
                self.on_complete()
