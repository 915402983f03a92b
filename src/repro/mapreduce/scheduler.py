"""Task schedulers: stock Hadoop vs. Conductor's location-aware scheduler.

The stock Hadoop scheduler "tries to schedule tasks on the nodes that
also hold the respective input data block, and, in cases where locality
cannot be exploited, it schedules tasks on non-local nodes and reads
their input over the network" (paper Section 5.3).  That flexibility can
violate Conductor's plan, so the location-aware scheduler only marks a
task runnable once its input data is where the plan says it should be,
and maintains per-resource task queues.
"""

from __future__ import annotations

import abc
from collections import defaultdict

from ..storage.namenode import Namenode
from .cluster import SimNode
from .job import Task, TaskState


class Scheduler(abc.ABC):
    """Assigns runnable tasks to free slots."""

    def __init__(self, namenode: Namenode) -> None:
        self.namenode = namenode
        self.tasks: list[Task] = []

    def add_tasks(self, tasks: list[Task]) -> None:
        self.tasks.extend(tasks)

    def pending(self) -> list[Task]:
        return [t for t in self.tasks if t.state is TaskState.PENDING]

    def runnable(self) -> list[Task]:
        return [t for t in self.tasks if t.state is TaskState.RUNNABLE]

    @abc.abstractmethod
    def refresh(self) -> None:
        """Recompute task runnability after data movement / phase changes."""

    @abc.abstractmethod
    def next_task(self, node: SimNode) -> Task | None:
        """Pick a runnable task for a node with a free slot (or None)."""

    # -- shared helpers ---------------------------------------------------------

    def _has_local_replica(self, task: Task, node: SimNode) -> bool:
        if task.block is None:
            return False
        return any(
            record.site == node.site
            for record in self.namenode.locations(task.block)
        )

    def _input_available(self, task: Task) -> bool:
        if task.block is None:
            return True  # reduce task: gated by the engine's phase barrier
        return bool(self.namenode.locations(task.block))


class HadoopScheduler(Scheduler):
    """Stock Hadoop policy: data-local first, else any task, remote read."""

    def refresh(self) -> None:
        for task in self.tasks:
            if task.state is TaskState.PENDING and self._input_available(task):
                task.state = TaskState.RUNNABLE

    def next_task(self, node: SimNode) -> Task | None:
        runnable = self.runnable()
        for task in runnable:  # locality pass
            if self._has_local_replica(task, node):
                return task
        return runnable[0] if runnable else None


class LocationAwareScheduler(Scheduler):
    """Conductor's scheduler (Section 5.3).

    A task becomes runnable only when its input block sits on a storage
    location the plan allows for some compute resource; per-resource
    queues ensure "no actions are performed that were not considered in
    the plan".  The deployment driver keeps ``allowed_sources`` up to
    date as plan intervals open.
    """

    def __init__(self, namenode: Namenode) -> None:
        super().__init__(namenode)
        #: compute service name -> set of allowed storage backends/sites.
        self.allowed_sources: dict[str, set[str]] = defaultdict(set)
        self._queues: dict[str, list[Task]] = defaultdict(list)

    def allow(self, compute_service: str, storage_backend: str) -> None:
        """Open a (compute, storage) pair per the current plan interval."""
        allowed = self.allowed_sources[compute_service]
        if storage_backend not in allowed:
            allowed.add(storage_backend)
            # Tasks already runnable from that backend join this queue too.
            self._queues[compute_service].extend(
                task for task in self.runnable()
                if task.block is not None and any(
                    record.backend == storage_backend
                    for record in self.namenode.locations(task.block)
                )
            )
        self.refresh()

    def refresh(self) -> None:
        for task in self.tasks:
            if task.state is not TaskState.PENDING:
                continue
            if task.block is None:
                task.state = TaskState.RUNNABLE
                continue
            records = self.namenode.locations(task.block)
            if not records:
                continue
            backends = {record.backend for record in records}
            for service, allowed in self.allowed_sources.items():
                if backends & allowed:
                    task.state = TaskState.RUNNABLE
                    self._queues[service].append(task)

    def next_task(self, node: SimNode) -> Task | None:
        queue = self._queues.get(node.service.name, [])
        # Prefer node-local input within the service queue.
        for task in queue:
            if task.state is TaskState.RUNNABLE and self._has_local_replica(task, node):
                return task
        for task in queue:
            if task.state is TaskState.RUNNABLE:
                return task
        # Reduce tasks (no block) are not queued per service: any node
        # belonging to a service with open sources may take them.
        if self.allowed_sources.get(node.service.name):
            for task in self.runnable():
                if task.block is None:
                    return task
        return None
