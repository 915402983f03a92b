"""Task-level MapReduce job representation.

Where :class:`repro.core.problem.PlannerJob` is the planner's aggregate
view (GB in, GB out, GB/h), this module is the Hadoop-level view the
discrete-event engine executes: files split into chunks, one map task per
split, a fixed set of reduce tasks fed by the shuffle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..storage.blocks import BlockId


class TaskKind(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


class TaskState(enum.Enum):
    PENDING = "pending"      # known, input not necessarily in place
    RUNNABLE = "runnable"    # scheduler may assign it
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class Task:
    """One map or reduce task attempt."""

    task_id: str
    kind: TaskKind
    input_mb: float
    #: The input chunk (map tasks only; reduce tasks read the shuffle).
    block: BlockId | None = None
    state: TaskState = TaskState.PENDING
    assigned_node: str | None = None
    started_at: float | None = None
    completed_at: float | None = None


@dataclass
class MapReduceJob:
    """An executable job: input file, split geometry, output ratios.

    ``map_output_ratio``/``reduce_output_ratio`` mirror the planner job so
    that the fluid and discrete views of the same computation agree — a
    property the integration tests check.
    """

    name: str
    input_path: str
    input_mb: float
    split_mb: float = 64.0
    map_output_ratio: float = 0.002
    reduce_output_ratio: float = 1.0
    num_reducers: int = 4
    reduce_speed_factor: float = 4.0
    #: Per-job fixed startup overhead (JobTracker setup, AMI boot checks).
    setup_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.input_mb <= 0 or self.split_mb <= 0:
            raise ValueError("input_mb and split_mb must be positive")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")

    @property
    def num_map_tasks(self) -> int:
        import math

        return max(1, math.ceil(self.input_mb / self.split_mb - 1e-9))

    @property
    def map_output_mb(self) -> float:
        return self.input_mb * self.map_output_ratio

    @property
    def result_mb(self) -> float:
        return self.map_output_mb * self.reduce_output_ratio

    def make_map_tasks(self, chunks: list[BlockId]) -> list[Task]:
        """One map task per input chunk."""
        tasks = []
        remaining = self.input_mb
        for index, block in enumerate(chunks):
            size = min(self.split_mb, remaining)
            remaining = max(0.0, remaining - size)
            tasks.append(
                Task(
                    task_id=f"{self.name}-m{index:05d}",
                    kind=TaskKind.MAP,
                    input_mb=size,
                    block=block,
                )
            )
        return tasks

    def make_reduce_tasks(self) -> list[Task]:
        share = self.map_output_mb / self.num_reducers
        return [
            Task(
                task_id=f"{self.name}-r{index:03d}",
                kind=TaskKind.REDUCE,
                input_mb=share,
            )
            for index in range(self.num_reducers)
        ]
