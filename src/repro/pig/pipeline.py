"""Compiled multi-stage MapReduce pipelines.

The compiler (:mod:`repro.pig.compiler`) turns a logical plan into a
:class:`CompiledPipeline`: a DAG of :class:`StageSpec` MapReduce stages.
Each stage knows which logical operators run map-side, which single
blocking operator (if any) is realized by the shuffle, and which run
reduce-side — exactly the structure Pig's MapReduce compiler produces,
and the structure the paper's Section 2.1 failure discussion assumes
("the result of one stage is used as the input to the subsequent
stage").

Stages convert to the planner's aggregate job vocabulary via
:meth:`StageSpec.to_planner_job`, which is what lets Conductor's LP
planner reason about whole pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from ..core.problem import PlannerJob
from .logical import LogicalPlan


@dataclass(frozen=True)
class LoadRef:
    """A stage input read from a source path (via a LOAD alias)."""

    alias: str
    path: str


@dataclass(frozen=True)
class StageRef:
    """A stage input read from an upstream stage's materialized output."""

    stage_index: int


StageInput = Union[LoadRef, StageRef]


@dataclass(frozen=True)
class StageBranch:
    """One map-side input branch of a stage.

    ``map_aliases`` is the chain of non-blocking operators applied to
    this branch's rows before the shuffle (or before output, for
    map-only stages).  ``side`` tags join branches.
    """

    source: StageInput
    map_aliases: tuple[str, ...] = ()
    side: str | None = None  # "left" / "right" for join branches


@dataclass(frozen=True)
class StageSpec:
    """One MapReduce stage of a compiled pipeline."""

    index: int
    branches: tuple[StageBranch, ...]
    #: Alias of the blocking operator realized by this stage's shuffle;
    #: ``None`` for map-only stages.
    shuffle_alias: str | None
    #: Non-blocking operators applied reduce-side, in order.
    reduce_aliases: tuple[str, ...]
    #: The alias whose rows are this stage's output.
    output_alias: str
    #: Where the output is stored (a STORE path), or None for an
    #: intermediate result parked on whichever service the plan picks.
    store_path: str | None = None

    @property
    def is_map_only(self) -> bool:
        return self.shuffle_alias is None

    @property
    def upstream_stages(self) -> tuple[int, ...]:
        return tuple(
            b.source.stage_index
            for b in self.branches
            if isinstance(b.source, StageRef)
        )

    @property
    def aliases(self) -> tuple[str, ...]:
        """Every logical alias computed inside this stage."""
        names: list[str] = []
        for branch in self.branches:
            names.extend(branch.map_aliases)
        if self.shuffle_alias is not None:
            names.append(self.shuffle_alias)
        names.extend(self.reduce_aliases)
        return tuple(names)

    def describe(self) -> str:
        parts = []
        for branch in self.branches:
            source = (
                f"load:{branch.source.alias}"
                if isinstance(branch.source, LoadRef)
                else f"stage:{branch.source.stage_index}"
            )
            chain = " > ".join(branch.map_aliases) or "(identity)"
            tag = f" [{branch.side}]" if branch.side else ""
            parts.append(f"  map{tag}  {source} > {chain}")
        if self.shuffle_alias:
            parts.append(f"  shuffle {self.shuffle_alias}")
        if self.reduce_aliases:
            parts.append(f"  reduce  {' > '.join(self.reduce_aliases)}")
        sink = f" -> store {self.store_path!r}" if self.store_path else ""
        return f"stage {self.index}{sink}\n" + "\n".join(parts)


@dataclass(frozen=True)
class StageSizes:
    """Estimated data volumes of one stage, in GB."""

    input_gb: float
    shuffle_gb: float
    output_gb: float

    @property
    def map_output_ratio(self) -> float:
        if self.input_gb <= 0:
            return 0.0
        return self.shuffle_gb / self.input_gb

    @property
    def reduce_output_ratio(self) -> float:
        if self.shuffle_gb <= 0:
            return 1.0
        return self.output_gb / self.shuffle_gb


@dataclass
class CompiledPipeline:
    """A DAG of MapReduce stages plus the plan it came from."""

    plan: LogicalPlan
    stages: list[StageSpec]

    def __post_init__(self) -> None:
        for stage in self.stages:
            for upstream in stage.upstream_stages:
                if upstream >= stage.index:
                    raise ValueError(
                        f"stage {stage.index} reads from stage {upstream}: "
                        "stages must be topologically ordered"
                    )

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def depth(self) -> int:
        """Longest chain of dependent stages (pipeline depth)."""
        depths: dict[int, int] = {}
        for stage in self.stages:
            upstream = [depths[i] for i in stage.upstream_stages]
            depths[stage.index] = 1 + (max(upstream) if upstream else 0)
        return max(depths.values(), default=0)

    def estimate_stage_sizes(
        self, input_gb: Mapping[str, float]
    ) -> list[StageSizes]:
        """Per-stage data volumes from the logical plan's size estimates."""
        estimates = self.plan.estimate_sizes(input_gb)
        sizes: list[StageSizes] = []
        for stage in self.stages:
            stage_in = 0.0
            shuffle = 0.0
            for branch in stage.branches:
                if isinstance(branch.source, LoadRef):
                    source_est = estimates[branch.source.alias]
                else:
                    source_est = estimates[
                        self.stages[branch.source.stage_index].output_alias
                    ]
                stage_in += source_est.total_gb
                branch_last = (
                    branch.map_aliases[-1] if branch.map_aliases else None
                )
                if branch_last is not None:
                    shuffle += estimates[branch_last].total_gb
                else:
                    shuffle += source_est.total_gb
            output = estimates[stage.output_alias].total_gb
            if stage.is_map_only:
                shuffle = output
            sizes.append(
                StageSizes(input_gb=stage_in, shuffle_gb=shuffle, output_gb=output)
            )
        return sizes

    def to_planner_jobs(
        self,
        input_gb: Mapping[str, float],
        throughput_scale: float = 1.0,
        reduce_speed_factor: float = 4.0,
    ) -> list[PlannerJob]:
        """One aggregate :class:`PlannerJob` per stage, sizes propagated.

        The planner runs stages sequentially (a stage's input is its
        predecessors' output), so each job's ``input_gb`` is the stage
        input estimate, with map/reduce ratios from the size model.
        """
        jobs = []
        for stage, sizes in zip(self.stages, self.estimate_stage_sizes(input_gb)):
            ratio = sizes.map_output_ratio
            jobs.append(
                PlannerJob(
                    name=f"stage{stage.index}-{stage.output_alias}",
                    input_gb=max(sizes.input_gb, 1e-6),
                    map_output_ratio=max(ratio, 1e-9),
                    reduce_output_ratio=max(sizes.reduce_output_ratio, 1e-9),
                    throughput_scale=throughput_scale,
                    reduce_speed_factor=reduce_speed_factor,
                )
            )
        return jobs

    def describe(self) -> str:
        return "\n".join(stage.describe() for stage in self.stages)
