"""Execution plans: the solver's answer, in deployable form.

An :class:`ExecutionPlan` is the bridge between the planner and the job
controller: per interval it records how many nodes to rent from each
compute service, what to upload where, which storage each compute service
reads from / writes to, migrations, and downloads — exactly the decisions
the paper's controller forwards to the storage layer and the allocation
APIs (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

_EPS = 1e-6


def _pairs_to_rows(flows: Mapping[tuple[str, str], float]) -> list[list]:
    """Tuple-keyed flow dict -> JSON-safe ``[from, to, gb]`` rows.

    Service names are arbitrary strings, so no separator-joined string
    key is safe; explicit triples are.  Rows are sorted so serialization
    is canonical (two equal plans encode identically).
    """
    return [[a, b, float(v)] for (a, b), v in sorted(flows.items())]


@dataclass
class PlanInterval:
    """Planned actions during one LP time interval."""

    index: int
    start_hour: float
    duration_hours: float
    #: compute service -> nodes rented during the interval.
    nodes: dict[str, int] = field(default_factory=dict)
    #: storage service -> GB uploaded from the source.
    upload_gb: dict[str, float] = field(default_factory=dict)
    #: (storage, compute) -> GB of map input processed.
    map_read_gb: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (compute, storage) -> GB of map output written.
    map_write_gb: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (storage, compute) -> GB of map output consumed by reduce.
    reduce_read_gb: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (compute, storage) -> GB of final result written.
    reduce_write_gb: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (from storage, to storage) -> GB migrated (arrives next interval).
    migrate_gb: dict[tuple[str, str], float] = field(default_factory=dict)
    #: storage service -> GB downloaded to the client.
    download_gb: dict[str, float] = field(default_factory=dict)
    #: storage service -> GB held at the *end* of the interval.
    stored_gb: dict[str, float] = field(default_factory=dict)

    @property
    def end_hour(self) -> float:
        return self.start_hour + self.duration_hours

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes.values())

    @property
    def map_gb(self) -> float:
        return sum(self.map_read_gb.values())

    @property
    def reduce_gb(self) -> float:
        return sum(self.reduce_read_gb.values())

    @property
    def total_upload_gb(self) -> float:
        return sum(self.upload_gb.values())

    @property
    def total_download_gb(self) -> float:
        return sum(self.download_gb.values())

    def is_idle(self) -> bool:
        """True when nothing happens in the interval."""
        return (
            self.total_nodes == 0
            and self.total_upload_gb < _EPS
            and self.map_gb < _EPS
            and self.reduce_gb < _EPS
            and self.total_download_gb < _EPS
            and sum(self.migrate_gb.values()) < _EPS
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (tuple-keyed flows become ``[from, to, gb]``)."""
        return {
            "index": self.index,
            "start_hour": self.start_hour,
            "duration_hours": self.duration_hours,
            "nodes": {k: int(v) for k, v in sorted(self.nodes.items())},
            "upload_gb": {k: float(v) for k, v in sorted(self.upload_gb.items())},
            "map_read_gb": _pairs_to_rows(self.map_read_gb),
            "map_write_gb": _pairs_to_rows(self.map_write_gb),
            "reduce_read_gb": _pairs_to_rows(self.reduce_read_gb),
            "reduce_write_gb": _pairs_to_rows(self.reduce_write_gb),
            "migrate_gb": _pairs_to_rows(self.migrate_gb),
            "download_gb": {k: float(v) for k, v in sorted(self.download_gb.items())},
            "stored_gb": {k: float(v) for k, v in sorted(self.stored_gb.items())},
        }


@dataclass
class ExecutionPlan:
    """A complete deployment plan plus the model's cost prediction."""

    intervals: list[PlanInterval]
    predicted_cost: float
    predicted_cost_breakdown: dict[str, float]
    #: Hours from plan start to predicted completion (download finished).
    predicted_completion_hours: float
    objective_value: float
    solver_status: str
    solve_seconds: float
    model_stats: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("a plan needs at least one interval")

    # -- queries ---------------------------------------------------------------

    def interval_at(self, hour: float) -> PlanInterval:
        """The interval covering absolute hour ``hour``."""
        for interval in self.intervals:
            if interval.start_hour - _EPS <= hour < interval.end_hour - _EPS:
                return interval
        return self.intervals[-1]

    def peak_nodes(self, service: str | None = None) -> int:
        """Max concurrent nodes (optionally for one service).

        The all-services peak is memoized on the instance: a plan is not
        mutated once extracted, the plan cache hands one object to every
        tenant, and every response summarizes it.
        """
        if service is not None:
            return max(i.nodes.get(service, 0) for i in self.intervals)
        peak = self.__dict__.get("_peak_nodes")
        if peak is None:
            peak = max(i.total_nodes for i in self.intervals)
            self.__dict__["_peak_nodes"] = peak
        return peak

    def total_node_hours(self, service: str | None = None) -> float:
        total = 0.0
        for interval in self.intervals:
            nodes = (
                interval.total_nodes
                if service is None
                else interval.nodes.get(service, 0)
            )
            total += nodes * interval.duration_hours
        return total

    def total_uploaded_gb(self, service: str | None = None) -> float:
        total = 0.0
        for interval in self.intervals:
            if service is None:
                total += interval.total_upload_gb
            else:
                total += interval.upload_gb.get(service, 0.0)
        return total

    def total_map_gb(self) -> float:
        return sum(i.map_gb for i in self.intervals)

    def total_reduce_gb(self) -> float:
        return sum(i.reduce_gb for i in self.intervals)

    def total_downloaded_gb(self) -> float:
        return sum(i.total_download_gb for i in self.intervals)

    def node_allocation_series(self, service: str | None = None) -> list[tuple[float, int]]:
        """(start_hour, nodes) pairs — the paper's Fig. 12a series."""
        series = []
        for interval in self.intervals:
            nodes = (
                interval.total_nodes
                if service is None
                else interval.nodes.get(service, 0)
            )
            series.append((interval.start_hour, nodes))
        return series

    def describe(self) -> str:
        """Human-readable plan table (one row per non-idle interval)."""
        lines = [
            f"plan: cost=${self.predicted_cost:.2f} "
            f"completion={self.predicted_completion_hours:.2f}h "
            f"status={self.solver_status}",
            f"{'t':>4} {'nodes':>18} {'upload':>10} {'map':>8} "
            f"{'reduce':>8} {'download':>9}",
        ]
        for interval in self.intervals:
            if interval.is_idle():
                continue
            nodes = ",".join(
                f"{name.split('.')[-1]}={n}"
                for name, n in sorted(interval.nodes.items())
                if n > 0
            ) or "-"
            lines.append(
                f"{interval.start_hour:>4.1f} {nodes:>18} "
                f"{interval.total_upload_gb:>9.2f}G {interval.map_gb:>7.2f}G "
                f"{interval.reduce_gb:>7.3f}G {interval.total_download_gb:>8.3f}G"
            )
        return "\n".join(lines)

