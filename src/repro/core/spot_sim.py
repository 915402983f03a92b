"""Spot market deployment simulations (paper Section 6.5, Fig. 14).

Runs the same job repeatedly, starting at different offsets within a spot
price trace, once per predictor scenario, and summarizes realized costs.
The paper's nine scenarios: ``regular`` (on-demand instances only) and
``{aws,el} x {opt,p0,p5,p13}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..cloud.catalog import ec2_spot_m1_large, s3
from ..cloud.services import ServiceDescription
from ..cloud.spot import SpotTrace, summarize_costs
from .conditions import ActualConditions
from .controller import ControllerResult, JobController
from .predictor import SpotPredictor
from .problem import Goal, NetworkConditions, PlannerJob


def spot_services(storage_on_spot_nodes: bool = False) -> list[ServiceDescription]:
    """Catalog for spot scenarios: spot m1.large compute + S3 storage.

    By default the planner may not park data on spot-instance disks —
    out-bid termination would destroy it (the fault-recovery concern of
    Section 2.1); S3 holds all state so an out-bid hour only stalls
    compute.
    """
    spot = ec2_spot_m1_large()
    if not storage_on_spot_nodes:
        spot = spot.replace(can_store=False, storage_gb_per_node=0.0)
    return [spot, s3()]


@dataclass
class SpotScenarioResult:
    """Realized costs for one (trace, predictor) scenario."""

    label: str
    costs: list[float]
    completion_hours: list[float]
    replans: list[int]
    runs: list[ControllerResult] = field(repr=False, default_factory=list)

    @property
    def summary(self) -> dict[str, float]:
        return summarize_costs(self.costs)


def run_spot_scenario(
    job: PlannerJob,
    trace: SpotTrace,
    predictor: SpotPredictor,
    deadline_hours: float = 24.0,
    start_offsets: Sequence[float] | None = None,
    network: NetworkConditions | None = None,
    services: Sequence[ServiceDescription] | None = None,
    label: str | None = None,
    keep_runs: bool = False,
) -> SpotScenarioResult:
    """Deploy ``job`` once per start offset under one predictor.

    Offsets default to one run per day of the trace, skipping the first
    day (predictors need history) and the last ``deadline`` hours.
    """
    services = list(services) if services is not None else spot_services()
    network = network or NetworkConditions()
    if start_offsets is None:
        first = 24.0
        last = trace.hours - deadline_hours
        start_offsets = [h for h in range(int(first), int(last), 24)]
    spot_names = [s.name for s in services if s.is_spot]
    costs: list[float] = []
    completions: list[float] = []
    replans: list[int] = []
    runs: list[ControllerResult] = []
    for offset in start_offsets:
        controller = JobController(
            job,
            services,
            Goal.min_cost(deadline_hours=deadline_hours),
            network=network,
            predictor=predictor,
            trace=trace,
            trace_offset_hours=float(offset),
        )
        actual = ActualConditions(
            spot_traces={name: trace for name in spot_names}
        )
        result = controller.run(actual)
        costs.append(result.total_cost)
        completions.append(result.completion_hours)
        replans.append(result.replans)
        if keep_runs:
            runs.append(result)
    return SpotScenarioResult(
        label=label or f"{trace.label}-{predictor.name}",
        costs=costs,
        completion_hours=completions,
        replans=replans,
        runs=runs,
    )


def run_regular_baseline(
    job: PlannerJob,
    deadline_hours: float = 24.0,
    network: NetworkConditions | None = None,
    services: Sequence[ServiceDescription] | None = None,
) -> SpotScenarioResult:
    """The ``regular`` scenario: on-demand instances, no spot market.

    Deterministic (no trace dependence), so a single run suffices; the
    result is replicated into the same shape as spot scenarios.
    """
    from ..cloud.catalog import ec2_m1_large

    services = list(services) if services is not None else [ec2_m1_large(), s3()]
    controller = JobController(
        job,
        services,
        Goal.min_cost(deadline_hours=deadline_hours),
        network=network or NetworkConditions(),
    )
    result = controller.run(ActualConditions.as_predicted())
    return SpotScenarioResult(
        label="regular",
        costs=[result.total_cost],
        completion_hours=[result.completion_hours],
        replans=[result.replans],
    )
