"""Planning and executing multi-stage (Pig-style) pipelines.

Conductor's planner works one MapReduce job at a time (Section 4.1);
Pig programs compile to *chains* of such jobs (Section 2.1).  This
module closes the loop:

- :func:`plan_pipeline` runs the LP planner per stage, splitting the
  user deadline across stages by estimated work share and feeding each
  stage's input placement forward through a :class:`SystemState`
  (later stages read from cloud storage — no second WAN upload);
- storage tiers for every intermediate are chosen by the reliability
  model (:mod:`repro.core.reliability`);
- :func:`run_pipeline_with_failures` Monte-Carlo-executes the plan
  against injected intermediate-data loss, replaying the recovery
  cascade the paper describes ("they must be recomputed by re-executing
  all previous stages") so the expected-cost model can be validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cloud.services import ServiceDescription
from .plan import ExecutionPlan
from .planner import Planner
from .problem import Goal, GoalKind, NetworkConditions, PlannerJob, PlanningProblem, SystemState
from .reliability import (
    ExpectedOutcome,
    RetentionPolicy,
    StageProfile,
    StorageTier,
    TierChoice,
    choose_tiers,
)


class PipelinePlanningError(RuntimeError):
    """No feasible stage-by-stage deployment within the deadline."""


@dataclass(frozen=True)
class StagePlan:
    """One stage's LP plan plus its reliability bookkeeping."""

    job: PlannerJob
    plan: ExecutionPlan
    profile: StageProfile
    tier: StorageTier

    @property
    def name(self) -> str:
        return self.job.name


@dataclass(frozen=True)
class PipelinePlan:
    """The full multi-stage deployment plan."""

    stages: tuple[StagePlan, ...]
    retention: RetentionPolicy
    expected: ExpectedOutcome

    @property
    def total_planned_cost(self) -> float:
        """Sum of per-stage LP costs (no failures)."""
        return sum(s.plan.predicted_cost for s in self.stages)

    @property
    def total_planned_hours(self) -> float:
        return sum(s.plan.predicted_completion_hours for s in self.stages)

    @property
    def expected_cost(self) -> float:
        """Expected cost including recovery cascades and tier storage."""
        return self.expected.total_cost

    def describe(self) -> str:
        lines = []
        for stage in self.stages:
            lines.append(
                f"{stage.name:>24}  ${stage.plan.predicted_cost:6.2f}  "
                f"{stage.plan.predicted_completion_hours:5.2f}h  "
                f"out={stage.profile.output_gb:7.2f}GB  tier={stage.tier.name}"
            )
        lines.append(
            f"{'expected total':>24}  ${self.expected.total_cost:6.2f}  "
            f"{self.expected.total_hours:5.2f}h"
        )
        return "\n".join(lines)


def plan_pipeline(
    jobs: Sequence[PlannerJob],
    services: Sequence[ServiceDescription],
    goal: Goal,
    network: NetworkConditions,
    tiers: Sequence[StorageTier] | None = None,
    retention: RetentionPolicy = RetentionPolicy.KEEP_ALL,
    planner: Planner | None = None,
    interval_hours: float = 1.0,
) -> PipelinePlan:
    """Plan a chain of MapReduce stages under one overall deadline.

    ``jobs`` come from :meth:`repro.pig.CompiledPipeline.to_planner_jobs`
    (or are hand-built).  Stages run sequentially; stage ``k``'s input
    is stage ``k-1``'s output, already resident on a cloud storage
    service, so only the first stage pays the WAN upload.

    The deadline splits across stages proportionally to a work
    estimate, and unused time flows forward: if stage 1 finishes early,
    stage 2 plans against the reclaimed slack.

    ``tiers`` defaults to a single always-durable tier priced at zero
    (reliability neutral); pass real tiers to trade storage price
    against recovery risk.
    """
    if not jobs:
        raise ValueError("pipeline has no stages")
    if goal.kind is not GoalKind.MINIMIZE_COST:
        raise ValueError("pipeline planning currently supports min-cost goals")
    deadline = float(goal.deadline_hours or 0.0)
    if deadline <= 0:
        raise ValueError("goal must carry a positive deadline")
    planner = planner or Planner()
    storage_services = [s for s in services if s.can_store]
    if not storage_services:
        raise ValueError("no storage service for intermediates")

    weights = _work_estimates(jobs, services, network)
    remaining_weight = float(sum(weights))
    remaining_deadline = deadline
    plans: list[ExecutionPlan] = []
    profiles: list[StageProfile] = []
    for index, job in enumerate(jobs):
        share = weights[index] / max(remaining_weight, 1e-12)
        stage_deadline = max(interval_hours, remaining_deadline * share)
        # Round up to whole intervals so the LP horizon is well-formed.
        stage_deadline = (
            math.ceil(stage_deadline / interval_hours - 1e-9) * interval_hours
        )
        stage_deadline = min(stage_deadline, max(interval_hours, remaining_deadline))
        state = _stage_state(job, index, profiles, storage_services)
        problem = PlanningProblem(
            job=job,
            services=list(services),
            network=network,
            goal=Goal.min_cost(deadline_hours=stage_deadline),
            state=state,
            interval_hours=interval_hours,
        )
        try:
            plan = planner.plan(problem)
        except Exception as exc:
            # One retry with every remaining hour — the proportional
            # split can under-provision a WAN-bound first stage.
            if remaining_deadline > stage_deadline + 1e-9:
                problem = PlanningProblem(
                    job=job,
                    services=list(services),
                    network=network,
                    goal=Goal.min_cost(
                        deadline_hours=math.ceil(remaining_deadline / interval_hours)
                        * interval_hours
                    ),
                    state=state,
                    interval_hours=interval_hours,
                )
                plan = planner.plan(problem)
            else:
                raise PipelinePlanningError(
                    f"stage {job.name!r} infeasible within "
                    f"{stage_deadline:.1f}h of the remaining deadline"
                ) from exc
        plans.append(plan)
        profiles.append(
            StageProfile(
                name=job.name,
                exec_cost=plan.predicted_cost,
                exec_hours=plan.predicted_completion_hours,
                output_gb=job.result_gb,
            )
        )
        remaining_deadline -= plan.predicted_completion_hours
        remaining_weight -= weights[index]
        if remaining_deadline < -1e-6 and index + 1 < len(jobs):
            raise PipelinePlanningError(
                f"deadline exhausted after stage {job.name!r} "
                f"({deadline - remaining_deadline:.1f}h used of {deadline:.1f}h)"
            )

    if tiers is None:
        tiers = [StorageTier("durable", 0.0, 0.0)]
    choice: TierChoice = choose_tiers(profiles, tiers, retention)
    stage_plans = tuple(
        StagePlan(job=job, plan=plan, profile=profile, tier=tier)
        for job, plan, profile, tier in zip(
            jobs, plans, profiles, choice.assignment
        )
    )
    return PipelinePlan(
        stages=stage_plans, retention=retention, expected=choice.outcome
    )


def _work_estimates(
    jobs: Sequence[PlannerJob],
    services: Sequence[ServiceDescription],
    network: NetworkConditions,
) -> list[float]:
    """Rough per-stage hours used to apportion the deadline.

    Stage 1 is WAN-bound (input crosses the uplink); later stages are
    compute-bound at a nominal moderate cluster width.
    """
    compute = [s for s in services if s.can_compute]
    best_rate = max(
        (jobs[0].map_rate(s) for s in compute), default=1.0
    )
    nominal_nodes = 16.0  # the paper's recurring plan width
    estimates = []
    for index, job in enumerate(jobs):
        compute_hours = job.input_gb / max(best_rate * nominal_nodes, 1e-9)
        if index == 0:
            upload_hours = job.input_gb / network.uplink_gb_per_hour
            estimates.append(max(upload_hours, compute_hours))
        else:
            estimates.append(max(compute_hours, 0.25))
    return estimates


def _stage_state(
    job: PlannerJob,
    index: int,
    profiles: list[StageProfile],
    storage_services: Sequence[ServiceDescription],
) -> SystemState | None:
    """Initial state for stage ``index``: input pre-placed in the cloud."""
    if index == 0:
        return None
    holder = storage_services[0]
    return SystemState(
        hour=0.0,
        source_remaining_gb=0.0,
        stored_input={holder.name: job.input_gb},
    )


# ---------------------------------------------------------------------------
# Failure-injected execution (Monte Carlo over the recovery cascade)
# ---------------------------------------------------------------------------


@dataclass
class PipelineRunResult:
    """One failure-injected execution of a pipeline plan."""

    cost: float
    hours: float
    losses: int
    stage_attempts: list[int]


_MAX_TOTAL_ATTEMPTS = 100_000


def run_pipeline_with_failures(
    plan: PipelinePlan,
    rng: np.random.Generator | int | None = None,
) -> PipelineRunResult:
    """Execute the plan once with sampled intermediate-data loss.

    Tracks per-intermediate liveness exactly: a stage whose input is
    gone walks back to the deepest *surviving* predecessor (pipeline
    input if none, or if retention discards consumed intermediates) and
    re-executes forward — the paper's Section 2.1 recovery cascade.
    A loss mid-stage wastes a uniform fraction of that stage's attempt.
    """
    generator = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng)
    )
    stages = plan.stages
    n = len(stages)
    alive = [False] * n  # whether intermediate I_j currently exists
    attempts = [0] * n
    cost = 0.0
    hours = 0.0
    losses = 0
    j = 0
    total_attempts = 0
    while j < n:
        total_attempts += 1
        if total_attempts > _MAX_TOTAL_ATTEMPTS:
            raise RuntimeError(
                "failure injection did not converge; loss rates are too "
                "high for this pipeline to ever finish"
            )
        stage = stages[j]
        attempts[j] += 1
        duration = stage.profile.exec_hours
        # The input intermediate (j-1) is exposed while this stage runs.
        input_lost = False
        if j > 0 and not stages[j - 1].tier.is_durable:
            input_lost = generator.random() < stages[j - 1].tier.loss_within(
                duration
            )
        # Storage accrual for every live intermediate during this run.
        for k in range(n):
            if alive[k]:
                cost += (
                    stages[k].profile.output_gb
                    * stages[k].tier.cost_gb_hour
                    * duration
                )
        if input_lost:
            wasted = float(generator.uniform(0.0, 1.0))
            cost += stage.profile.exec_cost * wasted
            hours += duration * wasted
            losses += 1
            alive[j - 1] = False
            j = _recovery_start(plan, alive, j - 1)
            continue
        cost += stage.profile.exec_cost
        hours += duration
        alive[j] = True
        if (
            plan.retention is RetentionPolicy.DISCARD_AFTER_USE
            and j > 0
        ):
            alive[j - 1] = False
        j += 1
    # Final output handoff: one buffered hour on its tier.
    final = stages[-1]
    cost += final.profile.output_gb * final.tier.cost_gb_hour * 1.0
    return PipelineRunResult(
        cost=cost, hours=hours, losses=losses, stage_attempts=attempts
    )


def _recovery_start(plan: PipelinePlan, alive: list[bool], lost: int) -> int:
    """First stage to re-execute after losing intermediate ``lost``."""
    k = lost
    while k >= 0 and not alive[k]:
        k -= 1
    return k + 1


def estimate_run_distribution(
    plan: PipelinePlan,
    samples: int = 200,
    seed: int = 7,
) -> dict[str, float]:
    """Monte Carlo summary used by tests and the ablation bench."""
    generator = np.random.default_rng(seed)
    costs = []
    times = []
    loss_runs = 0
    for _ in range(samples):
        result = run_pipeline_with_failures(plan, generator)
        costs.append(result.cost)
        times.append(result.hours)
        loss_runs += 1 if result.losses else 0
    return {
        "mean_cost": float(np.mean(costs)),
        "max_cost": float(np.max(costs)),
        "std_cost": float(np.std(costs)),
        "mean_hours": float(np.mean(times)),
        "loss_run_fraction": loss_runs / samples,
    }
