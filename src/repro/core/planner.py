"""The planning front-end: problem in, execution plan out.

Wraps model generation (:mod:`repro.core.model_builder`) and solving with
the paper's operational policy (Section 4.8): bound solving time to three
minutes and accept the best feasible plan found, with CPLEX's role played
by scipy/HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..cloud.services import ServiceDescription
from .model_builder import build_model
from .plan import ExecutionPlan
from .problem import Goal, NetworkConditions, PlannerJob, PlanningProblem, SystemState


@dataclass
class Planner:
    """Turns planning problems into execution plans.

    Parameters mirror the paper's solver configuration: ``time_limit``
    (3 minutes, Section 4.8) and ``mip_gap`` (1 %, Section 6.6).
    """

    time_limit: float = 180.0
    mip_gap: float = 0.01

    def plan(self, problem: PlanningProblem) -> ExecutionPlan:
        """Build and solve the model; raise
        :class:`~repro.core.model_builder.PlanningError` when no feasible
        deployment exists within the horizon."""
        built = build_model(problem)
        return built.extract_plan(built.solve(self.time_limit, self.mip_gap))


def plan_job(
    job: PlannerJob,
    services: Sequence[ServiceDescription],
    goal: Goal,
    network: NetworkConditions | None = None,
    state: SystemState | None = None,
    spot_price_estimates: Mapping[str, Sequence[float]] | None = None,
    upload_fractions: Mapping[str, float] | None = None,
    planner: Planner | None = None,
    **problem_kwargs,
) -> ExecutionPlan:
    """One-call convenience API: plan ``job`` over ``services`` for ``goal``.

    This is the quickstart entry point::

        plan = plan_job(
            PlannerJob(input_gb=32),
            public_cloud(),
            Goal.min_cost(deadline_hours=6.0),
        )
    """
    problem = PlanningProblem(
        job=job,
        services=list(services),
        network=network or NetworkConditions(),
        goal=goal,
        state=state,
        spot_price_estimates=spot_price_estimates or {},
        upload_fractions=upload_fractions or {},
        **problem_kwargs,
    )
    return (planner or Planner()).plan(problem)
