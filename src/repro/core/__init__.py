"""Conductor core: planner, controller, accounting, predictors.

The public planning API:

- :func:`plan_job` / :class:`Planner` — problem in, plan out.
- :class:`PlannerJob`, :class:`Goal`, :class:`NetworkConditions`,
  :class:`SystemState`, :class:`PlanningProblem` — the planning vocabulary.
- :class:`ExecutionPlan` — the solver's answer, deployable per interval.
- :class:`CostLedger` — fine-grained internal accounting (Section 6.1).
- Spot predictors (Sections 4.7, 6.5), all in :mod:`repro.core.predictor`:
  the paper's :class:`OptimalPredictor`, :class:`CurrentPricePredictor`
  and :class:`WindowMaxPredictor`, plus the ablation's
  :class:`EwmaPredictor`, :class:`SeasonalNaivePredictor`,
  :class:`Ar1Predictor`, :class:`QuantilePredictor` and
  :class:`MarginBidder`.
"""

from ..accounting import CostCategory, CostLedger, LedgerEntry
from .conditions import ActualConditions
from .controller import (
    ControllerConfig,
    ControllerResult,
    ControllerRun,
    JobController,
    ReplanRecord,
)
from .deployments import (
    DeploymentResult,
    DeploymentScenario,
    run_conductor,
    run_hadoop_direct,
    run_hadoop_s3,
    run_hadoop_upload_first,
)
from .executor import FluidExecutor, IntervalOutcome
from .model_builder import BuiltModel, PlanningError, build_model
from .pipeline_planner import (
    PipelinePlan,
    PipelinePlanningError,
    PipelineRunResult,
    StagePlan,
    estimate_run_distribution,
    plan_pipeline,
    run_pipeline_with_failures,
)
from .plan import ExecutionPlan, PlanInterval
from .planner import Planner, plan_job
from .reliability import (
    ExpectedOutcome,
    PipelineReliabilityModel,
    RetentionPolicy,
    StageOutcome,
    StageProfile,
    StorageTier,
    TierChoice,
    choose_tiers,
    durable_premium_break_even,
)
from .spot_sim import (
    SpotScenarioResult,
    run_regular_baseline,
    run_spot_scenario,
    spot_services,
)
from .predictor import (
    Ar1Predictor,
    CurrentPricePredictor,
    EwmaPredictor,
    MarginBidder,
    OptimalPredictor,
    QuantilePredictor,
    SeasonalNaivePredictor,
    SpotPredictor,
    WindowMaxPredictor,
    extended_predictor_suite,
    forecast_errors,
    predictor_suite,
)
from .problem import (
    Goal,
    GoalKind,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
)

__all__ = [
    "Ar1Predictor",
    "BuiltModel",
    "ControllerConfig",
    "ControllerResult",
    "ControllerRun",
    "JobController",
    "ReplanRecord",
    "CostCategory",
    "EwmaPredictor",
    "MarginBidder",
    "QuantilePredictor",
    "SeasonalNaivePredictor",
    "extended_predictor_suite",
    "forecast_errors",
    "CostLedger",
    "CurrentPricePredictor",
    "ExecutionPlan",
    "ExpectedOutcome",
    "Goal",
    "GoalKind",
    "LedgerEntry",
    "NetworkConditions",
    "OptimalPredictor",
    "PipelinePlan",
    "PipelinePlanningError",
    "PipelineReliabilityModel",
    "PipelineRunResult",
    "PlanInterval",
    "Planner",
    "PlannerJob",
    "PlanningError",
    "PlanningProblem",
    "RetentionPolicy",
    "SpotPredictor",
    "StageOutcome",
    "StagePlan",
    "StageProfile",
    "StorageTier",
    "SystemState",
    "TierChoice",
    "WindowMaxPredictor",
    "build_model",
    "choose_tiers",
    "durable_premium_break_even",
    "estimate_run_distribution",
    "plan_job",
    "plan_pipeline",
    "predictor_suite",
    "run_pipeline_with_failures",
    "ActualConditions",
    "DeploymentResult",
    "DeploymentScenario",
    "FluidExecutor",
    "IntervalOutcome",
    "SpotScenarioResult",
    "run_conductor",
    "run_hadoop_direct",
    "run_hadoop_s3",
    "run_hadoop_upload_first",
    "run_regular_baseline",
    "run_spot_scenario",
    "spot_services",
]
