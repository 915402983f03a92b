"""The job controller: deploy, monitor, adapt (paper Sections 5.2, 5.4).

The controller closes the loop the paper describes:

1. generate a model and solve it for an execution plan;
2. deploy the plan interval by interval (through the fluid executor,
   which is the ``sim`` backend; ``pool``/``stub`` add a task runner
   underneath it, see :mod:`repro.exec`);
3. monitor execution progress and spot prices;
4. on significant deviation — slower/faster nodes than modeled, out-bid
   spot instances, mispredicted prices — rebuild the model *from the
   current system state* and continue with the updated plan.

Fig. 12 of the paper is exactly one run of this loop with a 3.3×
throughput misprediction.

Two ways to drive it:

- :meth:`JobController.run` owns the whole loop (submission to
  completion) and returns only the result — the benches' and the
  spot-market simulator's path;
- :meth:`JobController.start` returns a steppable
  :class:`ControllerRun` that executes **one interval per** ``step()``
  call.  Its caller owns the loop: :meth:`repro.api.Orchestrator.deploy`
  steps one deployment on the calling thread and streams each interval
  as it happens, and the fleet runtime of :mod:`repro.fleet` interleaves
  many deployments over one simulated substrate, injecting event-driven
  re-plans between steps via :meth:`ControllerRun.request_replan`.

*When* to re-plan is decided by :meth:`ControllerRun.monitor`, the
paper's monitor (eviction, failure, deviation, price), or — for a
controller built with ``cadence_hours`` — by a fixed cadence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cloud.spot import SpotTrace
from ..units import MB_PER_GB
from ..accounting import CostLedger
from .conditions import ActualConditions
from .executor import FluidExecutor, IntervalOutcome
from .model_builder import PlanningError
from .plan import ExecutionPlan
from .planner import Planner
from .predictor import SpotPredictor
from .problem import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
)

_EPS = 1e-9

#: Relative progress shortfall (vs. plan) that triggers re-planning.
DEVIATION_THRESHOLD = 0.15
#: Relative node-rate misestimate that updates beliefs and re-plans.
RATE_DEVIATION_THRESHOLD = 0.15
#: Relative spot price misestimate that triggers re-planning.
PRICE_DEVIATION_THRESHOLD = 0.25
#: When the remaining deadline is infeasible, extend the horizon by this
#: factor per attempt, up to ``MAX_HORIZON_FACTOR`` times the deadline
#: (the job then *misses* the deadline but still completes, as a real
#: deployment would).
HORIZON_EXTENSION = 1.5
MAX_HORIZON_FACTOR = 4.0


@dataclass
class ControllerConfig:
    """Adaptation knobs a caller may set."""

    #: Hard cap on re-planning rounds (runaway guard).
    max_replans: int = 64
    #: Map task size used for the completed-task series (Fig. 12b).
    split_mb: float = 64.0


@dataclass(frozen=True)
class ReplanRecord:
    """One re-planning round: when, why, and which plan it produced.

    ``kind`` is the trigger taxonomy of ``docs/adaptation.md``
    (``interval`` / ``deviation`` / ``price`` / ``eviction`` /
    ``failure`` / ``capacity``), plus ``exhausted`` for the controller's
    forced re-plan when the plan ran out with work remaining, and
    ``external`` for re-plans requested by an outside scheduler (the
    fleet runtime).
    """

    hour: float
    kind: str
    reason: str
    #: Index of the produced plan in :attr:`ControllerResult.plans`.
    plan_index: int


@dataclass
class ControllerResult:
    """Full record of a controlled deployment."""

    completed: bool
    completion_hours: float
    total_cost: float
    ledger: CostLedger
    outcomes: list[IntervalOutcome]
    #: Plan history: plans[0] is the initial plan, one entry per re-plan.
    plans: list[ExecutionPlan]
    replans: int
    deadline_hours: float
    deadline_met: bool
    final_state: SystemState
    #: (hour, total allocated nodes) step series — Fig. 12a.
    node_series: list[tuple[float, int]] = field(default_factory=list)
    #: (hour, completed tasks) series — Fig. 12b.
    task_series: list[tuple[float, int]] = field(default_factory=list)
    #: Why each re-plan happened, in order (one per entry in ``plans[1:]``).
    replan_records: list[ReplanRecord] = field(default_factory=list)

    @property
    def total_tasks(self) -> int:
        return self.task_series[-1][1] if self.task_series else 0


class JobController:
    """Owns one job's deployment from submission to completion."""

    def __init__(
        self,
        job: PlannerJob,
        services,
        goal: Goal,
        network: NetworkConditions | None = None,
        planner: Planner | None = None,
        config: ControllerConfig | None = None,
        predictor: SpotPredictor | None = None,
        trace: SpotTrace | None = None,
        trace_offset_hours: float = 0.0,
        problem_kwargs: dict | None = None,
        cadence_hours: float | None = None,
        backend: str = "sim",
        backend_options: dict | None = None,
    ) -> None:
        # Imported lazily, as in ``_executor``: repro.exec sits above core.
        from ..exec import BACKENDS, DEFAULT_OPTIONS

        if backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {backend!r}; "
                f"expected one of {list(BACKENDS)}"
            )
        unknown = set(backend_options or {}) - set(DEFAULT_OPTIONS)
        if unknown:
            raise ValueError(
                f"unknown backend options {sorted(unknown)}; "
                f"expected a subset of {sorted(DEFAULT_OPTIONS)}"
            )
        if cadence_hours is not None and cadence_hours <= 0:
            raise ValueError("cadence_hours must be positive")
        self.job = job
        self.services = list(services)
        self.goal = goal
        self.network = network or NetworkConditions()
        self.planner = planner or Planner()
        self.config = config or ControllerConfig()
        self.predictor = predictor
        self.trace = trace
        self.trace_offset_hours = trace_offset_hours
        self.problem_kwargs = dict(problem_kwargs or {})
        #: ``None``: re-plan when :meth:`ControllerRun.monitor` says so.
        #: A number: re-plan only when a multiple of it is crossed (the
        #: fleet's cadence; the fleet runs the monitor itself).
        self.cadence_hours = cadence_hours
        #: Execution backend selector (see :data:`repro.exec.BACKENDS`).
        self.backend = backend
        self.backend_options = dict(backend_options or {})
        self._spot_names = [s.name for s in self.services if s.is_spot]
        if self._spot_names and (predictor is None or trace is None):
            raise ValueError("spot services require a predictor and a trace")
        #: Believed per-node throughputs, updated from observations.
        self._believed: dict[str, float] = {
            s.name: s.throughput_gb_per_hour for s in self.services
        }

    # -- public ------------------------------------------------------------

    def run(self, actual: ActualConditions | None = None) -> ControllerResult:
        """Deploy the job against ``actual`` conditions until completion.

        ``actual`` holds the ground-truth runtime conditions the executor
        simulates against (node rates, WAN factors, realized spot
        prices); it defaults to "the world behaves exactly as modeled".

        Returns the full :class:`ControllerResult`: cost ledger, plan
        history, every interval outcome, and one :class:`ReplanRecord`
        per adaptation round.  Equivalent to driving
        :meth:`start`/:meth:`ControllerRun.step` to completion.
        """
        run = self.start(actual)
        try:
            while run.step() is not None:
                pass
            return run.result()
        finally:
            run.close()

    def start(
        self,
        actual: ActualConditions | None = None,
        on_replan=None,
    ) -> "ControllerRun":
        """Plan the job and return a steppable deployment.

        Solves the initial plan synchronously (raising
        :class:`PlanningError` exactly as :meth:`run` would) but
        executes nothing: the caller owns the clock and advances the
        deployment one interval at a time with
        :meth:`ControllerRun.step`.  This is the fleet scheduler's entry
        point.
        """
        return ControllerRun(self, actual, on_replan=on_replan)

    def _executor(self, problem: PlanningProblem, actual, ledger):
        # Imported lazily: repro.exec sits above core in the layering
        # (its WorkExecutor subclasses FluidExecutor), so a module-level
        # import would be a cycle.
        from ..exec import make_executor

        return make_executor(
            self.backend, problem, actual, ledger,
            hour_offset=self.trace_offset_hours,
            options=self.backend_options or None,
        )

    # -- planning ------------------------------------------------------------

    def _believed_services(self):
        return [
            s.replace(throughput_gb_per_hour=self._believed[s.name])
            if s.can_compute
            else s
            for s in self.services
        ]

    def _problem(
        self, state: SystemState, deadline_override: float | None = None
    ) -> PlanningProblem:
        deadline = float(self.goal.deadline_hours or 0.0)
        remaining = (deadline_override or deadline) - state.hour
        remaining = max(remaining, 1.0)
        goal = Goal(
            kind=self.goal.kind,
            deadline_hours=remaining,
            budget_usd=self.goal.budget_usd,
        )
        estimates = self._spot_estimates(state, math.ceil(remaining))
        # Re-planning starts from a snapshot whose clock is zeroed for the
        # model (interval indices restart) but keeps absolute placement.
        snapshot = SystemState(
            hour=state.hour,
            source_remaining_gb=state.source_remaining_gb,
            stored_input=dict(state.stored_input),
            stored_output=dict(state.stored_output),
            stored_result=dict(state.stored_result),
            map_done_gb=state.map_done_gb,
            reduce_done_gb=state.reduce_done_gb,
            downloaded_gb=state.downloaded_gb,
        )
        return PlanningProblem(
            job=self.job,
            services=self._believed_services(),
            network=self.network,
            goal=goal,
            state=snapshot,
            spot_price_estimates=estimates,
            **self.problem_kwargs,
        )

    def _plan(self, state: SystemState) -> tuple[ExecutionPlan, PlanningProblem]:
        problem = self._problem(state)
        return self.planner.plan(problem), problem

    def _plan_with_extension(
        self, state: SystemState
    ) -> tuple[ExecutionPlan, PlanningProblem]:
        """Remaining deadline infeasible: extend the horizon until a plan
        exists (the deployment will miss the deadline but finish)."""
        deadline = float(self.goal.deadline_hours or 0.0)
        horizon = max(deadline, state.hour + 1.0)
        last_error: PlanningError | None = None
        while horizon <= deadline * MAX_HORIZON_FACTOR:
            horizon = math.ceil(horizon * HORIZON_EXTENSION)
            try:
                problem = self._problem(state, deadline_override=float(horizon))
                return self.planner.plan(problem), problem
            except PlanningError as exc:
                last_error = exc
        raise PlanningError(
            f"no feasible plan within {MAX_HORIZON_FACTOR}x deadline",
            status="infeasible",
            budgeted=self.goal.budget_usd is not None,
        ) from last_error

    def _spot_estimates(self, state: SystemState, horizon: int) -> dict:
        if not self._spot_names or self.predictor is None or self.trace is None:
            return {}
        now = self.trace_offset_hours + state.hour
        estimate = self.predictor.estimate(self.trace, now, horizon)
        return {name: estimate for name in self._spot_names}

    # -- monitoring ------------------------------------------------------------

    def _update_bids(self, executor: FluidExecutor, state: SystemState) -> None:
        if not self._spot_names or self.predictor is None or self.trace is None:
            return
        now = self.trace_offset_hours + state.hour
        by_name = {s.name: s for s in self.services}
        for name in self._spot_names:
            bid = self.predictor.bid(self.trace, now)
            # Never bid above the on-demand price: past that point the
            # customer would simply rent regular instances instead.
            ceiling = by_name[name].price_per_node_hour
            if ceiling > 0:
                bid = min(bid, ceiling)
            executor.bids[name] = bid

    def _learn_rates(self, outcome: IntervalOutcome) -> None:
        """Fold observed per-node rates back into the model's beliefs."""
        for name, observed in outcome.observed_rates.items():
            if observed > 0:
                self._believed[name] = observed / self.job.throughput_scale

    def scale_belief(self, name: str, factor: float) -> None:
        """Scale the believed per-node rate for one service.

        The notification path for capability changes known *before* they
        are observed — the fleet scheduler applies a node-failure
        event's severity here so the re-plan it requests already models
        the degraded service instead of re-solving on stale beliefs.
        Subsequent observations (``_learn_rates``) overwrite the scaled
        value with measured reality.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        if name in self._believed:
            self._believed[name] *= factor

    def _completed_tasks(self, state: SystemState) -> int:
        split_gb = self.config.split_mb / MB_PER_GB
        map_tasks = int(state.map_done_gb / split_gb + 1e-6)
        reduce_tasks = 0
        if self.job.map_output_gb > _EPS:
            total_reducers = max(1, int(round(self.job.map_output_gb / split_gb)) or 1)
            frac = state.reduce_done_gb / self.job.map_output_gb
            reduce_tasks = int(frac * total_reducers + 1e-6)
        return map_tasks + reduce_tasks


class ControllerRun:
    """One in-flight deployment, advanced one interval per :meth:`step`.

    Owns the mutable deployment state the controller's loop used to keep
    on its stack: the :class:`SystemState`, the cost ledger, the plan
    history and the executor.  :meth:`JobController.run` is now a thin
    loop over this class; external schedulers drive it directly and may
    inject re-plans between steps with :meth:`request_replan` — that is
    the mechanism the fleet runtime uses to turn substrate events
    (price spikes, evictions, failures) into targeted adaptations.
    """

    def __init__(
        self,
        controller: JobController,
        actual: ActualConditions | None = None,
        on_replan=None,
    ) -> None:
        self.controller = controller
        self.actual = actual or ActualConditions.as_predicted()
        self.on_replan = on_replan
        self.deadline = float(controller.goal.deadline_hours or 0.0)
        self.max_hours = self.deadline * MAX_HORIZON_FACTOR
        self.state = SystemState.initial(controller.job)
        self.ledger = CostLedger()
        self.outcomes: list[IntervalOutcome] = []
        self.node_series: list[tuple[float, int]] = []
        self.task_series: list[tuple[float, int]] = [(0.0, 0)]
        self.replans = 0
        self.replan_records: list[ReplanRecord] = []
        self._pending: tuple[str, str, bool] | None = None
        self._halted = False
        plan, problem = controller._plan(self.state)
        self.plans: list[ExecutionPlan] = [plan]
        self._estimates = dict(problem.spot_price_estimates)
        self._executor = controller._executor(problem, self.actual, self.ledger)

    # -- driving -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the job finished, halted, or ran out of horizon."""
        return (
            self._halted
            or self._executor.is_complete(self.state)
            or not self.state.hour < self.max_hours - _EPS
        )

    def close(self) -> None:
        """Release backend resources (worker pools, subprocesses).

        Idempotent; a no-op for the sim backend.  Owners that drive a
        run (``JobController.run``, ``Orchestrator.deploy``, the fleet
        scheduler) call this when the run ends or its loop raises.
        """
        self._executor.close()

    def request_replan(
        self, reason: str, kind: str = "external", learn: bool = False
    ) -> bool:
        """Schedule a re-plan before the next interval executes.

        The event-driven entry point: the fleet scheduler calls this
        when a substrate event (price spike, eviction, node failure,
        capacity change) concerns this deployment, instead of waiting
        for the controller's own cadence.  With ``learn=True`` the last
        interval's observed node rates are folded into the model first
        (the monitor's semantics).  Returns
        ``False`` — and schedules nothing — when the run is already
        done, the ``max_replans`` cap is reached, or a re-plan is
        already pending: one re-plan serves every cause that arrived in
        the same step, and the first request wins (callers budgeting
        re-plans should only charge for ``True``).
        """
        if self.done or self.replans >= self.controller.config.max_replans:
            return False
        if self._pending is not None:
            return False
        self._pending = (kind, reason, learn)
        return True

    def step(self) -> IntervalOutcome | None:
        """Execute the next planned interval; ``None`` once done.

        Order of business: adopt any re-plan requested since the last
        step, refresh spot bids, execute one interval against the actual
        conditions, then consult :meth:`monitor` — or, with
        ``cadence_hours``, the cadence alone — and the plan-exhausted
        fallback for a reactive re-plan.
        """
        if self.done:
            return None
        controller = self.controller
        config = controller.config
        state = self.state

        if self._pending is not None:
            kind, reason, learn = self._pending
            self._pending = None
            if self.replans < config.max_replans:
                if learn and self.outcomes:
                    controller._learn_rates(self.outcomes[-1])
                self._replan(kind, reason)

        plan = self.plans[-1]
        interval = plan.interval_at(state.hour)
        controller._update_bids(self._executor, state)
        outcome = self._executor.execute_interval(interval, state)
        self.outcomes.append(outcome)
        self.node_series.append((outcome.start_hour, sum(outcome.nodes.values())))
        self.task_series.append((state.hour, controller._completed_tasks(state)))

        if self._executor.is_complete(state):
            return outcome
        # Reactive re-plans are *scheduled* here and adopted at the top
        # of the next step, so streamed events stay in causal order:
        # the triggering interval first, then its re-plan, then the
        # first interval the new plan executes.
        cadence = controller.cadence_hours
        if cadence is None:
            decision = self.monitor(outcome)
        else:
            # A cadence mark in (start, end] schedules a re-plan before
            # the next interval; nothing else does.
            start = outcome.start_hour
            mark = int((start + outcome.duration_hours + _EPS) / cadence)
            decision = (
                ("interval", f"scheduled re-plan at t={mark * cadence:g} h")
                if mark > int((start + _EPS) / cadence) else None
            )
        if decision is not None and self.replans < config.max_replans:
            self._pending = (*decision, True)
        elif state.hour >= plan.intervals[-1].end_hour - _EPS:
            # Plan exhausted but work remains (e.g. persistent out-bid):
            # force a re-plan to keep making progress.
            if self.replans >= config.max_replans:
                self._halted = True
                return outcome
            self._pending = (
                "exhausted", "plan exhausted with work remaining", False
            )
        return outcome

    def monitor(self, outcome: IntervalOutcome) -> tuple[str, str] | None:
        """The paper's monitor: ``(kind, reason)`` if ``outcome`` shows the
        world has left the model, else ``None``.

        Hard evidence first — out-bid spot instances (``eviction``),
        destroyed spot storage then failed workers (``failure``) — then
        a progress shortfall or a node rate off belief (``deviation``),
        then a realized spot price off the plan's estimate (``price``).
        The fleet scheduler calls this itself for the deployments it
        steps.
        """
        if outcome.outbid_services:
            return "eviction", f"out-bid on {','.join(outcome.outbid_services)}"
        if outcome.spot_data_lost_gb > 1e-6:
            return "failure", (
                f"spot storage loss of {outcome.spot_data_lost_gb:.1f} GB"
            )
        if outcome.failed_services:
            return "failure", (
                f"worker failure on {','.join(sorted(outcome.failed_services))}"
            )
        if outcome.map_shortfall > DEVIATION_THRESHOLD:
            return "deviation", f"progress shortfall {outcome.map_shortfall:.0%}"
        controller = self.controller
        scale = controller.job.throughput_scale
        for name, observed in outcome.observed_rates.items():
            believed = controller._believed.get(name, 0.0) * scale
            if believed <= 0:
                continue
            rel = abs(observed - believed) / believed
            if rel > RATE_DEVIATION_THRESHOLD:
                return "deviation", f"rate deviation on {name}: {rel:.0%}"
        trace = controller.trace
        if trace is None or not controller._spot_names or not self._estimates:
            return None
        realized = trace.price_at(controller.trace_offset_hours + outcome.start_hour)
        for name in controller._spot_names:
            series = self._estimates.get(name)
            if series is None or len(series) == 0:
                continue
            expected = float(series[min(max(outcome.index - 1, 0), len(series) - 1)])
            if expected > 0 and (
                abs(realized - expected) / expected > PRICE_DEVIATION_THRESHOLD
            ):
                return "price", f"spot price deviation on {name}"
        return None

    def result(self) -> ControllerResult:
        """The :class:`ControllerResult` for the run so far.

        The list series (outcomes, plans, replan records, node/task
        series) are copied, so a mid-run result keeps ``plans[1:]``
        lined up with ``replan_records`` even if the run is stepped
        further afterwards; ``ledger`` and ``final_state`` remain the
        run's live objects.
        """
        state = self.state
        completed = self._executor.is_complete(state)
        return ControllerResult(
            completed=completed,
            completion_hours=state.hour,
            total_cost=self.ledger.total(),
            ledger=self.ledger,
            outcomes=list(self.outcomes),
            plans=list(self.plans),
            replans=self.replans,
            deadline_hours=self.deadline,
            deadline_met=completed and state.hour <= self.deadline + _EPS,
            final_state=state,
            node_series=list(self.node_series),
            task_series=list(self.task_series),
            replan_records=list(self.replan_records),
        )

    # -- internals ---------------------------------------------------------

    def _replan(self, kind: str, reason: str) -> None:
        controller = self.controller
        try:
            plan, problem = controller._plan(self.state)
        except PlanningError:
            plan, problem = controller._plan_with_extension(self.state)
        self.plans.append(plan)
        self._estimates = dict(problem.spot_price_estimates)
        self.replans += 1
        record = ReplanRecord(
            hour=self.state.hour,
            kind=kind,
            reason=reason,
            plan_index=len(self.plans) - 1,
        )
        self.replan_records.append(record)
        if self.on_replan is not None:
            self.on_replan(record)
        # Rebind instead of recreating: the executor's runtime state
        # (worker pools, task counters, collected partials) survives the
        # re-plan — only the believed problem changes.  An extended
        # horizon changes only the goal, which executors do not read.
        self._executor.rebind(problem)
