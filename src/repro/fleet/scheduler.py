"""The fleet scheduler: event-driven replanning across deployments.

This is the runtime that makes the reproduction behave like a
multi-tenant Conductor instead of N independent ones.  A
:class:`FleetScheduler` steps many concurrent deployments in lockstep
over one shared :class:`~repro.fleet.substrate.Substrate`, and reacts to
the substrate's typed events (price spikes, evictions, node failures,
capacity changes) by asking exactly the *affected* deployments to
re-plan — immediately, not at the next polling interval:

- ``mode="event"`` (the adaptive runtime): deployments re-plan on a
  fixed safety cadence **plus** whenever a substrate event or an
  observed deviation concerns them, subject to a per-deployment
  ``replan_budget``;
- ``mode="interval"`` (the baseline): the same fleet, the same
  substrate, but re-planning happens *only* on the fixed cadence — the
  non-adaptive strawman ``benchmarks/bench_fleet_adaptation.py``
  measures against.

Re-plans triggered by one shared event coalesce: every controller in
the fleet plans through one :class:`~repro.fleet.replanner.CachingPlanner`,
so deployments in identical states solve once and the rest hit the plan
cache (the LRU the planning service uses for tenant requests, keyed on
the problem's canonical tuple).  A miss is ``Planner.plan``, the cold
solve.  Their spot estimates and bids come from one
:class:`~repro.fleet.replanner.SharedPredictor` per caller predictor,
which asks the caller's predictor each question once per hour.

A replan budget of zero disables the event-driven path entirely, so a
zero-budget ``"event"`` fleet behaves exactly like an ``"interval"``
one — that equivalence is pinned by the fleet tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.conditions import ActualConditions
from ..core.controller import ControllerResult, JobController
from ..core.planner import Planner
from ..core.problem import Goal, NetworkConditions, PlannerJob
from ..core.predictor import SpotPredictor
from .events import CapacityChange, NodeFailure, SubstrateEvent
from .replanner import CachingPlanner, SharedPredictor
from .substrate import Substrate

_EPS = 1e-9

#: Fleet scheduling modes.
MODES = ("event", "interval")
#: Simulated step size (hours): the substrate's events are hourly, and
#: every deployment's plan interval must match it.
STEP_HOURS = 1.0


@dataclass
class FleetConfig:
    """Scheduling policy for one fleet run."""

    #: ``"event"`` reacts to substrate events and observed deviations;
    #: ``"interval"`` re-plans only on the fixed cadence.
    mode: str = "event"
    #: Fixed re-plan cadence (hours) both modes share as a safety net.
    interval_cadence_hours: float = 6.0
    #: Event-driven re-plans allowed per deployment (0 = interval-only).
    replan_budget: int = 16
    #: Absolute substrate hour at which the fleet starts (trace offset).
    start_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.interval_cadence_hours <= 0:
            raise ValueError("interval_cadence_hours must be positive")
        if self.replan_budget < 0:
            raise ValueError("replan_budget must be non-negative")


class FleetDeployment:
    """One deployment under fleet control (created by ``add``)."""

    def __init__(
        self,
        index: int,
        name: str,
        controller: JobController,
        actual: ActualConditions,
        budget: int,
        base_rates: dict[str, float],
    ) -> None:
        self.index = index
        self.name = name
        self.controller = controller
        self.actual = actual
        #: Event-driven re-plans this deployment may still spend.
        self.budget = budget
        #: Undegraded actual per-node rates (failure recovery targets).
        self.base_rates = base_rates
        self.run = None  # ControllerRun, created when the fleet starts
        self.event_replans = 0
        #: (end_hour, service, severity) entries for in-flight failures.
        self.active_failures: list[tuple[float, str, float]] = []

    @property
    def service_names(self) -> set[str]:
        return {s.name for s in self.controller.services}

    @property
    def active(self) -> bool:
        return self.run is not None and not self.run.done


@dataclass
class FleetDeploymentSummary:
    """Per-deployment outcome of a fleet run."""

    name: str
    result: ControllerResult
    event_replans: int
    budget_remaining: int


@dataclass
class FleetResult:
    """Everything a fleet run produced, plus shared-solver statistics."""

    mode: str
    deployments: list[FleetDeploymentSummary]
    events: list[SubstrateEvent] = field(default_factory=list)
    solves: int = 0
    cache_hits: int = 0
    #: Always 0 (the fleet solves cold); benchmarks/perf/fleet_run.py reads them.
    warm_solves: int = 0
    batched_replans: int = 0
    #: Peak concurrent node demand per service across the whole fleet.
    peak_demand: dict[str, int] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return sum(d.result.total_cost for d in self.deployments)

    @property
    def total_replans(self) -> int:
        return sum(d.result.replans for d in self.deployments)

    @property
    def completed(self) -> int:
        return sum(1 for d in self.deployments if d.result.completed)

    @property
    def deadlines_met(self) -> int:
        return sum(1 for d in self.deployments if d.result.deadline_met)

    @property
    def makespan_hours(self) -> float:
        return max(
            (d.result.completion_hours for d in self.deployments), default=0.0
        )

    def describe(self) -> str:
        """Human-readable fleet summary (the ``repro fleet`` report)."""
        lines = [
            f"fleet ({self.mode}): {len(self.deployments)} deployments, "
            f"{self.completed} completed, {self.deadlines_met} met deadline",
            f"cost:     ${self.total_cost:.2f} total, "
            f"makespan {self.makespan_hours:.1f} h",
            f"re-plans: {self.total_replans} total "
            f"({sum(d.event_replans for d in self.deployments)} event-driven), "
            f"{self.solves} solves + {self.cache_hits} plan-cache hits",
            f"events:   {len(self.events)} substrate events",
        ]
        for summary in self.deployments:
            result = summary.result
            lines.append(
                f"  {summary.name:16s} ${result.total_cost:7.2f}  "
                f"{result.completion_hours:5.1f} h  "
                f"{result.replans} re-plans "
                f"({'met' if result.deadline_met else 'MISSED'})"
            )
        return "\n".join(lines)


def fleet_summary(result: FleetResult) -> dict:
    """The deterministic fleet summary the ``run_end`` trace record carries.

    Everything here is a pure function of the scenario (no wall-clock
    data), so verify-mode replay can compare it across runs.
    """
    return {
        "mode": result.mode,
        "total_cost": result.total_cost,
        "total_replans": result.total_replans,
        "completed": result.completed,
        "deadlines_met": result.deadlines_met,
        "makespan_hours": result.makespan_hours,
        "solves": result.solves,
        "cache_hits": result.cache_hits,
        "substrate_events": len(result.events),
        "deployments": [
            {
                "name": summary.name,
                "cost": summary.result.total_cost,
                "completion_hours": summary.result.completion_hours,
                "replans": summary.result.replans,
                "completed": summary.result.completed,
                "deadline_met": summary.result.deadline_met,
                "event_replans": summary.event_replans,
            }
            for summary in result.deployments
        ],
    }


class FleetScheduler:
    """Runs many deployments against one substrate, reactively.

    Usage::

        substrate = Substrate({"ec2.m1.large.spot": trace},
                              eviction_bids={"ec2.m1.large.spot": 0.34})
        fleet = FleetScheduler(substrate, FleetConfig(mode="event"))
        for i in range(8):
            fleet.add(f"tenant-{i}", job, spot_services(),
                      Goal.min_cost(deadline_hours=12.0),
                      predictor=WindowMaxPredictor(5))
        result = fleet.run(on_event=print)

    ``on_event`` receives every interval and re-plan as a versioned
    :class:`~repro.api.schemas.DeployEventV1` — the same wire format the
    ``repro fleet`` CLI streams.
    """

    def __init__(
        self,
        substrate: Substrate,
        config: FleetConfig | None = None,
        *,
        planner: Planner | None = None,
    ) -> None:
        self.substrate = substrate
        self.config = config or FleetConfig()
        self.replanner = CachingPlanner(planner)
        self.deployments: list[FleetDeployment] = []
        #: id(caller's predictor) -> the SharedPredictor wrapping it.
        self._predictors: dict[int, SharedPredictor] = {}

    # -- building ----------------------------------------------------------

    def add(
        self,
        name: str,
        job: PlannerJob,
        services,
        goal: Goal,
        *,
        network: NetworkConditions | None = None,
        predictor: SpotPredictor | None = None,
        actual_rates: dict[str, float] | None = None,
        problem_kwargs: dict | None = None,
    ) -> FleetDeployment:
        """Register one deployment with the fleet.

        The controller is wired for fleet control: it plans through the
        shared :class:`CachingPlanner`, asks ``predictor`` through the
        fleet's one :class:`SharedPredictor` for it, re-plans on the fleet's fixed
        cadence internally (event reactions are the *scheduler's* job,
        via :meth:`ControllerRun.monitor`), executes against the
        substrate's spot traces, and starts at the substrate's
        ``start_hour``.
        ``actual_rates`` injects ground-truth per-node throughputs (the
        Fig. 12 misprediction experiments); substrate node failures
        degrade these live.
        """
        services = list(services)
        problem_kwargs = dict(problem_kwargs or {})
        interval = float(problem_kwargs.get("interval_hours", 1.0))
        if abs(interval - STEP_HOURS) > _EPS:
            raise ValueError(
                f"deployment interval of {interval} h does not match the "
                f"fleet step of {STEP_HOURS} h"
            )
        spot_names = [s.name for s in services if s.is_spot]
        trace = None
        for spot_name in spot_names:
            if spot_name not in self.substrate.traces:
                raise ValueError(
                    f"spot service {spot_name!r} has no trace in the substrate"
                )
            trace = trace or self.substrate.traces[spot_name]
        if predictor is not None:
            shared = self._predictors.get(id(predictor))
            if shared is None:
                shared = self._predictors[id(predictor)] = SharedPredictor(
                    predictor
                )
            predictor = shared
        controller = JobController(
            job,
            services,
            goal,
            network=network,
            planner=self.replanner,
            predictor=predictor,
            trace=trace,
            trace_offset_hours=self.config.start_hour,
            problem_kwargs=problem_kwargs,
            cadence_hours=self.config.interval_cadence_hours,
        )
        base_rates = {
            s.name: (actual_rates or {}).get(s.name, s.throughput_gb_per_hour)
            for s in services
            if s.can_compute
        }
        actual = ActualConditions(
            throughput_gb_per_hour=dict(actual_rates or {}),
            spot_traces={
                spot_name: self.substrate.traces[spot_name]
                for spot_name in spot_names
            },
        )
        deployment = FleetDeployment(
            index=len(self.deployments) + 1,
            name=name,
            controller=controller,
            actual=actual,
            budget=self.config.replan_budget,
            base_rates=base_rates,
        )
        self.deployments.append(deployment)
        return deployment

    # -- running -----------------------------------------------------------

    def run(
        self,
        on_event=None,
        max_hours: float | None = None,
        tracer=None,
    ) -> FleetResult:
        """Drive every deployment to completion; returns the fleet record.

        Each simulated step: collect the substrate's events for the
        hour, apply ground-truth effects (node failures degrade rates in
        *both* modes — the world does not care about the policy), route
        events to affected deployments as re-plan requests (event mode,
        budget permitting), then step every active deployment one
        interval.  ``on_event`` receives a
        :class:`~repro.api.schemas.DeployEventV1` per executed interval
        and per adopted re-plan, in causal order.

        ``tracer`` (a :class:`~repro.obs.trace.RunTracer` on which
        ``begin`` has been called) additionally narrates the run into
        the durable trace log: per-deployment lifecycle records, every
        substrate event, the same interval/replan events the stream
        carries, solver span timings, and the deterministic ``run_end``
        summary.  The whole loop is single-threaded, so trace record
        order is a pure function of the scenario.
        """
        # Local import: repro.api sits below the fleet in the layer
        # diagram but importing it at module scope would cycle through
        # repro.api.__init__ -> orchestrator -> (lazy) fleet.
        from ..api.schemas import DeployEventV1

        config = self.config
        all_events: list[SubstrateEvent] = []
        peak_demand: dict[str, int] = {}
        finished: set[int] = set()

        def emit(wire) -> None:
            if on_event is not None:
                on_event(wire)
            if tracer is not None:
                tracer.deploy_event(wire)

        def emit_replan(deployment: FleetDeployment, record) -> None:
            if on_event is None and tracer is None:
                return
            emit(DeployEventV1.from_replan(
                record,
                tenant=deployment.name,
                session_id=deployment.index,
                index=len(deployment.run.outcomes),
            ))

        def finish(deployment: FleetDeployment, hour: float) -> None:
            """Log the lifecycle close-out for a deployment, once."""
            if tracer is None or deployment.index in finished:
                return
            finished.add(deployment.index)
            run = deployment.run
            completed = run._executor.is_complete(run.state)
            tracer.lifecycle(
                deployment.name,
                "completed" if completed else "failed",
                hour=hour,
                session_id=deployment.index,
                cost=run.ledger.total(),
                replans=run.replans,
                completion_hours=run.state.hour,
            )

        if tracer is not None:
            self.replanner.on_solve = lambda seconds: tracer.record_span(
                "fleet.solve", seconds
            )

        for deployment in self.deployments:
            # Initial plans coalesce across identical deployments too:
            # the shared CachingPlanner serves one solve to all of them.
            deployment.run = deployment.controller.start(
                deployment.actual,
                on_replan=lambda record, d=deployment: emit_replan(d, record),
            )
            if tracer is not None:
                tracer.lifecycle(
                    deployment.name,
                    "started",
                    hour=config.start_hour,
                    session_id=deployment.index,
                )

        elapsed = 0.0
        horizon = max_hours if max_hours is not None else max(
            (d.run.max_hours for d in self.deployments), default=0.0
        )
        while elapsed < horizon - _EPS:
            active = [d for d in self.deployments if d.active]
            if not active:
                break
            now = config.start_hour + elapsed
            events = self.substrate.advance(now, now + STEP_HOURS)
            all_events.extend(events)
            if tracer is not None:
                for event in events:
                    tracer.substrate_event(event)
            self._restore_failures(elapsed)
            for event in events:
                self._apply_event(event, active, elapsed)
            demand: dict[str, int] = {}
            for deployment in active:
                outcome = deployment.run.step()
                if outcome is None:
                    continue
                for service, nodes in outcome.nodes.items():
                    demand[service] = demand.get(service, 0) + nodes
                if on_event is not None or tracer is not None:
                    emit(DeployEventV1.from_outcome(
                        outcome,
                        tenant=deployment.name,
                        session_id=deployment.index,
                    ))
                if deployment.run.done:
                    finish(deployment, now + STEP_HOURS)
                elif config.mode == "event":
                    self._react_to_outcome(deployment, outcome)
            for service, nodes in demand.items():
                peak_demand[service] = max(peak_demand.get(service, 0), nodes)
            elapsed += STEP_HOURS

        result = FleetResult(
            mode=config.mode,
            deployments=[
                FleetDeploymentSummary(
                    name=d.name,
                    result=d.run.result(),
                    event_replans=d.event_replans,
                    budget_remaining=d.budget,
                )
                for d in self.deployments
            ],
            events=all_events,
            solves=self.replanner.solves,
            cache_hits=self.replanner.hits,
            peak_demand=peak_demand,
        )
        if tracer is not None:
            end_hour = config.start_hour + elapsed
            for deployment in self.deployments:
                finish(deployment, end_hour)
            tracer.end(fleet_summary(result), hour=end_hour)
        for deployment in self.deployments:
            if deployment.run is not None:
                deployment.run.close()
        return result

    # -- event routing -----------------------------------------------------

    def _apply_event(
        self,
        event: SubstrateEvent,
        active: list[FleetDeployment],
        elapsed: float,
    ) -> None:
        """Ground-truth effects for everyone; re-plan requests in event mode."""
        concerned = [d for d in active if event.service in d.service_names]
        if isinstance(event, NodeFailure):
            for deployment in concerned:
                already_failing = any(
                    name == event.service
                    for _, name, _ in deployment.active_failures
                )
                self._degrade(deployment, event, elapsed)
                factor = 1.0 - event.severity
                if (
                    self.config.mode == "event"
                    and factor > 0
                    and not already_failing
                ):
                    # The event names its severity, so the immediate
                    # re-plan can model the degradation instead of
                    # re-solving on stale beliefs and paying a second
                    # replan once the slowdown is observed.  Scaled only
                    # for the episode's *first* event — ground truth
                    # composes overlapping failures as a max, not a
                    # product — and corrected back up by observation
                    # (``learn``) once the episode ends.  (A total
                    # outage is left to observation: a zero rate has no
                    # meaning to the planner.)
                    deployment.controller.scale_belief(event.service, factor)
        if isinstance(event, CapacityChange):
            capacity = self.substrate.capacity_of(event.service)
            # The new limit enters every concerned deployment's service
            # catalog (``max_nodes``), so the next re-plan — whoever
            # triggers it — solves within it; an immediate re-plan is
            # only worth a budget unit for deployments whose active plan
            # violates the limit in an interval still to run.
            for deployment in concerned:
                self._apply_capacity(deployment, event.service, capacity)
            concerned = [
                d for d in concerned
                if capacity is not None
                and any(
                    interval.nodes.get(event.service, 0) > capacity
                    for interval in d.run.plans[-1].intervals
                    if interval.end_hour > d.run.state.hour + _EPS
                )
            ]
        if self.config.mode != "event":
            return
        for deployment in concerned:
            self._request(deployment, event.kind, event.describe())

    def _apply_capacity(
        self, deployment: FleetDeployment, service: str, capacity: int | None
    ) -> None:
        if capacity is None:
            return
        controller = deployment.controller
        controller.services = [
            s.replace(max_nodes=capacity) if s.name == service else s
            for s in controller.services
        ]

    def _react_to_outcome(self, deployment: FleetDeployment, outcome) -> None:
        """Deviation/price/eviction reactions the controller's cadence
        does not perform — in fleet mode they belong here."""
        decision = deployment.run.monitor(outcome)
        if decision is not None:
            kind, reason = decision
            self._request(deployment, kind, reason, learn=True)

    def _request(
        self,
        deployment: FleetDeployment,
        kind: str,
        reason: str,
        learn: bool = False,
    ) -> None:
        if deployment.budget <= 0:
            return
        if deployment.run.request_replan(reason, kind=kind, learn=learn):
            deployment.budget -= 1
            deployment.event_replans += 1

    # -- failures ----------------------------------------------------------

    def _degrade(
        self, deployment: FleetDeployment, event: NodeFailure, elapsed: float
    ) -> None:
        if event.service not in deployment.base_rates:
            return
        deployment.active_failures.append(
            (elapsed + event.duration_hours, event.service, event.severity)
        )
        self._apply_failure_rate(deployment, event.service)

    def _restore_failures(self, elapsed: float) -> None:
        for deployment in self.deployments:
            if not deployment.active_failures:
                continue
            expired = {
                service
                for end_hour, service, _ in deployment.active_failures
                if end_hour <= elapsed + _EPS
            }
            deployment.active_failures = [
                entry for entry in deployment.active_failures
                if entry[0] > elapsed + _EPS
            ]
            for service in expired:
                self._apply_failure_rate(deployment, service)

    def _apply_failure_rate(
        self, deployment: FleetDeployment, service: str
    ) -> None:
        """Set a service's actual rate from its *worst active* failure —
        overlapping episodes compose as a max, and expiry of one episode
        must not cancel another still in flight."""
        base = deployment.base_rates.get(service)
        if base is None:
            return
        severities = [
            severity
            for _, name, severity in deployment.active_failures
            if name == service
        ]
        degraded = base * (1.0 - max(severities)) if severities else base
        deployment.actual.throughput_gb_per_hour[service] = degraded
