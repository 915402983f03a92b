"""The ``Orchestrator`` facade: one entry point for all work.

Library users, the CLI and the wire protocol all drive the system
through this class:

- :meth:`Orchestrator.plan` — compile a :class:`JobSpec` and solve it
  synchronously (the library quickstart path);
- :meth:`Orchestrator.submit` — route a request through the multi-tenant
  :class:`~repro.service.service.PlanningService` (queues, plan cache,
  solver pool) and get an async handle;
- :meth:`Orchestrator.deploy` — run the deploy/monitor/adapt controller
  loop, streaming each interval and re-plan as a :class:`DeployEventV1`;
- :meth:`Orchestrator.fleet` — run many deployments over one shared
  :class:`~repro.fleet.substrate.Substrate` with event-driven
  re-planning (the :mod:`repro.fleet` runtime).

Failures surface as :class:`OrchestratorError` carrying a structured
:class:`~repro.api.schemas.ErrorV1`, never a raw solver traceback.
"""

from __future__ import annotations

import itertools
import threading

from ..core.controller import JobController
from ..core.model_builder import PlanningError
from ..core.plan import ExecutionPlan
from ..core.planner import Planner
from ..core.problem import PlanningProblem
from ..service.broker import AdmissionError
from ..service.requests import PlanRequest, PlanResult, SubmittedRequest
from ..service.service import PlanningService, ServiceConfig
from .compiler import compile_spec, resolve_services
from .errors import error_v1_for_result, error_v1_from_exception
from .schemas import (
    DeployEventV1,
    ErrorV1,
    JobSpec,
    PlanRequestV1,
    PlanResponseV1,
    SchemaError,
)


class OrchestratorError(RuntimeError):
    """A request failed; :attr:`error` is the wire-format explanation."""

    def __init__(self, error: ErrorV1) -> None:
        super().__init__(f"{error.code}: {error.message}")
        self.error = error


class Orchestrator:
    """Wraps planner, planning service and deploy loops behind specs.

    Parameters
    ----------
    planner:
        The synchronous :class:`Planner` behind :meth:`plan` and the
        controller loops (defaults to the paper's solver configuration).
    service:
        An existing :class:`PlanningService` to submit through.  When
        omitted, one is created lazily from ``service_config`` on the
        first :meth:`submit` and stopped by :meth:`close` / ``with``.
    service_config:
        Configuration for the lazily-created service.
    """

    def __init__(
        self,
        *,
        planner: Planner | None = None,
        service: PlanningService | None = None,
        service_config: ServiceConfig | None = None,
    ) -> None:
        self.planner = planner or Planner()
        #: Hands each :meth:`deploy` its ``session_id``: 1, 2, ...
        self._session_ids = itertools.count(1)
        self._service = service
        self._service_config = service_config
        self._owns_service = service is None
        self._service_lock = threading.Lock()
        #: spec cache-key -> compiled PlanningProblem.  Compilation is
        #: deterministic for value-object specs, so repeated submits of
        #: one spec (the warm-cache fast path) skip catalog resolution
        #: and problem validation entirely.
        self._compiled: dict[tuple, PlanningProblem] = {}
        self._compiled_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    @property
    def service(self) -> PlanningService:
        """The planning service, created lazily when first needed."""
        with self._service_lock:
            if self._service is None:
                self._service = PlanningService(self._service_config)
            return self._service

    def close(self) -> None:
        """Stop the service if this orchestrator created it."""
        with self._service_lock:
            service, owned = self._service, self._owns_service
        if service is not None and owned:
            service.stop()

    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- compile ----------------------------------------------------------

    def compile(self, spec: JobSpec) -> PlanningProblem:
        """The internal planning problem a spec declares.

        Raises :class:`OrchestratorError` (``bad_schema`` for payloads
        that do not name a valid spec, ``bad_request`` for specs the
        compiler rejects, e.g. a missing catalog file).  Compiled
        problems are memoized per spec — except for ``xml`` catalogs,
        whose backing file may change between calls.
        """
        key = None
        if isinstance(spec, JobSpec) and spec.catalog != "xml":
            key = spec.cache_key()
            problem = self._compiled.get(key)
            if problem is not None:
                return problem
        try:
            problem = compile_spec(spec)
        except SchemaError as exc:
            raise OrchestratorError(
                ErrorV1(code="bad_schema", message=str(exc))
            ) from exc
        except (TypeError, ValueError, OSError) as exc:
            raise OrchestratorError(
                ErrorV1(code="bad_request", message=str(exc))
            ) from exc
        if key is not None:
            with self._compiled_lock:
                while len(self._compiled) >= 512:
                    self._compiled.pop(next(iter(self._compiled)))
                self._compiled[key] = problem
        return problem

    # -- synchronous planning ---------------------------------------------

    def plan(self, spec: JobSpec) -> ExecutionPlan:
        """Compile and solve one spec on the calling thread."""
        problem = self.compile(spec)
        try:
            return self.planner.plan(problem)
        except PlanningError as exc:
            raise OrchestratorError(error_v1_from_exception(exc)) from exc

    # -- service submission -----------------------------------------------

    def submit(
        self,
        request: PlanRequestV1 | JobSpec,
        *,
        tenant: str = "default",
        priority: int = 1,
        deadline_s: float | None = None,
        time_budget_s: float | None = None,
        block: bool = False,
    ) -> SubmittedRequest:
        """Submit through the planning service; returns the async handle.

        ``request`` is either a full wire request or a bare spec (the
        keyword arguments then supply the scheduling metadata).  Raises
        :class:`OrchestratorError` with code ``rejected`` when admission
        control refuses the request.
        """
        if isinstance(request, JobSpec):
            # Fast path: a bare spec skips the wire-envelope wrapper (its
            # scheduling metadata arrives as keyword arguments instead).
            spec = request
        elif isinstance(request, PlanRequestV1):
            spec = request.job
            tenant = request.tenant
            priority = request.priority
            deadline_s = request.deadline_s
            time_budget_s = request.time_budget_s
        else:
            raise TypeError(
                f"expected a PlanRequestV1 or JobSpec, "
                f"got {type(request).__name__}"
            )
        problem = self.compile(spec)
        try:
            ticket = self.service.submit_request(
                PlanRequest(
                    tenant=tenant,
                    problem=problem,
                    priority=priority,
                    deadline_s=deadline_s,
                    time_budget_s=time_budget_s,
                ),
                block=block,
            )
        except AdmissionError as exc:
            raise OrchestratorError(
                ErrorV1(code="rejected", message=str(exc))
            ) from exc
        return ticket

    def respond(self, result: PlanResult, request_id: str = "") -> PlanResponseV1:
        """Wrap a service result as the versioned wire response."""
        plan = result.plan
        return PlanResponseV1(
            status=result.status.value,
            tenant=result.tenant,
            request_id=request_id,
            cached=result.cached,
            fingerprint=result.fingerprint,
            predicted_cost=None if plan is None else plan.predicted_cost,
            predicted_completion_hours=(
                None if plan is None else plan.predicted_completion_hours
            ),
            peak_nodes=None if plan is None else plan.peak_nodes(),
            solver_status="" if plan is None else plan.solver_status,
            queue_wait_s=result.queue_wait_s,
            solve_s=result.solve_s,
            total_s=result.total_s,
            error=error_v1_for_result(result),
        )

    def plan_v1(
        self, request: PlanRequestV1, timeout: float | None = None
    ) -> PlanResponseV1:
        """One full request/response round-trip; never raises.

        The synchronous convenience over :meth:`submit`: every failure
        mode — admission, compile, solve, turnaround timeout — comes back
        as a structured response, exactly as it would on the wire.
        """
        try:
            ticket = self.submit(request)
        except OrchestratorError as exc:
            return PlanResponseV1(
                status="rejected",
                tenant=request.tenant,
                request_id=request.request_id,
                error=exc.error,
            )
        try:
            result = ticket.result(timeout=timeout)
        except TimeoutError as exc:
            return PlanResponseV1(
                status="failed",
                tenant=request.tenant,
                request_id=request.request_id,
                error=ErrorV1(code="timeout", message=str(exc)),
            )
        return self.respond(result, request_id=request.request_id)

    # -- deployment -------------------------------------------------------

    def _controller_inputs(self, spec: JobSpec):
        """Unpack a spec into ``JobController`` inputs (deploy + fleet).

        Raises :class:`OrchestratorError` for non-specs and for specs
        the catalog/goal/network compilation rejects (``bad_request``).
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(f"expected a JobSpec, got {type(spec).__name__}")
        try:
            services = resolve_services(spec)
            goal = spec.goal.to_goal()
            network = spec.network.to_conditions()
        except (ValueError, OSError) as exc:
            raise OrchestratorError(
                ErrorV1(code="bad_request", message=str(exc))
            ) from exc
        problem_kwargs = {
            "interval_hours": spec.interval_hours,
            "constant_nodes": spec.constant_nodes,
            "allow_migration": spec.allow_migration,
        }
        if spec.upload_fractions:
            problem_kwargs["upload_fractions"] = dict(spec.upload_fractions)
        return services, goal, network, problem_kwargs

    def _controller(
        self,
        spec: JobSpec,
        *,
        predictor=None,
        trace=None,
        trace_offset_hours: float = 0.0,
        backend: str = "sim",
        backend_options: dict | None = None,
    ) -> JobController:
        """The controller a deploy of ``spec`` runs — and a resume rebuilds.

        :func:`repro.obs.replay.resume` builds its controller here too,
        so a resumed run is configured exactly like the run that wrote
        the snapshot.  Raises :class:`OrchestratorError` (``bad_request``)
        for inputs the controller rejects, e.g. a spot catalog without a
        predictor, an unknown ``backend`` or backend option — before any
        solve.
        """
        services, goal, network, problem_kwargs = self._controller_inputs(spec)
        try:
            return JobController(
                spec.to_planner_job(),
                services,
                goal,
                network=network,
                planner=self.planner,
                predictor=predictor,
                trace=trace,
                trace_offset_hours=trace_offset_hours,
                problem_kwargs=problem_kwargs,
                backend=backend,
                backend_options=backend_options,
            )
        except ValueError as exc:
            raise OrchestratorError(
                ErrorV1(code="bad_request", message=str(exc))
            ) from exc

    def deploy(
        self,
        spec: JobSpec,
        *,
        tenant: str = "default",
        actual=None,
        on_event=None,
        predictor=None,
        trace=None,
        trace_offset_hours: float = 0.0,
        tracer=None,
        backend: str = "sim",
        backend_options: dict | None = None,
    ):
        """Run the deploy/monitor/adapt loop for one spec to completion.

        The loop runs on the calling thread, one interval per
        :meth:`~repro.core.controller.ControllerRun.step`, and returns
        the full :class:`~repro.core.controller.ControllerResult`.  Each
        executed interval — and each adopted re-plan, as an
        ``event="replan"`` record carrying its trigger and reason — is
        built once as a :class:`DeployEventV1` and handed to the tracer
        (if any) and then to ``on_event``.  If ``on_event`` raises, the
        deployment stops there: its backend is closed and the exception
        propagates.  ``actual`` injects real-world conditions (the
        Fig. 12 deviation experiments); ``predictor``/``trace`` are
        required for ``spot``-catalog specs.

        ``backend`` selects the execution substrate (see
        :data:`repro.exec.BACKENDS`): the deterministic fluid simulator
        (``"sim"``, the default), the local process-pool MapReduce
        runner (``"pool"``), or the stub container backend (``"stub"``).
        ``backend_options`` tunes the real backends (task size, payload
        bytes, the chaos hook — :data:`repro.exec.DEFAULT_OPTIONS`).

        ``tracer`` (a :class:`~repro.obs.trace.RunTracer`) captures the
        run as a durable event-sourced trace: ``lifecycle`` records
        around the run, every interval/replan event and ``run_end``.  The
        log holds no run state: replay (and crash-resume) re-executes the
        scenario it opens with.  If ``begin`` has not been called yet, the
        orchestrator opens it here with the canonical deploy scenario
        (``tenant``, ``spec.to_dict()``, plus the serializable
        conditions, trace offset and backend), so identical deployments
        trace under identical run ids and replay can rebuild the run.  A
        spot-catalog deploy (price ``trace``/``spot_traces``) is not
        replayable from a deploy scenario — trace those under the fleet
        runtime, whose scenario names its synthetic trace — so auto-begin
        rejects it; a caller that begins the tracer itself takes over
        that responsibility.
        """
        auto_begin = tracer is not None and not tracer.run_id
        if auto_begin and (
            trace is not None or (actual is not None and actual.spot_traces)
        ):
            raise OrchestratorError(ErrorV1(
                code="bad_request",
                message="a spot-trace deploy cannot be traced "
                "replayably; run it under the fleet runtime",
            ))
        controller = self._controller(
            spec,
            predictor=predictor,
            trace=trace,
            trace_offset_hours=trace_offset_hours,
            backend=backend,
            backend_options=backend_options,
        )
        if auto_begin:
            from .. import __version__

            scenario = {"tenant": tenant, "spec": spec.to_dict()}
            if actual is not None:
                scenario["actual"] = {
                    "throughput_gb_per_hour": dict(
                        actual.throughput_gb_per_hour
                    ),
                    "uplink_factor": actual.uplink_factor,
                    "downlink_factor": actual.downlink_factor,
                    "spot_storage_volatile": actual.spot_storage_volatile,
                }
            if trace_offset_hours:
                scenario["trace_offset_hours"] = trace_offset_hours
            if backend != "sim":
                # Recorded so replay refuses to --verify a trace whose
                # run was nondeterministic; sim scenarios (and their run
                # ids) are unchanged.
                scenario["backend"] = backend
            tracer.begin("deploy", scenario, version=__version__)
        session_id = next(self._session_ids)

        def emit(event: DeployEventV1) -> None:
            if tracer is not None:
                tracer.deploy_event(event)
            if on_event is not None:
                on_event(event)

        def on_replan(record) -> None:
            emit(DeployEventV1.from_replan(
                record, tenant=tenant, session_id=session_id,
                index=len(run.outcomes),
            ))

        try:
            run = controller.start(actual, on_replan=on_replan)
            try:
                if tracer is not None:
                    tracer.lifecycle(
                        tenant, "started", hour=run.state.hour,
                        session_id=session_id,
                        # Recorded only off the sim default, so pre-backend
                        # sim logs stay byte-identical.
                        backend=backend if backend != "sim" else "",
                    )
                while (outcome := run.step()) is not None:
                    emit(DeployEventV1.from_outcome(
                        outcome, tenant=tenant, session_id=session_id,
                    ))
                result = run.result()
            finally:
                run.close()
        except PlanningError as exc:
            raise OrchestratorError(error_v1_from_exception(exc)) from exc
        if tracer is not None:
            tracer.lifecycle(
                tenant,
                "completed" if result.completed else "failed",
                hour=run.state.hour,
                session_id=session_id,
                cost=result.total_cost,
                replans=result.replans,
                completion_hours=result.completion_hours,
            )
            tracer.end(
                {
                    "completed": result.completed,
                    "completion_hours": result.completion_hours,
                    "total_cost": result.total_cost,
                    "replans": result.replans,
                    "intervals": len(result.outcomes),
                    "deadline_met": result.deadline_met,
                },
                hour=run.state.hour,
            )
        return result

    # -- fleet ------------------------------------------------------------

    def fleet(
        self,
        specs,
        substrate,
        *,
        fleet_config=None,
        predictor=None,
        on_event=None,
        actual_rates=None,
        tracer=None,
    ):
        """Run many deployments over one shared substrate (:mod:`repro.fleet`).

        ``specs`` is a sequence of :class:`JobSpec` or ``(tenant, spec)``
        pairs; each is resolved through the one spec compiler and added
        to a :class:`~repro.fleet.scheduler.FleetScheduler` driving the
        given :class:`~repro.fleet.substrate.Substrate`.  Every executed
        interval and adopted re-plan streams to ``on_event`` as a
        :class:`DeployEventV1` (the ``repro fleet`` CLI's line format);
        the return value is the
        :class:`~repro.fleet.scheduler.FleetResult`.

        ``predictor`` applies to every spot-catalog deployment;
        ``actual_rates`` optionally maps tenant -> ground-truth per-node
        rates for deviation experiments.  ``tracer`` must already have
        ``begin`` called — only the caller knows the fleet's scenario
        dict (see :func:`repro.obs.replay.fleet_inputs`); the scheduler
        then narrates lifecycle, substrate, interval/replan, span and
        ``run_end`` records into it.
        """
        # Imported lazily: repro.fleet sits *above* the api layer and
        # importing it at module scope would be circular.
        from ..fleet import FleetScheduler

        scheduler = FleetScheduler(
            substrate, fleet_config, planner=self.planner
        )
        for position, entry in enumerate(specs, 1):
            tenant, spec = (
                entry if isinstance(entry, tuple) else (f"tenant-{position}", entry)
            )
            services, goal, network, problem_kwargs = self._controller_inputs(
                spec
            )
            try:
                scheduler.add(
                    tenant,
                    spec.to_planner_job(),
                    services,
                    goal,
                    network=network,
                    predictor=predictor,
                    actual_rates=(actual_rates or {}).get(tenant),
                    problem_kwargs=problem_kwargs,
                )
            except ValueError as exc:
                raise OrchestratorError(
                    ErrorV1(code="bad_request", message=str(exc))
                ) from exc
        try:
            return scheduler.run(on_event=on_event, tracer=tracer)
        except PlanningError as exc:
            raise OrchestratorError(error_v1_from_exception(exc)) from exc


__all__ = ["Orchestrator", "OrchestratorError"]
