"""Command-line interface: ``python -m repro <command>``.

A thin front-end over the versioned public API (:mod:`repro.api`) for
the workflows a Conductor user would actually run:

- ``plan``      — print the optimal execution plan for a job;
- ``deploy``    — run the full simulated deployment (Conductor or one of
  the paper's baselines); ``--stream`` runs the live controller loop and
  emits each interval as a versioned ``deploy_event`` JSON line;
- ``services``  — show or validate a service-description XML document;
- ``spot``      — evaluate spot-market deployment under a predictor;
- ``pig``       — compile a Pig-Latin script to MapReduce stages and
  plan the multi-stage deployment;
- ``export``    — write the generated linear program to a .lp/.mps file;
- ``fleet``     — run many concurrent deployments over one shared
  substrate (spot trace, failure injector) with event-driven
  re-planning, streaming every interval and re-plan as versioned
  ``deploy_event`` JSON lines;
- ``serve``     — run the multi-tenant planning service over a JSON-lines
  request stream (file or stdin).  The wire dialect is exactly the
  versioned API: ``plan_request`` in, ``hello`` / ``plan_response`` /
  ``error`` out;
- ``submit``    — submit one job through the planning service (with
  ``--repeat`` to demonstrate the plan cache, ``--json`` for the wire
  responses);
- ``loadgen``   — drive the service with a synthetic tenant workload and
  report throughput, cache hit rate and latency percentiles.

Examples::

    python -m repro plan --input-gb 32 --deadline 6
    python -m repro plan --input-gb 32 --deadline 4 --local-nodes 5
    python -m repro deploy --strategy conductor --input-gb 8 --deadline 3
    python -m repro deploy --stream --input-gb 4 --deadline 3
    python -m repro services --emit
    python -m repro spot --trace electricity --predictor p5 --deadline 10
    python -m repro fleet --deployments 8 --trace aws --mode event
    python -m repro pig script.pig --input-gb 24 --deadline 10
    python -m repro export --input-gb 32 --deadline 6 model.lp
    python -m repro serve --requests-file requests.jsonl
    python -m repro submit --input-gb 16 --deadline 6 --repeat 3
    python -m repro loadgen --tenants 8 --requests 64
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .cloud import hybrid_cloud, load_services, public_cloud, to_xml
from .core import (
    PlannerJob,
    run_conductor,
    run_hadoop_direct,
    run_hadoop_s3,
    run_hadoop_upload_first,
)
from .core.spot_sim import run_spot_scenario

_STRATEGIES = {
    "conductor": run_conductor,
    "hadoop-direct": run_hadoop_direct,
    "hadoop-s3": run_hadoop_s3,
    "hadoop-upload-first": run_hadoop_upload_first,
}


def package_version() -> str:
    """The package version: ``repro.__version__``, which
    ``pyproject.toml``'s ``[project] version`` matches."""
    from . import __version__

    return __version__


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input-gb", type=float, default=32.0,
                        help="input data size (default: the paper's 32 GB)")
    parser.add_argument("--deadline", type=float, default=6.0,
                        help="completion deadline in hours")
    parser.add_argument("--uplink-mbit", type=float, default=16.0,
                        help="customer uplink in Mbit/s")
    parser.add_argument("--local-nodes", type=int, default=0,
                        help="size of the customer's own cluster (hybrid)")


def _spec_for(args):
    """The JobSpec described by the shared job arguments."""
    from .api import GoalSpec, JobSpec, NetworkSpec

    if getattr(args, "services_xml", None):
        catalog, services_xml = "xml", args.services_xml
    elif args.local_nodes > 0:
        catalog, services_xml = "hybrid", None
    else:
        catalog, services_xml = "public", None
    return JobSpec(
        input_gb=args.input_gb,
        goal=GoalSpec(deadline_hours=args.deadline),
        network=NetworkSpec(uplink_mbit_s=args.uplink_mbit),
        catalog=catalog,
        local_nodes=args.local_nodes,
        services_xml=services_xml,
    )


def cmd_plan(args) -> int:
    from .api import Orchestrator, OrchestratorError, SchemaError

    orchestrator = Orchestrator()
    try:
        plan = orchestrator.plan(_spec_for(args))
    except SchemaError as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2
    except OrchestratorError as exc:
        print(f"planning failed [{exc.error.code}]: {exc.error.message}",
              file=sys.stderr)
        return 1
    print(plan.describe())
    print(f"\npredicted cost:  ${plan.predicted_cost:.2f}")
    print(f"peak instances:  {plan.peak_nodes()}")
    for key, value in sorted(plan.predicted_cost_breakdown.items()):
        if value > 1e-4:
            print(f"  {key:28s} ${value:.3f}")
    return 0


def _cmd_deploy_stream(args) -> int:
    """Live controller deployment, streaming versioned deploy events."""
    from .api import Orchestrator, OrchestratorError, SchemaError, encode

    writer = tracer = None
    if getattr(args, "trace_log", None):
        from .obs.trace import RunTracer, TraceWriter

        writer = TraceWriter(args.trace_log)
        tracer = RunTracer(writer)
    orchestrator = Orchestrator()
    try:
        result = orchestrator.deploy(
            _spec_for(args),
            on_event=lambda event: print(encode(event)),
            tracer=tracer,
            backend=getattr(args, "backend", "sim"),
        )
    except SchemaError as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2
    except OrchestratorError as exc:
        print(f"deployment failed [{exc.error.code}]: {exc.error.message}",
              file=sys.stderr)
        return 1
    finally:
        if writer is not None:
            writer.close()
    print(f"deployed: ${result.total_cost:.2f}, "
          f"{result.completion_hours:.2f} h, {result.replans} re-plans "
          f"({'met' if result.deadline_met else 'MISSED'} the deadline)")
    return 0


def cmd_deploy(args) -> int:
    from .api import SchemaError, scenario_for

    if args.stream:
        # The stream runs the live controller loop — Conductor itself —
        # so a baseline strategy or node-count override cannot apply.
        if args.strategy != "conductor" or args.nodes != 16:
            print("--stream runs the Conductor controller loop; "
                  "it cannot be combined with --strategy/--nodes",
                  file=sys.stderr)
            return 2
        return _cmd_deploy_stream(args)
    if args.trace_log:
        print("--trace-log requires --stream (the live controller loop "
              "is what gets traced)", file=sys.stderr)
        return 2
    if args.backend != "sim":
        print("--backend runs the live controller loop; it requires "
              "--stream", file=sys.stderr)
        return 2
    try:
        scenario = scenario_for(_spec_for(args))
    except (SchemaError, ValueError) as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2
    strategy = _STRATEGIES[args.strategy]
    kwargs = {} if args.strategy == "conductor" else {"nodes": args.nodes}
    result = strategy(scenario, **kwargs)
    print(f"{result.name}: ${result.total_cost:.2f}, "
          f"{result.runtime_s / 3600:.2f} h "
          f"({'met' if result.deadline_met else 'MISSED'} the deadline)")
    for key, value in sorted(result.cost_breakdown().items()):
        if value > 1e-4:
            print(f"  {key:20s} ${value:.3f}")
    return 0


def cmd_services(args) -> int:
    if args.emit:
        services = hybrid_cloud() if args.local_nodes else public_cloud()
        print(to_xml(services))
        return 0
    if args.validate:
        try:
            services = load_services(args.validate)
        except Exception as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print(f"ok: {len(services)} services")
        for service in services:
            kinds = "+".join(sorted(k.value for k in service.kinds))
            print(f"  {service.name:20s} {kinds}")
        return 0
    print("use --emit or --validate PATH", file=sys.stderr)
    return 2


def cmd_spot(args) -> int:
    from .obs.replay import predictor_for, trace_for

    trace = trace_for(args.trace, args.days, args.seed)
    predictor = predictor_for(args.predictor)
    if predictor is None:
        print(f"unknown predictor {args.predictor!r}", file=sys.stderr)
        return 2
    result = run_spot_scenario(
        PlannerJob(name="job", input_gb=args.input_gb),
        trace,
        predictor,
        deadline_hours=args.deadline,
    )
    summary = result.summary
    print(f"{result.label}: {len(result.costs)} runs")
    print(f"  average ${summary['average']:.2f}  max ${summary['maximum']:.2f}  "
          f"stddev {summary['stddev']:.2f}")
    print(f"  re-plans per run: {result.replans}")
    return 0


def _write_metrics_json(path: str, snapshot: dict) -> None:
    """Write a unified telemetry snapshot (obs registry format)."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_fleet(args) -> int:
    """Run concurrent deployments over one substrate, streaming events.

    Stdout speaks the same protocol ``serve`` does: a versioned
    ``hello`` line first, then one ``deploy_event`` JSON line per
    executed interval and per adopted re-plan (``"event": "replan"``,
    with the trigger kind and reason); the fleet summary goes to stderr,
    keeping stdout machine-parseable end to end.  ``--trace-log PATH``
    additionally appends the run's full event-sourced trace —
    lifecycle, substrate events, solver spans and the deterministic
    ``run_end`` summary — for ``repro replay`` / ``repro trace``.
    """
    from .api import HelloV1, Orchestrator, OrchestratorError, encode
    from .obs.replay import fleet_inputs

    if args.deployments < 1:
        print("--deployments must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.failure_rate < 1.0:
        print("--failure-rate must be in [0, 1)", file=sys.stderr)
        return 2
    if args.metrics_json and not args.trace_log:
        print("--metrics-json requires --trace-log (the traced run is what "
              "gets measured)", file=sys.stderr)
        return 2
    scenario = {
        "deployments": args.deployments,
        "mode": args.mode,
        "cadence": args.cadence,
        "replan_budget": args.replan_budget,
        "start_hour": args.start_hour,
        "trace": args.trace,
        "days": args.days,
        "seed": args.seed,
        "predictor": args.predictor,
        "failure_rate": args.failure_rate,
        "input_gb": args.input_gb,
        "deadline": args.deadline,
        "uplink_mbit": args.uplink_mbit,
    }
    try:
        specs, substrate, config, predictor = fleet_inputs(scenario)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    writer = tracer = None
    registry = None
    if args.trace_log:
        from .obs import MetricsRegistry
        from .obs.trace import RunTracer, TraceWriter

        registry = MetricsRegistry()
        writer = TraceWriter(args.trace_log)
        tracer = RunTracer(writer, registry=registry)
        tracer.begin("fleet", scenario, version=package_version())
    print(encode(HelloV1(version=package_version())))
    try:
        result = Orchestrator().fleet(
            specs,
            substrate,
            fleet_config=config,
            predictor=predictor,
            on_event=lambda event: print(encode(event)),
            tracer=tracer,
        )
    except OrchestratorError as exc:
        print(f"fleet failed [{exc.error.code}]: {exc.error.message}",
              file=sys.stderr)
        return 1
    finally:
        if writer is not None:
            writer.close()
    print(result.describe(), file=sys.stderr)
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, registry.snapshot())
    return 0 if result.completed == len(specs) else 1


def cmd_replay(args) -> int:
    """Replay a trace log: inspect (default), ``--verify`` or ``--resume``.

    Verify mode re-executes the log's recorded scenario and diffs the
    deterministic record streams — exit 1 on divergence.  Resume mode
    finishes a crashed run (a log without ``run_end``) by re-executing
    its scenario and checking the log is a prefix of the fresh stream;
    both exit 2 on a log from a non-``sim`` backend.  Inspect mode prints the
    hour-stamped timeline; ``--mermaid PATH`` also writes a gantt chart.
    """
    from .obs import TraceError, read_trace

    try:
        records = read_trace(args.log)
    except (TraceError, OSError) as exc:
        print(f"bad trace log: {exc}", file=sys.stderr)
        return 2
    if args.verify:
        from .obs.replay import verify

        try:
            report = verify(records)
        except (TraceError, ValueError) as exc:
            print(f"replay failed: {exc}", file=sys.stderr)
            return 2
        print(report.describe())
        return 0 if report.ok else 1
    if args.resume:
        from .obs.replay import resume

        try:
            result = resume(records)
        except (TraceError, ValueError) as exc:
            print(f"resume failed: {exc}", file=sys.stderr)
            return 2
        if hasattr(result, "describe"):
            print(result.describe())
        else:
            print(f"resumed: ${result.total_cost:.2f}, "
                  f"{result.completion_hours:.2f} h, "
                  f"{result.replans} re-plans "
                  f"({'met' if result.deadline_met else 'MISSED'} "
                  f"the deadline)")
        return 0
    from .obs.timeline import render_timeline, to_mermaid

    print(render_timeline(records))
    if args.mermaid:
        with open(args.mermaid, "w", encoding="utf-8") as handle:
            handle.write(to_mermaid(records) + "\n")
        print(f"wrote {args.mermaid}", file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    """Trace-log analysis: ``summarize`` folds a log into the unified
    telemetry snapshot format (the same shape ``--metrics-json`` files
    and ``metrics.registry.snapshot()`` carry)."""
    import json

    from .obs import TraceError, read_trace
    from .obs.summary import summarize_records

    try:
        records = read_trace(args.log)
    except (TraceError, OSError) as exc:
        print(f"bad trace log: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summarize_records(records), indent=2, sort_keys=True))
    return 0


def cmd_pig(args) -> int:
    from .api import GoalSpec, NetworkSpec, from_pig, resolve_services
    from .core import plan_pipeline
    from .pig import ParseError, PlanError, compile_script

    try:
        with open(args.script, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return 1
    try:
        pipeline = compile_script(source)
    except (ParseError, PlanError) as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 1
    print(pipeline.describe())
    print(f"\npipeline depth: {pipeline.depth}")
    specs = from_pig(
        source,
        input_gb=args.input_gb,
        goal=GoalSpec(deadline_hours=args.deadline),
        network=NetworkSpec(uplink_mbit_s=args.uplink_mbit),
        catalog="hybrid" if args.local_nodes > 0 else "public",
        local_nodes=args.local_nodes,
    )
    jobs = [spec.to_planner_job() for spec in specs]
    if args.compile_only:
        for job in jobs:
            print(f"  {job.name}: in={job.input_gb:.2f} GB "
                  f"map_ratio={job.map_output_ratio:.4f} "
                  f"reduce_ratio={job.reduce_output_ratio:.4f}")
        return 0
    try:
        plan = plan_pipeline(
            jobs,
            resolve_services(specs[0]),
            specs[0].goal.to_goal(),
            specs[0].network.to_conditions(),
        )
    except Exception as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    print()
    print(plan.describe())
    return 0


def cmd_export(args) -> int:
    from .api import Orchestrator, OrchestratorError, SchemaError
    from .core import build_model
    from .lp import save

    try:
        built = build_model(Orchestrator().compile(_spec_for(args)))
    except (SchemaError, OrchestratorError) as exc:
        print(f"bad problem: {exc}", file=sys.stderr)
        return 1
    try:
        save(built.model, args.path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    stats = built.model.stats()
    print(f"wrote {args.path}: {stats['variables']} columns, "
          f"{stats['constraints']} rows, {stats['integers']} integers")
    return 0


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool", choices=("process", "thread", "inline"),
                        default="process",
                        help="solver pool mode (default: process)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent solver workers")
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        help="plan cache entries (0 disables the cache)")
    parser.add_argument("--time-limit", type=float, default=180.0,
                        help="solver cut-off ceiling in seconds")
    parser.add_argument("--incremental", action="store_true",
                        help="warm-start structurally repeated solves; "
                        "needs --pool thread|inline, refused with the "
                        "default process pool (see docs/solver.md)")
    parser.add_argument("--max-pending-total", type=int, default=256,
                        help="admission bound on queued requests")
    parser.add_argument("--max-pending-per-tenant", type=int, default=64,
                        help="admission bound on one tenant's queued requests")
    parser.add_argument("--metrics-json", metavar="PATH",
                        help="write the unified telemetry snapshot "
                        "(obs registry format)")


def _service_config_for(args, **overrides):
    from .service import ServiceConfig

    return ServiceConfig(
        max_workers=args.workers,
        pool_mode=args.pool,
        cache_capacity=args.cache_capacity,
        solver_time_limit_s=args.time_limit,
        incremental=getattr(args, "incremental", False),
        max_pending_total=getattr(args, "max_pending_total", 256),
        max_pending_per_tenant=getattr(args, "max_pending_per_tenant", 64),
        **overrides,
    )


def _orchestrator_for(args):
    from .api import Orchestrator

    return Orchestrator(service_config=_service_config_for(args))


@contextlib.contextmanager
def _own_stdout():
    """A private duplicate of stdout for ``serve``'s response lines.

    A cold MILP solve points fd 1 at a sink for its duration
    (``lp.scipy_backend._muted_stdout``), process-wide; with
    ``--pool inline|thread`` a response printed meanwhile would go down
    with HiGHS's noise.  A descriptor duplicated before the first solve
    keeps pointing at the real stdout.  Captured stdouts without a file
    descriptor (pytest, ``StringIO``) are never muted and used as is.
    """
    try:
        fd = os.dup(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        yield sys.stdout
        return
    out = os.fdopen(fd, "w", encoding=sys.stdout.encoding)
    try:
        yield out
    finally:
        try:
            out.close()
        except OSError:  # the consumer hung up with a line still buffered
            pass


def cmd_serve(args) -> int:
    """Process a JSON-lines request stream through the planning service.

    The protocol *is* the versioned API: the service greets with a
    ``hello`` line (build + schema version), each input line must decode
    to a ``plan_request`` payload, and every outcome comes back as a
    ``plan_response`` (or a bare ``error`` for lines that decode to
    nothing), in submission order.  An unknown ``schema_version`` yields
    a structured ``bad_schema`` error, never a traceback.  The metrics
    summary goes to stderr.

    Example request line::

        {"schema_version": 1, "kind": "plan_request", "tenant": "acme",
         "job": {"input_gb": 16, "goal": {"deadline_hours": 6}}}

    With ``--listen HOST:PORT`` the same dialect is served over TCP by
    the asyncio frontend instead (the same service, with strict
    per-tenant FIFO and deadline-aware shedding turned on); the stream
    path below is untouched.
    """
    if getattr(args, "listen", None):
        return _cmd_serve_listen(args)
    with _own_stdout() as out:
        return _serve_stream(args, out)


def _serve_stream(args, out) -> int:
    """``repro serve`` over stdin / ``--requests-file``; responses to ``out``."""
    from .api import (
        ErrorV1,
        HelloV1,
        OrchestratorError,
        PlanRequestV1,
        PlanResponseV1,
        SchemaError,
        decode,
        encode,
    )

    if args.requests_file:
        try:
            handle = open(args.requests_file, encoding="utf-8")
        except OSError as exc:
            print(f"cannot read requests: {exc}", file=sys.stderr)
            return 1
    else:
        handle = sys.stdin
    from collections import deque

    orchestrator = _orchestrator_for(args)
    exit_code = 0
    #: Admitted requests whose response has not been printed yet, in
    #: submission order (responses always come out in that order).
    entries: deque = deque()

    def emit(request, ticket, timeout) -> None:
        nonlocal exit_code
        try:
            result = ticket.result(timeout=timeout)
        except TimeoutError as exc:
            # Keep reporting the rest: their solves may have finished.
            print(encode(PlanResponseV1(
                status="failed",
                tenant=request.tenant,
                request_id=request.request_id,
                error=ErrorV1(code="timeout", message=str(exc)),
            )), file=out, flush=True)
            exit_code = 1
            return
        if not result.ok:
            # A scripted caller must see failed/expired streams in the
            # exit code, not just in the per-line status field.
            exit_code = 1
        print(encode(
            orchestrator.respond(result, request_id=request.request_id)
        ), file=out, flush=True)

    try:
        # Every response line is flushed as it is printed, so a consumer
        # piping from a live stream sees results as they land instead of
        # at EOF.
        print(encode(HelloV1(version=package_version())), file=out, flush=True)
        with orchestrator:
            try:
                for lineno, line in enumerate(handle, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        request = decode(line)
                    except SchemaError as exc:
                        print(encode(ErrorV1(
                            code="bad_schema",
                            message=str(exc),
                            details={"line": str(lineno)},
                        )), file=out, flush=True)
                        exit_code = 1
                        continue
                    if not isinstance(request, PlanRequestV1):
                        print(encode(ErrorV1(
                            code="bad_schema",
                            message=f"expected kind 'plan_request', "
                            f"got {request.KIND!r}",
                            details={"line": str(lineno)},
                        )), file=out, flush=True)
                        exit_code = 1
                        continue
                    try:
                        # A batch stream applies backpressure on a full
                        # backlog rather than dropping the tail.
                        entries.append(
                            (request, orchestrator.submit(request, block=True))
                        )
                    except OrchestratorError as exc:
                        # Keep stdout line-parseable: rejections get a
                        # response record too, not just a stderr note.
                        print(encode(PlanResponseV1(
                            status="rejected",
                            tenant=request.tenant,
                            request_id=request.request_id,
                            error=exc.error,
                        )), file=out, flush=True)
                        exit_code = 1
                        continue
                    # Drain whatever has already finished at the head of
                    # the line, preserving submission order.
                    while entries and entries[0][1].done():
                        head, ticket = entries.popleft()
                        emit(head, ticket, timeout=0.1)
            finally:
                if handle is not sys.stdin:
                    handle.close()
            # A ticket's turnaround includes time queued behind every
            # other admitted request, so the wait bound covers the whole
            # stream, not one solve.
            stream_timeout = args.time_limit * max(1, len(entries)) + 60.0
            while entries:
                request, ticket = entries.popleft()
                emit(request, ticket, timeout=stream_timeout)
            print(orchestrator.service.metrics.describe(), file=sys.stderr)
            if args.metrics_json:
                _write_metrics_json(
                    args.metrics_json,
                    orchestrator.service.metrics.registry.snapshot(),
                )
    except BrokenPipeError:
        # The consumer hung up mid-stream.  Stdout is useless now, but
        # the operator still gets the metrics summary on stderr.
        print(orchestrator.service.metrics.describe(), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(orchestrator.service.metrics.describe(), file=sys.stderr)
        return 130
    return exit_code


def _cmd_serve_listen(args) -> int:
    """``repro serve --listen``: the asyncio socket frontend."""
    from .service.frontend import FrontendConfig, run_server
    from .service.frontend.client import parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return run_server(
        FrontendConfig(host=host, port=port),
        # The socket frontend opts into strict per-tenant FIFO (a cache
        # hit queues behind its tenant's own queued request) and
        # deadline-aware shedding.
        _service_config_for(
            args, ordered_admission=True, deadline_shedding=True
        ),
        metrics_json=args.metrics_json,
    )


def cmd_submit(args) -> int:
    from .api import OrchestratorError, PlanRequestV1, SchemaError, encode

    try:
        request = PlanRequestV1(
            job=_spec_for(args), tenant=args.tenant, priority=args.priority
        )
    except SchemaError as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 1
    responses = []
    with _orchestrator_for(args) as orchestrator:
        first_plan = None
        for _ in range(max(1, args.repeat)):
            try:
                ticket = orchestrator.submit(request)
                result = ticket.result(timeout=args.time_limit + 60.0)
            except OrchestratorError as exc:
                print(f"planning failed [{exc.error.code}]: "
                      f"{exc.error.message}", file=sys.stderr)
                return 1
            except TimeoutError as exc:
                print(f"planning timed out: {exc}", file=sys.stderr)
                return 1
            if first_plan is None:
                first_plan = result.plan
            responses.append(orchestrator.respond(result))
        if args.metrics_json:
            _write_metrics_json(
                args.metrics_json, orchestrator.service.metrics.registry.snapshot()
            )
    if args.json:
        for response in responses:
            print(encode(response))
        return 0 if all(r.ok for r in responses) else 1
    first = responses[0]
    if not first.ok:
        error = first.error
        code = error.code if error else first.status
        message = error.message if error else first.status
        print(f"planning failed [{code}]: {message}", file=sys.stderr)
        return 1
    print(first_plan.describe())
    print(f"\npredicted cost:  ${first.predicted_cost:.2f}")
    for index, response in enumerate(responses):
        source = "cache" if response.cached else "solver"
        print(f"request {index + 1}: {response.total_s * 1e3:8.1f} ms "
              f"via {source}")
    return 0


def _cmd_loadgen_connect(args) -> int:
    """``repro loadgen --connect``: drive a socket frontend with N
    concurrent tenant connections and report client-observed latency."""
    import asyncio

    from .service.frontend import generate_wire_workload, run_loadgen
    from .service.frontend.client import parse_address

    addresses = [part for part in args.connect.split(",") if part]
    try:
        for address in addresses:
            parse_address(address)
        workload = generate_wire_workload(
            args.tenants,
            args.requests_per_tenant,
            seed=args.seed,
            distinct=args.distinct,
            deadline_s=args.deadline_s,
        )
    except ValueError as exc:
        print(f"bad loadgen arguments: {exc}", file=sys.stderr)
        return 2
    report = asyncio.run(run_loadgen(
        addresses,
        workload,
        connect_concurrency=args.connect_concurrency,
        response_timeout_s=args.response_timeout,
    ))
    print(report.describe())
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, report.snapshot())
    # Success means *accountability*, not zero shedding: every request
    # either completed or came back as a structured error response.
    ok = (
        report.connect_failures == 0
        and report.lost == 0
        and report.answered == report.sent
    )
    return 0 if ok else 1


def cmd_loadgen(args) -> int:
    import time as _time

    from .service import generate_workload, run_workload

    if getattr(args, "connect", None):
        return _cmd_loadgen_connect(args)
    try:
        requests = generate_workload(
            tenants=args.tenants, requests=args.requests, seed=args.seed
        )
    except ValueError as exc:
        print(f"bad workload: {exc}", file=sys.stderr)
        return 2
    orchestrator = _orchestrator_for(args)
    with orchestrator:
        service = orchestrator.service
        start = _time.perf_counter()
        results, rejected = run_workload(service, requests)
        elapsed = _time.perf_counter() - start
        metrics = service.metrics.describe()
        if args.metrics_json:
            _write_metrics_json(
                args.metrics_json, service.metrics.registry.snapshot()
            )
    completed = sum(1 for r in results if r.ok)
    failed = sum(1 for r in results if r.status.value == "failed")
    rate = len(results) / elapsed if elapsed > 0 else 0.0
    print(f"workload:    {args.requests} requests from {args.tenants} tenants "
          f"(seed {args.seed}, pool {args.pool} x{args.workers})")
    print(f"throughput:  {rate:.2f} requests/s "
          f"({elapsed:.2f} s wall, {completed} ok, {failed} failed, "
          f"{rejected} rejected at admission)")
    print(metrics)
    return 0 if completed > 0 else 1


def build_parser() -> argparse.ArgumentParser:
    from .api import SCHEMA_VERSION

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conductor (NSDI 2012) reproduction — plan and deploy "
        "MapReduce jobs across cloud services",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()} (api schema v{SCHEMA_VERSION})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="compute an execution plan")
    _add_job_arguments(plan)
    plan.add_argument("--services-xml", help="service catalog XML (Fig. 3 format)")
    plan.set_defaults(handler=cmd_plan)

    deploy = commands.add_parser("deploy", help="run a simulated deployment")
    _add_job_arguments(deploy)
    deploy.add_argument("--strategy", choices=sorted(_STRATEGIES), default="conductor")
    deploy.add_argument("--nodes", type=int, default=16,
                        help="node count for the Hadoop baselines")
    deploy.add_argument("--stream", action="store_true",
                        help="run the live controller loop and stream "
                        "deploy_event JSON lines")
    deploy.add_argument("--backend", choices=["sim", "pool", "stub"],
                        default="sim",
                        help="execution backend for the controller loop "
                        "(requires --stream): deterministic fluid "
                        "simulator, local process-pool MapReduce, or "
                        "stub container subprocess")
    deploy.add_argument("--trace-log", metavar="PATH",
                        help="append the run's event-sourced trace "
                        "(requires --stream)")
    deploy.set_defaults(handler=cmd_deploy)

    services = commands.add_parser("services", help="emit/validate service XML")
    services.add_argument("--emit", action="store_true")
    services.add_argument("--validate", metavar="PATH")
    services.add_argument("--local-nodes", type=int, default=0)
    services.set_defaults(handler=cmd_services)

    spot = commands.add_parser("spot", help="evaluate a spot-market scenario")
    spot.add_argument("--trace", choices=("aws", "electricity"), default="aws")
    spot.add_argument("--predictor", default="p0",
                      help="opt, p0, or pN (window of N days)")
    spot.add_argument("--days", type=int, default=10)
    spot.add_argument("--seed", type=int, default=0)
    spot.add_argument("--input-gb", type=float, default=32.0)
    spot.add_argument("--deadline", type=float, default=10.0)
    spot.set_defaults(handler=cmd_spot)

    fleet = commands.add_parser(
        "fleet",
        help="run concurrent deployments over one substrate, streaming "
        "deploy_event JSON lines",
    )
    fleet.add_argument("--deployments", type=int, default=8,
                       help="concurrent deployments sharing the substrate")
    fleet.add_argument("--mode", choices=("event", "interval"), default="event",
                       help="event-driven re-planning or fixed-cadence only")
    fleet.add_argument("--cadence", type=float, default=6.0,
                       help="fixed re-plan cadence in hours (both modes)")
    fleet.add_argument("--replan-budget", type=int, default=16,
                       help="event-driven re-plans per deployment "
                       "(0 = interval-only)")
    fleet.add_argument("--trace", choices=("aws", "electricity"), default="aws")
    fleet.add_argument("--predictor", default="p5",
                       help="opt, p0, or pN (window of N days)")
    fleet.add_argument("--days", type=int, default=8)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--start-hour", type=float, default=24.0,
                       help="substrate hour at which the fleet starts")
    fleet.add_argument("--failure-rate", type=float, default=0.0,
                       help="node-failure probability per service-hour")
    fleet.add_argument("--input-gb", type=float, default=4.0)
    fleet.add_argument("--deadline", type=float, default=12.0)
    fleet.add_argument("--uplink-mbit", type=float, default=16.0)
    fleet.add_argument("--trace-log", metavar="PATH",
                       help="append the run's event-sourced trace for "
                       "repro replay / repro trace")
    fleet.add_argument("--metrics-json", metavar="PATH",
                       help="write the unified telemetry snapshot "
                       "(requires --trace-log)")
    fleet.set_defaults(handler=cmd_fleet)

    replay = commands.add_parser(
        "replay",
        help="replay a trace log: timeline (default), --verify or --resume",
    )
    replay.add_argument("log", help="path to the JSON-lines trace log")
    replay.add_argument("--verify", action="store_true",
                        help="re-execute the recorded scenario and diff "
                        "the deterministic record streams")
    replay.add_argument("--resume", action="store_true",
                        help="finish a crashed run from its log")
    replay.add_argument("--mermaid", metavar="PATH",
                        help="write a Mermaid gantt chart of the run")
    replay.set_defaults(handler=cmd_replay)

    trace = commands.add_parser(
        "trace", help="analyze a trace log (summarize)"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize",
        help="fold a log into the unified telemetry snapshot format",
    )
    summarize.add_argument("log", help="path to the JSON-lines trace log")
    summarize.set_defaults(handler=cmd_trace)

    pig = commands.add_parser(
        "pig", help="compile a Pig-Latin script and plan the pipeline"
    )
    pig.add_argument("script", help="path to the .pig script")
    _add_job_arguments(pig)
    pig.add_argument("--compile-only", action="store_true",
                     help="show stages and per-stage jobs without planning")
    pig.set_defaults(handler=cmd_pig)

    export = commands.add_parser(
        "export", help="write the generated LP to a .lp or .mps file"
    )
    export.add_argument("path", help="output file (.lp or .mps)")
    _add_job_arguments(export)
    export.set_defaults(handler=cmd_export)

    serve = commands.add_parser(
        "serve", help="run the planning service over a JSON-lines stream"
    )
    serve.add_argument("--requests-file",
                       help="JSON-lines request file (default: stdin)")
    serve.add_argument("--listen", metavar="HOST:PORT",
                       help="serve the same dialect over TCP with the "
                       "asyncio frontend (port 0 = OS-assigned)")
    _add_service_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit one job through the planning service"
    )
    _add_job_arguments(submit)
    submit.add_argument("--services-xml", help="service catalog XML (Fig. 3 format)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=1)
    submit.add_argument("--repeat", type=int, default=1,
                        help="submit the same request N times (cache demo)")
    submit.add_argument("--json", action="store_true",
                        help="emit versioned plan_response JSON lines")
    _add_service_arguments(submit)
    submit.set_defaults(handler=cmd_submit)

    loadgen = commands.add_parser(
        "loadgen", help="drive the service with a synthetic tenant workload"
    )
    loadgen.add_argument("--tenants", type=int, default=8)
    loadgen.add_argument("--requests", type=int, default=64)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--connect", metavar="ADDR[,ADDR...]",
                         help="drive running socket frontend(s) with one "
                         "concurrent connection per tenant instead of an "
                         "in-process service; tenants route to addresses "
                         "by a stable tenant hash")
    loadgen.add_argument("--requests-per-tenant", type=int, default=1,
                         help="pipelined requests per tenant connection "
                         "(--connect mode)")
    loadgen.add_argument("--distinct", type=int, default=8,
                         help="distinct job specs in the wire workload "
                         "(--connect mode; small = cache-heavy)")
    loadgen.add_argument("--deadline-s", type=float, default=None,
                         help="per-request turnaround SLO in seconds "
                         "(--connect mode)")
    loadgen.add_argument("--connect-concurrency", type=int, default=512,
                         help="simultaneous connection attempts while "
                         "ramping up (--connect mode)")
    loadgen.add_argument("--response-timeout", type=float, default=120.0,
                         help="per-connection wait for outstanding "
                         "responses in seconds (--connect mode)")
    _add_service_arguments(loadgen)
    loadgen.set_defaults(handler=cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "incremental", False) and args.pool == "process":
        # Process workers cannot share the retained solver state; the
        # service would refuse the combination with a ValueError.
        parser.error("--incremental needs --pool thread|inline "
                     "(process workers cannot share warm solver state)")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
