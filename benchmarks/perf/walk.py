"""The layer walk: where one request's time goes, measured from outside.

The program has no spans of its own yet, so a traced run replays the
run's own request lines (all, or a seeded sample) in this process, calling
each layer's public function in the order the request path does.  One
root span per request, one child span per call; spans stay in memory and
are written out when the run ends; a layer's self time is its span minus
the part its children cover.

Every walk looks its layers' functions up with :func:`resolve` before it
walks anything.  A function a later change removed makes that walk report
0 for its metrics with a note on stderr (that change may not edit the
benchmark); only the lookup is forgiven — an error raised while a walk
runs fails the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

SOLVER_TIME_LIMIT_S = 180.0
MIP_GAP = 0.01
BURST_SAMPLE = 4
DRIFT_SAMPLE_STEPS = 15
CACHED_SAMPLE = 2000
IPC_ROUNDS = 3
BROKER_ROUNDS = 2000


class Tracer:
    """In-memory spans: ``(id, parent, request, name, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Counts taken at the same boundaries (name -> values).
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._request = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def request(self) -> "_Span":
        """The root span of the next request."""
        self._request += 1
        return _Span(self, "request")

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (parent, request, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_s": start, "end_s": end,
                }) + "\n")

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """name -> self seconds of every span of that name."""
        covered = [0.0] * len(self.spans)
        for parent, _request, _name, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (_parent, _request, name, start, end) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - covered[index])
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([parent, tracer._request, self.name,
                             time.perf_counter(), 0.0])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index][4] = time.perf_counter()
        self.tracer._stack.pop()


class LayerGone(Exception):
    """A function a probe measures is no longer in the program."""


def resolve(*paths: str) -> list:
    """The objects named ``module:attribute``, in order."""
    found = []
    for path in paths:
        module, _, attribute = path.partition(":")
        try:
            found.append(getattr(importlib.import_module(module), attribute))
        except (ImportError, AttributeError) as exc:
            raise LayerGone(f"{path}: {exc}") from exc
    return found


def probe(default, what: str):
    """A layer probe whose functions are gone reports ``default``.  Probes
    call :func:`resolve` before they measure anything, so nothing else is
    caught here."""
    def wrap(fn):
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except LayerGone as exc:
                print(f"note: layer probe {what} skipped ({exc})", file=sys.stderr)
                return default
        return guarded
    return wrap


def _mean(values: list[float], scale: float) -> float:
    return statistics.fmean(values) * scale if values else 0.0


# ---------------------------------------------------------------------------
# the walks


class _Path:
    """The pieces every walk shares: decode -> compile -> ... -> encode."""

    def __init__(self, tracer: Tracer) -> None:
        (orchestrator, self.decode, self.encode, lru, shared,
         self.problem_fingerprint, self.plan_result, self.status) = resolve(
            "repro.api:Orchestrator", "repro.api:decode", "repro.api:encode",
            "repro.service:LRUCache", "repro.service:SharedPlanCache",
            "repro.service:problem_fingerprint", "repro.service:PlanResult",
            "repro.service:RequestStatus")
        self.tracer = tracer
        self.orchestrator = orchestrator()
        self.seen_specs: set = set()
        self.l1 = lru(256)
        self.l2 = shared()

    def front(self, line: bytes):
        """decode -> compile (memo hit or miss) -> exact fingerprint.
        Returns ``(request, problem, fingerprint)``."""
        span = self.tracer.span
        with span("api.schemas.decode"):
            request = self.decode(line)
        key = request.job.cache_key()
        name = ("api.orchestrator.compile_memo" if key in self.seen_specs
                else "api.compiler.compile_spec")
        self.seen_specs.add(key)
        with span(name):
            problem = self.orchestrator.compile(request.job)
        with span("service.fingerprint.exact"):
            fingerprint = self.problem_fingerprint(problem)
        return request, problem, fingerprint

    def lookups(self, fingerprint: str) -> None:
        span = self.tracer.span
        with span("service.cache.l1_get"):
            self.l1.get(fingerprint)
        with span("service.cache.l2_get"):
            self.l2.get(fingerprint)

    def back(self, request, plan, fingerprint: str, cached: bool) -> bytes:
        result = self.plan_result(
            request_id=0, tenant=request.tenant, status=self.status.COMPLETED,
            plan=plan, cached=cached, fingerprint=fingerprint,
        )
        span = self.tracer.span
        with span("api.orchestrator.respond"):
            response = self.orchestrator.respond(result, request.request_id)
        with span("api.schemas.encode"):
            return self.encode(response).encode("utf-8")

    def via_plan_v1(self, orchestrator, line: bytes) -> float:
        """Seconds for the same line through the public round trip."""
        start = time.perf_counter()
        response = orchestrator.plan_v1(self.decode(line), timeout=SOLVER_TIME_LIMIT_S)
        self.encode(response)
        elapsed = time.perf_counter() - start
        if response.status != "completed":
            raise RuntimeError(f"walk reconcile request failed: {response.error}")
        return elapsed


def _service(**config):
    """An orchestrator over an inline-pool service, and that service."""
    orchestrator, service, service_config = resolve(
        "repro.api:Orchestrator", "repro.service:PlanningService",
        "repro.service:ServiceConfig")
    running = service(service_config(pool_mode="inline", **config))
    return orchestrator(service=running), running


@probe(None, "the cold walk")
def walk_cold(lines: list[bytes], tracer: Tracer) -> None:
    """Cold requests: every layer down to the backend solve.  Each line
    also goes through ``Orchestrator.plan_v1`` right after its walked
    twin (count ``plan_v1_s``), so a slow second hits both alike."""
    (build_model,) = resolve("repro.core.model_builder:build_model")
    path = _Path(tracer)
    span = tracer.span
    orchestrator, service = _service()
    try:
        for line in lines:
            with tracer.request():
                request, problem, fingerprint = path.front(line)
                path.lookups(fingerprint)
                with span("core.model_builder.build"):
                    built = build_model(problem)
                with span("lp.model.compile"):
                    compiled = built.model.compile()
                with span("lp.scipy_backend.solve"):
                    solution = built.model.solve(
                        time_limit=SOLVER_TIME_LIMIT_S, mip_gap=MIP_GAP
                    )
                with span("core.model_builder.extract_plan"):
                    plan = built.extract_plan(solution)
                path.back(request, plan, fingerprint, cached=False)
            tracer.count("lp.model.variables", compiled.num_vars)
            tracer.count("plan_v1_s", path.via_plan_v1(orchestrator, line))
    finally:
        service.stop()


@probe(None, "the warm walk")
def walk_warm(seed_lines: list[bytes], series: list[list[bytes]],
              tracer: Tracer) -> None:
    """Re-plans: each deployment's base is solved cold (unspanned), then
    its steps go through the incremental solver.  The solver's own
    build/compile/diff cannot be seen from outside, so the same three
    calls run as probes before each request's root span;
    ``service.incremental.self`` is the solve minus those three."""
    (compile_spec, build_model, diff_compiled, incremental_solver,
     structural_fingerprint) = resolve(
        "repro.api.compiler:compile_spec", "repro.core.model_builder:build_model",
        "repro.lp.incremental:diff_compiled", "repro.service:IncrementalSolver",
        "repro.service:structural_fingerprint")
    path = _Path(tracer)
    orchestrator, service = _service(incremental=True)
    solver = incremental_solver(time_limit=SOLVER_TIME_LIMIT_S, mip_gap=MIP_GAP)
    span = tracer.span
    try:
        for seed_line, lines in zip(seed_lines, series):
            base = compile_spec(path.decode(seed_line).job)
            solver.solve(base)
            path.via_plan_v1(orchestrator, seed_line)
            previous = build_model(base).model.compile()
            for line in lines:
                problem = compile_spec(path.decode(line).job)
                with span("probe.core.model_builder.build"):
                    built = build_model(problem)
                with span("probe.lp.model.compile"):
                    compiled = built.model.compile()
                with span("probe.lp.incremental.diff"):
                    diff_compiled(previous, compiled)
                previous = compiled
                with tracer.request():
                    request, problem, fingerprint = path.front(line)
                    with span("service.fingerprint.structural"):
                        structural_fingerprint(problem)
                    path.lookups(fingerprint)
                    with span("service.incremental.warm_solve"):
                        plan = solver.solve(problem)
                    path.back(request, plan, fingerprint, cached=False)
                tracer.count("lp.model.variables", compiled.num_vars)
                tracer.count("plan_v1_s", path.via_plan_v1(orchestrator, line))
    finally:
        service.stop()


@probe(None, "the cached walk")
def walk_cached(hot_lines: list[bytes], lines: list[bytes], tracer: Tracer) -> None:
    """Cache hits: no solver; the request is decode, the compile memo and
    the service's dispatch hand-off (inline pool, ``ordered_admission`` —
    the socket frontend's setting).  Fingerprint and cache lookups happen
    inside that hand-off, so they run as probes outside the root span."""
    (plan_request,) = resolve("repro.service:PlanRequest")
    path = _Path(tracer)
    orchestrator, service = _service(ordered_admission=True)
    span = tracer.span
    try:
        for line in hot_lines:
            request = path.decode(line)
            response = orchestrator.plan_v1(request, timeout=SOLVER_TIME_LIMIT_S)
            if response.status != "completed":
                raise RuntimeError(f"hot spec failed in the walk: {response.error}")
            problem = path.orchestrator.compile(request.job)
            path.seen_specs.add(request.job.cache_key())
            ticket = service.submit(problem, tenant="warm")
            plan = ticket.result(timeout=SOLVER_TIME_LIMIT_S).plan
            path.l1.put(ticket.fingerprint, plan)
            path.l2.put(ticket.fingerprint, plan)
        for line in lines:
            with tracer.request():
                request, problem, fingerprint = path.front(line)
                with span("service.service.cached_submit"):
                    result = service.submit_request(plan_request(
                        tenant=request.tenant, problem=problem,
                        priority=request.priority,
                        deadline_s=request.deadline_s,
                    )).result(timeout=SOLVER_TIME_LIMIT_S)
                path.back(request, result.plan, fingerprint, cached=True)
            with span("probe.service.cache.l1_get"):
                path.l1.get(fingerprint)
            with span("probe.service.cache.l2_get"):
                path.l2.get(fingerprint)
            tracer.count("plan_v1_s", path.via_plan_v1(orchestrator, line))
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# stand-alone probes


@probe((0.0, 0.0), "service.broker")
def broker_probe(spec) -> tuple[float, float]:
    """Microseconds per submit+pop pair with 1 and 1,024 tenants queued."""
    compile_spec, plan_request, request_broker, submitted_request = resolve(
        "repro.api.compiler:compile_spec", "repro.service:PlanRequest",
        "repro.service:RequestBroker", "repro.service:SubmittedRequest")
    problem = compile_spec(spec)

    def ticket(tenant: str):
        return submitted_request(plan_request(tenant=tenant, problem=problem), 0, "")

    out = []
    for depth in (1, 1024):
        broker = request_broker(max_pending_total=depth + 8,
                                max_pending_per_tenant=8)
        for index in range(depth):
            broker.submit(ticket(f"queued-{index}"))
        extra = [ticket(f"extra-{index}") for index in range(BROKER_ROUNDS)]
        start = time.perf_counter()
        for item in extra:
            broker.submit(item)
            broker.pop(timeout=0)
        out.append((time.perf_counter() - start) / BROKER_ROUNDS * 1e6)
    return out[0], out[1]


@probe(0.0, "service.pool")
def ipc_probe(specs: list) -> float:
    """Milliseconds a process-pool round trip adds to ``solve_problem``.
    The extra (pickling both ways, the hop) is a few ms whatever the solve
    takes, so ``specs`` are quick problems in which it is not lost."""
    compile_spec, solver_pool, solve_problem = resolve(
        "repro.api.compiler:compile_spec", "repro.service:SolverPool",
        "repro.service:solve_problem")
    problems = [compile_spec(spec) for spec in specs]
    pool = solver_pool(max_workers=1, mode="process")
    try:
        pool.submit(problems[0]).result(timeout=SOLVER_TIME_LIMIT_S)  # fork
        extra = []
        for problem in problems * IPC_ROUNDS:
            start = time.perf_counter()
            pool.submit(problem).result(timeout=SOLVER_TIME_LIMIT_S)
            remote = time.perf_counter() - start
            start = time.perf_counter()
            solve_problem(problem)
            extra.append(remote - (time.perf_counter() - start))
        return statistics.median(extra) * 1e3
    finally:
        pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# from spans to metrics

#: span name -> (metric name, scale from seconds)
_SPAN_METRICS = {
    "api.schemas.decode": ("api.schemas.decode_us", 1e6),
    "api.compiler.compile_spec": ("api.compiler.compile_spec_us", 1e6),
    "api.orchestrator.compile_memo": ("api.orchestrator.compile_memo_us", 1e6),
    "service.fingerprint.exact": ("service.fingerprint.exact_us", 1e6),
    "service.fingerprint.structural": ("service.fingerprint.structural_us", 1e6),
    "service.cache.l1_get": ("service.cache.l1_get_us", 1e6),
    "service.cache.l2_get": ("service.cache.l2_get_us", 1e6),
    "probe.service.cache.l1_get": ("service.cache.l1_get_us", 1e6),
    "probe.service.cache.l2_get": ("service.cache.l2_get_us", 1e6),
    "service.service.cached_submit": ("service.service.cached_submit_us", 1e6),
    "core.model_builder.build": ("core.model_builder.build_ms", 1e3),
    "probe.core.model_builder.build": ("core.model_builder.build_ms", 1e3),
    "lp.model.compile": ("lp.model.compile_ms", 1e3),
    "probe.lp.model.compile": ("lp.model.compile_ms", 1e3),
    "lp.scipy_backend.solve": ("lp.scipy_backend.solve_ms", 1e3),
    "core.model_builder.extract_plan": ("core.model_builder.extract_plan_us", 1e6),
    "probe.lp.incremental.diff": ("lp.incremental.diff_us", 1e6),
    "service.incremental.warm_solve": ("service.incremental.warm_solve_ms", 1e3),
    "api.orchestrator.respond": ("api.orchestrator.respond_us", 1e6),
    "api.schemas.encode": ("api.schemas.encode_us", 1e6),
}


def walk_metrics(tracer: Tracer) -> dict[str, float]:
    """Mean self time per request of every layer, plus the reconciliation
    of their sum against the same requests through ``plan_v1``."""
    self_times = tracer.self_times()
    out = {metric: 0.0 for metric, _scale in _SPAN_METRICS.values()}
    for name, (metric, scale) in _SPAN_METRICS.items():
        if name in self_times:
            out[metric] = _mean(self_times[name], scale)
    out["lp.model.variables"] = _mean(tracer.counts.get("lp.model.variables", []), 1.0)
    out["service.incremental.self_ms"] = max(0.0, (
        out["service.incremental.warm_solve_ms"]
        - out["core.model_builder.build_ms"] - out["lp.model.compile_ms"]
        - out["lp.incremental.diff_us"] / 1e3
    )) if out["service.incremental.warm_solve_ms"] else 0.0
    in_request = sum(
        end - start for parent, _r, name, start, end in tracer.spans
        if parent >= 0 and tracer.spans[parent][2] == "request"
    )
    plan_v1_s = sum(tracer.counts.get("plan_v1_s", []))
    out["walk.reconcile_share"] = in_request / plan_v1_s if plan_v1_s else 0.0
    return out
