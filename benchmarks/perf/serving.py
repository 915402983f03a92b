"""The four serving workloads: build the request lines, start the real
server, run one timed stretch, and hand back everything measured.

Nothing here decides what a good number is — :mod:`run` turns a
:class:`Stretch` into metrics and checks every answer against the
reference table.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import loadgen
import workloads
from launcher import BenchError, Server

PREFILL_TIMEOUT_S = 60.0
STRETCH_TIMEOUT_S = 150.0


@dataclass
class Op:
    """One attempted operation and what is expected of it."""

    problem: dict
    #: Counts toward latency_p50_ms / within_limit_share (on burst_mix
    #: only the cached bystanders do; the bursts are timed separately).
    timed: bool = True


@dataclass
class Plan:
    flags: tuple[str, ...]
    connections: int
    window: int
    limit_ms: float
    prefill: list[loadgen.Request]
    sources: list[collections.deque]
    ops: dict[str, Op]
    #: request line per request id, for the layer walk.
    lines: dict[str, bytes]
    #: Start the server confined to one CPU (``cached_storm``, see README).
    one_cpu: bool


@dataclass
class Stretch:
    setup_s: float
    outcome: loadgen.Outcome
    server_cpu_s: float
    peak_rss_mb: float
    # traced runs only: the server's --metrics-json, and the same plan on a
    # server without it (what trace.overhead_share compares against)
    snapshot: dict | None
    untraced: loadgen.Outcome | None


# ---------------------------------------------------------------------------
# request lines

def request_line(job: dict, tenant: str, priority: int, request_id: str,
                 deadline_s: float | None = None) -> bytes:
    """One ``plan_request`` wire line for the ``JobSpec.to_dict()`` ``job``."""
    payload = {
        "schema_version": 1,
        "kind": "plan_request",
        "job": job,
        "tenant": tenant,
        "priority": priority,
        "deadline_s": deadline_s,
        "time_budget_s": None,
        "request_id": request_id,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def shard_tenants(prefix: str, shards: int = 4) -> list[str]:
    """One tenant name per broker shard, so prefill reaches every shard
    (and forks every shard's solver pool before the clock starts)."""
    from repro.service.frontend import shard_for_tenant

    names: dict[int, str] = {}
    index = 0
    while len(names) < shards:
        name = f"{prefix}-{index}"
        names.setdefault(shard_for_tenant(name, shards), name)
        index += 1
    return [names[shard] for shard in range(shards)]


class _Builder:
    """Accumulates a plan's requests, ids and expectations."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.count = 0
        self.ops: dict[str, Op] = {}
        self.lines: dict[str, bytes] = {}
        #: problem key -> its job dict (a storm asks for six, 60,000 times).
        self._jobs: dict[str, dict] = {}

    def add(self, problem: dict, tenant: str, priority: int = 1, *,
            timed: bool = True, due_s: float | None = None,
            deadline_s: float | None = None, track: bool = True) -> loadgen.Request:
        request_id = f"{self.seed:x}-{self.count:06d}"
        self.count += 1
        key = workloads.problem_key(problem)
        job = self._jobs.get(key)
        if job is None:
            job = self._jobs[key] = workloads.job_spec(problem).to_dict()
        line = request_line(job, tenant, priority, request_id, deadline_s)
        if track:
            self.ops[request_id] = Op(problem, timed)
            self.lines[request_id] = line
        return loadgen.Request(request_id, line, due_s)

    def plan(self, *, connections: int, window: int, limit_ms: float,
             prefill: list[loadgen.Request], sources: list[collections.deque],
             flags: tuple[str, ...] = (), one_cpu: bool = False) -> Plan:
        return Plan(flags, connections, window, limit_ms, prefill, sources,
                    self.ops, self.lines, one_cpu)


def _hot_prefill(builder: _Builder) -> list[loadgen.Request]:
    tenants = shard_tenants("warm")
    return [
        builder.add(spec, tenants[i % len(tenants)], track=False)
        for i, spec in enumerate(workloads.HOT_SPECS)
    ]


def plan_cold_grid(seed: int, seconds: float) -> Plan:
    builder = _Builder(seed)
    prefill = [builder.add(p, t, track=False)
               for p, t in zip(workloads.COLD_WARMUPS, shard_tenants("warm"))]
    shared = collections.deque(
        builder.add(p, f"c{seed:x}-{i:03d}")
        for i, p in enumerate(workloads.cold_grid(seed, seconds))
    )
    return builder.plan(connections=2, window=1, limit_ms=workloads.COLD_LIMIT_MS,
                        prefill=prefill, sources=[shared])


def plan_replan_drift(seed: int, seconds: float) -> Plan:
    builder = _Builder(seed)
    tenant = lambda d: f"d{seed:x}-{d}"  # noqa: E731 - one deployment, one shard
    prefill = [builder.add(p, tenant(d), track=False)
               for d, p in enumerate(workloads.DRIFT_DEPLOYMENTS)]
    sources = [
        collections.deque(builder.add(p, tenant(d)) for d, p in requests)
        for requests in workloads.replan_drift(seed, seconds)
    ]
    return builder.plan(flags=("--pool", "thread", "--incremental"),
                        connections=2, window=1,
                        limit_ms=workloads.DRIFT_LIMIT_MS,
                        prefill=prefill, sources=sources)


def plan_cached_storm(seed: int, seconds: float) -> Plan:
    builder = _Builder(seed)
    prefill = _hot_prefill(builder)
    sources = [
        collections.deque(builder.add(p, t, prio) for t, prio, p in requests)
        for requests in workloads.cached_storm(seed, seconds)
    ]
    # The server is GIL-bound here (1.0 core at saturation).  Free on a
    # 2-vCPU VM its threads hand the GIL across CPUs, and ten-seed sets
    # spread by 0.08 - 0.28 of their median, where the largest bound the
    # driver takes is 0.25; on one CPU they spread by 0.03 - 0.15.
    return builder.plan(connections=2, window=workloads.STORM_WINDOW,
                        limit_ms=workloads.STORM_LIMIT_MS,
                        prefill=prefill, sources=sources, one_cpu=True)


def plan_burst_mix(seed: int, seconds: float) -> Plan:
    builder = _Builder(seed)
    prefill = _hot_prefill(builder)
    source = collections.deque(
        builder.add(
            p, tenant, prio, timed=not cold, due_s=due,
            deadline_s=None if cold else workloads.BURST_DEADLINE_S,
        )
        for due, tenant, prio, p, cold in workloads.burst_mix(seed, seconds)
    )
    # Open loop: the window never holds a due request back.
    return builder.plan(connections=1, window=len(source) + 1,
                        limit_ms=workloads.BURST_LIMIT_MS,
                        prefill=prefill, sources=[source])


PLANNERS = {
    "cold_grid": plan_cold_grid,
    "replan_drift": plan_replan_drift,
    "cached_storm": plan_cached_storm,
    "burst_mix": plan_burst_mix,
}


# ---------------------------------------------------------------------------
# running


def _set_up(plan: Plan, metrics_json: Path | None):
    """Child start -> ``listening on`` -> prefill answered.  Returns the
    live server, its greeted connections and the seconds it took."""
    start = time.perf_counter()
    cpus = {min(os.sched_getaffinity(0))} if plan.one_cpu else None
    server = Server(plan.flags, metrics_json, cpus)
    socks = []
    try:
        address = server.start()
        socks = [loadgen.connect(address) for _ in range(plan.connections)]
        warm = loadgen.drive(
            socks[:1],
            [collections.deque(plan.prefill)],
            window=len(plan.prefill),
            timeout_s=PREFILL_TIMEOUT_S,
            alive=server.check_alive,
        )
        for request_id, response in warm.responses.items():
            if response.get("status") != "completed":
                raise BenchError(
                    f"prefill request {request_id} came back "
                    f"{response.get('status')!r}: {response.get('error')}"
                )
        return server, socks, time.perf_counter() - start
    except BaseException:
        _tear_down(server, socks)
        raise


def _tear_down(server: Server, socks: list) -> None:
    for sock in socks:
        sock.close()
    server.stop()


def _stretch(plan: Plan, metrics_json: Path | None):
    """Set up one server and run the plan on it: ``(set-up seconds,
    outcome, server CPU seconds, peak RSS in MB)``."""
    server, socks, seconds = _set_up(plan, metrics_json)
    try:
        cpu_before = server.cpu_seconds()
        outcome = loadgen.drive(
            socks,
            [collections.deque(source) for source in plan.sources],
            window=plan.window,
            timeout_s=STRETCH_TIMEOUT_S,
            alive=server.check_alive,
        )
        server_cpu_s = server.cpu_seconds() - cpu_before
        peak_rss_mb = server.peak_rss_mb()
        server.check_alive()
    finally:
        _tear_down(server, socks)
    return seconds, outcome, server_cpu_s, peak_rss_mb


def run(plan: Plan, *, run_dir: Path, traced: bool, setup_repeats: int) -> Stretch:
    """Set up ``setup_repeats`` times (``setup_s`` is the median) and run
    the timed stretch on the last server.  A traced run first runs the same
    plan on a server without ``--metrics-json``."""
    setups = []
    for _ in range(setup_repeats - 1):
        server, socks, seconds = _set_up(plan, None)
        _tear_down(server, socks)
        setups.append(seconds)
    untraced = snapshot = metrics_json = None
    if traced:
        untraced = _stretch(plan, None)[1]
        metrics_json = run_dir / "server-metrics.json"
    seconds, outcome, server_cpu_s, peak_rss_mb = _stretch(plan, metrics_json)
    setups.append(seconds)
    if metrics_json is not None:
        try:
            snapshot = json.loads(metrics_json.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchError(f"server wrote no metrics snapshot: {exc}") from exc
    return Stretch(
        setup_s=statistics.median(setups),
        outcome=outcome,
        server_cpu_s=server_cpu_s,
        peak_rss_mb=peak_rss_mb,
        snapshot=snapshot,
        untraced=untraced,
    )
