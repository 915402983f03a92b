"""The in-process workload: frozen fleet scenarios through
``Orchestrator.fleet`` — the deploy/monitor/adapt loop and the fleet's own
copy of the solve pipeline (``fleet.CachingPlanner``)."""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads
from launcher import BenchError, child_env
from walk import probe, resolve

BUILD_REPEATS = 5
IMPORT_TIMEOUT_S = 60.0
TRACE_SAMPLE = 3
PLAN_HIT_ROUNDS = 2000


@dataclass
class ScenarioRun:
    name: str
    wall_s: float
    cost: float
    completed: int
    deployments: int
    replans: int
    events: int
    solves: int
    cache_hits: int
    warm_solves: int
    batched_replans: int
    simulated_hours: float


@dataclass
class FleetStretch:
    setup_s: float
    elapsed_s: float
    cpu_s: float
    peak_rss_mb: float
    runs: list[ScenarioRun]
    layers: dict[str, float]   # traced runs only


def build(entry: dict):
    """``Orchestrator.fleet`` arguments for one frozen scenario."""
    from repro.obs.replay import fleet_inputs

    specs, substrate, config, predictor = fleet_inputs(entry["scenario"])
    if entry["cycle"]:
        sizes = workloads.FLEET_CYCLE_GB
        specs = [
            (tenant, dataclasses.replace(spec, input_gb=sizes[k % len(sizes)]))
            for k, (tenant, spec) in enumerate(specs)
        ]
    return specs, substrate, config, predictor


def run_scenario(entry: dict, inputs=None, tracer=None) -> ScenarioRun:
    from repro.api import Orchestrator

    specs, substrate, config, predictor = inputs or build(entry)
    events = 0

    def on_event(_event) -> None:
        nonlocal events
        events += 1

    start = time.perf_counter()
    result = Orchestrator().fleet(
        specs, substrate, fleet_config=config, predictor=predictor,
        on_event=on_event, tracer=tracer,
    )
    wall = time.perf_counter() - start
    return ScenarioRun(
        name=entry["name"], wall_s=wall, cost=result.total_cost,
        completed=result.completed, deployments=len(specs),
        replans=result.total_replans, events=events, solves=result.solves,
        cache_hits=result.cache_hits, warm_solves=result.warm_solves,
        batched_replans=result.batched_replans,
        simulated_hours=result.makespan_hours,
    )


def _import_seconds(repeats: int) -> float:
    """A fresh interpreter importing the fleet entry points: the set-up a
    caller of the in-process path pays before the first scenario."""
    env = child_env()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c",
                 "import repro.api, repro.fleet, repro.obs.replay"],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=IMPORT_TIMEOUT_S, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("importing the fleet entry points timed out") from exc
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"importing the fleet entry points failed: {last}")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run(seed: int, seconds: float, tracer=None, *, setup_repeats: int) -> FleetStretch:
    """One timed stretch; ``tracer`` (a :class:`walk.Tracer`, traced runs
    only) gets one root span per scenario, after an untraced pass over the
    same scenarios that ``trace.overhead_share`` compares it with."""
    entries = workloads.fleet_adapt(seed, seconds)
    builds = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        inputs = [build(entry) for entry in entries]
        builds.append(time.perf_counter() - start)
    setup_s = _import_seconds(setup_repeats) + statistics.median(builds)

    untraced_s = 0.0
    if tracer is not None:
        fresh = [build(entry) for entry in entries]
        start = time.perf_counter()
        for entry, inp in zip(entries, fresh):
            run_scenario(entry, inp)
        untraced_s = time.perf_counter() - start

    gc.collect()
    cpu0 = time.process_time()
    start = time.perf_counter()
    runs = []
    for entry, inp in zip(entries, inputs):
        if tracer is None:
            runs.append(run_scenario(entry, inp))
            continue
        with tracer.request(), tracer.span("api.orchestrator.fleet"):
            runs.append(run_scenario(entry, inp))
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = {}
    if tracer is not None:
        layers = _layers(entries, runs, seed)
        # both passes ran the same scenarios: throughputs are 1 / elapsed
        layers["trace.overhead_share"] = 1.0 - untraced_s / elapsed
    return FleetStretch(setup_s, elapsed, cpu, rss_mb, runs, layers)


def _layers(entries: list[dict], runs: list[ScenarioRun], seed: int) -> dict[str, float]:
    hours = sum(run.simulated_hours for run in runs)
    layers = {
        "fleet.replanner.solves": float(sum(run.solves for run in runs)),
        "fleet.replanner.cache_hits": float(sum(run.cache_hits for run in runs)),
        "fleet.replanner.warm_solves": float(sum(run.warm_solves for run in runs)),
        "fleet.replanner.batched_replans": float(
            sum(run.batched_replans for run in runs)),
        "fleet.scheduler.replans": float(sum(run.replans for run in runs)),
        "fleet.scheduler.step_ms": (
            sum(run.wall_s for run in runs) * 1e3 / hours if hours else 0.0),
        "fleet.replanner.plan_hit_us": _plan_hit_us(),
    }
    sample = random.Random(seed).sample(entries, min(TRACE_SAMPLE, len(entries)))
    layers["obs.trace.overhead_share"] = _obs_overhead(sample)
    return layers


@probe(0.0, "fleet.replanner")
def _plan_hit_us() -> float:
    """Microseconds for ``CachingPlanner.plan`` to answer from its cache."""
    compile_spec, caching_planner = resolve(
        "repro.api.compiler:compile_spec", "repro.fleet.replanner:CachingPlanner")
    planner = caching_planner()
    problem = compile_spec(workloads.job_spec(workloads.HOT_SPECS[0]))
    planner.plan(problem)
    start = time.perf_counter()
    for _ in range(PLAN_HIT_ROUNDS):
        planner.plan(problem)
    return (time.perf_counter() - start) / PLAN_HIT_ROUNDS * 1e6


@probe(0.0, "obs.trace")
def _obs_overhead(sample: list[dict]) -> float:
    """The program's own ``RunTracer`` on a fleet run: traced / untraced - 1."""
    run_tracer, collector = resolve(
        "repro.obs.trace:RunTracer", "repro.obs.trace:TraceCollector")
    plain = traced = 0.0
    for entry in sample:
        plain += run_scenario(entry).wall_s
        tracer = run_tracer(collector())
        tracer.begin("fleet", dict(entry["scenario"]), version="bench")
        traced += run_scenario(entry, tracer=tracer).wall_s
    return traced / plain - 1.0 if plain else 0.0
