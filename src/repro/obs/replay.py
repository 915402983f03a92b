"""Deterministic replay: verify, inspect and resume event-sourced traces.

A trace log's ``run_start`` record carries the full scenario, and every
layer under it is deterministic (hash-derived RNG streams, a lockstep
fleet loop, deterministic LP solves), so the log is not just a record of
what happened — it is a *program* that can be run again:

- :func:`reexecute` rebuilds the scenario's inputs and runs it afresh
  under a new tracer, producing a second stream of records;
- :func:`verify` diffs the re-executed stream against the log over the
  :data:`~repro.obs.records.DETERMINISTIC_KINDS` (wall-clock payloads —
  span seconds, build versions — are excluded by construction) and
  reports any :class:`Divergence`;
- :func:`resume` finishes a crashed run the same way: it re-executes the
  scenario and checks that the truncated log is a prefix of the fresh
  stream.  The log holds no run state to rehydrate; the scenario in its
  ``run_start`` record is the whole input.

Both accept only ``sim``-backend logs: the real backends run workers
whose timings and failures are not a function of the scenario.

Everything above the obs layer (api, fleet, cloud catalogs) is imported
lazily inside the functions — the obs package must stay importable from
the service layer without dragging the whole stack in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .records import DETERMINISTIC_KINDS, TraceRecordV1
from .trace import RunTracer, TraceCollector, TraceError

#: Scenario defaults for ``fleet`` runs — one source of truth shared by
#: ``repro fleet`` (which builds its scenario from CLI flags) and replay
#: (which tolerates logs written before a key existed).
FLEET_DEFAULTS = {
    "deployments": 8,
    "mode": "event",
    "cadence": 6.0,
    "replan_budget": 16,
    "start_hour": 24.0,
    "trace": "aws",
    "days": 8,
    "seed": 0,
    "predictor": "p5",
    "failure_rate": 0.0,
    "input_gb": 4.0,
    "deadline": 12.0,
    "uplink_mbit": 16.0,
}


def predictor_for(name: str):
    """The spot predictor a scenario names (``opt``, ``p0``, ``pN``).

    Returns ``None`` for unknown names — the CLI's contract.
    """
    from ..core import (
        CurrentPricePredictor,
        OptimalPredictor,
        WindowMaxPredictor,
    )

    if name == "opt":
        return OptimalPredictor()
    if name == "p0":
        return CurrentPricePredictor()
    if name.startswith("p") and name[1:].isdigit():
        return WindowMaxPredictor(int(name[1:]))
    return None


def trace_for(name: str, days: int, seed: int):
    """The synthetic price trace a scenario names (``aws``/``electricity``)."""
    from ..cloud import aws_like_trace, electricity_like_trace

    maker = electricity_like_trace if name == "electricity" else aws_like_trace
    return maker(days=days, seed=seed)


def scenario_of(records: list[TraceRecordV1]) -> tuple[str, dict]:
    """The ``(run_kind, scenario)`` a trace log declares.

    The tracer writes ``trace_hello`` then ``run_start``, so a valid log
    states its scenario in record 1; anything else is malformed.
    """
    if len(records) < 2 or records[1].kind != "run_start":
        raise TraceError("log has no run_start record — cannot replay")
    payload = records[1].payload
    return str(payload["run_kind"]), dict(payload["scenario"])


def fleet_inputs(scenario: dict):
    """Build the fleet run a scenario describes.

    Returns ``(specs, substrate, fleet_config, predictor)`` — exactly the
    arguments :meth:`repro.api.Orchestrator.fleet` takes.  This is the
    single construction path behind both ``repro fleet`` (scenario built
    from CLI flags) and replay (scenario read back from a log), which is
    what makes the two runs byte-comparable.

    Raises :class:`ValueError` for an unknown predictor name.
    """
    from ..api import GoalSpec, JobSpec, NetworkSpec
    from ..core.spot_sim import spot_services
    from ..fleet import FailureInjector, FleetConfig, Substrate

    merged = dict(FLEET_DEFAULTS)
    merged.update(scenario)
    predictor = predictor_for(str(merged["predictor"]))
    if predictor is None:
        raise ValueError(f"unknown predictor {merged['predictor']!r}")
    trace = trace_for(
        str(merged["trace"]), int(merged["days"]), int(merged["seed"])
    )
    spot = next(s for s in spot_services() if s.is_spot)
    failure_rate = float(merged["failure_rate"])
    failures = (
        FailureInjector(rate_per_hour=failure_rate, seed=int(merged["seed"]))
        if failure_rate > 0
        else None
    )
    substrate = Substrate(
        {spot.name: trace},
        eviction_bids={spot.name: spot.price_per_node_hour},
        failures=failures,
    )
    specs = [
        (
            f"tenant-{i + 1}",
            JobSpec(
                name=f"job-{i + 1}",
                input_gb=float(merged["input_gb"]),
                goal=GoalSpec(deadline_hours=float(merged["deadline"])),
                network=NetworkSpec(uplink_mbit_s=float(merged["uplink_mbit"])),
                catalog="spot",
            ),
        )
        for i in range(int(merged["deployments"]))
    ]
    config = FleetConfig(
        mode=str(merged["mode"]),
        interval_cadence_hours=float(merged["cadence"]),
        replan_budget=int(merged["replan_budget"]),
        start_hour=float(merged["start_hour"]),
    )
    return specs, substrate, config, predictor


def _deploy_kwargs(scenario: dict) -> dict:
    """The deploy-scenario knobs beyond the spec, rebuilt for replay."""
    kwargs: dict = {}
    data = scenario.get("actual")
    if data:
        from ..core.conditions import ActualConditions

        kwargs["actual"] = ActualConditions(
            throughput_gb_per_hour=dict(
                data.get("throughput_gb_per_hour", {})
            ),
            uplink_factor=float(data.get("uplink_factor", 1.0)),
            downlink_factor=float(data.get("downlink_factor", 1.0)),
            spot_storage_volatile=bool(
                data.get("spot_storage_volatile", True)
            ),
        )
    offset = scenario.get("trace_offset_hours")
    if offset:
        kwargs["trace_offset_hours"] = float(offset)
    backend = scenario.get("backend")
    if backend:
        kwargs["backend"] = str(backend)
    return kwargs


def reexecute(records: list[TraceRecordV1], *, registry=None):
    """Run a log's scenario again; returns ``(new_records, result)``.

    The fresh run traces into an in-memory collector under a tracer of
    its own, so the caller can diff the two streams (:func:`verify`) or
    keep stepping the result.  Supports the two scenario shapes the CLI
    writes: ``deploy`` (``{"tenant", "spec"}``) and ``fleet``
    (:data:`FLEET_DEFAULTS` keys).
    """
    from ..api import JobSpec, Orchestrator

    run_kind, scenario = scenario_of(records)
    collector = TraceCollector()
    tracer = RunTracer(collector, registry=registry)
    orchestrator = Orchestrator()
    if run_kind == "deploy":
        spec = JobSpec.from_dict(scenario["spec"])
        result = orchestrator.deploy(
            spec,
            tenant=str(scenario["tenant"]),
            tracer=tracer,
            **_deploy_kwargs(scenario),
        )
    elif run_kind == "fleet":
        specs, substrate, config, predictor = fleet_inputs(scenario)
        tracer.begin("fleet", scenario)
        result = orchestrator.fleet(
            specs,
            substrate,
            fleet_config=config,
            predictor=predictor,
            tracer=tracer,
        )
    else:
        raise TraceError(f"cannot replay run kind {run_kind!r}")
    return collector.records, result


def deterministic_lines(records: list[TraceRecordV1]) -> list[str]:
    """The log's deterministic stream, one canonical line per record.

    Filters to :data:`~repro.obs.records.DETERMINISTIC_KINDS` and
    renumbers ``seq`` by position in the filtered stream, so two runs of
    the same scenario — whatever wall-clock records (spans, or the
    snapshots older builds wrote) each interleaved — yield byte-identical
    line lists.
    """
    lines: list[str] = []
    for record in records:
        if record.kind not in DETERMINISTIC_KINDS:
            continue
        normalized = TraceRecordV1(
            run_id=record.run_id,
            seq=len(lines),
            hour=record.hour,
            kind=record.kind,
            payload=record.payload,
            trace_version=record.trace_version,
        )
        lines.append(normalized.encode())
    return lines


@dataclass(frozen=True)
class Divergence:
    """One point where the re-executed stream left the logged one."""

    #: Position in the deterministic stream (not the raw log).
    index: int
    #: The logged line ("" when the replay produced extra records).
    expected: str
    #: The re-executed line ("" when the replay ended early).
    observed: str


@dataclass
class ReplayReport:
    """Outcome of a verify-mode replay."""

    run_id: str
    run_kind: str
    record_count: int
    compared: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        head = (
            f"replay {self.run_kind} run {self.run_id}: "
            f"{self.record_count} records, "
            f"{self.compared} deterministic records compared"
        )
        if self.ok:
            return head + "\nverified: streams identical"
        lines = [head, f"DIVERGED at {len(self.divergences)} position(s):"]
        for divergence in self.divergences:
            lines.append(f"  [{divergence.index}]")
            lines.append(f"    logged:   {divergence.expected or '<missing>'}")
            lines.append(f"    replayed: {divergence.observed or '<missing>'}")
        return "\n".join(lines)


#: Divergences reported before verify gives up enumerating them.
_MAX_DIVERGENCES = 10


def _sim_run_kind(records: list[TraceRecordV1], action: str) -> str:
    """The log's run kind; :class:`TraceError` unless it ran on ``sim``.

    Only the ``sim`` backend is deterministic — real execution backends
    (``pool``/``stub``) run actual workers whose timings and failures
    are not a function of the scenario, so their logs can be neither
    byte-verified nor resumed by re-execution.
    """
    run_kind, scenario = scenario_of(records)
    backend = str(scenario.get("backend", "sim"))
    if backend != "sim":
        raise TraceError(
            f"cannot {action} a {backend!r}-backend trace: only the sim "
            "backend re-executes deterministically"
        )
    return run_kind


def verify(records: list[TraceRecordV1]) -> ReplayReport:
    """Re-execute a log's scenario and diff the deterministic streams.

    Raises :class:`TraceError` for a log from a non-``sim`` backend.
    """
    run_kind = _sim_run_kind(records, "verify")
    expected = deterministic_lines(records)
    replayed, _result = reexecute(records)
    observed = deterministic_lines(replayed)
    divergences: list[Divergence] = []
    length = max(len(expected), len(observed))
    for index in range(length):
        logged = expected[index] if index < len(expected) else ""
        fresh = observed[index] if index < len(observed) else ""
        if logged != fresh:
            divergences.append(
                Divergence(index=index, expected=logged, observed=fresh)
            )
            if len(divergences) >= _MAX_DIVERGENCES:
                break
    return ReplayReport(
        run_id=records[0].run_id,
        run_kind=run_kind,
        record_count=len(records),
        compared=min(len(expected), len(observed)),
        divergences=divergences,
    )


def resume(records: list[TraceRecordV1]):
    """Finish a crashed run from its log; returns the final result.

    Resume is re-execution: the scenario runs again, and the truncated
    log's deterministic stream must be a prefix of the fresh one —
    otherwise the log was not produced by this scenario on this build,
    and :class:`TraceError` says so.  A log from a non-``sim`` backend,
    or one that already has its ``run_end`` record (it did not crash),
    raises :class:`TraceError` too.
    """
    if records and records[-1].kind == "run_end":
        raise TraceError(
            "log is complete (run_end present) — nothing to resume"
        )
    _sim_run_kind(records, "resume")
    prefix = deterministic_lines(records)
    replayed, result = reexecute(records)
    if deterministic_lines(replayed)[: len(prefix)] != prefix:
        raise TraceError(
            "truncated log is not a prefix of its re-execution — "
            "the log does not match its recorded scenario"
        )
    return result


__all__ = [
    "Divergence",
    "FLEET_DEFAULTS",
    "ReplayReport",
    "deterministic_lines",
    "fleet_inputs",
    "predictor_for",
    "reexecute",
    "resume",
    "scenario_of",
    "trace_for",
    "verify",
]
