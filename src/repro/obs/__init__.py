"""Observability: durable traces, deterministic replay, one telemetry registry.

The fleet runtime narrates typed events and ``ReplanRecord``s; before
this package nothing durably stored them.  ``repro.obs`` adds the three
pieces the ROADMAP's "event-sourced observability" item names:

``repro.obs.records``
    Frozen, versioned trace-record schemas: the append-only log's
    envelope (:class:`TraceRecordV1`) plus one payload schema per record
    kind, alongside the wire-format ``DeployEventV1``.
``repro.obs.trace``
    The append-only JSON-lines :class:`TraceWriter`, the higher-level
    :class:`RunTracer` that subscribes at the controller/fleet/session
    seams, and :func:`read_trace`.
``repro.obs.registry``
    The telemetry registry: counters, gauges, exact-percentile latency
    series and span timers with one snapshot format — the
    generalization of ``repro.service.metrics``.
``repro.obs.replay``
    Deterministic replay: re-execute a logged run from its recorded
    scenario and diff the streams (verify), or recover a truncated run
    to the same final state (resume).
``repro.obs.timeline``
    Inspect-mode rendering: a human-readable timeline and a Mermaid
    export of the path a deployment actually took.
``repro.obs.summary``
    Aggregate a trace log into the registry snapshot format
    (``repro trace summarize``).

Attribute access is lazy so the low-level modules (``registry``,
``records``) can be imported by the service layer without dragging the
replay machinery — which imports the api and fleet layers — into every
process.
"""

from __future__ import annotations

_EXPORTS = {
    "Counter": "registry",
    "Gauge": "registry",
    "LatencySeries": "registry",
    "MetricsRegistry": "registry",
    "percentile": "registry",
    "DETERMINISTIC_KINDS": "records",
    "RECORD_KINDS": "records",
    "TRACE_SCHEMA_VERSION": "records",
    "TraceRecordV1": "records",
    "run_id_for": "records",
    "RunTracer": "trace",
    "TraceCollector": "trace",
    "TraceError": "trace",
    "TraceWriter": "trace",
    "read_trace": "trace",
    "Divergence": "replay",
    "FLEET_DEFAULTS": "replay",
    "ReplayReport": "replay",
    "deterministic_lines": "replay",
    "fleet_inputs": "replay",
    "predictor_for": "replay",
    "reexecute": "replay",
    "resume": "replay",
    "scenario_of": "replay",
    "trace_for": "replay",
    "verify": "replay",
    "render_timeline": "timeline",
    "to_mermaid": "timeline",
    "summarize_records": "summary",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
