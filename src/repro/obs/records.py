"""Versioned trace-record schemas — the durable log's vocabulary (v1).

A trace log is an append-only sequence of :class:`TraceRecordV1`
envelopes, one JSON line each.  The envelope carries the log-level
bookkeeping (run id, monotonic sequence number, simulated clock, record
kind); the ``payload`` is the record kind's own frozen schema, exactly
as :class:`~repro.api.schemas.DeployEventV1` is the wire schema for
interval and replan events — those two kinds embed ``DeployEventV1``
payloads verbatim, so a trace log and a ``repro fleet`` stream agree
byte-for-byte on what an executed interval looks like.

Record kinds:

=================  ========================================================
``trace_hello``    first record of every log: writer build + versions
``run_start``      the full scenario (the recipe replay re-executes)
``lifecycle``      a deployment started / completed / failed
``interval``       one executed plan interval (``DeployEventV1``)
``replan``         one adopted re-plan (``DeployEventV1``)
``substrate_event``a typed substrate event (price/eviction/failure/capacity)
``span``           wall-clock timing of a hot path (solve/replan/run)
``snapshot``       a controller state dump older builds wrote; read, never written
``run_end``        the run's deterministic summary
=================  ========================================================

:data:`DETERMINISTIC_KINDS` names the kinds whose payloads are pure
functions of the scenario: replaying the same scenario re-emits them
identically, so verify mode diffs exactly these, and resume checks a
crashed log against its re-execution over them.  ``trace_hello`` (build
version), ``span`` (wall-clock seconds) and ``snapshot`` (solver
wall-clock inside) are excluded by construction.

Schema evolution follows the wire format's rules, through the same
field table (:mod:`repro.api.schemas`): every envelope carries
``trace_version``; unknown versions, kinds and fields, missing fields
that have no default and non-finite numbers are rejected with
:class:`~repro.api.schemas.SchemaError`, never skipped or blanked.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import field
from typing import ClassVar

from ..api.schemas import (
    DeployEventV1,
    SchemaError,
    _mapping,
    _require,
    _schema,
    _Schema,
)

#: The trace-log format version this build writes and reads.
TRACE_SCHEMA_VERSION = 1

#: Every record kind a v1 log may contain, in rough lifecycle order.
RECORD_KINDS = (
    "trace_hello",
    "run_start",
    "lifecycle",
    "interval",
    "replan",
    "substrate_event",
    "span",
    "snapshot",
    "run_end",
)

#: Kinds whose payloads are pure functions of the scenario — the stream
#: replay's verify mode compares.  Wall-clock data (``trace_hello``'s
#: build version, ``span`` seconds, the solver timings inside
#: ``snapshot``) is deliberately outside this set.
DETERMINISTIC_KINDS = frozenset(
    {"run_start", "lifecycle", "interval", "replan", "substrate_event",
     "run_end"}
)

#: Lifecycle phases a deployment moves through.
LIFECYCLE_PHASES = ("started", "completed", "failed")


def run_id_for(scenario: Mapping) -> str:
    """Derive the run id from the scenario — content-addressed, so the
    same configuration always logs (and replays) under the same id."""
    canonical = json.dumps(dict(scenario), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# the envelope


@_schema
class TraceRecordV1(_Schema):
    """One line of a trace log: bookkeeping envelope + typed payload.

    ``seq`` is the writer-assigned monotonic position (0-based, gapless
    within one log); ``hour`` is the *simulated* clock at emission — the
    deterministic time axis replay aligns on — not wall clock.
    """

    KIND: ClassVar[str] = "trace_record"

    run_id: str
    seq: int
    hour: float
    kind: str
    payload: dict
    trace_version: int = TRACE_SCHEMA_VERSION

    def _check(self) -> None:
        _require(self.trace_version == TRACE_SCHEMA_VERSION,
                 f"unsupported trace_version {self.trace_version!r}")
        _require(bool(self.run_id), "run_id must be non-empty")
        _require(self.seq >= 0, "seq must be non-negative")
        _require(self.kind in RECORD_KINDS,
                 f"unknown record kind {self.kind!r}; "
                 f"expected one of {list(RECORD_KINDS)}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceRecordV1":
        # Unlike the wire envelope, a log line must state its version.
        data = _mapping(data, cls.KIND)
        version = data.pop("trace_version", None)
        if version != TRACE_SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported trace_version {version!r} "
                f"(this build speaks version {TRACE_SCHEMA_VERSION})"
            )
        return cls._decode(data)

    def encode(self) -> str:
        """One JSON line, keys sorted — the log format."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def decode(cls, line: str) -> "TraceRecordV1":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"trace line is not valid JSON: {exc}") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# payload schemas


@_schema
class TraceHelloV1(_Schema):
    """First record of every log: who wrote it, speaking which versions."""

    KIND: ClassVar[str] = "trace_hello"

    service: str = "conductor-repro"
    version: str = ""


@_schema
class RunStartV1(_Schema):
    """The scenario this run executes — everything replay needs.

    ``run_kind`` is ``"deploy"`` (one session) or ``"fleet"`` (many
    deployments over a shared substrate); ``scenario`` is the full
    JSON-serializable configuration the matching ``reexecute`` path
    reconstructs the run from.  The envelope's ``run_id`` is
    :func:`run_id_for` of exactly this scenario.
    """

    KIND: ClassVar[str] = "run_start"

    run_kind: str
    scenario: dict

    def _check(self) -> None:
        _require(self.run_kind in ("deploy", "fleet"),
                 f"unknown run_kind {self.run_kind!r}")


@_schema
class LifecycleV1(_Schema):
    """A deployment crossed a lifecycle boundary."""

    KIND: ClassVar[str] = "lifecycle"

    tenant: str
    phase: str
    session_id: int = 0
    detail: str = ""
    cost: float = 0.0
    replans: int = 0
    completion_hours: float = 0.0
    #: Execution backend the deployment runs on.  Additive: ``""`` means
    #: the sim default and is omitted from the wire form, so logs
    #: recorded before backends existed parse (and re-serialize)
    #: byte-identically.
    backend: str = ""

    def _check(self) -> None:
        _require(self.phase in LIFECYCLE_PHASES,
                 f"unknown lifecycle phase {self.phase!r}")

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if not self.backend:
            del payload["backend"]
        return payload


@_schema
class SubstrateEventV1(_Schema):
    """The trace form of a typed substrate event.

    ``event_kind`` is the replan-trigger taxonomy tag the fleet event
    carries (``price``/``eviction``/``failure``/``capacity``);
    ``attrs`` holds the event type's own numeric fields (old/new price,
    severity, ...) and ``description`` its deterministic one-liner.
    """

    KIND: ClassVar[str] = "substrate_event"

    event_kind: str
    service: str
    hour: float
    attrs: dict = field(default_factory=dict)
    description: str = ""

    @classmethod
    def from_event(cls, event) -> "SubstrateEventV1":
        """Wrap a fleet :class:`~repro.fleet.events.SubstrateEvent`."""
        attrs = {
            name: value
            for name, value in vars(event).items()
            if name not in ("hour", "service")
        }
        return cls(
            event_kind=event.kind,
            service=event.service,
            hour=event.hour,
            attrs=attrs,
            description=event.describe(),
        )


@_schema
class SpanV1(_Schema):
    """Wall-clock timing of one hot-path section (nondeterministic)."""

    KIND: ClassVar[str] = "span"

    name: str
    seconds: float


@_schema
class SnapshotV1(_Schema):
    """A controller state dump, one per executed interval.

    Older builds wrote it as a crash-resume point; this one resumes by
    re-execution and only reads it, so their logs still parse.  ``state``
    carried solver wall-clock inside its plan summary, hence
    nondeterministic; ``step`` counted executed intervals.
    """

    KIND: ClassVar[str] = "snapshot"

    tenant: str
    step: int
    state: dict
    session_id: int = 0


@_schema
class RunEndV1(_Schema):
    """The run's deterministic summary — the last record of a whole log."""

    KIND: ClassVar[str] = "run_end"

    summary: dict


# ---------------------------------------------------------------------------
# dispatch

_PAYLOADS = {
    cls.KIND: cls
    for cls in (
        TraceHelloV1,
        RunStartV1,
        LifecycleV1,
        SubstrateEventV1,
        SpanV1,
        SnapshotV1,
        RunEndV1,
    )
}
# interval/replan records carry the public wire schema verbatim.
_PAYLOADS["interval"] = DeployEventV1
_PAYLOADS["replan"] = DeployEventV1


def decode_payload(record: TraceRecordV1):
    """Decode a record's payload into its kind's frozen schema type."""
    return _PAYLOADS[record.kind].from_dict(record.payload)


__all__ = [
    "DETERMINISTIC_KINDS",
    "LIFECYCLE_PHASES",
    "LifecycleV1",
    "RECORD_KINDS",
    "RunEndV1",
    "RunStartV1",
    "SnapshotV1",
    "SpanV1",
    "SubstrateEventV1",
    "TRACE_SCHEMA_VERSION",
    "TraceHelloV1",
    "TraceRecordV1",
    "decode_payload",
    "run_id_for",
]
