"""Versioned, serializable schemas — the public wire format (v1).

Everything that enters or leaves the orchestrator is one of these frozen
dataclasses.  Each type carries a ``schema_version`` and a ``kind`` tag,
serializes with :meth:`to_dict` / :meth:`from_dict`, and round-trips
exactly: ``from_dict(to_dict(x)) == x``.  :func:`decode` dispatches a raw
JSON payload to the right type and rejects unknown versions or kinds with
a :class:`SchemaError` — a structured ``bad_schema`` error, never a
traceback.

The vocabulary:

- :class:`JobSpec` — a declared computation: MapReduce aggregates plus a
  :class:`GoalSpec`, a :class:`NetworkSpec`, and a service-catalog
  selector;
- :class:`PlanRequestV1` / :class:`PlanResponseV1` — one planning
  round-trip through the service (tenant, priority, SLOs in; plan
  summary, cache provenance, timings out);
- :class:`DeployEventV1` — one executed interval of a deployment stream;
- :class:`ErrorV1` — machine-readable failure with a stable code;
- :class:`HelloV1` — the service's greeting (build + schema version).

A field is declared once, as its dataclass line: its wire type check,
its default and its encoding are read off the annotation through one
table (``_CODECS``), and one ``to_dict``/``from_dict`` serves every type
here and every trace record in :mod:`repro.obs.records`.  A class writes
only its domain rules (``_check``).
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import Any, ClassVar, NamedTuple

#: The wire-format version this build speaks.
SCHEMA_VERSION = 1

#: Stable machine-readable error codes (:class:`ErrorV1.code`).
ERROR_CODES = frozenset(
    {
        "bad_schema",      # payload does not parse as a known schema/version
        "bad_request",     # well-formed payload describing an invalid job
        "infeasible",      # no deployment meets the deadline
        "budget_exceeded", # no deployment fits the budget
        "timeout",         # turnaround/solver wait exceeded
        "expired",         # turnaround SLO passed while queued
        "rejected",        # refused by admission control or shutdown
        "solver_error",    # the LP backend failed on a valid model
        "internal",        # anything else (bug, broken pool, ...)
    }
)


class SchemaError(ValueError):
    """A payload that cannot be decoded into any supported schema."""


# ---------------------------------------------------------------------------
# field coercers: one wire value -> one field value, or a SchemaError


def _mapping(data: Any, kind: str) -> dict:
    # Exact ``dict`` first: that is what ``json.loads`` hands every wire
    # payload, and the ABC's ``__instancecheck__`` is the slow way to
    # learn it.
    if type(data) is not dict and not isinstance(data, Mapping):
        raise SchemaError(f"{kind}: payload must be a JSON object, "
                          f"got {type(data).__name__}")
    return dict(data)


def _envelope(data: dict, kind: str) -> dict:
    """Strip and check the ``schema_version``/``kind`` envelope.

    Nested payloads may omit the envelope (the parent already carried
    it); when present it must match.
    """
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )
    tag = data.pop("kind", kind)
    if tag != kind:
        raise SchemaError(f"expected kind {kind!r}, got {tag!r}")
    return data


def _float(value: Any, name: str) -> float:
    # ``json.loads`` accepts ``NaN``/``Infinity``; no field means either.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(
            f"field {name!r} must be a finite number, got {number!r}"
        )
    return number


def _int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"field {name!r} must be a boolean, got {value!r}")
    return value


def _str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"field {name!r} must be a string, got {value!r}")
    return value


def _dict(value: Any, name: str) -> dict:
    if not isinstance(value, Mapping):
        raise SchemaError(f"field {name!r} must be an object, got {value!r}")
    return dict(value)


def _map(coerce):
    """Decoder for a string-keyed object whose values ``coerce`` checks."""
    def decode(value: Any, name: str) -> dict:
        return {_str(k, name): coerce(v, name)
                for k, v in _dict(value, name).items()}
    return decode


def _str_tuple(value: Any, name: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise SchemaError(f"field {name!r} must be a list, got {value!r}")
    return tuple(_str(v, name) for v in value)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# ---------------------------------------------------------------------------
# the field table: every schema below is its dataclass fields, nothing more


class _Codec(NamedTuple):
    """How one annotation travels: decoded, normalised, encoded."""

    #: ``(wire value, field name) -> field value``; raises SchemaError.
    decode: Callable[[Any, str], Any]
    #: Applied in ``__post_init__``, so constructed values match decoded.
    normalise: Callable[[Any], Any] | None = None
    #: ``field value -> wire value`` (``None``: sent as is).
    encode: Callable[[Any], Any] | None = None


def _optional(codec: _Codec) -> _Codec:
    """``codec`` for a field that may also be ``None`` (``null``)."""
    decode, normalise, encode = codec
    return _Codec(
        lambda value, name: None if value is None else decode(value, name),
        normalise and (lambda value: None if value is None else normalise(value)),
        encode and (lambda value: None if value is None else encode(value)),
    )


def _nested(cls) -> _Codec:
    """A nested schema; ``null`` on the wire means its defaults."""
    return _Codec(
        lambda value, name: cls() if value is None else cls.from_dict(value),
        None,
        cls.to_dict,
    )


#: Annotation text -> codec.  A field whose annotation is missing here
#: fails at import, when its class is declared.
_CODECS: dict[str, _Codec] = {
    "int": _Codec(_int),
    "str": _Codec(_str),
    "bool": _Codec(_bool),
    "float": _Codec(_float, float),
    "dict": _Codec(_dict, dict, dict),
    "dict[str, int]": _Codec(
        _map(_int), lambda m: {str(k): int(v) for k, v in dict(m).items()}, dict
    ),
    "dict[str, str]": _Codec(_map(_str), dict, dict),
    # Read-only once constructed (see ``JobSpec.upload_fractions``).
    "Mapping[str, float]": _Codec(
        _map(_float),
        lambda m: MappingProxyType({str(k): float(v) for k, v in dict(m).items()}),
        dict,
    ),
    "tuple[str, ...]": _Codec(_str_tuple, tuple, list),
    "int | None": _optional(_Codec(_int)),
    "str | None": _optional(_Codec(_str)),
    "float | None": _optional(_Codec(_float, float)),
}


class _Schema:
    """Strict decode/encode for a frozen dataclass, read off its fields.

    A class carrying a ``schema_version`` field travels inside the
    ``schema_version``/``kind`` envelope; the others (trace payloads) are
    bare objects.  Decoding runs envelope -> each field in declaration
    order (absent: the dataclass default, or ``missing required field``)
    -> construct -> unknown-field check, so the first error a payload
    hits is the same wherever it is decoded.  Classes add their domain
    rules in :meth:`_check`.
    """

    KIND: ClassVar[str]
    #: Whether the class has a ``schema_version`` field.
    _ENVELOPED: ClassVar[bool]
    #: ``(name, decode, required)`` per decoded field, in order.
    _DECODE: ClassVar[tuple]
    #: ``(name, normalise)`` per field whose annotation normalises.
    _NORMALISE: ClassVar[tuple]
    #: The wire keys in order, the envelope's values, and ``(key,
    #: encode)`` per field whose annotation encodes.
    _KEYS: ClassVar[tuple[str, ...]]
    _HEAD: ClassVar[dict]
    _ENCODE: ClassVar[tuple]

    def __post_init__(self) -> None:
        if self._ENVELOPED and self.schema_version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {self.schema_version!r}"
            )
        for name, normalise in self._NORMALISE:
            object.__setattr__(self, name, normalise(getattr(self, name)))
        self._check()

    def _check(self) -> None:
        """Domain rules beyond the field types (none by default)."""

    def to_dict(self) -> dict:
        # The frozen ``__init__`` sets the fields in declaration order, so
        # ``vars`` is the field list (a third of the cost of reading them
        # one by one); a memo an instance keeps is all it may add.
        payload = {**self._HEAD, **vars(self)}
        if len(payload) > len(self._KEYS):
            payload = {key: payload[key] for key in self._KEYS}
        for name, encode in self._ENCODE:
            payload[name] = encode(payload[name])
        return payload

    @classmethod
    def from_dict(cls, data: Mapping):
        data = _mapping(data, cls.KIND)
        if cls._ENVELOPED:
            data = _envelope(data, cls.KIND)
        return cls._decode(data)

    @classmethod
    def _decode(cls, data: dict):
        """Take every field from ``data`` (a private copy), then build."""
        values = {}
        for name, decode, required in cls._DECODE:
            if name in data:
                values[name] = decode(data.pop(name), name)
            elif required:
                raise SchemaError(f"missing required field {name!r}")
        message = cls(**values)
        if data:
            raise SchemaError(f"{cls.KIND}: unknown fields {sorted(data)}")
        return message


def _schema(cls):
    """Freeze ``cls`` and derive its field table from the annotations."""
    cls = dataclass(frozen=True)(cls)
    table = []
    for spec in fields(cls):
        if spec.type not in _CODECS:
            raise TypeError(f"{cls.__name__}.{spec.name}: no codec for "
                            f"annotation {spec.type!r}")
        table.append((spec, _CODECS[spec.type]))
    body = [(spec, codec) for spec, codec in table
            if spec.name != "schema_version"]
    cls._DECODE = tuple(
        (spec.name, codec.decode,
         spec.default is MISSING and spec.default_factory is MISSING)
        for spec, codec in body
    )
    cls._NORMALISE = tuple((spec.name, codec.normalise)
                           for spec, codec in table if codec.normalise)
    names = tuple(spec.name for spec, _ in body)
    cls._ENVELOPED = len(body) < len(table)
    cls._HEAD = {}
    if cls._ENVELOPED:  # the envelope leads the wire form
        cls._HEAD = {"schema_version": SCHEMA_VERSION, "kind": cls.KIND}
        names = ("schema_version", "kind", *names)
    cls._KEYS = names
    cls._ENCODE = tuple((spec.name, codec.encode)
                        for spec, codec in body if codec.encode)
    return cls


# ---------------------------------------------------------------------------
# schema types


@_schema
class GoalSpec(_Schema):
    """The customer's optimization objective (paper Sections 1-3).

    ``minimize-cost`` needs a ``deadline_hours``; ``minimize-time`` needs
    a ``budget_usd`` (``deadline_hours`` then bounds the search horizon,
    48 h when omitted).
    """

    KIND: ClassVar[str] = "goal_spec"

    objective: str = "minimize-cost"
    deadline_hours: float | None = 6.0
    budget_usd: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(self.objective in ("minimize-cost", "minimize-time"),
                 f"unknown objective {self.objective!r}")
        if self.objective == "minimize-cost":
            _require(self.deadline_hours is not None and self.deadline_hours > 0,
                     "minimize-cost requires a positive deadline_hours")
        else:
            _require(self.budget_usd is not None and self.budget_usd > 0,
                     "minimize-time requires a positive budget_usd")
            _require(self.deadline_hours is None or self.deadline_hours > 0,
                     "deadline_hours must be positive when given")

    def to_goal(self):
        """Compile to the core :class:`~repro.core.problem.Goal`."""
        from ..core.problem import Goal

        if self.objective == "minimize-cost":
            return Goal.min_cost(deadline_hours=float(self.deadline_hours))
        return Goal.min_time(
            budget_usd=float(self.budget_usd),
            horizon_hours=float(self.deadline_hours or 48.0),
        )

    @classmethod
    def from_goal(cls, goal) -> "GoalSpec":
        return cls(
            objective=goal.kind.value,
            deadline_hours=goal.deadline_hours,
            budget_usd=goal.budget_usd,
        )


_CODECS["GoalSpec"] = _nested(GoalSpec)


@_schema
class NetworkSpec(_Schema):
    """WAN/LAN capacities, in the units a customer quotes them.

    Defaults mirror the paper's setup (16 Mbit/s uplink, Section 6.1)
    and compile to the core defaults exactly.
    """

    KIND: ClassVar[str] = "network_spec"

    uplink_mbit_s: float = 16.0
    #: ``None`` means symmetric with the uplink.
    downlink_mbit_s: float | None = None
    local_mb_s: float = 100.0
    interservice_mb_s: float = 400.0
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        for name in ("uplink_mbit_s", "local_mb_s", "interservice_mb_s"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        _require(self.downlink_mbit_s is None or self.downlink_mbit_s > 0,
                 "downlink_mbit_s must be positive when given")

    def to_conditions(self):
        """Compile to :class:`~repro.core.problem.NetworkConditions`."""
        from ..core.problem import NetworkConditions
        from ..units import mb_s_to_gb_h, mbit_s_to_mb_s

        downlink = (
            self.uplink_mbit_s if self.downlink_mbit_s is None
            else self.downlink_mbit_s
        )
        return NetworkConditions(
            uplink_gb_per_hour=mb_s_to_gb_h(mbit_s_to_mb_s(self.uplink_mbit_s)),
            downlink_gb_per_hour=mb_s_to_gb_h(mbit_s_to_mb_s(downlink)),
            local_gb_per_hour=mb_s_to_gb_h(self.local_mb_s),
            interservice_gb_per_hour=mb_s_to_gb_h(self.interservice_mb_s),
        )


_CODECS["NetworkSpec"] = _nested(NetworkSpec)

#: Service-catalog selectors a JobSpec may name.
CATALOGS = ("public", "hybrid", "spot", "xml")


@_schema
class JobSpec(_Schema):
    """A declared computation: what to run, toward which goal, over what.

    This is the *only* way work enters the system — the CLI, the planning
    service's wire protocol and library callers all compile a ``JobSpec``
    down to the internal :class:`~repro.core.problem.PlanningProblem`
    through one compiler (:func:`repro.api.compiler.compile_spec`).
    """

    KIND: ClassVar[str] = "job_spec"

    name: str = "job"
    input_gb: float = 16.0
    map_output_ratio: float = 0.002
    reduce_output_ratio: float = 1.0
    throughput_scale: float = 1.0
    reduce_speed_factor: float = 4.0
    goal: GoalSpec = field(default_factory=GoalSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: One of :data:`CATALOGS`: ``public`` (the paper's EC2+S3 menu),
    #: ``hybrid`` (public plus ``local_nodes`` owned machines), ``spot``
    #: (spot compute + S3), or ``xml`` (a Fig. 3 catalog document at
    #: ``services_xml``).
    catalog: str = "public"
    local_nodes: int = 0
    #: Flat per-interval spot price estimate (``spot`` catalog only;
    #: ``None`` uses the service default).
    spot_price: float | None = None
    services_xml: str | None = None
    interval_hours: float = 1.0
    constant_nodes: bool = False
    allow_migration: bool = True
    #: Optional Fig. 8/9 constraint: service name -> input fraction.
    #: Read-only once constructed: decoded specs are shared between
    #: requests and memoize their :meth:`cache_key`, so the one mutable
    #: field of a frozen spec would poison every holder at once.
    upload_fractions: Mapping[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(bool(self.name), "name must be non-empty")
        for name in ("input_gb", "throughput_scale", "reduce_speed_factor",
                     "interval_hours"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        for name in ("map_output_ratio", "reduce_output_ratio"):
            _require(getattr(self, name) >= 0, f"{name} must be non-negative")
        _require(self.catalog in CATALOGS,
                 f"unknown catalog {self.catalog!r}; pick one of {CATALOGS}")
        _require(self.local_nodes >= 0, "local_nodes must be non-negative")
        if self.catalog == "hybrid":
            _require(self.local_nodes > 0,
                     "catalog 'hybrid' requires local_nodes > 0")
        if self.catalog == "xml":
            _require(bool(self.services_xml),
                     "catalog 'xml' requires services_xml")
        _require(self.spot_price is None or self.spot_price > 0,
                 "spot_price must be positive when given")

    def __reduce__(self):
        # The read-only mapping does not pickle; the wire form does, and
        # ``copy``/``pickle`` of a spec keep working through it.
        return (JobSpec.from_dict, (self.to_dict(),))

    def cache_key(self) -> tuple:
        """A hashable identity for compiled-problem caching.

        Every field but ``schema_version``, in declaration order; the one
        unhashable field, the ``upload_fractions`` mapping, is flattened.
        Two equal specs always produce equal keys.  Memoized per instance
        (immutability makes that safe): resubmitting one spec is the
        service's hottest path and must not rebuild the key every time.
        """
        cached = getattr(self, "_cache_key", None)
        if cached is not None:
            return cached
        fields_ = self._KEYS[2:]  # past the schema_version/kind envelope
        values = (getattr(self, name) for name in fields_)
        key = tuple(
            tuple(sorted(value.items())) if isinstance(value, Mapping)
            else value
            for value in values
        )
        object.__setattr__(self, "_cache_key", key)
        return key

    def to_planner_job(self):
        """Compile the computation part to a core ``PlannerJob``."""
        from ..core.problem import PlannerJob

        return PlannerJob(
            name=self.name,
            input_gb=self.input_gb,
            map_output_ratio=self.map_output_ratio,
            reduce_output_ratio=self.reduce_output_ratio,
            throughput_scale=self.throughput_scale,
            reduce_speed_factor=self.reduce_speed_factor,
        )


#: Decoded job payloads remembered by :func:`_decoded_job` (the same
#: constant as ``Orchestrator``'s compile memo, which the shared
#: instances feed).
_JOB_MEMO_SIZE = 512
#: ``repr`` of a ``job`` payload -> the spec ``JobSpec.from_dict`` made of it.
_JOB_MEMO: dict[str, JobSpec] = {}
_JOB_MEMO_LOCK = threading.Lock()


def _decoded_job(payload: Any) -> JobSpec:
    """``JobSpec.from_dict(payload)``, validated once per distinct text.

    A service sees the same few jobs under thousands of tenants and ids;
    re-validating a spec it validated a millisecond ago tells it nothing.
    The key is the payload's ``repr`` — one C-level pass, and exact: it
    keeps ``1``, ``1.0`` and ``true`` apart, and a payload with its keys
    in another order is simply a different key (a miss, then an equal
    spec).  Only what ``from_dict`` returned is stored, so a payload it
    rejects is never remembered and fails the same way every time.  One
    frozen instance per job also lets its ``cache_key()`` memo — and the
    compile and fingerprint memos behind it — hit.
    """
    key = repr(payload)
    spec = _JOB_MEMO.get(key)
    if spec is None:
        spec = JobSpec.from_dict(payload)
        with _JOB_MEMO_LOCK:
            while len(_JOB_MEMO) >= _JOB_MEMO_SIZE:
                _JOB_MEMO.pop(next(iter(_JOB_MEMO)))
            _JOB_MEMO[key] = spec
    return spec


_CODECS["JobSpec"] = _Codec(
    lambda value, name: _decoded_job(value), None, JobSpec.to_dict
)


@_schema
class ErrorV1(_Schema):
    """A machine-readable failure with a stable :data:`ERROR_CODES` code."""

    KIND: ClassVar[str] = "error"

    code: str
    message: str = ""
    details: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(self.code in ERROR_CODES,
                 f"unknown error code {self.code!r}")


_CODECS["ErrorV1 | None"] = _optional(
    _Codec(lambda value, name: ErrorV1.from_dict(value), None, ErrorV1.to_dict)
)


@_schema
class PlanRequestV1(_Schema):
    """One tenant's planning request, as it travels on the wire."""

    KIND: ClassVar[str] = "plan_request"

    job: JobSpec
    tenant: str = "default"
    priority: int = 1
    #: Turnaround SLO in seconds (see ``repro.service.requests``).
    deadline_s: float | None = None
    #: Cap on the solver's own cut-off when this request solves.
    time_budget_s: float | None = None
    #: Client-assigned correlation id, echoed in the response.
    request_id: str = ""
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(isinstance(self.job, JobSpec), "job must be a JobSpec")
        _require(bool(self.tenant), "tenant must be non-empty")
        _require(self.deadline_s is None or self.deadline_s > 0,
                 "deadline_s must be positive when given")
        _require(self.time_budget_s is None or self.time_budget_s > 0,
                 "time_budget_s must be positive when given")


#: Statuses a response may carry (the service's terminal lifecycle states).
RESPONSE_STATUSES = ("completed", "failed", "rejected", "expired")


@_schema
class PlanResponseV1(_Schema):
    """The service's answer to a :class:`PlanRequestV1`."""

    KIND: ClassVar[str] = "plan_response"

    status: str
    tenant: str = "default"
    request_id: str = ""
    cached: bool = False
    fingerprint: str = ""
    predicted_cost: float | None = None
    predicted_completion_hours: float | None = None
    peak_nodes: int | None = None
    solver_status: str = ""
    queue_wait_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    error: ErrorV1 | None = None
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(self.status in RESPONSE_STATUSES,
                 f"unknown status {self.status!r}")
        _require(self.error is None or isinstance(self.error, ErrorV1),
                 "error must be an ErrorV1")

    @property
    def ok(self) -> bool:
        return self.status == "completed" and self.error is None


#: Kinds of deploy events a v1 stream may carry.  ``interval`` is one
#: executed plan interval; ``replan`` (additive in the fleet runtime
#: work) announces an adopted re-plan, with ``trigger`` naming the
#: taxonomy entry (see ``docs/adaptation.md``) and ``reason`` the
#: human-readable cause.
DEPLOY_EVENT_KINDS = ("interval", "replan")


@_schema
class DeployEventV1(_Schema):
    """One event of a streaming deployment.

    The wire form of :class:`~repro.core.executor.IntervalOutcome` — what
    a front-end needs to render live progress (Fig. 12's series are
    exactly these events, accumulated).  ``event="replan"`` marks an
    adaptation round instead of an executed interval: the numeric fields
    are zero, ``trigger``/``reason`` say why, and ``start_hour`` is when
    the new plan was adopted.  All three fields default to the historical
    meaning, so pre-fleet v1 payloads decode unchanged.

    Ordering: events arrive in causal stream order.  ``index`` is not a
    stream position — interval indices are plan-local and restart with
    every adopted re-plan (exactly as the controller's plans do).
    """

    KIND: ClassVar[str] = "deploy_event"

    index: int
    start_hour: float
    duration_hours: float
    nodes: dict[str, int] = field(default_factory=dict)
    uploaded_gb: float = 0.0
    map_gb: float = 0.0
    reduce_gb: float = 0.0
    downloaded_gb: float = 0.0
    cost: float = 0.0
    outbid_services: tuple[str, ...] = ()
    spot_data_lost_gb: float = 0.0
    #: Services whose workers died/timed out (real execution backends
    #: only; additive — absent on the wire when empty, so sim-backend
    #: interval payloads are unchanged).
    failed_services: tuple[str, ...] = ()
    tenant: str = "default"
    session_id: int = 0
    #: One of :data:`DEPLOY_EVENT_KINDS` (additive; default = historical).
    event: str = "interval"
    #: Replan-trigger taxonomy entry (``replan`` events only).
    trigger: str = ""
    #: Human-readable cause of a re-plan (``replan`` events only).
    reason: str = ""
    schema_version: int = SCHEMA_VERSION

    def _check(self) -> None:
        _require(self.event in DEPLOY_EVENT_KINDS,
                 f"unknown deploy event kind {self.event!r}")
        _require(self.event != "interval" or not (self.trigger or self.reason),
                 "interval events carry no trigger/reason")

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if not self.failed_services:
            del payload["failed_services"]
        if self.event == "interval":
            # The additive fields appear only on the new event kinds, so
            # interval payloads stay byte-identical to what pre-fleet v1
            # readers (which reject unknown fields) already accept.
            del payload["event"], payload["trigger"], payload["reason"]
        return payload

    @classmethod
    def from_outcome(
        cls, outcome, *, tenant: str = "default", session_id: int = 0
    ) -> "DeployEventV1":
        """Wrap a core :class:`IntervalOutcome` for the wire."""
        return cls(
            index=outcome.index,
            start_hour=outcome.start_hour,
            duration_hours=outcome.duration_hours,
            nodes=dict(outcome.nodes),
            uploaded_gb=outcome.uploaded_gb,
            map_gb=outcome.map_gb,
            reduce_gb=outcome.reduce_gb,
            downloaded_gb=outcome.downloaded_gb,
            cost=outcome.cost,
            outbid_services=tuple(outcome.outbid_services),
            spot_data_lost_gb=outcome.spot_data_lost_gb,
            failed_services=tuple(
                getattr(outcome, "failed_services", ()) or ()
            ),
            tenant=tenant,
            session_id=session_id,
        )

    @classmethod
    def from_replan(
        cls,
        record,
        *,
        tenant: str = "default",
        session_id: int = 0,
        index: int = 0,
    ) -> "DeployEventV1":
        """Wrap a core :class:`~repro.core.controller.ReplanRecord`.

        ``index`` is the count of intervals executed before the re-plan
        was adopted.  Note it is *not* comparable to interval events'
        ``index``, which is plan-local and restarts with every adopted
        plan; stream position (arrival order) is the ordering contract.
        """
        return cls(
            index=index,
            start_hour=record.hour,
            duration_hours=0.0,
            tenant=tenant,
            session_id=session_id,
            event="replan",
            trigger=record.kind,
            reason=record.reason,
        )


@_schema
class HelloV1(_Schema):
    """The service's greeting: build version + spoken schema version."""

    KIND: ClassVar[str] = "hello"

    service: str = "conductor-repro"
    version: str = ""
    schema_version: int = SCHEMA_VERSION


# ---------------------------------------------------------------------------
# dispatch

_KINDS = {
    cls.KIND: cls
    for cls in (
        GoalSpec,
        NetworkSpec,
        JobSpec,
        ErrorV1,
        PlanRequestV1,
        PlanResponseV1,
        DeployEventV1,
        HelloV1,
    )
}


def decode(payload):
    """Decode a JSON string/object into the schema type it declares.

    The top-level payload must carry an explicit ``schema_version`` and
    ``kind``; unknown versions and kinds raise :class:`SchemaError` so a
    server can answer with a structured ``bad_schema`` error instead of a
    traceback.
    """
    if isinstance(payload, (str, bytes, bytearray)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"payload is not valid JSON: {exc}") from None
    data = _mapping(payload, "payload")
    if "schema_version" not in data:
        raise SchemaError("missing schema_version")
    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if kind not in _KINDS:
        raise SchemaError(
            f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    return _KINDS[kind]._decode(_envelope(data, kind))


def encode(message) -> str:
    """One JSON line for any schema object — the wire format."""
    return json.dumps(message.to_dict(), sort_keys=True)


__all__ = [
    "CATALOGS",
    "DEPLOY_EVENT_KINDS",
    "DeployEventV1",
    "ERROR_CODES",
    "ErrorV1",
    "GoalSpec",
    "HelloV1",
    "JobSpec",
    "NetworkSpec",
    "PlanRequestV1",
    "PlanResponseV1",
    "RESPONSE_STATUSES",
    "SCHEMA_VERSION",
    "SchemaError",
    "decode",
    "encode",
]
