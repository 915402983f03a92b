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
"""

from __future__ import annotations

import json
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, ClassVar

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
# decoding helpers


_REQUIRED = object()


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


def _finish(data: dict, kind: str) -> None:
    if data:
        raise SchemaError(f"{kind}: unknown fields {sorted(data)}")


def _take(data: dict, name: str, coerce, default=_REQUIRED):
    if name not in data:
        if default is _REQUIRED:
            raise SchemaError(f"missing required field {name!r}")
        return default
    return coerce(data.pop(name), name)


def _float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def _opt_float(value: Any, name: str) -> float | None:
    return None if value is None else _float(value, name)


def _int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _opt_int(value: Any, name: str) -> int | None:
    return None if value is None else _int(value, name)


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"field {name!r} must be a boolean, got {value!r}")
    return value


def _str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"field {name!r} must be a string, got {value!r}")
    return value


def _opt_str(value: Any, name: str) -> str | None:
    return None if value is None else _str(value, name)


def _float_map(value: Any, name: str) -> dict[str, float]:
    if not isinstance(value, Mapping):
        raise SchemaError(f"field {name!r} must be an object, got {value!r}")
    return {_str(k, name): _float(v, name) for k, v in value.items()}


def _int_map(value: Any, name: str) -> dict[str, int]:
    if not isinstance(value, Mapping):
        raise SchemaError(f"field {name!r} must be an object, got {value!r}")
    return {_str(k, name): _int(v, name) for k, v in value.items()}


def _str_map(value: Any, name: str) -> dict[str, str]:
    if not isinstance(value, Mapping):
        raise SchemaError(f"field {name!r} must be an object, got {value!r}")
    return {_str(k, name): _str(v, name) for k, v in value.items()}


def _str_tuple(value: Any, name: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise SchemaError(f"field {name!r} must be a list, got {value!r}")
    return tuple(_str(v, name) for v in value)


def _set(obj: Any, name: str, value: Any) -> None:
    """Normalize a field on a frozen dataclass during __post_init__."""
    object.__setattr__(obj, name, value)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# ---------------------------------------------------------------------------
# schema types


@dataclass(frozen=True)
class GoalSpec:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(self.objective in ("minimize-cost", "minimize-time"),
                 f"unknown objective {self.objective!r}")
        _set(self, "deadline_hours",
             None if self.deadline_hours is None else float(self.deadline_hours))
        _set(self, "budget_usd",
             None if self.budget_usd is None else float(self.budget_usd))
        if self.objective == "minimize-cost":
            _require(self.deadline_hours is not None and self.deadline_hours > 0,
                     "minimize-cost requires a positive deadline_hours")
        else:
            _require(self.budget_usd is not None and self.budget_usd > 0,
                     "minimize-time requires a positive budget_usd")
            _require(self.deadline_hours is None or self.deadline_hours > 0,
                     "deadline_hours must be positive when given")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "objective": self.objective,
            "deadline_hours": self.deadline_hours,
            "budget_usd": self.budget_usd,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GoalSpec":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        spec = cls(
            objective=_take(data, "objective", _str, "minimize-cost"),
            deadline_hours=_take(data, "deadline_hours", _opt_float, 6.0),
            budget_usd=_take(data, "budget_usd", _opt_float, None),
        )
        _finish(data, cls.KIND)
        return spec

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


@dataclass(frozen=True)
class NetworkSpec:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _set(self, "uplink_mbit_s", float(self.uplink_mbit_s))
        _set(self, "downlink_mbit_s",
             None if self.downlink_mbit_s is None else float(self.downlink_mbit_s))
        _set(self, "local_mb_s", float(self.local_mb_s))
        _set(self, "interservice_mb_s", float(self.interservice_mb_s))
        for name in ("uplink_mbit_s", "local_mb_s", "interservice_mb_s"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        _require(self.downlink_mbit_s is None or self.downlink_mbit_s > 0,
                 "downlink_mbit_s must be positive when given")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "uplink_mbit_s": self.uplink_mbit_s,
            "downlink_mbit_s": self.downlink_mbit_s,
            "local_mb_s": self.local_mb_s,
            "interservice_mb_s": self.interservice_mb_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NetworkSpec":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        spec = cls(
            uplink_mbit_s=_take(data, "uplink_mbit_s", _float, 16.0),
            downlink_mbit_s=_take(data, "downlink_mbit_s", _opt_float, None),
            local_mb_s=_take(data, "local_mb_s", _float, 100.0),
            interservice_mb_s=_take(data, "interservice_mb_s", _float, 400.0),
        )
        _finish(data, cls.KIND)
        return spec

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


#: Service-catalog selectors a JobSpec may name.
CATALOGS = ("public", "hybrid", "spot", "xml")


@dataclass(frozen=True)
class JobSpec:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(bool(self.name), "name must be non-empty")
        for name in ("input_gb", "throughput_scale", "reduce_speed_factor",
                     "interval_hours"):
            _set(self, name, float(getattr(self, name)))
            _require(getattr(self, name) > 0, f"{name} must be positive")
        for name in ("map_output_ratio", "reduce_output_ratio"):
            _set(self, name, float(getattr(self, name)))
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
        _set(self, "spot_price",
             None if self.spot_price is None else float(self.spot_price))
        _require(self.spot_price is None or self.spot_price > 0,
                 "spot_price must be positive when given")
        _set(self, "upload_fractions", MappingProxyType(
            {str(k): float(v) for k, v in dict(self.upload_fractions).items()}
        ))

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "name": self.name,
            "input_gb": self.input_gb,
            "map_output_ratio": self.map_output_ratio,
            "reduce_output_ratio": self.reduce_output_ratio,
            "throughput_scale": self.throughput_scale,
            "reduce_speed_factor": self.reduce_speed_factor,
            "goal": self.goal.to_dict(),
            "network": self.network.to_dict(),
            "catalog": self.catalog,
            "local_nodes": self.local_nodes,
            "spot_price": self.spot_price,
            "services_xml": self.services_xml,
            "interval_hours": self.interval_hours,
            "constant_nodes": self.constant_nodes,
            "allow_migration": self.allow_migration,
            "upload_fractions": dict(self.upload_fractions),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobSpec":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        goal = data.pop("goal", None)
        network = data.pop("network", None)
        spec = cls(
            name=_take(data, "name", _str, "job"),
            input_gb=_take(data, "input_gb", _float, 16.0),
            map_output_ratio=_take(data, "map_output_ratio", _float, 0.002),
            reduce_output_ratio=_take(data, "reduce_output_ratio", _float, 1.0),
            throughput_scale=_take(data, "throughput_scale", _float, 1.0),
            reduce_speed_factor=_take(data, "reduce_speed_factor", _float, 4.0),
            goal=GoalSpec() if goal is None else GoalSpec.from_dict(goal),
            network=(NetworkSpec() if network is None
                     else NetworkSpec.from_dict(network)),
            catalog=_take(data, "catalog", _str, "public"),
            local_nodes=_take(data, "local_nodes", _int, 0),
            spot_price=_take(data, "spot_price", _opt_float, None),
            services_xml=_take(data, "services_xml", _opt_str, None),
            interval_hours=_take(data, "interval_hours", _float, 1.0),
            constant_nodes=_take(data, "constant_nodes", _bool, False),
            allow_migration=_take(data, "allow_migration", _bool, True),
            upload_fractions=_take(data, "upload_fractions", _float_map, {}),
        )
        _finish(data, cls.KIND)
        return spec

    def __reduce__(self):
        # The read-only mapping does not pickle; the wire form does, and
        # ``copy``/``pickle`` of a spec keep working through it.
        return (JobSpec.from_dict, (self.to_dict(),))

    def cache_key(self) -> tuple:
        """A hashable identity for compiled-problem caching.

        Specs are frozen value objects; the only unhashable field is the
        ``upload_fractions`` mapping, flattened here.  Two equal specs
        always produce equal keys.  Memoized per instance (immutability
        makes that safe): resubmitting one spec is the service's hottest
        path and must not rebuild the key every time.
        """
        cached = getattr(self, "_cache_key", None)
        if cached is not None:
            return cached
        key = (
            self.name,
            self.input_gb,
            self.map_output_ratio,
            self.reduce_output_ratio,
            self.throughput_scale,
            self.reduce_speed_factor,
            self.goal,
            self.network,
            self.catalog,
            self.local_nodes,
            self.spot_price,
            self.services_xml,
            self.interval_hours,
            self.constant_nodes,
            self.allow_migration,
            tuple(sorted(self.upload_fractions.items())),
        )
        _set(self, "_cache_key", key)
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


@dataclass(frozen=True)
class ErrorV1:
    """A machine-readable failure with a stable :data:`ERROR_CODES` code."""

    KIND: ClassVar[str] = "error"

    code: str
    message: str = ""
    details: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(self.code in ERROR_CODES,
                 f"unknown error code {self.code!r}")
        _set(self, "details", dict(self.details))

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "code": self.code,
            "message": self.message,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ErrorV1":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        error = cls(
            code=_take(data, "code", _str),
            message=_take(data, "message", _str, ""),
            details=_take(data, "details", _str_map, {}),
        )
        _finish(data, cls.KIND)
        return error


@dataclass(frozen=True)
class PlanRequestV1:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(isinstance(self.job, JobSpec), "job must be a JobSpec")
        _require(bool(self.tenant), "tenant must be non-empty")
        _set(self, "deadline_s",
             None if self.deadline_s is None else float(self.deadline_s))
        _set(self, "time_budget_s",
             None if self.time_budget_s is None else float(self.time_budget_s))
        _require(self.deadline_s is None or self.deadline_s > 0,
                 "deadline_s must be positive when given")
        _require(self.time_budget_s is None or self.time_budget_s > 0,
                 "time_budget_s must be positive when given")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "job": self.job.to_dict(),
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "time_budget_s": self.time_budget_s,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanRequestV1":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        if "job" not in data:
            raise SchemaError("missing required field 'job'")
        request = cls(
            job=_decoded_job(data.pop("job")),
            tenant=_take(data, "tenant", _str, "default"),
            priority=_take(data, "priority", _int, 1),
            deadline_s=_take(data, "deadline_s", _opt_float, None),
            time_budget_s=_take(data, "time_budget_s", _opt_float, None),
            request_id=_take(data, "request_id", _str, ""),
        )
        _finish(data, cls.KIND)
        return request


#: Statuses a response may carry (the service's terminal lifecycle states).
RESPONSE_STATUSES = ("completed", "failed", "rejected", "expired")


@dataclass(frozen=True)
class PlanResponseV1:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(self.status in RESPONSE_STATUSES,
                 f"unknown status {self.status!r}")
        _require(self.error is None or isinstance(self.error, ErrorV1),
                 "error must be an ErrorV1")
        for name in ("queue_wait_s", "solve_s", "total_s"):
            _set(self, name, float(getattr(self, name)))
        _set(self, "predicted_cost",
             None if self.predicted_cost is None else float(self.predicted_cost))
        _set(self, "predicted_completion_hours",
             None if self.predicted_completion_hours is None
             else float(self.predicted_completion_hours))

    @property
    def ok(self) -> bool:
        return self.status == "completed" and self.error is None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "status": self.status,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "cached": self.cached,
            "fingerprint": self.fingerprint,
            "predicted_cost": self.predicted_cost,
            "predicted_completion_hours": self.predicted_completion_hours,
            "peak_nodes": self.peak_nodes,
            "solver_status": self.solver_status,
            "queue_wait_s": self.queue_wait_s,
            "solve_s": self.solve_s,
            "total_s": self.total_s,
            "error": None if self.error is None else self.error.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanResponseV1":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        error = data.pop("error", None)
        response = cls(
            status=_take(data, "status", _str),
            tenant=_take(data, "tenant", _str, "default"),
            request_id=_take(data, "request_id", _str, ""),
            cached=_take(data, "cached", _bool, False),
            fingerprint=_take(data, "fingerprint", _str, ""),
            predicted_cost=_take(data, "predicted_cost", _opt_float, None),
            predicted_completion_hours=_take(
                data, "predicted_completion_hours", _opt_float, None
            ),
            peak_nodes=_take(data, "peak_nodes", _opt_int, None),
            solver_status=_take(data, "solver_status", _str, ""),
            queue_wait_s=_take(data, "queue_wait_s", _float, 0.0),
            solve_s=_take(data, "solve_s", _float, 0.0),
            total_s=_take(data, "total_s", _float, 0.0),
            error=None if error is None else ErrorV1.from_dict(error),
        )
        _finish(data, cls.KIND)
        return response


#: Kinds of deploy events a v1 stream may carry.  ``interval`` is one
#: executed plan interval; ``replan`` (additive in the fleet runtime
#: work) announces an adopted re-plan, with ``trigger`` naming the
#: taxonomy entry (see :data:`repro.core.triggers.TRIGGER_KINDS`) and
#: ``reason`` the human-readable cause.
DEPLOY_EVENT_KINDS = ("interval", "replan")


@dataclass(frozen=True)
class DeployEventV1:
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

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")
        _require(self.event in DEPLOY_EVENT_KINDS,
                 f"unknown deploy event kind {self.event!r}")
        _require(self.event != "interval" or not (self.trigger or self.reason),
                 "interval events carry no trigger/reason")
        for name in ("start_hour", "duration_hours", "uploaded_gb", "map_gb",
                     "reduce_gb", "downloaded_gb", "cost", "spot_data_lost_gb"):
            _set(self, name, float(getattr(self, name)))
        _set(self, "nodes", {str(k): int(v) for k, v in dict(self.nodes).items()})
        _set(self, "outbid_services", tuple(self.outbid_services))
        _set(self, "failed_services", tuple(self.failed_services))

    def to_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "index": self.index,
            "start_hour": self.start_hour,
            "duration_hours": self.duration_hours,
            "nodes": dict(self.nodes),
            "uploaded_gb": self.uploaded_gb,
            "map_gb": self.map_gb,
            "reduce_gb": self.reduce_gb,
            "downloaded_gb": self.downloaded_gb,
            "cost": self.cost,
            "outbid_services": list(self.outbid_services),
            "spot_data_lost_gb": self.spot_data_lost_gb,
            "tenant": self.tenant,
            "session_id": self.session_id,
        }
        if self.failed_services:
            payload["failed_services"] = list(self.failed_services)
        if self.event != "interval":
            # The additive fields appear only on the new event kinds, so
            # interval payloads stay byte-identical to what pre-fleet v1
            # readers (which reject unknown fields) already accept.
            payload["event"] = self.event
            payload["trigger"] = self.trigger
            payload["reason"] = self.reason
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "DeployEventV1":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        event = cls(
            index=_take(data, "index", _int),
            start_hour=_take(data, "start_hour", _float),
            duration_hours=_take(data, "duration_hours", _float),
            nodes=_take(data, "nodes", _int_map, {}),
            uploaded_gb=_take(data, "uploaded_gb", _float, 0.0),
            map_gb=_take(data, "map_gb", _float, 0.0),
            reduce_gb=_take(data, "reduce_gb", _float, 0.0),
            downloaded_gb=_take(data, "downloaded_gb", _float, 0.0),
            cost=_take(data, "cost", _float, 0.0),
            outbid_services=_take(data, "outbid_services", _str_tuple, ()),
            spot_data_lost_gb=_take(data, "spot_data_lost_gb", _float, 0.0),
            failed_services=_take(data, "failed_services", _str_tuple, ()),
            tenant=_take(data, "tenant", _str, "default"),
            session_id=_take(data, "session_id", _int, 0),
            event=_take(data, "event", _str, "interval"),
            trigger=_take(data, "trigger", _str, ""),
            reason=_take(data, "reason", _str, ""),
        )
        _finish(data, cls.KIND)
        return event

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


@dataclass(frozen=True)
class HelloV1:
    """The service's greeting: build version + spoken schema version."""

    KIND: ClassVar[str] = "hello"

    service: str = "conductor-repro"
    version: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.KIND,
            "service": self.service,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HelloV1":
        data = _envelope(_mapping(data, cls.KIND), cls.KIND)
        hello = cls(
            service=_take(data, "service", _str, "conductor-repro"),
            version=_take(data, "version", _str, ""),
        )
        _finish(data, cls.KIND)
        return hello


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
    return _KINDS[kind].from_dict(data)


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
