"""Golden wire corpus: encoded bytes and SchemaError texts, pinned line by line.

``golden_wire.jsonl`` holds one JSON object per line, in two shapes:

- ``{"case": ..., "encoded": ...}`` — the exact text of encoding
  ``SAMPLES[case]``: every wire type through :func:`repro.api.encode`,
  every trace record kind through :meth:`TraceRecordV1.encode`;
- ``{"case": ..., "via": "wire"|"trace", "payload": ..., "result": ...}``
  — what decoding the raw ``payload`` text gives: ``"error: <SchemaError
  text>"``, or ``"ok <Type>: <re-encoded>"`` when it decodes.

Rewrite the file only for an intended format change, and say which lines
changed and why::

    PYTHONPATH=src python tests/api/test_golden_wire.py
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.api.schemas import (
    DeployEventV1,
    ErrorV1,
    GoalSpec,
    HelloV1,
    JobSpec,
    NetworkSpec,
    PlanRequestV1,
    PlanResponseV1,
    SchemaError,
    decode,
    encode,
)
from repro.obs.records import (
    LifecycleV1,
    RunEndV1,
    RunStartV1,
    SnapshotV1,
    SpanV1,
    SubstrateEventV1,
    TraceHelloV1,
    TraceRecordV1,
    decode_payload,
)

CORPUS = Path(__file__).parent / "golden_wire.jsonl"

_JOB = JobSpec(
    name="kmeans",
    input_gb=32.0,
    map_output_ratio=0.01,
    goal=GoalSpec(deadline_hours=8.0),
    network=NetworkSpec(uplink_mbit_s=24.0, downlink_mbit_s=8.0),
    catalog="hybrid",
    local_nodes=5,
    interval_hours=0.5,
    constant_nodes=True,
    allow_migration=False,
    upload_fractions={"aws.s3": 0.5, "local": 0.25},
)
_INTERVAL = DeployEventV1(
    index=3,
    start_hour=3.0,
    duration_hours=1.0,
    nodes={"aws.ec2": 16, "local": 5},
    uploaded_gb=4.5,
    map_gb=3.2,
    reduce_gb=0.1,
    downloaded_gb=0.0,
    cost=1.36,
    outbid_services=("aws.ec2.spot",),
    spot_data_lost_gb=0.25,
    tenant="acme",
    session_id=7,
)
_REPLAN = DeployEventV1(
    index=4,
    start_hour=4.0,
    duration_hours=0.0,
    tenant="acme",
    session_id=7,
    event="replan",
    trigger="eviction",
    reason="out-bid on aws.ec2.spot",
)
_PAYLOADS = {
    "trace_hello": TraceHelloV1(version="0.3.0"),
    "run_start": RunStartV1(
        run_kind="fleet", scenario={"deployments": 2, "seed": 9}
    ),
    "lifecycle": LifecycleV1(
        tenant="acme", phase="completed", session_id=2, detail="met",
        cost=3.25, replans=1, completion_hours=7.5,
    ),
    "interval": _INTERVAL,
    "replan": _REPLAN,
    "substrate_event": SubstrateEventV1(
        event_kind="price", service="aws.ec2.spot", hour=37.0,
        attrs={"old": 0.1, "new": 0.4}, description="price 0.1 -> 0.4",
    ),
    "span": SpanV1(name="fleet.solve", seconds=0.125),
    "snapshot": SnapshotV1(
        tenant="acme", step=3, state={"hour": 3.0, "plans": []},
        session_id=2,
    ),
    "run_end": RunEndV1(summary={"completed": 2, "cost": 3.23}),
}


def _record(kind, payload, seq):
    return TraceRecordV1(
        run_id="0123456789ab", seq=seq, hour=1.5 + seq, kind=kind,
        payload=payload.to_dict(),
    )


#: case -> the message whose encoding the corpus pins.
SAMPLES = {
    "goal_spec/default": GoalSpec(),
    "goal_spec/minimize_time": GoalSpec(
        objective="minimize-time", budget_usd=30.0, deadline_hours=12.0
    ),
    "goal_spec/no_horizon": GoalSpec(
        objective="minimize-time", budget_usd=5, deadline_hours=None
    ),
    "network_spec/default": NetworkSpec(),
    "network_spec/asymmetric": NetworkSpec(
        uplink_mbit_s=32, downlink_mbit_s=64.0, local_mb_s=50.0,
        interservice_mb_s=250.0,
    ),
    "job_spec/default": JobSpec(),
    "job_spec/hybrid": _JOB,
    "job_spec/spot": JobSpec(catalog="spot", spot_price=0.03, input_gb=4),
    "job_spec/xml": JobSpec(catalog="xml", services_xml="<services/>"),
    "error/details": ErrorV1(
        code="infeasible", message="no plan", details={"hint": "relax"}
    ),
    "error/bare": ErrorV1(code="internal"),
    "plan_request/full": PlanRequestV1(
        job=_JOB, tenant="acme", priority=0, deadline_s=30.0,
        time_budget_s=5, request_id="r-42",
    ),
    "plan_request/default": PlanRequestV1(job=JobSpec()),
    "plan_response/completed": PlanResponseV1(
        status="completed", tenant="acme", request_id="r-42", cached=True,
        fingerprint="abc123", predicted_cost=3.4,
        predicted_completion_hours=2.5, peak_nodes=16,
        solver_status="optimal", queue_wait_s=0.1, solve_s=1.5, total_s=1.7,
    ),
    "plan_response/failed": PlanResponseV1(
        status="failed",
        error=ErrorV1(code="budget_exceeded", message="too tight"),
    ),
    "deploy_event/interval": _INTERVAL,
    "deploy_event/interval_minimal": DeployEventV1(
        index=0, start_hour=0, duration_hours=1
    ),
    "deploy_event/failed_services": DeployEventV1(
        index=1, start_hour=1.0, duration_hours=1.0, nodes={"aws.ec2": 4},
        cost=0.5, failed_services=("aws.ec2", "local"),
    ),
    "deploy_event/replan": _REPLAN,
    "deploy_event/replan_no_reason": DeployEventV1(
        index=0, start_hour=2.0, duration_hours=0.0, event="replan"
    ),
    "hello/default": HelloV1(),
    "hello/versioned": HelloV1(service="conductor-repro", version="0.3.0"),
}
SAMPLES.update(
    (f"trace/{kind}", _record(kind, payload, seq))
    for seq, (kind, payload) in enumerate(_PAYLOADS.items())
)
SAMPLES["trace/lifecycle_backend"] = _record(
    "lifecycle", LifecycleV1(tenant="acme", phase="started", backend="pool"),
    len(_PAYLOADS),
)

_W = '"schema_version": 1, "kind": '
_REQUEST = _W + '"plan_request", '
_T = '{"trace_version": 1, "run_id": "r1", "seq": 0, "hour": 0.0, '

#: (case, via, raw payload text) — the malformed, edge and bugfix inputs.
PAYLOADS = [
    # decode() itself
    ("decode/not_json", "wire", "not json at all"),
    ("decode/not_object", "wire", "[1, 2, 3]"),
    ("decode/no_version", "wire", '{"kind": "hello"}'),
    ("decode/bad_version", "wire", '{"schema_version": 2, "kind": "hello"}'),
    ("decode/version_string", "wire", '{"schema_version": "1", "kind": "hello"}'),
    ("decode/unknown_kind", "wire", '{"schema_version": 1, "kind": "teleport"}'),
    ("decode/no_kind", "wire", '{"schema_version": 1}'),
    # goal_spec
    ("goal_spec/empty", "wire", "{" + _W + '"goal_spec"}'),
    ("goal_spec/unknown_field", "wire", "{" + _W + '"goal_spec", "speed": 1}'),
    ("goal_spec/wrong_type", "wire",
     "{" + _W + '"goal_spec", "deadline_hours": "soon"}'),
    ("goal_spec/bool_number", "wire",
     "{" + _W + '"goal_spec", "deadline_hours": true}'),
    ("goal_spec/bad_objective", "wire",
     "{" + _W + '"goal_spec", "objective": "win"}'),
    ("goal_spec/null_deadline", "wire",
     "{" + _W + '"goal_spec", "deadline_hours": null}'),
    ("goal_spec/infinite_deadline", "wire",
     "{" + _W + '"goal_spec", "deadline_hours": Infinity}'),
    ("goal_spec/nan_budget", "wire",
     "{" + _W + '"goal_spec", "objective": "minimize-time", '
     '"budget_usd": NaN}'),
    # network_spec
    ("network_spec/empty", "wire", "{" + _W + '"network_spec"}'),
    ("network_spec/unknown_field", "wire",
     "{" + _W + '"network_spec", "latency_ms": 3}'),
    ("network_spec/wrong_type", "wire",
     "{" + _W + '"network_spec", "uplink_mbit_s": [16]}'),
    ("network_spec/bool_number", "wire",
     "{" + _W + '"network_spec", "local_mb_s": false}'),
    ("network_spec/non_positive", "wire",
     "{" + _W + '"network_spec", "uplink_mbit_s": 0}'),
    ("network_spec/negative_infinity", "wire",
     "{" + _W + '"network_spec", "downlink_mbit_s": -Infinity}'),
    # job_spec
    ("job_spec/empty", "wire", "{" + _W + '"job_spec"}'),
    ("job_spec/unknown_field", "wire",
     "{" + _W + '"job_spec", "input_gb": 8, "warp_factor": 9}'),
    ("job_spec/wrong_type", "wire", "{" + _W + '"job_spec", "input_gb": "lots"}'),
    ("job_spec/bool_number", "wire", "{" + _W + '"job_spec", "input_gb": true}'),
    ("job_spec/int_bool", "wire",
     "{" + _W + '"job_spec", "constant_nodes": 1}'),
    ("job_spec/float_int", "wire", "{" + _W + '"job_spec", "local_nodes": 2.0}'),
    ("job_spec/bad_fractions", "wire",
     "{" + _W + '"job_spec", "upload_fractions": {"aws.s3": "half"}}'),
    ("job_spec/fractions_list", "wire",
     "{" + _W + '"job_spec", "upload_fractions": [0.5]}'),
    ("job_spec/bad_nested_goal", "wire",
     "{" + _W + '"job_spec", "goal": {"objective": "win"}}'),
    ("job_spec/nested_goal_unknown_field", "wire",
     "{" + _W + '"job_spec", "goal": {"deadline_hours": 3, "rush": true}}'),
    ("job_spec/nested_goal_not_object", "wire",
     "{" + _W + '"job_spec", "goal": 3}'),
    ("job_spec/nested_mismatched_kind", "wire",
     "{" + _W + '"job_spec", "goal": {"kind": "network_spec"}}'),
    ("job_spec/nested_bad_version", "wire",
     "{" + _W + '"job_spec", "network": {"schema_version": 2}}'),
    ("job_spec/null_goal", "wire", "{" + _W + '"job_spec", "goal": null}'),
    ("job_spec/null_network", "wire", "{" + _W + '"job_spec", "network": null}'),
    ("job_spec/bad_catalog", "wire", "{" + _W + '"job_spec", "catalog": "warp"}'),
    ("job_spec/hybrid_no_nodes", "wire",
     "{" + _W + '"job_spec", "catalog": "hybrid"}'),
    ("job_spec/two_errors", "wire",
     "{" + _W + '"job_spec", "input_gb": -1, "catalog": "warp", "x": 1}'),
    ("job_spec/infinite_input", "wire",
     "{" + _W + '"job_spec", "input_gb": Infinity}'),
    ("job_spec/nan_ratio", "wire",
     "{" + _W + '"job_spec", "map_output_ratio": NaN}'),
    ("job_spec/infinite_fraction", "wire",
     "{" + _W + '"job_spec", "upload_fractions": {"aws.s3": Infinity}}'),
    ("job_spec/huge_int", "wire", "{" + _W + '"job_spec", "input_gb": 1' + "0" * 400 + "}"),
    # error
    ("error/unknown_field", "wire",
     "{" + _W + '"error", "code": "internal", "trace": "x"}'),
    ("error/wrong_type", "wire", "{" + _W + '"error", "code": 7}'),
    ("error/bool_string", "wire",
     "{" + _W + '"error", "code": "internal", "message": false}'),
    ("error/missing_code", "wire", "{" + _W + '"error", "message": "boom"}'),
    ("error/unknown_code", "wire", "{" + _W + '"error", "code": "whoopsie"}'),
    ("error/bad_details", "wire",
     "{" + _W + '"error", "code": "internal", "details": {"n": 1}}'),
    # plan_request
    ("plan_request/minimal", "wire", "{" + _REQUEST + '"job": {}}'),
    ("plan_request/unknown_field", "wire",
     "{" + _REQUEST + '"job": {}, "urgent": true}'),
    ("plan_request/wrong_type", "wire",
     "{" + _REQUEST + '"job": {}, "priority": "high"}'),
    ("plan_request/bool_number", "wire",
     "{" + _REQUEST + '"job": {}, "deadline_s": true}'),
    ("plan_request/missing_job", "wire", "{" + _REQUEST + '"tenant": "acme"}'),
    ("plan_request/null_job", "wire", "{" + _REQUEST + '"job": null}'),
    ("plan_request/bad_nested_goal", "wire",
     "{" + _REQUEST + '"job": {"goal": {"deadline_hours": -3}}}'),
    ("plan_request/nested_mismatched_kind", "wire",
     "{" + _REQUEST + '"job": {"kind": "goal_spec"}}'),
    ("plan_request/nested_bad_version", "wire",
     "{" + _REQUEST + '"job": {"schema_version": 0}}'),
    ("plan_request/null_goal_and_network", "wire",
     "{" + _REQUEST + '"job": {"goal": null, "network": null}}'),
    ("plan_request/empty_tenant", "wire",
     "{" + _REQUEST + '"job": {}, "tenant": ""}'),
    ("plan_request/infinite_job_input", "wire",
     "{" + _REQUEST + '"job": {"input_gb": Infinity}}'),
    ("plan_request/infinite_goal_deadline", "wire",
     "{" + _REQUEST + '"job": {"goal": {"deadline_hours": Infinity}}}'),
    ("plan_request/infinite_deadline_s", "wire",
     "{" + _REQUEST + '"job": {}, "deadline_s": Infinity}'),
    ("plan_request/infinite_time_budget_s", "wire",
     "{" + _REQUEST + '"job": {}, "time_budget_s": Infinity}'),
    ("plan_request/nan_deadline_s", "wire",
     "{" + _REQUEST + '"job": {}, "deadline_s": NaN}'),
    # plan_response
    ("plan_response/unknown_field", "wire",
     "{" + _W + '"plan_response", "status": "completed", "plan": {}}'),
    ("plan_response/wrong_type", "wire",
     "{" + _W + '"plan_response", "status": "completed", "peak_nodes": 1.5}'),
    ("plan_response/bool_number", "wire",
     "{" + _W + '"plan_response", "status": "completed", "solve_s": false}'),
    ("plan_response/missing_status", "wire", "{" + _W + '"plan_response"}'),
    ("plan_response/bad_status", "wire",
     "{" + _W + '"plan_response", "status": "exploded"}'),
    ("plan_response/null_error", "wire",
     "{" + _W + '"plan_response", "status": "failed", "error": null}'),
    ("plan_response/bad_nested_error", "wire",
     "{" + _W + '"plan_response", "status": "failed", "error": {"code": 1}}'),
    ("plan_response/nested_mismatched_kind", "wire",
     "{" + _W + '"plan_response", "status": "failed", '
     '"error": {"kind": "hello", "code": "internal"}}'),
    # deploy_event
    ("deploy_event/unknown_field", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "extra": 0}'),
    ("deploy_event/wrong_type", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "nodes": {"aws.ec2": "four"}}'),
    ("deploy_event/bool_number", "wire",
     "{" + _W + '"deploy_event", "index": true, "start_hour": 0, '
     '"duration_hours": 1}'),
    ("deploy_event/missing_index", "wire",
     "{" + _W + '"deploy_event", "start_hour": 0, "duration_hours": 1}'),
    ("deploy_event/missing_start", "wire",
     "{" + _W + '"deploy_event", "index": 0, "duration_hours": 1}'),
    ("deploy_event/outbid_string", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "outbid_services": "aws"}'),
    ("deploy_event/interval_with_reason", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "reason": "why"}'),
    ("deploy_event/unknown_event", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "event": "teleport"}'),
    ("deploy_event/explicit_defaults", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "failed_services": [], "event": "interval", '
     '"trigger": "", "reason": ""}'),
    ("deploy_event/infinite_cost", "wire",
     "{" + _W + '"deploy_event", "index": 0, "start_hour": 0, '
     '"duration_hours": 1, "cost": Infinity}'),
    # hello
    ("hello/unknown_field", "wire", "{" + _W + '"hello", "motd": "hi"}'),
    ("hello/wrong_type", "wire", "{" + _W + '"hello", "version": 3}'),
    ("hello/bool_string", "wire", "{" + _W + '"hello", "service": true}'),
    # the trace envelope
    ("trace/not_json", "trace", "{nope"),
    ("trace/not_object", "trace", '"line"'),
    ("trace/no_version", "trace",
     '{"run_id": "r1", "seq": 0, "hour": 0.0, "kind": "span", '
     '"payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/bad_version", "trace",
     '{"trace_version": 2, "run_id": "r1", "seq": 0, "hour": 0.0, '
     '"kind": "span", "payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/unknown_kind", "trace", _T + '"kind": "mystery", "payload": {}}'),
    ("trace/unknown_field", "trace",
     _T + '"kind": "span", "payload": {"name": "s", "seconds": 1}, "x": 1}'),
    ("trace/wrong_type", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": "0", "hour": 0.0, '
     '"kind": "span", "payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/bool_number", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": 0, "hour": true, '
     '"kind": "span", "payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/negative_seq", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": -1, "hour": 0.0, '
     '"kind": "span", "payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/payload_not_object", "trace",
     _T + '"kind": "run_end", "payload": [1]}'),
    ("trace/missing_run_id", "trace",
     '{"trace_version": 1, "seq": 0, "hour": 0.0, "kind": "span", '
     '"payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/missing_hour", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": 0, "kind": "span", '
     '"payload": {"name": "s", "seconds": 1.0}}'),
    ("trace/missing_payload", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": 0, "hour": 0.0, '
     '"kind": "run_end"}'),
    ("trace/infinite_hour", "trace",
     '{"trace_version": 1, "run_id": "r1", "seq": 0, "hour": Infinity, '
     '"kind": "span", "payload": {"name": "s", "seconds": 1.0}}'),
    # trace payloads
    ("trace_hello/empty", "trace", _T + '"kind": "trace_hello", "payload": {}}'),
    ("trace_hello/unknown_field", "trace",
     _T + '"kind": "trace_hello", "payload": {"pid": 1}}'),
    ("trace_hello/wrong_type", "trace",
     _T + '"kind": "trace_hello", "payload": {"version": 1}}'),
    ("run_start/empty", "trace", _T + '"kind": "run_start", "payload": {}}'),
    ("run_start/no_scenario", "trace",
     _T + '"kind": "run_start", "payload": {"run_kind": "fleet"}}'),
    ("run_start/unknown_field", "trace",
     _T + '"kind": "run_start", "payload": {"run_kind": "fleet", '
     '"scenario": {}, "x": 1}}'),
    ("run_start/wrong_type", "trace",
     _T + '"kind": "run_start", "payload": {"run_kind": "fleet", '
     '"scenario": []}}'),
    ("run_start/bad_run_kind", "trace",
     _T + '"kind": "run_start", "payload": {"run_kind": "batch", '
     '"scenario": {}}}'),
    ("lifecycle/empty", "trace", _T + '"kind": "lifecycle", "payload": {}}'),
    ("lifecycle/no_tenant", "trace",
     _T + '"kind": "lifecycle", "payload": {"phase": "started"}}'),
    ("lifecycle/unknown_field", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", '
     '"phase": "started", "x": 1}}'),
    ("lifecycle/wrong_type", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", '
     '"phase": "started", "replans": 1.5}}'),
    ("lifecycle/bool_number", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", '
     '"phase": "started", "cost": true}}'),
    ("lifecycle/bad_phase", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", "phase": "x"}}'),
    ("lifecycle/explicit_empty_backend", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", '
     '"phase": "started", "backend": ""}}'),
    ("lifecycle/infinite_completion", "trace",
     _T + '"kind": "lifecycle", "payload": {"tenant": "a", '
     '"phase": "failed", "completion_hours": Infinity}}'),
    ("interval/empty", "trace", _T + '"kind": "interval", "payload": {}}'),
    ("interval/enveloped", "trace",
     _T + '"kind": "interval", "payload": {' + _W + '"deploy_event", '
     '"index": 0, "start_hour": 0, "duration_hours": 1}}'),
    ("replan/mismatched_kind", "trace",
     _T + '"kind": "replan", "payload": {"kind": "hello", "index": 0}}'),
    ("substrate_event/empty", "trace",
     _T + '"kind": "substrate_event", "payload": {}}'),
    ("substrate_event/no_hour", "trace",
     _T + '"kind": "substrate_event", "payload": {"event_kind": "price", '
     '"service": "s"}}'),
    ("substrate_event/unknown_field", "trace",
     _T + '"kind": "substrate_event", "payload": {"event_kind": "price", '
     '"service": "s", "hour": 1, "x": 1}}'),
    ("substrate_event/wrong_type", "trace",
     _T + '"kind": "substrate_event", "payload": {"event_kind": "price", '
     '"service": "s", "hour": 1, "attrs": "none"}}'),
    ("substrate_event/bool_number", "trace",
     _T + '"kind": "substrate_event", "payload": {"event_kind": "price", '
     '"service": "s", "hour": false}}'),
    ("span/empty", "trace", _T + '"kind": "span", "payload": {}}'),
    ("span/no_seconds", "trace",
     _T + '"kind": "span", "payload": {"name": "solve"}}'),
    ("span/unknown_field", "trace",
     _T + '"kind": "span", "payload": {"name": "s", "seconds": 1, "x": 1}}'),
    ("span/wrong_type", "trace",
     _T + '"kind": "span", "payload": {"name": 1, "seconds": 1}}'),
    ("span/bool_number", "trace",
     _T + '"kind": "span", "payload": {"name": "s", "seconds": true}}'),
    ("span/nan_seconds", "trace",
     _T + '"kind": "span", "payload": {"name": "s", "seconds": NaN}}'),
    ("snapshot/empty", "trace", _T + '"kind": "snapshot", "payload": {}}'),
    ("snapshot/no_state", "trace",
     _T + '"kind": "snapshot", "payload": {"tenant": "a", "step": 1}}'),
    ("snapshot/unknown_field", "trace",
     _T + '"kind": "snapshot", "payload": {"tenant": "a", "step": 1, '
     '"state": {}, "x": 1}}'),
    ("snapshot/wrong_type", "trace",
     _T + '"kind": "snapshot", "payload": {"tenant": "a", "step": "1", '
     '"state": {}}}'),
    ("snapshot/bool_number", "trace",
     _T + '"kind": "snapshot", "payload": {"tenant": "a", "step": true, '
     '"state": {}}}'),
    ("run_end/empty", "trace", _T + '"kind": "run_end", "payload": {}}'),
    ("run_end/unknown_field", "trace",
     _T + '"kind": "run_end", "payload": {"summary": {}, "x": 1}}'),
    ("run_end/wrong_type", "trace",
     _T + '"kind": "run_end", "payload": {"summary": 1}}'),
]


def encoded(message) -> str:
    if isinstance(message, TraceRecordV1):
        return message.encode()
    return encode(message)


def outcome(via: str, text: str) -> str:
    """What decoding ``text`` gives, as one comparable line."""
    try:
        if via == "wire":
            message = decode(text)
            line = encode(message)
        else:
            message = decode_payload(TraceRecordV1.decode(text))
            line = json.dumps(message.to_dict(), sort_keys=True)
    except SchemaError as exc:
        return f"error: {exc}"
    except Exception as exc:  # pinned too: a non-schema failure is a finding
        return f"raises {type(exc).__name__}: {exc}"
    return f"ok {type(message).__name__}: {line}"


def corpus_lines() -> list[str]:
    lines = [
        json.dumps({"case": case, "encoded": encoded(message)})
        for case, message in SAMPLES.items()
    ]
    lines += [
        json.dumps({"case": case, "via": via, "payload": text,
                    "result": outcome(via, text)})
        for case, via, text in PAYLOADS
    ]
    return lines


@functools.cache
def golden() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def entry(case: str) -> dict:
    return next(e for e in golden() if e["case"] == case)


def test_corpus_lists_every_case_once():
    cases = [e["case"] for e in golden()]
    assert len(cases) == len(set(cases))
    assert cases == list(SAMPLES) + [case for case, _, _ in PAYLOADS]


@pytest.mark.parametrize("case", list(SAMPLES))
def test_encoding_is_byte_identical(case):
    assert encoded(SAMPLES[case]) == entry(case)["encoded"]


@pytest.mark.parametrize("case", list(SAMPLES))
def test_decoding_the_golden_line_re_encodes_it(case):
    line = entry(case)["encoded"]
    if case.startswith("trace/"):
        record = TraceRecordV1.decode(line)
        assert record.encode() == line
        payload = decode_payload(record)
        assert payload.to_dict() == record.payload
    else:
        assert encode(decode(line)) == line


@pytest.mark.parametrize("case,via,text", PAYLOADS, ids=[c for c, _, _ in PAYLOADS])
def test_decode_outcome_is_pinned(case, via, text):
    pinned = entry(case)
    assert pinned["payload"] == text
    assert outcome(via, text) == pinned["result"]


if __name__ == "__main__":
    CORPUS.write_text("\n".join(corpus_lines()) + "\n")
    print(f"wrote {CORPUS} ({len(SAMPLES) + len(PAYLOADS)} lines)",
          file=sys.stderr)
