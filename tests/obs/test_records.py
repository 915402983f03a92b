"""Trace-record schemas: round-trips, strictness, content-addressed ids."""

import pytest

from repro.api.schemas import DeployEventV1, SchemaError
from repro.obs.records import (
    DETERMINISTIC_KINDS,
    RECORD_KINDS,
    LifecycleV1,
    RunStartV1,
    SpanV1,
    SubstrateEventV1,
    TraceRecordV1,
    decode_payload,
    run_id_for,
)


class TestEnvelope:
    def record(self, **overrides):
        fields = dict(
            run_id="abc123", seq=0, hour=1.5, kind="span",
            payload={"name": "solve", "seconds": 0.1},
        )
        fields.update(overrides)
        return TraceRecordV1(**fields)

    def test_encode_decode_round_trip(self):
        record = self.record()
        assert TraceRecordV1.decode(record.encode()) == record

    def test_encode_is_sorted_keys(self):
        line = self.record().encode()
        assert line.index('"hour"') < line.index('"kind"') < line.index('"seq"')

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown record kind"):
            self.record(kind="mystery")

    def test_unknown_version_rejected(self):
        data = self.record().to_dict()
        data["trace_version"] = 99
        with pytest.raises(SchemaError, match="trace_version"):
            TraceRecordV1.from_dict(data)

    def test_unknown_fields_rejected(self):
        data = self.record().to_dict()
        data["extra"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            TraceRecordV1.from_dict(data)

    def test_invalid_json_line_rejected(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            TraceRecordV1.decode("{nope")


class TestRunId:
    def test_content_addressed(self):
        a = run_id_for({"seed": 1, "deployments": 4})
        b = run_id_for({"deployments": 4, "seed": 1})
        assert a == b and len(a) == 12

    def test_different_scenarios_differ(self):
        assert run_id_for({"seed": 1}) != run_id_for({"seed": 2})


class TestPayloads:
    def test_every_kind_has_a_schema(self):
        for kind in RECORD_KINDS:
            payload = {
                "trace_hello": {"service": "x", "version": "1"},
                "run_start": {"run_kind": "deploy", "scenario": {}},
                "lifecycle": LifecycleV1(tenant="t", phase="started").to_dict(),
                "interval": DeployEventV1(
                    index=0, start_hour=0.0, duration_hours=1.0
                ).to_dict(),
                "replan": DeployEventV1(
                    index=0, start_hour=1.0, duration_hours=0.0,
                    event="replan", trigger="price", reason="spike",
                ).to_dict(),
                "substrate_event": SubstrateEventV1(
                    event_kind="eviction", service="s", hour=2.0
                ).to_dict(),
                "span": {"name": "solve", "seconds": 0.5},
                "snapshot": {"tenant": "t", "step": 1, "state": {},
                             "session_id": 1},
                "run_end": {"summary": {"total_cost": 1.0}},
            }[kind]
            record = TraceRecordV1(
                run_id="r", seq=0, hour=0.0, kind=kind, payload=payload
            )
            decoded = decode_payload(record)
            assert decoded.to_dict() == payload

    def test_lifecycle_rejects_unknown_phase(self):
        with pytest.raises(SchemaError, match="phase"):
            LifecycleV1(tenant="t", phase="paused")

    def test_run_start_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="run_kind"):
            RunStartV1(run_kind="batch", scenario={})

    def test_payload_schemas_reject_unknown_fields(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            LifecycleV1.from_dict(
                {"tenant": "t", "phase": "started", "bogus": 1}
            )

    def test_deterministic_kinds_are_record_kinds(self):
        assert DETERMINISTIC_KINDS < set(RECORD_KINDS)
        assert "span" not in DETERMINISTIC_KINDS
        assert "snapshot" not in DETERMINISTIC_KINDS
        assert "trace_hello" not in DETERMINISTIC_KINDS


class TestMissingFields:
    """A field without a default must be on the line; it is never blanked."""

    def test_bare_payload_is_rejected(self):
        with pytest.raises(SchemaError, match="missing required field 'name'"):
            SpanV1.from_dict({})
        with pytest.raises(SchemaError,
                           match="missing required field 'seconds'"):
            SpanV1.from_dict({"name": "solve"})

    def test_lifecycle_record_without_a_tenant_is_rejected(self):
        line = TraceRecordV1(
            run_id="r", seq=0, hour=0.0, kind="lifecycle",
            payload={"phase": "started"},
        ).encode()
        with pytest.raises(SchemaError,
                           match="missing required field 'tenant'"):
            decode_payload(TraceRecordV1.decode(line))

    def test_envelope_without_an_hour_is_rejected(self):
        data = TraceRecordV1(
            run_id="r", seq=0, hour=2.0, kind="run_end",
            payload={"summary": {}},
        ).to_dict()
        del data["hour"]
        with pytest.raises(SchemaError, match="missing required field 'hour'"):
            TraceRecordV1.from_dict(data)

    def test_defaulted_fields_may_be_absent(self):
        assert LifecycleV1.from_dict({"tenant": "t", "phase": "started"}) == (
            LifecycleV1(tenant="t", phase="started")
        )
