"""Schema round-trips, malformed-input and version-rejection paths."""

import dataclasses
import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
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

#: One representative, non-default instance of every schema type.
SAMPLES = [
    GoalSpec(objective="minimize-time", budget_usd=30.0, deadline_hours=12.0),
    NetworkSpec(uplink_mbit_s=32.0, downlink_mbit_s=64.0, local_mb_s=50.0),
    JobSpec(
        name="kmeans",
        input_gb=32.0,
        map_output_ratio=0.01,
        goal=GoalSpec(deadline_hours=8.0),
        network=NetworkSpec(uplink_mbit_s=24.0),
        catalog="hybrid",
        local_nodes=5,
        interval_hours=0.5,
        constant_nodes=True,
        allow_migration=False,
        upload_fractions={"aws.s3": 0.5},
    ),
    ErrorV1(code="infeasible", message="no plan", details={"hint": "relax"}),
    PlanRequestV1(
        job=JobSpec(input_gb=8.0, goal=GoalSpec(deadline_hours=4.0)),
        tenant="acme",
        priority=0,
        deadline_s=30.0,
        time_budget_s=5.0,
        request_id="r-42",
    ),
    PlanResponseV1(
        status="completed",
        tenant="acme",
        request_id="r-42",
        cached=True,
        fingerprint="abc123",
        predicted_cost=3.4,
        predicted_completion_hours=2.5,
        peak_nodes=16,
        solver_status="optimal",
        queue_wait_s=0.1,
        solve_s=1.5,
        total_s=1.7,
    ),
    PlanResponseV1(
        status="failed",
        error=ErrorV1(code="budget_exceeded", message="too tight"),
    ),
    DeployEventV1(
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
    ),
    DeployEventV1(
        index=4,
        start_hour=4.0,
        duration_hours=0.0,
        tenant="acme",
        session_id=7,
        event="replan",
        trigger="eviction",
        reason="out-bid on aws.ec2.spot",
    ),
    HelloV1(version="0.3.0"),
]


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_from_dict_to_dict_identity(self, message):
        assert type(message).from_dict(message.to_dict()) == message

    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_json_wire_round_trip(self, message):
        """encode -> real JSON -> decode dispatches back to the same value."""
        line = encode(message)
        assert decode(line) == message
        # The wire form is a single JSON object with the envelope.
        payload = json.loads(line)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == type(message).KIND

    def test_defaults_round_trip(self):
        for cls in (GoalSpec, NetworkSpec, JobSpec, HelloV1):
            assert cls.from_dict(cls().to_dict()) == cls()

    def test_numeric_coercion_preserves_equality(self):
        """Ints on the wire compare equal to the floats they stand for."""
        spec = JobSpec.from_dict({"input_gb": 8, "goal": {"deadline_hours": 4}})
        assert spec == JobSpec(input_gb=8.0, goal=GoalSpec(deadline_hours=4.0))


class TestVersionRejection:
    def test_decode_rejects_unknown_version(self):
        with pytest.raises(SchemaError, match="schema_version"):
            decode({"schema_version": 2, "kind": "plan_request", "job": {}})

    def test_decode_requires_version(self):
        with pytest.raises(SchemaError, match="missing schema_version"):
            decode({"kind": "hello"})

    def test_from_dict_rejects_unknown_version(self):
        payload = JobSpec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            JobSpec.from_dict(payload)

    def test_constructor_rejects_unknown_version(self):
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            JobSpec(schema_version=0)

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            decode({"schema_version": 1, "kind": "teleport_request"})

    def test_from_dict_rejects_mismatched_kind(self):
        with pytest.raises(SchemaError, match="expected kind"):
            JobSpec.from_dict({"kind": "goal_spec"})


class TestMalformedInput:
    def test_decode_rejects_garbage(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            decode("not json at all")

    def test_decode_rejects_non_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            decode("[1, 2, 3]")

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            JobSpec.from_dict({"input_gb": 8, "warp_factor": 9})

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError, match="input_gb"):
            JobSpec.from_dict({"input_gb": "lots"})
        with pytest.raises(SchemaError, match="must be a boolean"):
            JobSpec.from_dict({"constant_nodes": "yes"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError, match="input_gb"):
            JobSpec.from_dict({"input_gb": True})

    def test_missing_required_field_rejected(self):
        with pytest.raises(SchemaError, match="job"):
            PlanRequestV1.from_dict({"tenant": "acme"})
        with pytest.raises(SchemaError, match="code"):
            ErrorV1.from_dict({"message": "boom"})

    def test_semantic_validation(self):
        with pytest.raises(SchemaError, match="input_gb"):
            JobSpec(input_gb=-1.0)
        with pytest.raises(SchemaError, match="catalog"):
            JobSpec(catalog="warp")
        with pytest.raises(SchemaError, match="local_nodes"):
            JobSpec(catalog="hybrid", local_nodes=0)
        with pytest.raises(SchemaError, match="services_xml"):
            JobSpec(catalog="xml")
        with pytest.raises(SchemaError, match="deadline"):
            GoalSpec(deadline_hours=None)
        with pytest.raises(SchemaError, match="budget"):
            GoalSpec(objective="minimize-time")
        with pytest.raises(SchemaError, match="status"):
            PlanResponseV1(status="exploded")
        with pytest.raises(SchemaError, match="error code"):
            ErrorV1(code="whoopsie")
        with pytest.raises(SchemaError, match="tenant"):
            PlanRequestV1(job=JobSpec(), tenant="")

    def test_schema_error_is_a_value_error(self):
        """Callers that predate the API still catch these."""
        assert issubclass(SchemaError, ValueError)


class TestCompilation:
    def test_goal_spec_compiles_to_goal(self):
        from repro.core import GoalKind

        goal = GoalSpec(deadline_hours=6.0).to_goal()
        assert goal.kind is GoalKind.MINIMIZE_COST
        assert goal.deadline_hours == 6.0
        timed = GoalSpec(
            objective="minimize-time", budget_usd=30.0, deadline_hours=12.0
        ).to_goal()
        assert timed.kind is GoalKind.MINIMIZE_TIME
        assert timed.budget_usd == 30.0
        assert GoalSpec.from_goal(goal) == GoalSpec(deadline_hours=6.0)

    def test_network_spec_defaults_match_core_defaults(self):
        from repro.core import NetworkConditions

        assert NetworkSpec().to_conditions() == NetworkConditions()

    def test_network_spec_symmetric_downlink(self):
        conditions = NetworkSpec(uplink_mbit_s=32.0).to_conditions()
        assert conditions.uplink_gb_per_hour == conditions.downlink_gb_per_hour

    def test_job_spec_compiles_to_planner_job(self):
        spec = JobSpec(name="wc", input_gb=8.0, map_output_ratio=0.5)
        job = spec.to_planner_job()
        assert job.name == "wc"
        assert job.input_gb == 8.0
        assert job.map_output_ratio == 0.5


class TestDeployEventKinds:
    """The additive ``event``/``trigger``/``reason`` fields (fleet work)."""

    def test_pre_fleet_payload_still_decodes(self):
        # A v1 payload written before the replan kind existed carries no
        # event field; it must decode as a plain interval event.
        payload = {
            "schema_version": 1, "kind": "deploy_event",
            "index": 1, "start_hour": 0.0, "duration_hours": 1.0,
        }
        event = DeployEventV1.from_dict(payload)
        assert event.event == "interval"
        assert event.trigger == "" and event.reason == ""

    def test_unknown_event_kind_is_rejected(self):
        with pytest.raises(SchemaError, match="deploy event kind"):
            DeployEventV1(index=1, start_hour=0.0, duration_hours=1.0,
                          event="reboot")

    def test_from_replan_wraps_a_record(self):
        from repro.core.controller import ReplanRecord

        record = ReplanRecord(hour=5.0, kind="price",
                              reason="spot price deviation", plan_index=2)
        event = DeployEventV1.from_replan(
            record, tenant="acme", session_id=3, index=4
        )
        assert event.event == "replan"
        assert event.trigger == "price"
        assert event.reason == "spot price deviation"
        assert event.start_hour == 5.0
        assert event.duration_hours == 0.0
        assert event.index == 4
        assert decode(encode(event)) == event


class TestSharedSpecsAreReadOnly:
    """Decoded specs are shared between requests and memoize their
    ``cache_key()``: the one mapping field of a frozen spec must not be
    a way to change it under every holder at once."""

    SPEC = JobSpec(input_gb=8.0, upload_fractions={"s3": 0.5})

    def test_mutating_upload_fractions_raises(self):
        with pytest.raises(TypeError):
            self.SPEC.upload_fractions["s3"] = 1.0
        with pytest.raises(TypeError):
            del self.SPEC.upload_fractions["s3"]
        with pytest.raises(AttributeError):
            self.SPEC.upload_fractions.clear()
        assert dict(self.SPEC.upload_fractions) == {"s3": 0.5}

    def test_the_callers_dict_is_copied_not_wrapped(self):
        fractions = {"s3": 0.5}
        spec = JobSpec(upload_fractions=fractions)
        key = spec.cache_key()
        fractions["s3"] = 1.0
        assert spec.upload_fractions["s3"] == 0.5
        assert spec.cache_key() == key

    def test_value_semantics_are_unchanged(self):
        twin = JobSpec(input_gb=8, upload_fractions={"s3": 0.5})
        assert twin == self.SPEC
        assert twin.cache_key() == self.SPEC.cache_key()
        assert twin != JobSpec(input_gb=8.0, upload_fractions={"s3": 0.25})
        payload = self.SPEC.to_dict()
        assert payload["upload_fractions"] == {"s3": 0.5}
        assert type(payload["upload_fractions"]) is dict
        assert JobSpec.from_dict(payload) == self.SPEC
        assert decode(encode(self.SPEC)) == self.SPEC

    def test_specs_still_copy_and_pickle(self):
        import copy
        import pickle

        assert copy.deepcopy(self.SPEC) == self.SPEC
        assert pickle.loads(pickle.dumps(self.SPEC)) == self.SPEC

    def test_compiled_problem_is_unchanged(self):
        from repro.api.compiler import compile_spec
        from repro.service import problem_fingerprint

        problem = compile_spec(self.SPEC)
        assert problem.upload_fractions == {"s3": 0.5}
        assert type(problem.upload_fractions) is dict
        via_wire = compile_spec(decode(encode(self.SPEC)))
        assert problem_fingerprint(via_wire) == problem_fingerprint(problem)


def request_payload(**job) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "plan_request",
        "tenant": "acme",
        "job": job,
    }


class TestDecodeMemo:
    """``PlanRequestV1.from_dict`` validates a ``job`` payload once per
    distinct text; what it remembers never changes an answer."""

    def test_repeated_job_decodes_to_one_shared_spec(self):
        line = encode(PlanRequestV1(job=JobSpec(input_gb=12.5), tenant="a"))
        other = encode(PlanRequestV1(job=JobSpec(input_gb=12.5), tenant="b",
                                     request_id="r-2", priority=0))
        first, second = decode(line), decode(other)
        assert first.job is second.job
        assert (second.tenant, second.request_id, second.priority) == ("b", "r-2", 0)
        assert first.job == JobSpec(input_gb=12.5)

    def test_invalid_job_is_rejected_on_every_sight(self):
        payloads = [
            request_payload(input_gb=8, warp_factor=9),
            request_payload(input_gb=-1.0),
            request_payload(input_gb=8, goal={"deadline_hours": 4, "warp": 1}),
            request_payload(catalog="hybrid"),
        ]
        for payload in payloads:
            messages = []
            for _ in range(3):
                with pytest.raises(SchemaError) as caught:
                    PlanRequestV1.from_dict(payload)
                messages.append(str(caught.value))
            assert len(set(messages)) == 1
        with pytest.raises(SchemaError, match="unknown fields"):
            decode(json.dumps(payloads[0]))
        # A valid neighbour seen in between does not launder it.
        assert decode(json.dumps(request_payload(input_gb=8))).job.input_gb == 8.0
        with pytest.raises(SchemaError, match="unknown fields"):
            decode(json.dumps(payloads[0]))

    def test_payloads_differing_in_one_value_stay_apart(self):
        for _ in range(2):  # cold, then warm
            a = PlanRequestV1.from_dict(request_payload(input_gb=8.0))
            b = PlanRequestV1.from_dict(request_payload(input_gb=8.5))
            c = PlanRequestV1.from_dict(
                request_payload(input_gb=8.0, goal={"deadline_hours": 5})
            )
            assert (a.job.input_gb, b.job.input_gb) == (8.0, 8.5)
            assert a.job.goal.deadline_hours == 6.0
            assert c.job.goal.deadline_hours == 5.0

    def test_one_and_one_point_zero_and_true_never_stand_in_for_each_other(self):
        def job(**fields):
            return PlanRequestV1.from_dict(request_payload(**fields)).job

        for _ in range(2):  # whichever is seen first, warm or cold
            # A float field takes 1 and 1.0 (equal specs), never true.
            assert job(input_gb=1) == job(input_gb=1.0) == JobSpec(input_gb=1.0)
            with pytest.raises(SchemaError, match="input_gb"):
                job(input_gb=True)
            # An integer field takes 1, neither 1.0 nor true.
            assert job(catalog="hybrid", local_nodes=1).local_nodes == 1
            with pytest.raises(SchemaError, match="local_nodes"):
                job(catalog="hybrid", local_nodes=1.0)
            with pytest.raises(SchemaError, match="local_nodes"):
                job(catalog="hybrid", local_nodes=True)
            # A boolean field takes true, neither 1 nor 1.0.
            assert job(constant_nodes=True).constant_nodes is True
            with pytest.raises(SchemaError, match="constant_nodes"):
                job(constant_nodes=1)
            with pytest.raises(SchemaError, match="constant_nodes"):
                job(constant_nodes=1.0)

    def test_key_order_only_costs_a_miss(self):
        forward = {"input_gb": 9.0, "name": "sort", "catalog": "public"}
        backward = dict(reversed(list(forward.items())))
        a = PlanRequestV1.from_dict(request_payload(**forward)).job
        b = PlanRequestV1.from_dict(request_payload(**backward)).job
        assert a == b == JobSpec(name="sort", input_gb=9.0)

    def test_memo_is_bounded(self):
        from repro.api import schemas

        for index in range(schemas._JOB_MEMO_SIZE + 40):
            PlanRequestV1.from_dict(request_payload(input_gb=100.0 + index))
        assert len(schemas._JOB_MEMO) <= schemas._JOB_MEMO_SIZE
        # The oldest entries went; a returning job is simply validated again.
        again = PlanRequestV1.from_dict(request_payload(input_gb=100.0))
        assert again.job == JobSpec(input_gb=100.0)

    @pytest.mark.parametrize(
        "message",
        [m for m in SAMPLES if isinstance(m, PlanRequestV1)],
        ids=lambda m: type(m).__name__,
    )
    def test_round_trips_hold_with_the_memo_warm(self, message):
        line = encode(message)
        for _ in range(3):
            assert decode(line) == message
            assert PlanRequestV1.from_dict(message.to_dict()) == message
            assert encode(decode(line)) == line


class TestNonFiniteNumbers:
    """``json.loads`` reads ``NaN``/``Infinity``; decode rejects them."""

    @pytest.mark.parametrize(
        "line,field",
        [
            ('{"job": {"input_gb": Infinity}}', "input_gb"),
            ('{"job": {"goal": {"deadline_hours": Infinity}}}',
             "deadline_hours"),
            ('{"job": {"network": {"uplink_mbit_s": NaN}}}', "uplink_mbit_s"),
            ('{"job": {"upload_fractions": {"s3": -Infinity}}}',
             "upload_fractions"),
            ('{"job": {}, "deadline_s": Infinity}', "deadline_s"),
            ('{"job": {}, "time_budget_s": Infinity}', "time_budget_s"),
            ('{"job": {"input_gb": 1' + "0" * 400 + "}}", "input_gb"),
        ],
    )
    def test_decode_rejects_them(self, line, field):
        text = '{"schema_version": 1, "kind": "plan_request", ' + line[1:]
        with pytest.raises(SchemaError,
                           match=f"field '{field}' must be a finite number"):
            decode(text)

    def test_a_finite_number_still_decodes(self):
        text = ('{"schema_version": 1, "kind": "plan_request", '
                '"job": {"input_gb": 1e300}, "deadline_s": 0.5}')
        assert decode(text).job.input_gb == 1e300


#: Replacement values for fields a plain bump would make invalid.
_CHANGED = {
    "objective": "minimize-time",  # valid: the base goal carries a budget
    "catalog": "spot",
    "spot_price": 0.5,
    "services_xml": "<services/>",
    "downlink_mbit_s": 8.0,
    "upload_fractions": {"s3": 0.5},
}


def _one_field_changed(spec):
    """``(path, copy)`` for every field of ``spec``, nested ones included,
    with that one field given another valid value."""
    for spec_field in dataclasses.fields(spec):
        name = spec_field.name
        value = getattr(spec, name)
        if name == "schema_version":
            continue
        if isinstance(value, (GoalSpec, NetworkSpec)):
            for path, nested in _one_field_changed(value):
                yield f"{name}.{path}", dataclasses.replace(spec, **{name: nested})
            continue
        if name in _CHANGED:
            other = _CHANGED[name]
        elif isinstance(value, bool):
            other = not value
        elif isinstance(value, str):
            other = value + "-2"
        elif isinstance(value, (int, float)):
            other = value + 1
        else:
            raise AssertionError(f"no changed value for field {name!r}")
        yield name, dataclasses.replace(spec, **{name: other})


class TestCacheKey:
    BASE = JobSpec(goal=GoalSpec(budget_usd=20.0))

    def test_every_field_changes_the_key(self):
        changed = dict(_one_field_changed(self.BASE))
        # 14 own fields, 3 of the goal, 4 of the network.
        assert len(changed) == 21
        for path, spec in changed.items():
            assert spec != self.BASE, path
            assert spec.cache_key() != self.BASE.cache_key(), path

    def test_equal_specs_share_a_key(self):
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(self.BASE.to_dict())))
        assert rebuilt.cache_key() == self.BASE.cache_key()
        assert hash(rebuilt.cache_key()) == hash(self.BASE.cache_key())
