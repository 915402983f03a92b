"""Fingerprint tests: equal problems collide, perturbed problems don't."""

import hashlib

import pytest

from repro.api import GoalSpec, JobSpec
from repro.api.compiler import compile_spec
from repro.cloud import instance_types, public_cloud, s3
from repro.cloud.catalog_full import RESERVED_M1_LARGE, full_instance_catalog
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
)
from repro.service import problem_fingerprint
from repro.service.fingerprint import canonical_payload


def make_problem(**overrides) -> PlanningProblem:
    defaults = dict(
        job=PlannerJob(name="job", input_gb=16.0),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(16.0),
        goal=Goal.min_cost(deadline_hours=6.0),
    )
    defaults.update(overrides)
    return PlanningProblem(**defaults)


class TestEquality:
    def test_identical_problems_hash_equal(self):
        assert problem_fingerprint(make_problem()) == problem_fingerprint(
            make_problem()
        )

    def test_job_name_is_ignored(self):
        renamed = make_problem(job=PlannerJob(name="other", input_gb=16.0))
        assert problem_fingerprint(renamed) == problem_fingerprint(make_problem())

    def test_service_order_is_ignored(self):
        reordered = make_problem(services=list(reversed(public_cloud())))
        assert problem_fingerprint(reordered) == problem_fingerprint(make_problem())

    def test_none_state_equals_initial_state(self):
        explicit = make_problem(
            state=SystemState.initial(PlannerJob(name="job", input_gb=16.0))
        )
        assert problem_fingerprint(explicit) == problem_fingerprint(make_problem())

    def test_dict_insertion_order_is_ignored(self):
        a = make_problem(upload_fractions={"s3": 0.5, "ec2.m1.large": 0.25})
        b = make_problem(upload_fractions={"ec2.m1.large": 0.25, "s3": 0.5})
        assert problem_fingerprint(a) == problem_fingerprint(b)


class TestPerturbation:
    BASE = None

    def setup_method(self):
        self.base = problem_fingerprint(make_problem())

    def differs(self, problem) -> bool:
        return problem_fingerprint(problem) != self.base

    def test_input_size(self):
        assert self.differs(make_problem(job=PlannerJob(name="job", input_gb=17.0)))

    def test_job_ratio(self):
        assert self.differs(
            make_problem(job=PlannerJob(name="job", input_gb=16.0,
                                        map_output_ratio=0.01))
        )

    def test_service_price(self):
        services = public_cloud()
        services[0] = services[0].replace(price_per_node_hour=0.35)
        assert self.differs(make_problem(services=services))

    def test_service_throughput(self):
        services = public_cloud()
        services[0] = services[0].replace(throughput_gb_per_hour=0.5)
        assert self.differs(make_problem(services=services))

    def test_deadline(self):
        assert self.differs(make_problem(goal=Goal.min_cost(deadline_hours=7.0)))

    def test_goal_kind(self):
        assert self.differs(make_problem(goal=Goal.min_time(budget_usd=30.0)))

    def test_network(self):
        assert self.differs(make_problem(network=NetworkConditions.from_mbit_s(32.0)))

    def test_spot_estimates(self):
        services = public_cloud()
        services[0] = services[0].replace(is_spot=True)
        with_estimate = make_problem(
            services=services,
            spot_price_estimates={services[0].name: [0.2] * 6},
        )
        other_bid = make_problem(
            services=services,
            spot_price_estimates={services[0].name: [0.3] * 6},
        )
        assert self.differs(with_estimate)
        assert problem_fingerprint(with_estimate) != problem_fingerprint(other_bid)

    def test_upload_fractions(self):
        assert self.differs(make_problem(upload_fractions={"s3": 0.5}))

    def test_state_progress(self):
        moved = SystemState(
            source_remaining_gb=8.0, stored_input={"s3": 8.0}, hour=1.0
        )
        assert self.differs(make_problem(state=moved))

    def test_model_flags(self):
        assert self.differs(make_problem(constant_nodes=True))
        assert self.differs(make_problem(allow_migration=False))
        assert self.differs(make_problem(strict_phase_gap=True))
        assert self.differs(make_problem(upload_read_lag=1))
        assert self.differs(make_problem(interval_hours=0.5))


class TestEncoding:
    def test_fingerprint_is_hex_sha256(self):
        digest = problem_fingerprint(make_problem())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_numpy_estimate_series_accepted(self):
        numpy = pytest.importorskip("numpy")
        services = public_cloud()
        services[0] = services[0].replace(is_spot=True)
        listy = make_problem(
            services=services,
            spot_price_estimates={services[0].name: [0.2] * 6},
        )
        arraylike = make_problem(
            services=services,
            spot_price_estimates={services[0].name: numpy.full(6, 0.2)},
        )
        assert problem_fingerprint(listy) == problem_fingerprint(arraylike)


#: SHA-256 of ``canonical_payload`` for a 16 GB / 6 h problem over each
#: shipped catalog, as the encoding has stood since fingerprints were
#: introduced: a plan cached under one of them must stay reachable.
PAYLOAD_DIGESTS = {
    "public": "806eae81fb56e6226adab4b40087a4b11bf7c61b4824084f73173668cf4dc756",
    "hybrid": "07dcdb73d235a8c953fc9281e89a0062a46f70a4734139b6d1d269dcb9d6b7dd",
    "spot": "eccff3f63da8aa55d35e5c23b4416f2b90b4e83f52f7f1ed32f8b9bbb7ea3b2a",
    "full": "e3086dca9ab77180f59566ade48390606ddde95590c48f8cdb58864157ccbbd2",
    "fig1": "2914f9c458433a558c7d3420bfc65bd2534c4cf0a895e7c278ea2feeb73b791d",
    "reserved": "fec28735e131682c9467c1026f77d2b3f3939a7fd82e391157d3b502f4c40349",
}


def shipped_catalog_problem(catalog: str) -> PlanningProblem:
    if catalog in ("public", "hybrid", "spot"):
        return compile_spec(JobSpec(
            input_gb=16.0, catalog=catalog,
            local_nodes=5 if catalog == "hybrid" else 0,
            goal=GoalSpec(deadline_hours=6.0)))
    services = {
        "full": full_instance_catalog() + [s3()],
        "fig1": instance_types() + [s3()],
        "reserved": [RESERVED_M1_LARGE.to_service(0.5), s3()],
    }[catalog]
    return make_problem(services=services)


@pytest.mark.parametrize("catalog", PAYLOAD_DIGESTS)
def test_canonical_payload_is_unchanged_for_every_shipped_catalog(catalog):
    payload = canonical_payload(shipped_catalog_problem(catalog))
    assert hashlib.sha256(payload).hexdigest() == PAYLOAD_DIGESTS[catalog]
