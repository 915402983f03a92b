"""Tests for the full 2011 EC2 catalog and reserved offers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    INSTANCE_SPECS,
    RESERVED_M1_LARGE,
    KMEANS_THROUGHPUT_GB_H,
    ReservedOffer,
    ecu_efficiency,
    full_instance_catalog,
    measured_throughput,
    projected_throughput,
    spec_by_name,
    validate_catalog,
)
from repro.cloud.catalog import ec2_m1_large, s3


class TestInstanceCatalog:
    def test_exactly_eleven_types(self):
        # "Amazon offers eleven different types of VM instances" (paper §1).
        assert len(INSTANCE_SPECS) == 11
        assert len(full_instance_catalog()) == 11

    def test_names_unique_and_prefixed(self):
        services = full_instance_catalog()
        names = [s.name for s in services]
        assert len(set(names)) == 11
        assert all(name.startswith("ec2.") for name in names)

    def test_measured_anchors_match_fig1(self):
        assert spec_by_name("m1.large").throughput() == pytest.approx(
            KMEANS_THROUGHPUT_GB_H
        )
        assert spec_by_name("m1.xlarge").throughput() == pytest.approx(0.85)
        assert spec_by_name("c1.xlarge").throughput() == pytest.approx(1.25)

    def test_catalog_validates_with_storage(self):
        validate_catalog(full_instance_catalog() + [s3()])

    def test_ebs_only_micro_cannot_store(self):
        micro = spec_by_name("t1.micro").to_service()
        assert not micro.can_store

    def test_spec_by_name_accepts_both_forms(self):
        assert spec_by_name("m1.large") is spec_by_name("ec2.m1.large")

    def test_unknown_spec_lists_types(self):
        with pytest.raises(KeyError, match="m1.large"):
            spec_by_name("m9.mega")

    def test_m1_large_beats_m1_xlarge_on_cost_performance(self):
        # Section 6.1 offers the planner m1.large and m1.xlarge and notes
        # the extra-large type is "never chosen ... since they offer a
        # cost-performance ratio that is slightly worse".
        def dollars_per_gb_hour(name):
            service = spec_by_name(name).to_service()
            return service.price_per_node_hour / service.throughput_gb_per_hour

        assert dollars_per_gb_hour("m1.large") < dollars_per_gb_hour("m1.xlarge")

    def test_projected_types_marked_by_curve(self):
        # Unmeasured types inherit the Fig. 1 efficiency correction: their
        # throughput is below the linear ECU projection.
        for spec in INSTANCE_SPECS:
            if spec.measured_gb_per_hour is None:
                assert spec.throughput() <= projected_throughput(spec.ecu) + 1e-12


class TestEfficiencyCurve:
    def test_anchor_points(self):
        assert ecu_efficiency(4.0) == pytest.approx(1.0)
        assert ecu_efficiency(8.0) == pytest.approx(0.9659)
        assert ecu_efficiency(20.0) == pytest.approx(0.5682)

    def test_monotone_nonincreasing_beyond_anchor(self):
        values = [ecu_efficiency(e) for e in (4, 6, 8, 12, 16, 20, 30, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_flat_extrapolation(self):
        assert ecu_efficiency(33.5) == pytest.approx(ecu_efficiency(20.0))

    def test_divergence_grows_with_ecu(self):
        # Fig. 1's headline: projected - measured grows with the rating.
        gaps = [
            projected_throughput(e) - measured_throughput(e)
            for e in (4.0, 8.0, 20.0, 33.5)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    @given(ecu=st.floats(0.5, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_measured_never_exceeds_projection(self, ecu):
        assert measured_throughput(ecu) <= projected_throughput(ecu) + 1e-12


class TestReservedOffers:
    def test_amortized_rate_decreases_with_utilization(self):
        low = RESERVED_M1_LARGE.amortized_rate(0.1)
        high = RESERVED_M1_LARGE.amortized_rate(1.0)
        assert high < low
        assert high == pytest.approx(0.12 + 910.0 / (365 * 24))

    def test_break_even_against_on_demand(self):
        util = RESERVED_M1_LARGE.break_even_utilization(0.34)
        # 910 / (0.34 - 0.12) ≈ 4136 h ≈ 47% of a year.
        assert util == pytest.approx(910.0 / 0.22 / (365 * 24))
        assert 0.4 < util < 0.55

    def test_never_pays_off_when_hourly_too_high(self):
        offer = ReservedOffer("m1.large", upfront_usd=10.0, hourly_usd=0.5)
        assert math.isinf(offer.break_even_utilization(0.34))

    def test_to_service_uses_amortized_price(self):
        service = RESERVED_M1_LARGE.to_service(utilization=0.5)
        assert service.name == "ec2.m1.large.reserved"
        assert service.price_per_node_hour == pytest.approx(
            RESERVED_M1_LARGE.amortized_rate(0.5)
        )

    def test_utilization_bounds(self):
        with pytest.raises(ValueError):
            RESERVED_M1_LARGE.amortized_rate(0.0)
        with pytest.raises(ValueError):
            RESERVED_M1_LARGE.amortized_rate(1.5)

    def test_offer_validation(self):
        with pytest.raises(ValueError):
            ReservedOffer("m1.large", upfront_usd=-1.0, hourly_usd=0.1)

    def test_planner_prefers_reserved_at_full_utilization(self):
        # At 100% utilization the reserved price undercuts on-demand, so
        # a plan over both services must pick the reserved one.
        from repro.core import Goal, NetworkConditions, PlannerJob, plan_job

        reserved = RESERVED_M1_LARGE.to_service(utilization=1.0)
        plan = plan_job(
            PlannerJob(input_gb=4.0),
            [ec2_m1_large(), reserved, s3()],
            Goal.min_cost(deadline_hours=6.0),
            network=NetworkConditions.from_mbit_s(16.0),
        )
        assert plan.total_node_hours("ec2.m1.large.reserved") > 0
        assert plan.total_node_hours("ec2.m1.large") == 0
