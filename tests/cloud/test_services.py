"""Unit tests for service descriptions and derived pricing quantities."""

import math

import pytest

from repro.cloud import ResourceKind, ServiceDescription, validate_catalog
from repro.cloud.catalog import ec2_m1_large, local_cluster, s3


class TestValidation:
    def test_service_must_provide_something(self):
        with pytest.raises(ValueError):
            ServiceDescription(name="nothing")

    def test_compute_needs_throughput(self):
        with pytest.raises(ValueError):
            ServiceDescription(name="c", can_compute=True)

    def test_billing_hours_positive(self):
        with pytest.raises(ValueError):
            ServiceDescription(name="s", can_store=True, billing_hours=0)

    def test_avg_op_positive(self):
        with pytest.raises(ValueError):
            ServiceDescription(name="s", can_store=True, avg_op_mb=0)


class TestKinds:
    def test_pure_storage(self):
        assert s3().kinds == {ResourceKind.STORAGE}

    def test_overlapping_resources(self):
        # EC2 bundles compute and storage (paper Section 4.6).
        assert ec2_m1_large().kinds == {ResourceKind.COMPUTE, ResourceKind.STORAGE}


class TestRequestCostTranslation:
    def test_put_cost_per_gb(self):
        # Paper Fig. 3: cost_put 1e-5/op; 64 MB ops -> 16 ops/GB.
        service = s3()
        assert service.put_cost_per_gb() == pytest.approx(16 * 1e-5)

    def test_get_cost_per_gb(self):
        service = s3()
        assert service.get_cost_per_gb() == pytest.approx(16 * 1e-6)

    def test_smaller_ops_cost_more_per_gb(self):
        coarse = s3()
        fine = s3().replace(avg_op_mb=1.0)
        assert fine.put_cost_per_gb() > coarse.put_cost_per_gb()


class TestBillingRounding:
    def test_round_up_to_full_hours(self):
        ec2 = ec2_m1_large()
        assert ec2.node_hours_billed(0.1) == pytest.approx(1.0)
        assert ec2.node_hours_billed(1.0) == pytest.approx(1.0)
        assert ec2.node_hours_billed(1.01) == pytest.approx(2.0)

    def test_zero_usage_not_billed(self):
        assert ec2_m1_large().node_hours_billed(0.0) == 0.0

    def test_epsilon_above_boundary_tolerated(self):
        # Floating-point noise at the boundary must not add an hour.
        assert ec2_m1_large().node_hours_billed(2.0 + 1e-12) == pytest.approx(2.0)

    def test_custom_granularity(self):
        svc = s3().replace(billing_hours=0.5)
        assert svc.node_hours_billed(0.6) == pytest.approx(1.0)


class TestStorageLimit:
    def test_unlimited(self):
        assert s3().storage_limit_gb() == math.inf

    def test_scales_with_nodes(self):
        ec2 = ec2_m1_large()
        assert ec2.storage_limit_gb(0) == 0.0
        assert ec2.storage_limit_gb(2) == pytest.approx(1700.0)

    def test_local_cluster_bounded(self):
        local = local_cluster(nodes=5, disk_gb_per_node=250)
        assert local.max_nodes == 5
        assert local.storage_limit_gb(5) == pytest.approx(1250.0)


class TestCatalogValidation:
    def test_valid_catalog(self):
        validate_catalog([ec2_m1_large(), s3()])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            validate_catalog([s3(), s3()])

    def test_no_compute_rejected(self):
        with pytest.raises(ValueError):
            validate_catalog([s3()])

    def test_no_storage_rejected(self):
        compute_only = ec2_m1_large().replace(can_store=False, storage_gb_per_node=0)
        with pytest.raises(ValueError):
            validate_catalog([compute_only])


class TestReplace:
    def test_replace_returns_modified_copy(self):
        base = ec2_m1_large()
        spot = base.replace(is_spot=True, name="spot")
        assert spot.is_spot and not base.is_spot
        assert base.name == "ec2.m1.large"
