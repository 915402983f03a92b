"""Tests for the instance micro-benchmark."""

import pytest

from repro.workloads import run_instance_benchmark


class TestInstanceBenchmark:
    def test_three_paper_instances(self):
        measurements = run_instance_benchmark()
        assert [m.instance for m in measurements] == [
            "ec2.m1.large",
            "ec2.m1.xlarge",
            "ec2.c1.xlarge",
        ]

    def test_projection_anchored_at_smallest(self):
        measurements = run_instance_benchmark()
        anchor = measurements[0]
        assert anchor.projected_gb_per_hour == pytest.approx(
            anchor.measured_gb_per_hour
        )

    def test_divergence_grows_with_ecu(self):
        measurements = run_instance_benchmark()
        divergences = [m.divergence for m in measurements]
        assert divergences == sorted(divergences)

    def test_no_rated_instances_rejected(self):
        with pytest.raises(ValueError):
            run_instance_benchmark(services=[])
