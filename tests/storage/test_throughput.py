"""Tests for the Fig. 15 storage throughput experiment module."""

import pytest

from repro.storage.throughput import (
    measure_conductor,
    measure_hdfs,
    measure_s3,
    run_storage_throughput_experiment,
)


class TestIndividualMeasurements:
    def test_hdfs_near_paper_value(self):
        result = measure_hdfs(total_gb=4.0)
        assert result.throughput_mb_s == pytest.approx(21.0, rel=0.1)

    def test_conductor_quarter_slower_than_hdfs(self):
        hdfs = measure_hdfs(total_gb=4.0)
        conductor = measure_conductor(total_gb=4.0)
        ratio = conductor.throughput_mb_s / hdfs.throughput_mb_s
        assert 0.65 <= ratio <= 0.85

    def test_ssl_halves_s3_throughput(self):
        plain = measure_s3(total_gb=4.0, via_ssl=False)
        ssl = measure_s3(total_gb=4.0, via_ssl=True)
        assert ssl.throughput_mb_s < 0.6 * plain.throughput_mb_s

    def test_throughput_independent_of_volume(self):
        small = measure_hdfs(total_gb=2.0)
        large = measure_hdfs(total_gb=8.0)
        assert small.throughput_mb_s == pytest.approx(
            large.throughput_mb_s, rel=0.05
        )

    def test_replication_registered(self):
        # The conductor measurement acks at the primary but replicas land.
        result = measure_conductor(total_gb=1.0)
        assert result.elapsed_s > 0

    def test_labels(self):
        results = run_storage_throughput_experiment(total_gb=2.0)
        assert [r.option for r in results] == [
            "Conductor",
            "HDFS",
            "S3 (Hadoop)",
            "S3 (s3cmd)",
        ]

    def test_experiment_ordering_matches_paper(self):
        results = {r.option: r.throughput_mb_s
                   for r in run_storage_throughput_experiment(total_gb=4.0)}
        assert results["HDFS"] > results["Conductor"]
        assert results["Conductor"] > results["S3 (Hadoop)"]
        assert results["S3 (s3cmd)"] > results["S3 (Hadoop)"]
