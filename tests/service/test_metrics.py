"""Service metrics: percentiles must be defined for every sample size."""

import pytest

from repro.obs.registry import LatencySeries, percentile
from repro.service import ServiceMetrics


class TestPercentile:
    def test_empty_sample_is_defined(self):
        for p in (0.0, 50.0, 99.0, 100.0):
            assert percentile([], p) == 0.0

    def test_singleton_sample_is_its_element(self):
        for p in (0.0, 50.0, 99.0, 100.0):
            assert percentile([3.5], p) == 3.5

    def test_out_of_range_p_raises_for_every_sample_size(self):
        # The check applies uniformly — an empty sample must not bypass
        # the validation the two-element sample enforces.
        for sample in ([], [1.0], [1.0, 2.0]):
            with pytest.raises(ValueError):
                percentile(sample, -1.0)
            with pytest.raises(ValueError):
                percentile(sample, 100.5)

    def test_interpolates_between_ranks(self):
        data = [0.0, 10.0]
        assert percentile(data, 50.0) == 5.0
        assert percentile(data, 0.0) == 0.0
        assert percentile(data, 100.0) == 10.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0


class TestLatencySeries:
    def test_summary_defined_when_empty(self):
        summary = LatencySeries().summary()
        assert summary["count"] == 0.0
        assert summary["p50_s"] == 0.0
        assert summary["p99_s"] == 0.0
        assert summary["max_s"] == 0.0

    def test_summary_defined_for_singleton(self):
        series = LatencySeries()
        series.record(0.25)
        summary = series.summary()
        assert summary["count"] == 1.0
        assert summary["mean_s"] == 0.25
        assert summary["p50_s"] == 0.25
        assert summary["p99_s"] == 0.25
        assert summary["max_s"] == 0.25


class TestServiceMetrics:
    def test_describe_works_before_any_request(self):
        # A freshly started service's dashboard poll must not raise.
        text = ServiceMetrics().describe()
        assert "requests:" in text
        assert "p99" in text

    def test_describe_after_single_completion(self):
        metrics = ServiceMetrics()
        metrics.record_submitted()
        metrics.record_completion("acme", cached=False, solve_s=0.5, total_s=0.6)
        snap = metrics.snapshot()
        assert snap["completed"] == 1
        assert snap["solve_latency"]["p99_s"] == 0.5
