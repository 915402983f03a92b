"""Tests for spot price traces and their generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    SpotTrace,
    aws_like_trace,
    constant_trace,
    electricity_like_trace,
    summarize_costs,
)
from repro.cloud.catalog import EC2_LARGE_PRICE


@pytest.fixture
def trace():
    return SpotTrace(np.array([0.10, 0.20, 0.30, 0.15]))


class TestSpotTrace:
    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            SpotTrace(np.array([]))

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            SpotTrace(np.array([0.1, -0.1]))

    def test_price_at_hour_boundaries(self, trace):
        assert trace.price_at(0.0) == pytest.approx(0.10)
        assert trace.price_at(0.99) == pytest.approx(0.10)
        assert trace.price_at(1.0) == pytest.approx(0.20)

    def test_price_clamps_past_ends(self, trace):
        assert trace.price_at(-5.0) == pytest.approx(0.10)
        assert trace.price_at(99.0) == pytest.approx(0.15)

    def test_start_hour_offset(self):
        shifted = SpotTrace(np.array([1.0, 2.0]), start_hour=10.0)
        assert shifted.price_at(10.5) == pytest.approx(1.0)
        assert shifted.price_at(11.5) == pytest.approx(2.0)


class TestSummaries:
    def test_summary_fields(self):
        summary = summarize_costs([1.0, 2.0, 3.0])
        assert summary["average"] == pytest.approx(2.0)
        assert summary["maximum"] == pytest.approx(3.0)
        assert summary["stddev"] == pytest.approx(np.std([1, 2, 3]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_costs([])


class TestGenerators:
    def test_lengths(self):
        assert len(aws_like_trace(days=7)) == 7 * 24
        assert len(electricity_like_trace(days=7)) == 7 * 24

    def test_deterministic_per_seed(self):
        a = aws_like_trace(days=5, seed=42)
        b = aws_like_trace(days=5, seed=42)
        assert np.array_equal(a.prices, b.prices)
        c = aws_like_trace(days=5, seed=43)
        assert not np.array_equal(a.prices, c.prices)

    def test_aws_trace_hugs_floor(self):
        trace = aws_like_trace(days=30, seed=1)
        median = float(np.median(trace.prices))
        assert 0.12 < median < 0.22  # flat floor near $0.16

    def test_electricity_trace_is_diurnal_aws_is_not(self):
        # The paper's core observation (Fig. 13): electricity prices have
        # a daily pattern usable for prediction; the AWS trace does not.
        el = electricity_like_trace(days=30, seed=1)
        aws = aws_like_trace(days=30, seed=1)

        def lag24_correlation(prices):
            return float(np.corrcoef(prices[:-24], prices[24:])[0, 1])

        assert lag24_correlation(el.prices) > 0.5
        assert abs(lag24_correlation(aws.prices)) < 0.25

    def test_electricity_bounds(self):
        el = electricity_like_trace(days=30, seed=2, low=0.1, high=0.5)
        assert el.prices.min() >= 0.1 - 1e-9
        assert el.prices.max() <= 0.5 + 1e-9

    def test_both_below_reasonable_multiple_of_on_demand(self):
        for trace in (aws_like_trace(days=20, seed=3), electricity_like_trace(days=20, seed=3)):
            assert trace.prices.max() <= 1.5 * EC2_LARGE_PRICE

    def test_constant_trace(self):
        trace = constant_trace(0.34, days=2)
        assert np.all(trace.prices == 0.34)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_generators_never_negative(self, seed):
        assert aws_like_trace(days=3, seed=seed).prices.min() >= 0
        assert electricity_like_trace(days=3, seed=seed).prices.min() >= 0
