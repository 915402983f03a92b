"""Tests for the spot predictors beyond the paper's, and bidding strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.spot import SpotTrace
from repro.cloud.traces import aws_like_trace, constant_trace, electricity_like_trace
from repro.core import (
    Ar1Predictor,
    CurrentPricePredictor,
    EwmaPredictor,
    MarginBidder,
    QuantilePredictor,
    SeasonalNaivePredictor,
    WindowMaxPredictor,
    extended_predictor_suite,
    forecast_errors,
)


@pytest.fixture(scope="module")
def flat():
    return constant_trace(0.2, days=10)


@pytest.fixture(scope="module")
def diurnal():
    return electricity_like_trace(days=20, seed=3)


@pytest.fixture(scope="module")
def choppy():
    return aws_like_trace(days=20, seed=3)


class TestEwma:
    def test_flat_trace_recovers_price(self, flat):
        estimate = EwmaPredictor().estimate(flat, 100.0, 5)
        assert np.allclose(estimate, 0.2)

    def test_estimate_is_flat_over_horizon(self, choppy):
        estimate = EwmaPredictor().estimate(choppy, 100.0, 12)
        assert np.allclose(estimate, estimate[0])

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=1.5)

    def test_high_alpha_tracks_recent_price(self):
        prices = np.where(np.arange(48.0) < 40, 0.1, 1.0)  # late jump
        trace = SpotTrace(prices=prices, label="step")
        fast = EwmaPredictor(alpha=0.9).estimate(trace, 47.0, 1)[0]
        slow = EwmaPredictor(alpha=0.05).estimate(trace, 47.0, 1)[0]
        assert fast > slow


class TestSeasonalNaive:
    def test_diurnal_trace_beats_p0_on_long_horizon(self, diurnal):
        seasonal = forecast_errors(SeasonalNaivePredictor(), diurnal)
        p0 = forecast_errors(CurrentPricePredictor(), diurnal)
        assert seasonal["mae"] < p0["mae"]

    def test_flat_trace_is_exact(self, flat):
        errors = forecast_errors(SeasonalNaivePredictor(), flat)
        assert errors["mae"] == pytest.approx(0.0, abs=1e-12)

    def test_lookback_validation(self):
        with pytest.raises(ValueError):
            SeasonalNaivePredictor(lookback_days=0)

    def test_no_history_falls_back_to_current(self, diurnal):
        estimate = SeasonalNaivePredictor(5).estimate(diurnal, 0.0, 3)
        assert np.allclose(estimate, diurnal.price_at(0.0))


class TestAr1:
    def test_flat_trace_recovers_price(self, flat):
        estimate = Ar1Predictor().estimate(flat, 100.0, 8)
        assert np.allclose(estimate, 0.2, atol=1e-9)

    def test_forecast_reverts_toward_mean(self, choppy):
        # After a spike, long-horizon forecasts should relax downward
        # toward the long-run mean, not persist the spike.
        rng = np.random.default_rng(0)
        prices = 0.2 + 0.01 * rng.standard_normal(120)
        prices[-1] = 1.0  # spike now
        trace = SpotTrace(prices=np.abs(prices), label="spike")
        estimate = Ar1Predictor().estimate(trace, 119.0, 24)
        assert estimate[-1] < estimate[0]
        assert estimate[-1] < 0.6

    def test_estimates_never_negative(self, choppy):
        estimate = Ar1Predictor().estimate(choppy, 200.0, 48)
        assert np.all(estimate >= 0.0)

    def test_history_validation(self):
        with pytest.raises(ValueError):
            Ar1Predictor(history_hours=4)


class TestQuantile:
    def test_full_quantile_matches_window_max(self, diurnal):
        q100 = QuantilePredictor(window_days=5, quantile=1.0)
        wmax = WindowMaxPredictor(window_days=5)
        now = 24.0 * 7
        assert np.array_equal(
            q100.estimate(diurnal, now, 24), wmax.estimate(diurnal, now, 24)
        )

    def test_lower_quantile_gives_lower_estimates(self, choppy):
        now = 24.0 * 7
        q50 = QuantilePredictor(5, 0.5).estimate(choppy, now, 24)
        q100 = QuantilePredictor(5, 1.0).estimate(choppy, now, 24)
        assert np.all(q50 <= q100 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantilePredictor(0, 0.5)
        with pytest.raises(ValueError):
            QuantilePredictor(5, 0.0)


def same_hour_reference(trace, now, horizon, days, reduce):
    """Each future hour reduced over the same hour on the last ``days``
    days, one ``price_at`` per sample; no history -> the current price."""
    estimates = []
    for h in range(horizon):
        samples = [
            trace.price_at(now + h - 24.0 * day)
            for day in range(1, days + 1)
            if now + h - 24.0 * day >= trace.start_hour
        ]
        estimates.append(reduce(samples) if samples else trace.price_at(now))
    return np.asarray(estimates)


class TestSameHourWindow:
    @given(
        prices=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=120),
        start=st.sampled_from([0.0, 0.5, 7.0, 30.25]),
        now=st.one_of(st.integers(-30, 200).map(float), st.floats(-30.0, 200.0)),
        horizon=st.integers(1, 30),
        days=st.integers(1, 14),
        quantile=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_predictors_match_per_hour_reference(
        self, prices, start, now, horizon, days, quantile
    ):
        # ``now`` spans hours before the first full day and past the end.
        trace = SpotTrace(np.asarray(prices), start_hour=start)
        cases = [
            (WindowMaxPredictor(days), max),
            (SeasonalNaivePredictor(days), lambda xs: float(np.mean(xs))),
            (QuantilePredictor(days, quantile),
             lambda xs: float(np.quantile(xs, quantile))),
        ]
        for predictor, reduce in cases:
            assert np.array_equal(
                predictor.estimate(trace, now, horizon),
                same_hour_reference(trace, now, horizon, days, reduce),
            ), predictor.name


class TestMarginBidder:
    def test_estimates_pass_through(self, diurnal):
        inner = CurrentPricePredictor()
        wrapped = MarginBidder(inner, margin=0.5)
        now = 100.0
        assert np.allclose(
            wrapped.estimate(diurnal, now, 6), inner.estimate(diurnal, now, 6)
        )

    def test_bid_gains_margin(self, diurnal):
        inner = CurrentPricePredictor()
        wrapped = MarginBidder(inner, margin=0.5)
        now = 100.0
        assert wrapped.bid(diurnal, now) == pytest.approx(
            inner.bid(diurnal, now) * 1.5
        )

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            MarginBidder(CurrentPricePredictor(), margin=-0.1)

    def test_name_composition(self):
        wrapped = MarginBidder(CurrentPricePredictor(), margin=0.2)
        assert wrapped.name == "p0+20%"


class TestForecastErrors:
    def test_oracle_has_zero_error(self, choppy):
        from repro.core import OptimalPredictor

        errors = forecast_errors(OptimalPredictor(), choppy)
        assert errors["mae"] == pytest.approx(0.0, abs=1e-12)
        assert errors["rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_rmse_at_least_mae(self, choppy):
        for predictor in extended_predictor_suite():
            errors = forecast_errors(predictor, choppy)
            assert errors["rmse"] >= errors["mae"] - 1e-12

    def test_too_short_trace_rejected(self):
        trace = constant_trace(0.2, days=1)
        with pytest.raises(ValueError, match="too short"):
            forecast_errors(CurrentPricePredictor(), trace, horizon_hours=48)

    def test_suite_names_unique(self):
        names = [p.name for p in extended_predictor_suite()]
        assert len(set(names)) == len(names)
