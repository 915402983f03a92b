"""Spot price predictors and bidding (paper Sections 4.7 and 6.5).

A predictor produces, at planning time, the estimated prices
``E[b(i,t)]`` that enter the plan's objective (eq. 6), plus the bid to
submit while holding instances.  The paper evaluates:

- ``-opt``: an oracle that knows future prices exactly (upper bound on
  achievable savings);
- ``-p0``: "the predictor assumes the current spot price will not
  change";
- ``-pX``: "uses the past X days of spot pricing history" — we estimate
  each future hour by the *maximum* price observed at the same hour of
  day over the window, the conservative bid basis the paper describes
  ("the maximum spot price of the last n hours as a basis to compute a
  bid").

On the diurnal electricity-style trace, the window predictor tracks the
daily cycle; on the patternless AWS trace, spikes inside the window
inflate estimates and make the planner "wait for a better spot price ...
and end up waiting in vain" (Section 6.5).

The paper keeps prediction simple and notes that "more elaborate
methods [1] ... could also be leveraged"; the predictor ablation bench
quantifies what these buy on each trace family:

- :class:`EwmaPredictor` — exponentially weighted moving average;
- :class:`SeasonalNaivePredictor` — same-hour-of-day mean (the right
  inductive bias for the diurnal electricity-style trace);
- :class:`Ar1Predictor` — least-squares AR(1), mean-reverting forecasts
  (the right bias for the AWS-style mean-reverting jump trace);
- :class:`QuantilePredictor` — same-hour-of-day empirical quantile (a
  smoother cousin of the paper's window-max);
- :class:`MarginBidder` — wraps any predictor, bidding a safety margin
  above its estimate (cap at on-demand is applied by the controller).
"""

from __future__ import annotations

import abc

import numpy as np

from ..cloud.spot import SpotTrace


class SpotPredictor(abc.ABC):
    """Interface: estimate future hourly prices and derive a bid.

    ``estimate`` and ``bid`` are pure functions of ``(trace, now_hour,
    horizon_hours)``: no hidden state, no randomness, and the caller may
    keep the returned array.  The fleet relies on it: it asks each
    question once per hour and hands the one (read-only) answer to every
    deployment that asks it (:class:`repro.fleet.replanner.SharedPredictor`).
    """

    #: Label used in result tables (matches the paper's scenario names).
    name: str = "predictor"

    @abc.abstractmethod
    def estimate(self, trace: SpotTrace, now_hour: float, horizon_hours: int) -> np.ndarray:
        """Estimated price per future hour ``[now, now + horizon)``."""

    def bid(self, trace: SpotTrace, now_hour: float) -> float:
        """Bid to submit for the hour starting at ``now_hour``.

        Default: the estimate for the immediate hour.  Instances survive
        while the market stays at or below this.
        """
        return float(self.estimate(trace, now_hour, 1)[0])


class OptimalPredictor(SpotPredictor):
    """Oracle: returns the actual future prices (the ``-opt`` scenarios)."""

    name = "opt"

    def estimate(self, trace: SpotTrace, now_hour: float, horizon_hours: int) -> np.ndarray:
        return np.asarray(
            [trace.price_at(now_hour + h) for h in range(horizon_hours)]
        )


class CurrentPricePredictor(SpotPredictor):
    """``-p0``: the current price persists forever."""

    name = "p0"

    def estimate(self, trace: SpotTrace, now_hour: float, horizon_hours: int) -> np.ndarray:
        return np.full(horizon_hours, trace.price_at(now_hour))


def _same_hour_window(
    trace: SpotTrace, now_hour: float, horizon_hours: int, days: int
) -> tuple[np.ndarray, np.ndarray]:
    """The prices at the same hour of day on each of the last ``days`` days.

    Row ``h`` holds, for future hour ``now_hour + h``, the price one day
    back, two days back, and so on.  A sample counts only if its hour is
    at or after ``trace.start_hour``, so a row's counted samples are its
    first ``counts[h]`` entries.  Reads past the end of the trace clamp
    to the last price, as :meth:`SpotTrace.price_at` does.
    """
    back = (now_hour + np.arange(horizon_hours))[:, None] - 24.0 * np.arange(1, days + 1)
    counts = np.count_nonzero(back >= trace.start_hour, axis=1)
    index = np.clip(np.floor(back - trace.start_hour), 0, len(trace.prices) - 1)
    return trace.prices[index.astype(np.intp)], counts


class _SameHourPredictor(SpotPredictor):
    """Reduce each future hour's same-hour window to one estimate; hours
    with no history fall back to the current price."""

    days: int

    @abc.abstractmethod
    def _reduce(self, samples: np.ndarray) -> np.ndarray:
        """One estimate per row of ``samples``."""

    def estimate(self, trace: SpotTrace, now_hour: float, horizon_hours: int) -> np.ndarray:
        samples, counts = _same_hour_window(trace, now_hour, horizon_hours, self.days)
        estimates = np.full(horizon_hours, trace.price_at(now_hour))
        # Rows with the same count reduce together, over exactly their
        # counted samples, so no padding enters a sum.
        for count in set(counts.tolist()) - {0}:
            rows = counts == count
            estimates[rows] = self._reduce(samples[rows, :count])
        return estimates


class WindowMaxPredictor(_SameHourPredictor):
    """``-pX``: conservative same-hour-of-day maximum over the last X days."""

    def __init__(self, window_days: int) -> None:
        if window_days < 1:
            raise ValueError("window_days must be >= 1")
        self.window_days = self.days = window_days
        self.name = f"p{window_days}"

    def _reduce(self, samples: np.ndarray) -> np.ndarray:
        return samples.max(axis=1)


class SeasonalNaivePredictor(_SameHourPredictor):
    """Same-hour-of-day mean over the last ``lookback_days`` days: the
    minimal model that captures a diurnal cycle."""

    def __init__(self, lookback_days: int = 3) -> None:
        if lookback_days < 1:
            raise ValueError("lookback_days must be >= 1")
        self.lookback_days = self.days = lookback_days
        self.name = f"seasonal{lookback_days}"

    def _reduce(self, samples: np.ndarray) -> np.ndarray:
        return samples.mean(axis=1)


class QuantilePredictor(_SameHourPredictor):
    """Same-hour-of-day empirical quantile over the last ``window_days``.

    ``quantile=1.0`` is the paper's window-max; lower quantiles trade
    occasional under-bidding for tighter estimates.
    """

    def __init__(self, window_days: int = 5, quantile: float = 0.8) -> None:
        if window_days < 1:
            raise ValueError("window_days must be >= 1")
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        self.window_days = self.days = window_days
        self.quantile = quantile
        self.name = f"q{int(quantile * 100)}w{window_days}"

    def _reduce(self, samples: np.ndarray) -> np.ndarray:
        return np.quantile(samples, self.quantile, axis=1)


def _history(trace: SpotTrace, now_hour: float, hours: int) -> np.ndarray:
    """The last ``hours`` hourly prices ending at ``now_hour`` (inclusive)."""
    samples = [
        trace.price_at(now_hour - h)
        for h in range(hours - 1, -1, -1)
        if now_hour - h >= trace.start_hour
    ]
    return np.asarray(samples, dtype=float)


class EwmaPredictor(SpotPredictor):
    """Exponentially weighted moving average, flat over the horizon.

    ``alpha`` is the standard smoothing weight on the newest sample;
    higher alpha tracks spikes faster but forgets the base level.
    """

    def __init__(self, alpha: float = 0.3, history_hours: int = 72) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if history_hours < 1:
            raise ValueError("history_hours must be >= 1")
        self.alpha = alpha
        self.history_hours = history_hours
        self.name = f"ewma{alpha:g}"

    def estimate(
        self, trace: SpotTrace, now_hour: float, horizon_hours: int
    ) -> np.ndarray:
        history = _history(trace, now_hour, self.history_hours)
        level = history[0]
        for price in history[1:]:
            level = self.alpha * price + (1.0 - self.alpha) * level
        return np.full(horizon_hours, float(level))


class Ar1Predictor(SpotPredictor):
    """Least-squares AR(1): ``x[t+1] = c + phi * x[t] + eps``.

    Mean-reverting forecasts decay geometrically from the current price
    toward the fitted long-run mean — the correct structure for the
    AWS-style mean-reverting jump traces.  Degenerate fits (constant
    history, |phi| pinned) fall back to the current price.
    """

    def __init__(self, history_hours: int = 120) -> None:
        if history_hours < 8:
            raise ValueError("history_hours must be >= 8 to fit anything")
        self.history_hours = history_hours
        self.name = "ar1"

    def estimate(
        self, trace: SpotTrace, now_hour: float, horizon_hours: int
    ) -> np.ndarray:
        history = _history(trace, now_hour, self.history_hours)
        current = float(history[-1])
        if len(history) < 8 or float(np.std(history[:-1])) < 1e-12:
            return np.full(horizon_hours, current)
        x, y = history[:-1], history[1:]
        phi, intercept = np.polyfit(x, y, 1)
        phi = float(np.clip(phi, -0.999, 0.999))
        estimates = np.empty(horizon_hours)
        level = current
        for h in range(horizon_hours):
            level = intercept + phi * level
            estimates[h] = max(0.0, float(level))
        return estimates


class MarginBidder(SpotPredictor):
    """Bid ``(1 + margin)`` times the wrapped predictor's estimate.

    Price *estimates* (what the LP optimizes against) pass through
    unchanged; only the standing *bid* gains headroom, reducing out-bid
    interruptions at the cost of occasionally paying more per hour.
    The controller still caps every bid at the on-demand price.
    """

    def __init__(self, inner: SpotPredictor, margin: float = 0.2) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.inner = inner
        self.margin = margin
        self.name = f"{inner.name}+{int(margin * 100)}%"

    def estimate(
        self, trace: SpotTrace, now_hour: float, horizon_hours: int
    ) -> np.ndarray:
        return self.inner.estimate(trace, now_hour, horizon_hours)

    def bid(self, trace: SpotTrace, now_hour: float) -> float:
        return self.inner.bid(trace, now_hour) * (1.0 + self.margin)


def predictor_suite(windows: tuple[int, ...] = (5, 13)) -> list[SpotPredictor]:
    """The paper's Fig. 14 predictor line-up: opt, p0, p5, p13."""
    suite: list[SpotPredictor] = [OptimalPredictor(), CurrentPricePredictor()]
    suite.extend(WindowMaxPredictor(days) for days in windows)
    return suite


def extended_predictor_suite() -> list[SpotPredictor]:
    """The ablation line-up: every extended predictor at defaults."""
    return [
        EwmaPredictor(),
        SeasonalNaivePredictor(),
        Ar1Predictor(),
        QuantilePredictor(),
    ]


def forecast_errors(
    predictor: SpotPredictor,
    trace: SpotTrace,
    horizon_hours: int = 24,
    start_hour: float = 48.0,
    stride_hours: float = 12.0,
) -> dict[str, float]:
    """Backtest a predictor over a trace: MAE and RMSE per forecast.

    Walks the trace in ``stride_hours`` steps, forecasting the next
    ``horizon_hours`` each time and comparing against the realized
    prices.  Used by tests and the predictor ablation bench.
    """
    errors: list[float] = []
    now = start_hour
    while now + horizon_hours <= trace.hours:
        estimated = predictor.estimate(trace, now, horizon_hours)
        realized = np.asarray(
            [trace.price_at(now + h) for h in range(horizon_hours)]
        )
        errors.extend(np.abs(estimated - realized).tolist())
        now += stride_hours
    if not errors:
        raise ValueError("trace too short for the requested backtest")
    errs = np.asarray(errors)
    return {
        "mae": float(np.mean(errs)),
        "rmse": float(np.sqrt(np.mean(errs**2))),
        "max_abs": float(np.max(errs)),
    }
