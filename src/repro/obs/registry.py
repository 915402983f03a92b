"""Telemetry registry: counters, gauges, exact-percentile latency series
and span timers, with one snapshot format.

This is the generalization of the service-level metrics: the primitives
here carry their own locks so they can be mutated from pool callback
threads, deploy callers and the main loop concurrently, and every
consumer (``serve``, ``loadgen``, ``fleet``, ``repro trace summarize``)
reports through the same ``snapshot()`` shape::

    {"counters": {name: int}, "gauges": {name: float},
     "series": {name: {"count": ..., "mean_s": ..., "p50_s": ...,
                       "p90_s": ..., "p99_s": ..., "max_s": ...}}}

Latencies are kept raw (a process handles thousands, not millions, of
samples) so percentiles are exact.  The module deliberately imports
nothing from the rest of the package: the service layer depends on it,
so it must sit below every other layer.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager


def percentile(values: list[float], p: float) -> float:
    """Exact percentile (nearest-rank with linear interpolation).

    Defined for every sample size: an empty sample yields ``0.0`` and a
    singleton yields its only element, so dashboards polling a series
    that has not recorded anything yet (or exactly one thing) get a
    number, never an exception.  Only an out-of-range ``p`` raises —
    consistently, regardless of sample size.
    """
    return _percentile_sorted(sorted(values), p)


def _percentile_sorted(data: list[float], p: float) -> float:
    """Percentile over already-sorted data (lets callers sort once)."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    rank = (p / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Counter:
    """A monotonically increasing integer, safe to bump from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins float, safe to set from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencySeries:
    """A named collection of latency samples, in seconds.

    Both the record path and every read path (``count``, ``mean``,
    ``p``, ``summary``, ``samples``) take the internal lock, so a pool
    callback recording a sample can race a dashboard poll without either
    seeing a half-updated list.
    """

    def __init__(self, samples: list[float] | None = None) -> None:
        self._lock = threading.Lock()
        self._samples: list[float] = list(samples) if samples else []

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    @property
    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            return sum(self._samples) / len(self._samples)

    def summary(self) -> dict[str, float]:
        with self._lock:
            data = sorted(self._samples)
        mean = sum(data) / len(data) if data else 0.0
        return {
            "count": float(len(data)),
            "mean_s": mean,
            "p50_s": _percentile_sorted(data, 50),
            "p90_s": _percentile_sorted(data, 90),
            "p95_s": _percentile_sorted(data, 95),
            "p99_s": _percentile_sorted(data, 99),
            "max_s": data[-1] if data else 0.0,
        }


class MetricsRegistry:
    """A namespace of counters, gauges and latency series.

    ``counter``/``gauge``/``series`` are get-or-create and stable: the
    first caller allocates the instrument, every later caller (from any
    thread) gets the same object back.  ``span`` times a block of code
    and records the wall-clock duration into the named series — the
    instrument the solve/compile/replan hot paths use.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._series: dict[str, LatencySeries] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def series(self, name: str) -> LatencySeries:
        with self._lock:
            return self._series.setdefault(name, LatencySeries())

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.series(name).record(time.perf_counter() - start)

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            series = dict(self._series)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "series": {name: s.summary() for name, s in sorted(series.items())},
        }

    def describe(self) -> str:
        """Human-readable block, one line per instrument."""
        snap = self.snapshot()
        lines: list[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"{name + ':':28s} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name + ':':28s} {value:.3f}")
        for name, summary in snap["series"].items():
            lines.append(
                f"{name + ':':28s} n={summary['count']:.0f}  "
                f"mean {summary['mean_s'] * 1e3:7.1f} ms   "
                f"p50 {summary['p50_s'] * 1e3:7.1f} ms   "
                f"p99 {summary['p99_s'] * 1e3:7.1f} ms"
            )
        return "\n".join(lines) if lines else "(no instruments)"
