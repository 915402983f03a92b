"""Spot market mechanics (paper Sections 4.7 and 6.5).

A :class:`SpotTrace` is an hourly price series for one instance type.  The
:class:`SpotMarket` implements EC2 spot semantics as of 2011:

- A customer submits a *bid* — the maximum price they will pay.
- While the market price is at or below the bid, instances run and each
  instance-hour is charged **at the market price** (not the bid).
- When the market price rises above the bid, instances are terminated by
  the provider ("out-bid") and the partial hour is not charged.

Conductor plugs estimated prices ``E[b(i,t)]`` into the plan's objective
(eq. 6) and reacts to out-bid terminations by re-planning.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class SpotTrace:
    """An hourly spot price history for one instance type."""

    prices: np.ndarray  # $/instance-hour, one entry per hour
    start_hour: float = 0.0
    label: str = "spot"

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.ndim != 1 or len(self.prices) == 0:
            raise ValueError("a spot trace needs a 1-D, non-empty price array")
        if np.any(self.prices < 0):
            raise ValueError("spot prices must be non-negative")

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def hours(self) -> float:
        return float(len(self.prices))

    def price_at(self, hour: float) -> float:
        """Market price for the hour containing absolute time ``hour``.

        Reads past the end of the trace clamp to the final price, so a job
        started near the trace boundary still gets well-defined prices.
        """
        index = int(math.floor(hour - self.start_hour))
        index = min(max(index, 0), len(self.prices) - 1)
        return float(self.prices[index])

    def window(self, end_hour: float, duration_hours: float) -> np.ndarray:
        """Prices for ``[end_hour - duration, end_hour)`` (history lookups)."""
        end = int(math.floor(end_hour - self.start_hour))
        start = max(0, end - int(duration_hours))
        end = max(start, min(end, len(self.prices)))
        return self.prices[start:end]

    def slice_from(self, hour: float) -> "SpotTrace":
        """The remaining trace starting at ``hour`` (for re-planning)."""
        index = int(math.floor(hour - self.start_hour))
        index = min(max(index, 0), len(self.prices) - 1)
        return SpotTrace(self.prices[index:], start_hour=hour, label=self.label)

    # -- persistence ---------------------------------------------------------

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["hour", "price"])
            for i, price in enumerate(self.prices):
                writer.writerow([self.start_hour + i, f"{price:.6f}"])

    @classmethod
    def load_csv(cls, path: str, label: str = "spot") -> "SpotTrace":
        hours: list[float] = []
        prices: list[float] = []
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                hours.append(float(row["hour"]))
                prices.append(float(row["price"]))
        if not prices:
            raise ValueError(f"{path}: empty trace")
        return cls(np.asarray(prices), start_hour=hours[0], label=label)


@dataclass
class SpotChargeRecord:
    """One hour of spot market outcome for a bid."""

    hour: float
    market_price: float
    bid: float
    running: bool

    @property
    def charged(self) -> float:
        return self.market_price if self.running else 0.0


class SpotMarket:
    """Evaluates bids against a trace, hour by hour."""

    def __init__(self, trace: SpotTrace) -> None:
        self.trace = trace
        self.history: list[SpotChargeRecord] = []

    def evaluate(self, hour: float, bid: float) -> SpotChargeRecord:
        """Outcome of holding a bid during the hour starting at ``hour``."""
        price = self.trace.price_at(hour)
        record = SpotChargeRecord(
            hour=hour, market_price=price, bid=bid, running=bid >= price
        )
        self.history.append(record)
        return record

    def run_fixed_bid(
        self, start_hour: float, duration_hours: int, bid: float
    ) -> list[SpotChargeRecord]:
        """Evaluate a constant bid over a run of consecutive hours."""
        return [
            self.evaluate(start_hour + offset, bid)
            for offset in range(duration_hours)
        ]


def summarize_costs(costs: Sequence[float]) -> dict[str, float]:
    """Average/max/std summary used by the Fig. 14 bars."""
    data = np.asarray(list(costs), dtype=float)
    if data.size == 0:
        raise ValueError("no costs to summarize")
    return {
        "average": float(np.mean(data)),
        "maximum": float(np.max(data)),
        "stddev": float(np.std(data)),
    }
