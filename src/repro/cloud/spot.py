"""Spot price traces (paper Sections 4.7 and 6.5).

A :class:`SpotTrace` is an hourly price series for one instance type.
EC2 spot semantics as of 2011: an instance runs while the customer's bid
is at or above the market price, each instance-hour is charged **at the
market price** (not the bid), and the provider terminates the instance
once the market price rises above the bid ("out-bid").  The executor
applies that rule (``FluidExecutor._allocate_nodes``); Conductor plugs
estimated prices ``E[b(i,t)]`` into the plan's objective (eq. 6) and
reacts to out-bid terminations by re-planning.
"""

from __future__ import annotations

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
