"""Fine-grained internal cost accounting.

The paper instrumented its prototype "to account for all operations over
cloud resources ... because it enabled us to track the per experiment cost
and at a much finer granularity" than Amazon's billing (Section 6.1).
:class:`CostLedger` is that instrument: every node-hour, GB-hour, request
batch and transferred GB lands here as a line item, and the figure benches
aggregate the ledger into the paper's stacked-bar categories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CostCategory(enum.Enum):
    COMPUTE = "compute"
    STORAGE = "storage"
    TRANSFER = "transfer"
    REQUESTS = "requests"


@dataclass(frozen=True)
class LedgerEntry:
    """One billable line item."""

    hour: float
    service: str
    category: CostCategory
    detail: str
    quantity: float
    unit: str
    unit_price: float

    @property
    def amount(self) -> float:
        return self.quantity * self.unit_price


class CostLedger:
    """Append-only collection of :class:`LedgerEntry` with aggregations."""

    def __init__(self) -> None:
        self._entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def add(
        self,
        hour: float,
        service: str,
        category: CostCategory,
        detail: str,
        quantity: float,
        unit: str,
        unit_price: float,
    ) -> LedgerEntry:
        if quantity < 0:
            raise ValueError(f"negative quantity for {detail!r}: {quantity}")
        if unit_price < 0:
            raise ValueError(f"negative unit price for {detail!r}: {unit_price}")
        entry = LedgerEntry(hour, service, category, detail, quantity, unit, unit_price)
        self._entries.append(entry)
        return entry

    # -- aggregation ----------------------------------------------------------

    def total(self) -> float:
        return sum(e.amount for e in self._entries)

    # -- paper-figure views ----------------------------------------------------

    def figure5_breakdown(self) -> dict[str, float]:
        """Aggregate into the stacked categories of the paper's Fig. 5:
        network transfer, computation/EC2, storage/S3, storage/EC2."""
        breakdown = {
            "network transfer": 0.0,
            "computation/EC2": 0.0,
            "storage/S3": 0.0,
            "storage/EC2": 0.0,
        }
        for entry in self._entries:
            is_s3 = "s3" in entry.service.lower()
            if entry.category is CostCategory.TRANSFER:
                breakdown["network transfer"] += entry.amount
            elif entry.category is CostCategory.COMPUTE:
                breakdown["computation/EC2"] += entry.amount
            elif is_s3:
                breakdown["storage/S3"] += entry.amount  # storage + requests
            else:
                breakdown["storage/EC2"] += entry.amount
        return breakdown

