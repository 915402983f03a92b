"""The full July-2011 EC2 price book: all eleven instance types and
reserved-instance offers.

The paper motivates Conductor with exactly this breadth: "for its EC2
service alone, Amazon offers eleven different types of VM instances"
(Sections 1 and 2.1).  :mod:`repro.cloud.catalog` carries the three
types the evaluation measures; this module completes the menu so the
planner can be pointed at the real 2011 decision space.

Measured throughputs for unmeasured types are projected from the ECU
rating through the *measured* efficiency curve of Fig. 1 (m1.large
4 ECU -> 0.44 GB/h at 100% efficiency; m1.xlarge 8 ECU -> 96.6%;
c1.xlarge 20 ECU -> 56.8%), interpolated piecewise-linearly and
extrapolated conservatively — precisely the correction Fig. 1 argues a
planner must apply to vendor-specified ratings.

Prices are US$ (us-east, Linux, July 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .catalog import CHUNK_MB, KMEANS_THROUGHPUT_GB_H, TRANSFER_OUT_COST
from .services import ServiceDescription

#: Fig. 1 efficiency anchors: (ECU, measured/projected throughput ratio).
_EFFICIENCY_CURVE = [(1.0, 1.0), (4.0, 1.0), (8.0, 0.9659), (20.0, 0.5682)]
#: Beyond the last measured point the curve stays flat (conservative).
_EFFICIENCY_FLOOR = 0.5682

#: GB/h per ECU implied by the m1.large anchor (0.44 GB/h at 4 ECU).
_RATE_PER_ECU = KMEANS_THROUGHPUT_GB_H / 4.0


def ecu_efficiency(ecu: float) -> float:
    """Measured/projected throughput ratio at a given ECU rating."""
    if ecu <= _EFFICIENCY_CURVE[0][0]:
        return _EFFICIENCY_CURVE[0][1]
    for (x0, y0), (x1, y1) in zip(_EFFICIENCY_CURVE, _EFFICIENCY_CURVE[1:]):
        if ecu <= x1:
            frac = (ecu - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    return _EFFICIENCY_FLOOR


def projected_throughput(ecu: float) -> float:
    """Naive vendor-sheet projection (linear in ECU, Fig. 1's dashed line)."""
    return _RATE_PER_ECU * ecu


def measured_throughput(ecu: float) -> float:
    """Fig.-1-corrected throughput: projection times the efficiency curve."""
    return projected_throughput(ecu) * ecu_efficiency(ecu)


@dataclass(frozen=True)
class InstanceSpec:
    """One row of the 2011 EC2 price sheet."""

    name: str
    ecu: float
    price_per_hour: float
    ram_gb: float
    instance_storage_gb: float
    #: Explicit measured rate for the types the paper benchmarked;
    #: ``None`` means "project through the efficiency curve".
    measured_gb_per_hour: float | None = None
    internal_bw_mb_s: float = 50.0

    def throughput(self) -> float:
        if self.measured_gb_per_hour is not None:
            return self.measured_gb_per_hour
        return measured_throughput(self.ecu)

    def to_service(self) -> ServiceDescription:
        return ServiceDescription(
            name=f"ec2.{self.name}",
            provider="aws",
            can_compute=True,
            can_store=self.instance_storage_gb > 0,
            ecu_per_node=self.ecu,
            throughput_gb_per_hour=self.throughput(),
            price_per_node_hour=self.price_per_hour,
            billing_hours=1.0,
            storage_gb_per_node=self.instance_storage_gb,
            avg_op_mb=CHUNK_MB,
            transfer_out_cost_gb=TRANSFER_OUT_COST,
            internal_bw_mb_s=self.internal_bw_mb_s,
        )


#: The eleven types of mid-2011 (us-east, Linux, on-demand).  t1.micro's
#: ECU is a burst rating; its sustained rate is far lower, so it carries
#: an explicit measured value.
INSTANCE_SPECS: tuple[InstanceSpec, ...] = (
    InstanceSpec("t1.micro", 2.0, 0.02, 0.613, 0.0,
                 measured_gb_per_hour=0.035, internal_bw_mb_s=10.0),
    InstanceSpec("m1.small", 1.0, 0.085, 1.7, 160.0, internal_bw_mb_s=25.0),
    InstanceSpec("m1.large", 4.0, 0.34, 7.5, 850.0,
                 measured_gb_per_hour=KMEANS_THROUGHPUT_GB_H),
    InstanceSpec("m1.xlarge", 8.0, 0.68, 15.0, 1690.0,
                 measured_gb_per_hour=0.85, internal_bw_mb_s=65.0),
    InstanceSpec("m2.xlarge", 6.5, 0.50, 17.1, 420.0, internal_bw_mb_s=55.0),
    InstanceSpec("m2.2xlarge", 13.0, 1.00, 34.2, 850.0, internal_bw_mb_s=65.0),
    InstanceSpec("m2.4xlarge", 26.0, 2.00, 68.4, 1690.0, internal_bw_mb_s=80.0),
    InstanceSpec("c1.medium", 5.0, 0.17, 1.7, 350.0, internal_bw_mb_s=40.0),
    InstanceSpec("c1.xlarge", 20.0, 0.68, 7.0, 1690.0,
                 measured_gb_per_hour=1.25, internal_bw_mb_s=65.0),
    InstanceSpec("cc1.4xlarge", 33.5, 1.60, 23.0, 1690.0,
                 internal_bw_mb_s=120.0),
    InstanceSpec("cg1.4xlarge", 33.5, 2.10, 22.0, 1690.0,
                 internal_bw_mb_s=120.0),
)


@lru_cache(maxsize=1)
def _full_instance_catalog() -> tuple[ServiceDescription, ...]:
    return tuple(spec.to_service() for spec in INSTANCE_SPECS)


def full_instance_catalog() -> list[ServiceDescription]:
    """Every 2011 EC2 instance type as a planner-ready service.

    Memoized: the descriptions are shared, treated-as-immutable objects
    (sweeps copy via ``.replace()``); the returned list is fresh.
    """
    return list(_full_instance_catalog())


def spec_by_name(name: str) -> InstanceSpec:
    for spec in INSTANCE_SPECS:
        if spec.name == name or f"ec2.{spec.name}" == name:
            return spec
    raise KeyError(
        f"no 2011 instance type {name!r}; "
        f"known: {[s.name for s in INSTANCE_SPECS]}"
    )


# ---------------------------------------------------------------------------
# Reserved instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReservedOffer:
    """A 2011-style reserved-instance offer: upfront fee + discounted rate.

    The planner sees a reserved instance as an on-demand service with an
    *amortized* hourly price that depends on utilization: the upfront
    fee spreads over the hours actually used.
    """

    instance: str
    upfront_usd: float
    hourly_usd: float
    term_hours: float = 365.0 * 24.0  # one-year term

    def __post_init__(self) -> None:
        if self.upfront_usd < 0 or self.hourly_usd < 0 or self.term_hours <= 0:
            raise ValueError("offer terms must be non-negative (term > 0)")

    def amortized_rate(self, utilization: float) -> float:
        """Effective $/hour when running ``utilization`` of the term."""
        if not 0.0 < utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        used_hours = self.term_hours * utilization
        return self.hourly_usd + self.upfront_usd / used_hours

    def break_even_utilization(self, on_demand_hourly: float) -> float:
        """Utilization above which the reservation beats on-demand.

        Returns ``inf`` when the discounted rate alone already exceeds
        the on-demand price (the reservation can never pay off).
        """
        if self.hourly_usd >= on_demand_hourly:
            return math.inf
        hours = self.upfront_usd / (on_demand_hourly - self.hourly_usd)
        return hours / self.term_hours

    def to_service(self, utilization: float) -> ServiceDescription:
        """Planner-ready description at an assumed utilization."""
        base = spec_by_name(self.instance).to_service()
        return base.replace(
            name=f"{base.name}.reserved",
            price_per_node_hour=self.amortized_rate(utilization),
        )


#: July-2011 one-year reserved offer for the paper's workhorse type.
RESERVED_M1_LARGE = ReservedOffer(
    instance="m1.large", upfront_usd=910.0, hourly_usd=0.12
)
