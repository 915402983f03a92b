"""Cloud service descriptions.

The planner's view of the world (paper Section 4.2): each service is broken
into the resource types it provides — computation and/or storage, with
communication modeled implicitly as transfer costs and bandwidth limits.
One :class:`ServiceDescription` corresponds to one ``<resource>`` element in
the paper's XML format (Fig. 3); :mod:`repro.cloud.descriptions` converts
between the two.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from ..units import MB_PER_GB

#: Sentinel for "no capacity limit" (paper XML uses -1).
UNLIMITED = -1


class ResourceKind(enum.Enum):
    """The two resource types the abstraction layer separates (Section 5.1)."""

    COMPUTE = "compute"
    STORAGE = "storage"


@dataclass(frozen=True)
class ServiceDescription:
    """Price/performance description of one cloud service.

    Frozen: descriptions are shared process-wide through the memoized
    catalog constructors, so what-if sweeps must copy via
    :meth:`replace` instead of assigning fields.

    All prices are US$; rates follow the planner's GB/hours convention.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"ec2.m1.large"`` or ``"s3"``.
    provider:
        Grouping label (``"aws"``, ``"local"``); hybrid deployments model
        the customer's own cluster as just another provider (Section 6.3).
    can_compute / can_store:
        Which resource types the service offers.  EC2 offers both
        (resource overlap, Section 4.6): instances compute *and* expose
        virtual disks.
    ecu_per_node:
        Provider-specified compute rating (EC2 Compute Units); only used
        for the Fig. 1 specified-vs-measured comparison.
    throughput_gb_per_hour:
        Measured per-node processing rate for the calibration workload
        (paper: 0.44 GB/h for k-means on m1.large).  Workloads may scale
        this via their own calibration factor.
    price_per_node_hour:
        On-demand rental price; spot services override it per interval.
    billing_hours:
        Billing granularity — EC2 rounds allocations up to full hours,
        which is why one LP interval defaults to one hour.
    storage_gb_per_node:
        Virtual-disk capacity bundled with each running node (0 for pure
        compute; the planner couples stored GB to live nodes through it).
    storage_capacity_gb:
        Stand-alone storage capacity; ``UNLIMITED`` for S3, 0 for pure
        compute services.
    cost_tstore_gb_hour:
        Time-based storage price ($/GB/h, paper Fig. 3 ``cost_tstore``).
    cost_put / cost_get:
        Per-operation I/O prices ($/op, paper Fig. 3).
    avg_op_mb:
        Average MB moved per put/get operation; Conductor controls chunk
        size, so per-op costs translate to per-GB costs (Section 4.2).
    transfer_in_cost_gb / transfer_out_cost_gb:
        Provider charges for data crossing the service boundary.
    max_nodes:
        Allocation cap (``UNLIMITED`` for the public cloud, cluster size
        for local infrastructure).
    is_spot:
        Whether the node price comes from a spot market (Section 4.7).
    internal_bw_mb_s:
        Per-node NIC / service-side bandwidth used by the simulator.
    """

    name: str
    provider: str = "aws"
    can_compute: bool = False
    can_store: bool = False
    ecu_per_node: float = 0.0
    throughput_gb_per_hour: float = 0.0
    price_per_node_hour: float = 0.0
    billing_hours: float = 1.0
    storage_gb_per_node: float = 0.0
    storage_capacity_gb: float = 0.0
    cost_tstore_gb_hour: float = 0.0
    cost_put: float = 0.0
    cost_get: float = 0.0
    avg_op_mb: float = 64.0
    transfer_in_cost_gb: float = 0.0
    transfer_out_cost_gb: float = 0.0
    max_nodes: int = UNLIMITED
    is_spot: bool = False
    internal_bw_mb_s: float = 50.0

    def __post_init__(self) -> None:
        if not self.can_compute and not self.can_store:
            raise ValueError(f"service {self.name!r} provides no resources")
        if self.can_compute and self.throughput_gb_per_hour <= 0:
            raise ValueError(
                f"compute service {self.name!r} needs a positive throughput"
            )
        if self.billing_hours <= 0:
            raise ValueError(f"service {self.name!r}: billing_hours must be > 0")
        if self.avg_op_mb <= 0:
            raise ValueError(f"service {self.name!r}: avg_op_mb must be > 0")

    # -- derived quantities -------------------------------------------------

    @property
    def kinds(self) -> set[ResourceKind]:
        kinds = set()
        if self.can_compute:
            kinds.add(ResourceKind.COMPUTE)
        if self.can_store:
            kinds.add(ResourceKind.STORAGE)
        return kinds

    def put_cost_per_gb(self) -> float:
        """Per-GB upload request cost, via the per-op -> per-byte translation."""
        return self.cost_put * (MB_PER_GB / self.avg_op_mb)

    def get_cost_per_gb(self) -> float:
        """Per-GB download request cost."""
        return self.cost_get * (MB_PER_GB / self.avg_op_mb)

    def node_hours_billed(self, hours_used: float) -> float:
        """Round usage up to the billing granularity (EC2 full hours).

        The rounding is what makes finished-but-paid-for instances free
        storage for the rest of the hour (paper Section 6.2, Fig. 8).
        """
        if hours_used <= 0:
            return 0.0
        periods = math.ceil(hours_used / self.billing_hours - 1e-9)
        return periods * self.billing_hours

    def storage_limit_gb(self, live_nodes: int = 0) -> float:
        """Capacity available for Conductor data given ``live_nodes``."""
        capacity = 0.0
        if self.storage_capacity_gb == UNLIMITED:
            return math.inf
        capacity += self.storage_capacity_gb
        capacity += self.storage_gb_per_node * live_nodes
        return capacity

    def replace(self, **changes) -> "ServiceDescription":
        """A copy with fields overridden (used for what-if sweeps)."""
        return dataclasses.replace(self, **changes)

    def canonical(self) -> tuple:
        """Stable, hashable encoding of the description.

        Used by the planning service to fingerprint problems: two services
        with equal canonical forms are interchangeable to the planner.
        Fields are sorted by name so the encoding survives reordering.
        """
        return tuple((name, getattr(self, name)) for name in _CANONICAL_FIELDS)


#: :meth:`ServiceDescription.canonical`'s field order, sorted once: it
#: runs for every service of every fingerprinted problem.
_CANONICAL_FIELDS = tuple(
    sorted(field.name for field in dataclasses.fields(ServiceDescription))
)


def validate_catalog(services: list[ServiceDescription]) -> None:
    """Sanity-check a set of services offered to the planner."""
    names = [s.name for s in services]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate service names in catalog: {names}")
    if not any(s.can_compute for s in services):
        raise ValueError("catalog has no compute service; nothing can run")
    if not any(s.can_store for s in services):
        raise ValueError("catalog has no storage service; nothing can hold data")
