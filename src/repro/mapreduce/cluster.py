"""Simulated cluster: nodes, slots, leases, and topology construction.

Nodes belong to a :class:`~repro.cloud.services.ServiceDescription`
(EC2 m1.large, the local cluster...) and are allocated/released over
simulated time; leases are billed with the provider's round-up rule at
teardown.  The topology builder wires the sites the storage layer and
engine route over: the client uplink, per-node NICs, and the S3 gateway.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from ..cloud.services import ServiceDescription
from ..accounting import CostCategory, CostLedger
from ..sim import Simulation, Topology
from ..units import seconds_to_hours

CLIENT_SITE = "client"
S3_SITE = "s3"

#: Default boot delay for cloud instances (AMI boot + Hadoop join).
DEFAULT_BOOT_SECONDS = 90.0


@dataclass
class SimNode:
    """One running (or booting) machine."""

    node_id: str
    service: ServiceDescription
    site: str
    slots: int = 2
    booted_at: float | None = None
    leased_at: float = 0.0
    released_at: float | None = None
    busy_slots: int = 0

    @property
    def is_up(self) -> bool:
        return self.booted_at is not None and self.released_at is None

    @property
    def free_slots(self) -> int:
        return self.slots - self.busy_slots if self.is_up else 0

    def slot_rate_mb_s(self, throughput_scale: float = 1.0) -> float:
        """Per-slot map processing rate: the node's calibrated GB/h spread
        across its concurrent slots."""
        from ..units import gb_h_to_mb_s

        node_rate = self.service.throughput_gb_per_hour * throughput_scale
        return gb_h_to_mb_s(node_rate) / self.slots


class Cluster:
    """Allocates nodes from services, tracks leases, bills on release."""

    def __init__(
        self,
        sim: Simulation,
        ledger: CostLedger | None = None,
        boot_seconds: float = DEFAULT_BOOT_SECONDS,
    ) -> None:
        self.sim = sim
        self.ledger = ledger if ledger is not None else CostLedger()
        self.boot_seconds = boot_seconds
        self.nodes: dict[str, SimNode] = {}
        self._counter = itertools.count(1)
        self._on_node_up: list[Callable[[SimNode], None]] = []

    # -- callbacks ------------------------------------------------------------

    def on_node_up(self, callback: Callable[[SimNode], None]) -> None:
        """Register a hook fired when a node finishes booting."""
        self._on_node_up.append(callback)

    # -- allocation ------------------------------------------------------------

    def allocate(
        self,
        service: ServiceDescription,
        count: int = 1,
        slots: int = 2,
        boot_seconds: float | None = None,
        price_per_hour: float | None = None,
    ) -> list[SimNode]:
        """Start ``count`` nodes; they join after the boot delay.

        ``price_per_hour`` overrides the on-demand price (spot market).
        Local-cluster nodes boot instantly — they already exist.
        """
        boot = boot_seconds
        if boot is None:
            boot = 0.0 if service.price_per_node_hour == 0 else self.boot_seconds
        started = []
        for _ in range(count):
            node_id = f"{service.name}/n{next(self._counter):04d}"
            node = SimNode(
                node_id=node_id,
                service=service,
                site=node_id,
                slots=slots,
                leased_at=self.sim.now,
            )
            if price_per_hour is not None:
                node.service = service.replace(price_per_node_hour=price_per_hour)
            self.nodes[node_id] = node
            self.sim.schedule(boot, self._boot, node)
            started.append(node)
        return started

    def _boot(self, node: SimNode) -> None:
        if node.released_at is not None:
            return  # released while booting
        node.booted_at = self.sim.now
        for callback in self._on_node_up:
            callback(node)

    def release(self, node: SimNode) -> None:
        """Stop a node and bill its lease (round-up hours)."""
        if node.released_at is not None:
            return
        node.released_at = self.sim.now
        hours = seconds_to_hours(node.released_at - node.leased_at)
        billed = node.service.node_hours_billed(hours)
        if billed > 0 and node.service.price_per_node_hour > 0:
            self.ledger.add(
                seconds_to_hours(node.leased_at),
                node.service.name,
                CostCategory.COMPUTE,
                f"lease {node.node_id}",
                billed,
                "node-h",
                node.service.price_per_node_hour,
            )

    def release_all(self) -> None:
        for node in list(self.nodes.values()):
            self.release(node)

    # -- queries ------------------------------------------------------------

    def up_nodes(self, service: str | None = None) -> list[SimNode]:
        return [
            n
            for n in self.nodes.values()
            if n.is_up and (service is None or n.service.name == service)
        ]


def build_topology(
    uplink_mb_s: float = 2.0,
    node_nic_mb_s: float = 50.0,
    node_disk_mb_s: float = 60.0,
    s3_gateway_mb_s: float = 400.0,
    s3_per_client_mb_s: float | None = None,
) -> Topology:
    """The standard experiment topology skeleton (no nodes yet).

    Sites: ``client`` (the customer; source data and result destination)
    and ``s3``.  Nodes are wired in on demand via :func:`wire_node`.
    """
    topo = Topology()
    topo.add_link("wan-up", uplink_mb_s)
    topo.add_link("wan-down", uplink_mb_s)
    topo.add_link("s3-gw", s3_gateway_mb_s)
    topo.add_route(CLIENT_SITE, S3_SITE, ["wan-up", "s3-gw"], symmetric=False)
    topo.add_route(S3_SITE, CLIENT_SITE, ["s3-gw", "wan-down"], symmetric=False)
    topo._node_nic_mb_s = node_nic_mb_s  # type: ignore[attr-defined]
    topo._node_disk_mb_s = node_disk_mb_s  # type: ignore[attr-defined]
    return topo


def wire_node(topo: Topology, site: str, local: bool = False) -> None:
    """Attach a node's NIC/disk links and routes to an experiment topology.

    ``local`` nodes sit behind the client's LAN (no WAN hop to the
    client); cloud nodes reach the client via the WAN links, and so do
    routes between a local node and the cloud (a cloud node or S3):
    ``wan-up`` towards the cloud, ``wan-down`` towards the customer's site.
    """
    nic = f"nic-{site}"
    disk = f"disk-{site}"
    topo.add_link(nic, getattr(topo, "_node_nic_mb_s", 50.0))
    topo.add_link(disk, getattr(topo, "_node_disk_mb_s", 60.0))
    topo.add_route(site, site, [disk], symmetric=False)
    if local:
        topo.add_route(CLIENT_SITE, site, [nic, disk], symmetric=False)
        topo.add_route(site, CLIENT_SITE, [nic], symmetric=False)
        up, down = ["wan-up"], ["wan-down"]
    else:
        topo.add_route(CLIENT_SITE, site, ["wan-up", nic, disk], symmetric=False)
        topo.add_route(site, CLIENT_SITE, [nic, "wan-down"], symmetric=False)
        up, down = [], []
    topo.add_route(site, S3_SITE, [nic, *up, "s3-gw"], symmetric=False)
    topo.add_route(S3_SITE, site, ["s3-gw", *down, nic, disk], symmetric=False)
    # Node-to-node routes to every already-wired node.
    wired = _wired_sites(topo)
    for other, other_local in wired.items():
        out, back = [], []
        if local != other_local:
            out, back = (["wan-up"], ["wan-down"]) if local else (["wan-down"], ["wan-up"])
        topo.add_route(site, other, [nic, *out, f"nic-{other}", f"disk-{other}"], symmetric=False)
        topo.add_route(other, site, [f"nic-{other}", *back, nic, disk], symmetric=False)
    wired[site] = local


def _wired_sites(topo: Topology) -> dict[str, bool]:
    """Site -> ``local`` of every node wired into ``topo`` so far."""
    if not hasattr(topo, "_wired_sites"):
        topo._wired_sites = {}  # type: ignore[attr-defined]
    return topo._wired_sites  # type: ignore[attr-defined]
