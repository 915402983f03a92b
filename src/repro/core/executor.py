"""Fluid plan executor: runs one plan interval against actual conditions.

This is the deployment-side counterpart of the LP's fluid view of the
world: data moves in GB per interval, node allocations follow the plan,
and every resource touch is charged to a :class:`CostLedger`.  The job
controller (:mod:`repro.core.controller`) drives it interval by interval
and reacts to the deviations it reports.

The executor honours Conductor's central deployment invariant (Section
5.3): it performs **only** actions the plan contains — a planned read that
the world cannot satisfy (not enough data, slower nodes) is silently
truncated, surfaces as a progress shortfall, and triggers re-planning —
it is never "made up" by off-plan scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cloud.services import ServiceDescription
from ..accounting import CostCategory, CostLedger
from .conditions import ActualConditions
from .plan import PlanInterval
from .problem import PlanningProblem, SystemState

_EPS = 1e-9


def _by_compute(
    flows: dict[tuple[str, str], float], storage: str | None = None
) -> dict[str, float]:
    """Planned ``(storage, compute)`` GB summed per compute, over one
    storage service or all of them."""
    summed: dict[str, float] = {}
    for (src, compute), gb in flows.items():
        if storage in (None, src):
            summed[compute] = summed.get(compute, 0.0) + gb
    return summed


@dataclass
class IntervalOutcome:
    """What actually happened during one executed interval."""

    index: int
    start_hour: float
    duration_hours: float
    nodes: dict[str, int]
    uploaded_gb: float
    map_gb: float
    reduce_gb: float
    downloaded_gb: float
    #: plan's map GB for the interval (deviation detection input).
    planned_map_gb: float
    planned_upload_gb: float
    cost: float
    #: spot services that were out-bid (allocated 0 nodes) this interval.
    outbid_services: list[str] = field(default_factory=list)
    #: observed per-node processing rate by service (GB/h), where measurable.
    observed_rates: dict[str, float] = field(default_factory=dict)
    #: GB of state destroyed by spot-instance termination this interval.
    spot_data_lost_gb: float = 0.0
    #: Services whose workers died or timed out this interval (real
    #: execution backends only; the fluid simulator never fails workers).
    failed_services: list[str] = field(default_factory=list)

    @property
    def map_shortfall(self) -> float:
        """Relative shortfall vs. plan (0 = on plan, 1 = nothing ran)."""
        if self.planned_map_gb <= _EPS:
            return 0.0
        return max(0.0, 1.0 - self.map_gb / self.planned_map_gb)


class FluidExecutor:
    """Executes plan intervals, mutating a :class:`SystemState`.

    This is the ``sim`` execution backend.  The real-work backends of
    :mod:`repro.exec` subclass it and differ only in how a node batch
    runs (a :class:`~repro.exec.work.TaskRunner`).
    """

    #: The backend selector this executor answers to.
    name = "sim"

    def __init__(
        self,
        problem: PlanningProblem,
        actual: ActualConditions,
        ledger: CostLedger | None = None,
        hour_offset: float = 0.0,
    ) -> None:
        self.problem = problem
        self.actual = actual
        self.ledger = ledger if ledger is not None else CostLedger()
        self.job = problem.job
        self._services = {s.name: s for s in problem.services}
        #: per spot service, the bid currently held (set by the controller).
        self.bids: dict[str, float] = {}
        #: Offset between job-relative hours and spot-trace absolute hours
        #: (a job started at trace hour 48 has hour_offset=48).
        self.hour_offset = hour_offset

    # -- public ---------------------------------------------------------------

    def execute_interval(
        self, interval: PlanInterval, state: SystemState
    ) -> IntervalOutcome:
        """Run one planned interval against the actual conditions.

        Mutates ``state`` in place (stocks, progress counters, the clock)
        and appends every charge to the ledger.
        """
        job = self.job
        delta = interval.duration_hours
        hour = state.hour
        outcome = IntervalOutcome(
            index=interval.index,
            start_hour=hour,
            duration_hours=delta,
            nodes={},
            uploaded_gb=0.0,
            map_gb=0.0,
            reduce_gb=0.0,
            downloaded_gb=0.0,
            planned_map_gb=interval.map_gb,
            planned_upload_gb=interval.total_upload_gb,
            cost=0.0,
        )
        before = self.ledger.total()

        nodes = self._allocate_nodes(interval, hour, outcome)
        if self.actual.spot_storage_volatile:
            self._spot_storage_losses(state, nodes, outcome)
        # Snapshot of start-of-interval stocks: with the paper's staging
        # semantics (upload_read_lag=1) only these are processable now.
        start_input = dict(state.stored_input)
        start_output = dict(state.stored_output)
        start_result = dict(state.stored_result)

        uploaded = self._execute_uploads(interval, state, delta, hour)
        outcome.uploaded_gb = uploaded

        map_gb = self._execute_map(
            interval, state, start_input, nodes, delta, hour, outcome
        )
        outcome.map_gb = map_gb
        state.map_done_gb = min(job.input_gb, state.map_done_gb + map_gb)

        map_complete = state.map_done_gb >= job.input_gb - 1e-6
        if job.map_output_gb > _EPS and map_complete:
            reduce_gb = self._execute_reduce(
                interval, state, start_output, nodes, delta, hour, map_gb
            )
            outcome.reduce_gb = reduce_gb
            state.reduce_done_gb = min(
                job.map_output_gb, state.reduce_done_gb + reduce_gb
            )
            downloaded = self._execute_downloads(
                interval, state, start_result, delta, hour
            )
            outcome.downloaded_gb = downloaded
            state.downloaded_gb = min(job.result_gb, state.downloaded_gb + downloaded)

        self._charge_storage(state, delta, hour)
        state.hour = hour + delta
        outcome.cost = self.ledger.total() - before
        return outcome

    def rebind(self, problem: PlanningProblem) -> None:
        """Adopt a re-planned problem in place.

        ``actual``, the ledger, the hour offset and a subclass's runtime
        state (worker pools, task counters) are run-scoped and survive;
        stale spot bids do not matter, as the controller refreshes every
        bid before each interval.
        """
        self.problem = problem
        self.job = problem.job
        self._services = {s.name: s for s in problem.services}

    def close(self) -> None:
        """Release backend resources; the simulator holds none."""

    def is_complete(self, state: SystemState) -> bool:
        job = self.job
        if state.map_done_gb < job.input_gb - 1e-6:
            return False
        if job.map_output_gb <= _EPS:
            return True
        return (
            state.reduce_done_gb >= job.map_output_gb - 1e-6
            and state.downloaded_gb >= job.result_gb - 1e-6
        )

    # -- capacity hooks ---------------------------------------------------------
    # Execution backends that run real work (repro.exec) override these
    # to cap the fluid accounting by what their workers actually
    # completed; the simulator's capacity is the believed-world formula.

    def _map_capacity(self, name: str, count: int, delta: float) -> float:
        """GB of map input ``count`` nodes of ``name`` can process."""
        service = self._services[name]
        rate = self.actual.actual_rate(service, self.job.throughput_scale)
        return count * rate * delta

    def _reduce_capacity(
        self,
        interval: PlanInterval,
        nodes: dict[str, int],
        delta: float,
        map_gb_this_interval: float,
    ) -> float:
        """GB of reduce input the allocated nodes can process."""
        job = self.job
        capacity = 0.0
        for name, count in nodes.items():
            service = self._services[name]
            rate = self.actual.actual_rate(service, job.throughput_scale)
            used_for_map = 0.0
            if map_gb_this_interval > 0 and interval.map_gb > 0:
                share = sum(
                    gb for (s, d), gb in interval.map_read_gb.items() if d == name
                )
                used_for_map = min(1.0, share / max(interval.map_gb, _EPS))
            capacity += (
                count
                * rate
                * job.reduce_speed_factor
                * delta
                * max(0.0, 1.0 - used_for_map * 0.5)
            )
        return capacity

    # -- phases -----------------------------------------------------------------

    def _allocate_nodes(
        self, interval: PlanInterval, hour: float, outcome: IntervalOutcome
    ) -> dict[str, int]:
        """Rent the planned nodes; spot nodes only run while bid >= market."""
        nodes: dict[str, int] = {}
        for name, count in interval.nodes.items():
            service = self._services[name]
            price = self.actual.spot_price(service, hour + self.hour_offset)
            if service.is_spot:
                bid = self.bids.get(name, service.price_per_node_hour)
                if price > bid + _EPS:
                    outcome.outbid_services.append(name)
                    continue  # out-bid: the provider terminates the request
            nodes[name] = count
            billed = service.node_hours_billed(interval.duration_hours)
            self.ledger.add(
                hour,
                name,
                CostCategory.COMPUTE,
                "node-hours" + (" (spot)" if service.is_spot else ""),
                count * billed,
                "node-h",
                price,
            )
        outcome.nodes = nodes
        return nodes

    def _spot_storage_losses(
        self,
        state: SystemState,
        nodes: dict[str, int],
        outcome: IntervalOutcome,
    ) -> None:
        """Destroy state on terminated spot instances (Section 2.1).

        Data on a spot service's virtual disks survives only while its
        instances run.  An out-bid hour (or a planned zero-allocation
        interval) terminates them; input returns to the source for
        re-upload, and map/reduce output loss rewinds the corresponding
        progress so the work is re-executed.
        """
        job = self.job
        for name, service in self._services.items():
            if not (service.is_spot and service.can_store):
                continue
            if nodes.get(name, 0) > 0:
                continue  # instances still running; disks intact
            lost_input = state.stored_input.pop(name, 0.0)
            if lost_input > _EPS:
                state.source_remaining_gb += lost_input
                outcome.spot_data_lost_gb += lost_input
            lost_output = state.stored_output.pop(name, 0.0)
            if lost_output > _EPS:
                ratio = max(job.map_output_ratio, _EPS)
                state.map_done_gb = max(
                    0.0, state.map_done_gb - lost_output / ratio
                )
                # The re-mapped input must come from somewhere: return it
                # to the source unless a copy still sits in cloud storage.
                stored = sum(state.stored_input.values())
                needed = lost_output / ratio
                shortfall = max(0.0, needed - stored)
                state.source_remaining_gb += shortfall
                outcome.spot_data_lost_gb += lost_output
            lost_result = state.stored_result.pop(name, 0.0)
            if lost_result > _EPS:
                ratio = max(job.reduce_output_ratio, _EPS)
                state.reduce_done_gb = max(
                    0.0, state.reduce_done_gb - lost_result / ratio
                )
                outcome.spot_data_lost_gb += lost_result

    def _execute_uploads(
        self, interval: PlanInterval, state: SystemState, delta: float, hour: float
    ) -> float:
        """Move source data per plan, throttled by actual WAN bandwidth."""
        problem = self.problem
        wan_budget = (
            problem.network.uplink_gb_per_hour * delta * self.actual.uplink_factor
        )
        lan_budget = problem.network.local_gb_per_hour * delta
        total = 0.0
        for name, planned in sorted(interval.upload_gb.items()):
            service = self._services[name]
            local = service.provider == problem.local_provider
            budget = lan_budget if local else wan_budget
            moved = min(planned, budget, state.source_remaining_gb)
            if moved <= _EPS:
                continue
            if local:
                lan_budget -= moved
            else:
                wan_budget -= moved
            state.source_remaining_gb -= moved
            state.stored_input[name] = state.stored_input.get(name, 0.0) + moved
            total += moved
            self._charge_requests(service, hour, put_gb=moved)
            self._charge_transfer(None, service, moved, hour)
        return total

    def _execute_map(
        self,
        interval: PlanInterval,
        state: SystemState,
        start_input: dict[str, float],
        nodes: dict[str, int],
        delta: float,
        hour: float,
        outcome: IntervalOutcome,
    ) -> float:
        """Process map input per the plan's (storage, compute) flows.

        Each flow is truncated to (a) the compute service's *actual*
        capacity this interval and (b) the data available at its source
        under the staging semantics.
        """
        job = self.job
        problem = self.problem
        capacity: dict[str, float] = {}
        for name, count in nodes.items():
            capacity[name] = self._map_capacity(name, count, delta)
        available = dict(start_input)
        if problem.upload_read_lag == 0:
            for name, gb in state.stored_input.items():
                available[name] = max(available.get(name, 0.0), gb)
        wan_budget = (
            problem.network.uplink_gb_per_hour * delta * self.actual.uplink_factor
        )
        total = 0.0
        for (src, dst), planned in sorted(interval.map_read_gb.items()):
            src_service = self._services[src]
            dst_service = self._services[dst]
            moved = min(
                planned,
                capacity.get(dst, 0.0),
                available.get(src, 0.0),
                state.stored_input.get(src, 0.0),
            )
            crosses_wan = (src_service.provider == problem.local_provider) != (
                dst_service.provider == problem.local_provider
            )
            if crosses_wan:
                moved = min(moved, wan_budget)
            if moved <= _EPS:
                continue
            if crosses_wan:
                wan_budget -= moved
            capacity[dst] -= moved
            available[src] -= moved
            state.stored_input[src] = state.stored_input.get(src, 0.0) - moved
            total += moved
            if src != dst:
                self._charge_requests(src_service, hour, get_gb=moved)
                self._charge_transfer(src_service, dst_service, moved, hour)
            # Map output lands where the plan says this compute writes.
            self._place_output(interval, dst, moved * job.map_output_ratio, state, hour)
        # Observed per-node rates, for the monitor: only measurable when a
        # service actually processed data.
        by_service: dict[str, float] = {}
        for (src, dst), planned in interval.map_read_gb.items():
            by_service.setdefault(dst, 0.0)
        for name in by_service:
            service = self._services[name]
            if nodes.get(name, 0) > 0:
                rate = self.actual.actual_rate(service, job.throughput_scale)
                outcome.observed_rates[name] = rate
        return total

    def _place_output(
        self,
        interval: PlanInterval,
        compute: str,
        output_gb: float,
        state: SystemState,
        hour: float,
    ) -> None:
        if output_gb <= _EPS:
            return
        planned = {
            dst: gb
            for (src, dst), gb in interval.map_write_gb.items()
            if src == compute
        }
        targets = planned or {compute: 1.0}
        weight = sum(targets.values())
        for dst, share in targets.items():
            moved = output_gb * share / weight
            dst_service = self._services[dst]
            state.stored_output[dst] = state.stored_output.get(dst, 0.0) + moved
            if dst != compute:
                self._charge_requests(dst_service, hour, put_gb=moved)
                self._charge_transfer(self._services[compute], dst_service, moved, hour)

    def _execute_reduce(
        self,
        interval: PlanInterval,
        state: SystemState,
        start_output: dict[str, float],
        nodes: dict[str, int],
        delta: float,
        hour: float,
        map_gb_this_interval: float,
    ) -> float:
        """Run the reduce phase (only called once the map phase is done)."""
        job = self.job
        remaining = job.map_output_gb - state.reduce_done_gb
        if remaining <= _EPS:
            return 0.0
        capacity = self._reduce_capacity(
            interval, nodes, delta, map_gb_this_interval
        )
        available = sum(state.stored_output.values())
        moved = min(remaining, capacity, available)
        if moved <= _EPS:
            return 0.0
        # Consume proportionally from wherever output sits.
        for name in list(state.stored_output):
            share = state.stored_output[name] / available
            take = moved * share
            state.stored_output[name] -= take
            self._charge_reduce_read(interval, name, take, nodes, hour)
        result = moved * job.reduce_output_ratio
        targets = dict(interval.reduce_write_gb)
        if not targets:
            first = next(iter(nodes), self._first_storage().name)
            targets = {(first, first): 1.0}
        weight = sum(targets.values())
        for (c, dst), share in targets.items():
            if dst not in self._services or not self._services[dst].can_store:
                continue
            gb = result * share / weight
            state.stored_result[dst] = state.stored_result.get(dst, 0.0) + gb
            if c != dst:
                self._charge_transfer(self._services[c], self._services[dst], gb, hour)
        return moved

    def _charge_reduce_read(
        self,
        interval: PlanInterval,
        storage: str,
        gb: float,
        nodes: dict[str, int],
        hour: float,
    ) -> None:
        """Bill ``gb`` of map output read from ``storage``: GET requests
        and any provider crossing, per compute reading it, unless that
        compute reads its own disks.  The reads split as the plan reduces
        this storage's output, else all output, else by rented nodes."""
        readers = (
            _by_compute(interval.reduce_read_gb, storage)
            or _by_compute(interval.reduce_read_gb)
            or dict(nodes)
        )
        store = self._services[storage]
        weight = sum(readers.values())
        for c, part in readers.items():
            if c != storage:
                read = gb * part / weight
                self._charge_requests(store, hour, get_gb=read)
                self._charge_transfer(store, self._services[c], read, hour)

    def _execute_downloads(
        self,
        interval: PlanInterval,
        state: SystemState,
        start_result: dict[str, float],
        delta: float,
        hour: float,
    ) -> float:
        problem = self.problem
        wan_budget = (
            problem.network.downlink_gb_per_hour * delta * self.actual.downlink_factor
        )
        total = 0.0
        remaining = self.job.result_gb - state.downloaded_gb
        for name in sorted(state.stored_result):
            service = self._services[name]
            stock = state.stored_result.get(name, 0.0)
            local = service.provider == problem.local_provider
            moved = min(stock, remaining - total)
            if not local:
                moved = min(moved, wan_budget)
            if moved <= _EPS:
                continue
            if not local:
                wan_budget -= moved
            state.stored_result[name] = stock - moved
            total += moved
            self._charge_requests(service, hour, get_gb=moved)
            self._charge_transfer(service, None, moved, hour)
        return total

    # -- charging -----------------------------------------------------------------

    def _charge_storage(self, state: SystemState, delta: float, hour: float) -> None:
        for name, service in self._services.items():
            if service.cost_tstore_gb_hour <= 0:
                continue
            held = (
                state.stored_input.get(name, 0.0)
                + state.stored_output.get(name, 0.0)
                + state.stored_result.get(name, 0.0)
            )
            if held > _EPS:
                self.ledger.add(
                    hour,
                    name,
                    CostCategory.STORAGE,
                    "GB-hours",
                    held * delta,
                    "GB-h",
                    service.cost_tstore_gb_hour,
                )

    def _charge_requests(
        self,
        service: ServiceDescription,
        hour: float,
        put_gb: float = 0.0,
        get_gb: float = 0.0,
    ) -> None:
        if put_gb > _EPS and service.put_cost_per_gb() > 0:
            self.ledger.add(
                hour,
                service.name,
                CostCategory.REQUESTS,
                "put requests",
                put_gb,
                "GB",
                service.put_cost_per_gb(),
            )
        if get_gb > _EPS and service.get_cost_per_gb() > 0:
            self.ledger.add(
                hour,
                service.name,
                CostCategory.REQUESTS,
                "get requests",
                get_gb,
                "GB",
                service.get_cost_per_gb(),
            )

    def _charge_transfer(
        self,
        src: ServiceDescription | None,
        dst: ServiceDescription | None,
        gb: float,
        hour: float,
    ) -> None:
        """Charge provider-boundary crossings (src/dst of ``None`` = client)."""
        local = self.problem.local_provider
        src_provider = src.provider if src is not None else local
        dst_provider = dst.provider if dst is not None else local
        if src_provider == dst_provider or gb <= _EPS:
            return
        if src is not None and src.transfer_out_cost_gb > 0:
            self.ledger.add(
                hour, src.name, CostCategory.TRANSFER, "transfer out",
                gb, "GB", src.transfer_out_cost_gb,
            )
        if dst is not None and dst.transfer_in_cost_gb > 0:
            self.ledger.add(
                hour, dst.name, CostCategory.TRANSFER, "transfer in",
                gb, "GB", dst.transfer_in_cost_gb,
            )

    def _first_storage(self) -> ServiceDescription:
        return next(s for s in self.problem.services if s.can_store)
