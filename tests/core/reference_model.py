"""The expression-graph formulation of the planner's MILP — the reference.

This is ``repro.core.model_builder`` as it stood before the builder
became array-native (layout + fill), moved here verbatim: the paper's
Section 4 model written constraint by constraint over
:class:`repro.lp.Model`.  ``tests/core/test_model_equivalence.py`` holds
the production builder to it — same columns, rows, sparsity, bounds and
coefficients — as ``tests/lp/milp_oracle.py`` (``scipy.optimize.milp``)
stands for the HiGHS backend.
It lays out every compute service it is given; the tests give it
:func:`repro.core.model_builder.kept_problem` of a problem, which is
what the production builder builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.services import UNLIMITED, ServiceDescription, validate_catalog
from repro.lp import LinExpr, Model, Solution, VarType, lin_sum
from repro.core.plan import ExecutionPlan, PlanInterval
from repro.core.model_builder import PlanningError
from repro.core.problem import GoalKind, PlanningProblem

_EPS = 1e-6
#: Objective weight that makes one saved interval dominate any cost change
#: in min-time mode (lexicographic completion-then-cost).
_TIME_WEIGHT_MARGIN = 10.0

#: Tie-breaker weights (small enough never to perturb cent-scale costs).
_NODE_TIEBREAK = 1e-6
_EARLY_WORK_TIEBREAK = 1e-9
_FLOW_TIEBREAK = 1e-9


@dataclass
class BuiltModel:
    """The LP plus handles to its decision variables.

    Variable dictionaries are keyed by service name (and pair tuples) and
    1-based interval index ``t``; stock variables additionally have a
    ``t = 0`` entry fixed to the initial state.
    """

    problem: PlanningProblem
    model: Model
    up: dict[tuple[str, int], object]
    store_in: dict[tuple[str, int], object]
    store_out: dict[tuple[str, int], object]
    store_res: dict[tuple[str, int], object]
    read: dict[tuple[str, str, int], object]
    write: dict[tuple[str, str, int], object]
    red_read: dict[tuple[str, str, int], object]
    red_write: dict[tuple[str, str, int], object]
    migrate_in: dict[tuple[str, str, int], object]
    migrate_out: dict[tuple[str, str, int], object]
    download: dict[tuple[str, int], object]
    nodes: dict[tuple[str, int], object]
    phase: dict[int, object]
    done: dict[int, object]
    cost_terms: dict[str, LinExpr]
    total_cost: LinExpr

    # -- solving / extraction ------------------------------------------------

    def solve(self, time_limit: float = 180.0, mip_gap: float = 0.01) -> Solution:
        """Solve with the paper's bounds: 3-minute cut-off, 1% gap."""
        return self.model.solve(time_limit=time_limit, mip_gap=mip_gap)

    def extract_plan(self, solution: Solution) -> ExecutionPlan:
        """Convert a feasible solution into a deployable plan.

        The one place a solve without a solution becomes a
        :class:`PlanningError`: every cold path is
        ``built.extract_plan(built.solve(limit, gap))``.
        """
        problem = self.problem
        if not solution.status.has_solution:
            raise PlanningError(
                f"planning failed for {problem.job.name!r}: "
                f"{solution.status.value} ({solution.message})",
                status=solution.status.value,
                budgeted=problem.goal.budget_usd is not None,
            )
        delta = problem.interval_hours
        start = problem.effective_state.hour
        storage = [s.name for s in problem.storage_services()]
        compute = [c.name for c in problem.compute_services()]
        horizon = problem.horizon_intervals

        def val(var) -> float:
            value = solution.value(var)
            return 0.0 if abs(value) < _EPS else value

        intervals = []
        for t in range(1, horizon + 1):
            interval = PlanInterval(
                index=t,
                start_hour=start + (t - 1) * delta,
                duration_hours=delta,
            )
            for c in compute:
                count = int(round(val(self.nodes[c, t])))
                if count:
                    interval.nodes[c] = count
            for s in storage:
                if (gb := val(self.up[s, t])) > 0:
                    interval.upload_gb[s] = gb
                if (gb := val(self.download[s, t])) > 0:
                    interval.download_gb[s] = gb
                if (gb := val(self.store_in[s, t]) + val(self.store_out[s, t])
                        + val(self.store_res[s, t])) > 0:
                    interval.stored_gb[s] = gb
            for s in storage:
                for c in compute:
                    if (gb := val(self.read[s, c, t])) > 0:
                        interval.map_read_gb[s, c] = gb
                    if (gb := val(self.write[c, s, t])) > 0:
                        interval.map_write_gb[c, s] = gb
                    if (s, c, t) in self.red_read and (gb := val(self.red_read[s, c, t])) > 0:
                        interval.reduce_read_gb[s, c] = gb
                    if (c, s, t) in self.red_write and (gb := val(self.red_write[c, s, t])) > 0:
                        interval.reduce_write_gb[c, s] = gb
            for s in storage:
                for s2 in storage:
                    if s == s2:
                        continue
                    moved = 0.0
                    if (s, s2, t) in self.migrate_in:
                        moved += val(self.migrate_in[s, s2, t])
                    if (s, s2, t) in self.migrate_out:
                        moved += val(self.migrate_out[s, s2, t])
                    if moved > 0:
                        interval.migrate_gb[s, s2] = moved
            intervals.append(interval)

        breakdown = {
            label: solution.value(expr) for label, expr in self.cost_terms.items()
        }
        completion = self._predicted_completion(intervals, start, delta)
        return ExecutionPlan(
            intervals=intervals,
            predicted_cost=solution.value(self.total_cost),
            predicted_cost_breakdown=breakdown,
            predicted_completion_hours=completion,
            objective_value=solution.objective,
            solver_status=solution.status.value,
            solve_seconds=solution.solve_seconds,
            model_stats=self.model.stats(),
        )

    def _predicted_completion(
        self, intervals: list[PlanInterval], start: float, delta: float
    ) -> float:
        last_active = start
        for interval in intervals:
            if not interval.is_idle():
                last_active = interval.end_hour
        return last_active - start


def build_model(problem: PlanningProblem) -> BuiltModel:
    """Generate the time-expanded MILP for ``problem``."""
    services = list(problem.services)
    validate_catalog(services)
    state = problem.effective_state
    state.validate_against(problem.job)
    job = problem.job
    delta = problem.interval_hours
    horizon = problem.horizon_intervals
    storage = problem.storage_services()
    compute = problem.compute_services()
    s_names = [s.name for s in storage]
    by_name = {s.name: s for s in services}

    map_total_gb = job.input_gb
    map_remaining_gb = max(0.0, map_total_gb - state.map_done_gb)
    out_total_gb = job.map_output_gb
    reduce_remaining_gb = max(0.0, out_total_gb - state.reduce_done_gb)
    result_remaining_gb = max(0.0, job.result_gb - state.downloaded_gb)
    has_reduce = out_total_gb > _EPS

    model = Model(f"conductor-{job.name}")
    local = problem.local_provider

    def is_local(service: ServiceDescription) -> bool:
        return service.provider == local

    # ---------------------------------------------------------------- vars
    up: dict[tuple[str, int], object] = {}
    store_in: dict[tuple[str, int], object] = {}
    store_out: dict[tuple[str, int], object] = {}
    store_res: dict[tuple[str, int], object] = {}
    read: dict[tuple[str, str, int], object] = {}
    write: dict[tuple[str, str, int], object] = {}
    red_read: dict[tuple[str, str, int], object] = {}
    red_write: dict[tuple[str, str, int], object] = {}
    mig_in: dict[tuple[str, str, int], object] = {}
    mig_out: dict[tuple[str, str, int], object] = {}
    download: dict[tuple[str, int], object] = {}
    nodes: dict[tuple[str, int], object] = {}
    phase: dict[int, object] = {}
    done: dict[int, object] = {}

    for s in storage:
        for t in range(1, horizon + 1):
            up[s.name, t] = model.add_var(f"up[{s.name},{t}]")
            download[s.name, t] = model.add_var(f"down[{s.name},{t}]")
        for t in range(0, horizon + 1):
            store_in[s.name, t] = model.add_var(f"stIn[{s.name},{t}]")
            store_out[s.name, t] = model.add_var(f"stOut[{s.name},{t}]")
            store_res[s.name, t] = model.add_var(f"stRes[{s.name},{t}]")
    for c in compute:
        cap = math.inf if c.max_nodes == UNLIMITED else c.max_nodes
        for t in range(1, horizon + 1):
            nodes[c.name, t] = model.add_var(
                f"nodes[{c.name},{t}]", ub=cap, vtype=VarType.INTEGER
            )
    if problem.constant_nodes:
        for c in compute:
            for t in range(2, horizon + 1):
                model.add_constr(
                    nodes[c.name, t] == nodes[c.name, 1],
                    f"constant_nodes[{c.name},{t}]",
                )
    for s in storage:
        for c in compute:
            for t in range(1, horizon + 1):
                read[s.name, c.name, t] = model.add_var(f"read[{s.name},{c.name},{t}]")
                write[c.name, s.name, t] = model.add_var(f"write[{c.name},{s.name},{t}]")
                if has_reduce:
                    red_read[s.name, c.name, t] = model.add_var(
                        f"redRead[{s.name},{c.name},{t}]"
                    )
                    red_write[c.name, s.name, t] = model.add_var(
                        f"redWrite[{c.name},{s.name},{t}]"
                    )
    if problem.allow_migration:
        for s in storage:
            for s2 in storage:
                if s.name == s2.name:
                    continue
                for t in range(1, horizon + 1):
                    mig_in[s.name, s2.name, t] = model.add_var(
                        f"migIn[{s.name},{s2.name},{t}]"
                    )
                    mig_out[s.name, s2.name, t] = model.add_var(
                        f"migOut[{s.name},{s2.name},{t}]"
                    )
    if has_reduce:
        for t in range(1, horizon + 1):
            phase[t] = model.add_var(f"phase[{t}]", vtype=VarType.BINARY)
    if problem.goal.kind is GoalKind.MINIMIZE_TIME:
        for t in range(1, horizon + 1):
            done[t] = model.add_var(f"done[{t}]", vtype=VarType.BINARY)

    # ------------------------------------------------------- initial stocks
    for s in storage:
        model.add_constr(
            store_in[s.name, 0] == state.stored_input.get(s.name, 0.0),
            f"init_stIn[{s.name}]",
        )
        model.add_constr(
            store_out[s.name, 0] == state.stored_output.get(s.name, 0.0),
            f"init_stOut[{s.name}]",
        )
        model.add_constr(
            store_res[s.name, 0] == state.stored_result.get(s.name, 0.0),
            f"init_stRes[{s.name}]",
        )

    # ------------------------------------------------- flow preservation
    def mig_arrivals(table, s_name: str, t: int) -> LinExpr:
        """Migrations launched in t-1 arrive at the start of t (Section 4.5)."""
        return lin_sum(
            table[s2, s_name, t - 1]
            for s2 in s_names
            if s2 != s_name and (s2, s_name, t - 1) in table
        )

    def mig_departures(table, s_name: str, t: int) -> LinExpr:
        return lin_sum(
            table[s_name, s2, t]
            for s2 in s_names
            if s2 != s_name and (s_name, s2, t) in table
        )

    for s in storage:
        for t in range(1, horizon + 1):
            reads_from_s = lin_sum(read[s.name, c.name, t] for c in compute)
            arr = mig_arrivals(mig_in, s.name, t)
            dep = mig_departures(mig_in, s.name, t)
            # Eq. (2) analog with consumption: stocks evolve by upload,
            # migration and processing.
            model.add_constr(
                store_in[s.name, t]
                == store_in[s.name, t - 1] + up[s.name, t] + arr - dep - reads_from_s,
                f"flow_in[{s.name},{t}]",
            )
            # Eq. (4) analog (per storage service): reads and departures
            # during t are limited to data present at the start of t —
            # plus same-interval uploads when streaming is allowed.
            avail = store_in[s.name, t - 1] + arr
            if problem.upload_read_lag == 0:
                avail = avail + up[s.name, t]
            model.add_constr(
                reads_from_s + dep <= avail, f"avail_in[{s.name},{t}]"
            )

            writes_to_s = lin_sum(write[c.name, s.name, t] for c in compute)
            if has_reduce:
                red_reads_from_s = lin_sum(
                    red_read[s.name, c.name, t] for c in compute
                )
                arr_o = mig_arrivals(mig_out, s.name, t)
                dep_o = mig_departures(mig_out, s.name, t)
                model.add_constr(
                    store_out[s.name, t]
                    == store_out[s.name, t - 1]
                    + writes_to_s
                    + arr_o
                    - dep_o
                    - red_reads_from_s,
                    f"flow_out[{s.name},{t}]",
                )
                # Reduce may stream output produced in the same interval
                # (sub-interval sequencing, gated by phase[t]).
                model.add_constr(
                    red_reads_from_s + dep_o
                    <= store_out[s.name, t - 1] + arr_o + writes_to_s,
                    f"avail_out[{s.name},{t}]",
                )
                red_writes_to_s = lin_sum(
                    red_write[c.name, s.name, t] for c in compute
                )
                model.add_constr(
                    store_res[s.name, t]
                    == store_res[s.name, t - 1]
                    + red_writes_to_s
                    - download[s.name, t],
                    f"flow_res[{s.name},{t}]",
                )
                model.add_constr(
                    download[s.name, t]
                    <= store_res[s.name, t - 1] + red_writes_to_s,
                    f"avail_res[{s.name},{t}]",
                )
            else:
                model.add_constr(
                    store_out[s.name, t] == store_out[s.name, t - 1] + writes_to_s,
                    f"flow_out[{s.name},{t}]",
                )
                model.add_constr(
                    store_res[s.name, t] == store_res[s.name, t - 1],
                    f"flow_res[{s.name},{t}]",
                )
                model.add_constr(download[s.name, t] == 0, f"no_down[{s.name},{t}]")

    # --------------------------------------------------- phase coupling
    for c in compute:
        for t in range(1, horizon + 1):
            # Map output is written as input is processed.
            model.add_constr(
                lin_sum(write[c.name, s, t] for s in s_names)
                == job.map_output_ratio
                * lin_sum(read[s, c.name, t] for s in s_names),
                f"map_io[{c.name},{t}]",
            )
            if has_reduce:
                model.add_constr(
                    lin_sum(red_write[c.name, s, t] for s in s_names)
                    == job.reduce_output_ratio
                    * lin_sum(red_read[s, c.name, t] for s in s_names),
                    f"red_io[{c.name},{t}]",
                )

    if has_reduce:
        gap = 1 if problem.strict_phase_gap else 0
        for t in range(1, horizon + 1):
            cum_reads = lin_sum(
                read[s, c.name, t2]
                for s in s_names
                for c in compute
                for t2 in range(1, t + 1 - gap)
            )
            # The paper's semi-continuous barrier: reduce input flows only
            # once the *full* map output exists.
            model.add_constr(
                map_total_gb * phase[t] <= state.map_done_gb + cum_reads,
                f"phase_def[{t}]",
            )
            model.add_constr(
                lin_sum(red_read[s, c.name, t] for s in s_names for c in compute)
                <= out_total_gb * phase[t],
                f"phase_gate[{t}]",
            )
            if t > 1:
                model.add_constr(phase[t] >= phase[t - 1], f"phase_mono[{t}]")

    # ------------------------------------------------- capacity (eq. 3)
    for c in compute:
        map_rate = job.map_rate(c)
        red_rate = job.reduce_rate(c)
        for t in range(1, horizon + 1):
            usage = lin_sum(read[s, c.name, t] for s in s_names) * (
                1.0 / (map_rate * delta)
            )
            if has_reduce:
                usage = usage + lin_sum(
                    red_read[s, c.name, t] for s in s_names
                ) * (1.0 / (red_rate * delta))
            model.add_constr(usage <= nodes[c.name, t], f"capacity[{c.name},{t}]")

    # ------------------------------------- storage capacity / coupling
    # Resource overlap (Section 4.6): bytes on a node-backed service need
    # live nodes *during* the interval.  End-of-interval stocks alone would
    # let data flow through within one interval with zero nodes, so
    # same-interval outflows count against the capacity as well.
    for s in storage:
        if s.storage_capacity_gb == UNLIMITED:
            continue
        for t in range(1, horizon + 1):
            held = store_in[s.name, t] + store_out[s.name, t] + store_res[s.name, t]
            held = held + download[s.name, t]
            held = held + lin_sum(read[s.name, c.name, t] for c in compute)
            if has_reduce:
                held = held + lin_sum(red_read[s.name, c.name, t] for c in compute)
            held = held + mig_departures(mig_in, s.name, t)
            held = held + mig_departures(mig_out, s.name, t)
            limit = LinExpr(constant=float(s.storage_capacity_gb))
            if s.can_compute and s.storage_gb_per_node > 0:
                limit = limit + s.storage_gb_per_node * nodes[s.name, t]
            model.add_constr(held <= limit, f"storage_cap[{s.name},{t}]")

    # --------------------------------------------------- WAN bandwidth
    for t in range(1, horizon + 1):
        wan_up_flows: list = []
        wan_down_flows: list = []
        lan_flows: list = []
        for s in storage:
            if is_local(s):
                lan_flows.append(up[s.name, t])
            else:
                wan_up_flows.append(up[s.name, t])
                wan_down_flows.append(download[s.name, t])
        for s in storage:
            for c in compute:
                if is_local(s) and not is_local(c):
                    wan_up_flows.append(read[s.name, c.name, t])
                    if has_reduce:
                        wan_up_flows.append(red_read[s.name, c.name, t])
                    wan_down_flows.append(write[c.name, s.name, t])
                    if has_reduce:
                        wan_down_flows.append(red_write[c.name, s.name, t])
                elif not is_local(s) and is_local(c):
                    wan_down_flows.append(read[s.name, c.name, t])
                    if has_reduce:
                        wan_down_flows.append(red_read[s.name, c.name, t])
                    wan_up_flows.append(write[c.name, s.name, t])
                    if has_reduce:
                        wan_up_flows.append(red_write[c.name, s.name, t])
        for table in (mig_in, mig_out):
            for (a, b, tt), var in table.items():
                if tt != t:
                    continue
                a_local, b_local = is_local(by_name[a]), is_local(by_name[b])
                if a_local and not b_local:
                    wan_up_flows.append(var)
                elif not a_local and b_local:
                    wan_down_flows.append(var)
        model.add_constr(
            lin_sum(wan_up_flows) <= problem.network.uplink_gb_per_hour * delta,
            f"uplink[{t}]",
        )
        model.add_constr(
            lin_sum(wan_down_flows) <= problem.network.downlink_gb_per_hour * delta,
            f"downlink[{t}]",
        )
        if lan_flows:
            model.add_constr(
                lin_sum(lan_flows) <= problem.network.local_gb_per_hour * delta,
                f"lan[{t}]",
            )
        # Intra-cloud cross-service flows (S3 <-> EC2) share provider
        # backbone bandwidth.
        cross = [
            read[s.name, c.name, t]
            for s in storage
            for c in compute
            if s.name != c.name and not is_local(s) and not is_local(c)
        ]
        cross += [
            write[c.name, s.name, t]
            for s in storage
            for c in compute
            if s.name != c.name and not is_local(s) and not is_local(c)
        ]
        if cross:
            model.add_constr(
                lin_sum(cross) <= problem.network.interservice_gb_per_hour * delta,
                f"backbone[{t}]",
            )

    # ------------------------------------------------------- completion
    total_upload = lin_sum(up[s.name, t] for s in storage for t in range(1, horizon + 1))
    model.add_constr(total_upload == state.source_remaining_gb, "upload_all")
    total_reads = lin_sum(
        read[s, c.name, t]
        for s in s_names
        for c in compute
        for t in range(1, horizon + 1)
    )
    model.add_constr(total_reads == map_remaining_gb, "map_all")
    if has_reduce:
        total_red = lin_sum(
            red_read[s, c.name, t]
            for s in s_names
            for c in compute
            for t in range(1, horizon + 1)
        )
        model.add_constr(total_red == reduce_remaining_gb, "reduce_all")
        total_down = lin_sum(
            download[s.name, t] for s in storage for t in range(1, horizon + 1)
        )
        model.add_constr(total_down == result_remaining_gb, "download_all")
    uncapped = [c for c in compute if c.max_nodes == UNLIMITED]
    if len(compute) == 1 or len(uncapped) == 1:
        # Node-hours: the capacity rows scaled to c's rate and summed over
        # t and services, completion rows substituted, every other
        # (capped) service at its cap, rounded up (node counts are
        # integers).
        (c,) = compute if len(compute) == 1 else uncapped
        work = map_remaining_gb / (job.map_rate(c) * delta)
        if has_reduce:
            work += reduce_remaining_gb / (job.reduce_rate(c) * delta)
        for other in compute:
            if other is not c:
                work -= (other.max_nodes * horizon
                         * job.map_rate(other) / job.map_rate(c))
        model.add_constr(
            lin_sum(nodes[c.name, t] for t in range(1, horizon + 1))
            >= math.ceil(work - _EPS),
            "node_hours",
        )

    # ------------------------------------------------ fraction sweeps
    for name, fraction in problem.upload_fractions.items():
        model.add_constr(
            lin_sum(up[name, t] for t in range(1, horizon + 1))
            == fraction * state.source_remaining_gb,
            f"fraction[{name}]",
        )

    # ------------------------------------------------------------ cost
    cost_terms = _build_cost_terms(
        problem,
        up=up,
        store_in=store_in,
        store_out=store_out,
        store_res=store_res,
        read=read,
        write=write,
        red_read=red_read,
        red_write=red_write,
        mig_in=mig_in,
        mig_out=mig_out,
        download=download,
        nodes=nodes,
    )
    total_cost = lin_sum(cost_terms.values())

    tie_break = _NODE_TIEBREAK * lin_sum(nodes.values())
    tie_break = tie_break + _EARLY_WORK_TIEBREAK * lin_sum(
        t * var for (s, c, t), var in read.items()
    )
    # Front-load uploads among cost-equal schedules: the WAN should never
    # idle early only to be saturated against the deadline.
    tie_break = tie_break + _EARLY_WORK_TIEBREAK * lin_sum(
        t * var for (s, t), var in up.items()
    )
    if mig_in or mig_out:
        tie_break = tie_break + _FLOW_TIEBREAK * lin_sum(
            list(mig_in.values()) + list(mig_out.values())
        )

    if problem.goal.kind is GoalKind.MINIMIZE_COST:
        model.minimize(total_cost + tie_break)
    else:
        budget = problem.goal.budget_usd
        assert budget is not None
        model.add_constr(total_cost <= budget, "budget")
        result_total = result_remaining_gb if has_reduce else 0.0
        for t in range(1, horizon + 1):
            if has_reduce:
                cum_down = lin_sum(
                    download[s.name, t2]
                    for s in storage
                    for t2 in range(1, t + 1)
                )
                model.add_constr(
                    result_total * done[t] <= cum_down, f"done_def[{t}]"
                )
            else:
                cum_reads_t = lin_sum(
                    read[s, c.name, t2]
                    for s in s_names
                    for c in compute
                    for t2 in range(1, t + 1)
                )
                model.add_constr(
                    map_remaining_gb * done[t] <= cum_reads_t, f"done_def[{t}]"
                )
            if t > 1:
                model.add_constr(done[t] >= done[t - 1], f"done_mono[{t}]")
        interval_weight = budget + _TIME_WEIGHT_MARGIN
        pending = lin_sum((1 - done[t]) for t in range(1, horizon + 1))
        model.minimize(interval_weight * pending + total_cost + tie_break)

    return BuiltModel(
        problem=problem,
        model=model,
        up=up,
        store_in=store_in,
        store_out=store_out,
        store_res=store_res,
        read=read,
        write=write,
        red_read=red_read,
        red_write=red_write,
        migrate_in=mig_in,
        migrate_out=mig_out,
        download=download,
        nodes=nodes,
        phase=phase,
        done=done,
        cost_terms=cost_terms,
        total_cost=total_cost,
    )


def _build_cost_terms(problem: PlanningProblem, **tables) -> dict[str, LinExpr]:
    """Assemble the monetary cost (eqs. 5-6) as labeled expressions.

    Returns a mapping ``"{service}/{category}" -> LinExpr`` so plans can
    report the same stacked breakdown as the paper's Fig. 5.
    """
    delta = problem.interval_hours
    horizon = problem.horizon_intervals
    storage = problem.storage_services()
    compute = problem.compute_services()
    by_name = {s.name: s for s in problem.services}
    local = problem.local_provider

    terms: dict[str, LinExpr] = {}

    def accumulate(service: str, category: str, expr) -> None:
        key = f"{service}/{category}"
        terms[key] = terms.get(key, LinExpr()) + expr

    # Compute rental: on-demand price or spot estimate per interval.
    for c in compute:
        estimates = problem.spot_price_estimates.get(c.name)
        expr = LinExpr()
        for t in range(1, horizon + 1):
            if c.is_spot and estimates is not None:
                index = min(t - 1, len(estimates) - 1)
                price = float(estimates[index]) * delta
            else:
                price = c.price_per_node_hour * delta
            expr = expr + price * tables["nodes"][c.name, t]
        if expr.terms:
            accumulate(c.name, "compute", expr)

    # Time-based storage.
    for s in storage:
        if s.cost_tstore_gb_hour <= 0:
            continue
        held = lin_sum(
            tables["store_in"][s.name, t]
            + tables["store_out"][s.name, t]
            + tables["store_res"][s.name, t]
            for t in range(1, horizon + 1)
        )
        accumulate(s.name, "storage", s.cost_tstore_gb_hour * delta * held)

    # Per-request I/O, translated to per-GB (Section 4.2).  Co-located
    # access (compute on the same service's virtual disks) bypasses the
    # service API and is free.
    for s in storage:
        put_gb = s.put_cost_per_gb()
        get_gb = s.get_cost_per_gb()
        if put_gb <= 0 and get_gb <= 0:
            continue
        puts: list = []
        gets: list = []
        for t in range(1, horizon + 1):
            puts.append(tables["up"][s.name, t])
            gets.append(tables["download"][s.name, t])
            for c in compute:
                if c.name == s.name:
                    continue
                puts.append(tables["write"][c.name, s.name, t])
                gets.append(tables["read"][s.name, c.name, t])
                if (s.name, c.name, t) in tables["red_read"]:
                    gets.append(tables["red_read"][s.name, c.name, t])
                    puts.append(tables["red_write"][c.name, s.name, t])
        for table in (tables["mig_in"], tables["mig_out"]):
            for (a, b, t), var in table.items():
                if b == s.name:
                    puts.append(var)
                if a == s.name:
                    gets.append(var)
        if put_gb > 0:
            accumulate(s.name, "requests", put_gb * lin_sum(puts))
        if get_gb > 0:
            accumulate(s.name, "requests", get_gb * lin_sum(gets))

    # Transfer charges for data crossing provider boundaries.
    def crossing_cost(src: str | None, dst: str | None) -> list[tuple[str, float]]:
        """(service, $/GB) charges for a flow from src to dst service
        (None = the customer's site)."""
        src_svc = by_name.get(src) if src else None
        dst_svc = by_name.get(dst) if dst else None
        src_provider = src_svc.provider if src_svc else local
        dst_provider = dst_svc.provider if dst_svc else local
        if src_provider == dst_provider:
            return []
        charges = []
        if src_svc is not None and src_svc.transfer_out_cost_gb > 0:
            charges.append((src_svc.name, src_svc.transfer_out_cost_gb))
        if dst_svc is not None and dst_svc.transfer_in_cost_gb > 0:
            charges.append((dst_svc.name, dst_svc.transfer_in_cost_gb))
        return charges

    transfer_flows: list[tuple[str | None, str | None, object]] = []
    for (s, t), var in tables["up"].items():
        transfer_flows.append((None, s, var))
    for (s, t), var in tables["download"].items():
        transfer_flows.append((s, None, var))
    for (s, c, t), var in tables["read"].items():
        transfer_flows.append((s, c, var))
    for (c, s, t), var in tables["write"].items():
        transfer_flows.append((c, s, var))
    for (s, c, t), var in tables["red_read"].items():
        transfer_flows.append((s, c, var))
    for (c, s, t), var in tables["red_write"].items():
        transfer_flows.append((c, s, var))
    for table in (tables["mig_in"], tables["mig_out"]):
        for (a, b, t), var in table.items():
            transfer_flows.append((a, b, var))
    for src, dst, var in transfer_flows:
        for service, price in crossing_cost(src, dst):
            accumulate(service, "transfer", price * var)

    return terms
