"""Tests for the LP model builder: plan invariants across scenarios."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import GoalSpec, JobSpec
from repro.api.compiler import compile_spec
from repro.cloud import (
    KMEANS_FAST_THROUGHPUT_GB_H,
    ec2_c1_xlarge,
    ec2_m1_large,
    ec2_m1_xlarge,
    hybrid_cloud,
    instance_types,
    local_cluster,
    public_cloud,
    s3,
)
from repro.cloud.catalog_full import full_instance_catalog
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    PlanningProblem,
    SystemState,
    build_model,
)
from repro.core import model_builder
from repro.core.model_builder import kept_problem, structure_key
from repro.core.spot_sim import spot_services
from repro.lp import scipy_backend

NET = NetworkConditions.from_mbit_s(16.0)


def plan_for(problem):
    built = build_model(problem)
    solution = built.solve()
    assert solution.status.has_solution, solution.message
    return built.extract_plan(solution), built


def violated(problem, solution, tol=1e-5):
    """What the solution vector breaks in the problem's model, by name:
    rows outside ``row_lb <= A x <= row_ub``, columns outside their
    bounds or off an integer."""
    model = build_model(problem).model
    compiled = model.compile()
    x = solution.x
    rows = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    ax = np.bincount(rows, compiled.data * x[compiled.indices],
                     minlength=compiled.num_rows)
    broken = (ax < compiled.row_lb - tol) | (ax > compiled.row_ub + tol)
    off = ((x < compiled.var_lb - tol) | (x > compiled.var_ub + tol)
           | (compiled.integrality & (np.abs(x - np.rint(x)) > tol)))
    return ([model.row_names[r] for r in np.flatnonzero(broken)]
            + [compiled.col_names[c] for c in np.flatnonzero(off)])


def default_problem(**kwargs):
    defaults = dict(
        job=PlannerJob(name="t", input_gb=32.0),
        services=public_cloud(),
        network=NET,
        goal=Goal.min_cost(deadline_hours=6.0),
    )
    defaults.update(kwargs)
    return PlanningProblem(**defaults)


class TestPlanInvariants:
    def test_all_input_uploaded_processed_downloaded(self):
        plan, _ = plan_for(default_problem())
        job = PlannerJob(name="t", input_gb=32.0)
        assert plan.total_uploaded_gb() == pytest.approx(32.0, abs=1e-4)
        assert plan.total_map_gb() == pytest.approx(32.0, abs=1e-4)
        assert plan.total_reduce_gb() == pytest.approx(job.map_output_gb, abs=1e-4)
        assert plan.total_downloaded_gb() == pytest.approx(job.result_gb, abs=1e-4)

    def test_uplink_respected_per_interval(self):
        plan, _ = plan_for(default_problem())
        for interval in plan.intervals:
            assert interval.total_upload_gb <= NET.uplink_gb_per_hour + 1e-6

    def test_capacity_respected(self):
        plan, built = plan_for(default_problem())
        job = built.problem.job
        services = {s.name: s for s in built.problem.services}
        for interval in plan.intervals:
            per_service: dict[str, float] = {}
            for (src, dst), gb in interval.map_read_gb.items():
                per_service[dst] = per_service.get(dst, 0.0) + gb
            for name, gb in per_service.items():
                cap = interval.nodes.get(name, 0) * job.map_rate(services[name])
                assert gb <= cap * interval.duration_hours + 1e-6

    def test_deadline_met(self):
        plan, _ = plan_for(default_problem())
        assert plan.predicted_completion_hours <= 6.0 + 1e-6

    def test_solution_passes_model_self_check(self):
        problem = default_problem()
        built = build_model(problem)
        solution = built.solve()
        assert violated(problem, solution) == []

    def test_infeasible_deadline_detected(self):
        # 32 GB over a 16 Mbit/s uplink cannot finish in 2 hours.
        problem = default_problem(goal=Goal.min_cost(deadline_hours=2.0))
        built = build_model(problem)
        assert not built.solve().status.has_solution

    def test_cost_matches_breakdown(self):
        plan, _ = plan_for(default_problem())
        assert plan.predicted_cost == pytest.approx(
            sum(plan.predicted_cost_breakdown.values()), abs=1e-6
        )


class TestScenarioShapes:
    def test_local_cluster_cap_respected(self):
        plan, _ = plan_for(
            default_problem(
                services=hybrid_cloud(local_nodes=5),
                goal=Goal.min_cost(deadline_hours=8.0),
            )
        )
        assert plan.peak_nodes("local.cluster") <= 5

    def test_free_local_nodes_preferred_when_deadline_allows(self):
        # With a very loose deadline, the free cluster does everything.
        plan, _ = plan_for(
            default_problem(
                services=hybrid_cloud(local_nodes=5),
                goal=Goal.min_cost(deadline_hours=24.0),
            )
        )
        assert plan.predicted_cost < 1.0
        assert plan.peak_nodes("ec2.m1.large") == 0

    def test_tighter_deadline_never_cheaper(self):
        loose, _ = plan_for(default_problem(goal=Goal.min_cost(deadline_hours=12.0)))
        tight, _ = plan_for(default_problem(goal=Goal.min_cost(deadline_hours=6.0)))
        assert tight.predicted_cost >= loose.predicted_cost - 1e-6

    def test_constant_nodes_restriction_costs_more(self):
        free, _ = plan_for(default_problem())
        constant, _ = plan_for(default_problem(constant_nodes=True))
        assert constant.predicted_cost >= free.predicted_cost - 1e-6
        nodes = {
            tuple(sorted(i.nodes.items())) for i in constant.intervals
        }
        assert len(nodes) == 1  # identical allocation every interval

    def test_upload_fractions_enforced(self):
        plan, _ = plan_for(
            default_problem(
                upload_fractions={"s3": 0.25, "ec2.m1.large": 0.75},
                goal=Goal.min_cost(deadline_hours=8.0),
            )
        )
        assert plan.total_uploaded_gb("s3") == pytest.approx(8.0, abs=1e-3)
        assert plan.total_uploaded_gb("ec2.m1.large") == pytest.approx(24.0, abs=1e-3)

    def test_spot_estimates_shift_work_to_cheap_hours(self):
        spot = ec2_m1_large().replace(name="spot", is_spot=True)
        # Hours 0-5 expensive, 6-11 cheap.
        estimates = [0.34] * 6 + [0.05] * 6
        plan, _ = plan_for(
            default_problem(
                services=[spot, s3()],
                goal=Goal.min_cost(deadline_hours=12.0),
                spot_price_estimates={"spot": estimates},
            )
        )
        expensive_nodes = sum(
            i.total_nodes for i in plan.intervals if i.index <= 6
        )
        cheap_nodes = sum(i.total_nodes for i in plan.intervals if i.index > 6)
        assert cheap_nodes > expensive_nodes

    def test_min_time_goal_reaches_earliest_feasible(self):
        plan, _ = plan_for(
            default_problem(goal=Goal.min_time(budget_usd=40.0, horizon_hours=12))
        )
        # The uplink bounds completion below ~5 h; min-time should hit it.
        assert plan.predicted_completion_hours <= 6.0

    def test_min_time_respects_budget(self):
        plan, _ = plan_for(
            default_problem(goal=Goal.min_time(budget_usd=26.0, horizon_hours=12))
        )
        assert plan.predicted_cost <= 26.0 + 1e-6

    def test_replanning_from_partial_state(self):
        from repro.core import SystemState

        job = PlannerJob(name="t", input_gb=32.0)
        state = SystemState(
            hour=2.0,
            source_remaining_gb=16.0,
            stored_input={"ec2.m1.large": 4.0},
            map_done_gb=12.0,
            # Output of the completed map work is parked on EC2 disks.
            stored_output={"ec2.m1.large": 12.0 * job.map_output_ratio},
        )
        plan, _ = plan_for(
            default_problem(goal=Goal.min_cost(deadline_hours=4.0), state=state)
        )
        # Only the remaining halves move.
        assert plan.total_uploaded_gb() == pytest.approx(16.0, abs=1e-4)
        assert plan.total_map_gb() == pytest.approx(20.0, abs=1e-4)
        assert plan.intervals[0].start_hour == pytest.approx(2.0)


DATA_ARRAYS = ("objective", "data", "row_lb", "row_ub", "var_lb", "var_ub")


def snapshot(built):
    compiled = built.model.compile()
    return {name: getattr(compiled, name).copy() for name in DATA_ARRAYS}


def layout_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from layout_arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from layout_arrays(item)


class TestSharedLayout:
    """Builds of one shape share an immutable layout and nothing else."""

    A = dict(goal=Goal.min_time(budget_usd=40.0, horizon_hours=6))
    B = dict(
        goal=Goal.min_time(budget_usd=25.0, horizon_hours=6),
        job=PlannerJob(name="b", input_gb=20.0, map_output_ratio=0.01),
        network=NetworkConditions.from_mbit_s(11.0),
    )

    def test_a_build_in_between_leaves_no_trace(self):
        first = build_model(default_problem(**self.A))
        other = build_model(default_problem(**self.B))
        again = build_model(default_problem(**self.A))
        assert first.layout is other.layout is again.layout
        before, between, after = snapshot(first), snapshot(other), snapshot(again)
        for name in DATA_ARRAYS:
            assert np.array_equal(before[name], after[name]), name
        assert not np.array_equal(before["data"], between["data"])
        assert not np.array_equal(before["row_ub"], between["row_ub"])

    def test_builds_share_no_data_memory_and_cannot_write_the_layout(self):
        one = build_model(default_problem(**self.A))
        two = build_model(default_problem(**self.A))
        a, b = one.model.compile(), two.model.compile()
        for name in DATA_ARRAYS:
            assert not np.shares_memory(getattr(a, name), getattr(b, name)), name
            assert getattr(a, name).flags.writeable, name
        shared = list(layout_arrays(vars(one.layout)))
        assert len(shared) > 20
        for array in shared:
            assert not array.flags.writeable
            for name in DATA_ARRAYS:
                assert not np.shares_memory(array, getattr(a, name)), name
        # With no zero coefficient to drop (this min-time pair has some in
        # its budget row), the structure a build hands out *is* the
        # layout's, read-only.
        plain = build_model(default_problem())
        pattern = plain.model.compile()
        assert pattern.indices is plain.layout.indices
        assert pattern.indptr is plain.layout.indptr
        with pytest.raises(ValueError, match="read-only"):
            pattern.indices[0] = 0

    def test_concurrent_builds_of_one_shape_do_not_mix(self):
        import sys
        import threading

        problems = [default_problem(**self.A), default_problem(**self.B)]
        expected = [snapshot(build_model(p)) for p in problems]
        barrier = threading.Barrier(3)
        wrong: list[str] = []

        def builder(slot):
            barrier.wait(30.0)
            for _ in range(150):
                got = snapshot(build_model(problems[slot % 2]))
                for name in DATA_ARRAYS:
                    if not np.array_equal(got[name], expected[slot % 2][name]):
                        wrong.append(f"slot {slot}: {name}")

        threads = [threading.Thread(target=builder, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_patching_a_retained_copy_leaves_fresh_builds_alone(self):
        from repro.lp.incremental import diff_compiled
        from repro.service.incremental import _own_copy

        fresh = snapshot(build_model(default_problem(**self.A)))
        retained = _own_copy(build_model(default_problem(**self.A)).model.compile())
        target = build_model(default_problem(**self.B)).model.compile()
        delta = diff_compiled(retained, target)
        assert delta is not None and len(delta.rows) and len(delta.entries)
        assert delta.objective is not None
        delta.apply(retained)
        for name in DATA_ARRAYS:
            assert np.array_equal(getattr(retained, name), getattr(target, name)), name
        after = snapshot(build_model(default_problem(**self.A)))
        for name in DATA_ARRAYS:
            assert np.array_equal(fresh[name], after[name]), name


def without_row(compiled, row: int):
    """``compiled`` with one row sliced out of its CSR arrays."""
    lo, hi = compiled.indptr[row], compiled.indptr[row + 1]
    keep = np.arange(compiled.num_rows) != row
    indptr = np.concatenate(
        (compiled.indptr[: row + 1], compiled.indptr[row + 2:] - (hi - lo)))
    return dataclasses.replace(
        compiled,
        indptr=indptr.astype(compiled.indptr.dtype),
        indices=np.delete(compiled.indices, np.s_[lo:hi]),
        data=np.delete(compiled.data, np.s_[lo:hi]),
        row_lb=compiled.row_lb[keep],
        row_ub=compiled.row_ub[keep],
    )


#: How far apart two proven optima of the same problem may lie.
#: HiGHS prunes a node whose bound is within ``mip_feasibility_tolerance``
#: (1e-6 by default) of the incumbent, even at zero gaps, so two default
#: runs can already differ by a little more than this.
PROVEN_ABS = 1e-6


def proven_optimum(compiled):
    """``(objective, x)`` of a HiGHS run with no relative and no absolute
    gap (``scipy_backend.solve`` keeps HiGHS's default absolute one), or
    ``None`` without an optimum.

    HiGHS's absolute tolerances are tightened to a tenth of
    :data:`PROVEN_ABS`, so what branch & bound prunes as no better stays
    well inside it."""
    h = scipy_backend._load(compiled, integral=True, resolve=PROVEN_ABS)
    h.setOptionValue("mip_rel_gap", 0.0)
    h.setOptionValue("mip_abs_gap", 0.0)
    h.setOptionValue("time_limit", 60.0)
    with scipy_backend._muted_stdout():
        h.run()
    if scipy_backend._status(h, mip=True).value != "optimal":
        return None
    objective = h.getInfo().objective_function_value + compiled.objective_offset
    return objective, np.asarray(h.getSolution().col_value)


@st.composite
def one_compute_service_problems(draw):
    """Spot or S3+EC2 m1.large, fresh or mid-run, min-cost or budgeted
    min-time, with or without constant nodes; at most 6 intervals."""
    spot = draw(st.booleans())
    services = spot_services() if spot else [ec2_m1_large(), s3()]
    horizon = draw(st.integers(2, 6))
    # 16 Mbit/s moves 7.2 GB an hour.  Sizes and progress move in steps:
    # a sliver of state (1e-8 GB) only measures HiGHS's tolerances.
    job = PlannerJob(name="p", input_gb=draw(st.integers(1, 14 * horizon)) / 2)
    state = None
    if draw(st.booleans()):
        quarters = st.integers(0, 4)
        uploaded = job.input_gb * draw(quarters) / 4
        mapped = uploaded * draw(quarters) / 4
        state = SystemState(
            hour=1.0,
            source_remaining_gb=job.input_gb - uploaded,
            stored_input={"s3": uploaded - mapped},
            map_done_gb=mapped,
            stored_output={"s3": mapped * job.map_output_ratio},
        )
    if draw(st.booleans()):
        goal = Goal.min_cost(deadline_hours=float(horizon))
    else:
        goal = Goal.min_time(budget_usd=draw(st.floats(0.5, 20.0)),
                             horizon_hours=horizon)
    estimates = {}
    if spot:
        estimates = {services[0].name: draw(
            st.lists(st.floats(0.05, 0.4), min_size=1, max_size=horizon))}
    return PlanningProblem(
        job=job,
        services=services,
        network=NetworkConditions.from_mbit_s(16.0),
        goal=goal,
        state=state,
        constant_nodes=draw(st.booleans()),
        spot_price_estimates=estimates,
    )


@st.composite
def capped_mix_problems(draw):
    """EC2 m1.large + S3 beside one or two capped local clusters of drawn
    size and rate, fresh or mid-run, min-cost or budgeted min-time."""
    clusters = [
        local_cluster(nodes=draw(st.integers(1, 4)),
                      throughput=draw(st.integers(2, 12)) / 20)
        for _ in range(draw(st.integers(1, 2)))
    ]
    if len(clusters) == 2:
        clusters[1] = clusters[1].replace(name="local.cluster2")
    horizon = draw(st.integers(2, 5))
    job = PlannerJob(name="p", input_gb=draw(st.integers(1, 14 * horizon)) / 2)
    state = None
    if draw(st.booleans()):
        uploaded = job.input_gb * draw(st.integers(0, 4)) / 4
        mapped = uploaded * draw(st.integers(0, 4)) / 4
        state = SystemState(
            hour=1.0,
            source_remaining_gb=job.input_gb - uploaded,
            stored_input={"s3": uploaded - mapped},
            map_done_gb=mapped,
            stored_output={"s3": mapped * job.map_output_ratio},
        )
    if draw(st.booleans()):
        goal = Goal.min_cost(deadline_hours=float(horizon))
    else:
        goal = Goal.min_time(budget_usd=draw(st.floats(0.5, 20.0)),
                             horizon_hours=horizon)
    return PlanningProblem(
        job=job, services=[ec2_m1_large(), s3(), *clusters], network=NET,
        goal=goal, state=state, constant_nodes=draw(st.booleans()),
    )


class TestNodeHoursRow:
    """One compute service without a node cap (or one compute service):
    Σ_t nodes[c,t] >= ⌈node-hours of the work left, less what the capped
    services can do at most⌉.

    The row is the capacity rows scaled to c's rate and summed over t
    and services, with the completion rows substituted and each capped
    service at its cap, rounded up: every integer-feasible point
    satisfies it, so it may tighten the root bound but never move the
    optimum.
    """

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=st.one_of(one_compute_service_problems(), capped_mix_problems()))
    # At HiGHS's default tolerances the run with the row stops 1.01e-6
    # above the one without it.
    @example(problem=PlanningProblem(
        job=PlannerJob(name="p", input_gb=11.0),
        services=[ec2_m1_large(), s3(), local_cluster(nodes=3, throughput=0.1)],
        network=NET, goal=Goal.min_time(budget_usd=5.8984375, horizon_hours=3),
        state=SystemState(hour=1.0, source_remaining_gb=8.25,
                          stored_input={"s3": 0.0}, map_done_gb=2.75,
                          stored_output={"s3": 0.0055})))
    def test_the_row_keeps_the_proven_optimum(self, problem):
        built = build_model(problem)
        row = built.model.row_names.index("node_hours")
        tight = built.model.compile()
        with_row = proven_optimum(tight)
        without = proven_optimum(without_row(tight, row))
        assert (with_row is None) == (without is None)
        if without is None:
            return
        # The untightened optimum already satisfies the row, so it is
        # feasible for the tightened model: the row cut nothing off.
        counted = tight.indices[tight.indptr[row]:tight.indptr[row + 1]]
        node_hours = without[1][counted].sum()
        assert node_hours >= tight.row_lb[row] - 1e-6
        # Two proven optima agree to 1e-9 relative or to PROVEN_ABS,
        # whichever is looser.
        assert with_row[0] == pytest.approx(without[0], rel=1e-9, abs=PROVEN_ABS)

    def test_spot_8gb_12h_closes_near_the_root(self):
        # 1,122 branch & bound nodes without the row.
        problem = compile_spec(JobSpec(input_gb=8.0, catalog="spot",
                                       goal=GoalSpec(deadline_hours=12.0)))
        solution = build_model(problem).solve()
        assert solution.status.value == "optimal"
        assert solution.mip_node_count <= 10

    def test_two_compute_services_get_no_row(self):
        # c1.xlarge costs two m1.large nodes and maps faster than both:
        # neither dominates the other.
        built = build_model(default_problem(
            services=[ec2_m1_large(), ec2_c1_xlarge(), s3()]))
        assert len(built.layout.key.compute) == 2
        assert "node_hours" not in built.model.row_names
        assert "node_hours" not in built.layout.rhs


    def test_the_capped_services_lower_the_right_hand_side(self):
        problem = default_problem(services=hybrid_cloud(local_nodes=5),
                                  goal=Goal.min_cost(deadline_hours=8.0))
        built = build_model(problem)
        compiled = built.model.compile()
        row = built.model.row_names.index("node_hours")
        counted = compiled.indices[compiled.indptr[row]:compiled.indptr[row + 1]]
        assert counted.tolist() == built.layout.nodes[0].tolist()  # m1.large
        job = problem.job
        # 32 GB at 0.44 GB/h plus the reduce, less 5 local nodes x 8 h at
        # the same rate.
        work = 32.0 / 0.44 + job.map_output_gb / (0.44 * 4.0) - 5 * 8
        assert compiled.row_lb[row] == math.ceil(work - 1e-6)


def tiebreak_free(compiled, tiebreak):
    """``compiled`` with its objective's tie-breakers taken out."""
    return dataclasses.replace(compiled, objective=compiled.objective - tiebreak)


@st.composite
def dominated_pair_problems(draw):
    """``(problem, dominated)``: compute services ``c`` and ``d`` in
    either order, with or without S3; fresh or mid-run, min-cost or
    budgeted min-time, with or without migration.
    When ``dominated``, ``d`` costs ``k`` times ``c`` or a little more,
    maps at most ``k`` times as fast, holds at most ``k`` times the disk
    and pays equal or dearer storage, request and transfer prices.
    Otherwise one of those draws misses, by a little."""
    dominated = draw(st.integers(0, 3)) > 0
    k = draw(st.integers(1, 3))
    price = draw(st.integers(2, 8)) / 20
    rate = draw(st.integers(6, 12)) / 20
    disk = draw(st.sampled_from([0.0, 100.0, 850.0]))
    tstore = draw(st.sampled_from([0.0, 0.02]))
    c = ec2_m1_large().replace(
        name="ec2.c", price_per_node_hour=price, throughput_gb_per_hour=rate,
        storage_gb_per_node=disk, can_store=disk > 0, cost_tstore_gb_hour=tstore)
    dearer = draw(st.booleans())
    d = c.replace(
        name="ec2.d",
        price_per_node_hour=k * price + draw(st.integers(0, 3)) / 20 * price,
        throughput_gb_per_hour=min(k * rate, k * rate * draw(st.integers(10, 20)) / 20),
        storage_gb_per_node=disk * k * draw(st.integers(0, 4)) / 4,
        cost_tstore_gb_hour=tstore * draw(st.integers(1, 2)),
        cost_put=1e-6 if dearer else 0.0,
        transfer_out_cost_gb=c.transfer_out_cost_gb + (0.01 if dearer else 0.0),
    )
    if not dominated:
        miss = draw(st.sampled_from(["price", "rate", "disk", "storage price"]))
        if miss == "price":
            d = d.replace(price_per_node_hour=k * price * 0.95)
        elif miss == "rate":
            d = d.replace(throughput_gb_per_hour=k * rate * 1.2)
        elif miss == "disk":
            d = d.replace(storage_gb_per_node=(disk or 100.0) * k * 1.2,
                          can_store=True)
        else:
            c = c.replace(cost_get=1e-5)
    compute = [c, d] if draw(st.booleans()) else [d, c]
    horizon = draw(st.integers(2, 5))
    # 16 Mbit/s moves 7.2 GB an hour, 2 Mbit/s 0.9: over the slow link
    # small inputs wait to fill a node-hour.
    network = NetworkConditions.from_mbit_s(draw(st.sampled_from([2.0, 16.0])))
    hourly = int(network.uplink_gb_per_hour * 2)
    job = PlannerJob(name="p", input_gb=draw(st.integers(1, hourly * horizon)) / 2)
    state = None
    if draw(st.booleans()):
        holder = "ec2.c" if disk else "s3"
        uploaded = job.input_gb * draw(st.integers(0, 4)) / 4
        mapped = uploaded * draw(st.integers(0, 4)) / 4
        state = SystemState(
            hour=1.0,
            source_remaining_gb=job.input_gb - uploaded,
            stored_input={holder: uploaded - mapped},
            map_done_gb=mapped,
            stored_output={holder: mapped * job.map_output_ratio},
        )
    if draw(st.booleans()):
        goal = Goal.min_cost(deadline_hours=float(horizon))
    else:
        goal = Goal.min_time(budget_usd=draw(st.floats(0.5, 20.0)),
                             horizon_hours=horizon)
    migrate = draw(st.booleans())
    # Storage billed by the hour on c keeps d while data may migrate (in
    # flight it is billed on neither).
    dominated = dominated and not (migrate and tstore and disk)
    # Without S3, stocks wait on c and d themselves.
    storage = [s3()] if draw(st.booleans()) or not disk else []
    problem = PlanningProblem(
        job=job, services=[*compute, *storage], network=network, goal=goal,
        state=state, constant_nodes=draw(st.booleans()), allow_migration=migrate,
    )
    return problem, dominated


class TestDominatedServices:
    """A compute service another one dominates gets no columns: every
    plan using it maps onto the dominating service at no higher cost, so
    the optimum over the kept services is the optimum over all."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=dominated_pair_problems())
    # Storage billed by the hour on both, migration on: leaving d out
    # would cost 1.70045 against 1.70040, the in-flight saving.
    @example(drawn=(PlanningProblem(
        job=PlannerJob(name="p", input_gb=2.0),
        services=[ec2_m1_large().replace(name="ec2.c", cost_tstore_gb_hour=0.02),
                  ec2_m1_large().replace(name="ec2.d", cost_tstore_gb_hour=0.02,
                                         price_per_node_hour=0.68,
                                         throughput_gb_per_hour=0.88)],
        network=NetworkConditions.from_mbit_s(2.0),
        goal=Goal.min_cost(deadline_hours=6.0)), False))
    def test_the_kept_services_keep_the_proven_optimum(self, drawn):
        problem, dominated = drawn
        built = build_model(problem)
        if dominated:
            # One is left: c, or of equal twins the first in the catalog.
            assert len(built.layout.key.compute) == 1
        kept = proven_optimum(tiebreak_free(built.model.compile(),
                                            built.layout.tiebreak))
        # The full catalog, laid out with no service left out, also
        # without tie-breakers: both sides are the cost (and, for
        # min-time goals, the completion weights) alone.
        with mock.patch.object(model_builder, "kept_problem", lambda p: p):
            every = build_model(problem)
        full = tiebreak_free(every.model.compile(), every.layout.tiebreak)
        assert "nodes[ec2.d,1]" in full.col_names
        everything = proven_optimum(full)
        assert (kept is None) == (everything is None)
        if kept is None:
            return
        # As for the node-hours row: proven optima agree to 1e-9
        # relative or to PROVEN_ABS.
        assert kept[0] == pytest.approx(everything[0], rel=1e-9, abs=PROVEN_ABS)


def kept_compute(services, **overrides):
    problem = default_problem(services=services, **overrides)
    return [c.name for c in kept_problem(problem).compute_services()]


class TestDominanceRule:
    def test_public_and_hybrid_leave_out_m1_xlarge(self):
        assert kept_compute(public_cloud()) == ["ec2.m1.large"]
        assert kept_compute(public_cloud(KMEANS_FAST_THROUGHPUT_GB_H)) == [
            "ec2.m1.large"]
        assert kept_compute(hybrid_cloud(local_nodes=5)) == [
            "ec2.m1.large", "local.cluster"]

    def test_spot_leaves_out_nothing(self):
        services = spot_services()
        assert kept_compute(services) == [c.name for c in services if c.can_compute]

    def test_the_full_ec2_catalog_leaves_out_six_of_eleven(self):
        assert kept_compute(full_instance_catalog() + [s3()]) == [
            "ec2.t1.micro", "ec2.m1.small", "ec2.m1.large", "ec2.c1.medium",
            "ec2.c1.xlarge"]

    def test_fig1_instance_types_keep_c1_xlarge(self):
        assert kept_compute(instance_types() + [s3()]) == [
            "ec2.m1.large", "ec2.c1.xlarge"]

    def test_nothing_dominated_returns_the_problem_itself(self):
        problem = default_problem(services=spot_services())
        assert kept_problem(problem) is problem
        kept = kept_problem(default_problem())
        assert kept_problem(kept) is kept

    def test_a_spot_service_neither_dominates_nor_is_dominated(self):
        spot = ec2_m1_large().replace(name="ec2.m1.large.spot", is_spot=True)
        assert kept_compute([spot, ec2_m1_xlarge(), s3()]) == [
            "ec2.m1.large.spot", "ec2.m1.xlarge"]
        assert kept_compute([ec2_m1_large(), spot.replace(
            price_per_node_hour=0.68, throughput_gb_per_hour=0.85), s3()]) == [
            "ec2.m1.large", "ec2.m1.large.spot"]

    def test_a_capped_service_dominates_nothing(self):
        capped = ec2_m1_large().replace(max_nodes=20)
        assert kept_compute([capped, ec2_m1_xlarge(), s3()]) == [
            "ec2.m1.large", "ec2.m1.xlarge"]

    def test_a_stock_on_the_dominated_service_keeps_it(self):
        state = SystemState(hour=1.0, source_remaining_gb=30.0,
                            stored_input={"ec2.m1.xlarge": 2.0})
        assert kept_compute(public_cloud(), state=state) == [
            "ec2.m1.large", "ec2.m1.xlarge"]

    def test_an_upload_fraction_on_the_dominated_service_keeps_it(self):
        assert kept_compute(public_cloud(), upload_fractions={
            "ec2.m1.xlarge": 0.5}) == ["ec2.m1.large", "ec2.m1.xlarge"]

    def test_a_partial_fraction_on_the_dominating_service_keeps_it(self):
        # xlarge could take the unpinned half of the uploads, which
        # m1.large's pinned fraction could not absorb.
        assert kept_compute(public_cloud(), upload_fractions={
            "ec2.m1.large": 0.5}) == ["ec2.m1.large", "ec2.m1.xlarge"]
        # Fractions that pin every byte leave xlarge none (Figs. 8, 9).
        assert kept_compute(public_cloud(), upload_fractions={
            "ec2.m1.large": 0.65, "s3": 0.35}) == ["ec2.m1.large"]

    def test_dearer_storage_on_the_dominating_service_keeps_it(self):
        for change in (dict(cost_tstore_gb_hour=1e-5), dict(cost_put=1e-6),
                       dict(cost_get=1e-6), dict(transfer_out_cost_gb=0.2),
                       dict(transfer_in_cost_gb=0.01)):
            dearer = ec2_m1_large().replace(**change)
            assert kept_compute([dearer, ec2_m1_xlarge(), s3()]) == [
                "ec2.m1.large", "ec2.m1.xlarge"], change

    def test_storage_billed_by_the_hour_keeps_it_while_data_may_migrate(self):
        # Data migrating between the two is billed on neither in flight.
        billed = [ec2_m1_large().replace(cost_tstore_gb_hour=1e-4),
                  ec2_m1_xlarge().replace(cost_tstore_gb_hour=1e-4), s3()]
        assert kept_compute(billed) == ["ec2.m1.large", "ec2.m1.xlarge"]
        assert kept_compute(billed, allow_migration=False) == ["ec2.m1.large"]

    def test_a_finite_capacity_of_its_own_keeps_it(self):
        # Both capacities would add up on m1.large.
        owned = [ec2_m1_large().replace(storage_capacity_gb=100.0),
                 ec2_m1_xlarge().replace(storage_capacity_gb=100.0), s3()]
        assert kept_compute(owned) == ["ec2.m1.large", "ec2.m1.xlarge"]

    def test_less_work_or_disk_per_price_keeps_it(self):
        assert kept_compute([ec2_m1_large(), ec2_m1_xlarge().replace(
            throughput_gb_per_hour=0.9), s3()]) == ["ec2.m1.large", "ec2.m1.xlarge"]
        assert kept_compute([ec2_m1_large(), ec2_m1_xlarge().replace(
            storage_gb_per_node=1800.0), s3()]) == ["ec2.m1.large", "ec2.m1.xlarge"]

    def test_another_provider_keeps_it(self):
        assert kept_compute([ec2_m1_large(), ec2_m1_xlarge().replace(
            provider="other"), s3()]) == ["ec2.m1.large", "ec2.m1.xlarge"]

    def test_of_equal_twins_the_first_is_kept(self):
        twin = ec2_m1_large().replace(name="ec2.m1.large.twin")
        assert kept_compute([ec2_m1_large(), twin, s3()]) == ["ec2.m1.large"]
        assert kept_compute([twin, ec2_m1_large(), s3()]) == ["ec2.m1.large.twin"]

    def test_the_structural_fingerprint_follows_the_kept_services(self):
        full = default_problem()
        assert structure_key(full) == structure_key(
            default_problem(services=[ec2_m1_large(), s3()]))
        built = build_model(full)
        assert built.problem.compute_services() == [ec2_m1_large()]
        plan = built.extract_plan(built.solve())
        assert all("ec2.m1.xlarge" not in i.nodes for i in plan.intervals)


def row_activity(compiled, x):
    """``A x`` from the compiled CSR arrays."""
    rows = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    return np.bincount(rows, weights=compiled.data * x[compiled.indices],
                       minlength=compiled.num_rows)


class TestIntegralRoot:
    """``scipy_backend.solve`` answers from the LP relaxation only when
    its optimum is integral and feasible, which makes it a MIP optimum
    at zero gap; anything else is branch & bound's, inside ``mip_gap``."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=one_compute_service_problems())
    # Few draws close at the root; this one does.
    @example(problem=PlanningProblem(
        job=PlannerJob(name="p", input_gb=0.5), services=[ec2_m1_large(), s3()],
        network=NET, goal=Goal.min_cost(deadline_hours=2.0), constant_nodes=True))
    def test_a_relaxation_answer_is_the_proven_optimum(self, problem):
        compiled = build_model(problem).model.compile()
        with mock.patch.object(scipy_backend, "_load",
                               wraps=scipy_backend._load) as load:
            solution = scipy_backend.solve(compiled, mip_gap=0.01)
        from_root = [call.kwargs["integral"] for call in load.call_args_list] == [False]
        proven = proven_optimum(compiled)
        assert (proven is None) == (not solution.status.has_solution)
        if proven is None:
            return
        x = solution.x
        # Both sides in the objective HiGHS minimizes (no offset).
        found = float(compiled.objective @ x)
        best = proven[0] - compiled.objective_offset
        if from_root:
            assert solution.mip_node_count == 0
            assert found == pytest.approx(best, rel=1e-9, abs=1e-6)
            assert np.array_equal(x[compiled.integrality],
                                  np.rint(x[compiled.integrality]))
            assert (x >= compiled.var_lb - 1e-6).all()
            assert (x <= compiled.var_ub + 1e-6).all()
            activity = row_activity(compiled, x)
            assert (activity >= compiled.row_lb - 1e-6).all()
            assert (activity <= compiled.row_ub + 1e-6).all()
        else:
            assert found - best <= 0.01 * abs(found) + 1e-6


class TestStateValidation:
    def test_overfull_state_rejected(self):
        from repro.core import SystemState

        state = SystemState(
            source_remaining_gb=30.0,
            stored_input={"s3": 10.0},
            map_done_gb=10.0,
        )
        with pytest.raises(ValueError):
            build_model(default_problem(state=state))


@given(
    input_gb=st.floats(4.0, 96.0),
    deadline=st.integers(6, 20),
)
@settings(max_examples=12, deadline=None)
def test_property_conservation_across_random_jobs(input_gb, deadline):
    """Flow conservation holds for arbitrary job sizes and horizons."""
    upload_hours = input_gb / NET.uplink_gb_per_hour
    if deadline < upload_hours + 1.0:
        deadline = int(upload_hours + 2)
    problem = default_problem(
        job=PlannerJob(name="p", input_gb=input_gb),
        goal=Goal.min_cost(deadline_hours=float(deadline)),
    )
    built = build_model(problem)
    solution = built.solve()
    assert solution.status.has_solution
    plan = built.extract_plan(solution)
    assert plan.total_uploaded_gb() == pytest.approx(input_gb, rel=1e-4)
    assert plan.total_map_gb() == pytest.approx(input_gb, rel=1e-4)
    assert violated(problem, solution) == []


def test_a_zero_coefficient_is_no_entry():
    # map_output_ratio == 0 zeroes the read side of every map_io row: the
    # build drops those entries, so its sparsity is its own, not the
    # layout's.
    problem = default_problem(
        job=PlannerJob(name="p", input_gb=16.0, map_output_ratio=0.0))
    built = build_model(problem)
    compiled = built.model.compile()
    assert len(compiled.data) < len(built.layout.data)
    assert compiled.indices is not built.layout.indices
    assert np.all(compiled.data != 0.0)
    # The size summary still counts the terms the formulation wrote.
    assert built.model.stats()["nonzeros"] == len(built.layout.data)
    same_shape = dataclasses.replace(problem, job=dataclasses.replace(
        problem.job, input_gb=1e-6, map_output_ratio=0.002))
    assert build_model(same_shape).layout is built.layout


MID_RUN = SystemState(
    hour=2.0, source_remaining_gb=16.0, stored_input={"ec2.m1.large": 4.0},
    map_done_gb=12.0, stored_output={"ec2.m1.large": 0.02, "s3": 0.002},
    reduce_done_gb=0.002, stored_result={"s3": 0.001}, downloaded_gb=0.001,
)
SPOT = spot_services()

#: One problem per branch the layout takes: every flag, goal, catalog
#: kind and state shape.
STRUCTURES = {
    "spot_estimates": default_problem(
        services=SPOT, goal=Goal.min_cost(deadline_hours=9.0),
        spot_price_estimates={SPOT[0].name: [0.3, 0.1, 0.25]}),
    "spot_without_estimates": default_problem(services=SPOT),
    "min_time_hybrid": default_problem(
        services=hybrid_cloud(local_nodes=5),
        goal=Goal.min_time(budget_usd=30.0, horizon_hours=7)),
    "constant_nodes": default_problem(constant_nodes=True),
    "no_migration": default_problem(allow_migration=False),
    "strict_phase_gap": default_problem(strict_phase_gap=True),
    "upload_read_lag": default_problem(upload_read_lag=1),
    "upload_fractions": default_problem(
        upload_fractions={"s3": 0.25, "ec2.m1.large": 0.75},
        goal=Goal.min_cost(deadline_hours=8.0)),
    "mid_run_state": default_problem(
        goal=Goal.min_cost(deadline_hours=4.0), state=MID_RUN),
    "mid_run_min_time": default_problem(
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=5), state=MID_RUN),
    "no_reduce_by_size": default_problem(job=PlannerJob(name="p", input_gb=1e-6)),
    "no_reduce_min_time": default_problem(
        job=PlannerJob(name="p", input_gb=16.0, map_output_ratio=0.0),
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=6)),
    "no_result": default_problem(
        job=PlannerJob(name="p", input_gb=16.0, reduce_output_ratio=0.0),
        goal=Goal.min_time(budget_usd=40.0, horizon_hours=6)),
    "half_hour_intervals": default_problem(interval_hours=0.5),
    "everything": default_problem(
        services=hybrid_cloud(local_nodes=3),
        goal=Goal.min_time(budget_usd=50.0, horizon_hours=6),
        constant_nodes=True, strict_phase_gap=True, upload_read_lag=1,
        upload_fractions={"local.cluster": 0.5}, state=MID_RUN),
}


@pytest.mark.parametrize("name", STRUCTURES)
def test_every_structure_fills_its_layout_and_solves(name):
    problem = STRUCTURES[name]
    built = build_model(problem)
    compiled = built.model.compile()
    # No template slot was left unfilled.
    for array in ("objective", "data", "row_lb", "row_ub", "var_lb", "var_ub"):
        assert not np.isnan(getattr(compiled, array)).any(), array
    solution = built.solve(time_limit=60.0)
    assert solution.status.has_solution, solution.message
    assert violated(problem, solution) == []
