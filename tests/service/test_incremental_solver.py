"""IncrementalSolver: warm re-solves, fallback accounting, and the
isolation of its retained matrices from the models' compile caches."""

import gc
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core import Goal, NetworkConditions, PlannerJob, PlanningProblem
from repro.core.model_builder import PlanningError, build_model, structure_key
from repro.core.planner import Planner
from repro.cloud import hybrid_cloud, public_cloud
from repro.obs.registry import MetricsRegistry
from repro.service import (
    IncrementalSolver,
    structural_fingerprint,
    structural_payload,
)
from repro.lp import Solution, SolveStatus, scipy_backend
from repro.service.incremental import _own_copy
from repro.service.pool import SolverPool


def make_problem(input_gb=4.0, deadline=3.0, uplink=16.0) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(uplink),
        goal=Goal.min_cost(deadline_hours=deadline),
    )


def drift_series(n=4):
    """Same structure, small data drift — the replan hot path."""
    return [make_problem(uplink=16.0 + 0.1 * ((k % 3) - 1)) for k in range(n)]


class TestWarmEquality:
    def test_warm_resolves_match_cold_within_solver_tolerance(self):
        solver = IncrementalSolver()
        cold = Planner()
        solver.solve(make_problem())
        for problem in drift_series():
            warm_plan = solver.solve(problem)
            cold_plan = cold.plan(problem)
            assert warm_plan.solver_status == "optimal"
            assert warm_plan.objective_value == pytest.approx(
                cold_plan.objective_value, rel=0.01, abs=1e-6
            )
        assert solver.stats.warm >= 2

    def test_repeat_solve_of_identical_problem_is_warm_and_exact(self):
        solver = IncrementalSolver()
        first = solver.solve(make_problem())
        again = solver.solve(make_problem())
        assert solver.stats.warm == 1
        assert again.objective_value == pytest.approx(
            first.objective_value, rel=1e-6
        )

    def test_infeasible_problem_raises_planning_error(self):
        solver = IncrementalSolver()
        with pytest.raises(PlanningError):
            solver.solve(make_problem(input_gb=500.0, deadline=1.0, uplink=1.0))


class TestAccounting:
    def test_every_solve_lands_in_exactly_one_bucket(self):
        solver = IncrementalSolver()
        solver.solve(make_problem())  # cold
        solver.solve(make_problem())  # warm
        solver.solve(make_problem(deadline=4.0))  # new structure: cold
        stats = solver.stats
        assert stats.solves == 3
        assert stats.cold == 2 and stats.warm == 1
        assert stats.warm_rate == pytest.approx(1 / 3)

    def test_different_horizons_do_not_share_structure(self):
        assert structural_fingerprint(make_problem(deadline=3.0)) != (
            structural_fingerprint(make_problem(deadline=4.0))
        )
        assert structural_fingerprint(make_problem(uplink=12.0)) == (
            structural_fingerprint(make_problem(uplink=20.0))
        )

    def test_shape_change_under_a_retained_key_counts_structural(self):
        solver = IncrementalSolver()
        problem = make_problem()
        solver.solve(problem)
        # Corrupt the retained matrix's shape so the next diff under the
        # same key cannot classify the change as pure data.
        key = structural_fingerprint(problem)
        entry = solver._entries.get(key)
        entry.compiled.indptr = np.append(entry.compiled.indptr, len(entry.compiled.data) + 1)
        entry.compiled.indices = np.append(entry.compiled.indices, 0)
        entry.compiled.data = np.append(entry.compiled.data, 1.0)
        entry.compiled.row_lb = np.append(entry.compiled.row_lb, 0.0)
        entry.compiled.row_ub = np.append(entry.compiled.row_ub, 1.0)
        plan = solver.solve(make_problem())
        assert plan.solver_status == "optimal"
        assert solver.stats.structural_fallbacks == 1
        # The stale entry was retired and re-seeded: next solve is warm.
        solver.solve(make_problem())
        assert solver.stats.warm == 1

    def test_metrics_counters_flow_into_the_registry(self):
        registry = MetricsRegistry()
        solver = IncrementalSolver(metrics=registry)
        solver.solve(make_problem())
        solver.solve(make_problem())
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["incremental.cold"] == 1
        assert counters["incremental.warm"] == 1


class TestShapeHasOneSource:
    """The structural fingerprint hashes the builder's own layout key,
    so "same fingerprint" cannot mean "different model" again (it once
    keyed on ``map_output_ratio > 0`` where the builder branches on
    ``map_output_gb > 1e-6``)."""

    @staticmethod
    def pair():
        from repro.api import GoalSpec, JobSpec, NetworkSpec
        from repro.api.compiler import compile_spec

        def spec(input_gb, uplink=16.0):
            return compile_spec(JobSpec(
                input_gb=input_gb, goal=GoalSpec(deadline_hours=6.0),
                network=NetworkSpec(uplink_mbit_s=uplink),
            ))

        return spec(32.0), spec(1e-6), spec(32.0, uplink=16.2)

    def test_a_job_too_small_to_reduce_is_another_shape(self):
        full, tiny, _ = self.pair()
        assert full.job.map_output_ratio == tiny.job.map_output_ratio > 0
        sizes = [build_model(p).model.stats() for p in (full, tiny)]
        assert sizes[0]["variables"] > sizes[1]["variables"]
        assert sizes[0]["constraints"] > sizes[1]["constraints"]
        assert structural_fingerprint(full) != structural_fingerprint(tiny)
        assert structural_payload(full) == structure_key(full)
        assert structural_payload(full).has_reduce
        assert not structural_payload(tiny).has_reduce

    def test_it_neither_collides_with_nor_evicts_the_full_jobs_entry(self):
        full, tiny, drifted = self.pair()
        solver = IncrementalSolver()
        assert kind_of(solver, full)[0] == "cold"
        assert kind_of(solver, tiny)[0] == "cold"  # not a structural fallback
        assert kind_of(solver, drifted)[0] == "warm"
        assert solver.stats.structural_fallbacks == 0


class TestRetainedMatrixIsolation:
    def test_own_copy_shares_no_mutable_state(self):
        compiled = build_model(make_problem()).model.compile()
        copied = _own_copy(compiled)
        copied.objective[0] = 123.0
        copied.data[0] = 456.0
        copied.row_lb[0] = -789.0
        copied.var_ub[0] = 0.5
        assert compiled.objective[0] != 123.0
        assert compiled.data[0] != 456.0
        assert compiled.row_lb[0] != -789.0
        assert compiled.var_ub[0] != 0.5

    def test_entry_patching_never_reaches_the_models_compile_cache(self):
        solver = IncrementalSolver()
        problem = make_problem()
        solver.solve(problem)
        key = structural_fingerprint(problem)
        before = _own_copy(solver._entries.get(key).compiled)
        # A drifted re-solve patches the retained matrix in place ...
        solver.solve(make_problem(uplink=17.0))
        after = solver._entries.get(key).compiled
        assert after.indices is before.indices  # sparsity untouched
        assert not np.array_equal(after.row_ub, before.row_ub)  # data moved
        # ... and a fresh compile of the original problem still carries
        # the original data, proving the retained copy was private.
        fresh = build_model(make_problem()).model.compile()
        assert np.array_equal(fresh.row_lb, before.row_lb)
        assert np.array_equal(fresh.row_ub, before.row_ub)


class TestPoolWarmPathConsistency:
    def test_incremental_pool_routes_through_the_solver(self):
        solver = IncrementalSolver()
        pool = SolverPool(mode="inline", incremental=solver)
        problem = make_problem()
        pool.submit(problem).result(timeout=120.0)
        pool.submit(problem).result(timeout=120.0)
        assert solver.stats.solves == 2
        assert solver.stats.warm == 1


class TestServiceIntegration:
    def test_incremental_service_reports_reuse_counters(self):
        from repro.service import PlanningService, ServiceConfig

        config = ServiceConfig(pool_mode="inline", max_workers=1, incremental=True)
        with PlanningService(config) as service:
            service.submit(make_problem()).result(timeout=120.0)
            service.submit(make_problem(uplink=16.2)).result(timeout=120.0)
            snapshot = service.metrics.registry.snapshot()
        counters = snapshot["counters"]
        # Distinct fingerprints miss the exact plan cache but share a
        # structure, so the second solve restarts warm — and both rates
        # are visible to `repro serve --metrics-json`.
        assert counters.get("incremental.cold", 0) == 1
        assert counters.get("incremental.warm", 0) == 1

    def test_stock_service_keeps_cold_semantics(self):
        from repro.service import PlanningService, ServiceConfig

        config = ServiceConfig(pool_mode="inline", max_workers=1)
        with PlanningService(config) as service:
            assert service.incremental is None
            result = service.submit(make_problem()).result(timeout=120.0)
            assert result.ok
            snapshot = service.metrics.registry.snapshot()
        assert "incremental.cold" not in snapshot["counters"]


def kind_of(solver, problem, time_limit=None):
    """Solve and say which bucket the solve landed in."""
    before = vars(solver.stats).copy()
    plan = solver.solve(problem, time_limit)
    moved = [k for k, v in vars(solver.stats).items() if v != before[k]]
    assert len(moved) == 1
    return moved[0], plan


def entry_of(solver, problem):
    return solver._entries.get(structural_fingerprint(problem))


def hybrid_problem(**kw) -> PlanningProblem:
    """:func:`make_problem` beside a 5-node local cluster: unlike the
    public model's, these MILPs keep a gap at the root."""
    return replace(make_problem(**kw), services=hybrid_cloud(local_nodes=5))


#: Same structure throughout.  The 8 GB step outgrows the pinned node
#: counts (infeasible candidate); the steps after it re-certify against
#: whatever assignment the last cold fallback retained, and the way back
#: down to 4 GB fails the gap window rather than feasibility.
SEQUENCE = [
    dict(uplink=16.3), dict(uplink=15.8), dict(input_gb=4.2),
    dict(input_gb=8.0), dict(input_gb=8.0, uplink=16.2),
    dict(input_gb=7.9, uplink=16.1), dict(input_gb=3.9, uplink=15.9),
    dict(), dict(uplink=16.05),
]


class TestDriftSequence:
    @pytest.mark.parametrize("strict", [False, True])
    def test_each_step_takes_its_decision_and_a_cold_equal_plan(self, strict):
        solver = IncrementalSolver(strict=strict)
        cold = Planner()
        solver.solve(hybrid_problem())
        kinds = []
        for kw in SEQUENCE:
            kind, plan = kind_of(solver, hybrid_problem(**kw))
            kinds.append(kind)
            assert plan.objective_value == pytest.approx(
                cold.plan(hybrid_problem(**kw)).objective_value, rel=0.01
            )
        if strict:
            # These MILPs have a root gap: strict mode never accepts.
            assert "warm" not in kinds
        else:
            assert isinstance(entry_of(solver, hybrid_problem()).lp, scipy_backend.HotLP)
            assert kinds.count("warm") == 5
            assert kinds.count("rejected_fallbacks") == 4

    def test_strict_mode_certifies_the_public_drift_warm(self):
        # The public model keeps m1.large alone (m1.xlarge is dominated),
        # and its node-hours row closes these MILPs at the root, so
        # strict mode now goes warm: on the three drift steps before the
        # 8 GB one and on the last.
        solver = IncrementalSolver(strict=True)
        cold = Planner()
        solver.solve(make_problem())
        kinds = []
        for kw in SEQUENCE:
            kind, plan = kind_of(solver, make_problem(**kw))
            kinds.append(kind)
            assert plan.objective_value == pytest.approx(
                cold.plan(make_problem(**kw)).objective_value, rel=0.01
            )
        assert kinds[:3] == ["warm"] * 3
        assert kinds.count("warm") == 4


class TestHotInstanceLifecycle:
    def test_instance_and_gap_memo_wait_for_the_first_reuse(self):
        solver = IncrementalSolver()
        problem = make_problem()
        cold_plan = solver.solve(problem)
        entry = entry_of(solver, problem)
        # A cold solve retains data only: no LP, no relaxation solve.
        assert entry.lp is None and entry.gap_slack == 0.0
        assert entry.cold_objective == pytest.approx(cold_plan.objective_value)

        base = _own_copy(entry.compiled)
        solver.solve(make_problem(uplink=16.2))
        assert entry_of(solver, problem) is entry and entry.lp is not None
        # The memo is the cold optimum's gap to the root relaxation of the
        # matrix it was found on (not of the patched one), as an
        # independent from-scratch relaxation solve measures it.
        base.integrality = np.zeros(base.num_vars, dtype=bool)
        root = scipy_backend.solve(base, 30.0)
        assert entry.gap_slack == pytest.approx(
            cold_plan.objective_value - root.objective, abs=1e-6
        )
        lp = entry.lp
        solver.solve(make_problem(uplink=15.9))
        assert entry.lp is lp  # one instance per retained structure

    def test_strict_mode_skips_the_gap_memo_run(self):
        solver = IncrementalSolver(strict=True)
        solver.solve(make_problem())
        solver.solve(make_problem(uplink=16.2))
        assert entry_of(solver, make_problem()).gap_slack == 0.0

    def test_infeasible_candidate_goes_cold_then_the_structure_is_warm_again(self):
        solver = IncrementalSolver()
        solver.solve(make_problem())
        assert kind_of(solver, make_problem(uplink=16.2))[0] == "warm"
        old = entry_of(solver, make_problem())
        old_lp = old.lp

        kind, plan = kind_of(solver, make_problem(input_gb=8.0))
        assert kind == "rejected_fallbacks"
        assert plan.objective_value == pytest.approx(
            Planner().plan(make_problem(input_gb=8.0)).objective_value, rel=0.01
        )
        fresh = entry_of(solver, make_problem())
        assert fresh is not old and fresh.lp is None  # rebuilt on next use

        kind, plan = kind_of(solver, make_problem(input_gb=8.0, uplink=16.2))
        assert kind == "warm"
        assert fresh.lp is not None and fresh.lp is not old_lp
        assert plan.objective_value == pytest.approx(
            Planner().plan(make_problem(input_gb=8.0, uplink=16.2)).objective_value,
            rel=0.01,
        )

    def test_lru_eviction_drops_the_instance(self):
        solver = IncrementalSolver(capacity=1)
        solver.solve(make_problem())
        solver.solve(make_problem(uplink=16.2))
        dropped = weakref.ref(entry_of(solver, make_problem()).lp)
        assert dropped() is not None
        solver.solve(make_problem(deadline=4.0))  # another structure
        assert entry_of(solver, make_problem()) is None
        gc.collect()
        assert dropped() is None

    def test_structural_fallback_drops_the_instance_untouched(self, monkeypatch):
        solver = IncrementalSolver()
        problem = make_problem()
        solver.solve(problem)
        solver.solve(make_problem(uplink=16.2))
        entry = entry_of(solver, problem)
        dropped = weakref.ref(entry.lp)
        calls = []
        for name in ("patch", "set_col_bounds", "run"):
            monkeypatch.setattr(
                type(entry.lp), name,
                lambda self, *a, _name=name, **kw: calls.append(_name),
            )
        # A bound flipping finite -> infinite is structure (see
        # lp/incremental.py): diff_compiled says None before the LP is
        # asked to change anything.
        col = np.flatnonzero(np.isfinite(entry.compiled.var_ub))[0]
        entry.compiled.var_ub[col] = math.inf
        kind, plan = kind_of(solver, make_problem(uplink=16.1))
        assert kind == "structural_fallbacks" and plan.solver_status == "optimal"
        assert calls == []
        del entry
        gc.collect()
        assert dropped() is None
        assert entry_of(solver, problem).lp is None

    def test_sparsity_change_never_reaches_the_instance(self, monkeypatch):
        solver = IncrementalSolver()
        problem = make_problem()
        solver.solve(problem)
        solver.solve(make_problem(uplink=16.2))
        entry = entry_of(solver, problem)
        calls = []
        for name in ("patch", "set_col_bounds", "run"):
            monkeypatch.setattr(
                type(entry.lp), name,
                lambda self, *a, _name=name, **kw: calls.append(_name),
            )
        # One more entry in the last row: a sparsity pattern of its own.
        compiled = entry.compiled
        compiled.indptr = compiled.indptr.copy()
        compiled.indptr[-1] += 1
        compiled.indices = np.append(compiled.indices, compiled.num_vars - 1)
        compiled.data = np.append(compiled.data, 1.0)
        assert kind_of(solver, make_problem(uplink=16.1))[0] == "structural_fallbacks"
        assert calls == []


class TestTimeLimits:
    """``tests/lp/test_hot_lp.py`` shows what a tripped run is (status
    ``ERROR``, no basis); a planning LP this small re-solves in too few
    pivots for HiGHS to look at its clock, so here the trip is forced:
    the run gets a zero budget and is reported as out of time."""

    @staticmethod
    def trip(monkeypatch, lp):
        run = type(lp).run

        def tripped(self, time_limit=None, basis=None):
            run(self, 0.0, basis)
            return scipy_backend.LPRun(SolveStatus.ERROR)

        monkeypatch.setattr(type(lp), "run", tripped)

    def test_tripped_hot_run_falls_back_to_a_cold_solve(self, monkeypatch):
        solver = IncrementalSolver()
        solver.solve(make_problem())
        solver.solve(make_problem(uplink=16.2))
        self.trip(monkeypatch, entry_of(solver, make_problem()).lp)
        kind, plan = kind_of(solver, make_problem(uplink=15.7))
        assert kind == "rejected_fallbacks"
        assert plan.solver_status == "optimal"
        assert plan.objective_value == pytest.approx(
            Planner().plan(make_problem(uplink=15.7)).objective_value, rel=1e-9
        )

    def test_request_out_of_time_everywhere_leaves_the_instance_usable(
        self, monkeypatch
    ):
        solver = IncrementalSolver()
        solver.solve(make_problem())
        solver.solve(make_problem(uplink=16.2))
        entry = entry_of(solver, make_problem())
        lp = entry.lp
        # The hot run trips and the cold fallback finds nothing either.
        self.trip(monkeypatch, lp)
        monkeypatch.setattr(
            scipy_backend, "solve",
            lambda *a, **kw: Solution(SolveStatus.ERROR, message="time limit"),
        )
        with pytest.raises(PlanningError):
            solver.solve(make_problem(uplink=15.7))
        assert solver.stats.rejected_fallbacks == 1
        monkeypatch.undo()
        # The entry, its instance and its bases survived; the next request
        # is warm on the same instance and right.
        kind, plan = kind_of(solver, make_problem(uplink=16.4))
        assert kind == "warm"
        assert entry_of(solver, make_problem()) is entry and entry.lp is lp
        reference = IncrementalSolver()
        reference.solve(make_problem())
        assert plan.objective_value == pytest.approx(
            reference.solve(make_problem(uplink=16.4)).objective_value, rel=1e-7
        )


class TestConcurrentReplansOfOneStructure:
    def test_each_thread_gets_the_plan_for_its_own_data(self):
        # Three threads (more than this box has cores), one structure,
        # sixty different right answers: a plan read off another
        # thread's patch would show.
        sizes = [[4.0 + 0.01 * k for k in range(20)],
                 [4.205 - 0.01 * k for k in range(20)],
                 [4.0025 + 0.01 * k for k in range(20)]]

        def reference(series):
            solver = IncrementalSolver()
            solver.solve(make_problem())
            return [solver.solve(make_problem(input_gb=gb)).objective_value
                    for gb in series]

        expected = [reference(series) for series in sizes]
        assert len({round(v, 7) for series in expected for v in series}) == 60

        solver = IncrementalSolver()
        solver.solve(make_problem())
        barrier = threading.Barrier(len(sizes))
        got = [[] for _ in sizes]

        def replan(slot):
            barrier.wait(30.0)
            for gb in sizes[slot]:
                got[slot].append(
                    solver.solve(make_problem(input_gb=gb)).objective_value
                )

        threads = [
            threading.Thread(target=replan, args=(slot,))
            for slot in range(len(sizes))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert solver.stats.warm == 60
        for slot in range(len(sizes)):
            assert got[slot] == pytest.approx(expected[slot], rel=2e-8)
