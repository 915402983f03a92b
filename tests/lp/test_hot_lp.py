"""HotLP: one persistent native HiGHS LP, patched in place and re-run
from a retained basis — and the one binding it and the cold path load."""

import dataclasses
import importlib
import sys

import numpy as np
import pytest

from arrays import INF, matrix_model
from repro.lp import SolveStatus, scipy_backend
from repro.lp.incremental import diff_compiled
from repro.lp.scipy_backend import HotLP


def knapsack(cost=(3.0, 4.0, 1.0), cap=7.0, ub=3.0, weight=2.0, offset=0.0):
    """Three integer items in ``[0, ub]`` and a continuous filler ``y``."""
    return matrix_model(
        [*cost, 0.5],
        [([weight, 3, 1, 1], -INF, cap), ([1, 1, 0, 0], 1.0, INF)],
        ub=[ub, ub, ub, 10.0], integer=[True, True, True, False],
        maximize=True, offset=offset,
    ).compile()


def relaxed(compiled):
    return dataclasses.replace(
        compiled, integrality=np.zeros(compiled.num_vars, dtype=bool)
    )


def cold_minimized(compiled):
    solution = scipy_backend.solve(relaxed(compiled), 30.0)
    assert solution.status is SolveStatus.OPTIMAL
    return -solution.objective if compiled.negated else solution.objective


class TestLoadAndRun:
    def test_run_solves_the_relaxation_like_the_cold_backend(self):
        compiled = knapsack(offset=2.5)
        run = HotLP(compiled).run(30.0)
        assert run.status is SolveStatus.OPTIMAL
        # Minimized space, offset included.
        assert run.objective == pytest.approx(cold_minimized(compiled), abs=1e-9)
        assert len(run.x) == compiled.num_vars
        assert run.basis is not None

    def test_rerun_from_the_returned_basis_reproduces_the_optimum(self):
        lp = HotLP(knapsack())
        first = lp.run(30.0)
        again = lp.run(30.0, first.basis)
        assert again.status is SolveStatus.OPTIMAL
        assert again.objective == pytest.approx(first.objective, abs=1e-9)
        assert again.x == pytest.approx(first.x, abs=1e-9)

    def test_infeasible_lp_reports_infeasible_and_recovers(self):
        compiled = knapsack()
        lp = HotLP(compiled)
        ints = np.flatnonzero(compiled.integrality)
        lp.set_col_bounds(ints, [3.0] * 3, [3.0] * 3)  # weight 18 > cap 7
        assert lp.run(30.0).status is SolveStatus.INFEASIBLE
        lp.set_col_bounds(ints, compiled.var_lb[ints], compiled.var_ub[ints])
        run = lp.run(30.0)
        assert run.status is SolveStatus.OPTIMAL
        assert run.objective == pytest.approx(cold_minimized(compiled), abs=1e-9)


class TestPatch:
    @pytest.mark.parametrize("target", [
        dict(cost=(1.0, 6.0, 2.0)),           # objective
        dict(cap=9.5),                        # row bounds
        dict(ub=2.0),                         # column bounds
        dict(weight=2.75),                    # matrix coefficient
        dict(offset=4.0),                     # objective offset
        dict(cost=(2.0, 2.0, 2.0), cap=5.0, ub=4.0, weight=1.5, offset=-1.0),
    ])
    def test_patched_instance_agrees_with_a_cold_solve_of_the_target(self, target):
        base, new = knapsack(), knapsack(**target)
        lp = HotLP(base)
        basis = lp.run(30.0).basis
        delta = diff_compiled(base, new)
        assert delta is not None and not delta.empty
        lp.patch(delta)
        run = lp.run(30.0, basis)
        assert run.status is SolveStatus.OPTIMAL
        assert run.objective == pytest.approx(cold_minimized(new), abs=1e-9)

    def test_pinning_integer_columns_solves_the_candidate_lp(self):
        compiled = knapsack()
        lp = HotLP(compiled)
        ints = np.flatnonzero(compiled.integrality)
        lp.set_col_bounds(ints, [1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
        run = lp.run(30.0)
        pinned = dataclasses.replace(
            compiled,
            var_lb=np.array([1.0, 1.0, 0.0, compiled.var_lb[3]]),
            var_ub=np.array([1.0, 1.0, 0.0, compiled.var_ub[3]]),
        )
        assert run.objective == pytest.approx(cold_minimized(pinned), abs=1e-9)
        assert run.x[:3] == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)


class TestTimeLimit:
    def test_limit_is_rebased_on_the_instances_cumulative_clock(self):
        # HiGHS's run clock never resets, so a fixed ``time_limit`` option
        # would expire a long-lived instance: each run's limit must be the
        # clock at its start plus its own budget.  No run comes near the
        # budget, so a scheduling stall cannot trip it.
        base, other = knapsack(), knapsack(cap=9.0, cost=(1.0, 6.0, 2.0))
        there, back = diff_compiled(base, other), diff_compiled(other, base)
        lp = HotLP(base)
        basis = lp.run(30.0).basis
        budget = 30.0
        for step in range(200):
            lp.patch(back if step % 2 else there)
            before = lp._h.getRunTime()
            run = lp.run(budget, basis)
            after = lp._h.getRunTime()
            assert run.status is SolveStatus.OPTIMAL, step
            basis = run.basis
            _, limit = lp._h.getOptionValue("time_limit")
            # A limit of ``budget`` alone would sit below ``before + budget``.
            assert 0.0 < before and before + budget <= limit <= after + budget

    def test_a_tripped_limit_does_not_poison_the_instance(self):
        base, other = knapsack(), knapsack(cap=9.0, cost=(1.0, 6.0, 2.0))
        lp = HotLP(base)
        first = lp.run(30.0)
        lp.patch(diff_compiled(base, other))  # the old basis needs pivots now
        tripped = lp.run(0.0, first.basis)
        assert tripped.status is SolveStatus.ERROR
        assert tripped.x is None and tripped.basis is None
        run = lp.run(30.0, first.basis)
        assert run.status is SolveStatus.OPTIMAL
        assert run.objective == pytest.approx(cold_minimized(other), abs=1e-9)


class TestBinding:
    def test_a_missing_binding_fails_the_import_naming_the_scipy_pin(
        self, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        monkeypatch.delitem(sys.modules, "repro.lp.scipy_backend")
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            importlib.import_module("repro.lp.scipy_backend")
