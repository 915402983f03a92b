"""The diffing layer: classify model changes as patchable data deltas or
structural breaks, and solve a patched matrix like a freshly compiled one."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import milp_oracle
from arrays import INF, matrix_model
from repro.lp import SolveStatus
from repro.lp.incremental import CompiledDelta, diff_compiled
from repro.lp import scipy_backend


def small_lp(cost=(1.0, 2.0), rhs=10.0, ub=8.0, extra_rows=()):
    """min cost @ (x, y) s.t. x + y >= rhs / 2, 2x + y <= rhs."""
    rows = [([1, 1], rhs * 0.5, INF), ([2, 1], -INF, rhs), *extra_rows]
    return matrix_model(list(cost), rows, ub=ub, names=("x", "y"))


class TestDiffClassification:
    def test_identical_models_diff_empty(self):
        delta = diff_compiled(small_lp().compile(), small_lp().compile())
        assert isinstance(delta, CompiledDelta)
        assert delta.empty

    def test_cost_change_is_a_patch(self):
        delta = diff_compiled(
            small_lp().compile(), small_lp(cost=(3.0, 2.0)).compile()
        )
        assert delta is not None and not delta.empty
        assert delta.objective is not None
        assert not len(delta.cols) and not len(delta.rows) and not len(delta.entries)

    def test_rhs_change_is_a_patch(self):
        delta = diff_compiled(small_lp().compile(), small_lp(rhs=12.0).compile())
        assert delta is not None
        assert delta.rows.tolist() == [0, 1]
        assert delta.row_lb.tolist() == [6.0, -np.inf]
        assert delta.row_ub.tolist() == [np.inf, 12.0]
        assert delta.objective is None

    def test_bound_change_is_a_patch(self):
        delta = diff_compiled(small_lp().compile(), small_lp(ub=6.0).compile())
        assert delta is not None
        assert delta.cols.tolist() == [0, 1]
        assert delta.col_ub.tolist() == [6.0, 6.0]

    def test_coefficient_change_on_same_sparsity_is_a_patch(self):
        def build(coef):
            return matrix_model([-1.0, -1.0], [([coef, 1], -INF, 6.0)],
                                ub=4.0).compile()

        delta = diff_compiled(build(2.0), build(2.5))
        assert delta is not None
        assert delta.entries.tolist() == [0]
        assert (delta.entry_rows.tolist(), delta.entry_cols.tolist()) == ([0], [0])
        assert delta.coefs.tolist() == [2.5]

    def test_new_constraint_is_structural(self):
        a = small_lp()
        b = small_lp(extra_rows=[([1, -1], -INF, 1.0)])
        assert diff_compiled(a.compile(), b.compile()) is None

    def test_sparsity_change_is_structural(self):
        def build(with_y):
            row = [1, 1 if with_y else 0]
            return matrix_model([-1.0, -0.1], [(row, -INF, 3.0)], ub=4.0).compile()

        assert diff_compiled(build(True), build(False)) is None

    def test_integrality_change_is_structural(self):
        def build(integer):
            return matrix_model([-1.0], [([1], -INF, 3.0)], ub=4.0,
                                integer=integer).compile()

        assert diff_compiled(build(False), build(True)) is None

    def test_renamed_column_is_structural(self):
        def build(name):
            return matrix_model([-1.0], [([1], -INF, 3.0)], ub=4.0,
                                names=(name,)).compile()

        assert diff_compiled(build("x"), build("z")) is None

    def test_bound_finiteness_flip_is_structural(self):
        def build(ub):
            return matrix_model([-1.0], [([1], -INF, 3.0)], ub=ub).compile()

        assert diff_compiled(build(4.0), build(float("inf"))) is None


class TestApply:
    @pytest.mark.parametrize(
        "mutate",
        [
            dict(cost=(5.0, 0.5)),
            dict(rhs=14.0),
            dict(ub=5.0),
            dict(cost=(0.2, 9.0), rhs=7.0, ub=7.5),
        ],
    )
    def test_patched_matrix_equals_fresh_compile(self, mutate):
        old = copy.deepcopy(small_lp().compile())
        new = small_lp(**mutate).compile()
        delta = diff_compiled(old, new)
        assert delta is not None
        delta.apply(old)
        assert old.objective_offset == new.objective_offset
        for name in ("objective", "indptr", "indices", "data",
                     "row_lb", "row_ub", "var_lb", "var_ub"):
            assert np.array_equal(getattr(old, name), getattr(new, name)), name


def feasible(compiled, x, tol=1e-7):
    if np.any(x < compiled.var_lb - tol) or np.any(x > compiled.var_ub + tol):
        return False
    ax = np.zeros(compiled.num_rows)
    row_of = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    np.add.at(ax, row_of, compiled.data * x[compiled.indices])
    return bool(np.all(ax >= compiled.row_lb - tol) and np.all(ax <= compiled.row_ub + tol))


data = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),   # cost x
    st.floats(min_value=0.1, max_value=5.0),   # cost y
    st.floats(min_value=4.0, max_value=20.0),  # rhs
    st.floats(min_value=3.0, max_value=10.0),  # ub
)


class TestWarmColdAgreementProperties:
    @settings(max_examples=40, deadline=None)
    @given(base=data, perturbed=data)
    def test_patched_warm_solve_agrees_with_cold_on_both_backends(
        self, base, perturbed
    ):
        # Keep both programs feasible: y = rhs/2 (x = 0) must fit in ub.
        assume(base[2] <= 2.0 * base[3])
        assume(perturbed[2] <= 2.0 * perturbed[3])
        old = copy.deepcopy(small_lp(cost=base[:2], rhs=base[2], ub=base[3]).compile())

        target = small_lp(
            cost=perturbed[:2], rhs=perturbed[2], ub=perturbed[3]
        ).compile()
        delta = diff_compiled(old, target)
        assert delta is not None  # same family -> always a pure-data patch
        delta.apply(old)

        # Both solvers, cold, on the patched matrix and on the fresh one.
        patched_milp = milp_oracle.solve(old)
        patched_scipy = scipy_backend.solve(old, 30.0)
        fresh_milp = milp_oracle.solve(target)
        fresh_scipy = scipy_backend.solve(target, 30.0)

        assert (
            patched_milp.status
            is patched_scipy.status
            is fresh_milp.status
            is fresh_scipy.status
        )
        if patched_milp.status is SolveStatus.OPTIMAL:
            scale = max(1.0, abs(fresh_milp.objective))
            assert abs(patched_milp.objective - fresh_milp.objective) <= 1e-9 * scale
            assert abs(patched_scipy.objective - fresh_scipy.objective) <= 1e-9 * scale
            assert abs(patched_milp.objective - fresh_scipy.objective) <= 1e-7 * scale
            for patched in (patched_milp, patched_scipy):
                assert feasible(old, patched.x)
