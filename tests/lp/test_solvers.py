"""Cross-validation of HiGHS (``MatrixModel.solve``) against the
reference oracle — ``scipy.optimize.milp`` on the same compiled arrays
(``milp_oracle``) — plus property-based agreement tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milp_oracle
from arrays import INF, matrix_model
from repro.lp import SolveStatus, scipy_backend


def both_backends(model):
    return model.solve(), milp_oracle.solve(model.compile())


class TestAgreementHandPicked:
    def test_degenerate_lp(self):
        m = matrix_model([1.0, 0.0], [([1, 1], -INF, 1.0), ([1, 1], 1.0, INF)],
                         ub=1.0, maximize=True)
        a, b = both_backends(m)
        assert a.objective == pytest.approx(b.objective)

    def test_equality_constraints(self):
        m = matrix_model([1.0, 2.0], [([1, 1], 10.0, 10.0), ([1, -1], 2.0, 2.0)])
        a, b = both_backends(m)
        assert a.x[0] == pytest.approx(6.0)
        assert b.x[0] == pytest.approx(6.0)

    def test_negative_lower_bounds(self):
        m = matrix_model([1.0], [([1], -3.0, INF)], lb=-5.0, ub=5.0)
        a, b = both_backends(m)
        assert a.x[0] == pytest.approx(-3.0)
        assert b.x[0] == pytest.approx(-3.0)

    def test_knapsack_milp(self):
        weights = [2, 3, 4, 5, 9]
        values = [3, 4, 5, 8, 10]
        m = matrix_model(values, [(weights, -INF, 10.0)], ub=1.0, integer=True,
                         maximize=True)
        a, b = both_backends(m)
        # Optimum: items with weights 2+3+5 (values 3+4+8 = 15).
        assert a.objective == pytest.approx(15.0)
        assert b.objective == pytest.approx(15.0)

    def test_integer_infeasible(self):
        m = matrix_model([0.0], [([2], 3.0, 3.0)], integer=True)  # no integer solution
        a, b = both_backends(m)
        assert a.status is SolveStatus.INFEASIBLE
        assert b.status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        # min 2n + f s.t. n + f >= 4.2, n integer in [0, 10], f in [0, 3.5].
        m = matrix_model([2.0, 1.0], [([1, 1], 4.2, INF)], ub=[10.0, 3.5],
                         integer=[True, False])
        a, b = both_backends(m)
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def spy_loads(monkeypatch):
    """The ``integral`` flag of every HiGHS instance a solve loads."""
    loads = []
    real = scipy_backend._load

    def load(compiled, integral, **options):
        loads.append(integral)
        return real(compiled, integral, **options)

    monkeypatch.setattr(scipy_backend, "_load", load)
    return loads


def fractional_root():
    """max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6: the relaxation stops
    at (3, 1.5) worth 21, the integer optimum is (4, 0) worth 20."""
    return matrix_model([5.0, 4.0], [([6, 4], -INF, 24.0), ([1, 2], -INF, 6.0)],
                        integer=True, maximize=True)


class TestIntegralRoot:
    """A MILP whose LP relaxation is integral at its optimum is answered
    by that LP; every other one goes on to branch & bound."""

    def test_fractional_relaxation_reaches_branch_and_bound(self, monkeypatch):
        loads = spy_loads(monkeypatch)
        solution = fractional_root().solve()
        assert loads == [False, True]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(20.0)
        assert solution.x.tolist() == [4.0, 0.0]

    def test_integral_relaxation_is_the_answer(self, monkeypatch):
        loads = spy_loads(monkeypatch)
        m = matrix_model([2.0, 1.0], [([1, 1], -INF, 4.0)], ub=[3.0, INF],
                         integer=True, maximize=True)
        solution = m.solve()
        assert loads == [False]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.mip_node_count == 0
        assert solution.message == "Optimal"
        assert solution.x.tolist() == [3.0, 1.0]
        assert solution.objective == pytest.approx(7.0)

    def test_a_point_that_snapping_pushes_off_a_row_is_not_certified(
        self, monkeypatch
    ):
        loads = spy_loads(monkeypatch)
        # The relaxation: x = 2.0000005.
        m = matrix_model([1.0], [([1000], 2000.0005, INF)], ub=10.0, integer=True)
        solution = m.solve()
        assert loads == [False, True]
        assert solution.x[0] == 3.0

    def test_branch_and_bound_gets_the_time_the_relaxation_left(
        self, monkeypatch
    ):
        import time

        limits = []

        class Slow(scipy_backend._hs._Highs):
            def setOptionValue(self, name, value):
                if name == "time_limit":
                    limits.append(value)
                return super().setOptionValue(name, value)

            def run(self):
                if len(limits) == 1:  # the relaxation
                    time.sleep(0.2)
                return super().run()

        monkeypatch.setattr(scipy_backend._hs, "_Highs", Slow)
        solution = fractional_root().solve(time_limit=10.0)
        assert solution.objective == pytest.approx(20.0)
        assert limits[0] == 10.0
        assert 0.0 < limits[1] <= 9.8


@st.composite
def random_lp(draw):
    """A random bounded-feasible LP: bounded box + <= constraints with
    non-negative coefficients (always feasible at the origin)."""
    num_vars = draw(st.integers(1, 4))
    num_cons = draw(st.integers(0, 4))
    coefs = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=num_vars, max_size=num_vars),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    rhs = draw(st.lists(st.integers(0, 20), min_size=num_cons, max_size=num_cons))
    objective = draw(
        st.lists(st.integers(-5, 5), min_size=num_vars, max_size=num_vars)
    )
    ubs = draw(st.lists(st.integers(1, 8), min_size=num_vars, max_size=num_vars))
    return coefs, rhs, objective, ubs


def random_model(problem, integer=False):
    coefs, rhs, objective, ubs = problem
    rows = [(row, -INF, b) for row, b in zip(coefs, rhs)]
    return matrix_model(objective, rows, ub=ubs, integer=integer, maximize=True)


def violations(compiled, x, tol=1e-6):
    """Rows, bounds and integrality ``x`` breaks (their count)."""
    rows = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    ax = np.bincount(rows, compiled.data * x[compiled.indices],
                     minlength=compiled.num_rows)
    return int(
        np.sum(ax < compiled.row_lb - tol) + np.sum(ax > compiled.row_ub + tol)
        + np.sum(x < compiled.var_lb - tol) + np.sum(x > compiled.var_ub + tol)
        + np.sum(compiled.integrality & (np.abs(x - np.rint(x)) > tol))
    )


class TestAgreementProperty:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_on_random_lps(self, problem):
        a, b = both_backends(random_model(problem))
        assert a.status is SolveStatus.OPTIMAL
        assert b.status is SolveStatus.OPTIMAL
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    @given(random_lp())
    @settings(max_examples=40, deadline=None)
    def test_solutions_satisfy_their_model(self, problem):
        m = random_model(problem, integer=True)
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert violations(m.compile(), solution.x) == 0

    @given(random_lp())
    @settings(max_examples=30, deadline=None)
    def test_integer_optimum_never_beats_relaxation(self, problem):
        upper = random_model(problem).solve().objective
        achieved = random_model(problem, integer=True).solve().objective
        assert achieved <= upper + 1e-6
