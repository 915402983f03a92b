"""Unit tests for solving a model given as arrays (``MatrixModel``)."""

import pytest

from arrays import INF, matrix_model
from repro.lp import SolveStatus


class TestCompilation:
    def test_objective_offset(self):
        m = matrix_model([1.0], ub=2.0, offset=7.0)
        solution = m.solve()
        assert solution.objective == pytest.approx(7.0)


class TestSolveBasics:
    def test_lp_optimum(self):
        # max 3x + 2y s.t. x + 2y <= 6, 0 <= x, y <= 4.
        m = matrix_model([3.0, 2.0], [([1, 2], -INF, 6.0)], ub=4.0, maximize=True)
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert solution.x[0] == pytest.approx(4.0)
        assert solution.x[1] == pytest.approx(1.0)

    def test_infeasible(self):
        m = matrix_model([0.0], [([1], 2.0, INF)], ub=1.0)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        status = matrix_model([1.0], maximize=True).solve().status
        assert status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_integrality_enforced(self):
        m = matrix_model([1.0], [([2], -INF, 7.0)], ub=10.0, integer=True,
                         maximize=True)
        assert m.solve().x[0] == pytest.approx(3.0)

    def test_solution_bool(self):
        assert matrix_model([1.0], ub=1.0).solve()
        assert not matrix_model([0.0], [([1], 2.0, INF)], ub=1.0).solve()
