"""Unit tests for the Model container and compilation."""

import math

import pytest

from repro.lp import Model, SolveStatus, VarType


class TestConstruction:
    def test_duplicate_variable_names_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_var("x")

    def test_add_vars_names_and_count(self):
        m = Model()
        xs = m.add_vars("v", 5)
        assert len(xs) == 5
        assert xs[3].name == "v[3]"

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ValueError):
            m2.add_constr(x <= 1)

    def test_add_constr_requires_constraint(self):
        m = Model()
        with pytest.raises(TypeError):
            m.add_constr(True)  # type: ignore[arg-type]

    def test_num_integers_counts_all_discrete_kinds(self):
        m = Model()
        m.add_var("c")
        m.add_var("i", vtype=VarType.INTEGER)
        m.add_var("b", vtype=VarType.BINARY)
        m.add_var("s", ub=5, vtype=VarType.SEMI_CONTINUOUS, sc_lb=1)
        assert m.num_integers == 3

    def test_stats(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        m.add_constr(x + y <= 1)
        stats = m.stats()
        assert stats["variables"] == 2
        assert stats["constraints"] == 1
        assert stats["nonzeros"] == 2


class TestCompilation:
    def test_sense_rows(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x <= 3)
        m.add_constr(x >= 1)
        m.add_constr(x == 2)
        compiled = m.compile()
        assert compiled.row_ub[0] == pytest.approx(3.0)
        assert compiled.row_lb[0] == -math.inf
        assert compiled.row_lb[1] == pytest.approx(1.0)
        assert compiled.row_lb[2] == compiled.row_ub[2] == pytest.approx(2.0)

    def test_maximize_negates(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.maximize(5 * x)
        compiled = m.compile()
        assert compiled.negated
        assert compiled.objective[x.index] == pytest.approx(-5.0)

    def test_semicontinuous_lowering_adds_binary_column(self):
        m = Model()
        m.add_var("z", ub=10, vtype=VarType.SEMI_CONTINUOUS, sc_lb=2)
        compiled = m.compile()
        assert compiled.num_vars == 2
        assert bool(compiled.integrality[1]) is True
        assert compiled.col_names == ("z", None)  # the indicator has no variable
        assert compiled.num_rows == 2  # x <= Uz and x >= Lz

    def test_objective_offset(self):
        m = Model()
        x = m.add_var("x", ub=2)
        m.minimize(x + 7)
        solution = m.solve()
        assert solution.objective == pytest.approx(7.0)


class TestSolveBasics:
    def test_lp_optimum(self):
        m = Model()
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=4)
        m.add_constr(x + 2 * y <= 6)
        m.maximize(3 * x + 2 * y)
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert solution.value(x) == pytest.approx(4.0)
        assert solution.value(y) == pytest.approx(1.0)

    def test_solution_value_of_expression(self):
        m = Model()
        x = m.add_var("x", lb=1, ub=1)
        solution = m.solve()
        assert solution.value(2 * x + 3) == pytest.approx(5.0)
        assert solution.value(4.2) == pytest.approx(4.2)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constr(x >= 2)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")
        m.maximize(x)
        status = m.solve().status
        assert status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_integrality_enforced(self):
        m = Model()
        x = m.add_var("x", ub=10, vtype=VarType.INTEGER)
        m.add_constr(2 * x <= 7)
        m.maximize(x)
        solution = m.solve()
        assert solution.value(x) == pytest.approx(3.0)

    def test_semicontinuous_zero_or_range(self):
        # z must be 0 or in [4, 10]; constraint forces z <= 2.5 -> z = 0.
        m = Model()
        z = m.add_var("z", ub=10, vtype=VarType.SEMI_CONTINUOUS, sc_lb=4)
        m.add_constr(z <= 2.5)
        m.maximize(z)
        assert m.solve().value(z) == pytest.approx(0.0)

    def test_semicontinuous_reaches_range(self):
        m = Model()
        z = m.add_var("z", ub=10, vtype=VarType.SEMI_CONTINUOUS, sc_lb=4)
        m.add_constr(z <= 7)
        m.maximize(z)
        assert m.solve().value(z) == pytest.approx(7.0)

    def test_solution_bool(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.minimize(x)
        assert m.solve()
        m2 = Model()
        y = m2.add_var("y", ub=1)
        m2.add_constr(y >= 2)
        assert not m2.solve()


class TestCheckFeasible:
    def test_reports_violations(self):
        m = Model()
        x = m.add_var("x", ub=4)
        m.add_constr(x <= 2, "cap")
        violated = m.check_feasible({x: 3.0})
        assert len(violated) == 1
        assert violated[0].name == "cap"

    def test_bounds_and_integrality_checked(self):
        m = Model()
        x = m.add_var("x", ub=1, vtype=VarType.INTEGER)
        assert m.check_feasible({x: 0.5})  # fractional
        assert m.check_feasible({x: 2.0})  # above ub
        assert not m.check_feasible({x: 1.0})

    def test_solution_always_passes_check(self):
        m = Model()
        x = m.add_var("x", ub=9, vtype=VarType.INTEGER)
        y = m.add_var("y", ub=9)
        m.add_constr(3 * x + y >= 7)
        m.add_constr(x + y <= 8)
        m.minimize(2 * x + y)
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert m.check_feasible(solution.values) == []
