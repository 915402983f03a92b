"""Cross-validation of HiGHS (``Model.solve``) against the reference
oracle — ``scipy.optimize.milp`` on the same compiled arrays
(``milp_oracle``) — plus property-based agreement tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milp_oracle
from repro.lp import Model, SolveStatus, VarType, scipy_backend


def oracle(model):
    """The reference solve, finished the way ``Model.solve`` finishes
    HiGHS's: a value for every model variable, the objective evaluated
    from the model's own expression."""
    solution = milp_oracle.solve(model.compile())
    if solution.status.has_solution:
        solution.values = {
            var: float(solution.x[var.index]) for var in model.variables
        }
        solution.objective = model.objective.evaluate(solution.values)
    return solution


def both_backends(model):
    return model.solve(), oracle(model)


class TestAgreementHandPicked:
    def test_degenerate_lp(self):
        m = Model()
        x = m.add_var("x", ub=1)
        y = m.add_var("y", ub=1)
        m.add_constr(x + y <= 1)
        m.add_constr(x + y >= 1)
        m.maximize(x)
        a, b = both_backends(m)
        assert a.objective == pytest.approx(b.objective)

    def test_equality_constraints(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(x + y == 10)
        m.add_constr(x - y == 2)
        m.minimize(x + 2 * y)
        a, b = both_backends(m)
        assert a.value(x) == pytest.approx(6.0)
        assert b.value(x) == pytest.approx(6.0)

    def test_negative_lower_bounds(self):
        m = Model()
        x = m.add_var("x", lb=-5, ub=5)
        m.add_constr(x >= -3)
        m.minimize(x)
        a, b = both_backends(m)
        assert a.value(x) == pytest.approx(-3.0)
        assert b.value(x) == pytest.approx(-3.0)

    def test_knapsack_milp(self):
        weights = [2, 3, 4, 5, 9]
        values = [3, 4, 5, 8, 10]
        m = Model()
        xs = m.add_vars("x", len(weights), ub=1, vtype=VarType.INTEGER)
        m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 10)
        m.maximize(sum(v * x for v, x in zip(values, xs)))
        a, b = both_backends(m)
        # Optimum: items with weights 2+3+5 (values 3+4+8 = 15).
        assert a.objective == pytest.approx(15.0)
        assert b.objective == pytest.approx(15.0)

    def test_integer_infeasible(self):
        m = Model()
        x = m.add_var("x", vtype=VarType.INTEGER)
        m.add_constr(2 * x == 3)  # no integer solution
        a, b = both_backends(m)
        assert a.status is SolveStatus.INFEASIBLE
        assert b.status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        m = Model()
        n = m.add_var("n", ub=10, vtype=VarType.INTEGER)
        f = m.add_var("f", ub=3.5)
        m.add_constr(n + f >= 4.2)
        m.minimize(2 * n + f)
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
    m = Model()
    x = m.add_var("x", vtype=VarType.INTEGER)
    y = m.add_var("y", vtype=VarType.INTEGER)
    m.add_constr(6 * x + 4 * y <= 24)
    m.add_constr(x + 2 * y <= 6)
    m.maximize(5 * x + 4 * y)
    return m, x, y


class TestIntegralRoot:
    """A MILP whose LP relaxation is integral at its optimum is answered
    by that LP; every other one goes on to branch & bound."""

    def test_fractional_relaxation_reaches_branch_and_bound(self, monkeypatch):
        loads = spy_loads(monkeypatch)
        m, x, y = fractional_root()
        solution = m.solve()
        assert loads == [False, True]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(20.0)
        assert (solution.value(x), solution.value(y)) == (4.0, 0.0)

    def test_integral_relaxation_is_the_answer(self, monkeypatch):
        loads = spy_loads(monkeypatch)
        m = Model()
        x = m.add_var("x", ub=3, vtype=VarType.INTEGER)
        y = m.add_var("y", vtype=VarType.INTEGER)
        m.add_constr(x + y <= 4)
        m.maximize(2 * x + y)
        solution = m.solve()
        assert loads == [False]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.mip_node_count == 0
        assert solution.message == "Optimal"
        assert (solution.value(x), solution.value(y)) == (3.0, 1.0)
        assert solution.objective == pytest.approx(7.0)

    def test_a_point_that_snapping_pushes_off_a_row_is_not_certified(
        self, monkeypatch
    ):
        loads = spy_loads(monkeypatch)
        m = Model()
        x = m.add_var("x", ub=10, vtype=VarType.INTEGER)
        m.add_constr(1000 * x >= 2000.0005)  # the relaxation: x = 2.0000005
        m.minimize(x)
        solution = m.solve()
        assert loads == [False, True]
        assert solution.value(x) == 3.0

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
        m, _, _ = fractional_root()
        solution = m.solve(time_limit=10.0)
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


class TestAgreementProperty:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_on_random_lps(self, problem):
        coefs, rhs, objective, ubs = problem
        m = Model()
        xs = [m.add_var(f"x{i}", ub=ub) for i, ub in enumerate(ubs)]
        for row, b in zip(coefs, rhs):
            m.add_constr(sum(c * x for c, x in zip(row, xs)) <= b)
        m.maximize(sum(c * x for c, x in zip(objective, xs)))
        a, b = both_backends(m)
        assert a.status is SolveStatus.OPTIMAL
        assert b.status is SolveStatus.OPTIMAL
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    @given(random_lp())
    @settings(max_examples=40, deadline=None)
    def test_solutions_satisfy_their_model(self, problem):
        coefs, rhs, objective, ubs = problem
        m = Model()
        xs = [m.add_var(f"x{i}", ub=ub, vtype=VarType.INTEGER) for i, ub in enumerate(ubs)]
        for row, b in zip(coefs, rhs):
            m.add_constr(sum(c * x for c, x in zip(row, xs)) <= b)
        m.maximize(sum(c * x for c, x in zip(objective, xs)))
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert m.check_feasible(solution.values) == []

    @given(random_lp())
    @settings(max_examples=30, deadline=None)
    def test_integer_optimum_never_beats_relaxation(self, problem):
        coefs, rhs, objective, ubs = problem
        relaxed = Model()
        integral = Model()
        xs_r = [relaxed.add_var(f"x{i}", ub=ub) for i, ub in enumerate(ubs)]
        xs_i = [
            integral.add_var(f"x{i}", ub=ub, vtype=VarType.INTEGER)
            for i, ub in enumerate(ubs)
        ]
        for row, b in zip(coefs, rhs):
            relaxed.add_constr(sum(c * x for c, x in zip(row, xs_r)) <= b)
            integral.add_constr(sum(c * x for c, x in zip(row, xs_i)) <= b)
        relaxed.maximize(sum(c * x for c, x in zip(objective, xs_r)))
        integral.maximize(sum(c * x for c, x in zip(objective, xs_i)))
        upper = relaxed.solve().objective
        achieved = integral.solve().objective
        assert achieved <= upper + 1e-6
