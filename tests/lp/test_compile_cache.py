"""The compiled-matrix cache: reused while clean, dropped on mutation."""

import pytest

from repro.lp.model import Model


def toy_model() -> Model:
    m = Model("toy")
    x = m.add_var("x", ub=4)
    y = m.add_var("y", ub=4)
    m.add_constr(x + 2 * y <= 6, "cap")
    m.maximize(3 * x + 2 * y)
    return m


class TestCompileCache:
    def test_recompile_returns_same_object(self):
        m = toy_model()
        assert m.compile() is m.compile()

    def test_add_var_invalidates(self):
        m = toy_model()
        first = m.compile()
        m.add_var("z", ub=1)
        second = m.compile()
        assert second is not first
        assert second.num_vars == first.num_vars + 1

    def test_add_constr_invalidates(self):
        m = toy_model()
        x = m.variables[0]
        first = m.compile()
        m.add_constr(x <= 2, "tighter")
        second = m.compile()
        assert second is not first
        assert second.num_rows == first.num_rows + 1

    def test_objective_change_invalidates(self):
        m = toy_model()
        x = m.variables[0]
        first = m.compile()
        m.minimize(x)
        second = m.compile()
        assert second is not first
        assert second.negated != first.negated

    def test_bound_mutated_in_place_forces_a_recompile(self):
        # ``var.ub = ...`` bypasses every invalidation hook; the cache is
        # revalidated against the live bounds, so the next compile (and
        # solve) must see the tightened bound, not the stale matrix.
        m = toy_model()
        x = m.variables[0]
        first = m.compile()
        assert m.solve().objective == pytest.approx(14.0)
        x.ub = 1.0
        second = m.compile()
        assert second is not first
        assert second.var_ub[x.index] == 1.0
        solution = m.solve()
        assert solution.value(x) <= 1.0 + 1e-9
        assert solution.objective == pytest.approx(3 * 1 + 2 * 2.5)
        assert m.compile() is second

    def test_resolve_after_mutation_sees_new_model(self):
        m = toy_model()
        x, y = m.variables
        assert m.solve().objective == pytest.approx(14.0)
        m.add_constr(x <= 1, "cap_x")
        assert m.solve().objective == pytest.approx(3 * 1 + 2 * 2.5)

    def test_repeated_solves_agree(self):
        m = toy_model()
        assert m.solve().objective == pytest.approx(m.solve().objective)
