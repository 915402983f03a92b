"""Unit tests for the LP expression algebra."""

import pytest

from repro.lp import LinExpr, Model, Sense, Variable, VarType, lin_sum
from repro.lp.expr import Constraint


@pytest.fixture
def model():
    return Model("expr-test")


@pytest.fixture
def xy(model):
    return model.add_var("x"), model.add_var("y")


class TestVariable:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Variable("bad", 0, lb=5.0, ub=1.0)

    def test_binary_clamps_bounds(self):
        v = Variable("b", 0, lb=-3, ub=7, vtype=VarType.BINARY)
        assert v.lb == 0.0
        assert v.ub == 1.0

    def test_semicontinuous_requires_finite_ub(self):
        with pytest.raises(ValueError):
            Variable("sc", 0, vtype=VarType.SEMI_CONTINUOUS)

    def test_semicontinuous_rejects_negative_sc_lb(self):
        with pytest.raises(ValueError):
            Variable("sc", 0, ub=5, vtype=VarType.SEMI_CONTINUOUS, sc_lb=-1)

    def test_repr_contains_name(self, xy):
        x, _ = xy
        assert "x" in repr(x)

    def test_hash_is_identity_based(self, model):
        a = model.add_var("a")
        b = model.add_var("b")
        assert hash(a) != hash(b) or a is b

    def test_hash_is_the_c_level_identity_hash(self, xy):
        x, y = xy
        # Not a Python ``def``: variables key every term dict, so the hash
        # slot must be object's own (== overloads would otherwise drop it).
        assert Variable.__hash__ is object.__hash__
        assert LinExpr.__hash__ is object.__hash__
        twin = Variable("x", x.index)
        assert hash(x) == object.__hash__(x) != hash(twin)
        terms = {x: 1.0, twin: 2.0, y: 3.0}
        assert len(terms) == 3 and terms[x] == 1.0 and terms[twin] == 2.0
        expr = x + y
        assert {expr: "e"}[expr] == "e"


class TestAlgebra:
    def test_addition_of_variables(self, xy):
        x, y = xy
        expr = x + y
        assert expr.coefficient(x) == 1.0
        assert expr.coefficient(y) == 1.0

    def test_scalar_multiplication(self, xy):
        x, _ = xy
        expr = 3 * x
        assert expr.coefficient(x) == 3.0

    def test_subtraction_and_negation(self, xy):
        x, y = xy
        expr = x - 2 * y
        assert expr.coefficient(y) == -2.0
        neg = -expr
        assert neg.coefficient(x) == -1.0
        assert neg.coefficient(y) == 2.0

    def test_rsub_constant(self, xy):
        x, _ = xy
        expr = 10 - x
        assert expr.constant == 10.0
        assert expr.coefficient(x) == -1.0

    def test_division(self, xy):
        x, _ = xy
        expr = (4 * x) / 2
        assert expr.coefficient(x) == 2.0

    def test_division_by_zero_raises(self, xy):
        x, _ = xy
        with pytest.raises(ZeroDivisionError):
            (x + 1) / 0

    def test_multiplication_by_expression_rejected(self, xy):
        x, y = xy
        with pytest.raises(TypeError):
            (x + 1) * (y + 1)

    def test_sum_builtin_compatibility(self, xy):
        x, y = xy
        expr = sum([x, y, 2 * x])
        assert expr.coefficient(x) == 3.0

    def test_constant_folding(self, xy):
        x, _ = xy
        expr = x + 1 + 2 + 3
        assert expr.constant == 6.0

    def test_terms_cancel_to_zero_coefficient(self, xy):
        x, _ = xy
        expr = x - x
        assert expr.coefficient(x) == 0.0
        assert expr.variables() == []

    def test_evaluate(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y + 1
        assert expr.evaluate({x: 1.0, y: 2.0}) == pytest.approx(9.0)

    def test_copy_is_independent(self, xy):
        x, _ = xy
        original = x + 1
        clone = original.copy()
        clone.terms[x] = 99.0
        assert original.coefficient(x) == 1.0

    def test_from_value_rejects_garbage(self):
        with pytest.raises(TypeError):
            LinExpr.from_value("not a number")


class TestLinSum:
    def test_empty(self):
        expr = lin_sum([])
        assert expr.constant == 0.0
        assert not expr.terms

    def test_mixed_items(self, xy):
        x, y = xy
        expr = lin_sum([x, 2 * y, 5, x + y])
        assert expr.coefficient(x) == 2.0
        assert expr.coefficient(y) == 3.0
        assert expr.constant == 5.0

    def test_bare_variables_expressions_and_numbers_mix(self, xy):
        x, y = xy
        scaled = 2 * y - 1
        before = dict(scaled.terms)
        expr = lin_sum([x, scaled, 5, x, 0.5, y, x - y])
        assert list(expr.terms) == [x, y]  # first-seen order, as with +
        assert expr.coefficient(x) == 3.0
        assert expr.coefficient(y) == 2.0
        assert expr.constant == 4.5
        assert isinstance(expr.constant, float)
        # Items are read, never modified or adopted.
        assert scaled.terms == before and scaled.constant == -1.0
        assert expr.terms is not scaled.terms

    def test_rejects_non_numeric_items(self, xy):
        with pytest.raises(TypeError):
            lin_sum([xy[0], "3"])

    def test_equivalent_to_repeated_addition(self, model):
        xs = model.add_vars("v", 50)
        a = lin_sum(xs)
        b = LinExpr()
        for x in xs:
            b = b + x
        assert all(a.coefficient(x) == b.coefficient(x) for x in xs)


class TestConstraints:
    def test_le_builds_constraint(self, xy):
        x, y = xy
        constraint = x + y <= 5
        assert isinstance(constraint, Constraint)
        assert constraint.sense is Sense.LE
        assert constraint.rhs == pytest.approx(5.0)

    def test_ge_builds_constraint(self, xy):
        x, _ = xy
        constraint = x >= 2
        assert constraint.sense is Sense.GE
        assert constraint.rhs == pytest.approx(2.0)

    def test_eq_builds_constraint(self, xy):
        x, y = xy
        constraint = x + y == 3
        assert constraint.sense is Sense.EQ

    def test_variable_vs_variable(self, xy):
        x, y = xy
        constraint = x <= y
        assert constraint.expr.coefficient(x) == 1.0
        assert constraint.expr.coefficient(y) == -1.0

    def test_satisfied_by(self, xy):
        x, y = xy
        constraint = x + 2 * y <= 6
        assert constraint.satisfied_by({x: 2.0, y: 2.0})
        assert not constraint.satisfied_by({x: 3.0, y: 2.0})

    def test_eq_satisfied_within_tolerance(self, xy):
        x, _ = xy
        constraint = x == 1
        assert constraint.satisfied_by({x: 1.0 + 1e-9})
        assert not constraint.satisfied_by({x: 1.01})

    def test_rhs_moves_constant(self, xy):
        x, _ = xy
        constraint = x + 3 <= 10
        assert constraint.rhs == pytest.approx(7.0)
