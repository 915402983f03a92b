"""Unit tests for Pig expression evaluation and type inference."""

import pytest

from repro.pig import (
    BagProject,
    BinaryOp,
    BoolOp,
    Column,
    Comparison,
    Const,
    ExpressionError,
    FunctionCall,
    PigType,
    Schema,
    parse_expression,
)
from repro.pig.expressions import as_condition, selectivity_estimate
from repro.pig.schema import Field

SCHEMA = Schema.of("x:int", "y:double", "s:chararray", "flag:boolean")
ROW = (4, 2.5, "Web", True)


def ev(source, row=ROW, schema=SCHEMA):
    return parse_expression(source).evaluate(row, schema)


class TestEvaluation:
    def test_column_lookup(self):
        assert ev("x") == 4
        assert ev("$2") == "Web"

    def test_arithmetic(self):
        assert ev("x + 1") == 5
        assert ev("x * y") == 10.0
        assert ev("x - 6") == -2
        assert ev("x % 3") == 1

    def test_division_is_float(self):
        assert ev("x / 8") == 0.5

    def test_division_by_zero_is_null(self):
        assert ev("x / 0") is None
        assert ev("x % 0") is None

    def test_unary_minus(self):
        assert ev("-x") == -4
        assert ev("- (x + 1)") == -5

    def test_comparisons(self):
        assert ev("x > 3") is True
        assert ev("x <= 3") is False
        assert ev("s == 'Web'") is True
        assert ev("s != 'Web'") is False

    def test_null_propagates_through_arithmetic(self):
        assert ev("x + 1", row=(None, 2.5, "Web", True)) is None

    def test_null_propagates_through_comparison(self):
        assert ev("x > 3", row=(None, 2.5, "Web", True)) is None

    def test_three_valued_and(self):
        # False AND null is False; True AND null is null.
        assert ev("flag and x > 3", row=(None, 0.0, "", False)) is False
        assert ev("flag and x > 3", row=(None, 0.0, "", True)) is None

    def test_three_valued_or(self):
        assert ev("flag or x > 3", row=(None, 0.0, "", True)) is True
        assert ev("flag or x > 3", row=(None, 0.0, "", False)) is None

    def test_not_null_is_null(self):
        assert ev("not (x > 3)", row=(None, 0.0, "", True)) is None

    def test_boolean_literals(self):
        assert ev("true") is True
        assert ev("false") is False
        assert ev("null") is None

    def test_string_functions(self):
        assert ev("UPPER(s)") == "WEB"
        assert ev("LOWER(s)") == "web"
        assert ev("CONCAT(s, 'x')") == "Webx"

    def test_numeric_functions(self):
        assert ev("ABS(-x)") == 4  # ABS applied to Negate(Column)
        assert ev("SQRT(x)") == 2.0
        assert ev("ROUND(y)") == 2 or ev("ROUND(y)") == 3  # banker's rounding

    def test_sqrt_of_negative_is_null(self):
        assert ev("SQRT(0 - x)") is None


BAG_SCHEMA = Schema(
    (
        Field("group", PigType.CHARARRAY),
        Field("rel", PigType.BAG, Schema.of("v:int", "w:double")),
    )
)
BAG_ROW = ("k", [(1, 1.0), (2, 2.0), (None, 3.0)])


class TestAggregates:
    def test_count_skips_nothing_but_nulls(self):
        expression = FunctionCall("COUNT", (BagProject("rel", "v"),))
        assert expression.evaluate(BAG_ROW, BAG_SCHEMA) == 2

    def test_count_skips_null_first_field(self):
        # Pig semantics: COUNT drops tuples whose first field is null.
        expression = FunctionCall("COUNT", (Column("rel"),))
        assert expression.evaluate(BAG_ROW, BAG_SCHEMA) == 2

    def test_count_star_counts_all(self):
        expression = FunctionCall("COUNT_STAR", (Column("rel"),))
        assert expression.evaluate(BAG_ROW, BAG_SCHEMA) == 3

    def test_sum_projected_column(self):
        expression = FunctionCall("SUM", (BagProject("rel", "v"),))
        assert expression.evaluate(BAG_ROW, BAG_SCHEMA) == 3

    def test_avg_min_max(self):
        values = BagProject("rel", "w")
        assert FunctionCall("AVG", (values,)).evaluate(BAG_ROW, BAG_SCHEMA) == 2.0
        assert FunctionCall("MIN", (values,)).evaluate(BAG_ROW, BAG_SCHEMA) == 1.0
        assert FunctionCall("MAX", (values,)).evaluate(BAG_ROW, BAG_SCHEMA) == 3.0

    def test_sum_of_empty_bag_is_null(self):
        row = ("k", [])
        expression = FunctionCall("SUM", (BagProject("rel", "v"),))
        assert expression.evaluate(row, BAG_SCHEMA) is None

    def test_size_of_bag(self):
        expression = FunctionCall("SIZE", (Column("rel"),))
        assert expression.evaluate(BAG_ROW, BAG_SCHEMA) == 3

    def test_bag_project_infers_bag_of_one_column(self):
        field = BagProject("rel", "v").infer(BAG_SCHEMA)
        assert field.type is PigType.BAG
        assert field.element.names == ("v",)

    def test_bag_project_on_scalar_fails(self):
        with pytest.raises(ExpressionError):
            BagProject("group", "v").infer(BAG_SCHEMA)

    def test_aggregate_requires_bag(self):
        expression = FunctionCall("SUM", (Column("x"),))
        with pytest.raises(ExpressionError, match="aggregates a bag"):
            expression.infer(SCHEMA)


class TestInference:
    def test_arithmetic_widening(self):
        assert parse_expression("x + 1").infer(SCHEMA).type is PigType.INT
        assert parse_expression("x + y").infer(SCHEMA).type is PigType.DOUBLE
        assert parse_expression("x / 2").infer(SCHEMA).type is PigType.DOUBLE

    def test_comparison_is_boolean(self):
        assert parse_expression("x > 1").infer(SCHEMA).type is PigType.BOOLEAN

    def test_string_arithmetic_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("s + 1").infer(SCHEMA)

    def test_unknown_column_rejected(self):
        with pytest.raises(ExpressionError, match="no column"):
            parse_expression("zz > 1").infer(SCHEMA)

    def test_unknown_function_rejected(self):
        with pytest.raises(Exception, match="unknown function"):
            parse_expression("NOPE(x)")

    def test_wrong_arity_rejected(self):
        with pytest.raises(Exception, match="argument"):
            parse_expression("COUNT(x, y)")

    def test_const_types(self):
        assert Const(1).infer(SCHEMA).type is PigType.INT
        assert Const(1.5).infer(SCHEMA).type is PigType.DOUBLE
        assert Const("s").infer(SCHEMA).type is PigType.CHARARRAY
        assert Const(True).infer(SCHEMA).type is PigType.BOOLEAN


class TestConditionSemantics:
    def test_only_true_passes(self):
        assert as_condition(True)
        assert not as_condition(False)
        assert not as_condition(None)
        assert not as_condition(1)  # non-boolean truthiness does not count


class TestSelectivity:
    def test_equality_is_selective(self):
        assert selectivity_estimate(parse_expression("x == 1")) == pytest.approx(0.10)

    def test_range_is_a_third(self):
        assert selectivity_estimate(parse_expression("x > 1")) == pytest.approx(0.33)

    def test_and_multiplies(self):
        expression = parse_expression("x == 1 and y > 0")
        assert selectivity_estimate(expression) == pytest.approx(0.033)

    def test_or_adds_capped(self):
        expression = parse_expression("x > 1 or y > 0 or s == 'a' or flag")
        assert selectivity_estimate(expression) <= 1.0

    def test_not_complements(self):
        expression = parse_expression("not (x == 1)")
        assert selectivity_estimate(expression) == pytest.approx(0.90)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BinaryOp("**", Const(1), Const(2))
        with pytest.raises(ValueError):
            Comparison("=", Const(1), Const(2))
        with pytest.raises(ValueError):
            BoolOp("xor", Const(True), Const(False))
