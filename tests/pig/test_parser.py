"""Unit tests for the Pig-Latin parser."""

import pytest

from repro.pig import (
    Distinct,
    Filter,
    ForEach,
    Group,
    Join,
    Limit,
    Load,
    Order,
    ParseError,
    PigType,
    Store,
    Union,
    parse,
    parse_expression,
    tokenize,
)
from repro.pig.expressions import BinaryOp, BoolOp, Column, Comparison, Flatten


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("a = LOAD 'x';")
        kinds = [t.kind for t in tokens]
        assert kinds == ["name", "op", "keyword", "string", "op", "eof"]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("FILTER filter FiLtEr")
        assert all(t.kind == "keyword" and t.text == "filter" for t in tokens[:-1])

    def test_comments_skipped(self):
        tokens = tokenize("a -- a comment\n = 1;")
        assert [t.text for t in tokens[:-1]] == ["a", "=", "1", ";"]

    def test_line_numbers_advance(self):
        tokens = tokenize("a\n\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 3

    def test_stray_character_raises_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            tokenize("a = 1;\n@")

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e4 10L")
        assert [t.kind for t in tokens[:-1]] == ["number"] * 4

    def test_string_with_escaped_quote(self):
        tokens = tokenize(r"'it\'s'")
        assert tokens[0].kind == "string"


class TestStatementParsing:
    def test_load_with_schema(self):
        plan = parse("a = LOAD 'in' AS (x:int, y:double, s:chararray);")
        load = plan["a"]
        assert isinstance(load, Load)
        assert load.path == "in"
        assert load.schema.names == ("x", "y", "s")
        assert load.schema.field("y").type is PigType.DOUBLE

    def test_load_without_schema_gets_value_column(self):
        plan = parse("a = LOAD 'in';")
        assert plan["a"].schema.names == ("value",)

    def test_load_untyped_fields_are_bytearray(self):
        plan = parse("a = LOAD 'in' AS (x, y);")
        assert plan["a"].schema.field("x").type is PigType.BYTEARRAY

    def test_load_unknown_type(self):
        with pytest.raises(ParseError, match="unknown type"):
            parse("a = LOAD 'in' AS (x:string);")

    def test_filter(self):
        plan = parse(
            "a = LOAD 'in' AS (x:int);\nb = FILTER a BY x > 3;"
        )
        assert isinstance(plan["b"], Filter)
        assert plan["b"].source == "a"

    def test_foreach_generate_with_as(self):
        plan = parse(
            "a = LOAD 'in' AS (x:int);\n"
            "b = FOREACH a GENERATE x, x * 2 AS dbl;"
        )
        foreach = plan["b"]
        assert isinstance(foreach, ForEach)
        assert len(foreach.items) == 2
        assert foreach.items[1].name == "dbl"

    def test_foreach_flatten(self):
        plan = parse(
            "a = LOAD 'in' AS (x:int);\n"
            "g = GROUP a BY x;\n"
            "b = FOREACH g GENERATE group, FLATTEN(a);"
        )
        assert isinstance(plan["b"].items[1].expression, Flatten)

    def test_group(self):
        plan = parse("a = LOAD 'in' AS (x:int);\ng = GROUP a BY x;")
        assert isinstance(plan["g"], Group)

    def test_group_keyword_as_column(self):
        plan = parse(
            "a = LOAD 'in' AS (x:int);\n"
            "g = GROUP a BY x;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "o = ORDER c BY group;"
        )
        assert isinstance(plan["o"], Order)
        assert plan["o"].column == "group"

    def test_join(self):
        plan = parse(
            "a = LOAD 'a' AS (x:int);\n"
            "b = LOAD 'b' AS (y:int);\n"
            "j = JOIN a BY x, b BY y;"
        )
        join = plan["j"]
        assert isinstance(join, Join)
        assert join.left == "a" and join.right == "b"

    def test_order_desc(self):
        plan = parse("a = LOAD 'in' AS (x:int);\no = ORDER a BY x DESC;")
        assert plan["o"].descending

    def test_order_asc_default(self):
        plan = parse("a = LOAD 'in' AS (x:int);\no = ORDER a BY x ASC;")
        assert not plan["o"].descending

    def test_order_by_positional(self):
        plan = parse("a = LOAD 'in' AS (x:int);\no = ORDER a BY $0;")
        assert plan["o"].column == "$0"

    def test_distinct_limit_union(self):
        plan = parse(
            "a = LOAD 'a' AS (x:int);\n"
            "b = LOAD 'b' AS (x:int);\n"
            "u = UNION a, b;\n"
            "d = DISTINCT u;\n"
            "l = LIMIT d 10;"
        )
        assert isinstance(plan["u"], Union)
        assert isinstance(plan["d"], Distinct)
        assert isinstance(plan["l"], Limit)
        assert plan["l"].count == 10

    def test_store(self):
        plan = parse("a = LOAD 'in' AS (x:int);\nSTORE a INTO 'out';")
        stores = plan.stores
        assert len(stores) == 1
        assert isinstance(stores[0], Store)
        assert stores[0].path == "out"

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="';'"):
            parse("a = LOAD 'in' AS (x:int)")

    def test_unknown_operation(self):
        with pytest.raises(ParseError, match="expected an operation"):
            parse("a = FROBNICATE b;")

    def test_store_without_into(self):
        with pytest.raises(ParseError, match="'into'"):
            parse("a = LOAD 'x';\nSTORE a 'out';")


class TestExpressionParsing:
    def test_precedence_mul_over_add(self):
        expression = parse_expression("1 + 2 * 3")
        assert isinstance(expression, BinaryOp)
        assert expression.op == "+"
        assert expression.evaluate((), Schema_empty()) == 7

    def test_parentheses_override(self):
        assert parse_expression("(1 + 2) * 3").evaluate((), Schema_empty()) == 9

    def test_comparison_binds_looser_than_arithmetic(self):
        expression = parse_expression("1 + 1 == 2")
        assert isinstance(expression, Comparison)
        assert expression.evaluate((), Schema_empty()) is True

    def test_and_or_precedence(self):
        # AND binds tighter than OR.
        expression = parse_expression("true or false and false")
        assert isinstance(expression, BoolOp)
        assert expression.op == "or"
        assert expression.evaluate((), Schema_empty()) is True

    def test_not_prefix(self):
        assert parse_expression("not false").evaluate((), Schema_empty()) is True

    def test_column_vs_call_vs_bagproject(self):
        assert isinstance(parse_expression("x"), Column)
        assert parse_expression("COUNT(x)") is not None
        bag = parse_expression("b.v")
        assert bag.bag == "b" and bag.column == "v"

    def test_string_literal_unquoting(self):
        assert parse_expression(r"'a\'b'").value == "a'b"

    def test_float_and_scientific(self):
        assert parse_expression("2.5").value == 2.5
        assert parse_expression("1e3").value == 1000.0

    def test_long_suffix(self):
        assert parse_expression("10L").value == 10

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 ;")

    def test_unexpected_token(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_expression("* 3")


def Schema_empty():
    from repro.pig import Schema

    return Schema(())


class TestFullScripts:
    def test_paper_style_pipeline_parses(self):
        plan = parse(
            """
            -- site-level aggregation
            pages  = LOAD 'pages' AS (url:chararray, size:int, site:chararray);
            big    = FILTER pages BY size > 1024 AND site != 'spam.example';
            bysite = GROUP big BY site;
            counts = FOREACH bysite GENERATE group, COUNT(big) AS cnt;
            top    = ORDER counts BY cnt DESC;
            few    = LIMIT top 10;
            STORE few INTO 'results';
            """
        )
        assert plan.aliases[:3] == ["pages", "big", "bysite"]
        plan.validate()

    def test_describe_lists_every_alias(self):
        plan = parse(
            "a = LOAD 'in' AS (x:int);\nb = FILTER a BY x > 1;\nSTORE b INTO 'o';"
        )
        text = plan.describe()
        assert "a" in text and "FILTER" in text
