"""Unit tests for the Pig schema/type layer."""

import pytest

from repro.pig import Field, PigType, Schema
from repro.pig.schema import numeric_join


class TestPigType:
    def test_numeric_classification(self):
        assert PigType.INT.is_numeric
        assert PigType.DOUBLE.is_numeric
        assert not PigType.CHARARRAY.is_numeric
        assert not PigType.BAG.is_numeric

    def test_complex_classification(self):
        assert PigType.BAG.is_complex
        assert PigType.TUPLE.is_complex
        assert not PigType.INT.is_complex

    def test_numeric_join_widens(self):
        assert numeric_join(PigType.INT, PigType.LONG) is PigType.LONG
        assert numeric_join(PigType.INT, PigType.DOUBLE) is PigType.DOUBLE
        assert numeric_join(PigType.FLOAT, PigType.INT) is PigType.FLOAT

    def test_numeric_join_bytearray_defaults_to_double(self):
        assert numeric_join(PigType.BYTEARRAY, PigType.INT) is PigType.DOUBLE

    def test_numeric_join_rejects_strings(self):
        with pytest.raises(TypeError):
            numeric_join(PigType.CHARARRAY, PigType.INT)


class TestField:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Field("")

    def test_complex_needs_element_schema(self):
        with pytest.raises(ValueError):
            Field("b", PigType.BAG)

    def test_scalar_rejects_element_schema(self):
        inner = Schema.of("x:int")
        with pytest.raises(ValueError):
            Field("x", PigType.INT, inner)

    def test_renamed_keeps_type(self):
        f = Field("x", PigType.INT).renamed("y")
        assert f.name == "y"
        assert f.type is PigType.INT

    def test_str_shows_nested_schema(self):
        inner = Schema.of("x:int")
        f = Field("b", PigType.BAG, inner)
        assert "b:bag(x:int)" == str(f)


class TestSchema:
    def test_of_parses_types(self):
        schema = Schema.of("x:int", "name:chararray", "score:double")
        assert schema.names == ("x", "name", "score")
        assert schema.field("score").type is PigType.DOUBLE

    def test_of_defaults_to_bytearray(self):
        schema = Schema.of("raw")
        assert schema.field("raw").type is PigType.BYTEARRAY

    def test_of_unknown_type_falls_back_to_name(self):
        # "x:integer" is not a type annotation ("integer" is not a Pig
        # type), so the whole spec is taken as an (untyped) column name —
        # necessary so join-style names like "a::x" survive Schema.of.
        schema = Schema.of("x:integer")
        assert schema.names == ("x:integer",)
        assert schema.fields[0].type is PigType.BYTEARRAY

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema.of("x:int", "x:int")

    def test_index_of_by_name(self):
        schema = Schema.of("a:int", "b:int")
        assert schema.index_of("b") == 1

    def test_index_of_positional(self):
        schema = Schema.of("a:int", "b:int")
        assert schema.index_of("$0") == 0
        assert schema.index_of("$1") == 1

    def test_positional_out_of_range(self):
        schema = Schema.of("a:int")
        with pytest.raises(KeyError, match="out of range"):
            schema.index_of("$3")

    def test_bad_positional(self):
        schema = Schema.of("a:int")
        with pytest.raises(KeyError, match="bad positional"):
            schema.index_of("$x")

    def test_unknown_name_lists_candidates(self):
        schema = Schema.of("a:int", "b:int")
        with pytest.raises(KeyError, match="a, b"):
            schema.index_of("c")

    def test_join_suffix_resolution(self):
        schema = Schema.of("users::uid:int", "visits::url:chararray")
        assert schema.index_of("url") == 1
        assert schema.index_of("users::uid") == 0

    def test_ambiguous_suffix_raises(self):
        schema = Schema.of("a::x:int", "b::x:int")
        with pytest.raises(KeyError, match="ambiguous"):
            schema.index_of("x")

    def test_project_and_prefix(self):
        schema = Schema.of("a:int", "b:chararray")
        assert schema.prefixed("rel").names == ("rel::a", "rel::b")

    def test_concat(self):
        left = Schema.of("a:int")
        right = Schema.of("b:int")
        assert left.concat(right).names == ("a", "b")

    def test_iteration_and_len(self):
        schema = Schema.of("a:int", "b:int")
        assert len(schema) == 2
        assert [f.name for f in schema] == ["a", "b"]
