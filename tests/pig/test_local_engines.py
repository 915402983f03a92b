"""Direct-interpretation vs staged-MapReduce equivalence tests.

The compiler's correctness property: for any plan, executing the
compiled stages as map/shuffle/reduce passes yields the same bag of
rows per STORE as interpreting the logical plan directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pig import (
    canonical,
    compile_script,
    evaluate_logical,
    run_pipeline_local,
)


def assert_equivalent(script: str, inputs: dict) -> dict:
    pipeline = compile_script(script)
    direct = evaluate_logical(pipeline.plan, inputs)
    staged = run_pipeline_local(pipeline, inputs)
    assert set(direct) == set(staged)
    for path in direct:
        assert canonical(direct[path]) == canonical(staged[path]), path
    return direct


class TestFixedScripts:
    def test_filter_foreach(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (x:int, y:int);\n"
            "b = FILTER a BY x > 1;\n"
            "c = FOREACH b GENERATE x + y AS s, x * y AS p;\n"
            "STORE c INTO 'out';",
            {"in": [(1, 10), (2, 20), (3, 30)]},
        )
        assert canonical(out["out"]) == [(22, 40), (33, 90)]

    def test_group_count_sum(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (k:chararray, v:int);\n"
            "g = GROUP a BY k;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n, SUM(a.v) AS t;\n"
            "STORE c INTO 'out';",
            {"in": [("a", 1), ("b", 2), ("a", 3)]},
        )
        assert canonical(out["out"]) == [("a", 2, 4), ("b", 1, 2)]

    def test_join_inner_semantics(self):
        assert_equivalent(
            "u = LOAD 'u' AS (id:int, n:chararray);\n"
            "v = LOAD 'v' AS (id:int, w:int);\n"
            "j = JOIN u BY id, v BY id;\n"
            "STORE j INTO 'out';",
            {
                "u": [(1, "a"), (2, "b"), (3, "c")],
                "v": [(1, 10), (1, 11), (9, 90)],
            },
        )

    def test_join_null_keys_never_match(self):
        out = assert_equivalent(
            "u = LOAD 'u' AS (id:int);\n"
            "v = LOAD 'v' AS (id:int);\n"
            "j = JOIN u BY id, v BY id;\n"
            "STORE j INTO 'out';",
            {"u": [(None,), (1,)], "v": [(None,), (1,)]},
        )
        assert out["out"] == [(1, 1)]

    def test_order_with_nulls_first(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (x:int);\n"
            "o = ORDER a BY x;\n"
            "STORE o INTO 'out';",
            {"in": [(3,), (None,), (1,)]},
        )
        assert out["out"] == [(None,), (1,), (3,)]

    def test_order_desc(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (x:int);\n"
            "o = ORDER a BY x DESC;\n"
            "STORE o INTO 'out';",
            {"in": [(3,), (1,), (2,)]},
        )
        assert out["out"] == [(3,), (2,), (1,)]

    def test_distinct(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (x:int, y:int);\n"
            "d = DISTINCT a;\n"
            "STORE d INTO 'out';",
            {"in": [(1, 2), (1, 2), (3, 4)]},
        )
        assert canonical(out["out"]) == [(1, 2), (3, 4)]

    def test_limit(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (x:int);\n"
            "l = LIMIT a 2;\n"
            "STORE l INTO 'out';",
            {"in": [(5,), (3,), (4,)]},
        )
        assert len(out["out"]) == 2

    def test_union_then_group(self):
        assert_equivalent(
            "a = LOAD 'a' AS (w:chararray);\n"
            "b = LOAD 'b' AS (w:chararray);\n"
            "u = UNION a, b;\n"
            "g = GROUP u BY w;\n"
            "c = FOREACH g GENERATE group, COUNT(u) AS n;\n"
            "STORE c INTO 'out';",
            {"a": [("x",), ("y",)], "b": [("x",), ("z",)]},
        )

    def test_flatten_ungroups(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (k:chararray, v:int);\n"
            "g = GROUP a BY k;\n"
            "f = FOREACH g GENERATE group, FLATTEN(a);\n"
            "STORE f INTO 'out';",
            {"in": [("a", 1), ("a", 2), ("b", 3)]},
        )
        # group key + original row columns
        assert canonical(out["out"]) == [
            ("a", "a", 1),
            ("a", "a", 2),
            ("b", "b", 3),
        ]

    def test_fanout_two_stores(self):
        assert_equivalent(
            "a = LOAD 'in' AS (x:int);\n"
            "f = FILTER a BY x > 0;\n"
            "b = FOREACH f GENERATE x + 1 AS y;\n"
            "c = FOREACH f GENERATE x - 1 AS z;\n"
            "STORE b INTO 'ob';\n"
            "STORE c INTO 'oc';",
            {"in": [(1,), (-1,), (2,)]},
        )

    def test_multi_stage_chain(self):
        assert_equivalent(
            "a  = LOAD 'in' AS (s:chararray, v:int);\n"
            "g1 = GROUP a BY s;\n"
            "c1 = FOREACH g1 GENERATE group AS s, SUM(a.v) AS t;\n"
            "g2 = GROUP c1 BY t;\n"
            "c2 = FOREACH g2 GENERATE group AS t, COUNT(c1) AS n;\n"
            "o  = ORDER c2 BY n DESC;\n"
            "STORE o INTO 'out';",
            {"in": [("a", 1), ("a", 2), ("b", 3), ("c", 3)]},
        )

    def test_join_then_group(self):
        assert_equivalent(
            "u = LOAD 'u' AS (id:int, site:chararray);\n"
            "v = LOAD 'v' AS (id:int, ms:int);\n"
            "j = JOIN u BY id, v BY id;\n"
            "g = GROUP j BY site;\n"  # suffix-resolved u::site
            "c = FOREACH g GENERATE group, COUNT(j) AS n;\n"
            "STORE c INTO 'out';",
            {
                "u": [(1, "a"), (2, "b"), (3, "a")],
                "v": [(1, 10), (3, 30), (3, 31)],
            },
        )

    def test_self_join(self):
        assert_equivalent(
            "a = LOAD 'a' AS (x:int, y:int);\n"
            "j = JOIN a BY x, a BY y;\n"
            "STORE j INTO 'out';",
            {"a": [(1, 2), (2, 1), (3, 3)]},
        )

    def test_empty_input(self):
        out = assert_equivalent(
            "a = LOAD 'in' AS (k:chararray, v:int);\n"
            "g = GROUP a BY k;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "STORE c INTO 'out';",
            {"in": []},
        )
        assert out["out"] == []


# -- property-based equivalence -------------------------------------------------

keys = st.sampled_from(["a", "b", "c", "d"])
values = st.one_of(st.integers(-100, 100), st.none())
rows = st.lists(st.tuples(keys, values), max_size=30)


class TestPropertyEquivalence:
    @given(data=rows)
    @settings(max_examples=60, deadline=None)
    def test_group_aggregate_pipeline(self, data):
        assert_equivalent(
            "a = LOAD 'in' AS (k:chararray, v:int);\n"
            "f = FILTER a BY v >= 0;\n"
            "g = GROUP f BY k;\n"
            "c = FOREACH g GENERATE group, COUNT(f) AS n, SUM(f.v) AS t;\n"
            "STORE c INTO 'out';",
            {"in": data},
        )

    @given(left=rows, right=rows)
    @settings(max_examples=40, deadline=None)
    def test_join_pipeline(self, left, right):
        assert_equivalent(
            "l = LOAD 'l' AS (k:chararray, v:int);\n"
            "r = LOAD 'r' AS (k:chararray, w:int);\n"
            "j = JOIN l BY k, r BY k;\n"
            "p = FOREACH j GENERATE l::k, v, w;\n"
            "STORE p INTO 'out';",
            {"l": left, "r": right},
        )

    @given(left=rows, right=rows)
    @settings(max_examples=40, deadline=None)
    def test_union_distinct_order(self, left, right):
        assert_equivalent(
            "l = LOAD 'l' AS (k:chararray, v:int);\n"
            "r = LOAD 'r' AS (k:chararray, v:int);\n"
            "u = UNION l, r;\n"
            "d = DISTINCT u;\n"
            "o = ORDER d BY v;\n"
            "STORE o INTO 'out';",
            {"l": left, "r": right},
        )

    @given(data=rows)
    @settings(max_examples=40, deadline=None)
    def test_two_stage_aggregation(self, data):
        assert_equivalent(
            "a  = LOAD 'in' AS (k:chararray, v:int);\n"
            "g1 = GROUP a BY k;\n"
            "c1 = FOREACH g1 GENERATE group AS k, COUNT(a) AS n;\n"
            "g2 = GROUP c1 BY n;\n"
            "c2 = FOREACH g2 GENERATE group AS n, COUNT(c1) AS m;\n"
            "STORE c2 INTO 'out';",
            {"in": data},
        )

    @given(data=rows)
    @settings(max_examples=40, deadline=None)
    def test_flatten_regroup_roundtrip(self, data):
        # GROUP then FLATTEN is the identity on the underlying bag.
        out = assert_equivalent(
            "a = LOAD 'in' AS (k:chararray, v:int);\n"
            "g = GROUP a BY k;\n"
            "f = FOREACH g GENERATE FLATTEN(a);\n"
            "STORE f INTO 'out';",
            {"in": data},
        )
        assert canonical(out["out"]) == canonical(data)
