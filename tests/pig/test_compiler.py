"""Unit tests for the logical-plan -> MapReduce-stage compiler."""

import pytest

from repro.pig import (
    LoadRef,
    PlanError,
    StageRef,
    compile_plan,
    compile_script,
    parse,
)


class TestStageShapes:
    def test_map_only_stage(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int);\n"
            "b = FILTER a BY x > 1;\n"
            "STORE b INTO 'out';"
        )
        assert len(pipeline) == 1
        stage = pipeline.stages[0]
        assert stage.is_map_only
        assert stage.branches[0].map_aliases == ("b",)
        assert stage.store_path == "out"

    def test_single_group_is_one_stage(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "STORE c INTO 'out';"
        )
        assert len(pipeline) == 1
        stage = pipeline.stages[0]
        assert stage.shuffle_alias == "g"
        assert stage.reduce_aliases == ("c",)
        assert stage.output_alias == "c"

    def test_chained_groups_are_two_stages(self):
        pipeline = compile_script(
            "a  = LOAD 'in' AS (x:int, s:chararray);\n"
            "g1 = GROUP a BY s;\n"
            "c1 = FOREACH g1 GENERATE group AS s, COUNT(a) AS n;\n"
            "g2 = GROUP c1 BY n;\n"
            "c2 = FOREACH g2 GENERATE group, COUNT(c1) AS m;\n"
            "STORE c2 INTO 'out';"
        )
        assert len(pipeline) == 2
        assert pipeline.stages[0].shuffle_alias == "g1"
        assert pipeline.stages[1].shuffle_alias == "g2"
        assert pipeline.stages[1].upstream_stages == (0,)
        assert pipeline.depth == 2

    def test_filter_before_group_is_map_side(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "f = FILTER a BY x > 1;\n"
            "g = GROUP f BY s;\n"
            "STORE g INTO 'out';"
        )
        stage = pipeline.stages[0]
        assert stage.branches[0].map_aliases == ("f",)
        assert stage.shuffle_alias == "g"

    def test_filter_after_group_is_reduce_side(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "f = FILTER c BY n > 1;\n"
            "STORE f INTO 'out';"
        )
        assert len(pipeline) == 1
        assert pipeline.stages[0].reduce_aliases == ("c", "f")

    def test_join_merges_two_branches(self):
        pipeline = compile_script(
            "a = LOAD 'a' AS (x:int);\n"
            "b = LOAD 'b' AS (y:int);\n"
            "fb = FILTER b BY y > 0;\n"
            "j = JOIN a BY x, fb BY y;\n"
            "STORE j INTO 'out';"
        )
        assert len(pipeline) == 1
        stage = pipeline.stages[0]
        sides = {branch.side for branch in stage.branches}
        assert sides == {"left", "right"}
        right = next(br for br in stage.branches if br.side == "right")
        assert right.map_aliases == ("fb",)

    def test_join_after_group_restages(self):
        pipeline = compile_script(
            "a = LOAD 'a' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group AS s, COUNT(a) AS n;\n"
            "b = LOAD 'b' AS (s:chararray, w:int);\n"
            "j = JOIN c BY s, b BY s;\n"
            "STORE j INTO 'out';"
        )
        assert len(pipeline) == 2
        join_stage = pipeline.stages[1]
        assert join_stage.shuffle_alias == "j"
        left = next(br for br in join_stage.branches if br.side == "left")
        assert isinstance(left.source, StageRef)
        right = next(br for br in join_stage.branches if br.side == "right")
        assert isinstance(right.source, LoadRef)

    def test_self_join_materializes_once(self):
        pipeline = compile_script(
            "a = LOAD 'a' AS (x:int, y:int);\n"
            "j = JOIN a BY x, a BY y;\n"
            "STORE j INTO 'out';"
        )
        assert len(pipeline) == 2
        first, second = pipeline.stages
        assert first.is_map_only
        assert second.shuffle_alias == "j"
        assert all(isinstance(br.source, StageRef) for br in second.branches)

    def test_union_concatenates_branches(self):
        pipeline = compile_script(
            "a = LOAD 'a' AS (x:int);\n"
            "b = LOAD 'b' AS (x:int);\n"
            "u = UNION a, b;\n"
            "g = GROUP u BY x;\n"
            "STORE g INTO 'out';"
        )
        assert len(pipeline) == 1
        assert len(pipeline.stages[0].branches) == 2

    def test_fanout_materializes(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int);\n"
            "f = FILTER a BY x > 0;\n"
            "b = FOREACH f GENERATE x + 1 AS y;\n"
            "c = FOREACH f GENERATE x - 1 AS z;\n"
            "STORE b INTO 'ob';\n"
            "STORE c INTO 'oc';"
        )
        # f materializes once; b and c each become a stage reading it.
        assert len(pipeline) == 3
        assert pipeline.stages[0].output_alias == "f"
        assert all(
            isinstance(stage.branches[0].source, StageRef)
            for stage in pipeline.stages[1:]
        )

    def test_order_after_group_restages(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "o = ORDER c BY n DESC;\n"
            "STORE o INTO 'out';"
        )
        assert len(pipeline) == 2
        assert pipeline.stages[1].shuffle_alias == "o"

    def test_limit_after_union_restages(self):
        pipeline = compile_script(
            "a = LOAD 'a' AS (x:int);\n"
            "b = LOAD 'b' AS (x:int);\n"
            "u = UNION a, b;\n"
            "l = LIMIT u 5;\n"
            "STORE l INTO 'out';"
        )
        # LIMIT cannot run per-branch; the union materializes first.
        assert len(pipeline) == 2

    def test_distinct_is_blocking(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int);\n"
            "d = DISTINCT a;\n"
            "STORE d INTO 'out';"
        )
        assert pipeline.stages[0].shuffle_alias == "d"

    def test_invalid_plan_rejected_before_compiling(self):
        plan = parse("a = LOAD 'in' AS (x:int);")
        with pytest.raises(PlanError, match="no STORE"):
            compile_plan(plan)

    def test_describe_mentions_stages(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int);\nSTORE a INTO 'out';"
        )
        assert "stage 0" in pipeline.describe()


class TestPipelineMetrics:
    def test_stage_sizes_decrease_through_aggregation(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "g2 = GROUP c BY n;\n"
            "c2 = FOREACH g2 GENERATE group, COUNT(c) AS m;\n"
            "STORE c2 INTO 'out';"
        )
        sizes = pipeline.estimate_stage_sizes({"in": 32.0})
        assert sizes[0].input_gb == pytest.approx(32.0)
        assert sizes[1].input_gb == pytest.approx(sizes[0].output_gb)
        assert sizes[1].output_gb < sizes[0].output_gb

    def test_to_planner_jobs_chains_sizes(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int, s:chararray);\n"
            "g = GROUP a BY s;\n"
            "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
            "STORE c INTO 'out';"
        )
        jobs = pipeline.to_planner_jobs({"in": 32.0}, throughput_scale=2.0)
        assert len(jobs) == 1
        job = jobs[0]
        assert job.input_gb == pytest.approx(32.0)
        assert job.throughput_scale == 2.0
        assert 0 < job.map_output_ratio <= 1.5

    def test_map_only_stage_job_has_unit_reduce_ratio(self):
        pipeline = compile_script(
            "a = LOAD 'in' AS (x:int);\n"
            "f = FILTER a BY x > 1;\n"
            "STORE f INTO 'out';"
        )
        job = pipeline.to_planner_jobs({"in": 8.0})[0]
        assert job.reduce_output_ratio == pytest.approx(1.0)
