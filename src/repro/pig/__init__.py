"""Pig-like multi-stage dataflow layer (paper Section 2.1).

The paper motivates fault-tolerant storage choices with Pig: "Pig
programs ... compile down to multi-staged MapReduce computations, in
which the result of one stage is used as the input to the subsequent
stage".  This package reproduces that substrate end to end:

- a small Pig-Latin dialect (:func:`parse`) with schemas and expressions;
- a validated logical plan with size estimation (:class:`LogicalPlan`);
- a MapReduce compiler (:func:`compile_plan` / :func:`compile_script`)
  producing a :class:`CompiledPipeline` of :class:`StageSpec` stages;
- two record-level engines whose agreement property-tests the compiler
  (:func:`evaluate_logical`, :func:`run_pipeline_local`);
- conversion of stages to the planner's vocabulary
  (:meth:`CompiledPipeline.to_planner_jobs`), which is what
  :mod:`repro.core.pipeline_planner` optimizes across stages.

Quick example::

    from repro.pig import compile_script

    pipeline = compile_script('''
        pages  = LOAD 'pages' AS (url:chararray, size:int, site:chararray);
        big    = FILTER pages BY size > 1024;
        bysite = GROUP big BY site;
        counts = FOREACH bysite GENERATE group, COUNT(big) AS cnt;
        STORE counts INTO 'results';
    ''')
    jobs = pipeline.to_planner_jobs({'pages': 32.0})
"""

from .compiler import PigCompiler, compile_plan, compile_script
from .expressions import (
    BagProject,
    BinaryOp,
    BoolOp,
    Column,
    Comparison,
    Const,
    Expression,
    ExpressionError,
    Flatten,
    FunctionCall,
    Negate,
    Not,
)
from .local_engine import canonical, evaluate_logical, run_pipeline_local
from .logical import LogicalPlan, SizeEstimate
from .operators import (
    Distinct,
    Filter,
    ForEach,
    GenerateItem,
    Group,
    Join,
    Limit,
    Load,
    Operator,
    Order,
    PlanError,
    Store,
    Union,
)
from .parser import ParseError, parse, parse_expression, tokenize
from .pipeline import (
    CompiledPipeline,
    LoadRef,
    StageBranch,
    StageRef,
    StageSizes,
    StageSpec,
)
from .schema import Field, PigType, Schema

__all__ = [
    "BagProject",
    "BinaryOp",
    "BoolOp",
    "Column",
    "Comparison",
    "CompiledPipeline",
    "Const",
    "Distinct",
    "Expression",
    "ExpressionError",
    "Field",
    "Filter",
    "Flatten",
    "ForEach",
    "FunctionCall",
    "GenerateItem",
    "Group",
    "Join",
    "Limit",
    "Load",
    "LoadRef",
    "LogicalPlan",
    "Negate",
    "Not",
    "Operator",
    "Order",
    "ParseError",
    "PigCompiler",
    "PigType",
    "PlanError",
    "Schema",
    "SizeEstimate",
    "StageBranch",
    "StageRef",
    "StageSizes",
    "StageSpec",
    "Store",
    "Union",
    "canonical",
    "compile_plan",
    "compile_script",
    "evaluate_logical",
    "parse",
    "parse_expression",
    "run_pipeline_local",
    "tokenize",
]
