"""Record-level execution of Pig plans, two ways.

1. :func:`evaluate_logical` interprets the logical plan directly,
   operator by operator, on in-memory rows — the semantic reference.
2. :func:`run_pipeline_local` executes the *compiled* pipeline stage by
   stage as real map / shuffle / reduce passes over the same rows.

The two must agree on every plan — that equivalence is the correctness
argument for the compiler, and the property tests exercise it with
generated datasets.  Neither engine is the simulator: the discrete-event
MapReduce engine moves synthetic bytes, while these move actual records
(small ones, in tests).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from .expressions import Flatten, as_condition
from .logical import LogicalPlan
from .operators import (
    Distinct,
    Filter,
    ForEach,
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
from .pipeline import CompiledPipeline, LoadRef, StageBranch, StageSpec
from .schema import Schema

Rows = list[tuple]


def _sort_key(value: tuple) -> tuple:
    """A total order over rows with possible None fields (None sorts first)."""
    return tuple((item is not None, item) for item in value)


def _freeze(value: Any) -> Any:
    """Hashable view of a row that may contain bags (lists)."""
    if isinstance(value, list):
        return ("<bag>",) + tuple(sorted((_freeze(v) for v in value), key=repr))
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value


def canonical(rows: Iterable[tuple]) -> list[tuple]:
    """Rows in a canonical order, for bag-equality assertions in tests."""
    return sorted(rows, key=lambda r: repr(_freeze(r)))


# ---------------------------------------------------------------------------
# Shared per-operator row semantics
# ---------------------------------------------------------------------------


def apply_filter(op: Filter, rows: Rows, schema: Schema) -> Rows:
    return [r for r in rows if as_condition(op.condition.evaluate(r, schema))]


def apply_foreach(op: ForEach, rows: Rows, schema: Schema) -> Rows:
    out: Rows = []
    for row in rows:
        # Evaluate every item; FLATTEN items expand multiplicatively.
        prefix_sets: list[list[tuple]] = [[()]]
        for item in op.items:
            if isinstance(item.expression, Flatten):
                value = item.expression.evaluate(row, schema)
                if value is None:
                    expansions: list[tuple] = []
                elif isinstance(value, list):  # bag -> one row per element
                    expansions = [tuple(v) for v in value]
                else:  # tuple -> splice in place
                    expansions = [tuple(value)]
                prefix_sets.append(expansions)
            else:
                prefix_sets.append([(item.expression.evaluate(row, schema),)])
        combos: list[tuple] = [()]
        for expansion in prefix_sets:
            combos = [c + e for c in combos for e in expansion]
        out.extend(combos)
    return out


def apply_group(op: Group, rows: Rows, schema: Schema) -> Rows:
    groups: dict[Any, Rows] = defaultdict(list)
    for row in rows:
        key = op.key.evaluate(row, schema)
        groups[_freeze(key)].append(row)
    out = []
    for frozen_key, members in groups.items():
        # Recover a representative key from the first member.
        key = op.key.evaluate(members[0], schema)
        out.append((key, list(members)))
    return out


def apply_join(
    op: Join, left_rows: Rows, right_rows: Rows,
    left_schema: Schema, right_schema: Schema,
) -> Rows:
    index: dict[Any, Rows] = defaultdict(list)
    for row in right_rows:
        key = op.right_key.evaluate(row, right_schema)
        if key is None:
            continue  # null keys never join (Pig inner-join semantics)
        index[_freeze(key)].append(row)
    out: Rows = []
    for row in left_rows:
        key = op.left_key.evaluate(row, left_schema)
        if key is None:
            continue
        for match in index.get(_freeze(key), ()):  # inner join
            out.append(row + match)
    return out


def apply_order(op: Order, rows: Rows, schema: Schema) -> Rows:
    position = schema.index_of(op.column)
    return sorted(
        rows, key=lambda r: _sort_key((r[position],)), reverse=op.descending
    )


def apply_distinct(rows: Rows) -> Rows:
    seen: set = set()
    out = []
    for row in rows:
        frozen = _freeze(row)
        if frozen not in seen:
            seen.add(frozen)
            out.append(row)
    return out


def apply_limit(op: Limit, rows: Rows, schema: Schema) -> Rows:
    # LIMIT without ORDER is nondeterministic in Pig; we take a canonical
    # prefix so both engines agree on which rows survive.
    if op.count >= len(rows):
        return list(rows)
    return canonical(rows)[: op.count]


# ---------------------------------------------------------------------------
# 1. Direct logical-plan interpretation (the reference)
# ---------------------------------------------------------------------------


def evaluate_logical(
    plan: LogicalPlan, inputs: Mapping[str, Rows]
) -> dict[str, Rows]:
    """Run the plan on in-memory rows; returns {store_path: rows}.

    ``inputs`` maps LOAD paths (or aliases) to row lists.
    """
    schemas = plan.schemas()
    relations: dict[str, Rows] = {}
    outputs: dict[str, Rows] = {}
    for operator in plan.operators:
        rows = _evaluate_operator(operator, relations, schemas, inputs)
        relations[operator.alias] = rows
        if isinstance(operator, Store):
            outputs[operator.path] = rows
    return outputs


def _evaluate_operator(
    operator: Operator,
    relations: Mapping[str, Rows],
    schemas: Mapping[str, Schema],
    inputs: Mapping[str, Rows],
) -> Rows:
    if isinstance(operator, Load):
        rows = inputs.get(operator.path, inputs.get(operator.alias))
        if rows is None:
            raise PlanError(f"no input rows for LOAD {operator.path!r}")
        return list(rows)
    if isinstance(operator, Filter):
        return apply_filter(
            operator, relations[operator.source], schemas[operator.source]
        )
    if isinstance(operator, ForEach):
        return apply_foreach(
            operator, relations[operator.source], schemas[operator.source]
        )
    if isinstance(operator, Group):
        return apply_group(
            operator, relations[operator.source], schemas[operator.source]
        )
    if isinstance(operator, Join):
        return apply_join(
            operator,
            relations[operator.left],
            relations[operator.right],
            schemas[operator.left],
            schemas[operator.right],
        )
    if isinstance(operator, Order):
        return apply_order(
            operator, relations[operator.source], schemas[operator.source]
        )
    if isinstance(operator, Distinct):
        return apply_distinct(relations[operator.source])
    if isinstance(operator, Limit):
        return apply_limit(
            operator, relations[operator.source], schemas[operator.source]
        )
    if isinstance(operator, Union):
        return list(relations[operator.left]) + list(relations[operator.right])
    if isinstance(operator, Store):
        return list(relations[operator.source])
    raise PlanError(f"cannot evaluate {type(operator).__name__}")


# ---------------------------------------------------------------------------
# 2. Staged map/shuffle/reduce execution of the compiled pipeline
# ---------------------------------------------------------------------------


def run_pipeline_local(
    pipeline: CompiledPipeline, inputs: Mapping[str, Rows]
) -> dict[str, Rows]:
    """Execute each compiled stage as map -> shuffle -> reduce.

    Returns {store_path: rows} like :func:`evaluate_logical`; the
    equivalence of the two is the compiler's correctness property.
    """
    plan = pipeline.plan
    schemas = plan.schemas()
    stage_outputs: dict[int, Rows] = {}
    stored: dict[str, Rows] = {}
    for stage in pipeline.stages:
        rows = _run_stage(stage, plan, schemas, inputs, stage_outputs)
        stage_outputs[stage.index] = rows
        if stage.store_path is not None:
            stored[stage.store_path] = rows
    return stored


def _branch_rows(
    branch: StageBranch,
    plan: LogicalPlan,
    schemas: Mapping[str, Schema],
    inputs: Mapping[str, Rows],
    stage_outputs: Mapping[int, Rows],
) -> Rows:
    if isinstance(branch.source, LoadRef):
        rows = inputs.get(branch.source.path, inputs.get(branch.source.alias))
        if rows is None:
            raise PlanError(f"no input rows for LOAD {branch.source.path!r}")
        rows = list(rows)
    else:
        rows = list(stage_outputs[branch.source.stage_index])
    for alias in branch.map_aliases:
        operator = plan[alias]
        source_schema = schemas[operator.inputs[0]]
        if isinstance(operator, Filter):
            rows = apply_filter(operator, rows, source_schema)
        elif isinstance(operator, ForEach):
            rows = apply_foreach(operator, rows, source_schema)
        elif isinstance(operator, Limit):
            rows = apply_limit(operator, rows, source_schema)
        else:  # pragma: no cover - compiler only folds these map-side
            raise PlanError(
                f"operator {type(operator).__name__} cannot run map-side"
            )
    return rows


def _run_stage(
    stage: StageSpec,
    plan: LogicalPlan,
    schemas: Mapping[str, Schema],
    inputs: Mapping[str, Rows],
    stage_outputs: Mapping[int, Rows],
) -> Rows:
    # Map phase: every branch produces its rows.
    sides: dict[str | None, Rows] = defaultdict(list)
    for branch in stage.branches:
        sides[branch.side].extend(
            _branch_rows(branch, plan, schemas, inputs, stage_outputs)
        )

    # Shuffle + blocking operator.
    if stage.shuffle_alias is None:
        rows = sides[None]
        current_alias = None
    else:
        operator = plan[stage.shuffle_alias]
        if isinstance(operator, Group):
            rows = apply_group(
                operator, sides[None], schemas[operator.source]
            )
        elif isinstance(operator, Join):
            rows = apply_join(
                operator,
                sides["left"],
                sides["right"],
                schemas[operator.left],
                schemas[operator.right],
            )
        elif isinstance(operator, Order):
            rows = apply_order(operator, sides[None], schemas[operator.source])
        elif isinstance(operator, Distinct):
            rows = apply_distinct(sides[None])
        else:  # pragma: no cover
            raise PlanError(
                f"operator {type(operator).__name__} cannot be a shuffle"
            )
        current_alias = stage.shuffle_alias

    # Reduce-side chain.
    for alias in stage.reduce_aliases:
        operator = plan[alias]
        source_schema = schemas[operator.inputs[0]]
        if isinstance(operator, Filter):
            rows = apply_filter(operator, rows, source_schema)
        elif isinstance(operator, ForEach):
            rows = apply_foreach(operator, rows, source_schema)
        elif isinstance(operator, Limit):
            rows = apply_limit(operator, rows, source_schema)
        else:  # pragma: no cover
            raise PlanError(
                f"operator {type(operator).__name__} cannot run reduce-side"
            )
        current_alias = alias

    del current_alias
    return rows
