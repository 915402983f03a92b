"""Logical operators of the Pig dialect.

Each operator is a node in a :class:`repro.pig.logical.LogicalPlan`.
Operators know how to propagate schemas (``output_schema``) and carry
the cardinality knobs the MapReduce compiler uses for data-volume
estimation.

The blocking operators — GROUP, JOIN, ORDER, DISTINCT — are the ones
that force a shuffle and therefore a stage boundary when compiled to
MapReduce (see :mod:`repro.pig.compiler`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from .expressions import (
    Expression,
    ExpressionError,
    Flatten,
    selectivity_estimate,
)
from .schema import Field, PigType, Schema


class PlanError(ValueError):
    """An invalid logical plan (unknown alias, schema mismatch, ...)."""


@dataclass(frozen=True)
class GenerateItem:
    """One item of a GENERATE clause: an expression plus optional name."""

    expression: Expression
    name: str | None = None

    def output_name(self, used: set[str]) -> str:
        base = self.name or self.expression.default_name()
        candidate = base
        suffix = 1
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        return candidate


class Operator(abc.ABC):
    """Base class for logical operators.

    ``alias`` names the operator's output relation; ``inputs`` lists the
    aliases it consumes (empty for LOAD).
    """

    alias: str

    @property
    @abc.abstractmethod
    def inputs(self) -> tuple[str, ...]:
        """Aliases of the input relations."""

    @abc.abstractmethod
    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        """Schema of the output relation given the input schemas."""

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        """Estimated output rows per input row (size propagation)."""
        return 1.0


@dataclass(frozen=True)
class Load(Operator):
    """``a = LOAD 'path' AS (x:int, y:double);``"""

    alias: str
    path: str
    schema: Schema

    @property
    def inputs(self) -> tuple[str, ...]:
        return ()

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        return self.schema


@dataclass(frozen=True)
class Filter(Operator):
    """``b = FILTER a BY x > 3 AND name == 'web';``"""

    alias: str
    source: str
    condition: Expression
    #: Override the heuristic selectivity (rows kept / rows in).
    selectivity_hint: float | None = None

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        cond_field = self.condition.infer(schema)
        if cond_field.type not in (PigType.BOOLEAN, PigType.BYTEARRAY):
            raise PlanError(
                f"FILTER {self.source}: condition is {cond_field.type.value}, "
                "not boolean"
            )
        return schema

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        if self.selectivity_hint is not None:
            return self.selectivity_hint
        return selectivity_estimate(self.condition)


@dataclass(frozen=True)
class ForEach(Operator):
    """``c = FOREACH b GENERATE x, y * 2 AS doubled;``

    FLATTEN items multiply rows (one per bag element); plain items map
    one-to-one.
    """

    alias: str
    source: str
    items: tuple[GenerateItem, ...]
    #: Average bag size assumed when FLATTEN-ing (rows-out per row-in).
    flatten_ratio_hint: float | None = None

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    @property
    def has_flatten(self) -> bool:
        return any(isinstance(i.expression, Flatten) for i in self.items)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        out_fields: list[Field] = []
        used: set[str] = set()
        for item in self.items:
            if isinstance(item.expression, Flatten):
                for inner in item.expression.flattened_fields(schema):
                    name = inner.name
                    suffix = 1
                    while name in used:
                        name = f"{inner.name}_{suffix}"
                        suffix += 1
                    used.add(name)
                    out_fields.append(inner.renamed(name))
                continue
            try:
                inferred = item.expression.infer(schema)
            except ExpressionError as exc:
                raise PlanError(f"FOREACH {self.source}: {exc}") from None
            name = item.output_name(used)
            used.add(name)
            out_fields.append(inferred.renamed(name))
        return Schema(tuple(out_fields))

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        if self.has_flatten:
            return self.flatten_ratio_hint if self.flatten_ratio_hint else 4.0
        return 1.0


@dataclass(frozen=True)
class Group(Operator):
    """``g = GROUP b BY x;`` — output schema ``(group, b:bag)``.

    ``key_ratio_hint`` estimates distinct keys / input rows; it controls
    how much data survives the reduce that implements the grouping.
    """

    alias: str
    source: str
    key: Expression
    key_ratio_hint: float = 0.1

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        try:
            key_field = self.key.infer(schema)
        except ExpressionError as exc:
            raise PlanError(f"GROUP {self.source}: {exc}") from None
        return Schema(
            (
                key_field.renamed("group"),
                Field(self.source, PigType.BAG, schema),
            )
        )

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        return self.key_ratio_hint


@dataclass(frozen=True)
class Join(Operator):
    """``j = JOIN a BY x, b BY y;`` — inner equi-join.

    Output columns are prefixed ``a::`` / ``b::`` as in Pig.
    ``match_ratio_hint`` estimates output rows / (left rows + right rows).
    """

    alias: str
    left: str
    left_key: Expression
    right: str
    right_key: Expression
    match_ratio_hint: float = 0.5

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.left, self.right)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        left_schema, right_schema = input_schemas
        try:
            self.left_key.infer(left_schema)
            self.right_key.infer(right_schema)
        except ExpressionError as exc:
            raise PlanError(f"JOIN {self.left}/{self.right}: {exc}") from None
        # Self-joins need distinct prefixes or the output schema would
        # collide (Pig requires re-aliasing; we disambiguate directly).
        right_prefix = self.right if self.right != self.left else f"{self.right}__2"
        return left_schema.prefixed(self.left).concat(
            right_schema.prefixed(right_prefix)
        )

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        return self.match_ratio_hint


@dataclass(frozen=True)
class Order(Operator):
    """``o = ORDER c BY cnt DESC;`` — global sort (blocking)."""

    alias: str
    source: str
    column: str
    descending: bool = False

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        try:
            schema.index_of(self.column)
        except KeyError as exc:
            raise PlanError(f"ORDER {self.source}: {exc}") from None
        return schema


@dataclass(frozen=True)
class Distinct(Operator):
    """``d = DISTINCT b;`` — duplicate elimination (blocking)."""

    alias: str
    source: str
    unique_ratio_hint: float = 0.5

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        return self.unique_ratio_hint


@dataclass(frozen=True)
class Limit(Operator):
    """``l = LIMIT o 10;``"""

    alias: str
    source: str
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError("LIMIT count must be non-negative")

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema

    def row_ratio(self, input_schemas: Sequence[Schema]) -> float:
        # Unknowable without row counts; treat as a strong reduction.
        return 0.01


@dataclass(frozen=True)
class Union(Operator):
    """``u = UNION a, b;`` — bag union (schemas must agree in arity/types)."""

    alias: str
    left: str
    right: str

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.left, self.right)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        left_schema, right_schema = input_schemas
        if len(left_schema) != len(right_schema):
            raise PlanError(
                f"UNION {self.left}/{self.right}: arities differ "
                f"({len(left_schema)} vs {len(right_schema)})"
            )
        for lf, rf in zip(left_schema, right_schema):
            if lf.type is not rf.type and PigType.BYTEARRAY not in (lf.type, rf.type):
                raise PlanError(
                    f"UNION {self.left}/{self.right}: column {lf.name!r} is "
                    f"{lf.type.value} on the left but {rf.type.value} on the right"
                )
        return left_schema


@dataclass(frozen=True)
class Store(Operator):
    """``STORE d INTO 'output';`` — a sink; alias is synthesized."""

    alias: str
    source: str
    path: str

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.source,)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema
