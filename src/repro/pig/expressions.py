"""Expression AST for the Pig dialect: evaluation and type inference.

Expressions appear in ``FILTER ... BY``, ``FOREACH ... GENERATE``,
``GROUP ... BY`` and ``JOIN ... BY`` clauses.  Each node knows how to

- evaluate itself against one input tuple (``evaluate``), and
- infer its output field given the input schema (``infer``),

so the same AST drives both the record-level local engines and the
schema propagation in the logical plan.

Null semantics follow Pig: any comparison or arithmetic involving a null
yields null (which FILTER treats as false); aggregates skip nulls.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .schema import Field, PigType, Schema, numeric_join


class ExpressionError(ValueError):
    """A semantically invalid expression for the given schema."""


class Expression(abc.ABC):
    """Base class for all expression nodes."""

    @abc.abstractmethod
    def evaluate(self, row: tuple, schema: Schema) -> Any:
        """Value of this expression for one input tuple."""

    @abc.abstractmethod
    def infer(self, schema: Schema) -> Field:
        """Output field (name + type) given the input schema."""

    def default_name(self) -> str:
        """Name used when a GENERATE item has no ``AS`` clause."""
        return self.infer_name_hint()

    def infer_name_hint(self) -> str:
        return "val"


@dataclass(frozen=True)
class Const(Expression):
    """A literal: number, string, or boolean."""

    value: Any

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        return self.value

    def infer(self, schema: Schema) -> Field:
        if isinstance(self.value, bool):
            pig_type = PigType.BOOLEAN
        elif isinstance(self.value, int):
            pig_type = PigType.INT
        elif isinstance(self.value, float):
            pig_type = PigType.DOUBLE
        elif isinstance(self.value, str):
            pig_type = PigType.CHARARRAY
        else:
            pig_type = PigType.BYTEARRAY
        return Field("const", pig_type)

    def infer_name_hint(self) -> str:
        return "const"


@dataclass(frozen=True)
class Column(Expression):
    """A column reference: ``x``, ``$0``, or ``a::x``."""

    ref: str

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        return row[schema.index_of(self.ref)]

    def infer(self, schema: Schema) -> Field:
        try:
            return schema.field(self.ref)
        except KeyError as exc:
            raise ExpressionError(str(exc)) from None

    def infer_name_hint(self) -> str:
        return self.ref.split("::")[-1].lstrip("$") or "col"


@dataclass(frozen=True)
class BagProject(Expression):
    """Project one column out of a bag-typed column: ``b.x``.

    Evaluates to a bag of 1-tuples — the shape Pig's aggregate functions
    consume (``SUM(b.x)``).
    """

    bag: str
    column: str

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        bag_field = schema.field(self.bag)
        if bag_field.type is not PigType.BAG or bag_field.element is None:
            raise ExpressionError(f"{self.bag!r} is not a bag")
        inner_index = bag_field.element.index_of(self.column)
        bag = row[schema.index_of(self.bag)]
        if bag is None:
            return None
        return [(item[inner_index],) for item in bag]

    def infer(self, schema: Schema) -> Field:
        bag_field = schema.field(self.bag)
        if bag_field.type is not PigType.BAG or bag_field.element is None:
            raise ExpressionError(f"{self.bag!r} is not a bag")
        inner = bag_field.element.field(self.column)
        return Field(self.column, PigType.BAG, Schema((inner,)))

    def infer_name_hint(self) -> str:
        return self.column


_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
}

_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic: ``a + b``, ``a * 2`` ..."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITH:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if left is None or right is None:
            return None
        return _ARITH[self.op](left, right)

    def infer(self, schema: Schema) -> Field:
        left = self.left.infer(schema)
        right = self.right.infer(schema)
        try:
            joined = numeric_join(left.type, right.type)
        except TypeError as exc:
            raise ExpressionError(str(exc)) from None
        if self.op == "/":
            joined = PigType.DOUBLE
        return Field("expr", joined)

    def infer_name_hint(self) -> str:
        return self.left.infer_name_hint()


@dataclass(frozen=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        value = self.operand.evaluate(row, schema)
        return None if value is None else -value

    def infer(self, schema: Schema) -> Field:
        inner = self.operand.infer(schema)
        if not inner.type.is_numeric and inner.type is not PigType.BYTEARRAY:
            raise ExpressionError(f"cannot negate a {inner.type.value}")
        return Field("expr", inner.type)


@dataclass(frozen=True)
class Comparison(Expression):
    """``a < b``, ``name == 'x'`` — null-safe: null operand -> null."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARE:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if left is None or right is None:
            return None
        return _COMPARE[self.op](left, right)

    def infer(self, schema: Schema) -> Field:
        # Validate operands resolve; result is boolean.
        self.left.infer(schema)
        self.right.infer(schema)
        return Field("cond", PigType.BOOLEAN)


@dataclass(frozen=True)
class BoolOp(Expression):
    """``AND`` / ``OR`` with three-valued (null-aware) logic."""

    op: str  # "and" | "or"
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ValueError(f"unknown boolean operator {self.op!r}")

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if self.op == "and":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left and right)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left or right)

    def infer(self, schema: Schema) -> Field:
        self.left.infer(schema)
        self.right.infer(schema)
        return Field("cond", PigType.BOOLEAN)


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        value = self.operand.evaluate(row, schema)
        return None if value is None else not value

    def infer(self, schema: Schema) -> Field:
        self.operand.infer(schema)
        return Field("cond", PigType.BOOLEAN)


def _agg_values(argument: Any) -> list:
    """Non-null scalar values from a bag of 1-tuples (or a plain bag)."""
    if argument is None:
        return []
    values = []
    for item in argument:
        value = item[0] if isinstance(item, tuple) else item
        if value is not None:
            values.append(value)
    return values


def _fn_count(args: Sequence[Any]) -> int:
    # Pig's COUNT skips tuples whose first field is null; COUNT_STAR
    # counts every tuple.
    return len(_agg_values(args[0]))


def _fn_count_star(args: Sequence[Any]) -> int:
    return 0 if args[0] is None else len(args[0])


def _fn_sum(args: Sequence[Any]) -> Any:
    values = _agg_values(args[0])
    return sum(values) if values else None


def _fn_avg(args: Sequence[Any]) -> Any:
    values = _agg_values(args[0])
    return sum(values) / len(values) if values else None


def _fn_min(args: Sequence[Any]) -> Any:
    values = _agg_values(args[0])
    return min(values) if values else None


def _fn_max(args: Sequence[Any]) -> Any:
    values = _agg_values(args[0])
    return max(values) if values else None


def _fn_size(args: Sequence[Any]) -> Any:
    value = args[0]
    if value is None:
        return None
    return len(value)


def _fn_concat(args: Sequence[Any]) -> Any:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _fn_upper(args: Sequence[Any]) -> Any:
    return None if args[0] is None else str(args[0]).upper()


def _fn_lower(args: Sequence[Any]) -> Any:
    return None if args[0] is None else str(args[0]).lower()


def _fn_abs(args: Sequence[Any]) -> Any:
    return None if args[0] is None else abs(args[0])


def _fn_sqrt(args: Sequence[Any]) -> Any:
    if args[0] is None or args[0] < 0:
        return None
    return math.sqrt(args[0])


def _fn_round(args: Sequence[Any]) -> Any:
    return None if args[0] is None else int(round(args[0]))


@dataclass(frozen=True)
class _FunctionSpec:
    arity: int
    aggregate: bool
    result: Callable[[Sequence[Field]], PigType]
    apply: Callable[[Sequence[Any]], Any]


def _numeric_result(fields: Sequence[Field]) -> PigType:
    inner = fields[0]
    if inner.type is PigType.BAG and inner.element is not None:
        return inner.element.fields[0].type
    return inner.type


FUNCTIONS: dict[str, _FunctionSpec] = {
    "COUNT": _FunctionSpec(1, True, lambda f: PigType.LONG, _fn_count),
    "COUNT_STAR": _FunctionSpec(1, True, lambda f: PigType.LONG, _fn_count_star),
    "SUM": _FunctionSpec(1, True, _numeric_result, _fn_sum),
    "AVG": _FunctionSpec(1, True, lambda f: PigType.DOUBLE, _fn_avg),
    "MIN": _FunctionSpec(1, True, _numeric_result, _fn_min),
    "MAX": _FunctionSpec(1, True, _numeric_result, _fn_max),
    "SIZE": _FunctionSpec(1, False, lambda f: PigType.LONG, _fn_size),
    "CONCAT": _FunctionSpec(2, False, lambda f: PigType.CHARARRAY, _fn_concat),
    "UPPER": _FunctionSpec(1, False, lambda f: PigType.CHARARRAY, _fn_upper),
    "LOWER": _FunctionSpec(1, False, lambda f: PigType.CHARARRAY, _fn_lower),
    "ABS": _FunctionSpec(1, False, _numeric_result, _fn_abs),
    "SQRT": _FunctionSpec(1, False, lambda f: PigType.DOUBLE, _fn_sqrt),
    "ROUND": _FunctionSpec(1, False, lambda f: PigType.LONG, _fn_round),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in function call: ``COUNT(b)``, ``SUM(b.x)``, ``UPPER(s)``."""

    name: str
    args: tuple[Expression, ...]

    def __post_init__(self) -> None:
        spec = FUNCTIONS.get(self.name.upper())
        if spec is None:
            raise ExpressionError(
                f"unknown function {self.name!r}; "
                f"available: {sorted(FUNCTIONS)}"
            )
        if len(self.args) != spec.arity:
            raise ExpressionError(
                f"{self.name} takes {spec.arity} argument(s), got {len(self.args)}"
            )

    @property
    def spec(self) -> _FunctionSpec:
        return FUNCTIONS[self.name.upper()]

    @property
    def is_aggregate(self) -> bool:
        return self.spec.aggregate

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        values = [arg.evaluate(row, schema) for arg in self.args]
        return self.spec.apply(values)

    def infer(self, schema: Schema) -> Field:
        arg_fields = [arg.infer(schema) for arg in self.args]
        if self.is_aggregate:
            inner = arg_fields[0]
            if inner.type is not PigType.BAG:
                raise ExpressionError(
                    f"{self.name} aggregates a bag; got {inner.type.value} "
                    f"(hint: apply it to a grouped relation or a bag projection)"
                )
        return Field(self.name.lower(), self.spec.result(arg_fields))

    def infer_name_hint(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Flatten(Expression):
    """``FLATTEN(bag_or_tuple)`` — only valid inside GENERATE.

    Evaluation returns the raw bag/tuple; the ForEach operator performs
    the actual un-nesting (one output row per bag element).
    """

    operand: Expression

    def evaluate(self, row: tuple, schema: Schema) -> Any:
        return self.operand.evaluate(row, schema)

    def infer(self, schema: Schema) -> Field:
        inner = self.operand.infer(schema)
        if not inner.type.is_complex:
            raise ExpressionError("FLATTEN requires a bag or tuple argument")
        return inner

    def flattened_fields(self, schema: Schema) -> tuple[Field, ...]:
        """The scalar fields FLATTEN expands to in the output schema."""
        inner = self.infer(schema)
        assert inner.element is not None
        return inner.element.fields

    def infer_name_hint(self) -> str:
        return self.operand.infer_name_hint()


def as_condition(value: Any) -> bool:
    """FILTER semantics: null and False both drop the row."""
    return value is True


def selectivity_estimate(expression: Expression) -> float:
    """Crude selectivity heuristic used for size propagation.

    Mirrors the classic System-R constants: equality keeps ~10% of rows,
    range predicates ~33%, conjunction multiplies, disjunction adds (capped),
    everything else keeps half.  The planner only needs rough data-volume
    ratios to seed the LP; hints can override per-statement.
    """
    if isinstance(expression, Comparison):
        return 0.10 if expression.op in ("==",) else 0.33
    if isinstance(expression, BoolOp):
        left = selectivity_estimate(expression.left)
        right = selectivity_estimate(expression.right)
        if expression.op == "and":
            return left * right
        return min(1.0, left + right)
    if isinstance(expression, Not):
        return max(0.0, 1.0 - selectivity_estimate(expression.operand))
    return 0.5
