"""Logical plan assembly, validation, and size estimation.

A :class:`LogicalPlan` is a DAG of :class:`~repro.pig.operators.Operator`
nodes keyed by alias.  Construction order is script order; validation
checks alias resolution and propagates schemas through every node so
that type errors surface before anything is compiled or executed.

Size estimation annotates each alias with estimated rows and bytes,
seeded by per-LOAD input sizes.  The estimates only need to be rough:
they feed the LP planner with per-stage data volumes, and the paper's
planner likewise runs off aggregate GB figures (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .operators import Load, Operator, PlanError, Store
from .schema import Schema


@dataclass(frozen=True)
class SizeEstimate:
    """Estimated relation size at one point in the plan."""

    rows: float
    bytes_per_row: float

    @property
    def total_bytes(self) -> float:
        return self.rows * self.bytes_per_row

    @property
    def total_gb(self) -> float:
        return self.total_bytes / 1e9


#: Assumed on-disk width of one scalar column, bytes.  Text-serialized
#: numerics and short strings are all in the ~8-16 byte range; precision
#: here only scales LP coefficients.
DEFAULT_COLUMN_BYTES = 12.0


class LogicalPlan:
    """An ordered collection of operators forming a dataflow DAG."""

    def __init__(self) -> None:
        self._operators: dict[str, Operator] = {}
        self._order: list[str] = []
        self._stores: list[Store] = []

    # -- construction --------------------------------------------------------

    def add(self, operator: Operator) -> Operator:
        """Append an operator; inputs must already be defined."""
        if operator.alias in self._operators:
            raise PlanError(f"alias {operator.alias!r} is already defined")
        for name in operator.inputs:
            if name not in self._operators:
                raise PlanError(
                    f"{type(operator).__name__} {operator.alias!r} reads "
                    f"undefined alias {name!r}"
                )
        self._operators[operator.alias] = operator
        self._order.append(operator.alias)
        if isinstance(operator, Store):
            self._stores.append(operator)
        return operator

    def extend(self, operators: Iterable[Operator]) -> None:
        for operator in operators:
            self.add(operator)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, alias: str) -> bool:
        return alias in self._operators

    def __getitem__(self, alias: str) -> Operator:
        try:
            return self._operators[alias]
        except KeyError:
            raise PlanError(
                f"unknown alias {alias!r}; defined: {self._order}"
            ) from None

    @property
    def aliases(self) -> list[str]:
        """Aliases in definition (= topological) order."""
        return list(self._order)

    @property
    def operators(self) -> list[Operator]:
        return [self._operators[a] for a in self._order]

    @property
    def loads(self) -> list[Load]:
        return [op for op in self.operators if isinstance(op, Load)]

    @property
    def stores(self) -> list[Store]:
        return list(self._stores)

    def consumers(self, alias: str) -> list[Operator]:
        return [op for op in self.operators if alias in op.inputs]

    # -- validation ------------------------------------------------------------

    def schemas(self) -> dict[str, Schema]:
        """Propagate schemas through the plan; raises PlanError on mismatch."""
        out: dict[str, Schema] = {}
        for alias in self._order:
            operator = self._operators[alias]
            input_schemas = [out[name] for name in operator.inputs]
            out[alias] = operator.output_schema(input_schemas)
        return out

    def validate(self) -> None:
        """Full static check: schemas resolve and at least one sink exists."""
        if not self._stores:
            raise PlanError("plan has no STORE; nothing would be computed")
        self.schemas()
        reachable = self._reachable_from_stores()
        dead = [a for a in self._order if a not in reachable]
        if dead:
            raise PlanError(
                f"aliases never reach a STORE (dead dataflow): {dead}"
            )

    def _reachable_from_stores(self) -> set[str]:
        reachable: set[str] = set()
        frontier = [s.alias for s in self._stores]
        while frontier:
            alias = frontier.pop()
            if alias in reachable:
                continue
            reachable.add(alias)
            frontier.extend(self._operators[alias].inputs)
        return reachable

    # -- size estimation ---------------------------------------------------------

    def estimate_sizes(
        self, input_gb: Mapping[str, float]
    ) -> dict[str, SizeEstimate]:
        """Estimated size of every alias, from per-LOAD-path input sizes.

        ``input_gb`` maps LOAD paths (or aliases) to gigabytes.  Row
        counts derive from the schema width; downstream operators apply
        their ``row_ratio`` and adjust widths (GROUP packs rows into
        bags, FOREACH re-projects, JOIN concatenates).
        """
        schemas = self.schemas()
        estimates: dict[str, SizeEstimate] = {}
        for alias in self._order:
            operator = self._operators[alias]
            if isinstance(operator, Load):
                gb = input_gb.get(operator.path, input_gb.get(alias))
                if gb is None:
                    raise PlanError(
                        f"no input size for LOAD {operator.path!r} "
                        f"(provide input_gb[{operator.path!r}])"
                    )
                width = max(1.0, len(operator.schema) * DEFAULT_COLUMN_BYTES)
                estimates[alias] = SizeEstimate(rows=gb * 1e9 / width,
                                                bytes_per_row=width)
                continue
            inputs = [estimates[name] for name in operator.inputs]
            input_schemas = [schemas[name] for name in operator.inputs]
            rows_in = sum(e.rows for e in inputs)
            ratio = operator.row_ratio(input_schemas)
            rows_out = max(0.0, rows_in * ratio)
            width_out = self._output_width(operator, inputs, schemas[alias], ratio)
            estimates[alias] = SizeEstimate(rows=rows_out, bytes_per_row=width_out)
        return estimates

    @staticmethod
    def _output_width(
        operator: Operator,
        inputs: list[SizeEstimate],
        output_schema: Schema,
        row_ratio: float,
    ) -> float:
        from .operators import ForEach, Group, Join

        if isinstance(operator, Group):
            # Bags keep every input byte; each output row carries
            # key + (rows_in/rows_out) packed tuples.
            per_key = inputs[0].bytes_per_row / max(row_ratio, 1e-9)
            return DEFAULT_COLUMN_BYTES + per_key
        if isinstance(operator, Join):
            return sum(e.bytes_per_row for e in inputs)
        if isinstance(operator, ForEach):
            return max(1.0, len(output_schema) * DEFAULT_COLUMN_BYTES)
        # Filters, order, distinct, limit, union, store keep the row shape.
        return max(e.bytes_per_row for e in inputs) if inputs else 1.0

    def describe(self) -> str:
        """Human-readable plan listing (``EXPLAIN``-style)."""
        schemas = self.schemas()
        lines = []
        for alias in self._order:
            operator = self._operators[alias]
            kind = type(operator).__name__.upper()
            inputs = ",".join(operator.inputs) or "-"
            lines.append(
                f"{alias:>12}  {kind:<8} <- {inputs:<16} ({schemas[alias]})"
            )
        return "\n".join(lines)
