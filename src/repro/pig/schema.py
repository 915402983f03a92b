"""Relational schemas for the Pig dataflow layer.

The paper motivates multi-stage MapReduce pipelines with Pig programs
(Section 2.1): "Pig programs ... compile down to multi-staged MapReduce
computations, in which the result of one stage is used as the input to
the subsequent stage".  :mod:`repro.pig` reproduces that substrate: a
small Pig-Latin dialect, a logical plan, and a compiler to MapReduce
stages.  This module defines the type system and schemas the dialect
uses.

Values are plain Python objects:

- scalars: ``int``, ``float``, ``str``, ``bool``, ``None`` (Pig null);
- tuples: Python ``tuple``;
- bags: Python ``list`` of tuples (order is not semantically meaningful).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class PigType(enum.Enum):
    """The scalar and complex types of the dialect (a subset of Pig's)."""

    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    CHARARRAY = "chararray"
    BOOLEAN = "boolean"
    BYTEARRAY = "bytearray"  # Pig's "unknown" type
    TUPLE = "tuple"
    BAG = "bag"

    @property
    def is_numeric(self) -> bool:
        return self in (PigType.INT, PigType.LONG, PigType.FLOAT, PigType.DOUBLE)

    @property
    def is_complex(self) -> bool:
        return self in (PigType.TUPLE, PigType.BAG)


#: Parser keyword -> type mapping (``AS (x:int, y:double)``).
TYPE_NAMES = {t.value: t for t in PigType if not t.is_complex}


def numeric_join(left: PigType, right: PigType) -> PigType:
    """The result type of an arithmetic operation on two numeric types.

    Mirrors Pig's widening rules: int < long < float < double; BYTEARRAY
    (unknown) combined with anything numeric yields DOUBLE, Pig's safest
    runtime cast.
    """
    order = [PigType.INT, PigType.LONG, PigType.FLOAT, PigType.DOUBLE]
    if left is PigType.BYTEARRAY or right is PigType.BYTEARRAY:
        return PigType.DOUBLE
    if left not in order or right not in order:
        raise TypeError(f"non-numeric types in arithmetic: {left} and {right}")
    return order[max(order.index(left), order.index(right))]


@dataclass(frozen=True)
class Field:
    """One named, typed column of a relation.

    ``element`` carries the nested schema for TUPLE/BAG fields (the
    grouped relation inside a ``GROUP BY`` result, for instance).
    """

    name: str
    type: PigType = PigType.BYTEARRAY
    element: "Schema | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")
        if self.type.is_complex and self.element is None:
            raise ValueError(f"complex field {self.name!r} needs an element schema")
        if not self.type.is_complex and self.element is not None:
            raise ValueError(f"scalar field {self.name!r} cannot carry a schema")

    def renamed(self, name: str) -> "Field":
        return Field(name, self.type, self.element)

    def __str__(self) -> str:
        if self.element is not None:
            return f"{self.name}:{self.type.value}({self.element})"
        return f"{self.name}:{self.type.value}"


@dataclass(frozen=True)
class Schema:
    """An ordered list of fields describing one relation.

    Column lookup accepts names (``"x"``), positional references
    (``"$0"``), and disambiguated names (``"a::x"``, produced by joins).
    """

    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *specs: str | Field) -> "Schema":
        """Build a schema from ``"name:type"`` strings or Field objects.

        >>> Schema.of("x:int", "name:chararray")
        Schema(fields=(Field(...), Field(...)))
        """
        fields = []
        for spec in specs:
            if isinstance(spec, Field):
                fields.append(spec)
                continue
            # Split on the *last* colon so join-style names ("a::x:int")
            # survive; a trailing segment that is not a type name means
            # the whole spec is an untyped column name.
            name, sep, type_name = spec.rpartition(":")
            if sep and type_name in TYPE_NAMES and not name.endswith(":"):
                fields.append(Field(name.strip(), TYPE_NAMES[type_name]))
            else:
                fields.append(Field(spec.strip(), PigType.BYTEARRAY))
        return cls(tuple(fields))

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __str__(self) -> str:
        return ", ".join(str(f) for f in self.fields)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def index_of(self, ref: str) -> int:
        """Resolve a column reference to a position.

        Raises :class:`KeyError` with the candidate columns on failure —
        schema errors are the most common user mistake in dataflow
        scripts, so the message lists what *is* available.
        """
        if ref.startswith("$"):
            try:
                position = int(ref[1:])
            except ValueError:
                raise KeyError(f"bad positional reference {ref!r}") from None
            if not 0 <= position < len(self.fields):
                raise KeyError(
                    f"{ref} out of range for schema with {len(self.fields)} columns"
                )
            return position
        for index, f in enumerate(self.fields):
            if f.name == ref:
                return index
        # Join-style disambiguation: "a::x" falls back to suffix match,
        # and a bare "x" matches a unique "...::x".
        suffix_hits = [
            index
            for index, f in enumerate(self.fields)
            if f.name.endswith("::" + ref)
        ]
        if len(suffix_hits) == 1:
            return suffix_hits[0]
        if len(suffix_hits) > 1:
            raise KeyError(
                f"ambiguous column {ref!r}; candidates: "
                f"{[self.fields[i].name for i in suffix_hits]}"
            )
        raise KeyError(f"no column {ref!r} in schema ({', '.join(self.names)})")

    def field(self, ref: str) -> Field:
        return self.fields[self.index_of(ref)]

    def prefixed(self, alias: str) -> "Schema":
        """Prefix every column with ``alias::`` (join output convention)."""
        return Schema(tuple(f.renamed(f"{alias}::{f.name}") for f in self.fields))

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self.fields + other.fields)

