"""Compiled-matrix diffing and in-place patching.

The replan hot path re-solves a model that is almost identical to the
previous one: spot-price estimates moved (objective coefficients),
capacity changed (variable bounds), work got done (right-hand sides).
This module compares two :class:`~repro.lp.model.CompiledModel` objects
that came from the *same model structure* and classifies the change:

- **patchable** — only numeric data moved (variable bounds, row bounds,
  matrix coefficient values on unchanged sparsity, objective): the diff
  is a :class:`CompiledDelta` that :meth:`CompiledDelta.apply` writes
  into the retained matrix in place;
- **structural** — anything that changes shape (column/row counts,
  sparsity patterns, integrality, bound finiteness, column identity):
  :func:`diff_compiled` returns ``None`` and the caller must fall back
  to a cold compile + solve.

Bound *finiteness* counts as structure because a bound flipping between
finite and infinite changes which side of a row or column can be active
at all — a retained basis may name a bound that no longer exists.

Both sides are arrays, so the diff is a handful of vectorized
comparisons; structure arrays two matrices share by identity (builds of
one cached layout do) are not compared at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import CompiledModel

__all__ = ["CompiledDelta", "diff_compiled"]


def _no_index() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _no_value() -> np.ndarray:
    return np.empty(0, dtype=float)


@dataclass
class CompiledDelta:
    """A pure-data patch between two structurally identical matrices.

    Index arrays with their parallel new-value arrays; ``entries`` are
    positions in the CSR ``data`` array, ``entry_rows``/``entry_cols``
    the matrix coordinates of the same coefficients (what a solver's
    ``changeCoeff`` wants).
    """

    #: Columns whose bounds moved, and their new bounds.
    cols: np.ndarray = field(default_factory=_no_index)
    col_lb: np.ndarray = field(default_factory=_no_value)
    col_ub: np.ndarray = field(default_factory=_no_value)
    #: Rows whose sides moved, and their new sides.
    rows: np.ndarray = field(default_factory=_no_index)
    row_lb: np.ndarray = field(default_factory=_no_value)
    row_ub: np.ndarray = field(default_factory=_no_value)
    #: Coefficient value changes on unchanged sparsity.
    entries: np.ndarray = field(default_factory=_no_index)
    entry_rows: np.ndarray = field(default_factory=_no_index)
    entry_cols: np.ndarray = field(default_factory=_no_index)
    coefs: np.ndarray = field(default_factory=_no_value)
    #: Full replacement cost vector (the new matrix's own, not a copy), or
    #: ``None`` if unchanged.
    objective: np.ndarray | None = None
    objective_offset: float | None = None

    @property
    def empty(self) -> bool:
        return not (
            len(self.cols)
            or len(self.rows)
            or len(self.entries)
            or self.objective is not None
            or self.objective_offset is not None
        )

    def apply(self, compiled: CompiledModel) -> None:
        """Write the patch into ``compiled`` in place."""
        compiled.var_lb[self.cols] = self.col_lb
        compiled.var_ub[self.cols] = self.col_ub
        compiled.row_lb[self.rows] = self.row_lb
        compiled.row_ub[self.rows] = self.row_ub
        compiled.data[self.entries] = self.coefs
        if self.objective is not None:
            compiled.objective[:] = self.objective
        if self.objective_offset is not None:
            compiled.objective_offset = self.objective_offset


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


def _moved_bounds(
    old_lo: np.ndarray, old_hi: np.ndarray, new_lo: np.ndarray, new_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(indices, new lo, new hi)`` of the bounds that changed; ``None``
    if a side changed between finite and infinite (or between the
    infinities) — that is, changed at all while infinite before or after."""
    moved = np.flatnonzero((old_lo != new_lo) | (old_hi != new_hi))
    lo, hi = new_lo[moved], new_hi[moved]
    if len(moved):
        was_lo, was_hi = old_lo[moved], old_hi[moved]
        flipped = ((was_lo != lo) & (np.isinf(was_lo) | np.isinf(lo))) | (
            (was_hi != hi) & (np.isinf(was_hi) | np.isinf(hi))
        )
        if flipped.any():
            return None
    return moved, lo, hi


def diff_compiled(old: CompiledModel, new: CompiledModel) -> CompiledDelta | None:
    """Classify ``old -> new``; ``None`` means the change is structural.

    Structure is judged conservatively: column count and identity (by
    variable name — two models of the same shape but over different
    service sets must not patch into each other), row count and per-row
    sparsity, integrality flags, objective sense, and the finiteness
    pattern of every bound.  Everything that passes is expressible as a
    :class:`CompiledDelta`, and applying it to ``old`` makes it
    numerically identical to ``new``.
    """
    if old.num_vars != new.num_vars or old.num_rows != new.num_rows:
        return None
    if old.negated != new.negated:
        return None
    if old.col_names is not new.col_names and old.col_names != new.col_names:
        return None
    if not (
        _same(old.integrality, new.integrality)
        and _same(old.indptr, new.indptr)
        and _same(old.indices, new.indices)
    ):
        return None

    moved_cols = _moved_bounds(old.var_lb, old.var_ub, new.var_lb, new.var_ub)
    if moved_cols is None:
        return None
    moved_rows = _moved_bounds(old.row_lb, old.row_ub, new.row_lb, new.row_ub)
    if moved_rows is None:
        return None
    cols, col_lb, col_ub = moved_cols
    rows, row_lb, row_ub = moved_rows
    delta = CompiledDelta(
        cols=cols, col_lb=col_lb, col_ub=col_ub,
        rows=rows, row_lb=row_lb, row_ub=row_ub,
    )
    entries = np.flatnonzero(old.data != new.data)
    if len(entries):
        delta.entries = entries
        delta.entry_rows = np.searchsorted(new.indptr, entries, side="right") - 1
        delta.entry_cols = new.indices[entries]
        delta.coefs = new.data[entries]
    if (old.objective != new.objective).any():
        delta.objective = new.objective
    if old.objective_offset != new.objective_offset:
        delta.objective_offset = new.objective_offset
    return delta

