"""Presolve: shrink a compiled model before handing it to a backend.

The planner's time-indexed models contain many columns a solver never
needs to think about: variables pinned by the system state (work already
done), singleton capacity rows, and rows made redundant by variable
bounds.  This module applies the classic reductions:

1. **Fixed columns** (``lb == ub``): substituted into every row and the
   objective, then dropped.
2. **Singleton rows** (one nonzero): converted into variable bounds and
   dropped.
3. **Redundant rows**: rows whose activity range — computed from the
   variable bounds — already lies inside the row bounds.
4. **Empty rows**: feasibility-checked and dropped.

Reductions iterate to a fixpoint.  :class:`PresolveResult` carries the
reduced model plus everything needed to map a reduced solution back to
the original columns (``restore``).  Infeasibility discovered during
presolve is reported without invoking a backend at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CompiledModel

_TOL = 1e-9
_MAX_PASSES = 10


@dataclass
class PresolveStats:
    """What presolve removed (for logging and the ablation bench)."""

    fixed_columns: int = 0
    singleton_rows: int = 0
    redundant_rows: int = 0
    empty_rows: int = 0
    passes: int = 0

    @property
    def rows_removed(self) -> int:
        return self.singleton_rows + self.redundant_rows + self.empty_rows


@dataclass
class PresolveResult:
    """A reduced model plus the recipe to undo the reduction."""

    reduced: CompiledModel
    #: original column -> fixed value, for columns removed by presolve.
    fixed_values: dict[int, float]
    #: reduced column index -> original column index.
    kept_columns: list[int]
    infeasible: bool
    stats: PresolveStats

    def restore(self, reduced_values: list[float]) -> list[float]:
        """Expand a reduced-model solution vector to original columns."""
        total = len(self.kept_columns) + len(self.fixed_values)
        full = [0.0] * total
        for col, value in self.fixed_values.items():
            full[col] = value
        for new_col, old_col in enumerate(self.kept_columns):
            full[old_col] = reduced_values[new_col]
        return full


def presolve(compiled: CompiledModel) -> PresolveResult:
    """Apply the reductions to a fixpoint and rebuild a compact model."""
    stats = PresolveStats()
    n = compiled.num_vars
    lb = list(compiled.var_lb)
    ub = list(compiled.var_ub)
    integrality = list(compiled.integrality)
    rows = [dict(r) for r in compiled.rows]
    row_lb = list(compiled.row_lb)
    row_ub = list(compiled.row_ub)
    alive_row = [True] * len(rows)
    fixed: dict[int, float] = {}
    infeasible = False

    def fix_column(col: int, value: float) -> bool:
        """Substitute ``col = value``; False on detected infeasibility."""
        fixed[col] = value
        for r, row in enumerate(rows):
            if not alive_row[r] or col not in row:
                continue
            coef = row.pop(col)
            if math.isfinite(row_lb[r]):
                row_lb[r] -= coef * value
            if math.isfinite(row_ub[r]):
                row_ub[r] -= coef * value
            if not row:  # became empty: constant feasibility check
                alive_row[r] = False
                stats.empty_rows += 1
                if row_lb[r] > _TOL or row_ub[r] < -_TOL:
                    return False
        return True

    for _pass in range(_MAX_PASSES):
        stats.passes = _pass + 1
        changed = False

        # 1. Fixed columns.
        for col in range(n):
            if col in fixed:
                continue
            if lb[col] > ub[col] + _TOL:
                infeasible = True
                break
            if abs(ub[col] - lb[col]) <= _TOL:
                value = lb[col]
                if integrality[col]:
                    value = round(value)
                stats.fixed_columns += 1
                changed = True
                if not fix_column(col, value):
                    infeasible = True
                    break
        if infeasible:
            break

        # 2. Singleton rows -> bounds.
        for r, row in enumerate(rows):
            if not alive_row[r] or len(row) != 1:
                continue
            ((col, coef),) = row.items()
            if abs(coef) <= _TOL:
                continue
            lo, hi = row_lb[r], row_ub[r]
            implied_lo = lo / coef if math.isfinite(lo) else -math.inf
            implied_hi = hi / coef if math.isfinite(hi) else math.inf
            if coef < 0:
                implied_lo, implied_hi = implied_hi, implied_lo
            if implied_lo > lb[col] + _TOL:
                lb[col] = implied_lo
                changed = True
            if implied_hi < ub[col] - _TOL:
                ub[col] = implied_hi
                changed = True
            alive_row[r] = False
            stats.singleton_rows += 1
            if lb[col] > ub[col] + _TOL:
                infeasible = True
                break
        if infeasible:
            break

        # 3. Redundant rows (activity bounds within row bounds).
        for r, row in enumerate(rows):
            if not alive_row[r] or not row:
                continue
            act_lo, act_hi = 0.0, 0.0
            determinate = True
            for col, coef in row.items():
                x_lo = fixed.get(col, lb[col])
                x_hi = fixed.get(col, ub[col])
                terms = (coef * x_lo, coef * x_hi)
                if not all(math.isfinite(t) or t in (math.inf, -math.inf)
                           for t in terms):
                    determinate = False
                    break
                act_lo += min(terms)
                act_hi += max(terms)
            if not determinate:
                continue
            lo_ok = not math.isfinite(row_lb[r]) or act_lo >= row_lb[r] - _TOL
            hi_ok = not math.isfinite(row_ub[r]) or act_hi <= row_ub[r] + _TOL
            if lo_ok and hi_ok:
                alive_row[r] = False
                stats.redundant_rows += 1
                changed = True
            # A provably violated row means infeasibility.
            if (math.isfinite(row_ub[r]) and act_lo > row_ub[r] + _TOL) or (
                math.isfinite(row_lb[r]) and act_hi < row_lb[r] - _TOL
            ):
                infeasible = True
                break
        if infeasible or not changed:
            break

    kept = [col for col in range(n) if col not in fixed]
    remap = {old: new for new, old in enumerate(kept)}

    new_rows: list[dict[int, float]] = []
    new_row_lb: list[float] = []
    new_row_ub: list[float] = []
    for r, row in enumerate(rows):
        if not alive_row[r] or not row:
            continue
        new_rows.append({remap[col]: coef for col, coef in row.items()})
        new_row_lb.append(row_lb[r])
        new_row_ub.append(row_ub[r])

    offset = compiled.objective_offset + sum(
        coef * fixed[col]
        for col, coef in compiled.objective.items()
        if col in fixed
    )
    new_objective = {
        remap[col]: coef
        for col, coef in compiled.objective.items()
        if col not in fixed and coef != 0.0
    }

    reduced = CompiledModel(
        num_vars=len(kept),
        objective=new_objective,
        objective_offset=offset,
        rows=new_rows,
        row_lb=new_row_lb,
        row_ub=new_row_ub,
        var_lb=[lb[col] for col in kept],
        var_ub=[ub[col] for col in kept],
        integrality=[integrality[col] for col in kept],
        columns=[compiled.columns[col] for col in kept],
        negated=compiled.negated,
    )
    return PresolveResult(
        reduced=reduced,
        fixed_values=fixed,
        kept_columns=kept,
        infeasible=infeasible,
        stats=stats,
    )
