"""Model exporters: CPLEX LP format and MPS format.

The paper "dispatch[es] the generated linear program to the CPLEX
solver" (Section 4.8).  These writers produce the artifacts that
dispatch would ship: the human-readable CPLEX LP format (including its
``Semi-Continuous`` section, which the paper's phase-barrier variables
use) and the interchange MPS format (free-form, integer markers).

Both emit deterministic text — same model, same bytes — so golden tests
can diff them, and a real CPLEX/HiGHS/Gurobi binary could consume the
files unchanged.
"""

from __future__ import annotations

import math
import re

from .expr import LinExpr, Sense, Variable, VarType
from .model import MatrixModel, Model, ObjectiveSense

_NAME_RE = re.compile(r"[^A-Za-z0-9_.#\[\]]")


def _safe_name(name: str, index: int, prefix: str) -> str:
    """LP/MPS-safe identifier: sanitize or synthesize a stable name."""
    cleaned = _NAME_RE.sub("_", name) if name else ""
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"{prefix}{index}"
    return cleaned


def _format_coef(value: float) -> str:
    """Human-stable coefficient formatting (no trailing noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _expr_terms(expr: LinExpr, names: dict[Variable, str]) -> str:
    """``3 x + 2 y - z`` rendering of an expression's linear part."""
    parts: list[str] = []
    for var, coef in expr.terms.items():
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        magnitude = abs(coef)
        term = names[var] if magnitude == 1.0 else f"{_format_coef(magnitude)} {names[var]}"
        if not parts:
            parts.append(term if coef > 0 else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0 __zero"


def _variable_names(model: Model) -> dict[Variable, str]:
    names: dict[Variable, str] = {}
    used: set[str] = set()
    for var in model.variables:
        name = _safe_name(var.name, var.index, "x")
        while name in used:
            name = f"{name}_{var.index}"
        used.add(name)
        names[var] = name
    return names


def _constraint_names(model: Model) -> list[str]:
    used: set[str] = set()
    names = []
    for index, constraint in enumerate(model.constraints):
        name = _safe_name(getattr(constraint, "name", "") or "", index, "c")
        while name in used:
            name = f"{name}_{index}"
        used.add(name)
        names.append(name)
    return names


def _front_end(model: Model | MatrixModel) -> Model:
    """The writers walk named variables and constraints; a model built
    in matrix form is given them back first."""
    return model.to_model() if isinstance(model, MatrixModel) else model


def write_lp(model: Model | MatrixModel) -> str:
    """Render the model in CPLEX LP format."""
    model = _front_end(model)
    names = _variable_names(model)
    constraint_names = _constraint_names(model)
    lines: list[str] = [f"\\ Problem: {model.name}"]
    sense = (
        "Minimize" if model.sense is ObjectiveSense.MINIMIZE else "Maximize"
    )
    lines.append(sense)
    objective = _expr_terms(model.objective, names)
    if model.objective.constant:
        objective += f" + {_format_coef(model.objective.constant)} __const"
    lines.append(f" obj: {objective}")

    lines.append("Subject To")
    for constraint, cname in zip(model.constraints, constraint_names):
        expr = constraint.expr
        rhs = -expr.constant
        op = {Sense.LE: "<=", Sense.GE: ">=", Sense.EQ: "="}[constraint.sense]
        lines.append(
            f" {cname}: {_expr_terms(expr, names)} {op} {_format_coef(rhs)}"
        )
    if model.objective.constant:
        # LP format has no objective constant; encode it with a fixed
        # dummy column (the CPLEX-documented workaround).
        lines.append(" __fix_const: __const = 1")

    lines.append("Bounds")
    for var in model.variables:
        name = names[var]
        lb, ub = var.lb, var.ub
        if var.vtype is VarType.SEMI_CONTINUOUS:
            # Bounds give the [L, U] band; the section below adds the
            # "or zero" semantics.
            lines.append(f" {_format_coef(var.sc_lb)} <= {name} <= {_format_coef(ub)}")
            continue
        if lb == 0.0 and math.isinf(ub):
            continue  # the LP-format default
        if math.isinf(ub) and not math.isinf(lb):
            lines.append(f" {name} >= {_format_coef(lb)}")
        elif lb == ub:
            lines.append(f" {name} = {_format_coef(lb)}")
        else:
            lo = "-inf" if math.isinf(lb) else _format_coef(lb)
            hi = "+inf" if math.isinf(ub) else _format_coef(ub)
            lines.append(f" {lo} <= {name} <= {hi}")

    generals = [
        names[v] for v in model.variables if v.vtype is VarType.INTEGER
    ]
    binaries = [names[v] for v in model.variables if v.vtype is VarType.BINARY]
    semis = [
        names[v]
        for v in model.variables
        if v.vtype is VarType.SEMI_CONTINUOUS
    ]
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    if semis:
        lines.append("Semi-Continuous")
        lines.extend(f" {name}" for name in semis)
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_mps(model: Model | MatrixModel) -> str:
    """Render the model in (free-form) MPS format.

    Semi-continuous columns use the ``SC`` bound type; maximization uses
    the ``OBJSENSE`` extension both CPLEX and HiGHS accept.
    """
    model = _front_end(model)
    names = _variable_names(model)
    constraint_names = _constraint_names(model)
    lines = [f"NAME          {_safe_name(model.name, 0, 'MODEL')}"]
    if model.sense is ObjectiveSense.MAXIMIZE:
        lines.append("OBJSENSE")
        lines.append("    MAX")

    lines.append("ROWS")
    lines.append(" N  OBJ")
    row_types = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}
    for constraint, cname in zip(model.constraints, constraint_names):
        lines.append(f" {row_types[constraint.sense]}  {cname}")

    # COLUMNS: gather per-variable entries (objective + each row).
    entries: dict[Variable, list[tuple[str, float]]] = {
        var: [] for var in model.variables
    }
    for var, coef in model.objective.terms.items():
        if coef != 0.0:
            entries[var].append(("OBJ", coef))
    for constraint, cname in zip(model.constraints, constraint_names):
        for var, coef in constraint.expr.terms.items():
            if coef != 0.0:
                entries[var].append((cname, coef))

    lines.append("COLUMNS")
    integer_open = False
    marker = 0
    for var in model.variables:
        needs_marker = var.vtype in (VarType.INTEGER, VarType.BINARY)
        if needs_marker and not integer_open:
            lines.append(f"    MARKER{marker}  'MARKER'  'INTORG'")
            marker += 1
            integer_open = True
        elif not needs_marker and integer_open:
            lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
            marker += 1
            integer_open = False
        row_entries = entries[var] or [("OBJ", 0.0)]
        for row_name, coef in row_entries:
            lines.append(f"    {names[var]}  {row_name}  {_format_coef(coef)}")
    if integer_open:
        lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")

    lines.append("RHS")
    for constraint, cname in zip(model.constraints, constraint_names):
        rhs = -constraint.expr.constant
        if rhs != 0.0:
            lines.append(f"    RHS  {cname}  {_format_coef(rhs)}")
    if model.objective.constant:
        # MPS encodes an objective constant as a negated OBJ RHS.
        lines.append(
            f"    RHS  OBJ  {_format_coef(-model.objective.constant)}"
        )

    lines.append("BOUNDS")
    for var in model.variables:
        name = names[var]
        if var.vtype is VarType.SEMI_CONTINUOUS:
            lines.append(f" LO BND  {name}  {_format_coef(var.sc_lb)}")
            lines.append(f" SC BND  {name}  {_format_coef(var.ub)}")
            continue
        if var.vtype is VarType.BINARY:
            lines.append(f" BV BND  {name}")
            continue
        lb, ub = var.lb, var.ub
        if lb == ub:
            lines.append(f" FX BND  {name}  {_format_coef(lb)}")
            continue
        if lb != 0.0:
            if math.isinf(lb):
                lines.append(f" MI BND  {name}")
            else:
                lines.append(f" LO BND  {name}  {_format_coef(lb)}")
        if not math.isinf(ub):
            lines.append(f" UP BND  {name}  {_format_coef(ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def save(model: Model | MatrixModel, path: str) -> None:
    """Write the model to ``path``; format chosen by extension."""
    if path.endswith(".lp"):
        text = write_lp(model)
    elif path.endswith(".mps"):
        text = write_mps(model)
    else:
        raise ValueError(f"unknown model-file extension in {path!r} (.lp/.mps)")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
