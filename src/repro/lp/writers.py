"""Model exporters: CPLEX LP format and MPS format.

The paper "dispatch[es] the generated linear program to the CPLEX
solver" (Section 4.8).  These writers produce the artifacts that
dispatch would ship: the human-readable CPLEX LP format and the
interchange MPS format (free-form, integer markers).

Both walk a :class:`~repro.lp.model.MatrixModel`'s arrays — the CSR
rows, bounds, integrality, column and row names — and emit
deterministic text: same model, same bytes, so golden tests can diff
them, and a real CPLEX/HiGHS/Gurobi binary could consume the files
unchanged.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .model import MatrixModel

_NAME_RE = re.compile(r"[^A-Za-z0-9_.#\[\]]")


def _safe_name(name: str, index: int, prefix: str) -> str:
    """LP/MPS-safe identifier: sanitize or synthesize a stable name."""
    cleaned = _NAME_RE.sub("_", name) if name else ""
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"{prefix}{index}"
    return cleaned


def _unique_names(names, prefix: str) -> list[str]:
    """One safe, distinct identifier per entry of ``names``."""
    used: set[str] = set()
    out = []
    for index, name in enumerate(names):
        safe = _safe_name(name or "", index, prefix)
        while safe in used:
            safe = f"{safe}_{index}"
        used.add(safe)
        out.append(safe)
    return out


def _format_coef(value: float) -> str:
    """Human-stable coefficient formatting (no trailing noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _terms(pairs) -> str:
    """``3 x + 2 y - z`` rendering of ``(name, coef)`` pairs."""
    parts: list[str] = []
    for name, coef in pairs:
        if coef == 0.0:
            continue
        magnitude = abs(coef)
        term = name if magnitude == 1.0 else f"{_format_coef(magnitude)} {name}"
        if not parts:
            parts.append(term if coef > 0 else f"- {term}")
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {term}")
    return " ".join(parts) if parts else "0 __zero"


class _Export:
    """What both formats read off a :class:`MatrixModel`, in the model's
    own sense (a maximization's negated costs restored)."""

    def __init__(self, model: MatrixModel) -> None:
        self.compiled = compiled = model.compile()
        self.name = model.name
        self.maximize = compiled.negated
        sign = -1.0 if compiled.negated else 1.0
        self.objective = (sign * compiled.objective).tolist()
        self.constant = float(sign * compiled.objective_offset)
        self.cols = _unique_names(compiled.col_names, "x")
        self.rows = _unique_names(model.row_names, "c")
        self.lb = compiled.var_lb.tolist()
        self.ub = compiled.var_ub.tolist()
        integral = compiled.integrality
        binary = integral & (compiled.var_lb == 0.0) & (compiled.var_ub == 1.0)
        self.integer = integral.tolist()
        self.binary = binary.tolist()
        #: Per row: ``"<="``/``">="``/``"="`` and the right-hand side.
        self.senses: list[tuple[str, float]] = []
        for name, lo, hi in zip(
            self.rows, compiled.row_lb.tolist(), compiled.row_ub.tolist()
        ):
            if lo == hi:
                self.senses.append(("=", hi))
            elif math.isinf(lo):
                self.senses.append(("<=", hi))
            elif math.isinf(hi):
                self.senses.append((">=", lo))
            else:
                raise ValueError(f"row {name!r} is ranged; LP/MPS rows have one side")


def write_lp(model: MatrixModel) -> str:
    """Render the model in CPLEX LP format."""
    m = _Export(model)
    lines: list[str] = [f"\\ Problem: {m.name}"]
    lines.append("Maximize" if m.maximize else "Minimize")
    objective = _terms(zip(m.cols, m.objective))
    if m.constant:
        objective += f" + {_format_coef(m.constant)} __const"
    lines.append(f" obj: {objective}")

    lines.append("Subject To")
    indptr = m.compiled.indptr.tolist()
    names = [m.cols[col] for col in m.compiled.indices.tolist()]
    data = m.compiled.data.tolist()
    for row, (cname, (op, rhs)) in enumerate(zip(m.rows, m.senses)):
        span = slice(indptr[row], indptr[row + 1])
        terms = _terms(zip(names[span], data[span]))
        lines.append(f" {cname}: {terms} {op} {_format_coef(rhs)}")
    if m.constant:
        # LP format has no objective constant; encode it with a fixed
        # dummy column (the CPLEX-documented workaround).
        lines.append(" __fix_const: __const = 1")

    lines.append("Bounds")
    for name, lb, ub in zip(m.cols, m.lb, m.ub):
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
        name
        for name, integer, binary in zip(m.cols, m.integer, m.binary)
        if integer and not binary
    ]
    binaries = [name for name, binary in zip(m.cols, m.binary) if binary]
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_mps(model: MatrixModel) -> str:
    """Render the model in (free-form) MPS format.

    Maximization uses the ``OBJSENSE`` extension both CPLEX and HiGHS
    accept.
    """
    m = _Export(model)
    lines = [f"NAME          {_safe_name(m.name, 0, 'MODEL')}"]
    if m.maximize:
        lines.append("OBJSENSE")
        lines.append("    MAX")

    lines.append("ROWS")
    lines.append(" N  OBJ")
    row_types = {"<=": "L", ">=": "G", "=": "E"}
    for cname, (op, _) in zip(m.rows, m.senses):
        lines.append(f" {row_types[op]}  {cname}")

    # COLUMNS: gather per-column entries (objective + each row).
    entries: list[list[tuple[str, float]]] = [
        [("OBJ", coef)] if coef != 0.0 else [] for coef in m.objective
    ]
    # The CSR entries column by column, rows ascending within a column.
    compiled = m.compiled
    order = np.argsort(compiled.indices, kind="stable")
    row_of = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    for col, row, coef in zip(
        compiled.indices[order].tolist(),
        row_of[order].tolist(),
        compiled.data[order].tolist(),
    ):
        if coef != 0.0:
            entries[col].append((m.rows[row], coef))

    lines.append("COLUMNS")
    integer_open = False
    marker = 0
    for name, integer, column in zip(m.cols, m.integer, entries):
        if integer and not integer_open:
            lines.append(f"    MARKER{marker}  'MARKER'  'INTORG'")
            marker += 1
            integer_open = True
        elif not integer and integer_open:
            lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
            marker += 1
            integer_open = False
        for row_name, coef in column or [("OBJ", 0.0)]:
            lines.append(f"    {name}  {row_name}  {_format_coef(coef)}")
    if integer_open:
        lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")

    lines.append("RHS")
    for cname, (_, rhs) in zip(m.rows, m.senses):
        if rhs != 0.0:
            lines.append(f"    RHS  {cname}  {_format_coef(rhs)}")
    if m.constant:
        # MPS encodes an objective constant as a negated OBJ RHS.
        lines.append(f"    RHS  OBJ  {_format_coef(-m.constant)}")

    lines.append("BOUNDS")
    for name, lb, ub, binary in zip(m.cols, m.lb, m.ub, m.binary):
        if binary:
            lines.append(f" BV BND  {name}")
            continue
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


def save(model: MatrixModel, path: str) -> None:
    """Write the model to ``path``; format chosen by extension."""
    if path.endswith(".lp"):
        text = write_lp(model)
    elif path.endswith(".mps"):
        text = write_mps(model)
    else:
        raise ValueError(f"unknown model-file extension in {path!r} (.lp/.mps)")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
