"""LP model generation for MapReduce deployments (paper Section 4).

This module turns a :class:`~repro.core.problem.PlanningProblem` into a
time-expanded mixed-integer linear program and extracts deployable
:class:`~repro.core.plan.ExecutionPlan` objects from solutions.

The formulation follows the paper:

- Execution is discretized into ``T`` intervals of ``Δ`` hours (Section
  4.3); one interval defaults to one hour, EC2's billing granularity, so
  integer node variables encode round-up billing exactly.
- Upload/storage obey flow preservation (eqs. 1-2); processing is bounded
  by rented node capacity (eq. 3) and by data already uploaded (eq. 4).
- The map/reduce barrier is the paper's semi-continuous "0 or full
  output" condition, lowered to a per-interval binary ``phase[t]``.
- Data may migrate between storage services across interval boundaries
  (Section 4.5); services may bundle storage with computation (resource
  overlap, Section 4.6): bytes parked on EC2 virtual disks require live
  instances during that interval.
- Spot services price each interval at the predictor's estimate
  ``E[b(i,t)]`` (eq. 6).
- The objective is total monetary cost (eq. 5) for min-cost goals, or a
  lexicographic completion-then-cost objective for min-time goals.
- A compute service that another one dominates gets no columns
  (:func:`kept_problem`): ``d`` is dominated by ``c`` when ``k`` nodes
  of ``c`` cost no more than one of ``d`` and do at least its work and
  hold at least its data, at no dearer storage, request or transfer
  price, and the problem names ``d`` nowhere.  Any plan using ``d``
  maps onto ``c`` at equal or lower cost, so the optimum stays
  (docs/solver.md, "Dominated compute services").
- A model with exactly one compute service without a node cap ``c`` (or
  with one compute service) carries one implied row, ``node_hours``:
  ``Σ_t nodes[c,t] >= ⌈map_left / (map_rate·Δ) + reduce_left /
  (reduce_rate·Δ) − Σ_j max_nodes_j · T · map_rate_j / map_rate −
  1e-6⌉`` over the other, capped services ``j`` — the capacity rows
  scaled to ``c``'s rate and summed over ``t`` and services with the
  completion rows substituted, each capped service at its cap, rounded
  up because node counts are integers.  It cuts off no integer point,
  so the optimum stays; it lifts the LP bound branch & bound starts
  from by up to one node-hour (docs/solver.md, "The node-hours row").

The model is built in two steps, **layout** and **fill**, both for the
problem :func:`kept_problem` leaves.  Everything the formulation
*branches* on — horizon, which services are kept and what kind they
are, whether a reduce phase exists, the goal kind, the model flags — is
one hashable :class:`ModelStructure` (:func:`structure_key`).  A
:class:`_Layout` is what follows from that key alone: the columns and
rows with their names, the CSR sparsity pattern with every constant
coefficient in place, and index arrays saying where each family of
data-dependent numbers goes.  Layouts are immutable and cached per key;
:func:`build_model` looks the problem's layout up and *fills* fresh
arrays with the problem's numbers (prices, rates, bandwidths, state) in
a few dozen vectorized stores.  A re-plan, whose shape has not changed,
therefore never re-derives the model — and every build, first or
thousandth, goes through the same fill, so there is no separate refresh
path to keep in step.  ``tests/core/test_plan_execution.py`` checks the
model against execution: the fluid executor runs the plans it yields
and must be charged and take what they predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..cloud.services import UNLIMITED, ServiceDescription, validate_catalog
from ..lp.model import CompiledModel, MatrixModel, Solution
from .plan import ExecutionPlan, PlanInterval
from .problem import GoalKind, PlanningProblem

_EPS = 1e-6
#: How far under 1.0 upload fractions may sum and still pin every byte.
_FRACTION_TOL = 1e-12
#: Objective weight that makes one saved interval dominate any cost change
#: in min-time mode (lexicographic completion-then-cost).
_TIME_WEIGHT_MARGIN = 10.0

#: Tie-breaker weights (small enough never to perturb cent-scale costs).
_NODE_TIEBREAK = 1e-6
_EARLY_WORK_TIEBREAK = 1e-9
_FLOW_TIEBREAK = 1e-9

#: Layouts kept, least recently used out first.  One is a few hundred KB
#: (mostly the column and row names); a fleet re-plans a handful of
#: catalogs over a shrinking horizon, the service a few dozen shapes.
LAYOUT_CACHE_SIZE = 64


class PlanningError(RuntimeError):
    """The problem cannot be planned (infeasible or solver failure).

    ``status`` carries the solver's verdict (``infeasible``, ``error``,
    ...) and ``budgeted`` whether the goal carried a budget constraint —
    together they let the public API map the failure to a stable error
    code (``infeasible`` vs. ``budget_exceeded``) without string-parsing.
    """

    def __init__(
        self, message: str, status: str = "", budgeted: bool = False
    ) -> None:
        super().__init__(message)
        self.status = status
        self.budgeted = budgeted

    def __reduce__(self):
        # Exceptions pickle via ``args`` by default, which would drop the
        # keyword state when a process-pool worker ships one back.
        message = self.args[0] if self.args else ""
        return (type(self), (message, self.status, self.budgeted))


# ------------------------------------------------------------------ structure


class ModelStructure(NamedTuple):
    """Every input the builder branches on: the model's shape, no data.

    Two problems with equal structures get the same columns, rows and
    sparsity pattern (short of a coefficient that is exactly zero, which
    is dropped per build); everything else about them — prices, rates,
    bandwidths, budget, system state — only lands in numbers.
    """

    horizon: int
    #: Per storage service, in catalog order: ``(name, is local, has a
    #: finite capacity, capacity grows with its own nodes)``.
    storage: tuple[tuple[str, bool, bool, bool], ...]
    #: Per compute service, in catalog order: ``(name, is local, is
    #: spot, has a finite node cap)``.
    compute: tuple[tuple[str, bool, bool, bool], ...]
    has_reduce: bool
    goal: str
    budgeted: bool
    constant_nodes: bool
    allow_migration: bool
    #: ``upload_read_lag == 0``: data is processable in the interval it
    #: arrives in.
    stream_uploads: bool
    strict_phase_gap: bool
    #: Services with an upload-fraction constraint, in mapping order.
    fractions: tuple[str, ...]


def _multiple(c: ServiceDescription, d: ServiceDescription) -> int:
    """How many ``c`` nodes one ``d`` node's price buys: the largest
    ``k`` with ``k · price_c <= price_d`` (``⌊price_d / price_c⌋``, with
    the division's rounding undone)."""
    k = math.floor(d.price_per_node_hour / c.price_per_node_hour)
    while k > 0 and k * c.price_per_node_hour > d.price_per_node_hour:
        k -= 1
    while (k + 1) * c.price_per_node_hour <= d.price_per_node_hour:
        k += 1
    return k


def _dominates(
    c: ServiceDescription, d: ServiceDescription, problem: PlanningProblem
) -> bool:
    """Whether compute service ``c`` dominates compute service ``d``.

    Replace each ``d`` node with ``k`` nodes of ``c`` and move ``d``'s
    flows and stocks onto ``c``: the cost stays or drops, and every row
    still holds (docs/solver.md, "Dominated compute services").
    """
    if c.is_spot or d.is_spot or c.max_nodes != UNLIMITED:
        return False
    if c.price_per_node_hour <= 0 or c.provider != d.provider:
        return False
    if c.billing_hours != d.billing_hours:
        return False
    # Flows between a compute service and another provider's storage pay
    # the compute side's transfer prices too.
    if (c.transfer_in_cost_gb > d.transfer_in_cost_gb
            or c.transfer_out_cost_gb > d.transfer_out_cost_gb):
        return False
    k = _multiple(c, d)
    if k < 1 or d.throughput_gb_per_hour > k * c.throughput_gb_per_hour:
        return False
    if d.can_store:
        if not c.can_store or k * c.storage_gb_per_node < d.storage_gb_per_node:
            return False
        # d's own capacity would add to c's, unless it is none or c's
        # has no limit.
        if d.storage_capacity_gb != 0 and c.storage_capacity_gb != UNLIMITED:
            return False
        if (c.cost_tstore_gb_hour > d.cost_tstore_gb_hour
                or c.put_cost_per_gb() > d.put_cost_per_gb()
                or c.get_cost_per_gb() > d.get_cost_per_gb()):
            return False
        # Data migrating between d and c is billed as stored by neither
        # while in flight; on c alone it would be.
        if problem.allow_migration and c.cost_tstore_gb_hour > 0:
            return False
        # d's uploads would land on c, past a pinned fraction of c's —
        # unless the fractions pin every byte, so that d gets none.
        fractions = problem.upload_fractions
        if c.name in fractions and sum(fractions.values()) < 1.0 - _FRACTION_TOL:
            return False
    return True


def _named(service: ServiceDescription, problem: PlanningProblem) -> bool:
    """Whether ``problem`` refers to ``service`` beyond its catalog."""
    name = service.name
    state = problem.effective_state
    return (
        name in problem.upload_fractions
        or name in problem.spot_price_estimates
        or any(
            stock.get(name)
            for stock in (state.stored_input, state.stored_output, state.stored_result)
        )
    )


def kept_problem(problem: PlanningProblem) -> PlanningProblem:
    """``problem`` without the compute services another one dominates.

    Both the layout and the fill are built from it, so a dominated
    service has no columns and no plan names it.  The problem itself
    comes back when nothing is dominated.  Of two services that dominate
    each other, the one first in catalog order is kept.
    """
    compute = problem.compute_services()
    if len(compute) < 2:
        return problem
    dropped = set()
    for i, d in enumerate(compute):
        if _named(d, problem):
            continue
        for j, c in enumerate(compute):
            if j != i and _dominates(c, d, problem) and not (
                j > i and _dominates(d, c, problem)
            ):
                dropped.add(d.name)
                break
    if not dropped:
        return problem
    return replace(
        problem, services=[s for s in problem.services if s.name not in dropped]
    )


def structure_key(problem: PlanningProblem) -> ModelStructure:
    """The problem's :class:`ModelStructure` (the layout cache key, and
    what :func:`repro.service.fingerprint.structural_fingerprint` hashes):
    the structure of the model :func:`build_model` builds, that of
    :func:`kept_problem`."""
    return _structure(kept_problem(problem))


def _structure(problem: PlanningProblem) -> ModelStructure:
    local = problem.local_provider
    return ModelStructure(
        horizon=problem.horizon_intervals,
        storage=tuple(
            (
                s.name,
                s.provider == local,
                s.storage_capacity_gb != UNLIMITED,
                bool(s.can_compute and s.storage_gb_per_node > 0),
            )
            for s in problem.storage_services()
        ),
        compute=tuple(
            (c.name, c.provider == local, bool(c.is_spot), c.max_nodes != UNLIMITED)
            for c in problem.compute_services()
        ),
        has_reduce=problem.job.map_output_gb > _EPS,
        goal=problem.goal.kind.value,
        budgeted=problem.goal.budget_usd is not None,
        constant_nodes=bool(problem.constant_nodes),
        allow_migration=bool(problem.allow_migration),
        stream_uploads=problem.upload_read_lag == 0,
        strict_phase_gap=bool(problem.strict_phase_gap),
        fractions=tuple(problem.upload_fractions),
    )


def _node_hours_service(
    compute: tuple[tuple[str, bool, bool, bool], ...],
) -> int | None:
    """Index of the compute service the ``node_hours`` row counts: the
    only one, or else the only one without a node cap; ``None`` if
    neither exists."""
    if len(compute) == 1:
        return 0
    uncapped = [j for j, (*_, capped) in enumerate(compute) if not capped]
    return uncapped[0] if len(uncapped) == 1 else None


# --------------------------------------------------------------------- layout


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a :class:`ModelStructure` determines, shared by every build
    of that shape.  All arrays are read-only.

    Column blocks are index arrays into the column vector, shaped by
    service and interval (interval ``k`` is the paper's ``t = k + 1``;
    stock blocks have one more entry, index 0 being the initial stock).
    ``data``/``row_lb``/``row_ub``/``var_ub`` are templates: constants in
    place, ``NaN`` wherever a build must store a number.
    """

    key: ModelStructure
    # -- columns
    col_names: tuple[str, ...]
    integrality: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    #: Objective tie-breakers (pure structure: which column, which interval).
    tiebreak: np.ndarray
    up: np.ndarray  # (S, T)
    down: np.ndarray  # (S, T)
    st_in: np.ndarray  # (S, T + 1)
    st_out: np.ndarray  # (S, T + 1)
    st_res: np.ndarray  # (S, T + 1)
    nodes: np.ndarray  # (C, T)
    read: np.ndarray  # (S, C, T): storage -> compute
    write: np.ndarray  # (S, C, T): compute -> storage
    red_read: np.ndarray  # (S, C, T), empty without a reduce phase
    red_write: np.ndarray  # (S, C, T), empty without a reduce phase
    #: Ordered ``(from, to)`` storage index pairs data may migrate along.
    mig_pairs: tuple[tuple[int, int], ...]
    mig_in: np.ndarray  # (pairs, T)
    mig_out: np.ndarray  # (pairs, T)
    done: np.ndarray  # (T,), empty for min-cost goals
    # -- rows
    row_names: tuple[str, ...]
    row_lb: np.ndarray
    row_ub: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    #: Coefficient family -> positions in ``data``.
    slots: dict[object, np.ndarray]
    #: Right-hand-side family -> row indices.
    rhs: dict[object, np.ndarray]
    # -- cost structure
    #: Per storage service: its end-of-interval stock columns.
    stocks: tuple[np.ndarray, ...]
    #: Per storage service: flows billed as PUT / GET requests on it.
    puts: tuple[np.ndarray, ...]
    gets: tuple[np.ndarray, ...]
    #: Every flow as ``(source, destination, columns)``; ``None`` is the
    #: customer's site.  Ordered the way cost labels are first met.
    flows: tuple[tuple[str | None, str | None, np.ndarray], ...]
    #: Columns of the budget row (every column that can carry a price).
    budget_cols: np.ndarray

    @property
    def num_cols(self) -> int:
        return len(self.col_names)


class _Rows:
    """The rows of a layout under construction, as COO triplets.

    A coefficient or right-hand side that is not a number names a data
    family: the template gets ``NaN`` there and the family remembers the
    spot, for the fill to store into.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.coefs: list[float] = []
        self.slots: dict[object, list[int]] = {}
        self.rhs: dict[object, list[int]] = {}

    def add(self, name: str, sense: str, terms, rhs=0.0) -> None:
        """``sum(coef * column for each (columns, coef) term) <sense> rhs``."""
        row = len(self.names)
        self.names.append(name)
        for cols, coef in terms:
            cols = np.atleast_1d(cols).tolist()
            if not isinstance(coef, float):
                first = len(self.cols)
                self.slots.setdefault(coef, []).extend(range(first, first + len(cols)))
                coef = math.nan
            self.rows.extend([row] * len(cols))
            self.cols.extend(cols)
            self.coefs.extend([coef] * len(cols))
        if not isinstance(rhs, float):
            self.rhs.setdefault(rhs, []).append(row)
            rhs = math.nan
        self.lb.append(-math.inf if sense == "<=" else rhs)
        self.ub.append(math.inf if sense == ">=" else rhs)


def _freeze(value) -> None:
    """Make every array reachable from ``value`` read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(key: ModelStructure) -> _Layout:
    """Lay the model of shape ``key`` out: Section 4, minus the numbers."""
    horizon = key.horizon
    storage = [name for name, *_ in key.storage]
    compute = [name for name, *_ in key.compute]
    local_s = [local for _, local, *_ in key.storage]
    local_c = [local for _, local, *_ in key.compute]
    n_s, n_c = len(storage), len(compute)
    reduce = key.has_reduce
    timed = key.goal == GoalKind.MINIMIZE_TIME.value
    intervals = range(horizon)

    # ---------------------------------------------------------------- vars
    names: list[str] = []

    def new(name: str) -> int:
        names.append(name)
        return len(names) - 1

    up = np.empty((n_s, horizon), dtype=np.int64)
    down = np.empty_like(up)
    st_in = np.empty((n_s, horizon + 1), dtype=np.int64)
    st_out, st_res = np.empty_like(st_in), np.empty_like(st_in)
    for i, s in enumerate(storage):
        for k in intervals:
            up[i, k] = new(f"up[{s},{k + 1}]")
            down[i, k] = new(f"down[{s},{k + 1}]")
        for t in range(horizon + 1):
            st_in[i, t] = new(f"stIn[{s},{t}]")
            st_out[i, t] = new(f"stOut[{s},{t}]")
            st_res[i, t] = new(f"stRes[{s},{t}]")
    nodes = np.empty((n_c, horizon), dtype=np.int64)
    for j, c in enumerate(compute):
        for k in intervals:
            nodes[j, k] = new(f"nodes[{c},{k + 1}]")
    read = np.empty((n_s, n_c, horizon), dtype=np.int64)
    write = np.empty_like(read)
    red_read = np.empty((n_s, n_c, horizon if reduce else 0), dtype=np.int64)
    red_write = np.empty_like(red_read)
    for i, s in enumerate(storage):
        for j, c in enumerate(compute):
            for k in intervals:
                read[i, j, k] = new(f"read[{s},{c},{k + 1}]")
                write[i, j, k] = new(f"write[{c},{s},{k + 1}]")
                if reduce:
                    red_read[i, j, k] = new(f"redRead[{s},{c},{k + 1}]")
                    red_write[i, j, k] = new(f"redWrite[{c},{s},{k + 1}]")
    mig_pairs = tuple(
        (i, i2)
        for i in range(n_s)
        for i2 in range(n_s)
        if i != i2 and key.allow_migration
    )
    mig_in = np.empty((len(mig_pairs), horizon), dtype=np.int64)
    mig_out = np.empty_like(mig_in)
    for p, (i, i2) in enumerate(mig_pairs):
        for k in intervals:
            mig_in[p, k] = new(f"migIn[{storage[i]},{storage[i2]},{k + 1}]")
            mig_out[p, k] = new(f"migOut[{storage[i]},{storage[i2]},{k + 1}]")
    phase = np.array([new(f"phase[{k + 1}]") for k in intervals if reduce], dtype=np.int64)
    done = np.array([new(f"done[{k + 1}]") for k in intervals if timed], dtype=np.int64)

    num_cols = len(names)
    integrality = np.zeros(num_cols, dtype=bool)
    var_ub = np.full(num_cols, math.inf)
    integrality[nodes] = True
    # A finite node cap is the build's to store.
    for j, (_, _, _, capped) in enumerate(key.compute):
        if capped:
            var_ub[nodes[j]] = math.nan
    for binary in (phase, done):
        integrality[binary] = True
        var_ub[binary] = 1.0

    def arrivals(table: np.ndarray, i: int, k: int) -> list[int]:
        """Migrations launched in k-1 arrive at the start of k (Section 4.5)."""
        if k == 0:
            return []
        return [table[p, k - 1] for p, (_, to) in enumerate(mig_pairs) if to == i]

    def departures(table: np.ndarray, i: int, k: int) -> list[int]:
        return [table[p, k] for p, (frm, _) in enumerate(mig_pairs) if frm == i]

    # ---------------------------------------------------------------- rows
    rows = _Rows()
    if key.constant_nodes:
        for j, c in enumerate(compute):
            for k in intervals[1:]:
                rows.add(
                    f"constant_nodes[{c},{k + 1}]", "==",
                    [(nodes[j, k], 1.0), (nodes[j, 0], -1.0)],
                )

    # Initial stocks.
    for i, s in enumerate(storage):
        rows.add(f"init_stIn[{s}]", "==", [(st_in[i, 0], 1.0)], rhs="init")
        rows.add(f"init_stOut[{s}]", "==", [(st_out[i, 0], 1.0)], rhs="init")
        rows.add(f"init_stRes[{s}]", "==", [(st_res[i, 0], 1.0)], rhs="init")

    # Flow preservation.
    for i, s in enumerate(storage):
        for k in intervals:
            t = k + 1
            reads = read[i, :, k]
            arr, dep = arrivals(mig_in, i, k), departures(mig_in, i, k)
            # Eq. (2) analog with consumption: stocks evolve by upload,
            # migration and processing.
            rows.add(
                f"flow_in[{s},{t}]", "==",
                [(st_in[i, t], 1.0), (st_in[i, k], -1.0), (up[i, k], -1.0),
                 (arr, -1.0), (dep, 1.0), (reads, 1.0)],
            )
            # Eq. (4) analog (per storage service): reads and departures
            # during t are limited to data present at the start of t —
            # plus same-interval uploads when streaming is allowed.
            avail = [(reads, 1.0), (dep, 1.0), (st_in[i, k], -1.0), (arr, -1.0)]
            if key.stream_uploads:
                avail.append((up[i, k], -1.0))
            rows.add(f"avail_in[{s},{t}]", "<=", avail)

            writes = write[i, :, k]
            if reduce:
                red_reads, red_writes = red_read[i, :, k], red_write[i, :, k]
                arr_o, dep_o = arrivals(mig_out, i, k), departures(mig_out, i, k)
                rows.add(
                    f"flow_out[{s},{t}]", "==",
                    [(st_out[i, t], 1.0), (st_out[i, k], -1.0), (writes, -1.0),
                     (arr_o, -1.0), (dep_o, 1.0), (red_reads, 1.0)],
                )
                # Reduce may stream output produced in the same interval
                # (sub-interval sequencing, gated by phase[t]).
                rows.add(
                    f"avail_out[{s},{t}]", "<=",
                    [(red_reads, 1.0), (dep_o, 1.0), (st_out[i, k], -1.0),
                     (arr_o, -1.0), (writes, -1.0)],
                )
                rows.add(
                    f"flow_res[{s},{t}]", "==",
                    [(st_res[i, t], 1.0), (st_res[i, k], -1.0),
                     (red_writes, -1.0), (down[i, k], 1.0)],
                )
                rows.add(
                    f"avail_res[{s},{t}]", "<=",
                    [(down[i, k], 1.0), (st_res[i, k], -1.0), (red_writes, -1.0)],
                )
            else:
                rows.add(
                    f"flow_out[{s},{t}]", "==",
                    [(st_out[i, t], 1.0), (st_out[i, k], -1.0), (writes, -1.0)],
                )
                rows.add(
                    f"flow_res[{s},{t}]", "==",
                    [(st_res[i, t], 1.0), (st_res[i, k], -1.0)],
                )
                rows.add(f"no_down[{s},{t}]", "==", [(down[i, k], 1.0)])

    # Phase coupling: map output is written as input is processed
    # (writes == ratio * reads; the ratio is the build's to store).
    for j, c in enumerate(compute):
        for k in intervals:
            rows.add(
                f"map_io[{c},{k + 1}]", "==",
                [(write[:, j, k], 1.0), (read[:, j, k], "map_io")],
            )
            if reduce:
                rows.add(
                    f"red_io[{c},{k + 1}]", "==",
                    [(red_write[:, j, k], 1.0), (red_read[:, j, k], "red_io")],
                )

    if reduce:
        gap = 1 if key.strict_phase_gap else 0
        for k in intervals:
            # The paper's semi-continuous barrier: reduce input flows only
            # once the *full* map output exists
            # (input_gb * phase <= map_done + cumulative reads).
            rows.add(
                f"phase_def[{k + 1}]", "<=",
                [(phase[k], "phase_def"), (read[:, :, : k + 1 - gap].ravel(), -1.0)],
                rhs="phase_def",
            )
            rows.add(
                f"phase_gate[{k + 1}]", "<=",
                [(red_read[:, :, k].ravel(), 1.0), (phase[k], "phase_gate")],
            )
            if k:
                rows.add(
                    f"phase_mono[{k + 1}]", ">=",
                    [(phase[k], 1.0), (phase[k - 1], -1.0)],
                )

    # Capacity (eq. 3): work / (rate * delta) <= nodes.
    for j, c in enumerate(compute):
        for k in intervals:
            usage = [(read[:, j, k], ("capacity_map", j))]
            if reduce:
                usage.append((red_read[:, j, k], ("capacity_reduce", j)))
            rows.add(f"capacity[{c},{k + 1}]", "<=", usage + [(nodes[j, k], -1.0)])

    # Storage capacity / coupling.  Resource overlap (Section 4.6): bytes
    # on a node-backed service need live nodes *during* the interval.
    # End-of-interval stocks alone would let data flow through within one
    # interval with zero nodes, so same-interval outflows count against
    # the capacity as well.
    for i, (s, _, finite, per_node) in enumerate(key.storage):
        if not finite:
            continue
        for k in intervals:
            t = k + 1
            held = [
                (st_in[i, t], 1.0), (st_out[i, t], 1.0), (st_res[i, t], 1.0),
                (down[i, k], 1.0), (read[i, :, k], 1.0),
            ]
            if reduce:
                held.append((red_read[i, :, k], 1.0))
            held.append((departures(mig_in, i, k), 1.0))
            held.append((departures(mig_out, i, k), 1.0))
            if per_node:
                held.append((nodes[compute.index(s), k], ("storage_cap", i)))
            rows.add(f"storage_cap[{s},{t}]", "<=", held, rhs=("storage_cap", i))

    # WAN bandwidth.
    for k in intervals:
        wan_up: list[int] = []
        wan_down: list[int] = []
        lan: list[int] = []
        for i in range(n_s):
            if local_s[i]:
                lan.append(up[i, k])
            else:
                wan_up.append(up[i, k])
                wan_down.append(down[i, k])
        for i in range(n_s):
            for j in range(n_c):
                if local_s[i] == local_c[j]:
                    continue
                # Reads leave the storage side, writes return to it.
                outbound, inbound = (
                    (wan_up, wan_down) if local_s[i] else (wan_down, wan_up)
                )
                outbound.append(read[i, j, k])
                inbound.append(write[i, j, k])
                if reduce:
                    outbound.append(red_read[i, j, k])
                    inbound.append(red_write[i, j, k])
        for table in (mig_in, mig_out):
            for p, (i, i2) in enumerate(mig_pairs):
                if local_s[i] and not local_s[i2]:
                    wan_up.append(table[p, k])
                elif not local_s[i] and local_s[i2]:
                    wan_down.append(table[p, k])
        rows.add(f"uplink[{k + 1}]", "<=", [(wan_up, 1.0)], rhs="uplink")
        rows.add(f"downlink[{k + 1}]", "<=", [(wan_down, 1.0)], rhs="downlink")
        if lan:
            rows.add(f"lan[{k + 1}]", "<=", [(lan, 1.0)], rhs="lan")
        # Intra-cloud cross-service flows (S3 <-> EC2) share provider
        # backbone bandwidth.
        cross = [
            table[i, j, k]
            for table in (read, write)
            for i in range(n_s)
            for j in range(n_c)
            if storage[i] != compute[j] and not local_s[i] and not local_c[j]
        ]
        if cross:
            rows.add(f"backbone[{k + 1}]", "<=", [(cross, 1.0)], rhs="backbone")

    # Completion.
    rows.add("upload_all", "==", [(up.ravel(), 1.0)], rhs="completion")
    rows.add("map_all", "==", [(read.ravel(), 1.0)], rhs="completion")
    if reduce:
        rows.add("reduce_all", "==", [(red_read.ravel(), 1.0)], rhs="completion")
        rows.add("download_all", "==", [(down.ravel(), 1.0)], rhs="completion")
    counted = _node_hours_service(key.compute)
    if counted is not None:
        # Implied by the capacity and completion rows (module docstring):
        # tightens the root bound, keeps the optimum.
        rows.add("node_hours", ">=", [(nodes[counted], 1.0)], rhs="node_hours")

    # Fraction sweeps.
    for name in key.fractions:
        rows.add(
            f"fraction[{name}]", "==", [(up[storage.index(name)], 1.0)], rhs="fraction"
        )

    # Every column that can carry a price, in column order.
    budget_cols = np.sort(np.concatenate([
        block.ravel()
        for block in (nodes, st_in[:, 1:], st_out[:, 1:], st_res[:, 1:], up, down,
                      read, write, red_read, red_write, mig_in, mig_out)
    ]))
    if timed:
        rows.add("budget", "<=", [(budget_cols, "budget")], rhs="budget")
        for k in intervals:
            # done[t] may only rise once the remaining work is through:
            # remaining * done <= cumulative downloads (or reads).
            finished = down[:, : k + 1] if reduce else read[:, :, : k + 1]
            rows.add(
                f"done_def[{k + 1}]", "<=",
                [(done[k], "done_def"), (finished.ravel(), -1.0)],
            )
            if k:
                rows.add(
                    f"done_mono[{k + 1}]", ">=", [(done[k], 1.0), (done[k - 1], -1.0)]
                )

    # COO -> CSR, columns ascending within a row; remember where each
    # entry went so families can name their positions.
    entry_rows = np.asarray(rows.rows, dtype=np.int64)
    entry_cols = np.asarray(rows.cols, dtype=np.int64)
    order = np.lexsort((entry_cols, entry_rows))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    indptr = np.zeros(len(rows.names) + 1, dtype=np.int32)
    np.cumsum(np.bincount(entry_rows, minlength=len(rows.names)), out=indptr[1:])

    # ------------------------------------------------------------ objective
    tiebreak = np.zeros(num_cols)
    early = np.arange(1, horizon + 1) * _EARLY_WORK_TIEBREAK
    tiebreak[nodes] = _NODE_TIEBREAK
    tiebreak[read] = early
    # Front-load uploads among cost-equal schedules: the WAN should never
    # idle early only to be saturated against the deadline.
    tiebreak[up] = early
    tiebreak[mig_in] = _FLOW_TIEBREAK
    tiebreak[mig_out] = _FLOW_TIEBREAK

    # Per-request I/O is billed per storage service; co-located access
    # (compute on the same service's virtual disks) bypasses the service
    # API and is free.
    def billed(i: int, direct: np.ndarray, via_compute, arriving: bool) -> np.ndarray:
        blocks = [direct[i]]
        for j in range(n_c):
            if compute[j] != storage[i]:
                blocks.extend(table[i, j] for table in via_compute)
        for table in (mig_in, mig_out):
            for p, pair in enumerate(mig_pairs):
                if pair[1 if arriving else 0] == i:
                    blocks.append(table[p])
        return np.concatenate(blocks)

    flows: list[tuple[str | None, str | None, np.ndarray]] = []
    flows += [(None, s, up[i]) for i, s in enumerate(storage)]
    flows += [(s, None, down[i]) for i, s in enumerate(storage)]
    for table, outbound in ((read, True), (write, False),
                            (red_read, True), (red_write, False)):
        for i, s in enumerate(storage):
            for j, c in enumerate(compute):
                flows.append((s, c, table[i, j]) if outbound else (c, s, table[i, j]))
    for table in (mig_in, mig_out):
        flows += [
            (storage[i], storage[i2], table[p]) for p, (i, i2) in enumerate(mig_pairs)
        ]

    layout = _Layout(
        key=key,
        col_names=tuple(names),
        integrality=integrality,
        var_lb=np.zeros(num_cols),
        var_ub=var_ub,
        tiebreak=tiebreak,
        up=up, down=down, st_in=st_in, st_out=st_out, st_res=st_res,
        nodes=nodes, read=read, write=write, red_read=red_read, red_write=red_write,
        mig_pairs=mig_pairs, mig_in=mig_in, mig_out=mig_out, done=done,
        row_names=tuple(rows.names),
        row_lb=np.asarray(rows.lb),
        row_ub=np.asarray(rows.ub),
        indptr=indptr,
        indices=entry_cols[order].astype(np.int32),
        data=np.asarray(rows.coefs)[order],
        slots={
            family: position[np.asarray(entries, dtype=np.int64)]
            for family, entries in rows.slots.items()
        },
        rhs={
            family: np.asarray(members, dtype=np.int64)
            for family, members in rows.rhs.items()
        },
        stocks=tuple(
            np.concatenate([st_in[i, 1:], st_out[i, 1:], st_res[i, 1:]])
            for i in range(n_s)
        ),
        puts=tuple(
            billed(i, up, (write, red_write), arriving=True) for i in range(n_s)
        ),
        gets=tuple(
            billed(i, down, (read, red_read), arriving=False) for i in range(n_s)
        ),
        flows=tuple(flows),
        budget_cols=budget_cols,
    )
    _freeze(vars(layout))
    return layout


# ----------------------------------------------------------------------- fill


@dataclass
class BuiltModel:
    """One problem's model: its layout, filled with its numbers."""

    #: The problem as built: :func:`kept_problem` of the one asked.
    problem: PlanningProblem
    model: MatrixModel
    layout: _Layout
    #: Monetary cost ($ per unit of each column): the objective without
    #: tie-breakers and completion weights.
    cost: np.ndarray
    #: ``"{service}/{category}"`` -> the ``(columns, price)`` parts of
    #: ``cost`` it accounts for, so plans can report the same stacked
    #: breakdown as the paper's Fig. 5.
    cost_terms: dict[str, list[tuple[np.ndarray, object]]]

    # -- solving / extraction ------------------------------------------------

    def solve(self, time_limit: float = 180.0, mip_gap: float = 0.01) -> Solution:
        """Solve with the paper's bounds: 3-minute cut-off, 1% gap."""
        return self.model.solve(time_limit=time_limit, mip_gap=mip_gap)

    def extract_plan(self, solution: Solution) -> ExecutionPlan:
        """Convert a feasible solution into a deployable plan.

        The one place a solve without a solution becomes a
        :class:`PlanningError`: every cold path is
        ``built.extract_plan(built.solve(limit, gap))``.
        """
        problem = self.problem
        if not solution.status.has_solution:
            raise PlanningError(
                f"planning failed for {problem.job.name!r}: "
                f"{solution.status.value} ({solution.message})",
                status=solution.status.value,
                budgeted=problem.goal.budget_usd is not None,
            )
        layout = self.layout
        delta = problem.interval_hours
        start = problem.effective_state.hour
        storage = [name for name, *_ in layout.key.storage]
        compute = [name for name, *_ in layout.key.compute]
        x = solution.x
        snapped = np.where(np.abs(x) < _EPS, 0.0, x)

        intervals = [
            PlanInterval(
                index=k + 1, start_hour=start + k * delta, duration_hours=delta
            )
            for k in range(layout.key.horizon)
        ]

        def positive(values: np.ndarray):
            """``(*index, value)`` for each positive entry, in index order."""
            where = np.nonzero(values > 0)
            return zip(*(axis.tolist() for axis in where), values[where].tolist())

        counts = np.rint(snapped[layout.nodes]).astype(np.int64)
        for j, k in zip(*(axis.tolist() for axis in np.nonzero(counts))):
            intervals[k].nodes[compute[j]] = int(counts[j, k])
        for i, k, gb in positive(snapped[layout.up]):
            intervals[k].upload_gb[storage[i]] = gb
        for i, k, gb in positive(snapped[layout.down]):
            intervals[k].download_gb[storage[i]] = gb
        held = (
            snapped[layout.st_in[:, 1:]]
            + snapped[layout.st_out[:, 1:]]
            + snapped[layout.st_res[:, 1:]]
        )
        for i, k, gb in positive(held):
            intervals[k].stored_gb[storage[i]] = gb
        for i, j, k, gb in positive(snapped[layout.read]):
            intervals[k].map_read_gb[storage[i], compute[j]] = gb
        for i, j, k, gb in positive(snapped[layout.write]):
            intervals[k].map_write_gb[compute[j], storage[i]] = gb
        for i, j, k, gb in positive(snapped[layout.red_read]):
            intervals[k].reduce_read_gb[storage[i], compute[j]] = gb
        for i, j, k, gb in positive(snapped[layout.red_write]):
            intervals[k].reduce_write_gb[compute[j], storage[i]] = gb
        moved = snapped[layout.mig_in] + snapped[layout.mig_out]
        for p, k, gb in positive(moved):
            i, i2 = layout.mig_pairs[p]
            intervals[k].migrate_gb[storage[i], storage[i2]] = gb

        breakdown = {
            label: sum(float((x[cols] * price).sum()) for cols, price in parts)
            for label, parts in self.cost_terms.items()
        }
        completion = self._predicted_completion(intervals, start, delta)
        return ExecutionPlan(
            intervals=intervals,
            predicted_cost=float(self.cost @ x),
            predicted_cost_breakdown=breakdown,
            predicted_completion_hours=completion,
            objective_value=solution.objective,
            solver_status=solution.status.value,
            solve_seconds=solution.solve_seconds,
            model_stats=self.model.stats(),
        )

    def _predicted_completion(
        self, intervals: list[PlanInterval], start: float, delta: float
    ) -> float:
        last_active = start
        for interval in intervals:
            if not interval.is_idle():
                last_active = interval.end_hour
        return last_active - start


def build_model(problem: PlanningProblem) -> BuiltModel:
    """Generate the time-expanded MILP for ``problem``: look its layout
    up, fill fresh arrays with its numbers."""
    validate_catalog(list(problem.services))
    state = problem.effective_state
    state.validate_against(problem.job)
    problem = kept_problem(problem)
    key = _structure(problem)
    layout = _layout(key)
    job = problem.job
    delta = problem.interval_hours
    storage = problem.storage_services()
    compute = problem.compute_services()
    reduce = key.has_reduce

    map_total_gb = job.input_gb
    map_remaining_gb = max(0.0, map_total_gb - state.map_done_gb)
    out_total_gb = job.map_output_gb
    reduce_remaining_gb = max(0.0, out_total_gb - state.reduce_done_gb)
    result_remaining_gb = max(0.0, job.result_gb - state.downloaded_gb)

    data = layout.data.copy()
    row_lb, row_ub = layout.row_lb.copy(), layout.row_ub.copy()
    var_lb, var_ub = layout.var_lb.copy(), layout.var_ub.copy()
    slots, rhs = layout.slots, layout.rhs

    def equal(family, value) -> None:
        members = rhs[family]
        row_lb[members] = value
        row_ub[members] = value

    # -------------------------------------------------------- coefficients
    data[slots["map_io"]] = -job.map_output_ratio
    if reduce:
        data[slots["red_io"]] = -job.reduce_output_ratio
        data[slots["phase_def"]] = map_total_gb
        data[slots["phase_gate"]] = -out_total_gb
        row_ub[rhs["phase_def"]] = state.map_done_gb
    for j, c in enumerate(compute):
        data[slots["capacity_map", j]] = 1.0 / (job.map_rate(c) * delta)
        if reduce:
            data[slots["capacity_reduce", j]] = 1.0 / (job.reduce_rate(c) * delta)
        if c.max_nodes != UNLIMITED:
            var_ub[layout.nodes[j]] = c.max_nodes
    for i, s in enumerate(storage):
        if s.storage_capacity_gb == UNLIMITED:
            continue
        row_ub[rhs["storage_cap", i]] = float(s.storage_capacity_gb)
        if s.can_compute and s.storage_gb_per_node > 0:
            data[slots["storage_cap", i]] = -s.storage_gb_per_node

    # ---------------------------------------------------- right-hand sides
    equal("init", [
        stock.get(s.name, 0.0)
        for s in storage
        for stock in (state.stored_input, state.stored_output, state.stored_result)
    ])
    network = problem.network
    row_ub[rhs["uplink"]] = network.uplink_gb_per_hour * delta
    row_ub[rhs["downlink"]] = network.downlink_gb_per_hour * delta
    if "lan" in rhs:
        row_ub[rhs["lan"]] = network.local_gb_per_hour * delta
    if "backbone" in rhs:
        row_ub[rhs["backbone"]] = network.interservice_gb_per_hour * delta
    remaining = [state.source_remaining_gb, map_remaining_gb]
    if reduce:
        remaining += [reduce_remaining_gb, result_remaining_gb]
    equal("completion", remaining)
    if "node_hours" in rhs:
        counted = _node_hours_service(key.compute)
        c = compute[counted]
        work = map_remaining_gb / (job.map_rate(c) * delta)
        if reduce:
            work += reduce_remaining_gb / (job.reduce_rate(c) * delta)
        # The capped services do at most their caps' worth, in c's
        # node-hours (reduce is reduce_speed_factor times faster on each).
        for j, other in enumerate(compute):
            if j != counted:
                work -= (other.max_nodes * key.horizon
                         * job.map_rate(other) / job.map_rate(c))
        # Rounded up because node counts are integers; the epsilon keeps a
        # point that meets the capacity rows within tolerance feasible.
        row_lb[rhs["node_hours"]] = math.ceil(work - _EPS)
    if problem.upload_fractions:
        equal("fraction", [
            fraction * state.source_remaining_gb
            for fraction in problem.upload_fractions.values()
        ])

    # ---------------------------------------------------------------- cost
    cost_terms = _cost_terms(problem, layout)
    cost = np.zeros(layout.num_cols)
    # Label by label, so a column priced under several labels sums them
    # in label order (as ``sum(cost_terms.values())`` would).
    for parts in cost_terms.values():
        for cols, price in parts:
            cost[cols] += price
    objective = cost + layout.tiebreak
    offset = 0.0
    nonzeros = len(layout.data)

    if problem.goal.kind is GoalKind.MINIMIZE_TIME:
        budget = problem.goal.budget_usd
        if budget is None:
            raise ValueError("a minimize-time goal needs a budget")
        data[slots["budget"]] = cost[layout.budget_cols]
        row_ub[rhs["budget"]] = budget
        data[slots["done_def"]] = result_remaining_gb if reduce else map_remaining_gb
        # One saved interval outweighs any cost difference.
        interval_weight = budget + _TIME_WEIGHT_MARGIN
        objective[layout.done] = -interval_weight
        offset = key.horizon * interval_weight
        # The budget row spans the columns some label prices (a zero
        # price included); the pattern held every column that could be.
        priced = np.zeros(layout.num_cols, dtype=bool)
        for parts in cost_terms.values():
            for cols, _ in parts:
                priced[cols] = True
        nonzeros -= len(layout.budget_cols) - int(priced.sum())

    # Exact zeros are no entries (a ratio or a price of 0): this build's
    # sparsity is then its own, and differs from the layout's.
    indptr, indices = layout.indptr, layout.indices
    keep = data != 0.0
    if not keep.all():
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        indptr = kept_before[indptr].astype(np.int32)
        indices, data = indices[keep], data[keep]

    compiled = CompiledModel(
        num_vars=layout.num_cols,
        objective=objective,
        objective_offset=offset,
        indptr=indptr,
        indices=indices,
        data=data,
        row_lb=row_lb,
        row_ub=row_ub,
        var_lb=var_lb,
        var_ub=var_ub,
        integrality=layout.integrality,
        col_names=layout.col_names,
        negated=False,
    )
    stats = {
        "variables": layout.num_cols,
        "integers": int(layout.integrality.sum()),
        "constraints": len(layout.row_names),
        "nonzeros": nonzeros,
    }
    model = MatrixModel(f"conductor-{job.name}", compiled, layout.row_names, stats)
    return BuiltModel(problem, model, layout, cost, cost_terms)


def _cost_terms(
    problem: PlanningProblem, layout: _Layout
) -> dict[str, list[tuple[np.ndarray, object]]]:
    """The monetary cost (eqs. 5-6) as labeled ``(columns, price)`` parts.

    A label exists only where something is charged; label order (compute,
    storage, requests, then transfers as flows first meet them) is the
    order their prices are summed in.
    """
    delta = problem.interval_hours
    by_name = {s.name: s for s in problem.services}
    local = problem.local_provider
    terms: dict[str, list[tuple[np.ndarray, object]]] = {}

    def charge(service: str, category: str, cols: np.ndarray, price) -> None:
        terms.setdefault(f"{service}/{category}", []).append((cols, price))

    # Compute rental: on-demand price or spot estimate per interval.
    for j, c in enumerate(problem.compute_services()):
        estimates = problem.spot_price_estimates.get(c.name)
        if c.is_spot and estimates is not None:
            series = np.asarray(estimates, dtype=float)
            # Past the end of the series, its last estimate holds.
            at = np.minimum(np.arange(layout.key.horizon), len(series) - 1)
            price = series[at] * delta
        else:
            price = c.price_per_node_hour * delta
        charge(c.name, "compute", layout.nodes[j], price)

    storage = problem.storage_services()
    # Time-based storage.
    for i, s in enumerate(storage):
        if s.cost_tstore_gb_hour > 0:
            charge(s.name, "storage", layout.stocks[i], s.cost_tstore_gb_hour * delta)

    # Per-request I/O, translated to per-GB (Section 4.2).
    for i, s in enumerate(storage):
        put_gb, get_gb = s.put_cost_per_gb(), s.get_cost_per_gb()
        if put_gb > 0:
            charge(s.name, "requests", layout.puts[i], put_gb)
        if get_gb > 0:
            charge(s.name, "requests", layout.gets[i], get_gb)

    # Transfer charges for data crossing provider boundaries.
    for src, dst, cols in layout.flows:
        src_svc = by_name.get(src) if src else None
        dst_svc = by_name.get(dst) if dst else None
        src_provider = src_svc.provider if src_svc else local
        dst_provider = dst_svc.provider if dst_svc else local
        if src_provider == dst_provider:
            continue
        if src_svc is not None and src_svc.transfer_out_cost_gb > 0:
            charge(src_svc.name, "transfer", cols, src_svc.transfer_out_cost_gb)
        if dst_svc is not None and dst_svc.transfer_in_cost_gb > 0:
            charge(dst_svc.name, "transfer", cols, dst_svc.transfer_in_cost_gb)

    return terms
