"""Reliability-differentiated storage for multi-stage pipelines.

Paper Section 2.1 ("Faults"): providers "offer services with different
reliability characteristics, for instance, with discounted prices for
storage services with lower replication factors", and for multi-stage
(Pig-style) computations, "when intermediate results become unavailable
due to data loss, they must be recomputed by re-executing all previous
stages.  Therefore, the cost of this recovery ... generally increases
as the computation progresses, making more reliable storage options
more and more useful [Ko et al.]".

This module turns that observation into a planner:

- :class:`StorageTier` — a storage offering with a price and an hourly
  loss probability (derived from its replication factor);
- :class:`StageProfile` — per-stage execution cost/time/output size
  (obtained from the LP planner's stage plans, or supplied directly);
- :class:`PipelineReliabilityModel` — expected cost/time of a tier
  assignment under a retention policy, with the re-execution cascade;
- :func:`choose_tiers` — dynamic program minimizing expected cost;
- :func:`durable_premium_break_even` — the price premium worth paying
  for durable storage at each stage (the paper's "more and more useful"
  claim, quantified; the ablation bench plots it).

Model
-----
Stages ``1..n`` run sequentially; stage ``j`` reads intermediate
``I_{j-1}`` and writes ``I_j`` to tier ``s_j`` (``I_0`` is the durable
input).  ``I_j`` is exposed to loss while stage ``j+1`` runs (time
``T_{j+1}``).  With per-hour object-loss probability ``p`` the exposure
loss probability is ``q = 1 - (1-p)^T``.  A loss during stage ``j+1``
wastes half an attempt on average and forces re-execution of every
stage after the last *durable* intermediate (or the pipeline input).
With geometric retries the expected number of failures is
``q/(1-q)``, giving

    E[cost_{j+1}] = C_{j+1} + q/(1-q) * (R_j + C_{j+1}/2)

where ``R_j`` is the cost of regenerating ``I_j`` from the last durable
point.  The same renewal argument gives expected time.  Repairs within
an exposure window are not modeled (a lost replica set stays lost);
this is conservative, and documented in DESIGN.md.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

#: Tiers with loss probability below this are treated as durable anchors
#: for the re-execution cascade (S3's 11-nines territory).
DURABLE_THRESHOLD_PER_HOUR = 1e-9


class RetentionPolicy(enum.Enum):
    """What happens to intermediate ``I_j`` after stage ``j+1`` consumed it."""

    #: Delete once consumed: a later loss cascades to the pipeline input.
    DISCARD_AFTER_USE = "discard-after-use"
    #: Keep every intermediate until the pipeline finishes: a loss
    #: re-runs only the stages after the last *surviving* intermediate
    #: (approximated by the last durable one).
    KEEP_ALL = "keep-all"


@dataclass(frozen=True)
class StorageTier:
    """A storage offering with a price and reliability.

    ``loss_per_hour`` is the probability that one stored object (an
    intermediate result) becomes unavailable during one hour.
    """

    name: str
    cost_gb_hour: float
    loss_per_hour: float
    replication: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_per_hour <= 1.0:
            raise ValueError("loss_per_hour must be a probability")
        if self.cost_gb_hour < 0:
            raise ValueError("cost_gb_hour must be non-negative")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def is_durable(self) -> bool:
        return self.loss_per_hour <= DURABLE_THRESHOLD_PER_HOUR

    def loss_within(self, hours: float) -> float:
        """Probability the object is lost within ``hours`` of exposure."""
        if hours <= 0:
            return 0.0
        return 1.0 - (1.0 - self.loss_per_hour) ** hours

    @classmethod
    def from_replication(
        cls,
        name: str,
        base_cost_gb_hour: float,
        replication: int,
        node_loss_per_hour: float = 1e-3,
        cost_scales_with_replicas: bool = True,
    ) -> "StorageTier":
        """Derive a tier from a replication factor.

        An object is lost in an hour only if every one of its ``r``
        replica holders fails within that hour (independent failures,
        no intra-hour repair): ``p_obj = p_node ** r``.  Price scales
        linearly with the replica count — exactly the "discounted
        prices for ... lower replication factors" pricing the paper
        describes.
        """
        if not 0.0 <= node_loss_per_hour < 1.0:
            raise ValueError("node_loss_per_hour must be in [0, 1)")
        cost = base_cost_gb_hour * (replication if cost_scales_with_replicas else 1)
        return cls(
            name=name,
            cost_gb_hour=cost,
            loss_per_hour=node_loss_per_hour**replication,
            replication=replication,
        )


@dataclass(frozen=True)
class StageProfile:
    """Execution characteristics of one pipeline stage."""

    name: str
    exec_cost: float
    exec_hours: float
    output_gb: float

    def __post_init__(self) -> None:
        if self.exec_cost < 0 or self.exec_hours < 0 or self.output_gb < 0:
            raise ValueError("stage profile values must be non-negative")


@dataclass(frozen=True)
class StageOutcome:
    """Expected-cost breakdown for one stage under an assignment."""

    stage: str
    tier: str | None
    expected_exec_cost: float
    expected_exec_hours: float
    storage_cost: float
    expected_failures: float
    recovery_scope: int  # stages re-executed per failure


@dataclass(frozen=True)
class ExpectedOutcome:
    """Expected totals for a full tier assignment."""

    total_cost: float
    total_hours: float
    stages: tuple[StageOutcome, ...]

    @property
    def storage_cost(self) -> float:
        return sum(s.storage_cost for s in self.stages)

    @property
    def execution_cost(self) -> float:
        return sum(s.expected_exec_cost for s in self.stages)


class PipelineReliabilityModel:
    """Expected cost/time of a pipeline under a storage-tier assignment."""

    def __init__(
        self,
        stages: Sequence[StageProfile],
        retention: RetentionPolicy = RetentionPolicy.KEEP_ALL,
    ) -> None:
        if not stages:
            raise ValueError("pipeline must have at least one stage")
        self._stages = list(stages)
        self._retention = retention

    @property
    def stages(self) -> list[StageProfile]:
        return list(self._stages)

    def evaluate(self, assignment: Sequence[StorageTier]) -> ExpectedOutcome:
        """Expected totals when intermediate ``I_j`` lives on ``assignment[j]``.

        ``assignment`` has one tier per stage; the last stage's entry
        prices where the *final* output sits until download (exposure 0,
        so only its storage cost counts for one hour as a handoff
        buffer).
        """
        if len(assignment) != len(self._stages):
            raise ValueError(
                f"assignment names {len(assignment)} tiers for "
                f"{len(self._stages)} stages"
            )
        outcomes: list[StageOutcome] = []
        total_cost = 0.0
        total_hours = 0.0
        last_durable = -1  # index of last durable intermediate; -1 = input
        for j, stage in enumerate(self._stages):
            # Failure of this stage's *input* intermediate (j-1) during
            # this stage's run.
            if j == 0:
                q = 0.0  # pipeline input is durable by definition
                scope_start = 0
            else:
                tier = assignment[j - 1]
                q = tier.loss_within(stage.exec_hours)
                if self._retention is RetentionPolicy.DISCARD_AFTER_USE:
                    scope_start = 0
                else:
                    scope_start = last_durable + 1
            recovery_cost = sum(
                s.exec_cost for s in self._stages[scope_start:j]
            )
            recovery_hours = sum(
                s.exec_hours for s in self._stages[scope_start:j]
            )
            failures = q / (1.0 - q) if q < 1.0 else math.inf
            exec_cost = stage.exec_cost + failures * (
                recovery_cost + stage.exec_cost / 2.0
            )
            exec_hours = stage.exec_hours + failures * (
                recovery_hours + stage.exec_hours / 2.0
            )
            # Storage: I_j is held for the next stage's (expected) runtime,
            # or one handoff hour for the final output.
            tier_j = assignment[j]
            if j + 1 < len(self._stages):
                held_hours = self._stages[j + 1].exec_hours
                if self._retention is RetentionPolicy.KEEP_ALL:
                    held_hours = sum(
                        s.exec_hours for s in self._stages[j + 1:]
                    )
            else:
                held_hours = 1.0
            storage_cost = stage.output_gb * tier_j.cost_gb_hour * held_hours
            outcomes.append(
                StageOutcome(
                    stage=stage.name,
                    tier=tier_j.name,
                    expected_exec_cost=exec_cost,
                    expected_exec_hours=exec_hours,
                    storage_cost=storage_cost,
                    expected_failures=failures,
                    recovery_scope=j - scope_start,
                )
            )
            total_cost += exec_cost + storage_cost
            total_hours += exec_hours
            if j < len(assignment) and assignment[j].is_durable:
                last_durable = j
        return ExpectedOutcome(
            total_cost=total_cost,
            total_hours=total_hours,
            stages=tuple(outcomes),
        )


@dataclass(frozen=True)
class TierChoice:
    """Result of :func:`choose_tiers`."""

    assignment: tuple[StorageTier, ...]
    outcome: ExpectedOutcome

    @property
    def tier_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.assignment)


def choose_tiers(
    stages: Sequence[StageProfile],
    tiers: Sequence[StorageTier],
    retention: RetentionPolicy = RetentionPolicy.KEEP_ALL,
) -> TierChoice:
    """Minimize expected pipeline cost over per-stage tier assignments.

    Exact (full product enumeration) while ``|tiers|**n`` stays small —
    real pipelines are rarely deeper than ~10 stages.  Beyond that it
    falls back to checkpoint-pattern candidates: the best durable tier
    every ``k``-th stage, cheapest tier elsewhere, which is where the
    optimum lives once tier classes are fixed.
    """
    if not tiers:
        raise ValueError("no storage tiers to choose from")
    model = PipelineReliabilityModel(stages, retention)
    best: TierChoice | None = None
    for assignment in _candidate_assignments(stages, tiers):
        outcome = model.evaluate(assignment)
        if best is None or outcome.total_cost < best.outcome.total_cost - 1e-12:
            best = TierChoice(tuple(assignment), outcome)
    assert best is not None
    return best


_EXACT_ENUMERATION_LIMIT = 20000


def _candidate_assignments(
    stages: Sequence[StageProfile],
    tiers: Sequence[StorageTier],
) -> list[list[StorageTier]]:
    """Candidate assignments worth evaluating (see :func:`choose_tiers`)."""
    import itertools

    n = len(stages)
    if len(tiers) ** n <= _EXACT_ENUMERATION_LIMIT:
        return [list(combo) for combo in itertools.product(tiers, repeat=n)]
    durable = [t for t in tiers if t.is_durable]
    cheap = [t for t in tiers if not t.is_durable]
    durable_best = min(durable, key=lambda t: t.cost_gb_hour) if durable else None
    cheap_best = min(cheap, key=lambda t: t.cost_gb_hour) if cheap else None
    if durable_best is None:
        assert cheap_best is not None
        return [[cheap_best] * n]
    if cheap_best is None:
        return [[durable_best] * n]
    candidates = []
    for k in range(1, n + 1):
        candidates.append(
            [durable_best if (j + 1) % k == 0 else cheap_best for j in range(n)]
        )
    candidates.append([durable_best] * n)
    candidates.append([cheap_best] * n)
    return candidates


def durable_premium_break_even(
    stages: Sequence[StageProfile],
    cheap: StorageTier,
    retention: RetentionPolicy = RetentionPolicy.DISCARD_AFTER_USE,
) -> list[float]:
    """Max $/GB/h premium worth paying for durable storage, per stage.

    For each stage ``j``, compares expected cost with ``I_j`` on the
    cheap tier vs on a free durable tier; the difference divided by the
    GB-hours stored is the premium at which the customer is indifferent.
    Monotonically increasing values reproduce the paper's Section 2.1
    claim that reliable storage grows more valuable as the computation
    progresses.
    """
    model = PipelineReliabilityModel(stages, retention)
    durable_free = StorageTier("durable-free", 0.0, 0.0)
    cheap_free = StorageTier("cheap-free", 0.0, cheap.loss_per_hour)
    premiums = []
    for j in range(len(stages)):
        base = [cheap_free] * len(stages)
        with_durable = list(base)
        with_durable[j] = durable_free
        cost_cheap = model.evaluate(base).total_cost
        cost_durable = model.evaluate(with_durable).total_cost
        if j + 1 < len(stages):
            exposure = stages[j + 1].exec_hours
            if retention is RetentionPolicy.KEEP_ALL:
                exposure = sum(s.exec_hours for s in stages[j + 1:])
        else:
            exposure = 1.0
        gb_hours = max(stages[j].output_gb * exposure, 1e-12)
        premiums.append(max(0.0, cost_cheap - cost_durable) / gb_hours)
    return premiums
