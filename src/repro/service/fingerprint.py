"""Canonical problem fingerprints — exact and structural.

Two tenants asking Conductor the same question should pay for one solve.
The **exact** fingerprint is a SHA-256 over the problem's canonical
encoding (:meth:`repro.core.problem.PlanningProblem.canonical`), which is
stable under irrelevant variation: service catalog order, dict insertion
order, job naming, and ``state=None`` vs. an explicit initial state.
Anything that changes the LP — prices, rates, goal, deadline, spot
estimates, upload fractions, model flags — changes the digest.

The **structural** fingerprint hashes only what determines the *shape*
of the generated model — horizon length, the kept service set and its
capability/limit pattern, goal kind, model flags: the model builder's
own layout key — and otherwise ignores numeric data (prices, rates,
state, spot estimates).  Numbers enter it in one place: they decide
which compute services dominate others and are left out of the model
(:func:`repro.core.model_builder.kept_problem`).  Two problems sharing
a structural fingerprint are built from one layout, into matrices of
the same sparsity, which is what lets the incremental solver patch the
retained matrix of one and re-solve it warm for the other.  The mapping is a
cheap upper bound, not a guarantee (a coefficient that is exactly zero
is dropped from the one build it occurs in): the solver re-checks at
the matrix level (:func:`repro.lp.incremental.diff_compiled`) and falls
back cold on a collision.
"""

from __future__ import annotations

import hashlib

from ..core.model_builder import ModelStructure, structure_key
from ..core.problem import PlanningProblem


def canonical_payload(problem: PlanningProblem) -> bytes:
    """The byte string actually hashed (exposed for tests/debugging)."""
    return repr(problem.canonical()).encode("utf-8")


def problem_fingerprint(problem: PlanningProblem) -> str:
    """Hex SHA-256 fingerprint of a planning problem.

    Memoized on the instance: problems are immutable once built (the
    codebase derives variants with :func:`dataclasses.replace`, which
    produces a fresh object and therefore a fresh memo), and admission
    fingerprints the same problem object on every enqueue — the hottest
    line of the frontend's submit path.
    """
    cached = problem.__dict__.get("_exact_fingerprint")
    if cached is None:
        cached = hashlib.sha256(canonical_payload(problem)).hexdigest()
        problem.__dict__["_exact_fingerprint"] = cached
    return cached


def structural_payload(problem: PlanningProblem) -> ModelStructure:
    """Shape-only canonical encoding (exposed for tests/debugging).

    This *is* the model builder's own account of what it branches on
    (:func:`repro.core.model_builder.structure_key`, the key of its
    layout cache) — the interval count, each kept service's capabilities
    and limit finiteness, the goal kind and budget presence, whether a
    reduce phase exists, and the model flags — so the fingerprint cannot
    drift from the builder.  It excludes everything that only lands in
    bounds, right-hand sides, or coefficients: prices, rates, network
    capacities, spot estimates, and the system state, except where they
    decide that a dominated compute service is left out.
    """
    return structure_key(problem)


def structural_fingerprint(problem: PlanningProblem) -> str:
    """Hex SHA-256 of the problem's shape (data ignored)."""
    return hashlib.sha256(
        repr(structural_payload(problem)).encode("utf-8")
    ).hexdigest()
