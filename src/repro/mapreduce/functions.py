"""The wordcount map/reduce pair — the real work behind execution backends.

The process-pool and stub-container backends of :mod:`repro.exec` run
*actual* map and reduce functions over actual bytes, in contrast to the
fluid simulator's GB-flow accounting.  Every task runs wordcount: a map
task counts the words of its synthesized input, a reduce task merges
partial counts.

Everything here is standard-library only: the stub backend imports it in
a fresh subprocess per task batch, where a heavyweight import would
dominate the run.

Input bytes are synthesized deterministically from the task's seed
(:func:`synthesize_text`), so a task is a pure function of its spec —
the same spec always produces the same counts, which the conformance
suite relies on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Mapping

#: Vocabulary size of the synthesized text (small enough that a map
#: task's full count dict travels cheaply in a JSON result).
_VOCABULARY = 512

_WORDS = [f"w{index:03d}" for index in range(_VOCABULARY)]


def seed_for(task_id: str) -> int:
    """Deterministic 32-bit seed for a task id (stable across runs)."""
    digest = hashlib.sha256(task_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def synthesize_text(seed: int, size_bytes: int) -> bytes:
    """Deterministic whitespace-separated text of roughly ``size_bytes``.

    Word frequencies follow a Zipf-ish 1/rank distribution, so word
    counts are skewed the way real text is (the reduce merge is not
    trivially uniform).
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(_VOCABULARY)]
    out: list[str] = []
    size = 0
    while size < size_bytes:
        word = rng.choices(_WORDS, weights=weights)[0]
        out.append(word)
        size += len(word) + 1
    return " ".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# map: bytes -> dict[str, int]


def wordcount_map(data: bytes) -> dict[str, int]:
    """Count words in a chunk of text (the canonical MapReduce example)."""
    counts: dict[str, int] = {}
    for word in data.decode("utf-8", errors="replace").split():
        counts[word] = counts.get(word, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# reduce: iterable of partial counts -> merged counts


def sum_reduce(partials: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Merge partial count dicts by key-wise addition (wordcount merge)."""
    merged: dict[str, int] = {}
    for partial in partials:
        for key, value in partial.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged


__all__ = [
    "seed_for",
    "sum_reduce",
    "synthesize_text",
    "wordcount_map",
]
