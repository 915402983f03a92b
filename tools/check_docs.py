#!/usr/bin/env python3
"""Docs consistency check: every internal link, referenced benchmark
script and backticked Python path must exist.

Scanned files: ``README.md`` and everything under ``docs/``.  Three kinds
of references are verified:

1. Markdown links ``[text](target)`` whose target is a relative path
   (external ``scheme://`` URLs, ``mailto:`` and pure ``#anchor`` links
   are skipped) — the target must exist relative to the linking file;
2. Any mention of ``benchmarks/bench_*.py`` anywhere in the text (tables
   and prose included) — the script must exist in the repository;
3. Any backticked ``*.py`` path (``lp/scipy_backend.py``,
   ``tools/check_perf.py``, ``lp/scipy*.py``) — it must match a file
   under one of :data:`PY_ROOTS`, so a deleted module cannot stay
   referenced.

Exit status 0 when everything resolves, 1 otherwise (one line per
problem) — cheap enough for a CI job that builds nothing.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — target captured up to a closing paren or anchor.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Any benchmark-script mention, linked or not.
BENCH = re.compile(r"benchmarks/bench_[A-Za-z0-9_]+\.py")
#: A backticked Python path (a ``*`` glob allowed).
PY_PATH = re.compile(r"`([\w*-][\w./*-]*\.py)`")
#: Where a backticked path may be rooted, tried in order.
PY_ROOTS = ("", "src/repro", "tests", "benchmarks", "tools", "examples")


def doc_files() -> list[Path]:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def is_external(target: str) -> bool:
    return "://" in target or target.startswith(("mailto:", "#"))


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path

    for match in LINK.finditer(text):
        target = match.group(1)
        if is_external(target):
            continue
        bare = target.split("#", 1)[0]
        if not bare:
            continue
        resolved = (path.parent / bare).resolve()
        if not resolved.exists():
            problems.append(f"{rel}: broken link -> {target}")

    for mention in sorted(set(BENCH.findall(text))):
        if not (ROOT / mention).exists():
            problems.append(f"{rel}: missing benchmark -> {mention}")

    for mention in sorted(set(PY_PATH.findall(text))):
        if not any(next((ROOT / base).glob(mention), None) for base in PY_ROOTS):
            problems.append(f"{rel}: missing module -> {mention}")

    return problems


def main() -> int:
    files = doc_files()
    problems = [p for f in files for p in check_file(f)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} doc problem(s) across {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"docs ok: {len(files)} file(s) checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
