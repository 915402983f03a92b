#!/usr/bin/env python3
"""Unused-name check: imports and local assignments nothing reads.

A dependency-free stand-in for CI's ``ruff check --extend-select
F401,F841 src/repro`` where ruff is not installed::

    python tools/check_unused.py src/repro [more paths ...]

Findings of the first kind, mirroring those two rules:

1. an import whose bound name is never loaded in the scope that owns it
   (the module for a top-level import, the function for a local one) —
   a module's ``__all__``, names in string annotations and ``import x
   as x`` re-exports count as uses, ``from __future__`` never reports;
2. a function-local name bound by ``name = ...``, ``name: T = ...``,
   ``with ... as name`` or ``except ... as name`` and never loaded in
   that function (nested functions included).  Tuple unpacking,
   ``global``/``nonlocal`` names, ``_``-prefixed names and functions
   that call ``locals()`` are exempt, as in ruff's defaults.

Exit status 0 when nothing is found, 1 otherwise, with one
``file:line: name`` line per finding on stdout.

The second kind is a report, never a gate: for a checked package that
sits in a ``src/`` directory, every public top-level ``def`` or
``class`` the program never reaches is listed on stderr, and the exit
status ignores it.  Reachability is by name, from the program's roots:
the package's ``cli.py``, every module's top-level statements, and the
``benchmarks/``, ``examples/`` and ``tools/`` directories beside
``src/``.  A reached definition reaches every name its body loads or
reads as an attribute; ``tests/`` reaches nothing, and neither does an
``import`` or an ``__all__`` entry on its own.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _loaded(scope: ast.AST) -> set[str]:
    """Every name read anywhere under ``scope``."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            for annotation in _annotations(node):
                names |= _string_annotation_names(annotation)
        elif isinstance(node, ast.AnnAssign):
            names |= _string_annotation_names(node.annotation)
    return names


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    return [node.returns] if node.returns else []


def _string_annotation_names(annotation: ast.AST) -> set[str]:
    """Names inside quoted annotations such as ``"CostLedger | None"``."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _loaded(parsed)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        names.add(item.value)
    return names


def _own_nodes(scope: ast.AST):
    """Nodes belonging to ``scope`` itself, not to nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(scope: ast.AST, used: set[str]) -> list[tuple[int, str]]:
    found = []
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, alias.asname or alias.name))
    return found


def _unused_locals(function: ast.AST) -> list[tuple[int, str]]:
    used = _loaded(function)
    if "locals" in used:
        return []
    exempt: set[str] = set()
    bound: list[tuple[int, str]] = []
    for node in _own_nodes(function):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            exempt.update(node.names)
        elif isinstance(node, ast.Assign):
            bound += [
                (node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bound.append((node.lineno, node.target.id))
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                bound.append((node.optional_vars.lineno, node.optional_vars.id))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.append((node.lineno, node.name))
    return [
        (line, name)
        for line, name in bound
        if name not in used and name not in exempt and not name.startswith("_")
    ]


def check_source(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """``(line, name)`` for every unused import and local in ``source``."""
    tree = ast.parse(source, filename)
    findings = _unused_imports(tree, _loaded(tree) | _exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            findings += _unused_imports(node, _loaded(node))
            findings += _unused_locals(node)
    return sorted(set(findings))


def _references(node: ast.AST) -> set[str]:
    """Names ``node`` loads, reads as attributes or imports under an alias."""
    names = _loaded(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names if a.asname in names)
    return names


def unreached_definitions(
    package: Path, roots: list[Path]
) -> list[tuple[Path, int, str]]:
    """``(file, line, name)`` for every public top-level def or class in
    ``package`` that no name reachable from ``roots`` refers to.

    ``roots`` are whole files (entry points, benchmarks, examples,
    tools); the top-level statements of every module in ``package`` are
    roots as well.
    """
    definitions: dict[str, list[tuple[Path, ast.AST]]] = {}
    frontier: set[str] = set()
    for path in python_files([str(package)]):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path, node))
            else:
                frontier |= _references(node)
    for path in roots:
        frontier |= _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for _, node in definitions[name]:
            frontier |= _references(node)
    return sorted(
        (path, node.lineno, name)
        for name, found in definitions.items()
        if name not in reached and not name.startswith("_")
        for path, node in found
    )


def program_roots(package: Path) -> list[Path] | None:
    """The entry point and the program directories beside ``src/``, or
    ``None`` when ``package`` does not sit in a ``src/`` directory."""
    if package.parent.name != "src":
        return None
    top = package.parent.parent
    candidates = (package / "cli.py", top / "benchmarks", top / "examples", top / "tools")
    return python_files([str(p) for p in candidates if p.exists()])


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_unused.py PATH [PATH ...]", file=sys.stderr)
        return 2
    problems = [
        f"{path}:{line}: {name}"
        for path in python_files(argv)
        for line, name in check_source(path.read_text(encoding="utf-8"), str(path))
    ]
    for problem in problems:
        print(problem)
    for raw in argv:
        roots = program_roots(Path(raw).resolve())
        if roots is None:
            continue
        unreached = unreached_definitions(Path(raw), roots)
        if unreached:
            print(f"{raw}: public definitions the program never reaches "
                  "(report only):", file=sys.stderr)
            for path, line, name in unreached:
                print(f"{path}:{line}: {name}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
