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
sits in a ``src/`` directory, every definition the program never
reaches is listed on stderr, and the exit status ignores it.  A
definition is a top-level ``def`` or ``class`` or a method, named by its
module (``repro.lp.model.MatrixModel``, ``repro.accounting.CostLedger.total``):
``from .x import Name``, ``import pkg.x as y`` and package re-exports
(lazy ``__getattr__`` tables included) resolve to the module that
defines the name.  The roots are the package's ``cli.py``, every
module's top-level statements, and the ``benchmarks/``, ``examples/``
and ``tools/`` directories beside ``src/``.  A reached definition
reaches what its body refers to; a method ``C.m`` is reached when ``C``
is and reached code reads an attribute ``m`` — a ``self.m`` or ``cls.m``
read in a method of class ``D`` counts only when ``D`` is ``C``, one of
its bases or one of its subclasses; dunders come with their class.
``tests/`` reaches nothing, and neither does an ``import`` or an
``__all__`` entry on its own.  The report ends with :data:`KEEP`,
the definitions left unreached on purpose, each with its reason.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable

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


#: Definitions the program does not reach, kept on purpose.  The report
#: prints them with these reasons instead of listing them as unreached;
#: a kept class keeps its methods and what they reach.
_ENTRY = "a few lines; the entry point its tests parse or build fixtures with"
_LIVE = "tests assert live behaviour through it"
KEEP = {
    "repro.cloud.traces.constant_trace": _ENTRY,
    "repro.obs.records.decode_payload": _ENTRY,
    "repro.pig.parser.parse_expression": _ENTRY,
    "repro.pig.schema.Schema.of": _ENTRY,
    "repro.api.schemas.GoalSpec.from_goal": _LIVE + " (GoalSpec.to_goal round trip)",
    "repro.cloud.services.ServiceDescription.storage_limit_gb":
        _LIVE + " (the catalogs' storage capacities)",
    "repro.core.pipeline_planner.PipelinePlan.total_planned_hours":
        _LIVE + " (the pipeline plan meets its deadline)",
    "repro.core.plan.ExecutionPlan.total_map_gb": _LIVE + " (the plan maps all input)",
    "repro.core.plan.ExecutionPlan.total_reduce_gb": _LIVE + " (and reduces all of it)",
    "repro.core.plan.ExecutionPlan.total_downloaded_gb": _LIVE + " (and downloads it)",
    "repro.core.reliability.ExpectedOutcome.storage_cost": _LIVE + " (Sec. 2.1 trade-off)",
    "repro.core.reliability.ExpectedOutcome.execution_cost": _LIVE + " (Sec. 2.1 trade-off)",
    "repro.obs.registry.LatencySeries.samples": _LIVE + " (service queue waits)",
    "repro.pig.logical.LogicalPlan.stores": _LIVE + " (what the parser built)",
    "repro.service.metrics.ServiceMetrics.cache_misses": _LIVE + " (cache and coalescing)",
    "repro.service.metrics.ServiceMetrics.coalesced": _LIVE + " (cache and coalescing)",
    "repro.sim.network.FluidNetwork.utilization_mb": _LIVE + " (flow volume conservation)",
    "repro.storage.filesystem.ConductorFileSystem.chunk_locations":
        _LIVE + " (upload places every chunk)",
    "repro.storage.namenode.Namenode.replication_of": _LIVE + " (HDFS write replication)",
}


class _Index:
    """Every module of a package with what its names are bound to, and
    every top-level definition and method under its qualified name."""

    def __init__(self, package: Path) -> None:
        #: module -> bound name -> ("def", qualname) / ("module", module)
        #: / ("from", module, name) entries.
        self.bindings: dict[str, dict[str, list[tuple[str, ...]]]] = {}
        #: qualname -> (file, node, module)
        self.definitions: dict[str, tuple[Path, ast.AST, str]] = {}
        #: class qualname -> its methods' qualnames
        self.methods: dict[str, list[str]] = {}
        self.statements: list[tuple[str, ast.AST]] = []
        self.reached: set[str] = set()
        #: Every attribute name reached code reads on any receiver but
        #: ``self``/``cls`` in a method.
        self.attributes: set[str] = set()
        #: (class, name) for every ``self.name``/``cls.name`` reached
        #: code in that class's methods reads.
        self.own_reads: set[tuple[str, str]] = set()
        classes: list[tuple[str, str, ast.ClassDef]] = []
        for path in python_files([str(package)]):
            parts = path.relative_to(package.parent).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            self.add(module, tree, is_package)
            for node in tree.body:
                if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                    self.statements.append((module, node))
                    continue
                qual = f"{module}.{node.name}"
                self.definitions[qual] = (path, node, module)
                if isinstance(node, ast.ClassDef):
                    classes.append((qual, module, node))
                    self.methods[qual] = []
                    for item in node.body:
                        if isinstance(item, FUNCTIONS):
                            self.definitions[f"{qual}.{item.name}"] = (path, item, module)
                            self.methods[qual].append(f"{qual}.{item.name}")
        parents = {
            qual: {
                parent
                for base in node.bases
                for parent in self.target(module, base) & self.methods.keys()
            }
            for qual, module, node in classes
        }
        ancestors = {qual: _closure(qual, parents) for qual in parents}
        #: class -> itself, its bases and its subclasses in the package.
        self.family = {
            qual: {other for other in parents
                   if other in ancestors[qual] or qual in ancestors[other]}
            | {qual}
            for qual in parents
        }

    def add(self, module: str, tree: ast.Module, is_package: bool) -> None:
        """Record what ``module``'s names are bound to: its top-level
        definitions, its imports wherever they sit, and for a package
        with a lazy ``__getattr__`` the ``{"name": "submodule"}`` tables
        beside it."""
        names = self.bindings.setdefault(module, {})

        def bind(name: str, *target: str) -> None:
            names.setdefault(name, []).append(target)

        here = module if is_package else module.rpartition(".")[0]
        lazy = is_package and any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in tree.body
        )
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                bind(node.name, "def", f"{module}.{node.name}")
            elif lazy and isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                for key, value in zip(node.value.keys, node.value.values):
                    if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                        bind(str(key.value), "from", f"{here}.{value.value}", str(key.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bind(alias.asname, "module", alias.name)
                    else:
                        top = alias.name.split(".")[0]
                        bind(top, "module", top)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = here.split(".")[: len(here.split(".")) - node.level + 1]
                    source = ".".join(base + ([source] if source else []))
                for alias in node.names:
                    bind(alias.asname or alias.name, "from", source, alias.name)

    def resolve(self, module: str, name: str, seen: frozenset = frozenset()) -> set[str]:
        """The definitions and modules ``name`` means in ``module``,
        following imports and re-exports to where they are defined."""
        if (module, name) in seen:
            return set()
        seen |= {(module, name)}
        found = {f"{module}.{name}"} & self.bindings.keys()
        for entry in self.bindings.get(module, {}).get(name, ()):
            if entry[0] == "from":
                found |= self.resolve(entry[1], entry[2], seen)
            else:
                found.add(entry[1])
        return found

    def target(self, module: str, node: ast.AST) -> set[str]:
        """What a ``Name`` or a dotted ``Attribute`` chain refers to."""
        if isinstance(node, ast.Name):
            return self.resolve(module, node.id)
        if isinstance(node, ast.Attribute):
            return {
                found
                for base in self.target(module, node.value)
                if base in self.bindings
                for found in self.resolve(base, node.attr)
            }
        return set()

    def references(
        self, module: str, node: ast.AST, owner: str | None
    ) -> tuple[set[str], set[str], set[str]]:
        """The definitions ``node`` refers to, the attributes it reads on
        any receiver, and — ``node`` being part of class ``owner`` — the
        attributes it reads on ``self``/``cls``."""
        found: set[str] = set()
        for name in _loaded(node):
            found |= self.resolve(module, name)
        attributes: set[str] = set()
        own: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                receiver = sub.value
                if owner and isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                    own.add(sub.attr)
                else:
                    attributes.add(sub.attr)
                found |= self.target(module, sub)
        return found & self.definitions.keys(), attributes, own

    def reach(self, units: list[tuple[str, ast.AST, str | None]], seeds: set[str]) -> None:
        """Add to :attr:`reached` every definition reachable from
        ``units`` (module, node, owning class or ``None``) and from the
        definitions in ``seeds``."""
        frontier = set(seeds)
        while units or frontier:
            for qual in frontier - self.reached:
                _, node, module = self.definitions[qual]
                self.reached.add(qual)
                # A class, or a method of one, reads ``self`` as that class.
                owner = qual if qual in self.methods else qual.rpartition(".")[0]
                owner = owner if owner in self.methods else None
                units += [(module, part, owner) for part in _parts(node)]
            frontier = set()
            for module, node, owner in units:
                found, read, own = self.references(module, node, owner)
                frontier |= found - self.reached
                self.attributes |= read
                self.own_reads |= {(owner, name) for name in own}
            units = []
            frontier |= {
                method
                for owner in self.methods.keys() & self.reached
                for method in self.methods[owner]
                if method not in self.reached and self._read(owner, method)
            }

    def _read(self, owner: str, method: str) -> bool:
        """Whether reached code reads ``method`` of class ``owner``."""
        name = method.rpartition(".")[2]
        return (
            _dunder(method)
            or name in self.attributes
            or any((kin, name) in self.own_reads for kin in self.family[owner])
        )

    def unreached(self) -> list[tuple[Path, int, str]]:
        """``(file, line, qualname)`` of every top-level definition not
        reached, and every unreached method of a reached class."""
        return sorted(
            (path, node.lineno, qual)
            for qual, (path, node, _) in self.definitions.items()
            if qual not in self.reached
            and (
                qual.rpartition(".")[0] in self.reached
                or qual.rpartition(".")[0] not in self.methods
            )
        )


def _parts(node: ast.AST) -> list[ast.AST]:
    """What reaching ``node`` runs: a function whole; for a class what
    its ``class`` statement runs (bases, keywords, decorators, the body
    apart from method bodies)."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    for item in node.body:
        if isinstance(item, FUNCTIONS):
            parts += [*item.decorator_list, *item.args.defaults, *item.args.kw_defaults]
        else:
            parts.append(item)
    return [part for part in parts if part is not None]


def _closure(qual: str, parents: dict[str, set[str]]) -> set[str]:
    """Every ancestor of class ``qual`` under the ``parents`` relation."""
    found: set[str] = set()
    stack = list(parents.get(qual, ()))
    while stack:
        parent = stack.pop()
        if parent not in found:
            found.add(parent)
            stack.extend(parents.get(parent, ()))
    return found


def _dunder(qualname: str) -> bool:
    name = qualname.rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def unreached_definitions(
    package: Path, roots: list[Path], keep: Iterable[str] = ()
) -> tuple[list[tuple[Path, int, str]], list[tuple[Path, int, str]]]:
    """``(file, line, qualname)`` for every top-level def or class in
    ``package`` that nothing reachable from ``roots`` refers to, and
    every method of a reached class that reached code never reads.

    ``roots`` are whole files (entry points, benchmarks, examples,
    tools); the top-level statements of every module in ``package`` are
    roots as well.  The definitions named in ``keep`` (a kept class with
    all its methods) are reached after them: the second list holds what
    is still unreached then.
    """
    index = _Index(package)
    units = [(module, node, None) for module, node in index.statements]
    for path in roots:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        index.add(str(path), tree, is_package=False)
        units.append((str(path), tree, None))
    # A module's own dunders (a lazy ``__getattr__``) run without a caller.
    index.reach(units, {
        qual for qual in index.definitions
        if _dunder(qual) and qual.rpartition(".")[0] not in index.methods
    })
    unreached = index.unreached()
    kept = {qual for qual in keep if qual in index.definitions}
    index.reach([], kept | {m for qual in kept for m in index.methods.get(qual, ())})
    return unreached, index.unreached()


def report(package: Path, roots: list[Path]) -> list[str]:
    """The stderr report for ``package``: what the program never reaches,
    then the :data:`KEEP` entries of this package with their reasons
    (``stale`` when the program reaches one, or it is gone)."""
    kept = {qual: why for qual, why in KEEP.items() if qual.startswith(f"{package.name}.")}
    unreached, left = unreached_definitions(package, roots, kept)
    lines = [f"{path}:{line}: {qual}" for path, line, qual in left]
    if lines:
        lines.insert(0, f"{package}: definitions the program never reaches (report only):")
    if kept:
        lines.append(f"{package}: kept on purpose (KEEP in tools/check_unused.py):")
        where = {qual: f"{path}:{line}" for path, line, qual in unreached}
        for qual, why in kept.items():
            lines.append(f"{where.get(qual, 'stale')}: {qual} -- {why}")
    return lines


def program_roots(package: Path) -> list[Path] | None:
    """The entry point and the program directories beside ``src/``, or
    ``None`` when ``package`` does not sit in a ``src/`` directory.  This
    checker is not among them: the attributes it reads are its own."""
    if package.parent.name != "src":
        return None
    top = package.parent.parent
    candidates = (package / "cli.py", top / "benchmarks", top / "examples", top / "tools")
    return [
        path
        for path in python_files([str(p) for p in candidates if p.exists()])
        if path.resolve() != Path(__file__).resolve()
    ]


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
        if roots is not None:
            for line in report(Path(raw), roots):
                print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
