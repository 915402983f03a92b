"""No orphaned imports or locals in the package (tools/check_unused.py,
the stand-in for CI's ``ruff check --extend-select F401,F841``), and the
checker's stderr report of definitions only tests reach."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKER = ROOT / "tools" / "check_unused.py"


def load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_unused", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_has_no_unused_imports_or_locals():
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(ROOT / "src" / "repro")],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == ""
    assert proc.returncode == 0


def test_checker_flags_orphans_and_spares_uses():
    checker = load_checker()
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "from collections import deque as deque\n"
        "__all__ = ['exported']\n"
        "from math import pi as exported\n"
        "def f(p: 'Path'):\n"
        "    import re\n"
        "    import sys\n"
        "    kept = 1\n"
        "    dropped = 2\n"
        "    _ignored = 3\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    def inner():\n"
        "        return kept + sys.maxsize\n"
        "    return json.dumps(inner())\n"
    )
    assert checker.check_source(source) == [
        (2, "os"), (11, "re"), (14, "dropped"), (18, "exc"),
    ]


def make_package(tmp_path):
    """``src/pkg`` with a benchmark root and a test beside it.  ``a`` and
    ``b`` both define ``shared`` and the root imports ``a``'s; the
    package ``__init__`` re-exports ``mod``'s names; ``Widget`` has one
    method the root reads and one only the test calls."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import Widget, helper, only_tested, used_by_bench\n"
        "__all__ = ['Widget', 'helper', 'only_tested', 'used_by_bench']\n"
    )
    (package / "a.py").write_text("def shared():\n    return 1\n")
    (package / "b.py").write_text("def shared():\n    return 2\n")
    (package / "mod.py").write_text(
        "def used_by_bench():\n"
        "    return _private()\n"
        "def _private():\n"
        "    return 1\n"
        "def only_tested():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 2\n"
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "    def measured(self):\n"
        "        return self.size\n"
        "    def only_tested_method(self):\n"
        "        return 0\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_mod.py").write_text(
        "from pkg import Widget, used_by_bench\n"
        "from pkg.a import shared\n"
        "used_by_bench()\n"
        "shared()\n"
        "Widget().measured()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.b import shared\n"
        "from pkg.mod import Widget, only_tested\n"
        "def test_it():\n"
        "    assert only_tested() == 2\n"
        "    assert Widget().only_tested_method() == shared() - 2\n"
    )
    return package


def test_report_names_definitions_only_tests_reach(tmp_path):
    package = make_package(tmp_path)
    checker = load_checker()
    unreached, _ = checker.unreached_definitions(
        package, checker.program_roots(package)
    )
    # ``pkg.b.shared`` is not hidden by ``pkg.a.shared``; ``used_by_bench``
    # and ``Widget`` resolve through the package ``__init__`` to ``mod``;
    # ``Widget.measured`` is read by the root, ``Widget.__init__`` comes
    # with its class.
    assert [name for _, _, name in unreached] == [
        "pkg.b.shared",
        "pkg.mod.only_tested",
        "pkg.mod.helper",
        "pkg.mod.Widget.only_tested_method",
    ]

    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(package)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[1:] == [
        f"{package / 'b.py'}:1: pkg.b.shared",
        f"{package / 'mod.py'}:5: pkg.mod.only_tested",
        f"{package / 'mod.py'}:7: pkg.mod.helper",
        f"{package / 'mod.py'}:14: pkg.mod.Widget.only_tested_method",
    ]


def test_keep_entries_print_with_their_reasons(tmp_path, monkeypatch, capsys):
    package = make_package(tmp_path)
    checker = load_checker()
    monkeypatch.setattr(checker, "KEEP", {
        "pkg.mod.only_tested": "the tests' entry point",
        "pkg.mod.used_by_bench": "a benchmark reaches it now",
        "other.kept": "another package's entry",
    })
    assert checker.main([str(package)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    # A kept definition is no longer unreached, and neither is what only
    # it reaches (``helper``); an entry the program reaches is stale.
    assert err.splitlines() == [
        f"{package}: definitions the program never reaches (report only):",
        f"{package / 'b.py'}:1: pkg.b.shared",
        f"{package / 'mod.py'}:14: pkg.mod.Widget.only_tested_method",
        f"{package}: kept on purpose (KEEP in tools/check_unused.py):",
        f"{package / 'mod.py'}:5: pkg.mod.only_tested -- the tests' entry point",
        "stale: pkg.mod.used_by_bench -- a benchmark reaches it now",
    ]



def test_self_reads_reach_only_the_class_its_bases_and_subclasses(tmp_path):
    """``self.m``/``cls.m`` in a method of ``C`` reaches ``m`` of ``C``, its
    bases and its subclasses, not the ``m`` of an unrelated class."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(
        "class Base:\n"
        "    def run(self):\n"
        "        return self.hook() + self.size()\n"
        "    def hook(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return 1\n"
        "class Child(Base):\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.blank()\n"
        "    @classmethod\n"
        "    def blank(cls):\n"
        "        return cls()\n"
        "    def hook(self):\n"
        "        return 1\n"
        "    def extra(self):\n"
        "        return 2\n"
        "class Other:\n"
        "    def go(self):\n"
        "        return self.extra()\n"
        "    def extra(self):\n"
        "        return 3\n"
        "    def size(self):\n"
        "        return 4\n"
        "    def blank(self):\n"
        "        return 5\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_shapes.py").write_text(
        "from pkg.shapes import Child, Other\n"
        "Child.make().run()\n"
        "Other().go()\n"
    )
    checker = load_checker()
    unreached, _ = checker.unreached_definitions(
        package, checker.program_roots(package)
    )
    # ``Base.run`` reads ``self.hook``: the subclass's override is reached.
    # ``Other.go`` reads ``self.extra``, ``Base.run`` ``self.size`` and
    # ``Child.make`` ``cls.blank``: none of those reaches another class.
    assert [name for _, _, name in unreached] == [
        "pkg.shapes.Child.extra",
        "pkg.shapes.Other.size",
        "pkg.shapes.Other.blank",
    ]
