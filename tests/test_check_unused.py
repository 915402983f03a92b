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


def test_report_names_definitions_only_tests_reach(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import helper, only_tested, used_by_bench\n"
        "__all__ = ['helper', 'only_tested', 'used_by_bench']\n"
    )
    (package / "mod.py").write_text(
        "def used_by_bench():\n"
        "    return _private()\n"
        "def _private():\n"
        "    return 1\n"
        "def only_tested():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 2\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_mod.py").write_text(
        "from pkg import used_by_bench\nused_by_bench()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested\n"
        "def test_it():\n"
        "    assert only_tested() == 2\n"
    )
    checker = load_checker()
    unreached = checker.unreached_definitions(
        package, checker.program_roots(package)
    )
    assert [name for _, _, name in unreached] == ["only_tested", "helper"]

    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(package)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[1:] == [
        f"{package / 'mod.py'}:5: only_tested",
        f"{package / 'mod.py'}:7: helper",
    ]
