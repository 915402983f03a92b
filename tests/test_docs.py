"""The docs tree stays consistent (tools/check_docs.py, also a CI job)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKER = ROOT / "tools" / "check_docs.py"


def load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    assert (ROOT / "docs" / "architecture.md").exists()
    assert (ROOT / "docs" / "adaptation.md").exists()


def test_all_internal_links_and_bench_references_resolve():
    checker = load_checker()
    problems = [p for f in checker.doc_files() for p in checker.check_file(f)]
    assert problems == []


def test_checker_flags_broken_references(tmp_path):
    checker = load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "[missing](./nope.md) and benchmarks/bench_fig99_missing.py\n"
        "[external is fine](https://example.com/x.md)\n",
        encoding="utf-8",
    )
    problems = checker.check_file(bad)
    assert len(problems) == 2
    assert any("broken link" in p for p in problems)
    assert any("missing benchmark" in p for p in problems)


def test_checker_resolves_backticked_python_paths(tmp_path):
    checker = load_checker()
    doc = tmp_path / "paths.md"
    doc.write_text(
        "`lp/scipy_backend.py`, `check_perf.py`, `lp/scipy*.py`,\n"
        "`tests/test_docs.py` and `quickstart.py` all resolve;\n"
        "`fleet/prefetch.py` and `tools/gone*.py` do not.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc)
    assert sorted(problems) == [
        f"{doc}: missing module -> fleet/prefetch.py",
        f"{doc}: missing module -> tools/gone*.py",
    ]


def test_checker_cli_exit_status():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "docs ok" in result.stdout
