"""Every name a ``repro`` module lists in ``__all__`` resolves on it."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
) + ["repro"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
