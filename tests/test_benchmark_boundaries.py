"""Every boundary that the benchmark's tracer wraps must exist in the package.

``perfbench/instrument.py`` swaps the attributes listed in its
``BOUNDARIES`` for wrappers, reading each one from the owner's
``__dict__``.  A refactor that renames or drops one of them would only
fail when the benchmark runs; this test fails first.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def instrument(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("instrument")


def test_every_boundary_resolves_and_uninstall_restores(instrument):
    assert len(instrument.BOUNDARIES) == 38
    missing = []
    for module_name, path, *_ in instrument.BOUNDARIES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{path}")
    assert missing == []

    saved = instrument.install(instrument.Tracer())
    try:
        assert len(saved) == 38
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original
    finally:
        instrument.uninstall(saved)
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original
