"""Every boundary that the benchmark's tracer wraps must exist in the package.

``perfbench/instrument.py`` swaps the attributes listed in its
``BOUNDARIES`` for wrappers, reading each one from the owner's
``__dict__``.  A refactor that renames or drops one of them would only
fail when the benchmark runs; these tests fail first.  So would one that
stops calling a boundary a ``per_layer`` metric of ``BENCHMARK.json``
reads: a traced run exits 1 when any such metric is missing.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


@pytest.fixture
def run(monkeypatch):
    """``perfbench/run.py`` as a module, in the checkout, its thread settings undone after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.chdir(ROOT)
    return importlib.import_module("run")


def test_one_traced_pass_reports_every_per_layer_metric(run):
    # What a traced run does before its report, on one pass of each workload.
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    instrument = run.instrument
    failed, missing = {}, {}
    for workload in run.WORKLOADS:
        module = run.load_module(workload)
        tracer = instrument.Tracer()
        saved = instrument.install(tracer)
        try:
            state = module.Setup(1)
        finally:
            instrument.uninstall(saved)
        saved = instrument.install(tracer)
        try:
            _, failed[workload] = run.run_pass(state.requests, tracer)
        finally:
            instrument.uninstall(saved)
        report = run.layer_report([tracer.snapshot()], [1.0], [1.0], None)
        missing[workload] = [name for name in wanted if name not in report]
    assert failed == dict.fromkeys(run.WORKLOADS, 0)
    assert missing == dict.fromkeys(run.WORKLOADS, [])
