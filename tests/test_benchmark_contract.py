"""The benchmark under ``perfbench/`` traces orbitsym by attribute path
and checks each suite's report names; these tests keep the program
inside that contract, reading ``perfbench/`` without changing it."""

import importlib
import sys
from pathlib import Path

import pytest

from orbitsym import SUITE_NAMES, run_suite
from orbitsym.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        verdict = importlib.import_module("verdict")
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, verdict


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    entries = [entry for layer in tracing.LAYERS.values() for entry in layer]
    assert entries
    for name, module_name, path in entries:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_suite_names_match_the_benchmark(perfbench):
    _, verdict = perfbench
    assert set(SUITE_NAMES) == set(verdict.REPORT_NAMES) - {"all"}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_names_match_the_benchmark(perfbench, chamber3, name):
    _, verdict = perfbench
    reports = run_suite(chamber3, name, samples=1)
    assert tuple(r.suite for r in reports) == verdict.REPORT_NAMES[name]


@pytest.mark.parametrize("suite, names", [
    ("theorem", ("numerics.mat_exp", "numerics.char_poly")),
    ("graph", ("numerics.mat_exp", "numerics.char_poly")),
    ("projection", ("model.killing",)),
])
def test_timed_names_run_in_a_verify_call(perfbench, suite, names):
    """Names whose times the benchmark's result line reports must be the
    code path a ``verify`` call takes, not a wrapper that a private twin
    bypasses: one traced ``cli.main`` call makes at least one call of
    each."""
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", suite, "--H", "1,0,-1", "--samples", "1", "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert set(names) <= set(tracing.TIMED_EVERYWHERE)
    for name in names:
        assert tracer.stats.get(name, [0])[0] >= 1, name
