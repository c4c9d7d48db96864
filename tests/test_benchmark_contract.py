"""The benchmark under ``perfbench/`` traces orbitsym by attribute path
and checks each suite's report names; these tests keep the program
inside that contract, reading ``perfbench/`` without changing it."""

import importlib
import sys
from pathlib import Path

import pytest

from orbitsym import SUITE_NAMES, run_suite

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
