"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Tracer, reported_metrics
from verdict import check_reports
from workloads import WORKLOADS

os.environ.update(run.PINNED_ENV)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _report(suite="theorem-match", errors=(1e-9, 2e-9), tolerance=1e-5, seed=7, **fields):
    report = {
        "suite": suite, "n": 3, "H": [1.0, 0.0, -1.0], "samples": len(errors), "seed": seed,
        "fd_step": 0.001, "max_error": max(errors, default=0.0), "tolerance": tolerance,
        "pass": True, "samples_detail": [{"index": i, "error": e} for i, e in enumerate(errors)],
    }
    report.update(fields)
    return report


def _theorem_payload(**match_fields):
    return [
        _report(**match_fields),
        _report("theorem-invariance", tolerance=1e-8),
        _report("theorem-nondegenerate", tolerance=1.0),
    ]


class TestVerdict:
    def test_clean_report_passes(self):
        assert check_reports(_theorem_payload(), "theorem", 2, 7) == []

    def test_nan_entry_fails_even_when_report_says_pass(self):
        # Python's max drops a NaN that is not first, so the report can
        # claim a finite max_error and pass=True.
        payload = _theorem_payload(errors=(1e-9, math.nan), max_error=1e-9, **{"pass": True})
        problems = check_reports(payload, "theorem", 2, 7)
        assert any("non-finite" in p for p in problems)
        assert any("re-derived verdict is False" in p for p in problems)

    def test_nan_survives_the_json_round_trip(self):
        raw = json.dumps(_theorem_payload(errors=(math.nan, 1e-9)))
        assert any("non-finite" in p for p in check_reports(json.loads(raw), "theorem", 2, 7))

    def test_over_tolerance_entry_fails(self):
        payload = _theorem_payload(errors=(1e-9, 1e-3), max_error=1e-9, **{"pass": True})
        problems = check_reports(payload, "theorem", 2, 7)
        assert any("over tolerance" in p for p in problems)
        assert any("!= recomputed" in p for p in problems)

    def test_missing_report_name_fails(self):
        payload = _theorem_payload()[:2]
        assert check_reports(payload, "theorem", 2, 7)

    def test_wrong_sample_count_and_seed_fail(self):
        assert check_reports(_theorem_payload(), "theorem", 3, 7)
        assert check_reports(_theorem_payload(), "theorem", 2, 8)


def test_timed_values_take_each_calls_fastest_latency():
    workload = WORKLOADS["chart-n6"]
    passes = [run.PassResult(3.3, 3, [0.5, 0.1, 2.0]), run.PassResult(1.0, 3, [0.9, 0.06, 0.2])]
    values = run.timed_values(workload, passes, [0.3, 0.2, 0.4])
    assert values["samples_per_s"][0] == pytest.approx(3 / (0.5 + 0.06 + 0.2))
    assert values["verify_p50_s"][0] == 0.2
    assert values["verify_tail_s"][0] == 0.5
    assert workload.calls[0].suite in values["verify_tail_s"][1]
    assert values["setup_s"][0] == 0.2


@pytest.fixture(scope="module")
def cli():
    return run.import_orbitsym()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_minimal_pass_has_no_failures(cli, tmp_path, name):
    runner = run.Runner(cli, WORKLOADS[name], 5, tmp_path)
    done = runner.run_pass()
    assert runner.attempted == len(WORKLOADS[name].calls) == len(done.latencies)
    assert runner.failures == []


def test_second_pass_is_byte_identical_and_tampering_is_caught(cli, tmp_path):
    runner = run.Runner(cli, WORKLOADS["chart-n6"], 3, tmp_path)
    runner.run_pass()
    runner.run_pass()
    assert runner.failures == []
    runner.digests[0] = "0" * 64
    runner.run_pass()
    assert len(runner.failures) == 1 and "differs from the first pass" in runner.failures[0]


def test_tracer_counts_repeat_and_uninstall_restores(cli, tmp_path):
    import orbitsym.suites

    original = orbitsym.suites.iwasawa
    runner = run.Runner(cli, WORKLOADS["factor-sweep"], 4, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert orbitsym.suites.iwasawa is not original
        passes = []
        for keep in (True, False):
            tracer.reset(keep_spans=keep)
            result = runner.run_pass()
            passes.append((result.seconds, tracer.stats))
            if keep:
                spans = tracer.spans
    finally:
        tracer.uninstall()
    assert orbitsym.suites.iwasawa is original is sys.modules["orbitsym.iwasawa"].iwasawa
    full, facts = run.per_layer(passes, [result])
    assert facts["counts_repeat"]
    assert full["symplectic.omega_std_chart.calls"] == 0
    assert full["cli.main.calls"] == len(WORKLOADS["factor-sweep"].calls)
    assert full["suites.run_suite.graph.calls"] == 9
    assert full["numerics.qr_positive.calls"] > 0
    roots = {s[0] for s in spans if s[1] is None}
    assert len(roots) == full["cli.main.calls"] and all(s[2] in roots for s in spans)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == reported_metrics()
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == set(run.END_TO_END)


def test_without_sources_it_fails_without_a_result(tmp_path):
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "chart-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".perfbench").exists()
