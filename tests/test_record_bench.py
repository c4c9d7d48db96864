"""scripts/record_bench.py, with the benchmark run replaced by a stub."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"
METRICS = ("samples_per_s", "peak_rss_mb")


@pytest.fixture
def record_bench(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        metrics = {name: {"value": float(10 * seed + i)} for i, name in enumerate(METRICS)}
        if trace:
            metrics["orbit.orbit_point.calls"] = {"value": 6}
        result = {"correct": True, "attempted": 5 * seed, "failed": 0, "metrics": metrics}
        return {"seed": seed, "result": result, "provenance": {"git_commit": "abc"}}

    def fake_calibrate():
        calls.append("calibrate")
        return {"reference_s": 0.5 * calls.count("calibrate")}

    monkeypatch.setattr(module, "run_benchmark", fake_run)
    monkeypatch.setattr(module, "calibrate", fake_calibrate)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "CPUINFO", tmp_path / "cpuinfo")
    (tmp_path / "cpuinfo").write_text(
        "processor\t: 0\nmodel name\t: Test CPU 9000\n\nprocessor\t: 1\nmodel name\t: Other\n",
        encoding="utf-8",
    )
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "w1"}, {"name": "w2"}]}), encoding="utf-8"
    )
    module.calls = calls
    return module


def test_workload_records_medians_counts_and_provenance(record_bench, tmp_path):
    entry = record_bench.record_workload(tmp_path, "w1")
    assert [c[1:] for c in record_bench.calls] == [
        (1, 60.0, 0), (2, 60.0, 0), (3, 60.0, 0), (1, record_bench.TRACE_SECONDS, 1)
    ]
    assert entry["median"] == {"samples_per_s": 20.0, "peak_rss_mb": 21.0}
    assert [run["seed"] for run in entry["runs"]] == [1, 2, 3]
    assert entry["runs"][2] == {"seed": 3, "attempted": 15, "failed": 0,
                                "samples_per_s": 30.0, "peak_rss_mb": 31.0}
    assert entry["calls_per_pass"] == {"orbit.orbit_point": 6}
    assert entry["provenance"] == {"git_commit": "abc"}


def test_main_writes_one_file_per_label(record_bench, tmp_path, capsys):
    assert record_bench.main(["--label", "x1", "--checkout", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_x1.json").read_text(encoding="utf-8"))
    assert payload["seeds"] == [1, 2, 3] and payload["seconds"] == 60.0
    assert sorted(payload["workloads"]) == ["w1", "w2"]
    assert "wrote BENCH_x1.json" in capsys.readouterr().out


def test_main_records_the_host_calibrated_before_and_after_the_runs(record_bench, tmp_path):
    assert record_bench.main(["--label", "x3", "--checkout", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_x3.json").read_text(encoding="utf-8"))
    assert payload["host"] == {
        "cpu_model": "Test CPU 9000",
        "calibration_repeats": record_bench.CALIBRATION_REPEATS,
        "calibration_before": {"reference_s": 0.5},
        "calibration_after": {"reference_s": 1.0},
    }
    calls = record_bench.calls
    assert calls[0] == calls[-1] == "calibrate" and calls.count("calibrate") == 2


def test_cpu_model_without_a_model_name_is_unknown(record_bench, tmp_path):
    assert record_bench.cpu_model() == "Test CPU 9000"
    (tmp_path / "cpuinfo").write_text("processor\t: 0\n", encoding="utf-8")
    assert record_bench.cpu_model() == "unknown"
    (tmp_path / "cpuinfo").unlink()
    assert record_bench.cpu_model() == "unknown"


def test_calibration_keeps_the_fastest_timing_of_each_reference(monkeypatch):
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert "orbitsym" not in module.__dict__
    seen = []

    def repeat(reference, number, repeat):
        seen.append((reference, number, repeat))
        return [0.3, 0.1, 0.2]

    monkeypatch.setattr(module.timeit, "repeat", repeat)
    assert module.calibrate() == dict.fromkeys(module.REFERENCES, 0.1)
    assert seen == [(ref, 1, module.CALIBRATION_REPEATS) for ref in module.REFERENCES.values()]


def test_failed_run_writes_nothing(record_bench, tmp_path, monkeypatch):
    def failing(*args):
        raise record_bench.RunFailed("gate")

    monkeypatch.setattr(record_bench, "run_benchmark", failing)
    assert record_bench.main(["--label", "x2", "--checkout", str(tmp_path)]) == 1
    assert not (tmp_path / "BENCH_x2.json").exists()


def test_label_must_be_a_plain_name(record_bench, tmp_path):
    with pytest.raises(SystemExit):
        record_bench.main(["--label", "../x", "--checkout", str(tmp_path)])
