#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Runs the benchmark of a checkout (its ``perfbench/run.py``, unchanged)
for 60 s on each of seeds 1, 2 and 3 per workload of its
``BENCHMARK.json``, plus one 20 s ``--trace 1`` run per workload on
seed 1, and writes to the root of this repository:

- the median of each end-to-end metric over the seeds, with every run;
- the call counts per pass from the traced run;
- the provenance that the benchmark records, per workload;
- the host: its CPU model, and the fastest of seven timings of fixed
  references that import nothing of orbitsym, before and after the runs.

    python3 scripts/record_bench.py --label 44823e4 --checkout /path/to/parent
    python3 scripts/record_bench.py --label 46ea2cf

A failed run (non-zero exit or ``"correct": false``) stops the recording
with exit code 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Every point of the trajectory uses the same seeds and run length, so
# that points stay comparable; 60 s is the benchmark's own run length.
SEEDS = (1, 2, 3)
SECONDS = 60.0
TRACE_SECONDS = 20.0  # the traced run only needs its counts, which repeat every pass
CPUINFO = Path("/proc/cpuinfo")
CALIBRATION_REPEATS = 7
_QR_STACK = np.random.default_rng(0).uniform(-1.0, 1.0, (120, 6, 6))
# Host calibration references, 5 to 10 ms each on a 2-vCPU shared host.
REFERENCES = {
    "numpy_qr_120x6x6_x100_s": lambda: [np.linalg.qr(_QR_STACK) for _ in range(100)],
    "python_loop_200k_s": lambda: sum(i % 7 for i in range(200_000)),
}


class RunFailed(RuntimeError):
    pass


def cpu_model() -> str:
    """The first ``model name`` of the CPU information, or "unknown"."""
    try:
        lines = CPUINFO.read_text(encoding="utf-8").splitlines()
    except OSError:
        return "unknown"
    names = (line.split(":", 1)[1].strip() for line in lines if line.startswith("model name"))
    return next(names, "unknown")


def calibrate() -> dict:
    """The fastest of ``CALIBRATION_REPEATS`` timings of each reference, in s."""
    return {name: min(timeit.repeat(reference, number=1, repeat=CALIBRATION_REPEATS))
            for name, reference in REFERENCES.items()}


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its result line and its recorded
    provenance."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed(f"{' '.join(argv[1:])} failed its correctness gate")
    side = checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    provenance = json.loads(side.read_text(encoding="utf-8"))["provenance"]
    return {"seed": seed, "result": result, "provenance": provenance}


def record_workload(checkout: Path, workload: str) -> dict:
    runs = [run_benchmark(checkout, workload, seed, SECONDS, 0) for seed in SEEDS]
    traced = run_benchmark(checkout, workload, SEEDS[0], TRACE_SECONDS, 1)
    metrics = {name: [r["result"]["metrics"][name]["value"] for r in runs]
               for name in runs[0]["result"]["metrics"]}
    calls = {name[: -len(".calls")]: entry["value"]
             for name, entry in traced["result"]["metrics"].items() if name.endswith(".calls")}
    return {
        "median": {name: statistics.median(values) for name, values in metrics.items()},
        "runs": [{"seed": r["seed"], "attempted": r["result"]["attempted"],
                  "failed": r["result"]["failed"],
                  **{name: r["result"]["metrics"][name]["value"] for name in metrics}}
                 for r in runs],
        "calls_per_pass": calls,
        "provenance": runs[0]["provenance"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose benchmark runs (default: this repository)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may only hold letters, digits, '.', '_' and '-'")
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]

    started = time.time()
    before = calibrate()
    try:
        recorded = {w: record_workload(checkout, w) for w in workloads}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host = {"cpu_model": cpu_model(), "calibration_repeats": CALIBRATION_REPEATS,
            "calibration_before": before, "calibration_after": calibrate()}
    payload = {
        "label": args.label,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "trace_seed": SEEDS[0],
        "trace_seconds": TRACE_SECONDS,
        "host": host,
        "workloads": recorded,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for name, entry in recorded.items():
        median = entry["median"]
        print(f"{name}: samples_per_s {median['samples_per_s']:.6g}, "
              f"peak_rss_mb {median['peak_rss_mb']:.6g}")
    print(f"host: {host['cpu_model']}, calibration {before} -> {host['calibration_after']}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
