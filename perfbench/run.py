#!/usr/bin/env python3
"""orbitsym benchmark: closed-loop ``verify`` throughput and latency.

One client in one process calls ``orbitsym.cli.main(["verify", ...,
"--json", PATH, "--quiet"])`` back to back, a pass at a time, for
``--seconds`` seconds, with ``ORBITSYM_THREADS=1``.  Every call's JSON
goes through the benchmark's own verdict and must be byte-identical in
every pass.  ``--trace 1`` alternates untraced and traced passes of the
same workload and reports per-layer metrics instead.

The host is shared, and in calm stretches it switches between an
undisturbed state and one about 1.75 times slower that lasts up to about
40 s.  Timed figures are therefore built from each call's fastest
latency over the run (and the fastest of several set-up processes spread
over it), which a run of a minute takes undisturbed whenever it has a
calm stretch.

    python3 perfbench/run.py --workload chart-n6 --seed 1 --seconds 60 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details, provenance and the
trace spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import CHART_FORMS, Tracer, pass_metrics, reported_metrics
from verdict import check_reports
from workloads import CHAMBERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Single-threaded baseline: no sample fan-out and no BLAS threads.
PINNED_ENV = {"ORBITSYM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 8

# The result line's metrics without --trace, with their units.
END_TO_END = {
    "samples_per_s": "1/s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import orbitsym
from orbitsym import SpecialLinearModel
for entries in json.loads(sys.argv[1]):
    SpecialLinearModel(len(entries)).chamber_element(entries)
print(time.perf_counter() - t0)
"""


class BenchmarkError(RuntimeError):
    pass


@dataclass
class PassResult:
    seconds: float
    samples: int
    latencies: list[float]


class Runner:
    """Runs passes of one workload and applies the correctness and
    determinism gates to every call."""

    def __init__(self, cli, workload: Workload, seed: int, scratch: Path):
        self.cli = cli
        self.workload = workload
        self.seeds = workload.call_seeds(seed)
        self.scratch = scratch
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed call
        self.problems: list[str] = []  # run-level gate failures

    def run_pass(self) -> PassResult:
        started = perf_counter()
        calls = enumerate(zip(self.workload.calls, self.seeds))
        latencies = [self._one(index, call, call_seed) for index, (call, call_seed) in calls]
        elapsed = perf_counter() - started
        return PassResult(elapsed, sum(c.samples for c in self.workload.calls), latencies)

    def _one(self, index, call, call_seed) -> float:
        """Run one call, gate its output and return its latency."""
        path = self.scratch / f"call{index}.json"
        path.unlink(missing_ok=True)
        argv = ["verify", call.suite, "--H", call.h_text, "--samples", str(call.samples),
                "--seed", str(call_seed), "--json", str(path), "--quiet"]
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed call, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        problems = [] if code == 0 else [f"exit {code}"]
        try:
            raw = path.read_bytes()
        except OSError:
            problems.append("no JSON written")
        else:
            try:
                problems += check_reports(json.loads(raw), call.suite, call.samples, call_seed)
            except ValueError as exc:
                problems.append(f"unreadable JSON: {exc}")
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                problems.append("JSON differs from the first pass")
        self.attempted += 1
        if problems:
            label = f"{call.suite} {call.chamber} samples={call.samples} seed={call_seed}"
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return latency

    def measure(self, seconds: float) -> tuple[list[PassResult], list[float]]:
        """Whole passes for ``seconds`` (at least one), and
        ``SETUP_PROBES`` set-up times, one due at each equal share of the
        time, so that set-up meets the host in the same states as the
        passes.  One untimed set-up process first warms the file caches."""
        time_setup(self.workload)
        passes, setup = [], []
        start = perf_counter()
        while not passes or fits(start, passes[-1].seconds, seconds):
            if len(setup) < SETUP_PROBES * (perf_counter() - start) / seconds:
                setup.append(time_setup(self.workload))
            passes.append(self.run_pass())
        setup += [time_setup(self.workload) for _ in range(SETUP_PROBES - len(setup))]
        return passes, setup


def fits(start: float, step: float, seconds: float) -> bool:
    """Whether one more step as long as the last one ends within
    ``seconds`` of ``start``, so that a run does not overshoot its time."""
    return perf_counter() - start + step <= seconds


def time_setup(workload: Workload) -> float:
    """Seconds to import orbitsym and build the workload's chambers in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    chambers = json.dumps([CHAMBERS[c][1] for c in workload.chambers])
    try:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, chambers], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"set-up process timed out: {exc}") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"set-up process failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def provenance(args) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "orbitsym").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_orbitsym():
    if not (SRC / "orbitsym" / "__init__.py").is_file():
        raise BenchmarkError(f"no orbitsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbitsym.cli

    if Path(orbitsym.__file__).resolve().parent != SRC / "orbitsym":
        raise BenchmarkError(f"imported orbitsym from {orbitsym.__file__}, not {SRC}")
    return orbitsym.cli


def timed_values(workload: Workload, passes: list[PassResult], setup: list[float]) -> dict:
    """The timed end-to-end metrics, each as (value, how it was taken).
    Every call's latency is its fastest over the run's passes."""
    fastest = [min(times) for times in zip(*(p.latencies for p in passes))]
    slowest = max(range(len(fastest)), key=fastest.__getitem__)
    call = workload.calls[slowest]
    pooled = sum(p.samples for p in passes) / sum(p.seconds for p in passes)
    return {
        "samples_per_s": (passes[0].samples / sum(fastest),
                          f"a pass's samples / its calls' fastest latencies over {len(passes)} "
                          f"passes (all passes pooled: {pooled:.6g})"),
        "verify_p50_s": (statistics.median(fastest),
                         f"median over {len(fastest)} calls of each call's fastest latency"),
        "verify_tail_s": (fastest[slowest],
                          f"slowest call's fastest latency: {call.suite} {call.chamber}"),
        "setup_s": (min(setup), f"fastest of {len(setup)} fresh processes spread over the run"),
    }


def end_to_end(runner: Runner, passes: list[PassResult], setup: list[float]) -> tuple[dict, list]:
    values = timed_values(runner.workload, passes, setup)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "ru_maxrss of the benchmark process")
    table = [f"{name:<16} {values[name][0]:12.6g} {unit:<4} {values[name][1]}"
             for name, unit in END_TO_END.items()]
    table.append(f"{'failed_frac':<16} {len(runner.failures) / runner.attempted:12.6g} {'1':<4} "
                 f"{len(runner.failures)} of {runner.attempted} calls")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, table


def per_layer(traced: list[tuple[float, dict]], untraced: list[PassResult]) -> tuple[dict, dict]:
    """Per-pass layer metrics: exact call counts from the first traced
    pass, seconds as the fastest over the traced passes."""
    per_pass = [pass_metrics(stats) for _, stats in traced]
    full = {k: v if k.endswith(".calls") else min(m[k] for m in per_pass)
            for k, v in per_pass[0].items()}
    traced_s = min(t for t, _ in traced)
    untraced_s = min(p.seconds for p in untraced)
    full["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_pass]
    facts = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "counts_repeat": all(c == counts[0] for c in counts),
        "omega_std_chart_calls": full["symplectic.omega_std_chart.calls"],
        "chart_form_share": statistics.median([
            sum(m[f"{f}.total_s"] for f in CHART_FORMS) / t for m, (t, _) in zip(per_pass, traced)
        ]),
    }
    return full, facts


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list, dict, list]:
    """Alternate untraced and traced passes for ``seconds`` (at least two
    traced ones, so that counts can be compared); alternating keeps host
    drift out of the overhead estimate."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while len(traced) < 2 or fits(start, untraced[-1].seconds + traced[-1][0], seconds):
        untraced.append(runner.run_pass())
        tracer.reset(keep_spans=not traced)  # spans of the first traced pass only
        tracer.install()
        try:
            result = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.append((result.seconds, tracer.stats))
        if len(traced) == 1:
            spans = tracer.spans
    full, facts = per_layer(traced, untraced)
    if not facts["counts_repeat"]:
        runner.problems.append("call counts differ between traced passes")
    if runner.workload.name == "factor-sweep" and facts["omega_std_chart_calls"]:
        runner.problems.append("factor-sweep ran the chart forms")
    metrics = {k: {"value": full[k], "unit": u} for k, u in reported_metrics()}
    table = [f"{k:<48} {v:14.6g}" for k, v in full.items()]
    table += [f"{k}: {v}" for k, v in facts.items()]
    return metrics, table, facts, spans


def run(args) -> tuple[dict, list[str]]:
    workload = WORKLOADS[args.workload]
    cli = import_orbitsym()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="calls-", dir=OUT))
    try:
        runner = Runner(cli, workload, args.seed, scratch)
        runner.run_pass()  # warm-up: lazy imports and first-call costs
        if args.trace:
            metrics, table, facts, spans = traced_run(runner, args.seconds)
            detail = {"facts": facts, "table": table}
            _write_spans(args, spans)
        else:
            metrics, table = end_to_end(runner, *runner.measure(args.seconds))
            detail = {"table": table}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {"correct": not runner.failures and not runner.problems,
              "attempted": runner.attempted, "failed": len(runner.failures), "metrics": metrics}
    side = {"provenance": provenance(args), **detail, "failures": runner.failures,
            "problems": runner.problems, "result": result}
    side_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side_path.write_text(json.dumps(side, indent=2) + "\n", encoding="utf-8")
    lines = [*table, f"provenance: {json.dumps(side['provenance'])}",
             *(f"FAILED: {f}" for f in runner.failures + runner.problems),
             f"details: {side_path.relative_to(ROOT)}"]
    return result, lines


def _write_spans(args, spans) -> None:
    names = sorted({s[3] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {
        "columns": ["id", "parent", "request", "name", "start_ns", "end_ns"],
        "names": names,
        "rows": [[i, p, r, index[n], s, e] for i, p, r, n, s, e in spans],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(PINNED_ENV)
    try:
        result, lines = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    if not result["correct"]:
        print("benchmark: correctness or determinism gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
