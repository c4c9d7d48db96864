#!/usr/bin/env python3
"""Paired benchmark runs of two versions of orbitsym.

    python3 tools/pairs.py OLD NEW --workload chart-n6 [--pairs 10]

OLD and NEW are each a directory holding a checkout, or a git revision of
this repository, exported as ``tools/drift.py`` exports it.  Pair i runs
each side's own ``perfbench/run.py --workload W --seed i --seconds 60
--trace 0`` (through ``scripts/record_bench.py``'s ``run_benchmark``), one
process at a time, OLD first in odd pairs and NEW first in even ones, so
that a drift of the host's speed falls on both sides alike; ``--pairs``
(default and least 10) sets how many pairs run.  The tool prints one
Markdown row per pair (old → new for every end-to-end metric, seconds in
ms), then each metric's median and quartiles on each side and the number
of pairs in which NEW is better.

Quartiles are linear interpolations between order statistics (numpy's
default percentile).  A run that fails or reports ``correct: false`` ends
the tool with exit code 1; a usage error exits 2.  Nothing under either
side's ``perfbench/`` is modified; the benchmark writes its own details
to ``.perfbench/`` in each checkout.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

from drift import checkout

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from record_bench import SECONDS, RunFailed, run_benchmark  # noqa: E402

MIN_PAIRS = 10

# end-to-end metric -> (whether higher is better, scale into the table's
# unit, decimals in the table)
METRICS = {
    "samples_per_s": (True, 1.0, 2),
    "verify_p50_s": (False, 1e3, 3),
    "verify_tail_s": (False, 1e3, 3),
    "setup_s": (False, 1e3, 2),
    "peak_rss_mb": (False, 1.0, 2),
}
HEADER = ("| workload | seed | first | samples_per_s old → new | verify_p50_s (ms) | "
          "verify_tail_s (ms) | setup_s (ms) | peak_rss_mb |\n"
          "|---|---|---|---|---|---|---|---|")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric: each side's quartiles, and the pairs in which NEW is
    better, from a list of (old metrics, new metrics) pairs."""
    summary = {}
    for name, (higher, _, _) in METRICS.items():
        old = [o[name] for o, _ in pairs]
        new = [n[name] for _, n in pairs]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        summary[name] = {"old": quartiles(old), "new": quartiles(new), "wins": wins}
    return summary


def row(workload: str, seed: int, first: str, old: dict, new: dict) -> str:
    cells = [f"{old[k] * s:.{d}f} → {new[k] * s:.{d}f}" for k, (_, s, d) in METRICS.items()]
    return f"| {workload} | {seed} | {first} | " + " | ".join(cells) + " |"


def summary_lines(summary: dict, count: int) -> list[str]:
    lines = []
    for name, s in summary.items():
        (o1, om, o3), (n1, nm, n3) = s["old"], s["new"]
        lines.append(f"{name}: old median {om:.6g} [{o1:.6g}, {o3:.6g}], new median {nm:.6g} "
                     f"[{n1:.6g}, {n3:.6g}], change {nm / om - 1:+.1%}, |median difference| "
                     f"{abs(nm - om):.6g} against old quartile spread {o3 - o1:.6g}; "
                     f"new better in {s['wins']} of {count} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory or git revision")
    parser.add_argument("new", help="directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        try:
            trees = {"old": checkout(args.old, Path(tmp)), "new": checkout(args.new, Path(tmp))}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(HEADER, flush=True)
        for seed in range(1, args.pairs + 1):
            order = ("old", "new") if seed % 2 else ("new", "old")
            try:
                got = {side: run_benchmark(trees[side], args.workload, seed, SECONDS, 0)["result"]
                       for side in order}
            except RunFailed as exc:
                print(f"run failed: {exc}", file=sys.stderr)
                return 1
            old, new = ({name: m["value"] for name, m in got[side]["metrics"].items()}
                        for side in ("old", "new"))
            pairs.append((old, new))
            print(row(args.workload, seed, order[0], old, new), flush=True)
    print("\n".join(summary_lines(summarize(pairs), len(pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
