#!/usr/bin/env python3
"""Report how the sweep's reports drift between two versions of orbitsym.

    python3 tools/drift.py OLD NEW [--configs 6/42,25/3,50/42]

OLD and NEW are each a directory holding a checkout, or a git revision of
this repository, exported with ``git archive`` into a temporary directory.
For each configuration SAMPLES/SEED, each version's own
``scripts/run_full_verification.py`` runs with ``--json`` in a process of
its own, and the two report lists are compared:

- every report whose JSON changed is printed with its old and new
  ``max_error``;
- a verdict flip, a tolerance change, a report that only one version
  writes (a renamed report) and a change of the sweep's exit code are
  flagged;
- NEW runs again with ``suites._CHUNK`` set to 1 and to 2, inside the
  sweep's process, so the program gains no option; any byte of report
  JSON that differs from the run at 64 is flagged;
- after the lists, one line per report column over all configurations
  gives how many of its reports changed, the largest |new - old| /
  tolerance and the worst old and new ``max_error`` / tolerance.

Exit code 0 when nothing is flagged, 1 when something is, 2 on a usage
error or a sweep that crashes.  Directories need nothing but numpy; a
revision needs git.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNKS = (64, 1, 2)  # the program's own chunk size first
DEFAULT_CONFIGS = "6/42,25/3,50/42"

# Runs a checkout's sweep script with the chunk size set inside its process:
# argv is the chunk size, the checkout's src directory, then the script's argv.
WORKER = """\
import runpy, sys
from pathlib import Path
import orbitsym, orbitsym.suites
if Path(orbitsym.__file__).resolve().parent != Path(sys.argv[2], "orbitsym").resolve():
    sys.exit(f"imported orbitsym from {orbitsym.__file__}, not {sys.argv[2]}")
orbitsym.suites._CHUNK = int(sys.argv[1])
sys.argv = sys.argv[3:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


class SweepCrashed(RuntimeError):
    pass


def checkout(spec: str, scratch: Path) -> Path:
    """The directory ``spec``, or the revision ``spec`` exported under ``scratch``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise ValueError(f"{spec} is neither a directory nor a revision: "
                         f"{archive.stderr.decode().strip()}")
    into = Path(tempfile.mkdtemp(prefix="rev-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def sweep(tree: Path, samples: int, seed: int, chunk: int, scratch: Path) -> tuple[int, bytes]:
    """The sweep's exit code and report JSON for one checkout."""
    out = scratch / f"sweep-{os.getpid()}.json"
    argv = [sys.executable, "-c", WORKER, str(chunk), str(tree / "src"),
            str(tree / "scripts" / "run_full_verification.py"),
            "--samples", str(samples), "--seed", str(seed), "--json", str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode not in (0, 1) or not out.exists():
        raise SweepCrashed(f"{tree} at {samples}/{seed}, chunk {chunk}, exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    data = out.read_bytes()
    out.unlink()
    return done.returncode, data


def _label(report: dict) -> str:
    h = ",".join(f"{e:g}" for e in report["H"])
    return f"n={report['n']} H={h} {report['suite']}"


def _number(value) -> str:
    return f"{value:.6e}" if isinstance(value, float) else str(value)


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], list[str]]:
    """The changed reports, one line each, and the flags."""
    def key(r):
        return tuple(r["H"]), r["suite"]

    old_by, new_by = {key(r): r for r in old}, {key(r): r for r in new}
    changed, flags = [], []
    for k in old_by.keys() - new_by.keys():
        flags.append(f"renamed report: {_label(old_by[k])} only in OLD")
    for k in new_by.keys() - old_by.keys():
        flags.append(f"renamed report: {_label(new_by[k])} only in NEW")
    for r in new:
        before = old_by.get(key(r))
        if before is None or before == r:
            continue
        changed.append(f"  {_label(r)}: {_number(before['max_error'])} -> "
                       f"{_number(r['max_error'])}")
        if before["pass"] != r["pass"]:
            flags.append(f"verdict flip: {_label(r)} {before['pass']} -> {r['pass']}")
        if before["tolerance"] != r["tolerance"]:
            flags.append(f"tolerance change: {_label(r)} {before['tolerance']} -> "
                         f"{r['tolerance']}")
    return changed, sorted(flags)


def column_summary(pairs: list[tuple[list[dict], list[dict]]]) -> list[str]:
    """One line per report column (its ``suite`` name) over all the
    (OLD, NEW) report lists: how many reports changed, the largest
    |new - old| / tolerance, and the worst old and new max_error / tolerance."""
    stats = {}
    for old, new in pairs:
        old_by = {(tuple(r["H"]), r["suite"]): r for r in old}
        for r in new:
            before = old_by.get((tuple(r["H"]), r["suite"]))
            if before is None:
                continue
            s = stats.setdefault(r["suite"], [0, 0.0, 0.0, 0.0])
            a, b = float(before["max_error"]), float(r["max_error"])
            if before != r:
                s[0] += 1
                if a != b:
                    s[1] = max(s[1], abs(b - a) / r["tolerance"])
            s[2] = max(s[2], a / before["tolerance"])
            s[3] = max(s[3], b / r["tolerance"])
    return [f"  {suite}: {n} changed, max |delta|/tol {delta:.3e}, worst error/tol "
            f"{worst_old:.3e} -> {worst_new:.3e}"
            for suite, (n, delta, worst_old, worst_new) in stats.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory or git revision")
    parser.add_argument("new", help="directory or git revision")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help=f"comma-separated SAMPLES/SEED pairs (default {DEFAULT_CONFIGS})")
    args = parser.parse_args(argv)
    try:
        configs = [tuple(int(v) for v in c.split("/")) for c in args.configs.split(",")]
        if any(len(c) != 2 or c[0] < 1 for c in configs):
            raise ValueError
    except ValueError:
        parser.error("--configs takes SAMPLES/SEED pairs, SAMPLES at least 1")

    total_changed, all_flags, lists = 0, [], []
    with tempfile.TemporaryDirectory(prefix="drift-") as tmp:
        scratch = Path(tmp)
        try:
            old_tree, new_tree = checkout(args.old, scratch), checkout(args.new, scratch)
            runs = {}
            for samples, seed in configs:
                for tree, chunks in ((old_tree, CHUNKS[:1]), (new_tree, CHUNKS)):
                    for chunk in chunks:
                        if (tree, samples, seed, chunk) not in runs:
                            runs[tree, samples, seed, chunk] = sweep(tree, samples, seed,
                                                                     chunk, scratch)
        except (ValueError, SweepCrashed) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    for samples, seed in configs:
        (old_code, old_json), (new_code, new_json) = (
            runs[tree, samples, seed, CHUNKS[0]] for tree in (old_tree, new_tree))
        old, new = json.loads(old_json), json.loads(new_json)
        lists.append((old, new))
        changed, flags = compare(old, new)
        if old_code != new_code:
            flags.append(f"exit code change: {old_code} -> {new_code}")
        for chunk in CHUNKS[1:]:
            if runs[new_tree, samples, seed, chunk][1] != new_json:
                flags.append(f"chunk size {chunk} changes NEW's report JSON")
        print(f"== {samples}/{seed}: {len(new)} reports, {len(changed)} changed, "
              f"exit code {old_code} -> {new_code}, NEW's JSON identical at chunk sizes "
              f"{', '.join(map(str, sorted(CHUNKS)))}: "
              f"{'no' if any(f.startswith('chunk') for f in flags) else 'yes'}")
        print("\n".join(changed + [f"  FLAG {f}" for f in flags]) or "  (no changes)")
        total_changed += len(changed)
        all_flags += flags
    print("per column, over all configurations:")
    print("\n".join(column_summary(lists)))
    print(f"summary: {len(configs)} configurations, {total_changed} changed reports, "
          f"{len(all_flags)} flags")
    return 1 if all_flags else 0


if __name__ == "__main__":
    sys.exit(main())
