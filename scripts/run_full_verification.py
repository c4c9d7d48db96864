#!/usr/bin/env python3
"""Sweep every verification suite over a matrix of chamber elements.

Covers regular and wall chambers for n = 2..5, 7 and 8 and the regular
chamber at n = 6, runs every suite at each with the same sample count, prints
one line per suite and configuration, and optionally writes the full
report list as JSON.  ``--samples`` must be at least 1, and a ``--json``
path that cannot be opened ends the run with exit 2 before the sweep;
one that cannot be written ends it with exit 2 after.  Usage errors
print one ``error:`` line and exit 2.

    python3 scripts/run_full_verification.py --samples 25 --json sweep.json
"""

import sys
import time

from orbitsym import SUITE_NAMES, SpecialLinearModel, run_suite
from orbitsym.cli import _Parser, open_json, save_json, suite_line

CONFIGS = [
    ("regular", [1, -1]),
    ("wall", [0, 0]),
    ("regular", [1, 0, -1]),
    ("wall", [1, 1, -2]),
    ("regular", [1.5, 0.5, -0.5, -1.5]),
    ("wall", [1, 1, -1, -1]),
    ("regular", [2, 1, 0, -1, -2]),
    ("wall", [1, 1, 1, 1, -4]),
    ("regular", [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]),
    ("regular", [3, 2, 1, 0, -1, -2, -3]),
    ("wall", [1, 1, 1, 1, 1, 1, -6]),
    ("regular", [3.5, 2.5, 1.5, 0.5, -0.5, -1.5, -2.5, -3.5]),
    ("wall", [1, 1, 1, 1, -1, -1, -1, -1]),
]


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()
    if args.samples < 1:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    try:
        out = open_json(args.json_path) if args.json_path else None
    except OSError as exc:
        print(f"error: cannot write --json {args.json_path}: {exc.strerror}", file=sys.stderr)
        return 2

    all_reports = []
    failures = 0
    started = time.perf_counter()
    for kind, entries in CONFIGS:
        n = len(entries)
        chamber = SpecialLinearModel(n).chamber_element(entries)
        label = f"n={n} {kind} H={','.join(f'{e:g}' for e in chamber.entries)}"
        print(label)
        for name in SUITE_NAMES:
            reports = run_suite(chamber, name, samples=args.samples, seed=args.seed)
            all_reports += reports
            failures += 0 if all(r.passed for r in reports) else 1
            print(f"  {suite_line(name, args.samples, reports)}")
    elapsed = time.perf_counter() - started
    print(f"done in {elapsed:.1f}s, {failures} failing suite runs")

    if out:
        if save_json(out, args.json_path, all_reports):
            return 2
        print(f"wrote {len(all_reports)} reports to {args.json_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
