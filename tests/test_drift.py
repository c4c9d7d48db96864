"""Smoke test of the drift report in ``tools/drift.py``: the working tree
against itself, as directories, so no git repository is needed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_working_tree_against_itself_reports_no_drift():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT),
                             str(ROOT), "--configs", "2/7"],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == ("== 2/7: 221 reports, 0 changed, exit code 0 -> 0, NEW's JSON "
                        "identical at chunk sizes 1, 2, 64: yes")
    assert lines[-1] == "summary: 1 configurations, 0 changed reports, 0 flags"


def test_a_changed_report_and_a_verdict_flip_are_listed_and_flagged():
    """The comparison on hand-made report lists: a changed error, a flipped
    verdict, a tolerance change and a renamed report."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import drift
    finally:
        sys.path.remove(str(ROOT / "tools"))

    def report(suite, error, tolerance=1e-5):
        return {"suite": suite, "n": 2, "H": [1.0, -1.0], "max_error": error,
                "tolerance": tolerance, "pass": error <= tolerance}

    old = [report("theorem-match", 1e-8), report("graph-fd", 1e-6), report("iwasawa", 0.0),
           report("graph-exact", 1e-12)]
    new = [report("theorem-match", 1e-15), report("graph-fd", 1e-4), report("iwasawa", 0.0),
           report("graph-exact", 1e-12, tolerance=1e-9), report("graph-exakt", 1e-12)]
    changed, flags = drift.compare(old, new)
    assert changed == ["  n=2 H=1,-1 theorem-match: 1.000000e-08 -> 1.000000e-15",
                       "  n=2 H=1,-1 graph-fd: 1.000000e-06 -> 1.000000e-04",
                       "  n=2 H=1,-1 graph-exact: 1.000000e-12 -> 1.000000e-12"]
    assert flags == ["renamed report: n=2 H=1,-1 graph-exakt only in NEW",
                     "tolerance change: n=2 H=1,-1 graph-exact 1e-05 -> 1e-09",
                     "verdict flip: n=2 H=1,-1 graph-fd True -> False"]


def test_column_summary_counts_changes_and_worst_ratios():
    """Per column over both configurations: changed reports, the largest
    |delta| / tolerance, and the worst old and new error / tolerance."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import drift
    finally:
        sys.path.remove(str(ROOT / "tools"))

    def report(suite, h, error, tolerance=1e-4):
        return {"suite": suite, "n": 2, "H": h, "max_error": error, "tolerance": tolerance,
                "pass": isinstance(error, float) and error <= tolerance}

    first = ([report("iwasawa", [1.0, -1.0], 1e-6), report("graph-fd", [1.0, -1.0], 2e-5)],
             [report("iwasawa", [1.0, -1.0], 3e-6), report("graph-fd", [1.0, -1.0], 2e-5)])
    second = ([report("iwasawa", [0.0, 0.0], 4e-6), report("graph-fd", [0.0, 0.0], "Infinity")],
              [report("iwasawa", [0.0, 0.0], 4.5e-6), report("graph-fd", [0.0, 0.0], "Infinity")])
    assert drift.column_summary([first, second]) == [
        "  iwasawa: 2 changed, max |delta|/tol 2.000e-02, worst error/tol "
        "4.000e-02 -> 4.500e-02",
        "  graph-fd: 0 changed, max |delta|/tol 0.000e+00, worst error/tol inf -> inf",
    ]
