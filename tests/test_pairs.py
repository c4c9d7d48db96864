"""The summary of ``tools/pairs.py`` on hand-made numbers; the paired runs
themselves take minutes and stay outside the test suite."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return pairs


def metrics(rate, p50, rss=40.0):
    return {"samples_per_s": rate, "verify_p50_s": p50, "verify_tail_s": 2 * p50,
            "setup_s": 0.07, "peak_rss_mb": rss}


def test_summary_counts_wins_in_each_metric_direction(pairs):
    """Four pairs: NEW is faster in three, its latency lower in the same
    three, its memory higher in all four, and set-up ties everywhere."""
    runs = [(metrics(100.0, 1e-3), metrics(120.0, 0.8e-3, 41.0)),
            (metrics(110.0, 0.9e-3), metrics(130.0, 0.7e-3, 41.0)),
            (metrics(90.0, 1.1e-3), metrics(80.0, 1.2e-3, 41.0)),
            (metrics(105.0, 0.95e-3), metrics(125.0, 0.75e-3, 41.0))]
    summary = pairs.summarize(runs)
    assert summary["samples_per_s"]["wins"] == 3
    assert summary["verify_p50_s"]["wins"] == 3
    assert summary["verify_tail_s"]["wins"] == 3
    assert summary["setup_s"]["wins"] == 0
    assert summary["peak_rss_mb"]["wins"] == 0
    # linear quartiles of 90, 100, 105, 110 and of 80, 120, 125, 130
    assert summary["samples_per_s"]["old"] == pytest.approx((97.5, 102.5, 106.25))
    assert summary["samples_per_s"]["new"] == pytest.approx((110.0, 122.5, 126.25))


def test_row_and_summary_lines_read_as_changes_tables(pairs):
    old, new = metrics(1404.0, 0.7e-3), metrics(1700.5, 0.5625e-3)
    assert pairs.row("chart-n6", 2, "new", old, new) == (
        "| chart-n6 | 2 | new | 1404.00 → 1700.50 | 0.700 → 0.562 | 1.400 → 1.125 | "
        "70.00 → 70.00 | 40.00 → 40.00 |")
    assert pairs.HEADER.splitlines()[0].count("|") == pairs.row(
        "chart-n6", 2, "new", old, new).count("|")
    line = pairs.summary_lines(pairs.summarize([(old, new), (old, new)]), 2)[0]
    assert line.startswith("samples_per_s: old median 1404 [1404, 1404], new median 1700.5")
    assert line.endswith("new better in 2 of 2 pairs")


def test_fewer_than_ten_pairs_is_a_usage_error(pairs, capsys):
    with pytest.raises(SystemExit) as exc:
        pairs.main(["HEAD", "HEAD", "--workload", "chart-n6", "--pairs", "9"])
    assert exc.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err
