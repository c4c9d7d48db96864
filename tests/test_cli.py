import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitsym import SUITE_NAMES, suites
from orbitsym.cli import main, parse_entries
from orbitsym.orbit import FiberResidual


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseEntries:
    def test_decimals_become_rationals(self):
        values = parse_entries("0.5, 0.5, -1")
        from fractions import Fraction

        assert values == [Fraction(1, 2), Fraction(1, 2), Fraction(-1)]

    def test_simple_fractions(self):
        from fractions import Fraction

        assert parse_entries("1/3,1/3,-2/3") == [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]

    def test_scientific_notation_stays_rational(self):
        from fractions import Fraction

        values = parse_entries("1e0,0,-1e0")
        assert values == [Fraction(1), Fraction(0), Fraction(-1)]

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            parse_entries("1,,-1")


class TestVerifyCommand:
    def test_all_suites_pass_smallest_regular_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--n", "2", "--H", "1,-1", "--samples", "10", "--seed", "7"
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines()]
        assert len(lines) == 7
        assert all(l.endswith("PASS") for l in lines)
        assert lines[0].startswith("iwasawa")

    def test_single_suite_with_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "verify", "theorem", "--n", "3", "--H", "1,1,-2",
            "--samples", "5", "--seed", "1", "--json", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        match = [r for r in payload if r["suite"] == "theorem-match"]
        assert match and match[0]["max_error"] <= 1e-5
        assert match[0]["H"] == [1.0, 1.0, -2.0]

    def test_json_is_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "verify", "graph", "--n", "2", "--H", "1,-1",
                "--samples", "6", "--seed", "42", "--json", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_not_decreasing_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--n", "2", "--H", "-1,1")
        assert code == 2
        assert "H not weakly decreasing" in err

    def test_nonzero_sum_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--n", "2", "--H", "1,1")
        assert code == 2
        assert "sum to zero" in err

    def test_suite_flag_alternative(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "iwasawa", "--H", "1,-1", "--samples", "5"
        )
        assert code == 0
        assert out.strip().startswith("iwasawa")

    def test_conflicting_suites_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "theorem", "--suite", "graph", "--H", "1,-1"
        )
        assert code == 2
        assert "disagree" in err

    def test_missing_suite_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--H", "1,-1")
        assert code == 2

    def test_size_mismatch_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--n", "3", "--H", "1,-1")
        assert code == 2
        assert "expected 3 entries" in err

    def test_size_out_of_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--H", "1,0,0,0,0,0,0,0,-1")
        assert code == 2
        assert "between 2 and 8" in err

    def test_quiet_suppresses_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "iwasawa", "--H", "1,-1", "--samples", "4", "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_nonfinite_sample_writes_strict_json(self, capsys, tmp_path, monkeypatch):
        """A failing non-finite sample is written as a string, so a strict
        parser reads the file; the run still exits 1."""
        real = suites.graph_routes

        def routes(*args):
            a_val, b_val, c_val = real(*args)
            return float("nan"), b_val, c_val

        def reject(token):
            raise ValueError(f"bare {token} in JSON")

        monkeypatch.setattr(suites, "graph_routes", routes)
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "verify", "graph", "--H", "1,0,-1", "--samples", "2", "--seed", "1",
            "--json", str(path),
        )
        assert code == 1
        assert "FAIL" in out
        payload = json.loads(path.read_text(), parse_constant=reject)
        exact = payload[0]
        assert exact["suite"] == "graph-exact" and exact["pass"] is False
        assert exact["max_error"] == "Infinity"
        assert [d["error"] for d in exact["samples_detail"]] == ["Infinity", "Infinity"]

    def test_exception_inside_a_sample_fails_without_traceback(self, capsys, tmp_path,
                                                                monkeypatch):
        """A named error raised in one sample becomes an infinite error in
        every sampled column, carrying its class name; the run exits 1."""
        real = suites.to_cotangent
        calls = []

        def to_cotangent(x):
            calls.append(1)
            if len(calls) == 4:  # the first of the three calls in sample 1
                raise FiberResidual("fiber residual off the nilpotent slice")
            return real(x)

        def reject(token):
            raise ValueError(f"bare {token} in JSON")

        monkeypatch.setattr(suites, "to_cotangent", to_cotangent)
        path = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys, "verify", "projection", "--H", "1,0,-1", "--samples", "3", "--seed", "1",
            "--json", str(path),
        )
        assert code == 1
        assert err == ""
        assert out.rstrip().endswith("FAIL (FiberResidual at sample 1)")
        payload = json.loads(path.read_text(), parse_constant=reject)
        *sampled, pairing = payload
        assert len(sampled) == 4
        for report in sampled:
            assert report["pass"] is False and report["max_error"] == "Infinity"
            detail = report["samples_detail"]
            assert detail[1] == {"index": 1, "error": "Infinity", "exception": "FiberResidual"}
            assert "exception" not in detail[0] and "exception" not in detail[2]
            assert math.isfinite(detail[0]["error"]) and math.isfinite(detail[2]["error"])
        assert pairing["pass"] is True
        assert "exception" not in pairing["samples_detail"][0]

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem", "--H", "1,0,-1", "--samples", "3",
            "--tol-fd", "1e-30",
        )
        assert code == 1
        assert "FAIL" in out


    @pytest.mark.parametrize("flag, value", [
        ("--fd-step", "0"),
        ("--fd-step", "nan"),
        ("--fd-step", "-0.5"),
        ("--tol-exact", "nan"),
        ("--tol-exact", "-1"),
        ("--tol-fd", "0"),
        ("--tol-fd", "inf"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "verify", "graph", "--H", "1,-1", "--samples", "2", flag, value
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be finite and positive\n"


class TestInfoCommand:
    def test_regular_three(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--n", "3", "--H", "1,0,-1")
        assert code == 0
        assert "dim n(H): 3" in out
        assert "orbit dimension: 6" in out
        assert "flag dimension: 3" in out

    def test_wall_three(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--n", "3", "--H", "1,1,-2")
        assert code == 0
        assert "dim n(H): 2" in out
        assert "orbit dimension: 4" in out
        assert "flag dimension: 2" in out
        assert "blocks: 1 (x2), -2 (x1)" in out

    def test_zero_chamber(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--n", "2", "--H", "0,0")
        assert code == 0
        assert "orbit dimension: 0" in out

    def test_invalid_chamber(self, capsys):
        code, _, err = run_cli(capsys, "info", "--n", "2", "--H", "-1,1")
        assert code == 2
        assert "H not weakly decreasing" in err


@pytest.mark.parametrize("command", [["verify", "iwasawa"], ["info"]])
@pytest.mark.parametrize("entries", ["1e400,0,-1e400", "inf,0,-inf"])
def test_nonfinite_chamber_entry_is_usage_error(capsys, command, entries):
    code, out, err = run_cli(capsys, *command, "--H", entries)
    assert code == 2
    assert out == ""
    assert err == "error: H entries must be finite\n"


@pytest.mark.parametrize("command", [["verify", "all"], ["info"]])
@pytest.mark.parametrize("entries", [
    "1e-400,0,-1e-400",
    "1,0.99999999999999999999,-1.99999999999999999999",
])
def test_entries_equal_as_floats_are_usage_error(capsys, command, entries):
    """Entries that differ exactly but round to the same float would make
    a regular chamber with a repeated diagonal entry."""
    code, out, err = run_cli(capsys, *command, "--H", entries)
    assert code == 2
    assert out == ""
    assert err == "error: H entries that differ must stay distinct as floats\n"


def test_large_chamber_raises_no_fiber_residual(capsys):
    """The fiber check is relative to the orbit point, so rounding of
    order eps |H| no longer raises inside a sample."""
    _, out, err = run_cli(capsys, "verify", "projection", "--H", "1e6,0,-1e6",
                          "--samples", "3")
    assert err == ""
    assert out.startswith("projection ")
    assert out.rstrip().endswith((" PASS", " FAIL"))


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "orbitsym.cli", "verify", "graph",
         "--H", "1,-1", "--samples", "3", "--seed", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "graph" in result.stdout


SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"


def run_sweep(*argv):
    env = dict(os.environ)
    src = str(SWEEP.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SWEEP), *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_full_sweep_script_passes_every_suite_run():
    spec = importlib.util.spec_from_file_location("run_full_verification", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    expected = len(SUITE_NAMES) * len(sweep.CONFIGS)
    result = run_sweep("--samples", "1")
    assert result.returncode == 0, result.stderr
    suite_lines = [l for l in result.stdout.splitlines() if l.startswith("  ")]
    assert len(suite_lines) == expected
    assert all(l.endswith(" PASS") for l in suite_lines)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_full_sweep_script_rejects_empty_sample_count(samples):
    result = run_sweep("--samples", samples)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: --samples must be positive"]
