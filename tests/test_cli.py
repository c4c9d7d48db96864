import errno
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from orbitsym import SUITE_NAMES, SpecialLinearModel, iwasawa, orbit, suites
from orbitsym import cli
from orbitsym.cli import build_parser, main, parse_entries, write_reports
from orbitsym.orbit import FiberResidual
from orbitsym.suites import VerificationReport


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
        # sample 1 is recognised by its data: the rotation K(g) of its
        # witness, which the first stacked _check_fiber call of a projection
        # pass (the slice check of to_cotangent(x)) receives for it, in a
        # batch and alone
        model = SpecialLinearModel(3)
        [rng] = suites._rngs(1, [1], suites.SUITES["projection"][0])
        g = model.random_group_element(rng, 1.2 / 3)
        target = iwasawa(g).k_factor
        real = orbit._check_fiber

        def check_fiber(chamber, k, *args, **kwargs):
            if any(np.array_equal(slice_, target) for slice_ in np.reshape(k, (-1, 3, 3))):
                raise FiberResidual("fiber residual off the nilpotent slice")
            return real(chamber, k, *args, **kwargs)

        def reject(token):
            raise ValueError(f"bare {token} in JSON")

        # the suite calls the check directly and through orbit's _cotangent,
        # behind the stacked _cotangent_reps and _split
        monkeypatch.setattr(suites, "_check_fiber", check_fiber)
        monkeypatch.setattr(orbit, "_check_fiber", check_fiber)
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


    def test_floating_point_breakdown_is_named(self, capsys):
        """An overflow inside a sample is raised as FloatingPointError and
        reported by name, with no warning on stderr."""
        code, out, err = run_cli(
            capsys, "verify", "graph", "--H", "1,0,-1", "--samples", "2", "--fd-step", "1e300"
        )
        assert code == 1
        assert err == ""
        assert out.rstrip().endswith("(FloatingPointError at sample 0)")

    @pytest.mark.parametrize("flag, value", [
        ("--fd-step", "0"),
        ("--fd-step", "nan"),
        ("--fd-step", "-0.5"),
        ("--tol-exact", "nan"),
        ("--tol-exact", "-1"),
        ("--tol-fd", "0"),
        ("--tol-fd", "inf"),
        ("--fd-step", "-1e-3"),
        ("--tol-exact", "-1e-9"),
        ("--fd-step", "-inf"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "verify", "graph", "--H", "1,-1", "--samples", "2", flag, value
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be finite and positive\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "theorem", "--H", "1,0,-1", "--samples", "abc"),
     "argument --samples: invalid int value: 'abc'"),
    (("verify", "spectral", "--H", "1,0,-1"), "argument SUITE: invalid choice: 'spectral'"),
    (("verify",), "the following arguments are required: --H"),
    (("verify", "theorem", "--H", "1,0,-1", "--n", "3.5"),
     "argument --n: invalid int value: '3.5'"),
    ((), "the following arguments are required: command"),
])
def test_argparse_usage_error_is_one_line(capsys, argv, message):
    """Malformed arguments that argparse itself rejects, in the top-level
    parser or a subcommand's, end with exit code 2 and one stderr line,
    as the program's own usage errors do, with no usage block."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {message}")


def test_help_keeps_its_usage_block(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: orbitsym verify") and "--samples" in out


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


def test_reused_parser_matches_fresh_processes(capsys, tmp_path):
    """``main`` builds its parser once per process.  A usage error, a run
    with --json and --tol-exact, and a run with neither, made one after
    the other in one process, each give the exit code, stdout and JSON
    bytes of the same call made alone in a fresh interpreter."""
    assert build_parser() is build_parser()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = ("verify", "iwasawa", "--H", "1,0,-1", "--samples", "2", "--seed", "4")
    calls = [
        (("verify", "theorem", "--samples", "2"), None),
        (run + ("--json", "{}", "--tol-exact", "1e-3"), "out.json"),
        (run, None),
    ]
    outputs = []
    for argv, json_name in calls:
        results = []
        for where in ("in-process", "fresh"):
            json_path = tmp_path / f"{where}-{json_name}" if json_name else None
            full = [a.format(json_path) for a in argv]
            if where == "in-process":
                try:
                    code = main(full)
                except SystemExit as exc:
                    code = exc.code
                out = capsys.readouterr().out
            else:
                result = subprocess.run([sys.executable, "-m", "orbitsym", *full],
                                        capture_output=True, text=True, timeout=120, env=env)
                code, out = result.returncode, result.stdout
            results.append((code, out, json_path.read_bytes() if json_path else None))
        assert results[0] == results[1]
        outputs.append(results[0])
    assert [code for code, _, _ in outputs] == [2, 0, 0]
    assert outputs[1][1] != outputs[2][1]  # the --tol-exact override did not persist


def test_json_is_identical_at_one_and_two_blas_threads(tmp_path):
    """The chart forms' batched matrix products give the same report bytes
    whatever the BLAS thread count, at the largest sweep chamber."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / f"threads-{threads}.json"
        result = subprocess.run(
            [sys.executable, "-m", "orbitsym", "verify", "theorem",
             "--H", "3.5,2.5,1.5,0.5,-0.5,-1.5,-2.5,-3.5", "--samples", "10",
             "--json", str(path), "--quiet"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"


def run_sweep(*argv):
    env = dict(os.environ)
    src = str(SWEEP.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SWEEP), *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


def sweep_module():
    spec = importlib.util.spec_from_file_location("run_full_verification", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_full_sweep_script_passes_every_suite_run():
    sweep = sweep_module()
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


def unwritable_json_path(tmp_path, where):
    """A --json path in a directory that does not exist, or a directory."""
    return tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_json_path_is_usage_error(capsys, tmp_path, where):
    """The --json path is opened before the first suite runs, so no
    suite line is printed."""
    path = unwritable_json_path(tmp_path, where)
    code, out, err = run_cli(capsys, "verify", "iwasawa", "--H", "1,-1", "--samples", "1",
                             "--json", str(path))
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot write --json {path}: ")


def full_disk(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("target", [
    "full-disk",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                      reason="no /dev/full")),
])
def test_failed_json_write_is_usage_error(capsys, tmp_path, monkeypatch, target):
    """A --json file that opens but cannot be written, as on a full disk,
    ends the run with one error line and exit code 2, after the suite
    lines it printed; no traceback."""
    path = target
    if target == "full-disk":
        path = str(tmp_path / "out.json")
        monkeypatch.setattr(cli, "write_reports", full_disk)
    code, out, err = run_cli(capsys, "verify", "iwasawa", "--H", "1,0,-1", "--samples", "1",
                             "--json", path)
    assert code == 2
    [line] = out.splitlines()
    assert line.startswith("iwasawa ") and line.endswith(" PASS")
    assert err.splitlines() == [f"error: cannot write --json {path}: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("old", ["x" * 1_000_000, "[]"], ids=["longer", "shorter"])
def test_json_overwrites_an_existing_file_exactly(capsys, tmp_path, old):
    """Rewriting an existing --json file, longer or shorter than the new
    report list, leaves exactly the new bytes in the same file."""
    argv = ("verify", "iwasawa", "--H", "1,0,-1", "--samples", "2", "--quiet", "--json")
    fresh = tmp_path / "fresh.json"
    assert run_cli(capsys, *argv, str(fresh))[0] == 0
    path = tmp_path / "out.json"
    path.write_text(old, encoding="utf-8")
    inode = path.stat().st_ino
    assert run_cli(capsys, *argv, str(path))[0] == 0
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == inode


def test_full_sweep_script_overwrites_an_existing_file_exactly(tmp_path):
    """The same for the sweep script, over a longer and a shorter file."""
    fresh = tmp_path / "fresh.json"
    assert run_sweep("--samples", "1", "--json", str(fresh)).returncode == 0
    for old in ("x" * 1_000_000, "[]"):
        path = tmp_path / "out.json"
        path.write_text(old, encoding="utf-8")
        assert run_sweep("--samples", "1", "--json", str(path)).returncode == 0
        assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_full_sweep_script_rejects_unwritable_json_path(tmp_path, where):
    path = unwritable_json_path(tmp_path, where)
    result = run_sweep("--samples", "1", "--json", str(path))
    assert result.returncode == 2
    assert result.stdout == ""  # rejected before the first chamber label
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: cannot write --json {path}: ")


def test_full_sweep_script_reports_a_failed_json_write(capsys, tmp_path, monkeypatch):
    """A --json file that cannot be written after the sweep, as on a full
    disk, ends the run with one error line and exit code 2; every line the
    sweep printed stays, and no traceback follows."""
    sweep = sweep_module()
    path = tmp_path / "out.json"
    monkeypatch.setattr(cli, "write_reports", full_disk)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), "--samples", "1", "--json", str(path)])
    assert sweep.main() == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    suite_lines = [l for l in lines if l.startswith("  ")]
    assert len(suite_lines) == len(SUITE_NAMES) * len(sweep.CONFIGS)
    assert lines[-1].startswith("done in ")
    assert captured.err.splitlines() == [
        f"error: cannot write --json {path}: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("argv, message", [
    (("--samples", "abc"), "argument --samples: invalid int value: 'abc'"),
    (("--bogus",), "unrecognized arguments: --bogus"),
])
def test_full_sweep_script_usage_error_is_one_line(argv, message):
    """Options that argparse itself rejects print one error line and no
    usage block, with exit code 2, as ``orbitsym verify`` does."""
    result = run_sweep(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


def test_full_sweep_script_help_keeps_its_usage_block():
    result = run_sweep("-h")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: ") and "--samples" in result.stdout


@pytest.mark.parametrize("command", [["verify", "all", "--samples", "2"], ["info"]])
@pytest.mark.parametrize("scale", ["1e100", "1e150"])
def test_overflowing_characteristic_polynomial_is_usage_error(capsys, command, scale):
    """Finite entries whose characteristic polynomial overflows are
    rejected before any sample runs, with one line and no numpy warning
    (which the RuntimeWarning filter would turn into an error)."""
    code, out, err = run_cli(capsys, *command, "--H", f"{scale},{scale},-{scale},-{scale}")
    assert (code, out) == (2, "")
    assert err == "error: characteristic polynomial of H overflows\n"


def json_text(reports) -> str:
    """The report list as ``json`` writes it: the reference for the writer."""
    return json.dumps([r.as_dict() for r in reports], indent=2, allow_nan=False) + "\n"


def written(reports) -> str:
    out = io.StringIO()
    write_reports(out, reports)
    return out.getvalue()


def handmade_report(errors, tolerance=1e-9, **fields) -> VerificationReport:
    return VerificationReport(**{
        "suite": "graph-exact", "n": 3, "chamber_entries": (1.0, 0.0, -1.0),
        "samples": len(errors), "seed": 42, "fd_step": 1e-3,
        "sample_errors": tuple(errors), "max_error": suites._worst(errors),
        "tolerance": tolerance, "passed": False, **fields})


@pytest.mark.parametrize("entries", [[0, 0], [1, 0, -1], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]])
def test_report_writer_matches_json(entries):
    """The direct writer gives ``json.dump(..., indent=2)``'s bytes for the
    reports of every suite, chamber-level columns included."""
    chamber = SpecialLinearModel(len(entries)).chamber_element(entries)
    reports = [r for name in SUITE_NAMES for r in suites.run_suite(chamber, name, samples=2)]
    assert written(reports) == json_text(reports)
    assert written([]) == json_text([]) == "[]\n"


def test_report_writer_matches_json_on_failures():
    """Non-finite errors (written as strings), exception rows, a negative
    seed and an integer step are written as ``json`` writes them."""
    report = handmade_report(
        [float("nan"), float("inf"), -float("inf"), 0.5], seed=-7, fd_step=1,
        exceptions=((1, "FiberResidual"), (2, "SingularInput")))
    text = written([report, handmade_report([0.0, -0.0])])
    assert text == json_text([report, handmade_report([0.0, -0.0])])
    assert '"exception": "FiberResidual"' in text and '"error": "-Infinity"' in text


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(finite, min_size=1, max_size=4), finite, st.tuples(finite, finite))
@example([-0.0, 5e-324, 1e308, -1e308], 2.2250738585072014e-308, (-0.0, 1e-320))
def test_report_writer_matches_json_on_finite_floats(errors, tolerance, entries):
    report = handmade_report(errors, tolerance, chamber_entries=entries, fd_step=tolerance)
    assert written([report]) == json_text([report])


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan")])
def test_report_writer_rejects_a_nonfinite_tolerance(tolerance):
    report = handmade_report([0.0], tolerance)
    with pytest.raises(ValueError):
        json_text([report])
    with pytest.raises(ValueError):
        written([report])


def test_verify_json_does_not_use_the_json_encoder(tmp_path, monkeypatch):
    """Structural guard: ``--json`` output is rendered without ``json``'s
    encoder, and is still what the encoder would write."""
    chamber = SpecialLinearModel(3).chamber_element([1, 0, -1])
    expected = json_text(suites.run_suite(chamber, "projection", samples=3, seed=4))

    def refuse(*args, **kwargs):
        raise AssertionError("json encoder called")

    monkeypatch.setattr(json, "dump", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    path = tmp_path / "out.json"
    code = main(["verify", "projection", "--H", "1,0,-1", "--samples", "3", "--seed", "4",
                 "--json", str(path), "--quiet"])
    assert code == 0
    assert path.read_text(encoding="utf-8") == expected


def count_chamber_builds(monkeypatch) -> list:
    """Record the entries of every ``chamber_element`` call from now on."""
    builds = []
    real = SpecialLinearModel.chamber_element

    def chamber_element(self, entries):
        builds.append(list(entries))
        return real(self, entries)

    monkeypatch.setattr(SpecialLinearModel, "chamber_element", chamber_element)
    return builds


def test_repeated_h_builds_one_chamber(capsys, tmp_path, monkeypatch, fresh_chambers):
    """Two ``main`` calls with the same --H build one chamber and write the
    same stdout and JSON bytes; an ``info`` call after them builds none."""
    builds = count_chamber_builds(monkeypatch)
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, out, err = run_cli(capsys, "verify", "all", "--H", "2,1,0,-1,-2",
                                 "--samples", "3", "--seed", "9", "--json", str(path))
        outputs.append((code, out, err, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert run_cli(capsys, "info", "--H", "2,1,0,-1,-2")[0] == 0
    assert builds == [[2, 1, 0, -1, -2]]


@pytest.mark.parametrize("bad", ["1,,-1", "1,x,-1", "-1,0,1", "1,0,-1,0"])
def test_malformed_h_after_a_good_one_is_still_a_usage_error(capsys, fresh_chambers, bad):
    """Errors are not kept: a malformed --H after a good one, and again
    after that, exits 2 with one line each time."""
    assert run_cli(capsys, "verify", "iwasawa", "--H", "1,0,-1", "--samples", "2")[0] == 0
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "iwasawa", "--n", "3", "--H", bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert cli._resolve_chamber.cache_info().currsize == 1


def test_given_and_inferred_size_agree(capsys, tmp_path):
    """``--n 3 --H 1,0,-1`` and ``--H 1,0,-1`` give the same stdout and
    JSON bytes, whichever of them runs first."""
    outputs = []
    for size in (["--n", "3"], [], ["--n", "3"]):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "verify", "all", *size, "--H", "1,0,-1",
                               "--samples", "3", "--json", str(path))
        outputs.append((code, out, path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_chamber_memo_has_a_fixed_size():
    assert cli._resolve_chamber.cache_info().maxsize == cli._CHAMBERS_KEPT
