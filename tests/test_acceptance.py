"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a report and a
gate.  Sampling is deterministic; rerunning reproduces every number.
"""

import json

import pytest

from orbitsym import SpecialLinearModel, run_suite
from orbitsym.cli import main as cli_main

SEED = 42


def _chamber(entries):
    model = SpecialLinearModel(len(entries))
    return model.chamber_element(entries)


REGULAR = {
    2: [1, -1],
    3: [1, 0, -1],
    4: [1.5, 0.5, -0.5, -1.5],
    5: [2, 1, 0, -1, -2],
    6: [2.5, 1.5, 0.5, -0.5, -1.5, -2.5],
}
WALL = {
    2: [0, 0],
    3: [1, 1, -2],
    4: [1, 1, -1, -1],
    5: [1, 1, 1, 1, -4],
}


def _criterion(label: str, reports) -> None:
    reports = list(reports)
    ok = all(r.passed for r in reports)
    worst = max(reports, key=lambda r: r.max_error / r.tolerance)
    print(
        f"[{'PASS' if ok else 'FAIL'}] {label}: "
        f"worst {worst.suite} max_error={worst.max_error:.3e} tol={worst.tolerance:.1e}"
    )
    for r in reports:
        assert r.passed, f"{label}: {r.suite} max_error={r.max_error:.3e} > tol={r.tolerance:.1e}"


def test_criterion_1_iwasawa_reconstruction():
    reports = []
    for n in range(2, 7):
        reports += run_suite(_chamber(REGULAR[n]), "iwasawa", samples=50, seed=SEED)
    _criterion("1 iwasawa factorization, n=2..6", reports)


def test_criterion_2_infinitesimal_projections():
    reports = []
    for n in range(2, 6):
        reports += run_suite(_chamber(REGULAR[n]), "infinitesimal", samples=50, seed=SEED)
    _criterion("2 infinitesimal factor velocities, n=2..5", reports)


def test_criterion_3_projection_well_defined():
    reports = []
    for entries in (REGULAR[2], REGULAR[3], WALL[3], REGULAR[4], WALL[4]):
        for r in run_suite(_chamber(entries), "projection", samples=50, seed=SEED):
            if r.suite in ("projection-welldef", "projection-displacement"):
                reports.append(r)
    _criterion("3 ruling projection well defined", reports)


def test_criterion_4_identification_inverse_and_pairing():
    reports = []
    for entries in (REGULAR[2], REGULAR[3], WALL[3], REGULAR[4], WALL[4]):
        for r in run_suite(_chamber(entries), "projection", samples=50, seed=SEED):
            if r.suite in ("projection-roundtrip", "projection-linearity", "projection-pairing"):
                reports.append(r)
    _criterion("4 cotangent identification invertible, pairing nondegenerate", reports)


def test_criterion_5_lagrangian_subspaces():
    reports = []
    plan = [
        (REGULAR[2], 50),
        (REGULAR[3], 50),
        (WALL[3], 50),
        (REGULAR[4], 15),
        (WALL[4], 15),
    ]
    for entries, samples in plan:
        chamber = _chamber(entries)
        for mode in ("vertical", "horizontal"):
            reports += run_suite(chamber, f"lagrangian-{mode}", samples=samples, seed=SEED)
    _criterion("5 vertical and horizontal Lagrangian checks", reports)


def test_criterion_6_graph_of_potential_differential():
    reports = []
    for entries in (REGULAR[2], WALL[2], REGULAR[3], WALL[3], REGULAR[4], WALL[4]):
        # five samples: identity, diagonal, and three generic witnesses
        reports += run_suite(_chamber(entries), "graph", samples=5, seed=SEED)
    _criterion("6 displaced sections are potential graphs", reports)


def test_criterion_7_symplectomorphism():
    reports = []
    plan = [
        (REGULAR[2], 12),
        (REGULAR[3], 12),
        (WALL[3], 12),
        (REGULAR[4], 10),
        (WALL[4], 10),
        (WALL[5], 10),
    ]
    for entries, samples in plan:
        reports += run_suite(_chamber(entries), "theorem", samples=samples, seed=SEED)
    _criterion("7 form equality, invariance, nondegeneracy", reports)


def test_criterion_8_deterministic_reports(tmp_path):
    argv = [
        "verify", "all", "--n", "3", "--H", "1,1,-2",
        "--samples", "6", "--seed", "7", "--quiet",
    ]
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert cli_main(argv + ["--json", str(path)]) == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    print(f"[{'PASS' if identical else 'FAIL'}] 8 repeated runs are byte-identical")
    assert identical
    payload = json.loads(paths[0].read_text())
    assert all(r["pass"] for r in payload)
