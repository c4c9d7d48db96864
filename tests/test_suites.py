import dataclasses
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orbitsym import SUITE_NAMES, SpecialLinearModel, mat_exp, random_combination, run_suite
from orbitsym import orbit as orbit_module
from orbitsym import suites, symplectic
from orbitsym import model as model_module
from orbitsym.model import ChamberElement, _combinations
from orbitsym.numerics import STENCIL_OFFSETS
from orbitsym.orbit import OrbitChart
from orbitsym.suites import _report, _worst


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_small_runs(name, chamber3):
    reports = run_suite(chamber3, name, samples=8, seed=11)
    assert reports
    for report in reports:
        assert report.passed, f"{report.suite}: {report.max_error:.3e} > {report.tolerance:.1e}"
        assert report.passed == (report.max_error <= report.tolerance)
        assert report.max_error == max(report.sample_errors, default=0.0)


@pytest.mark.parametrize("name", ["theorem", "graph", "lagrangian-vertical"])
def test_wall_chamber_passes(name, wall3):
    for report in run_suite(wall3, name, samples=6, seed=3):
        assert report.passed


def test_zero_chamber_is_trivially_green(model2):
    chamber = model2.chamber_element([0, 0])
    for name in SUITE_NAMES:
        for report in run_suite(chamber, name, samples=3, seed=1):
            assert report.passed


def test_reports_are_deterministic(chamber2):
    first = [r.as_dict() for r in run_suite(chamber2, "theorem", samples=5, seed=9)]
    second = [r.as_dict() for r in run_suite(chamber2, "theorem", samples=5, seed=9)]
    assert json.dumps(first) == json.dumps(second)


def test_graph_reports_are_deterministic(chamber3):
    first = [r.as_dict() for r in run_suite(chamber3, "graph", samples=6, seed=5)]
    repeat = [r.as_dict() for r in run_suite(chamber3, "graph", samples=6, seed=5)]
    assert json.dumps(first) == json.dumps(repeat)


def test_report_shape(chamber3):
    reports = run_suite(chamber3, "infinitesimal", samples=4, seed=2)
    names = [r.suite for r in reports]
    assert names == ["infinitesimal-exact", "infinitesimal-fd"]
    payload = reports[0].as_dict()
    assert set(payload) == {
        "suite", "n", "H", "samples", "seed", "fd_step",
        "max_error", "tolerance", "pass", "samples_detail",
    }
    assert payload["n"] == 3
    assert payload["H"] == [1.0, 0.0, -1.0]
    assert payload["samples"] == 4
    assert len(payload["samples_detail"]) == 4
    assert payload["samples_detail"][0] == {
        "index": 0, "error": reports[0].sample_errors[0],
    }


def test_tolerance_overrides(chamber2, chamber3):
    loose = run_suite(chamber2, "iwasawa", samples=3, seed=1, tol_exact=1.0)
    assert loose[0].tolerance == 1.0
    strict = run_suite(chamber3, "lagrangian-horizontal", samples=3, seed=1, tol_fd=1e-30)
    assert any(not r.passed for r in strict if r.suite.endswith("-std"))


NAN = float("nan")


@pytest.mark.parametrize("errors", [
    [NAN, 1e-13, 1e-14],
    [1e-13, NAN, 1e-14],
    [1e-13, 1e-14, NAN],
    [1e-13, math.inf, 1e-14],
    [1e-13, 1e-14, -math.inf],
])
def test_nonfinite_error_fails_report(chamber2, errors):
    assert _worst(errors) == math.inf
    report = _report("graph-exact", chamber2, 1, 1e-3, errors, 1e-12)
    assert report.max_error == math.inf
    assert not report.passed
    payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
    names = {math.inf: "Infinity", -math.inf: "-Infinity"}
    assert payload["max_error"] == "Infinity"
    assert [d["error"] for d in payload["samples_detail"]] == [
        "NaN" if math.isnan(e) else names.get(e, e) for e in errors
    ]


def test_nan_inside_a_sample_fails_suite(chamber3, monkeypatch):
    """A NaN from a later direction of one sample may not be dropped by
    the per-sample reduction."""
    real = suites.graph_routes

    def routes(*args):
        a_val, b_val, c_val = real(*args)
        a_val = a_val.copy()
        a_val[..., 1] = NAN  # direction 1 of every sample
        return a_val, b_val, c_val

    monkeypatch.setattr(suites, "graph_routes", routes)
    exact, fd = run_suite(chamber3, "graph", samples=1, seed=1)
    assert exact.max_error == math.inf and not exact.passed
    assert fd.max_error == math.inf and not fd.passed


def test_nan_derivative_route_fails_only_the_fd_report(chamber3, monkeypatch):
    """graph-exact compares the form and pairing routes alone, so a NaN
    from the potential's stencil fails graph-fd and leaves graph-exact,
    scales included, as it was."""
    clean_exact, _ = run_suite(chamber3, "graph", samples=2, seed=1)
    real = suites.graph_routes

    def routes(*args):
        a_val, b_val, c_val = real(*args)
        c_val = c_val.copy()
        c_val[..., 1] = NAN  # direction 1 of every sample
        return a_val, b_val, c_val

    monkeypatch.setattr(suites, "graph_routes", routes)
    exact, fd = run_suite(chamber3, "graph", samples=2, seed=1)
    assert exact == clean_exact
    assert fd.sample_errors == (math.inf, math.inf) and not fd.passed


def nan_at_sample_1(a, *slot):
    """A copy of the stack ``a`` with NaN at sample 1 (and ``slot`` within it)."""
    a = np.array(a)
    a[(1, *slot)] = NAN
    return a


def nan_field(result, name):
    return dataclasses.replace(result, **{name: nan_at_sample_1(getattr(result, name))})


def nan_h_projection(factors):
    """A copy of the factors whose lazily formed ``h_projection`` (a cached
    property, not a field) reads NaN at sample 1, and no other factor."""
    corrupt = dataclasses.replace(factors)
    vars(corrupt)["h_projection"] = nan_at_sample_1(factors.h_projection)
    return corrupt


def nan_in_witness_velocity(result, *args, **kwargs):
    # only the second call, against a n, feeds nothing but witness independence
    return result if "factors" in kwargs else nan_field(result, "n_deriv")


# (suite, patched name in suites, corruption of its result, the report that
# fails): each NaN enters one sub-check of the failing report's column
MERGED_NAN = [
    ("iwasawa", "iwasawa", lambda r, *a: nan_h_projection(r), "iwasawa"),
    ("infinitesimal", "infinitesimal_iwasawa", nan_in_witness_velocity, "infinitesimal-exact"),
    ("infinitesimal", "fd_iwasawa_velocities",
     lambda r, *a: (r[0], r[1], nan_at_sample_1(r[2])), "infinitesimal-fd"),
    ("projection", "_split", lambda r, *a: (r[0], nan_at_sample_1(r[1], 0), r[2]),
     "projection-roundtrip"),
    ("projection", "_split", lambda r, *a: (r[0], r[1], nan_at_sample_1(r[2], 1)),
     "projection-linearity"),
]
# the same for single-source columns, whose errors pass through unreduced
SINGLE_NAN = [
    ("projection", "_flag_points", lambda r, *a: nan_at_sample_1(r, 1), "projection-welldef"),
    ("theorem", "omega_std_chart", lambda r, *a: nan_at_sample_1(r), "theorem-match"),
]


@pytest.mark.parametrize("name, patched, corrupt, failing", MERGED_NAN + SINGLE_NAN,
                         ids=[case[3] for case in MERGED_NAN + SINGLE_NAN])
def test_nan_in_one_sub_check_fails_only_its_report(
        chamber3, monkeypatch, name, patched, corrupt, failing):
    """A NaN in one sub-check of sample 1 fails the report of its column
    and no other.  A merged column counts it as infinite in the sample's
    error; a single-source column keeps the NaN there.  Either way the
    report's max_error is infinite, and samples 0 and 2 keep their values."""
    clean = run_suite(chamber3, name, samples=3, seed=6)
    real = getattr(suites, patched)

    def kernel(*args, **kwargs):
        return corrupt(real(*args, **kwargs), *args, **kwargs)

    monkeypatch.setattr(suites, patched, kernel)
    reports = run_suite(chamber3, name, samples=3, seed=6)
    assert [r.suite for r in reports] == [r.suite for r in clean]
    for report, before in zip(reports, clean):
        if report.suite != failing:
            assert report == before, report.suite
            continue
        payload = report.as_dict()
        merged = (name, patched, corrupt, failing) in MERGED_NAN
        assert payload["samples_detail"][1]["error"] == ("Infinity" if merged else "NaN")
        assert payload["max_error"] == "Infinity" and not report.passed
        assert not report.exceptions
        for i in (0, 2):
            assert report.sample_errors[i] == before.sample_errors[i]


def test_type_error_inside_a_sample_propagates(chamber3, monkeypatch):
    """Only numerical breakdown is recorded as a failed sample; a
    TypeError is a bug and must surface."""
    def routes(*args):
        raise TypeError("bad argument")

    monkeypatch.setattr(suites, "graph_routes", routes)
    with pytest.raises(TypeError, match="bad argument"):
        run_suite(chamber3, "graph", samples=2, seed=1)


def test_graph_factors_once_per_sample(monkeypatch):
    """Call-count guard, per suite call: one stacked ``graph_routes`` call
    covers both samples and all 15 m(H) directions at n = 6.  Each
    sample's g k is factored once, for its velocities and its cotangent
    representative alike, and the four potential stencil offsets, which fit
    the byte budget together, are one R-only factorization over every
    offset, sample and direction; there is no single-point orbit point,
    cotangent representative or factorization."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    calls = dict.fromkeys(("graph_routes", "orbit_point", "to_cotangent"), 0)
    shapes, qr_calls = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def factor(g):
        shapes.append(np.shape(g))
        return real_iwasawa(g)

    def qr(a, mode="reduced"):
        qr_calls.append((np.shape(a), mode))
        return real_qr(a, mode)

    # the package re-exports the function iwasawa under its module's name
    iwasawa_module = importlib.import_module("orbitsym.iwasawa")
    real_iwasawa = iwasawa_module.iwasawa
    real_qr = np.linalg.qr
    for module in (suites, symplectic, orbit_module, iwasawa_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        if hasattr(module, "iwasawa"):
            monkeypatch.setattr(module, "iwasawa", factor)
    monkeypatch.setattr(np.linalg, "qr", qr)
    reports = run_suite(chamber, "graph", samples=2)
    assert all(r.passed for r in reports)
    assert calls == {"graph_routes": 1, "orbit_point": 0, "to_cotangent": 0}
    assert shapes == [(2, 1, 6, 6)]
    assert qr_calls == [((2, 1, 6, 6), "reduced"), ((4, 2, 15, 6, 6), "r")]


@pytest.mark.parametrize("entries", [
    [1, 0, -1],
    [2.5, 1.5, 0.5, -0.5, -1.5, -2.5],
], ids=["chamber3", "n6-regular"])
def test_theorem_builds_its_stencil_once_per_sample(entries, monkeypatch):
    """Call-count guard: a ``theorem`` call factors the stencil witnesses
    of all its samples in one stacked QR of shape (samples, 4, dim, n, n),
    the standard form's stencil, and builds no stencil point: the samples'
    own orbit points, one (samples, n, n) pass through the one builder of
    conjugates, ``_conjugates``, are the only points it builds."""
    n = len(entries)
    chamber = SpecialLinearModel(n).chamber_element(entries)
    shapes = {"_conjugates": [], "qr_positive": []}

    def recorded(name, real):
        def wrapper(*args):  # the last argument is the stack: g^-1 or w
            shapes[name].append(np.shape(args[-1]))
            return real(*args)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(orbit_module, name, recorded(name, getattr(orbit_module, name)))
    reports = run_suite(chamber, "theorem", samples=3)
    assert all(r.passed for r in reports)
    assert shapes == {"_conjugates": [(3, n, n)],
                      "qr_positive": [(3, 4, 2 * chamber.dim_n, n, n)]}


@pytest.mark.parametrize("name", ["theorem", "lagrangian-vertical", "lagrangian-horizontal"])
def test_no_stencil_witness_is_inverted_or_checked_twice(name, monkeypatch):
    """Guard: at n = 6, a chart suite of three samples runs no
    ``np.linalg.inv`` or ``np.linalg.solve`` on its stencil stack (samples,
    4, dim, n, n) and one determinant check on it.  The base witnesses are
    checked and inverted once, in one (samples, n, n) call each, and their
    inverses serve the frames and the stencil."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    shapes = {"inv": [], "solve": [], "slogdet": []}

    def recorded(fn_name):
        real = getattr(np.linalg, fn_name)

        def wrapper(a, *args, **kwargs):
            shapes[fn_name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return wrapper

    for fn_name in shapes:
        monkeypatch.setattr(np.linalg, fn_name, recorded(fn_name))
    reports = run_suite(chamber, name, samples=3)
    assert all(r.passed for r in reports)
    dim = chamber.orbit_dim if name == "theorem" else chamber.dim_n
    assert shapes == {"inv": [(3, 6, 6)], "solve": [], "slogdet": [(3, 6, 6), (3, 4, dim, 6, 6)]}


def test_plus_exponentials_in_the_stencil_inverse_fail_theorem(tmp_path):
    """Mutation check on a copy of the package: the stencil's witness
    inverses from exp(+s X) in place of the mirrored exp(-s X).  The
    stencil checks A N (A N)^-1 = I on the pair it returns, which a wrong
    inverse misses along every direction, n(H) included, where the wrong
    points g E H E g^-1 (E = exp(s X)) would keep the chamber's spectrum.
    So at (1, 0, -1) and at the n = 6 regular chamber every report of
    ``theorem`` and both ``lagrangian-*`` suites fails, each sample with
    ``ValueError``."""
    package = Path(orbit_module.__file__).resolve().parent
    copy = tmp_path / "orbitsym"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "orbit.py"
    text = source.read_text(encoding="utf-8")
    anchor = "an_inv = np.triu(exps[::-1] @ "
    assert text.count(anchor) == 1
    source.write_text(text.replace(anchor, "an_inv = np.triu(exps @ "), encoding="utf-8")
    script = (
        "import json, orbitsym\n"
        "from orbitsym import SpecialLinearModel, run_suite\n"
        "reports = {}\n"
        "for entries in ([1, 0, -1], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]):\n"
        "    chamber = SpecialLinearModel(len(entries)).chamber_element(entries)\n"
        "    reports[len(entries)] = [\n"
        "        [r.suite, r.passed, r.exceptions]\n"
        "        for name in ('theorem', 'lagrangian-vertical', 'lagrangian-horizontal')\n"
        "        for r in run_suite(chamber, name, samples=10, seed=3)]\n"
        "print(json.dumps([orbitsym.__file__, reports]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(tmp_path)}, check=True)
    location, reports = json.loads(result.stdout)
    assert Path(location).resolve().parent == copy.resolve()
    everywhere = [[i, "ValueError"] for i in range(10)]
    for n in ("3", "6"):
        assert len(reports[n]) == 7
        assert all(not passed and raised == everywhere for _, passed, raised in reports[n])


def test_projection_factors_once_per_sample(monkeypatch):
    """Call-count guard, per suite call: a ``projection`` call of two
    samples at n = 6 reads K of every g and g z by one stacked QR and of
    the returning witnesses by another, with no Iwasawa factorization,
    checks the determinant of each witness once (with its orbit point,
    not again to factor it), builds the flag
    points of g, g z and
    k0 in one stacked pass and those of the returns in another, runs all
    round trips through one stacked witness solve, and makes no
    single-point bundle call.
    Its slice checks are three stacked ``_check_fiber`` calls: the
    representatives of x (alone, without their coordinates), the three
    over each k0 and the two returns, the last two inside the two
    ``_cotangent`` calls.  Each reads its n(H) residuals once, and the
    displacement error reuses those of x.
    No Killing pairing runs once per sample: a call of five samples
    makes as many ``killing`` calls as a call of two."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    single = ("to_cotangent", "from_cotangent", "cotangent_rep", "orbit_point", "flag_point")
    calls = dict.fromkeys((*single, "_from_cotangent", "_cotangent", "_check_fiber",
                           "_fiber_coefficients", "killing"), 0)
    shapes, det_shapes = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def factor(name, real):
        def wrapper(g):
            shapes.append((name, np.shape(g)))
            return real(g)
        return wrapper

    def require_det_one(g):
        det_shapes.append(np.shape(g))
        return real_det(g)

    def flag_points(chamber, k):
        flag_shapes.append(np.shape(k))
        return real_flag_points(chamber, k)

    iwasawa_module = importlib.import_module("orbitsym.iwasawa")
    real_iwasawa, real_qr = iwasawa_module.iwasawa, iwasawa_module.qr_positive
    real_det = iwasawa_module._require_det_one
    real_flag_points, flag_shapes = orbit_module._flag_points, []
    for module in (suites, symplectic, orbit_module, iwasawa_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        if hasattr(module, "iwasawa"):
            monkeypatch.setattr(module, "iwasawa", factor("iwasawa", real_iwasawa))
        if hasattr(module, "qr_positive"):
            monkeypatch.setattr(module, "qr_positive", factor("qr_positive", real_qr))
        if hasattr(module, "_require_det_one"):
            monkeypatch.setattr(module, "_require_det_one", require_det_one)
        if hasattr(module, "_flag_points"):
            monkeypatch.setattr(module, "_flag_points", flag_points)
    monkeypatch.setattr(SpecialLinearModel, "killing",
                        counted("killing", SpecialLinearModel.killing))
    reports = run_suite(chamber, "projection", samples=2)
    assert all(r.passed for r in reports)
    killings = calls.pop("killing")
    assert calls == {**dict.fromkeys(single, 0), "_from_cotangent": 1, "_cotangent": 2,
                     "_check_fiber": 3, "_fiber_coefficients": 3}
    # K of each witness stack is read once, by its QR alone, right after its
    # one determinant check with its orbit points: g and g z, then the
    # returns of the two fiber round trips
    assert shapes == [("qr_positive", (2, 2, 6, 6)), ("qr_positive", (2, 2, 6, 6))]
    assert det_shapes == [(2, 2, 6, 6), (2, 3, 6, 6)]
    assert flag_shapes == [(2, 3, 6, 6), (2, 2, 6, 6)]
    calls["killing"] = 0
    assert all(r.passed for r in run_suite(chamber, "projection", samples=5))
    assert killings > 0 and calls["killing"] == killings


@pytest.mark.parametrize("entries", [[1, -1], [0, 0], [1, 0, -1], [1, 1, -2], [1, 1, -1, -1],
                                     [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]])
def test_pairing_ratio_matches_the_pairing_loop(entries):
    """The stacked n(H) x m(H) pairing equals one ``killing`` call per
    entry exactly: the basis matrices are 0/+-1 unit matrices."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    ratio = suites._pairing_ratio(chamber)
    if not chamber.dim_n:
        assert ratio == 0.0
        return
    pairing = np.array([[model.killing(u, e) for e in chamber.m_basis] for u in chamber.n_basis])
    assert ratio == suites.SMIN_THRESHOLD / float(np.linalg.svd(pairing, compute_uv=False)[-1])


@pytest.mark.parametrize("mode", ["vertical", "horizontal"])
def test_lagrangian_builds_one_frame_per_sample(chamber3, monkeypatch, mode):
    """Call-count guard: one ``frame_generators`` call per suite call
    builds the frames of all samples, stacked (samples, dim, n, n)."""
    real = OrbitChart.frame_generators
    shapes = []

    def frame_generators(self, t):
        p, gens = real(self, t)
        shapes.append(gens.shape)
        return p, gens

    monkeypatch.setattr(OrbitChart, "frame_generators", frame_generators)
    reports = run_suite(chamber3, f"lagrangian-{mode}", samples=3, seed=2)
    assert all(r.passed for r in reports)
    assert shapes == [(3, chamber3.dim_n, 3, 3)]


AT = (3, 1)  # stencil offset +2h along axis 1


def scale_witness(call, stack, s):
    stack[s][AT] *= 2.0  # determinant 2^n, which the stencil's one determinant check rejects
    return call(stack)


def drop_column(call, stack, s):
    stack[s][AT][:, 1] = 0.0  # a dependent column for the factorization
    return call(stack)


def tilt_rotation(call, stack, s):
    """K gains 1e-3 in its corner (0, n-1), so (A N)^-1 = triu(w^-1 K) gains
    1e-3 times w^-1's first column in its last column, all of it upper,
    and A N (A N)^-1 misses I by 1e-3."""
    k, an = call(stack)
    k[s][AT][0, -1] += 1e-3
    return k, an


@pytest.mark.parametrize("module, name, corrupt, exception", [
    ("orbitsym.orbit", "_require_det_one", scale_witness, "ValueError"),
    ("orbitsym.orbit", "qr_positive", drop_column, "SingularInput"),
    ("orbitsym.orbit", "qr_positive", tilt_rotation, "ValueError"),
])
def test_breakdown_at_one_stencil_point_fails_only_its_sample(
        chamber3, monkeypatch, module, name, corrupt, exception):
    """A breakdown at one of the 4 dim stencil points of sample 1's
    cotangent form (a witness off determinant one, a singular witness, or
    a wrong (A N)^-1, which the stencil's inverse check rejects) fails
    that sample, under the exception name a
    per-point evaluation raises, and leaves samples 0 and 2 passing with
    their clean values.  Sample 1 is recognised by its data, the witness
    of its chart's base point, at its slot of the stacked chunk and then
    in its rerun alone."""
    clean = run_suite(chamber3, "theorem", samples=3, seed=7)
    real_points = orbit_module._orbit_points
    bases = []  # the chart base witnesses (samples, n, n) of each check, in call order

    def orbit_points(chamber, g):
        if np.ndim(g) == 3:
            bases.append(np.array(g))
        return real_points(chamber, g)

    monkeypatch.setattr(orbit_module, "_orbit_points", orbit_points)
    run_suite(chamber3, "theorem", samples=3, seed=7)
    target = bases[0][1]
    owner = importlib.import_module(module)
    real = getattr(owner, name)
    corrupted = []  # the slot of sample 1 in each stack it was corrupted in

    def kernel(*args):
        *head, stack = args
        stack = np.array(stack)
        if stack.ndim == 5:  # the stencil (samples, 4, dim, n, n)
            for s, base in enumerate(bases[-1]):
                if np.array_equal(base, target):
                    corrupted.append(s)
                    return corrupt(lambda a: real(*head, a), stack, s)
        return real(*head, stack)

    monkeypatch.setattr(owner, name, kernel)
    reports = run_suite(chamber3, "theorem", samples=3, seed=7)
    assert corrupted == [1, 0]  # in the chunk of three, then alone
    for report, before in zip(reports, clean):
        assert report.exceptions == ((1, exception),)
        assert report.sample_errors[1] == math.inf
        for i in (0, 2):
            assert report.sample_errors[i] == before.sample_errors[i] <= report.tolerance


@pytest.mark.parametrize("name, breakdown", [
    ("iwasawa", "SingularInput"),
    ("infinitesimal", "SingularInput"),
    ("projection", "SingularInput"),
    ("graph", "SingularInput"),
])
def test_breakdown_in_one_sample_of_a_batch_fails_only_that_sample(
        chamber3, monkeypatch, name, breakdown):
    """A factor suite checks all samples of a call in one stacked pass.
    A breakdown in sample 1's slices of the first stacked factorization
    fails that sample alone, by name, and samples 0 and 2 keep their
    clean values bit for bit.  Sample 1's slices are recognised by their
    data, taken from a clean pass, in which the factorization's leading
    axis runs over the samples."""
    clean = run_suite(chamber3, name, samples=3, seed=4)
    # projection reads K of its checked witnesses by QR alone
    owner = suites if name == "projection" else importlib.import_module("orbitsym.iwasawa")
    real = owner.qr_positive
    first = []

    def record(m):
        if not first:
            first.append(np.array(m))
        return real(m)

    monkeypatch.setattr(owner, "qr_positive", record)
    run_suite(chamber3, name, samples=3, seed=4)
    assert first[0].shape[0] == 3  # one leading slot per sample
    targets = np.reshape(first[0][1], (-1, 3, 3))

    def kernel(m):
        m = np.array(m)
        flat = m.reshape(-1, 3, 3)
        for i, slice_ in enumerate(flat):
            if any(np.array_equal(slice_, t) for t in targets):
                flat[i][:, 1] = 0.0  # a dependent column for the factorization
        return real(m)

    monkeypatch.setattr(owner, "qr_positive", kernel)
    reports = run_suite(chamber3, name, samples=3, seed=4)
    for report, before in zip(reports, clean):
        if report.suite == "projection-pairing":  # chamber-level, not sampled
            assert report == before
            continue
        assert report.exceptions == ((1, breakdown),)
        assert report.sample_errors[1] == math.inf
        assert report.sample_errors[0] == before.sample_errors[0]
        assert report.sample_errors[2] == before.sample_errors[2]


def sweep_chambers():
    """The chamber entries of the sweep script's ``CONFIGS``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [entries for _, entries in sweep.CONFIGS]


@pytest.mark.parametrize("entries", sweep_chambers(), ids=lambda e: ",".join(map(str, e)))
def test_own_chart_stacks_pass_the_rank_check(entries):
    """``orbit_chart`` skips the rank check for the chamber's own stacks,
    which are independent modulo z(H) by construction; the check itself
    passes each of them at every sweep chamber."""
    chamber = SpecialLinearModel(len(entries)).chamber_element(entries)
    for stack in (chamber._chart_basis, chamber.n_basis, chamber.m_basis):
        assert chamber._owns(stack)
        orbit_module._check_directions(chamber, stack)


def bits(errors) -> bytes:
    return np.array(errors, dtype=float).tobytes()


@pytest.mark.parametrize("entries", sweep_chambers(), ids=lambda e: ",".join(map(str, e)))
def test_batch_size_changes_no_report(entries, monkeypatch):
    """Every suite checks the samples of a call as one stack, yet every
    sample's errors are its own: three samples equal the first three of
    six bit for bit, and the reports are identical at chunk sizes 1, 2
    and 64."""
    chamber = SpecialLinearModel(len(entries)).chamber_element(entries)
    for name in SUITE_NAMES:
        six = run_suite(chamber, name, samples=6, seed=13)
        three = run_suite(chamber, name, samples=3, seed=13)
        sampled = len(suites.SUITES[name][2])
        for first, full in zip(three[:sampled], six):
            assert bits(first.sample_errors) == bits(full.sample_errors[:3]), first.suite
            assert first.exceptions == tuple(e for e in full.exceptions if e[0] < 3)
        expected = json.dumps([r.as_dict() for r in six])
        for chunk in (1, 2, 64):
            monkeypatch.setattr(suites, "_CHUNK", chunk)
            reports = run_suite(chamber, name, samples=6, seed=13)
            assert json.dumps([r.as_dict() for r in reports]) == expected, (name, chunk)
            assert [r.exceptions for r in reports] == [r.exceptions for r in six]
        monkeypatch.undo()


def traced_peak(chamber, name, samples):
    """The suite's reports and its traced memory peak in bytes."""
    tracemalloc.start()
    try:
        reports = run_suite(chamber, name, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reports, peak


def test_theorem_memory_is_bounded():
    """Memory guard: a chunk's arrays grow with its samples.  16 samples at
    the n = 6 regular chamber peak at about 8.4 MB under tracemalloc, since
    invariance reads the chamber's Omega(H) rather than orbit forms at
    shifted points (8.9 MB with those reduced in blocks, about 27 MB with
    them stacked over the samples)."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    reports, peak = traced_peak(chamber, "theorem", 16)
    assert all(r.passed for r in reports)
    assert peak < 12e6


def test_one_sample_theorem_memory_is_bounded():
    """Memory guard: a one-sample ``theorem`` call at the n = 8 regular
    chamber forms no (dim, dim, n, n) generator stack (1.6 MB each).  It
    peaks at about 2.7 MB under tracemalloc, as with shifted generators
    formed one block at a time, against 9.1 MB with whole shift stacks."""
    chamber = SpecialLinearModel(8).chamber_element([3.5, 2.5, 1.5, 0.5, -0.5, -1.5, -2.5, -3.5])
    reports, peak = traced_peak(chamber, "theorem", 1)
    assert all(r.passed for r in reports)
    assert peak < 4e6


@pytest.mark.parametrize("svd", ["real", "stubbed"])
def test_nan_in_a_computed_orbit_form_fails_invariance(chamber3, monkeypatch, svd):
    """A NaN in sample 1's computed orbit form gives sample 1 an infinite
    invariance error, and samples 0 and 2 keep their values.  With the real
    SVD the NaN fails nondegeneracy's SVD first, so the sample raises
    ``LinAlgError`` on its own; with the SVD that ``_check_theorem`` calls
    stubbed out, the NaN reaches the invariance column, which counts it as
    infinite rather than NaN.
    Sample 1's point is recognised by its bits, taken from the first
    (whole-chunk) call, whatever the samples it is stacked with."""
    clean = run_suite(chamber3, "theorem", samples=3, seed=6)
    real = symplectic._bracket_pairing
    target = []

    def pairing(chamber, x, gens):
        entries = real(chamber, x, gens)
        if not target:
            target.append(np.array(x[1]))
        entries[(x == target[0]).all(axis=(-2, -1)), 0, 1] = NAN
        return entries

    monkeypatch.setattr(symplectic, "_bracket_pairing", pairing)
    if svd == "stubbed":
        monkeypatch.setattr(suites.np.linalg, "svd",
                            lambda a, compute_uv=True: np.ones(a.shape[:-1]))
    reports = {r.suite: r for r in run_suite(chamber3, "theorem", samples=3, seed=6)}
    report, before = reports["theorem-invariance"], clean[1]
    payload = report.as_dict()
    assert payload["samples_detail"][1]["error"] == "Infinity"
    assert payload["max_error"] == "Infinity" and not report.passed
    assert report.sample_errors[0] == before.sample_errors[0]
    assert report.sample_errors[2] == before.sample_errors[2]
    assert report.exceptions == (((1, "LinAlgError"),) if svd == "real" else ())


def test_half_killing_coefficient_fails_invariance(chamber3, monkeypatch):
    """Mutation check: an orbit form at half the Killing coefficient is
    still constant along every chart, so only the exact Omega(H) sees it in
    the invariance column; nondegeneracy still passes."""
    real = symplectic._bracket_pairing
    monkeypatch.setattr(symplectic, "_bracket_pairing", lambda *args: 0.5 * real(*args))
    reports = {r.suite: r for r in run_suite(chamber3, "theorem", samples=10, seed=3)}
    invariance = reports["theorem-invariance"]
    assert not invariance.passed
    assert invariance.max_error == pytest.approx(0.5, rel=1e-9)
    assert reports["theorem-nondegenerate"].passed


def mutated_dual(v_of, dexp=True):
    """A ``_tautological_dual`` that reads V = v_of(h, A N, (A N)^-1), with h
    the chamber's entries, in place of V = H - (A N)^-1 H A N."""
    def dual(chamber, an, an_inv, u):
        v = v_of(np.asarray(chamber.entries), an, an_inv)
        return orbit_module._dexp(-u, v) if dexp else v
    return dual


# The mutations of the standard form's dual, each with its readings at
# (1, 0, -1) and at the n = 6 regular chamber (10 samples, seed 3).
DUAL_MUTATIONS = {
    "sign-flipped": (mutated_dual(lambda h, an, an_inv: np.triu((an_inv * h) @ an, 1)),
                     {"theorem-match": (2.0, 2.0)}),
    "scaled-on-the-wrong-side": (
        mutated_dual(lambda h, an, an_inv: -np.triu((h[:, None] * an_inv) @ an, 1)),
        {"theorem-match": (1.0, 1.0)}),
    "conjugated-the-wrong-way": (
        mutated_dual(lambda h, an, an_inv: -np.triu((an * h) @ an_inv, 1)),
        {"theorem-match": (2.0, 2.0), "lagrangian-horizontal-std": (0.04162, 0.08729)}),
    "without-dexp": (
        mutated_dual(lambda h, an, an_inv: -np.triu((an_inv * h) @ an, 1), dexp=False),
        {"theorem-match": (1.0, 0.9488), "lagrangian-horizontal-std": (0.1200, 0.1354)}),
}


@pytest.mark.parametrize("mutation", DUAL_MUTATIONS)
def test_wrong_duals_fail_the_standard_form(monkeypatch, mutation):
    """Mutation checks of V = H - (A N)^-1 H A N in the standard form: its
    sign flipped, H applied on the wrong side (which makes V = 0), R H R^-1
    in place of R^-1 H R, and V without dexp.  Each fails ``theorem-match``,
    and two fail ``lagrangian-horizontal-std``, at the readings listed.
    ``lagrangian-vertical-std`` reads exactly 0 under all four: on n(H)
    every V stays strictly upper triangular, and it pairs to zero with
    strictly upper directions (a blind spot of that column)."""
    dual, expected = DUAL_MUTATIONS[mutation]
    monkeypatch.setattr(symplectic, "_tautological_dual", dual)
    for c, entries in enumerate(([1, 0, -1], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5])):
        chamber = SpecialLinearModel(len(entries)).chamber_element(entries)
        reports = {r.suite: r for name in ("theorem", "lagrangian-horizontal",
                                           "lagrangian-vertical")
                   for r in run_suite(chamber, name, samples=10, seed=3)}
        for name, readings in expected.items():
            assert reports[name].max_error == pytest.approx(readings[c], rel=1e-3)
            assert not reports[name].passed
        assert reports["lagrangian-vertical-std"].max_error == 0.0


def test_symmetric_pairing_fails_nondegeneracy(chamber3, monkeypatch):
    """Mutation check: the symmetric pairing 2n (M + M^T) makes each
    computed form's own smallest singular value tiny or zero, so the
    per-sample SVD fails every sample, not only sample 0, at which the form
    is exactly singular and the sample raises.  A nondegeneracy of the
    chamber's Omega(H) alone would pass this mutation."""
    def symmetric(chamber, x, gens):
        m = np.einsum("...ab,...ibc,...jca->...ij", x, gens, gens)
        return chamber.model.killing_coefficient * (m + np.swapaxes(m, -1, -2))

    monkeypatch.setattr(symplectic, "_bracket_pairing", symmetric)
    reports = {r.suite: r for r in run_suite(chamber3, "theorem", samples=10, seed=3)}
    nondegenerate = reports["theorem-nondegenerate"]
    assert nondegenerate.as_dict()["max_error"] == "Infinity" and not nondegenerate.passed
    assert nondegenerate.exceptions == ((0, "FloatingPointError"),)
    assert all(e > nondegenerate.tolerance for e in nondegenerate.sample_errors)


def test_unknown_suite_rejected(chamber2):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(chamber2, "spectral", samples=2, seed=1)


def test_lagrangian_rejects_unknown_mode(chamber2):
    """Only the vertical and horizontal Lagrangian suites exist."""
    with pytest.raises(ValueError, match="unknown suite 'lagrangian-diagonal'"):
        run_suite(chamber2, "lagrangian-diagonal", samples=2, seed=1)


# Every suite with its default options, then again with every other
# option set, so that the samples check cannot hinge on them.
_OPTIONS = dict(fd_step=1e-4, tol_exact=1.0, tol_fd=1.0)
ENTRY_POINTS = [
    *[lambda chamber, name=name, **o: run_suite(chamber, name, **o) for name in SUITE_NAMES],
    *[pytest.param(lambda chamber, name=name, **o: run_suite(chamber, name, **_OPTIONS, **o),
                   id=f"verify_{name}")
      for name in ("iwasawa", "infinitesimal", "projection", "graph", "theorem")],
    *[lambda chamber, name=name, **o: run_suite(chamber, name, **_OPTIONS, **o)
      for name in ("lagrangian-vertical", "lagrangian-horizontal")],
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("samples", [0, -4])
def test_nonpositive_samples_rejected(chamber2, entry, samples):
    """A report of no samples would pass without checking anything."""
    with pytest.raises(ValueError, match="samples must be positive"):
        entry(chamber2, samples=samples, seed=1)


@pytest.mark.parametrize("entries", [[0, 0], [1, 0, -1], [1, 1, -2]])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_checks_return_one_error_table(entries, name):
    """Every check returns a float table with one row per sample and one
    column per sampled report, so that a missing or extra column cannot
    pass unnoticed; samples 0 and 1 are special cases in some checks."""
    chamber = SpecialLinearModel(len(entries)).chamber_element(entries)
    key, check, columns, _ = suites.SUITES[name]
    for indices in ([0, 1, 2, 3], [2]):
        table = suites._sample_rows(check, chamber, 5, key, indices, suites.DEFAULT_FD_STEP)
        assert isinstance(table, np.ndarray) and table.dtype == np.float64, name
        assert table.shape == (len(indices), len(columns)), name


def test_projection_reports_cover_every_check(chamber3):
    suites = [r.suite for r in run_suite(chamber3, "projection", samples=3, seed=4)]
    assert suites == [
        "projection-welldef",
        "projection-displacement",
        "projection-roundtrip",
        "projection-linearity",
        "projection-pairing",
    ]


# The per-sample draws as written before the samplers were stacked: one
# uniform call, trace removal and einsum per draw.
def reference_algebra(rng, n, scale):
    m = rng.uniform(-scale, scale, (n, n))
    m -= np.trace(m) / n * np.eye(n)
    return m


def reference_rotation_log(rng, n, scale):
    m = reference_algebra(rng, n, scale)
    return (m - m.T) / 2.0


def reference_combination(basis, rng, scale, n):
    if not len(basis):
        return np.zeros((n, n))
    coeffs = rng.uniform(-scale, scale, len(basis))
    return np.einsum("i,ijk->jk", coeffs, np.asarray(basis))


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize("entries", sweep_chambers(), ids=lambda e: ",".join(map(str, e)))
@pytest.mark.parametrize("chunk", [1, 6])
def test_stacked_samplers_are_per_sample_draws_bit_for_bit(entries, chunk):
    """Each stacked draw equals, for every generator of a chunk, the
    per-sample reference from the same generator, signed zeros included,
    and leaves every generator where the reference leaves it.  The sweep
    chambers include n(H) = 0 (H = 0,0), whose fibers draw nothing, and
    regular chambers, where z_K(H) = 0."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    n = model.n
    bases = {**{k: getattr(model, k) for k in ("k_basis", "a_basis", "n_basis")},
             **{f"chamber.{k}": getattr(chamber, k)
                for k in ("n_basis", "theta_n_basis", "z_basis", "zk_basis", "m_basis")}}
    draws = [
        (lambda rngs: model._algebra_elements(rngs, 0.7, 3),
         lambda rng: [reference_algebra(rng, n, 0.7) for _ in range(3)]),
        (lambda rngs: model._rotation_logs(rngs, 1.5 / n),
         lambda rng: [reference_rotation_log(rng, n, 1.5 / n)]),
        *[(lambda rngs, name=name: _combinations(bases[name], rngs, 0.8, count=2),
           lambda rng, name=name: [reference_combination(bases[name], rng, 0.8, n)
                                   for _ in range(2)])
          for name in bases],
    ]
    for seed in range(5):
        for stacked, single in draws:
            rngs = [np.random.default_rng([seed, i]) for i in range(chunk)]
            refs = [np.random.default_rng([seed, i]) for i in range(chunk)]
            assert_same_bits(stacked(rngs), np.array([single(rng) for rng in refs]))
            assert [rng.random() for rng in rngs] == [rng.random() for rng in refs]


@pytest.mark.parametrize("entries", [[0, 0], [1, 0, -1], [1, 1, -2], [1, 1, -1, -1],
                                     [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]])
def test_public_samplers_keep_their_draws(entries):
    """The single-sample samplers, each one call of a stacked draw, return
    the per-sample reference's draws for fixed seeds."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    n = model.n
    for seed in (0, 7, 123):
        assert_same_bits(model.random_algebra_element(seed, 0.7),
                         reference_algebra(np.random.default_rng(seed), n, 0.7))
        assert_same_bits(model.random_orthogonal(seed, 0.5),
                         mat_exp(reference_rotation_log(np.random.default_rng(seed), n, 0.5)))
        rng = np.random.default_rng(seed)
        expected = np.eye(n)
        for log in [reference_algebra(rng, n, 0.4) for _ in range(3)]:
            expected = expected @ mat_exp(log)
        assert_same_bits(model.random_group_element(seed, 0.4), expected)
        samplers = [
            (lambda rng: random_combination(model.a_basis, rng, 0.5), model.a_basis, 0.5),
            (lambda rng: random_combination(chamber.z_basis, rng, 1.0), chamber.z_basis, 1.0),
            (lambda rng: chamber.random_fiber(rng, 0.8), chamber.n_basis, 0.8),
            (lambda rng: chamber.random_centralizer(rng, 0.4), chamber.z_basis, 0.4),
            (lambda rng: chamber.random_compact_centralizer(rng, 0.6), chamber.zk_basis, 0.6),
        ]
        for sample, basis, scale in samplers:
            assert_same_bits(sample(np.random.default_rng(seed)),
                             reference_combination(basis, np.random.default_rng(seed), scale, n))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, -1, 2**64 + 5])
def test_sample_generators_are_seeded_from_the_int_list(seed):
    """``_rngs`` builds one uint32 word array per chunk; each generator's
    stream equals that of ``default_rng([seed % 2**63, index, key])``."""
    indices = [0, 1, 63, 2**31]
    for key in (0, 6):
        for index, rng in zip(indices, suites._rngs(seed, indices, key), strict=True):
            reference = np.random.default_rng([seed % 2**63, index, key])
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.random(5), reference.random(5))


def test_trace_removals_per_call_do_not_grow_with_samples(monkeypatch):
    """Structural guard: a factor-suite call removes traces once per
    stacked draw of traceless matrices (the witnesses' logs and the
    rotation logs, or x), not once per sample, so calls of 3 and 7
    samples make the same number of ``_traceless`` calls."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    calls = []
    real = SpecialLinearModel._traceless

    def traceless(self, m):
        calls.append(m.shape[0])
        return real(self, m)

    monkeypatch.setattr(SpecialLinearModel, "_traceless", traceless)
    for name in ("iwasawa", "infinitesimal", "projection", "graph"):
        counts = []
        for samples in (3, 7):
            calls.clear()
            assert all(r.passed for r in run_suite(chamber, name, samples=samples))
            counts.append(len(calls))
        assert counts == [2, 2], name


def test_error_reductions_per_call_do_not_grow_with_samples(monkeypatch):
    """Structural guard: each check reduces its merged columns in stacked
    ``_worst`` calls over all samples of a chunk, and ``_report`` makes one
    per report, so calls of 3 and 30 samples make the same number of
    ``_worst`` calls."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    calls = []
    real = suites._worst

    def worst(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, "_worst", worst)
    for name in ("iwasawa", "infinitesimal", "projection", "graph",
                 "lagrangian-vertical", "lagrangian-horizontal"):
        counts = []
        for samples in (3, 30):
            calls.clear()
            assert all(r.passed for r in run_suite(chamber, name, samples=samples))
            counts.append(len(calls))
        assert counts[0] == counts[1], name


def test_graph_and_lagrangian_horizontal_share_one_exponential_stack(monkeypatch):
    """Both suites read the stencil exponentials of m(H) from the chamber:
    one read-only stack, computed once for all their calls and equal bit
    for bit to a fresh ``mat_exp`` of the same displacements."""
    chamber = SpecialLinearModel(4).chamber_element([1.5, 0.5, -0.5, -1.5])
    real = ChamberElement._shift_exps
    read = []

    def shift_exps(self, directions, offsets):
        exps = real(self, directions, offsets)
        read.append((directions, exps))
        return exps

    monkeypatch.setattr(ChamberElement, "_shift_exps", shift_exps)
    exp_calls = []
    monkeypatch.setattr(model_module, "mat_exp", lambda x: exp_calls.append(x.shape) or mat_exp(x))
    for name in ("lagrangian-horizontal", "graph", "lagrangian-horizontal", "graph"):
        assert all(r.passed for r in run_suite(chamber, name, samples=3, seed=1))
    assert [directions is chamber.m_basis for directions, _ in read] == [True] * 4
    assert all(exps is read[0][1] for _, exps in read)
    assert not read[0][1].flags.writeable
    assert exp_calls == [(4, chamber.dim_m, 4, 4)]
    offsets = np.multiply(STENCIL_OFFSETS, suites.DEFAULT_FD_STEP)
    fresh = mat_exp(np.multiply.outer(offsets, chamber.m_basis))
    assert read[0][1].tobytes() == fresh.tobytes()
