import importlib
import json
import math

import numpy as np
import pytest

from orbitsym import SUITE_NAMES, SpecialLinearModel, run_suite
from orbitsym import orbit as orbit_module
from orbitsym import suites, symplectic
from orbitsym.orbit import OrbitChart
from orbitsym.suites import (
    _report,
    _worst,
    verify_graph,
    verify_infinitesimal,
    verify_iwasawa,
    verify_lagrangian,
    verify_projection,
    verify_theorem,
)


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
    first = [r.as_dict() for r in verify_theorem(chamber2, samples=5, seed=9)]
    second = [r.as_dict() for r in verify_theorem(chamber2, samples=5, seed=9)]
    assert json.dumps(first) == json.dumps(second)


def test_graph_reports_are_deterministic(chamber3):
    first = [r.as_dict() for r in verify_graph(chamber3, samples=6, seed=5)]
    repeat = [r.as_dict() for r in verify_graph(chamber3, samples=6, seed=5)]
    assert json.dumps(first) == json.dumps(repeat)


def test_report_shape(chamber3):
    reports = verify_infinitesimal(chamber3, samples=4, seed=2)
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
    loose = verify_iwasawa(chamber2, samples=3, seed=1, tol_exact=1.0)
    assert loose[0].tolerance == 1.0
    strict = verify_lagrangian(chamber3, "horizontal", samples=3, seed=1, tol_fd=1e-30)
    assert any(not r.passed for r in strict if r.suite.endswith("-std"))


def test_lagrangian_rejects_unknown_mode(chamber2):
    with pytest.raises(ValueError, match="mode"):
        verify_lagrangian(chamber2, "diagonal", samples=2, seed=1)


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
        a_val[1] = NAN
        return a_val, b_val, c_val

    monkeypatch.setattr(suites, "graph_routes", routes)
    exact, fd = verify_graph(chamber3, samples=1, seed=1)
    assert exact.max_error == math.inf and not exact.passed
    assert fd.max_error == math.inf and not fd.passed


def test_nan_derivative_route_fails_only_the_fd_report(chamber3, monkeypatch):
    """graph-exact compares the form and pairing routes alone, so a NaN
    from the potential's stencil fails graph-fd and leaves graph-exact,
    scales included, as it was."""
    clean_exact, _ = verify_graph(chamber3, samples=2, seed=1)
    real = suites.graph_routes

    def routes(*args):
        a_val, b_val, c_val = real(*args)
        c_val = c_val.copy()
        c_val[1] = NAN
        return a_val, b_val, c_val

    monkeypatch.setattr(suites, "graph_routes", routes)
    exact, fd = verify_graph(chamber3, samples=2, seed=1)
    assert exact == clean_exact
    assert fd.sample_errors == (math.inf, math.inf) and not fd.passed


def test_type_error_inside_a_sample_propagates(chamber3, monkeypatch):
    """Only numerical breakdown is recorded as a failed sample; a
    TypeError is a bug and must surface."""
    def routes(*args):
        raise TypeError("bad argument")

    monkeypatch.setattr(suites, "graph_routes", routes)
    with pytest.raises(TypeError, match="bad argument"):
        verify_graph(chamber3, samples=2, seed=1)


def test_graph_factors_once_per_sample(monkeypatch):
    """Call-count guard: one stacked ``graph_routes`` call per sample
    covers all 15 m(H) directions at n = 6, with one orbit point, one
    cotangent representative and two factorizations (g k, and the
    representative's own) between them."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    calls = dict.fromkeys(("graph_routes", "orbit_point", "to_cotangent", "iwasawa"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the package re-exports the function iwasawa under its module's name
    iwasawa_module = importlib.import_module("orbitsym.iwasawa")
    for module in (suites, symplectic, orbit_module, iwasawa_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    reports = run_suite(chamber, "graph", samples=2)
    assert all(r.passed for r in reports)
    assert calls == {"graph_routes": 2, "orbit_point": 2, "to_cotangent": 2, "iwasawa": 4}


@pytest.mark.parametrize("entries", [
    [1, 0, -1],
    [2.5, 1.5, 0.5, -0.5, -1.5, -2.5],
], ids=["chamber3", "n6-regular"])
def test_theorem_builds_its_stencil_once_per_sample(entries, monkeypatch):
    """Call-count guard: a ``theorem`` sample builds and checks its chart
    points in one stacked pass of shape (4, dim, n, n), which the standard
    form's stencil and the invariance shifts share; the sample's own
    orbit point is the only other pass."""
    n = len(entries)
    chamber = SpecialLinearModel(n).chamber_element(entries)
    real = orbit_module._orbit_points
    shapes = []

    def orbit_points(chamber, witnesses):
        shapes.append(np.shape(witnesses))
        return real(chamber, witnesses)

    monkeypatch.setattr(orbit_module, "_orbit_points", orbit_points)
    reports = run_suite(chamber, "theorem", samples=2)
    assert all(r.passed for r in reports)
    assert shapes == [(n, n), (4, 2 * chamber.dim_n, n, n)] * 2


def test_projection_factors_once_per_sample(monkeypatch):
    """Call-count guard: a ``projection`` sample at n = 6 factors g and
    g z in one stacked pass and the two returning witnesses in another,
    runs its three round trips through one stacked witness iteration, and
    makes no single-point bundle call or Killing pairing.  Its slice
    checks are three stacked ``_cotangent`` calls: x's representative,
    the three over k0, and the two returns."""
    chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    single = ("iwasawa", "to_cotangent", "from_cotangent", "cotangent_rep", "orbit_point",
              "flag_point")
    calls = dict.fromkeys((*single, "_iwasawa_stack", "_from_cotangent", "_cotangent", "killing"),
                          0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    iwasawa_module = importlib.import_module("orbitsym.iwasawa")
    for module in (suites, symplectic, orbit_module, iwasawa_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(SpecialLinearModel, "killing",
                        counted("killing", SpecialLinearModel.killing))
    reports = run_suite(chamber, "projection", samples=2)
    assert all(r.passed for r in reports)
    assert calls == {**dict.fromkeys(single, 0), "_iwasawa_stack": 4, "_from_cotangent": 2,
                     "_cotangent": 6, "killing": 0}


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
    real = OrbitChart.frame_generators
    calls = []

    def frame_generators(self, t):
        calls.append(1)
        return real(self, t)

    monkeypatch.setattr(OrbitChart, "frame_generators", frame_generators)
    reports = verify_lagrangian(chamber3, mode, samples=3, seed=2)
    assert all(r.passed for r in reports)
    assert len(calls) == 3


AT = (3, 1)  # stencil offset +2h along axis 1


def scale_witness(real, u):
    out = real(u)
    out[AT] *= 2.0  # determinant 2^n, which orbit_point rejects
    return out


def drop_column(real, g):
    g = np.array(g)
    g[AT][:, 1] = 0.0  # a dependent column for the factorization
    return real(g)


@pytest.mark.parametrize("module, name, corrupt, exception", [
    ("orbitsym.orbit", "_mat_exp_stack", scale_witness, "ValueError"),
    ("orbitsym.iwasawa", "_qr_positive_stack", drop_column, "SingularInput"),
])
def test_breakdown_at_one_stencil_point_fails_only_its_sample(
        chamber3, monkeypatch, module, name, corrupt, exception):
    """A breakdown at one of the 4 dim stencil points of sample 1's
    cotangent form fails that sample, under the exception name a
    per-point evaluation raises, and leaves samples 0 and 2 passing."""
    owner = importlib.import_module(module)
    real = getattr(owner, name)
    stencils = []

    def kernel(stack):
        if np.shape(stack)[0] == 4:  # the stencil, not the two invariance offsets
            stencils.append(1)
            if len(stencils) == 2:
                return corrupt(real, stack)
        return real(stack)

    monkeypatch.setattr(owner, name, kernel)
    reports = verify_theorem(chamber3, samples=3, seed=7)
    assert len(stencils) == 3
    for report in reports:
        assert report.exceptions == ((1, exception),)
        assert report.sample_errors[1] == math.inf
        assert max(report.sample_errors[0], report.sample_errors[2]) <= report.tolerance


def test_unknown_suite_rejected(chamber2):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(chamber2, "spectral", samples=2, seed=1)


def test_projection_reports_cover_every_check(chamber3):
    suites = [r.suite for r in verify_projection(chamber3, samples=3, seed=4)]
    assert suites == [
        "projection-welldef",
        "projection-displacement",
        "projection-roundtrip",
        "projection-linearity",
        "projection-pairing",
    ]
