"""Seeded verification suites over sampled orbit data.

A suite is a per-sample check ``(chamber, rng, index, fd_step) -> tuple
of errors`` and a row of the ``SUITES`` table: the key that seeds each
sample's generator along with the run's seed and the sample index, and
one ``(report name, tolerance class, default)`` column per error.
"exact" columns run at rounding-level tolerances and "fd" columns
(numerical derivatives) at a looser one; ``tol_exact`` and ``tol_fd``
override every column of their class, and "fixed" columns never change.
``run_suite`` is the one sample loop.  Its reports satisfy
``passed == (max_error <= tolerance)``, and a non-finite error counts as
infinite, so NaN never passes.  A sample whose check raises
``ValueError`` or ``ArithmeticError`` (the named orbitsym errors,
``LinAlgError``, ``OverflowError``) gets an infinite error in every
column and records the exception's class name; others propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .iwasawa import fd_iwasawa_velocities, infinitesimal_iwasawa, iwasawa
from .model import ChamberElement, random_combination
from .numerics import mat_exp
from .orbit import (
    _fiber_coefficients,
    cotangent_rep,
    from_cotangent,
    orbit_chart,
    orbit_point,
    project_ruling,
    to_cotangent,
)
from .symplectic import _axis, _bracket_pairing, graph_routes, omega_kks_chart, omega_std_chart

DEFAULT_SAMPLES = 50
DEFAULT_SEED = 42
DEFAULT_FD_STEP = 1e-3

TOL_RECONSTRUCTION = 1e-12
TOL_EXACT = 1e-9
TOL_DISPLACEMENT = 1e-10
TOL_PAIR_ZERO = 1e-10
TOL_INVARIANCE = 1e-9
TOL_FD_DERIV = 1e-6
TOL_FD_FORM = 1e-5
SMIN_THRESHOLD = 1e-8


def _json_number(value: float):
    """``value`` itself when finite; JSON has no non-finite numbers, so
    those become the strings "NaN", "Infinity" and "-Infinity"."""
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    n: int
    chamber_entries: tuple[float, ...]
    samples: int
    seed: int
    fd_step: float
    sample_errors: tuple[float, ...]
    max_error: float
    tolerance: float
    passed: bool
    # (sample index, exception class name) for each sample whose check raised
    exceptions: tuple[tuple[int, str], ...] = ()

    def as_dict(self) -> dict:
        detail = [{"index": i, "error": _json_number(e)} for i, e in enumerate(self.sample_errors)]
        for i, name in self.exceptions:
            detail[i]["exception"] = name
        return {
            "suite": self.suite,
            "n": self.n,
            "H": list(self.chamber_entries),
            "samples": self.samples,
            "seed": self.seed,
            "fd_step": self.fd_step,
            "max_error": _json_number(self.max_error),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "samples_detail": detail,
        }


def _worst(errors) -> float:
    """Largest error, counting any non-finite value as infinite so that
    NaN can never pass a tolerance check."""
    return max((e if math.isfinite(e) else math.inf for e in map(float, errors)), default=0.0)


def _report(suite, chamber, seed, fd_step, errors, tolerance, exceptions=()) -> VerificationReport:
    errs = tuple(float(e) for e in errors)
    worst = _worst(errs)
    return VerificationReport(
        suite=suite,
        n=chamber.model.n,
        chamber_entries=chamber.entries,
        samples=len(errs),
        seed=seed,
        fd_step=fd_step,
        sample_errors=errs,
        max_error=worst,
        tolerance=float(tolerance),
        passed=worst <= tolerance,
        exceptions=tuple(exceptions),
    )


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *key])


def _sample_group(model, rng, strength: float = 1.2, factors: int = 3) -> np.ndarray:
    return model.random_group_element(rng, strength / model.n, factors=factors)


def _rel(err: float, scale: float) -> float:
    return float(err) / max(1.0, scale)


def _check_iwasawa(chamber, rng, index, fd_step):
    """Factorization shape, reconstruction, and exact recovery of
    hand-assembled k a n products."""
    model = chamber.model
    n = model.n
    g = _sample_group(model, rng)
    fac = iwasawa(g)
    errs = [
        _rel(np.linalg.norm(g - fac.reconstruct()), np.linalg.norm(g)),
        float(np.linalg.norm(fac.k_factor.T @ fac.k_factor - np.eye(n))),
        float(np.linalg.norm(fac.a_factor - np.diag(np.diag(fac.a_factor)))),
        float(np.linalg.norm(np.tril(fac.n_factor, -1)))
        + float(np.linalg.norm(np.diag(fac.n_factor) - 1.0)),
        float(abs(np.trace(fac.h_projection))),
    ]
    if np.min(np.diag(fac.a_factor)) <= 0:
        errs.append(float("inf"))
    k0 = model.random_orthogonal(rng, 1.5 / n)
    a0 = mat_exp(random_combination(model.a_basis, rng, 0.5))
    n0 = mat_exp(random_combination(model.n_basis, rng, 0.5))
    fac2 = iwasawa(k0 @ a0 @ n0)
    scale = max(1.0, float(np.linalg.norm(a0) * np.linalg.norm(n0)))
    errs.append(_rel(np.linalg.norm(fac2.k_factor - k0), scale))
    errs.append(_rel(np.linalg.norm(fac2.a_factor - a0), scale))
    errs.append(_rel(np.linalg.norm(fac2.n_factor - n0), scale))
    return (_worst(errs),)


def _check_infinitesimal(chamber, rng, index, fd_step):
    """Closed-form factor velocities: reconstruction identity and
    witness independence exactly, central-difference match loosely."""
    model = chamber.model
    x = model.random_algebra_element(rng, 1.5 / model.n)
    g = _sample_group(model, rng)
    fac = iwasawa(g)
    inf = infinitesimal_iwasawa(x, g, factors=fac)
    an = fac.an_factor()
    an_inv = np.linalg.inv(an)
    y = an @ x @ an_inv
    recon = inf.k_deriv + inf.a_deriv + an @ inf.n_deriv @ an_inv
    e_recon = _rel(np.linalg.norm(y - recon), np.linalg.norm(y))
    inf2 = infinitesimal_iwasawa(x, an)
    scale_w = max(1.0, float(np.linalg.norm(x) * np.linalg.norm(an)))
    e_witness = _worst([
        _rel(np.linalg.norm(inf.k_deriv - inf2.k_deriv), scale_w),
        _rel(np.linalg.norm(inf.a_deriv - inf2.a_deriv), scale_w),
        _rel(np.linalg.norm(inf.n_deriv - inf2.n_deriv), scale_w),
    ])
    k_fd, a_fd, n_fd = fd_iwasawa_velocities(x, g, fd_step)
    scale_fd = max(1.0, float(np.linalg.norm(x) * np.linalg.norm(g)))
    e_fd = _worst([
        _rel(np.linalg.norm(inf.k_deriv - k_fd), scale_fd),
        _rel(np.linalg.norm(inf.a_deriv - a_fd), scale_fd),
        _rel(np.linalg.norm(inf.n_deriv - n_fd), scale_fd),
    ])
    return _worst([e_recon, e_witness]), e_fd


def _check_projection(chamber, rng, index, fd_step):
    """Ruling projection and bundle identification: witness
    independence, fiber membership, round trips and fiber linearity."""
    model = chamber.model
    g = _sample_group(model, rng)
    x = orbit_point(chamber, g)
    fac = iwasawa(g)
    base = project_ruling(x, factors=fac)
    scale = max(1.0, float(np.linalg.norm(x.point)))

    z = mat_exp(chamber.random_centralizer(rng, 0.4)) @ mat_exp(
        chamber.random_compact_centralizer(rng, 0.6)
    )
    x2 = orbit_point(chamber, g @ z)
    e_welldef = _rel(np.linalg.norm(project_ruling(x2).point - base.point), scale)

    w = fac.k_factor.T @ (x.point - base.point) @ fac.k_factor
    e_disp = _rel(_fiber_coefficients(chamber, w)[1], np.linalg.norm(w))

    rep = to_cotangent(x)
    e_round = _rel(np.linalg.norm(from_cotangent(rep).point - x.point), scale)

    k0 = model.random_orthogonal(rng, 1.5 / model.n)
    w1 = chamber.random_fiber(rng, 0.8)
    w2 = chamber.random_fiber(rng, 0.8)
    v1 = k0 @ w1 @ k0.T
    v2 = k0 @ w2 @ k0.T
    rep1 = cotangent_rep(chamber, k0, v1)
    rep3 = to_cotangent(from_cotangent(rep1))
    scale_f = max(1.0, float(np.linalg.norm(v1)))
    e_round = _worst([
        e_round,
        _rel(np.linalg.norm(rep3.base - rep1.base), scale_f),
        _rel(np.linalg.norm(rep3.fiber - rep1.fiber), scale_f),
        _rel(np.max(np.abs(np.subtract(rep3.coords, rep1.coords)), initial=0.0), scale_f),
    ])

    rep2 = cotangent_rep(chamber, k0, v2)
    rep12 = to_cotangent(from_cotangent(cotangent_rep(chamber, k0, v1 + v2)))
    summed = np.add(rep1.coords, rep2.coords)
    scale_l = max(1.0, float(np.max(np.abs(summed), initial=0.0)))
    e_linear = _worst([
        _rel(np.linalg.norm(rep12.base - rep1.base), scale_f),
        _rel(np.max(np.abs(np.subtract(rep12.coords, summed)), initial=0.0), scale_l),
    ])
    return e_welldef, e_disp, e_round, e_linear


def _pairing_ratio(chamber) -> float:
    """Nondegeneracy of the Killing pairing n(H) x m(H): SMIN_THRESHOLD
    over its smallest singular value (0 when n(H) = 0)."""
    if not chamber.dim_n:
        return 0.0
    model = chamber.model
    pairing = np.array(
        [[model.killing(u, e) for e in chamber.m_basis] for u in chamber.n_basis]
    )
    smin = float(np.linalg.svd(pairing, compute_uv=False)[-1])
    return SMIN_THRESHOLD / smin


def _check_lagrangian(basis: str):
    """Isotropy, for both symplectic forms, of the chart spanned by
    ``chamber.<basis>``: the ruling fibers (``n_basis``) or displaced
    flag tangents (``m_basis``)."""

    def check(chamber, rng, index, fd_step):
        model = chamber.model
        g = _sample_group(model, rng)
        chart = orbit_chart(orbit_point(chamber, g), directions=getattr(chamber, basis))
        x, gens = chart.frame_generators(np.zeros(chart.dim))
        zmax = max((float(np.linalg.norm(z)) for z in gens), default=0.0)
        scale = max(1.0, model.killing_coefficient * float(np.linalg.norm(x.point)) * zmax**2)
        e_kks = _rel(np.max(np.abs(_bracket_pairing(x, gens)), initial=0.0), scale)
        e_std = 0.0
        if chart.dim >= 2:
            e_std = _rel(np.max(np.abs(omega_std_chart(chart, fd_step).entries)), scale)
        return e_kks, e_std

    return check


def _check_graph(chamber, rng, index, fd_step):
    """The displaced flag section is the graph of minus the potential's
    differential: section one-form, cotangent covector, and central
    difference of the potential agree pairwise.

    Sample 0 uses the identity and sample 1 a diagonal group element;
    later samples draw generic witnesses.
    """
    model = chamber.model
    n = model.n
    if index == 0:
        g = np.eye(n)
    elif index == 1:
        g = mat_exp(random_combination(model.a_basis, rng, 0.6))
    else:
        g = _sample_group(model, rng)
    k = model.random_orthogonal(rng, 1.5 / n)
    e_exact = []
    e_fd = []
    for direction in chamber.m_basis:
        a_val, b_val, c_val = graph_routes(chamber, g, k, direction, fd_step)
        scale = max(1.0, abs(a_val), abs(b_val), abs(c_val))
        e_exact.append(_rel(abs(a_val - b_val), scale))
        e_fd += [_rel(abs(a_val - c_val), scale), _rel(abs(b_val - c_val), scale)]
    return _worst(e_exact), _worst(e_fd)


def _check_theorem(chamber, rng, index, fd_step):
    """Entrywise equality of the two forms in the default chart, plus
    invariance and nondegeneracy of the orbit form.

    Sample 0 sits at the identity witness and sample 1 far from it.
    """
    model = chamber.model
    if index == 0:
        g = np.eye(model.n)
    elif index == 1:
        g = _sample_group(model, rng, strength=2.0)
    else:
        g = _sample_group(model, rng)
    x = orbit_point(chamber, g)
    chart = orbit_chart(x)
    if chart.dim == 0:
        return 0.0, 0.0, 0.0
    kks_form = omega_kks_chart(chart)
    std_form = omega_std_chart(chart, fd_step)
    scale = max(
        1.0,
        float(np.max(np.abs(kks_form.entries))),
        float(np.max(np.abs(std_form.entries))),
    )
    e_match = _rel(np.max(np.abs(std_form.entries - kks_form.entries)), scale)
    e_inv = []
    for i in range(chart.dim):
        for s in (fd_step, -fd_step):
            shifted = omega_kks_chart(chart, _axis(chart.dim, i, s))
            e_inv.append(_rel(np.max(np.abs(shifted.entries - kks_form.entries)), scale))
    smin = kks_form.smallest_singular_value()
    ratio = 0.0 if np.isinf(smin) else SMIN_THRESHOLD / smin
    return e_match, _worst(e_inv), ratio


# name -> (rng key, per-sample check, sampled columns (report, tolerance
# class, default), chamber-level columns (report, chamber -> error, fixed
# tolerance) reported after the sampled ones)
SUITES = {
    "iwasawa": (0, _check_iwasawa, (("iwasawa", "exact", TOL_RECONSTRUCTION),), ()),
    "infinitesimal": (1, _check_infinitesimal, (
        ("infinitesimal-exact", "exact", TOL_RECONSTRUCTION),
        ("infinitesimal-fd", "fd", TOL_FD_DERIV),
    ), ()),
    "projection": (2, _check_projection, (
        ("projection-welldef", "exact", TOL_EXACT),
        ("projection-displacement", "exact", TOL_DISPLACEMENT),
        ("projection-roundtrip", "exact", TOL_EXACT),
        ("projection-linearity", "exact", TOL_DISPLACEMENT),
    ), (("projection-pairing", _pairing_ratio, 1.0),)),
    "lagrangian-vertical": (3, _check_lagrangian("n_basis"), (
        ("lagrangian-vertical-kks", "exact", TOL_PAIR_ZERO),
        ("lagrangian-vertical-std", "fd", TOL_FD_FORM),
    ), ()),
    "lagrangian-horizontal": (4, _check_lagrangian("m_basis"), (
        ("lagrangian-horizontal-kks", "exact", TOL_PAIR_ZERO),
        ("lagrangian-horizontal-std", "fd", TOL_FD_FORM),
    ), ()),
    "graph": (5, _check_graph, (
        ("graph-exact", "exact", TOL_EXACT),
        ("graph-fd", "fd", TOL_FD_FORM),
    ), ()),
    "theorem": (6, _check_theorem, (
        ("theorem-match", "fd", TOL_FD_FORM),
        ("theorem-invariance", "exact", TOL_INVARIANCE),
        ("theorem-nondegenerate", "fixed", 1.0),
    ), ()),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(chamber: ChamberElement, name: str, *, samples=DEFAULT_SAMPLES,
              seed=DEFAULT_SEED, fd_step=DEFAULT_FD_STEP, tol_exact=None,
              tol_fd=None) -> list[VerificationReport]:
    """Run one named suite and return its reports, one per column."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    key, check, columns, chamber_columns = SUITES[name]
    rows, raised = [], []
    for index in range(samples):
        try:
            rows.append(check(chamber, _rng(seed, index, key), index, fd_step))
        except (ValueError, ArithmeticError) as exc:
            rows.append((math.inf,) * len(columns))
            raised.append((index, type(exc).__name__))
    override = {"exact": tol_exact, "fd": tol_fd, "fixed": None}
    reports = [
        _report(report, chamber, seed, fd_step, [r[i] for r in rows],
                default if override[tol_class] is None else override[tol_class], raised)
        for i, (report, tol_class, default) in enumerate(columns)
    ]
    return reports + [
        _report(report, chamber, seed, fd_step, [error(chamber)], tol)
        for report, error, tol in chamber_columns
    ]


# Public entry points, one per suite; keywords as for run_suite.
def verify_iwasawa(chamber, **options):
    return run_suite(chamber, "iwasawa", **options)


def verify_infinitesimal(chamber, **options):
    return run_suite(chamber, "infinitesimal", **options)


def verify_projection(chamber, **options):
    return run_suite(chamber, "projection", **options)


def verify_lagrangian(chamber, mode: str, **options):
    if mode not in ("vertical", "horizontal"):
        raise ValueError(f"unknown mode {mode!r}; expected 'vertical' or 'horizontal'")
    return run_suite(chamber, f"lagrangian-{mode}", **options)


def verify_graph(chamber, **options):
    return run_suite(chamber, "graph", **options)


def verify_theorem(chamber, **options):
    return run_suite(chamber, "theorem", **options)


__all__ = [
    "DEFAULT_FD_STEP",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "VerificationReport",
    "run_suite",
    "verify_graph",
    "verify_infinitesimal",
    "verify_iwasawa",
    "verify_lagrangian",
    "verify_projection",
    "verify_theorem",
]
