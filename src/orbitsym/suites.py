"""Seeded verification suites over sampled orbit data.

Each suite draws deterministic samples from a seed, measures the worst
relative discrepancy of a family of identities, and returns one report
per tolerance class.  Exact-formula identities run at rounding-level
tolerances; anything that differentiates numerically runs at a looser
finite-difference tolerance.  Reports satisfy
``passed == (max_error <= tolerance)`` by construction, and a
non-finite error counts as infinite, so NaN never passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .iwasawa import fd_iwasawa_velocities, infinitesimal_iwasawa, iwasawa
from .model import ChamberElement, random_combination
from .numerics import mat_exp
from .orbit import (
    cotangent_rep,
    from_cotangent,
    orbit_chart,
    orbit_point,
    project_ruling,
    to_cotangent,
)
from .symplectic import graph_routes, omega_kks_chart, omega_std_chart

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

    def as_dict(self) -> dict:
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
            "samples_detail": [
                {"index": i, "error": _json_number(e)} for i, e in enumerate(self.sample_errors)
            ],
        }


def _worst(errors) -> float:
    """Largest error, counting any non-finite value as infinite so that
    NaN can never pass a tolerance check."""
    return max((e if math.isfinite(e) else math.inf for e in map(float, errors)), default=0.0)


def _tol(override, default) -> float:
    return default if override is None else override


def _report(suite, chamber, seed, fd_step, errors, tolerance) -> VerificationReport:
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
    )


def _reports(chamber, seed, fd_step, results, columns) -> list[VerificationReport]:
    """One report per ``(name, tolerance)`` column of the per-sample
    result tuples."""
    return [
        _report(name, chamber, seed, fd_step, [r[i] for r in results], tol)
        for i, (name, tol) in enumerate(columns)
    ]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *key])


def _sample_group(model, rng, strength: float = 1.2, factors: int = 3) -> np.ndarray:
    return model.random_group_element(rng, strength / model.n, factors=factors)


def _rel(err: float, scale: float) -> float:
    return float(err) / max(1.0, scale)


def verify_iwasawa(chamber, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                   fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """Factorization shape, reconstruction, and exact recovery of
    hand-assembled k a n products."""
    model = chamber.model
    n = model.n
    ident = np.eye(n)

    def one(index: int) -> float:
        rng = _rng(seed, index, 0)
        g = _sample_group(model, rng)
        fac = iwasawa(g)
        errs = [
            _rel(np.linalg.norm(g - fac.reconstruct()), np.linalg.norm(g)),
            float(np.linalg.norm(fac.k_factor.T @ fac.k_factor - ident)),
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
        return _worst(errs)

    errors = [one(i) for i in range(samples)]
    return [_report("iwasawa", chamber, seed, fd_step, errors, _tol(tol_exact, TOL_RECONSTRUCTION))]


def verify_infinitesimal(chamber, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                         fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """Closed-form factor velocities: reconstruction identity and
    witness independence exactly, central-difference match loosely."""
    model = chamber.model
    n = model.n

    def one(index: int) -> tuple[float, float]:
        rng = _rng(seed, index, 1)
        x = model.random_algebra_element(rng, 1.5 / n)
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

    results = [one(i) for i in range(samples)]
    return _reports(chamber, seed, fd_step, results, [
        ("infinitesimal-exact", _tol(tol_exact, TOL_RECONSTRUCTION)),
        ("infinitesimal-fd", _tol(tol_fd, TOL_FD_DERIV)),
    ])


def verify_projection(chamber, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                      fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """Ruling projection and bundle identification: witness
    independence, fiber membership, round trips, fiber linearity, and
    the nondegeneracy of the Killing pairing."""
    model = chamber.model
    n = model.n

    def one(index: int) -> tuple[float, float, float, float]:
        rng = _rng(seed, index, 2)
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
        recon = np.zeros_like(w)
        for (i, j) in chamber.n_positions:
            recon[i, j] = w[i, j]
        e_disp = _rel(np.linalg.norm(w - recon), np.linalg.norm(w))

        rep = to_cotangent(x)
        e_round = _rel(np.linalg.norm(from_cotangent(rep).point - x.point), scale)

        k0 = model.random_orthogonal(rng, 1.5 / n)
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

    results = [one(i) for i in range(samples)]
    tol_e = _tol(tol_exact, TOL_EXACT)
    tol_d = _tol(tol_exact, TOL_DISPLACEMENT)

    if chamber.dim_n:
        pairing = np.array(
            [[model.killing(u, e) for e in chamber.m_basis] for u in chamber.n_basis]
        )
        smin = float(np.linalg.svd(pairing, compute_uv=False)[-1])
        ratio = SMIN_THRESHOLD / smin
    else:
        ratio = 0.0

    return _reports(chamber, seed, fd_step, results, [
        ("projection-welldef", tol_e),
        ("projection-displacement", tol_d),
        ("projection-roundtrip", tol_e),
        ("projection-linearity", tol_d),
    ]) + [_report("projection-pairing", chamber, seed, fd_step, [ratio], 1.0)]


def _lagrangian_basis(chamber, mode: str):
    if mode == "vertical":
        return chamber.n_basis
    if mode == "horizontal":
        return chamber.m_basis
    raise ValueError(f"unknown mode {mode!r}; expected 'vertical' or 'horizontal'")


def verify_lagrangian(chamber, mode: str, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                      fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """Isotropy of the ruling fibers (vertical) or of displaced flag
    tangents (horizontal) for both symplectic forms."""
    model = chamber.model
    basis = _lagrangian_basis(chamber, mode)

    def one(index: int) -> tuple[float, float]:
        rng = _rng(seed, index, 3 if mode == "vertical" else 4)
        g = _sample_group(model, rng)
        chart = orbit_chart(orbit_point(chamber, g), directions=basis)
        x, gens = chart.frame_generators(np.zeros(chart.dim))
        zmax = max((float(np.linalg.norm(z)) for z in gens), default=0.0)
        scale = max(1.0, model.killing_coefficient * float(np.linalg.norm(x.point)) * zmax**2)
        e_kks = _rel(np.max(np.abs(omega_kks_chart(chart).entries), initial=0.0), scale)
        e_std = 0.0
        if chart.dim >= 2:
            e_std = _rel(np.max(np.abs(omega_std_chart(chart, fd_step).entries)), scale)
        return e_kks, e_std

    results = [one(i) for i in range(samples)]
    return _reports(chamber, seed, fd_step, results, [
        (f"lagrangian-{mode}-kks", _tol(tol_exact, TOL_PAIR_ZERO)),
        (f"lagrangian-{mode}-std", _tol(tol_fd, TOL_FD_FORM)),
    ])


def verify_graph(chamber, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                 fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """The displaced flag section is the graph of minus the potential's
    differential: section one-form, cotangent covector, and central
    difference of the potential agree pairwise.

    Sample 0 uses the identity and sample 1 a diagonal group element;
    later samples draw generic witnesses.
    """
    model = chamber.model
    n = model.n

    def one(index: int) -> tuple[float, float]:
        rng = _rng(seed, index, 5)
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

    results = [one(i) for i in range(samples)]
    return _reports(chamber, seed, fd_step, results, [
        ("graph-exact", _tol(tol_exact, TOL_EXACT)),
        ("graph-fd", _tol(tol_fd, TOL_FD_FORM)),
    ])


def verify_theorem(chamber, *, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                   fd_step=DEFAULT_FD_STEP, tol_exact=None, tol_fd=None):
    """Entrywise equality of the two forms in the default chart, plus
    invariance and nondegeneracy of the orbit form.

    Sample 0 sits at the identity witness and sample 1 far from it.
    """
    model = chamber.model
    n = model.n

    def one(index: int) -> tuple[float, float, float]:
        rng = _rng(seed, index, 6)
        if index == 0:
            g = np.eye(n)
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
                t = np.zeros(chart.dim)
                t[i] = s
                shifted = omega_kks_chart(chart, t)
                e_inv.append(_rel(np.max(np.abs(shifted.entries - kks_form.entries)), scale))
        smin = kks_form.smallest_singular_value()
        ratio = 0.0 if np.isinf(smin) else SMIN_THRESHOLD / smin
        return e_match, _worst(e_inv), ratio

    results = [one(i) for i in range(samples)]
    return _reports(chamber, seed, fd_step, results, [
        ("theorem-match", _tol(tol_fd, TOL_FD_FORM)),
        ("theorem-invariance", _tol(tol_exact, TOL_INVARIANCE)),
        ("theorem-nondegenerate", 1.0),
    ])


SUITES = {
    "iwasawa": verify_iwasawa,
    "infinitesimal": verify_infinitesimal,
    "projection": verify_projection,
    "lagrangian-vertical": partial(verify_lagrangian, mode="vertical"),
    "lagrangian-horizontal": partial(verify_lagrangian, mode="horizontal"),
    "graph": verify_graph,
    "theorem": verify_theorem,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(chamber: ChamberElement, name: str, **kwargs) -> list[VerificationReport]:
    """Run one named suite and return its reports."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](chamber, **kwargs)


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
