"""Seeded verification suites over sampled orbit data.

A suite is a stacked check ``(chamber, rngs, indices, fd_step) -> error
table``, a float array with one row per sample and one column per
sampled report, and a row of the ``SUITES`` table: the key that seeds
each sample's generator along with the run's seed and the sample index,
and one ``(report name, tolerance class, default)`` entry per column.
"exact" columns run at rounding-level tolerances and "fd" columns
(numerical derivatives) at a looser one; ``tol_exact`` and ``tol_fd``
override every column of their class, and "fixed" columns never change.

Every suite draws each sample from its own generator (``_rngs`` seeds a
chunk's generators from one array of seed words, and each kind of draw
fills one array in place), then runs each stage once over the stack of
samples: the draws' trace removals and basis combinations,
exponentials, factorizations, orbit and flag points, cotangent
representatives, the witness solves, graph routes, and the charts of
``theorem`` and ``lagrangian-*`` with their R factors.  Kernel calls on
stacks that do not depend on each other are one call over both, such as
``iwasawa``'s factorizations of g and of k0 a0 n0, ``graph``'s
exponentials of the witness and rotation logs and ``projection``'s flag
points of g, g z and k0.  Every stage gives each slice the arithmetic of
a single sample and checks every slice, so a sample's errors do not
depend on the samples it is stacked with.  A merged call raises for the
first failing slice of its whole stack, so a sample that breaks in both
merged stages may be named by either stage's error.  A column that
merges several sub-checks takes their largest error through one stacked
``_worst`` call over all samples; a single-source column passes its
errors through as they are.  ``theorem`` checks each sample's orbit
form against the chamber's exact one, ``ChamberElement._orbit_form``,
which the Ad-invariance of the Killing form makes the same at every
witness, and counts a non-finite invariance error as infinite too.

``run_suite`` is the one sample loop.  It passes the samples to the
check in chunks of a fixed size; a chunk that raises ``ValueError`` or
``ArithmeticError`` (the named orbitsym errors, ``LinAlgError``,
``OverflowError``, ``FloatingPointError``) runs again one sample at a
time, and each sample that raises on its own gets an infinite error in
every column of its row and records the exception's class name; other
exceptions propagate.  Each check runs with numpy's overflow, division
by zero and invalid operations raised as ``FloatingPointError`` rather
than warned about.  Reports satisfy ``passed == (max_error <=
tolerance)``, and a non-finite error counts as infinite, so NaN never
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .iwasawa import fd_iwasawa_velocities, infinitesimal_iwasawa, iwasawa
from .model import ChamberElement, _combinations
from .numerics import _frobenius_stack, mat_exp, qr_positive
from .orbit import (
    _check_fiber,
    _check_on_orbit_stack,
    _cotangent,
    _flag_points,
    _from_cotangent,
    _orbit_points,
    _split,
    orbit_chart,
    orbit_point,
)
from .symplectic import (
    _bracket_pairing,
    graph_routes,
    omega_kks_chart,
    omega_std_chart,
)

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


def _worst(errors, axis=None):
    """Largest error along ``axis`` (over all of them by default), 0 on an
    empty axis, counting any non-finite value as infinite so that NaN can
    never pass a tolerance check."""
    e = np.asarray(errors, dtype=float)
    return np.where(np.isfinite(e), e, math.inf).max(axis=axis, initial=0.0)


def _report(suite, chamber, seed, fd_step, errors, tolerance, exceptions=()) -> VerificationReport:
    errs = np.asarray(errors, dtype=float)
    worst = float(_worst(errs))
    return VerificationReport(
        suite=suite,
        n=chamber.model.n,
        chamber_entries=chamber.entries,
        samples=len(errs),
        seed=seed,
        fd_step=fd_step,
        sample_errors=tuple(errs.tolist()),
        max_error=worst,
        tolerance=float(tolerance),
        passed=worst <= tolerance,
        exceptions=tuple(exceptions),
    )


def _rngs(seed: int, indices, key: int) -> list[np.random.Generator]:
    """The generators ``np.random.default_rng([seed % 2**63, index, key])``
    of the sample ``indices``.  SeedSequence reads each int of a list as its
    little-endian uint32 words (the high word only when nonzero) and takes a
    uint32 array as it is, so the rows of one word array give the same pools."""
    s = seed % 2**63
    head = [s & 0xFFFFFFFF, *([s >> 32] if s >> 32 else [])]
    words = np.array([[*head, index, key] for index in indices], dtype=np.uint32)
    return [np.random.default_rng(row) for row in words]


def _group_logs(model, rngs, strength: float = 1.2) -> np.ndarray:
    """Each generator's witness draws: its factors' logs at strength / n, (len(rngs), 3, n, n)."""
    return model._algebra_elements(rngs, strength / model.n, 3)


def _rel(err, scale):
    """err / max(1, scale), elementwise over arrays; as with Python
    floats, a non-finite quotient becomes NaN rather than an error."""
    with np.errstate(invalid="ignore"):
        return np.divide(err, np.fmax(1.0, scale))


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry along the last axis, 0 when it is empty."""
    return np.abs(a).max(axis=-1, initial=0.0)


def _check_iwasawa(chamber, rngs, indices, fd_step):
    """Factorization shape, reconstruction, and exact recovery of
    hand-assembled k a n products."""
    model = chamber.model
    n = model.n
    # per sample: the witness's factor logs, then the logs of k0, a0, n0
    logs = np.concatenate([_group_logs(model, rngs), model._rotation_logs(rngs, 1.5 / n),
                           _combinations(model.a_basis, rngs, 0.5),
                           _combinations(model.n_basis, rngs, 0.5)], axis=1)
    exps = mat_exp(logs)
    g = model._group_products(exps[:, :3])
    k0, a0, n0 = exps[:, 3], exps[:, 4], exps[:, 5]

    # g and k0 a0 n0 factored in one call: [0] of each factor is g's, [1] the product's
    fac = iwasawa(np.stack([g, k0 @ a0 @ n0], axis=1))
    k, a, nil = (np.moveaxis(f, 1, 0) for f in (fac.k_factor, fac.a_factor, fac.n_factor))
    a_diag = np.diagonal(a[0], axis1=-2, axis2=-1)
    a_part = np.zeros_like(a[0])
    a_part[..., range(n), range(n)] = a_diag
    n_diag = np.diagonal(nil[0], axis1=-2, axis2=-1)
    k_t = np.swapaxes(k[0], -1, -2)
    scale = _frobenius_stack(a0) * _frobenius_stack(n0)
    errs = [
        _rel(_frobenius_stack(g - k[0] @ a[0] @ nil[0]), _frobenius_stack(g)),
        _frobenius_stack(k_t @ k[0] - np.eye(n)),
        _frobenius_stack(a[0] - a_part),
        _frobenius_stack(np.tril(nil[0], -1)) + _frobenius_stack((n_diag - 1.0)[:, None]),
        np.abs(np.trace(fac.h_projection[:, 0], axis1=-2, axis2=-1)),
        _rel(_frobenius_stack(k[1] - k0), scale),
        _rel(_frobenius_stack(a[1] - a0), scale),
        _rel(_frobenius_stack(nil[1] - n0), scale),
    ]
    nonpositive = np.min(a_diag, axis=-1) <= 0
    return np.where(nonpositive, math.inf, _worst(np.transpose(errs), axis=-1))[:, None]


def _check_infinitesimal(chamber, rngs, indices, fd_step):
    """Closed-form factor velocities: reconstruction identity and
    witness independence exactly, central-difference match loosely."""
    model = chamber.model
    x = model._algebra_elements(rngs, 1.5 / model.n)[:, 0]
    g = model._group_products(mat_exp(_group_logs(model, rngs)))
    fac = iwasawa(g)
    inf = infinitesimal_iwasawa(x, g, factors=fac)
    an = fac.an_factor()
    an_inv = np.linalg.inv(an)
    y = an @ x @ an_inv
    recon = inf.k_deriv + inf.a_deriv + an @ inf.n_deriv @ an_inv
    e_recon = _rel(_frobenius_stack(y - recon), _frobenius_stack(y))
    inf2 = infinitesimal_iwasawa(x, an)
    scale_w = _frobenius_stack(x) * _frobenius_stack(an)
    e_witness = [
        _rel(_frobenius_stack(inf.k_deriv - inf2.k_deriv), scale_w),
        _rel(_frobenius_stack(inf.a_deriv - inf2.a_deriv), scale_w),
        _rel(_frobenius_stack(inf.n_deriv - inf2.n_deriv), scale_w),
    ]
    k_fd, a_fd, n_fd = fd_iwasawa_velocities(x, g, fd_step)
    scale_fd = _frobenius_stack(x) * _frobenius_stack(g)
    e_fd = [
        _rel(_frobenius_stack(inf.k_deriv - k_fd), scale_fd),
        _rel(_frobenius_stack(inf.a_deriv - a_fd), scale_fd),
        _rel(_frobenius_stack(inf.n_deriv - n_fd), scale_fd),
    ]
    return np.transpose([_worst(np.transpose([e_recon, *e_witness]), axis=-1),
                         _worst(np.transpose(e_fd), axis=-1)])


def _check_projection(chamber, rngs, indices, fd_step):
    """Ruling projection and bundle identification: witness
    independence, fiber membership, round trips and fiber linearity.

    Each stage runs once over the stack of samples: the orbit points of g
    and g z, and the flag points of g, g z and one rotation k0; the
    representatives over k0 with fibers v1, v2 and v1 + v2; the unipotent
    witnesses of the round trips from x and from v1 and v1 + v2; and the
    return of the last two.
    """
    model = chamber.model
    # per sample: the witness's factor logs, the logs of z, the log of k0,
    # and two fibers
    logs = np.concatenate([_group_logs(model, rngs), _combinations(chamber.z_basis, rngs, 0.4),
                           _combinations(chamber.zk_basis, rngs, 0.6),
                           model._rotation_logs(rngs, 1.5 / model.n)], axis=1)
    fibers = _combinations(chamber.n_basis, rngs, 0.8, count=2)
    exps = mat_exp(logs)
    g = model._group_products(exps[:, :3])
    k0 = exps[:, 5, None]  # (samples, 1, n, n), against stacks of fibers

    witnesses = np.stack([g, g @ (exps[:, 3] @ exps[:, 4])], axis=1)
    points, _ = _orbit_points(chamber, witnesses)
    k = qr_positive(witnesses)[0]  # K of the witnesses, their determinants checked just above
    bases = _flag_points(chamber, np.concatenate([k, k0], axis=1))  # of g, g z and k0
    x, base, k_x = points[:, 0], bases[:, 0], k[:, 0]
    fiber = x - base
    scale = _frobenius_stack(x)
    e_welldef = _rel(_frobenius_stack(bases[:, 1] - base), scale)

    w, residual = _check_fiber(chamber, k_x, base, fiber)  # the slice check of to_cotangent(x)
    e_disp = _rel(residual, _frobenius_stack(w))

    v = k0 @ fibers @ np.swapaxes(k0, -1, -2)
    v1, v2 = v[:, 0], v[:, 1]
    # the representatives over k0 with fibers v1, v2 and v1 + v2, as
    # _cotangent_reps builds them
    reps, base0 = np.stack([v1, v2, v1 + v2], axis=1), bases[:, 2]
    coords = _cotangent(chamber, k0, base0[:, None], reps)
    _check_on_orbit_stack(chamber, base0[:, None] + reps)

    trips, back, _ = _from_cotangent(chamber, np.concatenate([k_x[:, None], k0, k0], axis=1),
                                     np.stack([fiber, v1, v1 + v2], axis=1))
    # the witnesses' determinants were checked with their orbit points
    base_b, fiber_b, coords_b = _split(chamber, qr_positive(trips[:, 1:])[0], back[:, 1:])

    scale_f = _frobenius_stack(v1)
    e_round = [
        _rel(_frobenius_stack(back[:, 0] - x), scale),
        _rel(_frobenius_stack(base_b[:, 0] - base0), scale_f),
        _rel(_frobenius_stack(fiber_b[:, 0] - v1), scale_f),
        _rel(_max_abs(coords_b[:, 0] - coords[:, 0]), scale_f),
    ]

    summed = coords[:, 0] + coords[:, 1]
    e_linear = [
        _rel(_frobenius_stack(base_b[:, 1] - base0), scale_f),
        _rel(_max_abs(coords_b[:, 1] - summed), _max_abs(summed)),
    ]
    return np.transpose([e_welldef, e_disp, _worst(np.transpose(e_round), axis=-1),
                         _worst(np.transpose(e_linear), axis=-1)])


def _pairing_ratio(chamber) -> float:
    """Nondegeneracy of the Killing pairing n(H) x m(H): SMIN_THRESHOLD
    over its smallest singular value (0 when n(H) = 0)."""
    if not chamber.dim_n:
        return 0.0
    pairing = chamber.model.killing(chamber.n_basis[:, None], chamber.m_basis)
    smin = float(np.linalg.svd(pairing, compute_uv=False)[-1])
    return SMIN_THRESHOLD / smin


def _witness_logs(model, rngs, indices, sample1) -> np.ndarray:
    """The factor logs (samples, 3, n, n) of the witnesses of ``theorem``
    and ``graph``, one zero-filled stack: zero at sample 0, the logs
    ``sample1([rng])[0]`` in sample 1's leading rows, generic ones after."""
    logs = np.zeros((len(rngs), 3, model.n, model.n))
    generic = [row for row, index in enumerate(indices) if index > 1]
    if generic:
        logs[generic] = _group_logs(model, [rngs[row] for row in generic])
    if 1 in indices:
        draws = sample1([rngs[indices.index(1)]])
        logs[indices.index(1), :draws.shape[1]] = draws[0]
    return logs


def _check_lagrangian(basis):
    """Isotropy, for both symplectic forms, of the chart spanned by the
    chamber's stack ``basis(chamber)``: the ruling fibers (``n_basis``)
    or displaced flag tangents (``m_basis``), at the points of all
    samples at once.  The chart holds the chamber's own stack, so it
    skips the rank check; the standard form is exact, so ``fd_step`` goes
    only into the reports."""

    def check(chamber, rngs, indices, fd_step):
        model = chamber.model
        g = model._group_products(mat_exp(_group_logs(model, rngs)))
        chart = orbit_chart(orbit_point(chamber, g), directions=basis(chamber))
        x, gens = chart.frame_generators(np.zeros(chart.dim))
        zmax = _frobenius_stack(gens).max(axis=-1, initial=0.0)
        scale = np.fmax(1.0, model.killing_coefficient * _frobenius_stack(x.point) * (zmax * zmax))
        pairing = _bracket_pairing(chamber, x.point, gens)
        e_kks = _rel(np.abs(pairing).max(axis=(-2, -1), initial=0.0), scale)
        std = omega_std_chart(chart)  # zero below dimension 2
        e_std = _rel(np.abs(std).max(axis=(-2, -1), initial=0.0), scale)
        return np.transpose([e_kks, e_std])

    return check


def _check_graph(chamber, rngs, indices, fd_step):
    """The displaced flag section is the graph of minus the potential's
    differential: section one-form, cotangent covector, and central
    difference of the potential agree pairwise, along every m(H)
    direction of every sample at once through one stacked
    ``graph_routes`` call.  Sample 1 uses a diagonal group element.
    """
    model = chamber.model
    # per sample: the witness's factor logs, then the log of k
    logs = np.concatenate([_witness_logs(model, rngs, indices,
                                         lambda one: _combinations(model.a_basis, one, 0.6)),
                           model._rotation_logs(rngs, 1.5 / model.n)], axis=1)
    exps = mat_exp(logs)
    g, k = model._group_products(exps[:, :3]), exps[:, 3]
    a_val, b_val, c_val = graph_routes(chamber, g[:, None], k[:, None], chamber.m_basis, fd_step)
    # fmax skips NaN as the builtin max does, so a NaN route fails only
    # the errors it enters
    scale = np.fmax(np.fmax(1.0, np.abs(a_val)), np.fmax(np.abs(b_val), np.abs(c_val)))
    errors = np.abs([a_val - b_val, a_val - c_val, b_val - c_val]) / scale
    return np.transpose([_worst(errors[0], axis=-1), _worst(errors[1:], axis=(0, 2))])


def _check_theorem(chamber, rngs, indices, fd_step):
    """Entrywise equality of the two forms in the default chart, plus
    invariance and nondegeneracy of the orbit form, at the points of all
    samples at once.  The standard form is minus the exact derivative of
    the tautological form, from one QR per sample (``omega_std_chart``);
    ``theorem-match`` keeps its "fd" class and tolerance.  Invariance
    compares each sample's orbit form with the chamber's exact Omega(H)
    (``ChamberElement._orbit_form``): at t = 0 the frame generators are
    g X_a g^-1 at x = g H g^-1, so the Ad-invariance of the Killing form
    makes the form Omega(H) at every witness g.  Its scale is
    max(1, max|KKS|, max|Omega(H)|), so the standard form cannot move
    it.  Nondegeneracy takes each
    computed form's own smallest singular value.

    Sample 0 sits at the identity witness and sample 1 far from it.
    """
    model = chamber.model
    logs = _witness_logs(model, rngs, indices, lambda one: _group_logs(model, one, strength=2.0))
    g = model._group_products(mat_exp(logs))
    chart = orbit_chart(orbit_point(chamber, g))
    if chart.dim == 0:
        return np.zeros((len(rngs), 3))
    kks, std = omega_kks_chart(chart), omega_std_chart(chart)
    # fmax skips NaN as the builtin max does
    kks_scale = np.fmax(1.0, np.abs(kks).max(axis=(-2, -1)))
    e_match = _rel(np.abs(std - kks).max(axis=(-2, -1)),
                   np.fmax(kks_scale, np.abs(std).max(axis=(-2, -1))))
    # invariance reads no standard form; _worst over no axis counts a
    # non-finite quotient as infinite
    orbit_form = chamber._orbit_form
    e_inv = _worst(np.abs(kks - orbit_form).max(axis=(-2, -1))
                   / np.fmax(kks_scale, np.abs(orbit_form).max()), axis=())
    ratio = SMIN_THRESHOLD / np.linalg.svd(kks, compute_uv=False)[..., -1]
    return np.transpose([e_match, e_inv, ratio])


# name -> (rng key, stacked check, sampled columns (report, tolerance
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
    "lagrangian-vertical": (3, _check_lagrangian(lambda chamber: chamber.n_basis), (
        ("lagrangian-vertical-kks", "exact", TOL_PAIR_ZERO),
        ("lagrangian-vertical-std", "fd", TOL_FD_FORM),
    ), ()),
    "lagrangian-horizontal": (4, _check_lagrangian(lambda chamber: chamber.m_basis), (
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

# Samples per stacked check call.  Every slice gets the arithmetic of a
# chunk of one, so the size changes no report byte.
_CHUNK = 64


def _sample_rows(check, chamber, seed, key, indices, fd_step) -> np.ndarray:
    """The check's error table for the samples ``indices``, each drawn from
    its own generator, with numpy's floating-point faults raised."""
    rngs = _rngs(seed, indices, key)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return check(chamber, rngs, indices, fd_step)


def run_suite(chamber: ChamberElement, name: str, *, samples=DEFAULT_SAMPLES,
              seed=DEFAULT_SEED, fd_step=DEFAULT_FD_STEP, tol_exact=None,
              tol_fd=None) -> list[VerificationReport]:
    """Run one named suite and return its reports, one per column.

    The samples go to the check in chunks of ``_CHUNK``.  A chunk that
    raises ``ValueError`` or ``ArithmeticError`` runs again one sample
    at a time, so that the failure is charged to the samples that raise
    on their own.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if samples < 1:
        raise ValueError("samples must be positive")
    key, check, columns, chamber_columns = SUITES[name]
    tables, raised = [], []
    for start in range(0, samples, _CHUNK):
        chunk = range(start, min(start + _CHUNK, samples))
        try:
            tables.append(_sample_rows(check, chamber, seed, key, chunk, fd_step))
            continue
        except (ValueError, ArithmeticError):
            pass
        for index in chunk:
            try:
                tables.append(_sample_rows(check, chamber, seed, key, [index], fd_step))
            except (ValueError, ArithmeticError) as exc:
                tables.append(np.full((1, len(columns)), math.inf))
                raised.append((index, type(exc).__name__))
    table = np.concatenate(tables)
    override = {"exact": tol_exact, "fd": tol_fd, "fixed": None}
    reports = [
        _report(report, chamber, seed, fd_step, table[:, i],
                default if override[tol_class] is None else override[tol_class], raised)
        for i, (report, tol_class, default) in enumerate(columns)
    ]
    return reports + [
        _report(report, chamber, seed, fd_step, [error(chamber)], tol)
        for report, error, tol in chamber_columns
    ]


__all__ = [
    "DEFAULT_FD_STEP",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "VerificationReport",
    "run_suite",
]
