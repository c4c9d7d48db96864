"""The two symplectic forms on a hyperbolic adjoint orbit.

The orbit form pairs bracket generators through the Killing form:
omega(x)([Z1, x], [Z2, x]) = <x, [Z1, Z2]>.  The cotangent-bundle form
is minus the exterior derivative of the tautological one-form; under
the bundle identification the tautological form has the closed
expression

    lambda(V) = < x - pr(x), Ad(K(g)) K-velocity >,

where the K-velocity is the antisymmetric part of the Iwasawa factor
derivative along V's generator.  On all coordinate fields of a chart
this pairing is one matrix D per point, lambda_j = 2n tr(D X_j), and at
the chart's base point g = K R (R = A N) its derivative along X_i has a
closed form read from R alone:

    d_i D = [L_i, P] + 1/2 [X_i, V0],   P = R^-1 H R,   V0 = H - P,

with L_i = R^-1 triu(R X_i R^-1) R, so ``omega_std_chart`` takes minus
the exterior derivative exactly, from one QR per base point.  The orbit
form pairs bracket generators instead (``_bracket_pairing``).  Both
Killing pairings of a chart are BLAS products of flattened (n*n)
stacks, one per base point, so a chart at a stack of base points gives
each the single chart's read-only matrix bit for bit.  The single-point
``tautological`` keeps the route through the point's fiber and K as
its reference.  By the Ad-invariance of the Killing form the orbit form
is, at t = 0, the chamber's constant ``_orbit_form`` at every witness,
and ``theorem`` checks it against that.
``graph_routes`` compares the one-form cutting out a displaced flag
section with the cotangent covector and the potential's differential
over stacks of witnesses and flag directions, factoring each witness
once and the potential at as many of its four stencil offsets per call
as fit a fixed byte budget.  The seeded verification suites are in
``suites``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .iwasawa import (InfinitesimalIwasawa, _diagonals, _require_det_one, infinitesimal_iwasawa,
                      iwasawa)
from .model import ChamberElement, _locked, split_kan
from .numerics import (STENCIL_OFFSETS, _frobenius_stack, _pivots, _stack, _stencil_diff,
                       commutator, mat_exp, qr_positive)
from .orbit import (
    INVERSE_RTOL,
    OrbitChart,
    OrbitPoint,
    TangentVector,
    _check_fiber,
    _conjugates,
    _flag_points,
    solve_generator,
)

# Bytes of the g k stacks that one ``iwasawa_potential`` call of
# ``graph_routes`` may factor, over all the stencil offsets it takes (one
# offset's stack at least): merging offsets saves per-call costs on small
# stacks, and the bound keeps large ones from paging in fresh memory (with
# all four offsets merged, a 50-sample ``graph`` call at n = 8 made about
# 4,000 minor page faults per call and ran about 30% slower).
_POTENTIAL_BYTES = 256 * 1024
# Chambers and steps whose m(H) stencil exponentials ``graph_routes`` keeps:
# as many as ``cli`` keeps chambers, so that calls cycling through them at
# one step (the benchmark's nine chambers per pass) hit on every later pass.
_M_EXPS_KEPT = 16


def _generator(x: OrbitPoint, v: TangentVector) -> np.ndarray:
    if v.generator is not None:
        return v.generator
    return solve_generator(x, v.value)


def _bracket_pairing(chamber: ChamberElement, x: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Matrix of <x, [Z_i, Z_j]> over a stack of generators (..., m, n, n)
    at the orbit point x (..., n, n): 2n (M - M^T), exactly antisymmetric
    with a zero diagonal, for M_ij = tr(x Z_i Z_j).  M pairs the entries of
    Z_i^T x^T with those of Z_j, one BLAS product per base point of the
    flattened stacks (..., m, n*n), whose base-point axes stay batch axes."""
    n2 = gens.shape[-1] ** 2
    left = gens.swapaxes(-1, -2) @ x.swapaxes(-1, -2)[..., None, :, :]
    m = left.reshape(*left.shape[:-2], n2) @ gens.reshape(*gens.shape[:-2], n2).swapaxes(-1, -2)
    return chamber.model.killing_coefficient * (m - m.swapaxes(-1, -2))


def kks(x: OrbitPoint, v: TangentVector, w: TangentVector) -> float:
    """Orbit symplectic form on two tangent vectors at x.

    Value <x, [Z_v, Z_w]>; well defined up to centralizer ambiguity in
    the generators, which the Killing pairing kills.
    """
    gens = np.stack([_generator(x, v), _generator(x, w)])
    return float(_bracket_pairing(x.chamber, x.point, gens)[0, 1])


def tautological(x: OrbitPoint, v: TangentVector, factors=None) -> float:
    """Tautological (Liouville) one-form transported to the orbit.

    Pairs the fiber part of x, deconjugated by K(g) as k^T (x - k H k^T) k,
    with the K-velocity of v's left-trivialized generator g^-1 Z g (the
    antisymmetric part of its conjugate by A(g)N(g)), the flag velocity
    pushed down by the ruling projection; vanishes on fiber directions and
    on the zero section.  ``factors`` may carry a precomputed
    factorization of the witness g.
    """
    g = x.witness
    fac = factors if factors is not None else iwasawa(g)
    k = fac.k_factor
    an = fac.an_factor()
    fiber = k.T @ (x.point - k @ x.chamber.matrix @ k.T) @ k
    k_velocity, _, _ = split_kan(an @ np.linalg.solve(g, _generator(x, v) @ g) @ np.linalg.inv(an))
    return float(x.chamber.model.killing_coefficient * np.einsum("ab,ba->", fiber, k_velocity))


@functools.cache
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only strictly lower mask and identity of size n."""
    return _locked(np.tri(n, k=-1, dtype=bool)), _locked(np.eye(n))


def omega_std_chart(chart: OrbitChart) -> np.ndarray:
    """Cotangent-bundle form, as minus the exterior derivative of the
    tautological one-form in chart coordinates, at t = 0.

    Entry (i, j) is -(d_i lambda_j - d_j lambda_i) for d_ij = d_i lambda_j
    = 2n tr(d_i D X_j), with d_i D = [L_i, P] + 1/2 [X_i, V0] as in the
    module docstring, all pairs in one BLAS product per base point.  The
    witness g = K R of each base point is factored once, and R^-1 =
    triu(g^-1 K) comes from the point's kept inverse: a pair with
    |R R^-1 - I| > ``INVERSE_RTOL`` |R| |R^-1| (Frobenius) raises
    ``ValueError``.  U_i = triu(R X_i R^-1) is the A N velocity of the
    factor curve g exp(s X_i); the strictly lower part of R X_i R^-1 that
    the Iwasawa splitting folds into N adds a term to d_ij that is
    symmetric in (i, j) and cancels.  R and the L_i do not depend on H, so
    the form scales with H exactly.  Returns the read-only array of the
    matrix, (dim, dim), or one matrix per base point of a stacked chart,
    (..., dim, dim).
    """
    m = chart.dim
    at = chart.at
    entries = np.zeros((*at.witness.shape[:-2], m, m))
    if m >= 2:
        # np.triu(a) is np.where(lower, 0.0, a), less the mask it builds per call
        lower, ident = _triangle(at.witness.shape[-1])
        k, an = qr_positive(at.witness)
        an_inv = np.where(lower, 0.0, at.witness_inverse @ k)
        miss = _frobenius_stack(an @ an_inv - ident)
        if not (miss <= INVERSE_RTOL * _frobenius_stack(an) * _frobenius_stack(an_inv)).all():
            raise ValueError("witness inverse does not invert its R factor")
        p = (an_inv * np.asarray(at.chamber.entries)) @ an
        v0 = (at.chamber.matrix - p)[..., None, :, :]
        dirs = chart.directions
        u_i = np.where(lower, 0.0, an[..., None, :, :] @ dirs @ an_inv[..., None, :, :])
        l_i = an_inv[..., None, :, :] @ u_i @ an[..., None, :, :]
        d_dual = commutator(l_i, p[..., None, :, :]) + 0.5 * commutator(dirs, v0)
        # d[..., i, j] = d_i lambda_j: each d_i D paired with X_j^T, flattened;
        # the diagonal is computed but cancels exactly
        flat_dirs = dirs.swapaxes(-1, -2).reshape(m, -1)
        coefficient = at.chamber.model.killing_coefficient
        d = coefficient * (d_dual.reshape(*d_dual.shape[:-2], flat_dirs.shape[1]) @ flat_dirs.T)
        entries = d.swapaxes(-1, -2) - d
    entries.setflags(write=False)
    return entries


def omega_kks_chart(chart: OrbitChart, t=None) -> np.ndarray:
    """Orbit form on the moving frame of the chart, at chart parameter t
    (default 0).

    The frame generators conjugate along with the point, so every entry
    equals the value at t = 0, which for the default directions is the
    chamber's ``_orbit_form`` at every witness.  No report reads t != 0;
    it lets the tests check that constancy along the chart.  All pairs
    come from one contraction over the stacked generators, returned as a
    read-only array (..., dim, dim), one matrix per base point.
    """
    if t is None:
        t = np.zeros(chart.dim)
    p, gens = chart.frame_generators(t)
    entries = _bracket_pairing(p.chamber, p.point, gens)
    entries.setflags(write=False)
    return entries


def iwasawa_potential(chamber: ChamberElement, g, k) -> float | np.ndarray:
    """Scalar potential <H, log A(g k)> on rotations k.  A single rotation
    gives a float (a numpy float64); a stack of rotations (..., n, n)
    gives the array (...) of values.

    Constant along the compact centralizer, so it descends to the flag;
    its negative differential cuts out the displaced section through
    Ad(g) of the flag.  Only R of g k is formed, by ``iwasawa``'s geqrf and
    checks; log |pivots| is then its ``h_projection`` bit for bit.
    """
    gk = np.asarray(g, dtype=float) @ np.asarray(k, dtype=float)
    _require_det_one(gk)
    a = _stack(gk)
    h = _diagonals(np.log(np.abs(_pivots(a, np.linalg.qr(a, mode="r")))))
    return chamber.model.killing(chamber.matrix, h)


def _section_value(chamber: ChamberElement, inf: InfinitesimalIwasawa):
    """The section one-form from the factor velocities along its
    directions: minus <H, A-velocity>, slice by slice."""
    return -chamber.model.killing(chamber.matrix, inf.a_deriv)


def section_one_form(chamber: ChamberElement, g, k, direction) -> float:
    """One-form whose graph is the displaced flag section, evaluated on
    the flag tangent generated by an antisymmetric ``direction`` at k:
    minus <H, A-velocity of the factor curve>."""
    inf = infinitesimal_iwasawa(direction, np.asarray(g, dtype=float) @ np.asarray(k, dtype=float))
    return float(_section_value(chamber, inf))


@functools.lru_cache(maxsize=_M_EXPS_KEPT)
def _m_basis_exps(chamber: ChamberElement, fd_step: float) -> np.ndarray:
    """exp(s X), read-only (4, dim_m, n, n), at the stencil offsets s of ``fd_step``, X in m(H)."""
    offsets = np.multiply(STENCIL_OFFSETS, fd_step)
    return _locked(mat_exp(np.multiply.outer(offsets, chamber.m_basis)))


def graph_routes(chamber: ChamberElement, g, k, direction, fd_step: float = 1e-3):
    """Three routes to the same covector value at the flag point of g k.

    Returns (form_value, pairing_value, derivative_value): the section
    one-form, the cotangent covector paired with the projected tangent,
    and minus the central difference of the potential along k exp(tX).
    The first two agree to rounding; the third carries the O(h^4)
    stencil error.

    Single matrices g, k and direction (n, n) give three scalars; stacks
    (..., n, n) that broadcast together give three arrays of the
    broadcast shape (...), each entry equal bit for bit to a single call.
    Each product g k is factored once, and that factorization gives both
    the velocities along all its directions and the flag point of its
    cotangent representative.  The potential stencil is factored over
    every entry, with as many of its four offsets in one call as fit
    ``_POTENTIAL_BYTES``.
    """
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    x_dir = np.asarray(direction, dtype=float)
    gk = g @ k

    fac = iwasawa(gk)
    inf = infinitesimal_iwasawa(x_dir, gk, factors=fac)
    form_value = _section_value(chamber, inf)

    kf = fac.k_factor
    points = _conjugates(chamber, gk, np.linalg.inv(gk))  # the determinant checked by iwasawa
    base = _flag_points(chamber, kf)
    fiber = points - base
    _check_fiber(chamber, kf, base, fiber)
    pairing_value = chamber.model.killing(fiber, kf @ inf.k_deriv @ np.swapaxes(kf, -1, -2))

    # the potentials at as many stencil offsets per call as fit
    # _POTENTIAL_BYTES, each over the whole stack, with the offsets on a new
    # leading axis; the exponentials of m(H) are kept per chamber and step
    exps = (_m_basis_exps(chamber, fd_step) if x_dir is chamber.m_basis
            else mat_exp(np.multiply.outer(np.multiply(STENCIL_OFFSETS, fd_step), x_dir)))
    shape = np.broadcast_shapes(g.shape, k.shape, x_dir.shape)
    exps = exps.reshape(len(exps), *(1,) * (len(shape) - x_dir.ndim), *x_dir.shape)
    per_call = max(1, _POTENTIAL_BYTES // max(1, 8 * math.prod(shape)))
    potentials = np.concatenate([iwasawa_potential(chamber, g, k @ exps[i:i + per_call])
                                 for i in range(0, len(exps), per_call)])
    derivative_value = -_stencil_diff(potentials, fd_step)
    return form_value, pairing_value, derivative_value


__all__ = [
    "graph_routes",
    "iwasawa_potential",
    "kks",
    "omega_kks_chart",
    "omega_std_chart",
    "section_one_form",
    "tautological",
]
