"""The two symplectic forms on a hyperbolic adjoint orbit.

The orbit form pairs bracket generators through the Killing form:
omega(x)([Z1, x], [Z2, x]) = <x, [Z1, Z2]>.  The cotangent-bundle form
is minus the exterior derivative of the tautological one-form; under
the bundle identification the tautological form has the closed
expression

    lambda(V) = < x - pr(x), Ad(K(g)) K-velocity >,

where the K-velocity is the antisymmetric part of the Iwasawa factor
derivative along V's generator.  On all coordinate fields of a chart
this pairing is one matrix per point (``_tautological_dual``).  Both
Killing pairings of a chart (the orbit form on all frame pairs, lambda
on all coordinate fields) are BLAS products of flattened (n*n) stacks,
one per base point, so a chart at a stack of base points gives each
the single chart's read-only matrix bit for bit.  The standard form
builds and checks a chart's stencil in one pass over all its base
points and all four offsets (``OrbitChart._stencil``): each stencil
witness w = g exp(s X) = K A N has its determinant checked once and one
QR, whose R is A N, and (A N)^-1 = triu(w^-1 K), checked against A N,
comes from the chamber's kept exponentials and the base point's kept
inverse; no stencil point is built.
Since Ad(A N) H lies in H + n(H), the dual reads R alone; the
single-point ``tautological`` keeps the route through the point's fiber
and K as its reference.  The orbit form needs no stencil:
by the Ad-invariance of the Killing form it is, at t = 0, the chamber's
constant ``_orbit_form`` at every witness, and ``theorem`` checks it
against that.
``graph_routes`` compares the one-form cutting out a displaced flag
section with the cotangent covector and the potential's differential
over stacks of witnesses and flag directions, factoring each witness
once and the potential at as many of its four stencil offsets per call
as fit a fixed byte budget.  The seeded verification suites are in
``suites``.
"""

from __future__ import annotations

import math

import numpy as np

from .iwasawa import (IwasawaFactors, InfinitesimalIwasawa, _diagonals, _require_det_one,
                      infinitesimal_iwasawa, iwasawa)
from .model import ChamberElement, split_kan
from .numerics import STENCIL_OFFSETS, _pivots, _stack, _stencil_diff
from .orbit import (
    OrbitChart,
    OrbitPoint,
    TangentVector,
    _check_fiber,
    _conjugates,
    _dexp,
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
    left = np.swapaxes(gens, -1, -2) @ np.swapaxes(x, -1, -2)[..., None, :, :]
    m = left.reshape(*left.shape[:-2], n2) @ np.swapaxes(gens.reshape(*gens.shape[:-2], n2), -1, -2)
    return chamber.model.killing_coefficient * (m - np.swapaxes(m, -1, -2))


def kks(x: OrbitPoint, v: TangentVector, w: TangentVector) -> float:
    """Orbit symplectic form on two tangent vectors at x.

    Value <x, [Z_v, Z_w]>; well defined up to centralizer ambiguity in
    the generators, which the Killing pairing kills.
    """
    gens = np.stack([_generator(x, v), _generator(x, w)])
    return float(_bracket_pairing(x.chamber, x.point, gens)[0, 1])


def _tautological_stack(x: OrbitPoint, factors: IwasawaFactors, gens: np.ndarray) -> np.ndarray:
    """Tautological form at x on a stack (m, n, n) of left-trivialized
    generators g^-1 Z g, with ``factors`` the factorization of the
    witness g.

    The K-velocity of each generator is the antisymmetric part of its
    conjugate by A(g)N(g); it is paired with the fiber deconjugated by
    K(g), k^T (x - k H k^T) k.
    """
    k = factors.k_factor
    an = factors.an_factor()
    fiber = k.T @ (x.point - k @ x.chamber.matrix @ k.T) @ k
    k_velocities, _, _ = split_kan(an @ gens @ np.linalg.inv(an))
    return x.chamber.model.killing_coefficient * np.einsum("ab,mba->m", fiber, k_velocities)


def _tautological_dual(chamber: ChamberElement, an: np.ndarray, an_inv: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """The tautological form on the coordinate fields at a stack of chart
    points, as one matrix D per point: lambda_j = 2n tr(D X_j) for every
    chart direction X_j, from the R factors ``an`` = A N of the points'
    witnesses K A N, their inverses ``an_inv`` and the displacements ``u``,
    all from the chart's stencil (``OrbitChart._stencil``).

    The fiber deconjugated by K is F = A N H (A N)^-1 - H, in n(H), and its
    pairing with the antisymmetric part of A N Z (A N)^-1 is tr(V Z) for
    V = (A N)^-1 F A N = H - (A N)^-1 H A N, strictly upper triangular and
    read as such.  The generator is Z = dexp(u, X_j), whose trace adjoint
    is dexp(-u, .) (that of ad_u is -ad_u), so D = dexp(-u, V).
    """
    h = np.asarray(chamber.entries)
    return _dexp(-u, -np.triu((an_inv * h) @ an, 1))


def tautological(x: OrbitPoint, v: TangentVector, factors=None) -> float:
    """Tautological (Liouville) one-form transported to the orbit.

    Pairs the fiber part of x with the flag velocity of v pushed down by
    the ruling projection; vanishes on fiber directions and on the zero
    section.  ``factors`` may carry a precomputed factorization of the
    witness.
    """
    g = x.witness
    fac = factors if factors is not None else iwasawa(g)
    x_alg = np.linalg.solve(g, _generator(x, v) @ g)
    return float(_tautological_stack(x, fac, x_alg[None])[0])


def omega_std_chart(chart: OrbitChart, fd_step: float = 1e-3) -> np.ndarray:
    """Cotangent-bundle form, as minus the exterior derivative of the
    tautological one-form in chart coordinates.

    Entry (i, j) is -(d_i lambda_j - d_j lambda_i)(0), all axes at once
    by one fourth-order stencil; lambda_j is evaluated on the honest
    coordinate field, so the mixed partials cancel exactly and only the
    finite-difference error survives.  The R factors A N of the 4 dim
    stencil witnesses of each base point (one QR each) and their inverses
    come from the chart's stencil at ``fd_step``, and each stencil point's
    dual matrix, read from those two alone, gives lambda on every
    coordinate field at once.  Returns the read-only array of the
    matrix, (dim, dim), or one matrix per base point of a stacked chart,
    (..., dim, dim).
    """
    m = chart.dim
    entries = np.zeros((*chart.at.witness.shape[:-2], m, m))
    if m >= 2:
        u, an, an_inv = chart._stencil(fd_step)
        dual = _tautological_dual(chart.at.chamber, an, an_inv, u)
        # lam[..., o, i, j]: lambda_j at stencil offset o along axis i, each
        # dual matrix's entries paired with those of X_j^T in one BLAS product
        flat_dirs = np.swapaxes(chart.directions, -1, -2).reshape(m, -1)
        coefficient = chart.at.chamber.model.killing_coefficient
        lam = coefficient * (dual.reshape(*dual.shape[:-2], flat_dirs.shape[1]) @ flat_dirs.T)
        # d[..., i, j] = d_i lambda_j; the diagonal is computed but cancels exactly
        d = _stencil_diff(np.moveaxis(lam, -3, 0), fd_step)
        entries = np.swapaxes(d, -1, -2) - d
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
    # leading axis; the chamber keeps the exponentials of its own direction
    # stacks
    exps = chamber._shift_exps(x_dir, np.multiply(STENCIL_OFFSETS, fd_step))
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
