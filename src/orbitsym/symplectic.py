"""The two symplectic forms on a hyperbolic adjoint orbit.

The orbit form pairs bracket generators through the Killing form:
omega(x)([Z1, x], [Z2, x]) = <x, [Z1, Z2]>.  The cotangent-bundle form
is minus the exterior derivative of the tautological one-form; under
the bundle identification the tautological form has the closed
expression

    lambda(V) = < x - pr(x), Ad(K(g)) K-velocity >,

where the K-velocity is the antisymmetric part of the Iwasawa factor
derivative along V's generator.  Chart matrices of both forms, the
scalar potential of the abelian Iwasawa projection, and the one-form
cutting out a displaced flag section live here; the seeded verification
suites are in ``suites``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iwasawa import IwasawaFactors, infinitesimal_iwasawa, iwasawa
from .model import ChamberElement, split_kan
from .numerics import central_diff, mat_exp
from .orbit import (
    OrbitChart,
    OrbitPoint,
    TangentVector,
    orbit_point,
    solve_generator,
    to_cotangent,
)


@dataclass(frozen=True, eq=False)
class FormMatrix:
    """Antisymmetric matrix of form values on chart velocity pairs."""

    chart: OrbitChart
    entries: np.ndarray

    def smallest_singular_value(self) -> float:
        if self.entries.size == 0:
            return float("inf")
        return float(np.linalg.svd(self.entries, compute_uv=False)[-1])


def _generator(x: OrbitPoint, v: TangentVector) -> np.ndarray:
    if v.generator is not None:
        return v.generator
    return solve_generator(x, v.value)


def _bracket_pairing(x: OrbitPoint, gens: np.ndarray) -> np.ndarray:
    """Matrix of <x, [Z_i, Z_j]> over a stack of generators (m, n, n).

    With M_ij = tr(x Z_i Z_j) the entries are 2n (M - M^T), exactly
    antisymmetric with a zero diagonal."""
    m = np.einsum("iab,jba->ij", x.point @ gens, gens)
    return x.chamber.model.killing_coefficient * (m - m.T)


def kks(x: OrbitPoint, v: TangentVector, w: TangentVector) -> float:
    """Orbit symplectic form on two tangent vectors at x.

    Value <x, [Z_v, Z_w]>; well defined up to centralizer ambiguity in
    the generators, which the Killing pairing kills.
    """
    gens = np.stack([_generator(x, v), _generator(x, w)])
    return float(_bracket_pairing(x, gens)[0, 1])


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


def _axis(dim: int, i: int, s: float) -> np.ndarray:
    t = np.zeros(dim)
    t[i] = s
    return t


def omega_std_chart(chart: OrbitChart, fd_step: float = 1e-3) -> FormMatrix:
    """Cotangent-bundle form, as minus the exterior derivative of the
    tautological one-form in chart coordinates.

    Entry (i, j) is -(d_i lambda_j - d_j lambda_i)(0), all axes at once
    by one fourth-order ``central_diff``; lambda_j is evaluated on the
    honest coordinate field, so the mixed partials cancel exactly and
    only the finite-difference error survives.  Each of the 4 dim
    stencil points gets one orbit point, one factorization and one
    stacked evaluation of lambda on every coordinate field there.
    """
    m = chart.dim
    entries = np.zeros((m, m))
    if m >= 2:

        def lam(s: float) -> np.ndarray:  # [i, j]: lambda_j at s along axis i
            frames = (chart._dexp_generators(_axis(m, i, s)) for i in range(m))
            return np.array([_tautological_stack(p, iwasawa(p.witness), z) for p, z in frames])

        # d[i, j] = d_i lambda_j; the diagonal is computed but cancels exactly
        d = central_diff(lam, 0.0, fd_step)
        entries = d.T - d
    entries.setflags(write=False)
    return FormMatrix(chart=chart, entries=entries)


def omega_kks_chart(chart: OrbitChart, t=None) -> FormMatrix:
    """Orbit form on the moving frame of the chart.

    The frame generators conjugate along with the point, so every entry
    equals the value at t = 0; re-evaluating on a t-grid measures the
    invariance defect of the floating-point arithmetic.  All pairs come
    from one contraction over the stacked generators.
    """
    if t is None:
        t = np.zeros(chart.dim)
    p, gens = chart.frame_generators(t)
    entries = _bracket_pairing(p, gens)
    entries.setflags(write=False)
    return FormMatrix(chart=chart, entries=entries)


def iwasawa_potential(chamber: ChamberElement, g, k) -> float:
    """Scalar potential <H, log A(g k)> on rotations k.

    Constant along the compact centralizer, so it descends to the flag;
    its negative differential cuts out the displaced section through
    Ad(g) of the flag.
    """
    fac = iwasawa(np.asarray(g, dtype=float) @ np.asarray(k, dtype=float))
    return chamber.model.killing(chamber.matrix, fac.h_projection)


def section_one_form(chamber: ChamberElement, g, k, direction) -> float:
    """One-form whose graph is the displaced flag section, evaluated on
    the flag tangent generated by an antisymmetric ``direction`` at k:
    minus <H, A-velocity of the factor curve>."""
    inf = infinitesimal_iwasawa(direction, np.asarray(g, dtype=float) @ np.asarray(k, dtype=float))
    return -chamber.model.killing(chamber.matrix, inf.a_deriv)


def graph_routes(chamber: ChamberElement, g, k, direction, fd_step: float = 1e-3):
    """Three routes to the same covector value at the flag point of g k.

    Returns (form_value, pairing_value, derivative_value): the section
    one-form, the cotangent covector paired with the projected tangent,
    and minus the central difference of the potential along k exp(tX).
    The first two agree to rounding; the third carries the O(h^4)
    stencil error.
    """
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    x_dir = np.asarray(direction, dtype=float)
    gk = g @ k

    fac = iwasawa(gk)
    inf = infinitesimal_iwasawa(x_dir, gk, factors=fac)
    form_value = -chamber.model.killing(chamber.matrix, inf.a_deriv)

    rep = to_cotangent(orbit_point(chamber, gk))
    kf = fac.k_factor
    pairing_value = rep.pair(kf @ inf.k_deriv @ kf.T)

    derivative_value = -central_diff(
        lambda t: iwasawa_potential(chamber, g, k @ mat_exp(t * x_dir)), 0.0, fd_step
    )
    return form_value, pairing_value, derivative_value


__all__ = [
    "FormMatrix",
    "graph_routes",
    "iwasawa_potential",
    "kks",
    "omega_kks_chart",
    "omega_std_chart",
    "section_one_form",
    "tautological",
]
