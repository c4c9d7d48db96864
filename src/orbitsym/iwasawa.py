"""Iwasawa factorization g = K(g) A(g) N(g) and its derivatives.

For SL(n, R) the factorization is QR with positive pivots: K(g) is the
orthogonal factor, A(g) the positive diagonal of R and N(g) the unit
upper-triangular remainder.  The logarithm of A(g) is the abelian
projection.

The derivative of the factor curves t -> K(g exp(tX)), A(..), N(..) at
t = 0, left-translated to the identity, has a closed form: conjugate X
by A(g)N(g) and split the result into antisymmetric / diagonal /
strictly-upper parts.  The antisymmetric and diagonal parts are the K-
and A-velocities; conjugating the upper part back by (A(g)N(g))^-1
gives the N-velocity.  ``fd_iwasawa_velocities`` recomputes all three by
central differences and serves as the independent oracle.  Each function
takes one matrix or a stack (..., n, n) and gives every slice a single
matrix's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import split_kan
from .numerics import STENCIL_OFFSETS, _stencil_diff, mat_exp, qr_positive

# One threshold for every determinant-one check on a group element or
# orbit witness: |log det g| may not exceed DET_RTOL * max(1, n).
DET_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class IwasawaFactors:
    """Factors of g = k a n: orthogonal k, positive diagonal a, unit
    upper-triangular n, and the diagonal logarithm of a, formed from a's
    pivots when first read."""

    k_factor: np.ndarray
    a_factor: np.ndarray
    n_factor: np.ndarray

    @cached_property
    def h_projection(self) -> np.ndarray:
        return _diagonals(np.log(np.diagonal(self.a_factor, axis1=-2, axis2=-1)))

    def an_factor(self) -> np.ndarray:
        return self.a_factor @ self.n_factor

    def reconstruct(self) -> np.ndarray:
        return self.k_factor @ self.a_factor @ self.n_factor


@dataclass(frozen=True, eq=False)
class InfinitesimalIwasawa:
    """Left-translated factor-curve velocities, one per subalgebra."""

    k_deriv: np.ndarray
    a_deriv: np.ndarray
    n_deriv: np.ndarray


def _require_det_one(g: np.ndarray) -> None:
    """Reject a matrix, or a stack (..., n, n) with any slice, whose
    determinant is not 1.  Each test is the negation of a passing
    comparison, so the NaN sign and log of a slice with a NaN entry fail."""
    sign, logdet = np.linalg.slogdet(g)
    if np.count_nonzero(~(sign > 0) | ~(abs(logdet) <= DET_RTOL * max(1.0, g.shape[-1]))):
        raise ValueError("group element must have determinant 1")


def _diagonals(d: np.ndarray) -> np.ndarray:
    """The diagonal matrices (..., n, n) with the rows (..., n) of ``d``."""
    m = np.zeros((*d.shape, d.shape[-1]))
    np.einsum("...ii->...i", m)[...] = d
    return m


def iwasawa(g) -> IwasawaFactors:
    """Unique factorization of a determinant-one matrix as k a n.  A
    stack (..., n, n) is factored slice by slice, with the arithmetic of
    a single call, into factors of the same shape; ``qr_positive`` checks
    its entries and pivots.  A caller that needs only k of a checked
    witness reads ``qr_positive(g)[0]``, the same bits."""
    mat = np.asarray(g, dtype=float)
    _require_det_one(mat)
    q, r = qr_positive(mat)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    n = (1.0 / diag)[..., :, None] * r
    return IwasawaFactors(k_factor=q, a_factor=_diagonals(diag), n_factor=n)


def infinitesimal_iwasawa(x, g, factors: IwasawaFactors | None = None) -> InfinitesimalIwasawa:
    """Closed-form factor-curve velocities of t -> factors(g exp(tX)).

    ``x`` and ``g`` may be matrices or stacks (..., n, n) that broadcast
    together; each slice gets a single call's velocities.  ``factors``
    may carry a precomputed factorization of g.
    """
    mat = np.asarray(x, dtype=float)
    fac = factors if factors is not None else iwasawa(g)
    an = fac.an_factor()
    conjugated = an @ mat @ np.linalg.inv(an)
    y_k, y_a, y_n = split_kan(conjugated)
    n_deriv = np.linalg.solve(an, y_n @ an)
    return InfinitesimalIwasawa(k_deriv=y_k, a_deriv=y_a, n_deriv=n_deriv)


def fd_iwasawa_velocities(x, g, h: float = 1e-3):
    """Factor-curve velocities by fourth-order central differences,
    left-translated to the identity.  Independent oracle for
    ``infinitesimal_iwasawa``; error O(h^4).  ``x`` and ``g`` may be
    stacks (..., n, n) that broadcast together, as there."""
    mat = np.asarray(x, dtype=float)
    base = np.asarray(g, dtype=float)
    # t = 0 and the stencil points of every slice, factored in one stacked pass
    ts = np.array([0.0, *(o * h for o in STENCIL_OFFSETS)])
    fac = iwasawa(base @ mat_exp(np.multiply.outer(ts, mat)))
    curves = np.stack([fac.k_factor, fac.a_factor, fac.n_factor], axis=1)
    return tuple(np.linalg.solve(curves[0], _stencil_diff(curves[1:], h)))


__all__ = [
    "IwasawaFactors",
    "InfinitesimalIwasawa",
    "fd_iwasawa_velocities",
    "infinitesimal_iwasawa",
    "iwasawa",
]
