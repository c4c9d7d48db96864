"""Dense real matrix kernel shared by every other module.

Everything here targets small fixed-size problems (n <= 8): Householder
QR (LAPACK) with a sign fix for strictly positive pivots, a
scaling-and-squaring matrix exponential, characteristic polynomials
without an eigensolve, and fourth-order central differences
used as the oracle for all derivative claims.

Every kernel takes one matrix (n, n) or a stack (..., n, n) and gives
every slice the arithmetic of a call on that slice alone, so a stacked
caller gets the single-matrix values bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

# Pivot threshold for rejecting rank-deficient QR inputs, relative to ||M||.
SINGULAR_RTOL = 1e-10

# Scaling-and-squaring parameters: halve until the norm is below the cap,
# then sum the Taylor series to the fixed degree.
EXP_NORM_CAP = 0.5
EXP_TAYLOR_DEGREE = 18

# Points of the fourth-order central-difference stencil, in steps h.
STENCIL_OFFSETS = (-2.0, -1.0, 1.0, 2.0)


class SingularInput(ValueError):
    """Input matrix is rank deficient at working precision."""


def _stack(entries) -> np.ndarray:
    """``entries`` as a float stack (..., n, n) of square matrices,
    rejecting NaN/Inf."""
    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _frobenius_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every slice, each summed as ``np.linalg.norm``
    sums one matrix (a dot product of its entries), so that thresholds
    built on it match a single call's."""
    flat = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _pivots(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The diagonal of the R factor ``r`` of ``a``; raises ``SingularInput``
    for the first slice with a pivot below ``SINGULAR_RTOL * ||M||``."""
    pivots = np.diagonal(r, axis1=-2, axis2=-1)
    dependent = np.abs(pivots) <= SINGULAR_RTOL * _frobenius_stack(a)[..., None]
    if dependent.any():
        column = np.argwhere(dependent)[0, -1]
        raise SingularInput(f"column {column} is linearly dependent at working precision")
    return pivots


def qr_positive(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor an invertible square matrix, or every slice of a stack
    (..., n, n), as Q R with orthonormal Q and upper-triangular R whose
    diagonal is strictly positive.

    Householder QR (LAPACK) followed by a sign fix: each column of Q and
    row of R whose pivot is negative is flipped, which makes the
    factorization unique.  ``_pivots`` checks the pivots.
    """
    a = _stack(m)
    q, r = np.linalg.qr(a)
    signs = np.copysign(1.0, _pivots(a, r))  # the pivots are nonzero
    return q * signs[..., None, :], signs[..., :, None] * r


def _stencil_diff(values, h: float):
    """Fourth-order central difference from the values at the
    ``STENCIL_OFFSETS`` points, stacked along the first axis."""
    f0, f1, f2, f3 = values
    return (f0 - 8.0 * f1 + 8.0 * f2 - f3) / (12.0 * h)


def central_diff(f, t: float = 0.0, h: float = 1e-3):
    """Fourth-order central difference of ``f`` at ``t``; error O(h^4).

    Works for scalar- and array-valued ``f`` alike.
    """
    return _stencil_diff([f(t + o * h) for o in STENCIL_OFFSETS], h)


def mat_exp(x) -> np.ndarray:
    """Matrix exponential of a matrix, or of every slice of a stack
    (..., n, n), by scaling and squaring.

    Halves each slice until its Frobenius norm is at most 1/2, sums the
    Taylor series to degree 18 (remainder ~ 0.5**19/19!) and squares back.
    Relative error stays below 1e-12 for ||X|| <= 10.  The Taylor sum runs
    over the whole stack and each squaring over the slices that still
    need it, so every slice gets its own squaring count.  An all-zero
    input skips the sum, which would give exactly I.
    """
    a = _stack(x)
    n = a.shape[-1]
    if not a.any():
        return np.broadcast_to(np.eye(n), a.shape).copy()
    flat = a.reshape(-1, n, n)
    counts = np.array([
        0 if nrm <= EXP_NORM_CAP else int(math.ceil(math.log2(nrm / EXP_NORM_CAP)))
        for nrm in _frobenius_stack(flat).tolist()
    ], dtype=int)
    y = flat / (2.0 ** counts)[:, None, None]
    ident = np.eye(n)
    # Horner's loop in place, its terms y / k all divided at once; its first
    # step's product with I is exact
    acc = ident + y / EXP_TAYLOR_DEGREE
    product = np.empty_like(y)
    for term in y / np.arange(EXP_TAYLOR_DEGREE - 1, 0, -1.0)[:, None, None, None]:
        np.matmul(term, acc, out=product)
        np.add(ident, product, out=acc)
    for step in range(counts.max(initial=0)):
        due = counts > step
        if due.all():
            acc = acc @ acc
        else:
            acc[due] = acc[due] @ acc[due]
    return acc.reshape(a.shape)


def char_poly(m) -> np.ndarray:
    """Characteristic polynomial coefficients ``[1, c1, ..., cn]`` of a
    matrix, or of every slice of a stack (..., n, n) as (..., n + 1).

    Faddeev-LeVerrier recursion: n matrix products, no eigensolve, so the
    result is deterministic and cheap at these sizes.  M_k = A (M_{k-1} +
    c_{k-1} I) runs in two buffers, each step adding its coefficient to
    the diagonal in place and reading the trace from a strided diagonal view.
    """
    a = _stack(m)
    n = a.shape[-1]
    coeffs = np.empty((*a.shape[:-2], n + 1))
    coeffs[..., 0] = 1.0
    prev, mk = np.zeros(a.shape), np.empty(a.shape)
    prev_diag, mk_diag = (b.reshape(*a.shape[:-2], n * n)[..., ::n + 1] for b in (prev, mk))
    for k in range(1, n + 1):
        prev_diag += coeffs[..., k - 1, None]
        np.matmul(a, prev, out=mk)
        np.divide(np.add.reduce(mk_diag, -1), -k, out=coeffs[..., k])
        prev, mk, prev_diag, mk_diag = mk, prev, mk_diag, prev_diag
    return coeffs
