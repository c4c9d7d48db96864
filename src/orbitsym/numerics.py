"""Dense real matrix kernel shared by every other module.

Everything here targets small fixed-size problems (n <= 8): Householder
QR (LAPACK) with a sign fix for strictly positive pivots, a
scaling-and-squaring matrix exponential (the least number of halvings
that takes the Frobenius norm to at most 1/2, read exactly from the
norm's binary exponent, and the degree-18 Taylor sum in 7 matrix
products by Paterson and Stockmeyer's method), characteristic
polynomials without an eigensolve, and fourth-order central differences
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

# Scaling-and-squaring parameters: halve until the norm is at most the cap,
# then sum the Taylor series to the fixed degree.
EXP_NORM_CAP = 0.5
EXP_TAYLOR_DEGREE = 18
_CAP_FRACTION, _CAP_EXPONENT = math.frexp(EXP_NORM_CAP)
# The series' coefficients 1/k!, zero past the degree, as the five blocks of
# its Paterson-Stockmeyer sum: _EXP_BLOCK_COEFFS[i] holds, for each block
# j, the coefficient of Y^i in B_j, that of Y^(4j + i), shaped to scale a
# stack (m, n, n) into all five blocks (5, m, n, n) at once.
_EXP_BLOCK_COEFFS = np.array([
    1.0 / math.factorial(k) if k <= EXP_TAYLOR_DEGREE else 0.0
    for k in range(4 * (EXP_TAYLOR_DEGREE // 4 + 1))
]).reshape(-1, 4).T[:, :, None, None, None]

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


def _halvings(norms: np.ndarray) -> np.ndarray:
    """The least count s >= 0 with norm * 2**-s <= EXP_NORM_CAP, for every
    norm, read exactly from the binary exponents: with norm = f * 2**e and
    the cap g * 2**c (f, g in [1/2, 1)), s = e - c, plus one when f > g.
    Raises ``OverflowError`` for a norm that overflowed, which no count
    scales back to the cap."""
    if not norms.max(initial=0.0) < math.inf:
        raise OverflowError("matrix norm overflows; mat_exp cannot scale it")
    fraction, exponent = np.frexp(norms)
    exponent += fraction > _CAP_FRACTION
    exponent -= _CAP_EXPONENT
    return np.maximum(exponent, 0, out=exponent)


def mat_exp(x) -> np.ndarray:
    """Matrix exponential of a matrix, or of every slice of a stack
    (..., n, n), by scaling and squaring.

    Halves each slice s times, s the least count that takes its Frobenius
    norm to at most 1/2 (``_halvings``), sums the Taylor series to degree
    18 (remainder ~ 0.5**19/19!) and squares back s times.  Relative error
    stays below 1e-12 for ||X|| <= 10.  The sum is Paterson and
    Stockmeyer's, in 7 matrix products where Horner's rule takes 17: Y^2,
    Y^3 and Y^4; five blocks B_j = sum_i Y^i / (4j + i)! over i = 0..3
    (zero past degree 18), each summed elementwise in a fixed order,
    ((Y/(4j+1)! + Y^2/(4j+2)!) + Y^3/(4j+3)!) and then 1/(4j)! on the
    diagonal; and Horner's rule in Y^4, B_0 + Y^4 (B_1 + Y^4 (...)).
    Every step is a per-slice product or elementwise, so a slice's bits
    do not depend on its stack.  The sum runs over the whole stack and
    each squaring over the slices that still need it.  An all-zero input
    skips the sum, which would give exactly I.
    """
    a = _stack(x)
    n = a.shape[-1]
    if not a.any():
        return np.broadcast_to(np.eye(n), a.shape).copy()
    flat = a.reshape(-1, n, n)
    counts = _halvings(_frobenius_stack(flat))
    # C order whatever the input's layout, so that the blocks are too and
    # the reshape below is a view of their diagonals
    y = np.ldexp(flat, -counts[:, None, None], order="C")
    c0, c1, c2, c3 = _EXP_BLOCK_COEFFS
    y2 = y @ y
    blocks = c1 * y
    blocks += c2 * y2
    blocks += c3 * (y2 @ y)
    diagonals = blocks.reshape(*blocks.shape[:-2], n * n)[..., ::n + 1]
    diagonals += c0[..., 0]
    y4 = y2 @ y2
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = y4 @ acc
        acc += block
    for step in range(counts.max(initial=0)):
        due = counts > step
        if due.all():
            acc = acc @ acc
        else:
            part = acc[due]
            acc[due] = part @ part
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
