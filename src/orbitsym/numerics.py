"""Dense real matrix kernel shared by every other module.

Everything here targets small fixed-size problems (n <= 8): Householder
QR (LAPACK) with a sign fix for strictly positive pivots, a
scaling-and-squaring matrix exponential, minimum-norm least squares,
characteristic polynomials without an eigensolve, and fourth-order
central differences used as the oracle for all derivative claims.
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


class SingularInput(ValueError):
    """Input matrix is rank deficient at working precision."""


class NoSolution(ValueError):
    """Least-squares residual is too large for a requested exact solve."""


def as_matrix(entries) -> np.ndarray:
    """Copy ``entries`` to a read-only float array, rejecting NaN/Inf."""
    m = np.array(entries, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def _square(entries) -> np.ndarray:
    m = as_matrix(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def qr_positive(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor an invertible square matrix as Q R with orthonormal Q and
    upper-triangular R whose diagonal is strictly positive.

    Householder QR (LAPACK) followed by a sign fix: each column of Q and
    row of R whose pivot is negative is flipped, which makes the
    factorization unique.  Raises ``SingularInput`` when a pivot falls
    below ``SINGULAR_RTOL * ||M||``.
    """
    a = _square(m)
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    dependent = np.flatnonzero(np.abs(np.diag(r)) <= SINGULAR_RTOL * np.linalg.norm(a))
    if dependent.size:
        raise SingularInput(f"column {dependent[0]} is linearly dependent at working precision")
    return q * signs, signs[:, None] * r


def mat_exp(x) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    Halves the argument until its Frobenius norm is at most 1/2, sums the
    Taylor series to degree 18 (remainder ~ 0.5**19/19!) and squares back.
    Relative error stays below 1e-12 for ||X|| <= 10.
    """
    a = _square(x)
    n = a.shape[0]
    nrm = np.linalg.norm(a)
    squarings = 0 if nrm <= EXP_NORM_CAP else int(math.ceil(math.log2(nrm / EXP_NORM_CAP)))
    y = a / (2.0 ** squarings)
    ident = np.eye(n)
    acc = np.eye(n)
    for k in range(EXP_TAYLOR_DEGREE, 0, -1):
        acc = ident + (y / k) @ acc
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def solve_least_squares(a, b, *, exact: bool = False, tol: float = 1e-9):
    """Minimum-norm least-squares solution of ``A x = b``.

    Returns ``(x, residual)`` with ``residual = ||A x - b||``.  With
    ``exact=True`` raises ``NoSolution`` when the residual exceeds
    ``tol * max(1, ||b||)``.
    """
    mat = as_matrix(a)
    vec = as_matrix(b).ravel()
    x, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.linalg.norm(mat @ x - vec))
    if exact and residual > tol * max(1.0, float(np.linalg.norm(vec))):
        raise NoSolution(f"residual {residual:.3e} exceeds tolerance for an exact solve")
    return x, residual


def central_diff(f, t: float = 0.0, h: float = 1e-3):
    """Fourth-order central difference of ``f`` at ``t``; error O(h^4).

    Works for scalar- and array-valued ``f`` alike.
    """
    return (f(t - 2 * h) - 8.0 * f(t - h) + 8.0 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


def char_poly(m) -> np.ndarray:
    """Characteristic polynomial coefficients ``[1, c1, ..., cn]``.

    Faddeev-LeVerrier recursion: n matrix products, no eigensolve, so the
    result is deterministic and cheap at these sizes.
    """
    a = _square(m)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    ident = np.eye(n)
    mk = np.zeros((n, n))
    for k in range(1, n + 1):
        mk = a @ (mk + coeffs[k - 1] * ident)
        coeffs[k] = -np.trace(mk) / k
    return coeffs
