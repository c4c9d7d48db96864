"""Concrete Lie-theoretic data for the traceless real matrices sl(n).

The model fixes the Cartan involution X -> -X^T, the Killing form
2n tr(XY), and the Iwasawa splitting of the algebra into antisymmetric,
traceless diagonal and strictly upper-triangular parts.  A chamber
element (a weakly decreasing traceless diagonal H) carries bases of all
the subspaces the orbit geometry needs:

  n(H)    strictly upper entries joining distinct diagonal blocks,
  theta n(H)  their images under the involution,
  z(H)    the centralizer of H (block-diagonal traceless matrices),
  z_K(H)  its antisymmetric part,
  m(H)    the Killing complement of z_K(H) in the antisymmetric matrices.

Downstream modules touch the algebra only through the methods here and
the basis tuples on ``ChamberElement``, so further matrix models can be
added behind the same surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .numerics import char_poly, mat_exp


class NotInChamber(ValueError):
    """Entries are not weakly decreasing with zero sum."""


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _locked(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def split_kan(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a traceless matrix into antisymmetric + diagonal + strictly
    upper-triangular parts, the infinitesimal Iwasawa decomposition.

    With L the strictly lower part of X: the antisymmetric part is
    L - L^T, the diagonal part is diag(X), and the nilpotent part is the
    strictly upper part of what remains.  The components recover X to
    working precision and re-splitting each component is the identity.
    A stack of shape (..., n, n) is split slice by slice.
    """
    a = np.asarray(x, dtype=float)
    lower = np.tril(a, -1)
    lower_t = np.swapaxes(lower, -1, -2)
    x_k = lower - lower_t
    x_a = np.zeros_like(a)
    diag = np.arange(a.shape[-1])
    x_a[..., diag, diag] = a[..., diag, diag]
    x_n = np.triu(a, 1) + lower_t
    return x_k, x_a, x_n


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_combination(basis, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Linear combination of ``basis`` with coefficients uniform in
    [-scale, scale]; ``basis`` must be non-empty."""
    coeffs = rng.uniform(-scale, scale, len(basis))
    return np.einsum("i,ijk->jk", coeffs, np.asarray(basis))


class SpecialLinearModel:
    """sl(n, R) with its standard Iwasawa data.

    Bases, ordered lexicographically by index pairs:
      antisymmetric part  E_ij - E_ji  (i < j),
      diagonal part       E_ii - E_{i+1,i+1},
      nilpotent part      E_ij          (i < j).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        self.n = n
        self.dim = n * n - 1
        self.killing_coefficient = float(2 * n)
        self.k_basis = tuple(
            _locked(_unit(n, i, j) - _unit(n, j, i)) for i in range(n) for j in range(i + 1, n)
        )
        self.a_basis = tuple(
            _locked(_unit(n, i, i) - _unit(n, i + 1, i + 1)) for i in range(n - 1)
        )
        self.n_basis = tuple(
            _locked(_unit(n, i, j)) for i in range(n) for j in range(i + 1, n)
        )
        self.algebra_basis = self.k_basis + self.a_basis + self.n_basis

    def killing(self, x, y) -> float:
        """Killing form 2n tr(XY) on traceless matrices."""
        return self.killing_coefficient * float(np.trace(np.asarray(x) @ np.asarray(y)))

    def cartan_involution(self, x) -> np.ndarray:
        return -np.asarray(x, dtype=float).T

    def chamber_element(self, entries) -> "ChamberElement":
        """Build the chamber element for weakly decreasing, zero-sum
        diagonal entries, with all derived subspace bases.

        Comparisons are exact on the supplied values (Fractions and ints
        compare in exact arithmetic, floats bit for bit); whether two
        entries coincide decides walls versus regular points and must not
        flip under rounding, so entries that differ but round to the same
        float are rejected.
        """
        raw = list(entries)
        if len(raw) != self.n:
            raise NotInChamber(f"expected {self.n} entries, got {len(raw)}")
        try:
            floats = tuple(float(e) for e in raw)
        except OverflowError:
            floats = (math.inf,)
        if not all(math.isfinite(f) for f in floats):
            raise NotInChamber("H entries must be finite")
        exact = all(isinstance(e, (int, Fraction)) for e in raw)
        vals = raw if exact else list(floats)
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise NotInChamber("H not weakly decreasing")
        if any(a != b and fa == fb for a, b, fa, fb in zip(vals, vals[1:], floats, floats[1:])):
            raise NotInChamber("H entries that differ must stay distinct as floats")
        total = sum(vals) if exact else math.fsum(vals)
        if total != 0:
            raise NotInChamber("H entries must sum to zero")

        n = self.n
        block_index = [0] * n
        blocks: list[tuple[float, int]] = []
        for i, v in enumerate(vals):
            if i > 0 and v == vals[i - 1]:
                block_index[i] = block_index[i - 1]
                val, mult = blocks[-1]
                blocks[-1] = (val, mult + 1)
            else:
                block_index[i] = len(blocks)
                blocks.append((float(v), 1))

        matrix = _locked(np.diag(np.asarray(floats)))

        positions = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if block_index[i] != block_index[j]
        )
        n_of_h = tuple(_locked(_unit(n, i, j)) for i, j in positions)
        theta_n_of_h = tuple(_locked(-_unit(n, j, i)) for i, j in positions)
        z_of_h = list(self.a_basis)
        z_of_h += [
            _locked(_unit(n, i, j))
            for i in range(n)
            for j in range(n)
            if i != j and block_index[i] == block_index[j]
        ]
        zk_of_h = tuple(
            _locked(_unit(n, i, j) - _unit(n, j, i))
            for i in range(n)
            for j in range(i + 1, n)
            if block_index[i] == block_index[j]
        )
        m_of_h = tuple(_locked(_unit(n, i, j) - _unit(n, j, i)) for i, j in positions)
        gaps = tuple(floats[i] - floats[j] for i, j in positions)

        return ChamberElement(
            model=self,
            entries=floats,
            blocks=tuple(blocks),
            matrix=matrix,
            n_positions=positions,
            n_gaps=gaps,
            n_basis=n_of_h,
            theta_n_basis=theta_n_of_h,
            z_basis=tuple(z_of_h),
            zk_basis=zk_of_h,
            m_basis=m_of_h,
            char_coeffs=_locked(char_poly(matrix)),
        )

    def random_algebra_element(self, seed, scale: float) -> np.ndarray:
        """Traceless matrix with entries uniform in [-scale, scale],
        deterministic in the seed."""
        rng = _as_rng(seed)
        m = rng.uniform(-scale, scale, (self.n, self.n))
        m -= np.trace(m) / self.n * np.eye(self.n)
        return m

    def random_group_element(self, seed, scale: float, factors: int = 3) -> np.ndarray:
        """Product of up to ``factors`` exponentials of random traceless
        matrices; reaches points far from the identity while keeping the
        conditioning under control.  Determinant is 1 up to rounding."""
        rng = _as_rng(seed)
        g = np.eye(self.n)
        for _ in range(factors):
            g = g @ mat_exp(self.random_algebra_element(rng, scale))
        return g

    def random_orthogonal(self, seed, scale: float) -> np.ndarray:
        """Exponential of a random antisymmetric matrix: a rotation."""
        rng = _as_rng(seed)
        m = self.random_algebra_element(rng, scale)
        return mat_exp((m - m.T) / 2.0)


@dataclass(frozen=True, eq=False)
class ChamberElement:
    """A point H of the closed positive chamber with its derived data.

    ``n_positions`` lists the (i, j) index pairs of n(H) in basis order
    and ``n_gaps`` the corresponding positive differences H_ii - H_jj.
    ``_n_index`` caches the positions as (rows, columns) index arrays, so
    ``w[chamber._n_index]`` reads the n(H) coefficients of w in that order.
    """

    model: SpecialLinearModel
    entries: tuple[float, ...]
    blocks: tuple[tuple[float, int], ...]
    matrix: np.ndarray
    n_positions: tuple[tuple[int, int], ...]
    n_gaps: tuple[float, ...]
    n_basis: tuple[np.ndarray, ...]
    theta_n_basis: tuple[np.ndarray, ...]
    z_basis: tuple[np.ndarray, ...]
    zk_basis: tuple[np.ndarray, ...]
    m_basis: tuple[np.ndarray, ...]
    char_coeffs: np.ndarray

    @cached_property
    def _n_index(self) -> tuple[np.ndarray, ...]:
        return tuple(_locked(np.array(self.n_positions, dtype=np.intp).reshape(-1, 2).T))

    @property
    def dim_n(self) -> int:
        return len(self.n_basis)

    @property
    def dim_z(self) -> int:
        return len(self.z_basis)

    @property
    def dim_zk(self) -> int:
        return len(self.zk_basis)

    @property
    def dim_m(self) -> int:
        return len(self.m_basis)

    @property
    def orbit_dim(self) -> int:
        return 2 * self.dim_n

    @property
    def flag_dim(self) -> int:
        return self.dim_m

    @property
    def is_regular(self) -> bool:
        return all(mult == 1 for _, mult in self.blocks)

    def random_fiber(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        """Random element of n(H)."""
        if not self.n_basis:
            return np.zeros((self.model.n, self.model.n))
        return random_combination(self.n_basis, rng, scale)

    def random_centralizer(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        """Random element of z(H)."""
        return random_combination(self.z_basis, rng, scale)

    def random_compact_centralizer(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        """Random element of z_K(H)."""
        if not self.zk_basis:
            return np.zeros((self.model.n, self.model.n))
        return random_combination(self.zk_basis, rng, scale)


__all__ = [
    "ChamberElement",
    "NotInChamber",
    "SpecialLinearModel",
    "random_combination",
    "split_kan",
]
