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

Each basis is one read-only float stack (dim, n, n).  Downstream modules
touch the algebra only through the methods and the bases here, so
further matrix models can be added behind the same surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .numerics import char_poly, mat_exp

# Shift exponentials kept per chamber: its three chart stacks at two steps.
_SHIFT_EXPS_KEPT = 6


class NotInChamber(ValueError):
    """Entries are not weakly decreasing with zero sum."""


def _units(n: int, plus, minus=()) -> np.ndarray:
    """Read-only stack of the basis matrices E_p, or E_p - E_q when
    ``minus`` is given, for the index pairs p of ``plus`` and q of
    ``minus`` in order, filled through flat index arrays."""
    stack = np.zeros((len(plus), n, n))
    flat = stack.reshape(-1)
    for pairs, value in ((plus, 1.0), (minus, -1.0)):
        if pairs:
            flat[[(slot * n + i) * n + j for slot, (i, j) in enumerate(pairs)]] = value
    stack.setflags(write=False)
    return stack


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


def _uniforms(rngs, scale: float, shape) -> np.ndarray:
    """``rng.uniform(-scale, scale, shape)`` of each generator, stacked
    (len(rngs), *shape) and filled in place.  numpy draws a uniform as
    low + (high - low) * next_double, so scaling each row of doubles by
    2 scale and adding -scale gives the same bits; an empty shape draws
    nothing."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    out *= 2.0 * scale
    out += -scale
    return out


def _combinations(stack: np.ndarray, rngs, scale: float, count: int = 1) -> np.ndarray:
    """``count`` combinations (len(rngs), count, n, n) per generator of a basis
    stack (dim, n, n), uniform in [-scale, scale]; an empty basis draws nothing."""
    # Every basis has entries 0 and +-1, at most two of them nonzero at any
    # position, so each entry is one rounding of at most two exact products
    # (+0 where all vanish) in any summation order: a generator's draws do
    # not depend on the stack.
    dim, n = len(stack), stack.shape[-1]
    coeffs = _uniforms(rngs, scale, (count, dim))
    flat = stack.reshape(dim, n * n)
    return (coeffs.reshape(len(rngs) * count, dim) @ flat).reshape(len(rngs), count, n, n)


def random_combination(basis, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Linear combination of ``basis`` with coefficients uniform in
    [-scale, scale]; an empty basis (0, n, n) gives the zero matrix and
    draws nothing from ``rng``."""
    return _combinations(np.asarray(basis), [rng], scale)[0, 0]


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
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.k_basis = _units(n, upper, [(j, i) for i, j in upper])
        self.a_basis = _units(n, [(i, i) for i in range(n - 1)],
                              [(i + 1, i + 1) for i in range(n - 1)])
        self.n_basis = _units(n, upper)
        self.algebra_basis = _locked(np.concatenate([self.k_basis, self.a_basis, self.n_basis]))

    def killing(self, x, y) -> float | np.ndarray:
        """Killing form 2n tr(XY) on traceless matrices.  Two matrices
        give a float (a numpy float64); stacks (..., n, n) that broadcast
        together give the array (...) of values, slice by slice."""
        return self.killing_coefficient * np.trace(np.asarray(x) @ np.asarray(y), axis1=-2, axis2=-1)

    def cartan_involution(self, x) -> np.ndarray:
        """-X^T, slice by slice for a stack (..., n, n)."""
        return -np.swapaxes(np.asarray(x, dtype=float), -1, -2)

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
        try:
            with np.errstate(over="raise", invalid="raise"):
                char_coeffs = _locked(char_poly(matrix))
        except FloatingPointError:
            raise NotInChamber("characteristic polynomial of H overflows") from None

        positions = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if block_index[i] != block_index[j]
        )
        n_of_h = _units(n, positions)
        same_block = [(i, j) for i in range(n) for j in range(n)
                      if i != j and block_index[i] == block_index[j]]
        zk_pairs = [(i, j) for i, j in same_block if i < j]

        return ChamberElement(
            model=self,
            entries=floats,
            blocks=tuple(blocks),
            matrix=matrix,
            n_positions=positions,
            n_basis=n_of_h,
            theta_n_basis=_locked(self.cartan_involution(n_of_h)),
            z_basis=_locked(np.concatenate([self.a_basis, _units(n, same_block)])),
            zk_basis=_units(n, zk_pairs, [(j, i) for i, j in zk_pairs]),
            m_basis=_units(n, positions, [(j, i) for i, j in positions]),
            char_coeffs=char_coeffs,
        )

    def random_algebra_element(self, seed, scale: float) -> np.ndarray:
        """Traceless matrix with entries uniform in [-scale, scale],
        deterministic in the seed."""
        return self._algebra_elements([_as_rng(seed)], scale)[0, 0]

    def _algebra_elements(self, rngs, scale: float, count: int = 1) -> np.ndarray:
        """``count`` ``random_algebra_element`` draws per generator: (len(rngs), count, n, n)."""
        return self._traceless(_uniforms(rngs, scale, (count, self.n, self.n)))

    def _traceless(self, m: np.ndarray) -> np.ndarray:
        """``m`` with each slice's trace removed from its diagonal, in place."""
        m -= (np.trace(m, axis1=-2, axis2=-1) / self.n)[..., None, None] * np.eye(self.n)
        return m

    def random_group_element(self, seed, scale: float, factors: int = 3) -> np.ndarray:
        """Product of up to ``factors`` exponentials of random traceless
        matrices; reaches points far from the identity while keeping the
        conditioning under control.  Determinant is 1 up to rounding."""
        logs = self._algebra_elements([_as_rng(seed)], scale, factors)[0]
        return self._group_products(mat_exp(logs))

    def _group_products(self, exps: np.ndarray) -> np.ndarray:
        """``random_group_element`` from its factors' exponentials: a stack
        (..., factors, n, n) gives the products (..., n, n)."""
        g = np.eye(self.n)
        for j in range(exps.shape[-3]):
            g = g @ exps[..., j, :, :]
        return g

    def random_orthogonal(self, seed, scale: float) -> np.ndarray:
        """Exponential of a random antisymmetric matrix: a rotation."""
        return mat_exp(self._rotation_logs([_as_rng(seed)], scale)[0, 0])

    def _rotation_logs(self, rngs, scale: float) -> np.ndarray:
        """The logs (len(rngs), 1, n, n) of ``random_orthogonal``, one per generator."""
        m = self._algebra_elements(rngs, scale)
        return (m - np.swapaxes(m, -1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class ChamberElement:
    """A point H of the closed positive chamber with its derived data.

    ``n_positions`` lists the (i, j) index pairs of n(H) in basis order.
    ``_n_index`` caches the positions as (rows, columns) index arrays, so
    ``w[chamber._n_index]`` reads the n(H) coefficients of w in that order.
    Each basis is a read-only (dim, n, n) stack.  What depends on H alone
    is built once per chamber, on first use: ``_chart_basis``, the default
    chart directions, ``_orbit_form``, the orbit form on them, and the
    stencil exponentials of its own stacks (``_shift_exps``), so a chamber
    shared across calls shares them too.
    """

    model: SpecialLinearModel
    entries: tuple[float, ...]
    blocks: tuple[tuple[float, int], ...]
    matrix: np.ndarray
    n_positions: tuple[tuple[int, int], ...]
    n_basis: np.ndarray
    theta_n_basis: np.ndarray
    z_basis: np.ndarray
    zk_basis: np.ndarray
    m_basis: np.ndarray
    char_coeffs: np.ndarray

    @cached_property
    def _n_index(self) -> tuple[np.ndarray, ...]:
        return tuple(_locked(np.array(self.n_positions, dtype=np.intp).reshape(-1, 2).T))

    @cached_property
    def _chart_basis(self) -> np.ndarray:
        """The default chart directions theta n(H) + n(H), one read-only stack."""
        return _locked(np.concatenate([self.theta_n_basis, self.n_basis]))

    @cached_property
    def _orbit_form(self) -> np.ndarray:
        """Omega(H), the orbit form 2n tr(H [X_a, X_b]) on the default chart
        directions, one read-only (dim, dim) matrix from the entries of H.
        For (i, j) in n(H), [-E_ji, E_ij] = E_ii - E_jj, and no other pair of
        directions brackets onto the diagonal, so row (i, j) of each half has
        its one nonzero, +-2n (H_i - H_j), in the other half."""
        d = self.dim_n
        h = np.asarray(self.entries)
        rows, cols = self._n_index
        gaps = self.model.killing_coefficient * (h[rows] - h[cols])
        form = np.zeros((2 * d, 2 * d))
        form[range(d), range(d, 2 * d)] = gaps
        form[range(d, 2 * d), range(d)] = -gaps
        return _locked(form)

    def _owns(self, directions: np.ndarray) -> bool:
        """Whether ``directions`` is one of the chamber's chart stacks
        (``_chart_basis``, ``n_basis`` or ``m_basis``), by identity."""
        return any(directions is own for own in (self._chart_basis, self.n_basis, self.m_basis))

    @cached_property
    def _shift_exps_kept(self) -> dict:
        return {}

    def _shift_exps(self, directions: np.ndarray, offsets) -> np.ndarray:
        """exp(s X) for each s of ``offsets`` and each X of a stack
        ``directions`` (dim, n, n), stacked (len(offsets), dim, n, n).

        For one of the chamber's chart stacks (``_chart_basis``, ``n_basis``
        or ``m_basis``, by identity) the result is computed once per
        offsets and kept read-only, the last ``_SHIFT_EXPS_KEPT`` of them;
        any other stack is exponentiated afresh."""
        offsets = np.asarray(offsets, dtype=float)
        if not self._owns(directions):
            return mat_exp(np.multiply.outer(offsets, directions))
        kept = self._shift_exps_kept
        key = (id(directions), *offsets.tolist())
        if key not in kept:
            if len(kept) == _SHIFT_EXPS_KEPT:
                del kept[next(iter(kept))]
            kept[key] = _locked(mat_exp(np.multiply.outer(offsets, directions)))
        return kept[key]

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
        """Random element of n(H); zero, drawing nothing, when n(H) = 0."""
        return _combinations(self.n_basis, [rng], scale)[0, 0]

    def random_centralizer(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        """Random element of z(H)."""
        return _combinations(self.z_basis, [rng], scale)[0, 0]

    def random_compact_centralizer(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        """Random element of z_K(H); zero, drawing nothing, when z_K(H) = 0."""
        return _combinations(self.zk_basis, [rng], scale)[0, 0]


__all__ = [
    "ChamberElement",
    "NotInChamber",
    "SpecialLinearModel",
    "random_combination",
    "split_kan",
]
