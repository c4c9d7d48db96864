"""Adjoint-orbit geometry: points, tangents, the ruling, and the
identification of the orbit with the cotangent bundle of its flag.

An orbit point is stored together with a group witness g and the matrix
x = g H g^-1.  The orthogonal factor of the witness projects x to the
compact flag orbit (the zero section of the ruling); the difference
x - pr(x) is the fiber part, which lies in the K(g)-conjugate of n(H).
Pairing the fiber against conjugated m(H)-basis elements through the
Killing form gives cotangent coordinates; the inverse direction solves
for a unipotent witness inside the nilpotent slice.  ``_cotangent`` builds
every ``CotangentRep``; ``_fiber_coefficients`` alone reads the slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .iwasawa import IwasawaFactors, _require_det_one, iwasawa
from .model import ChamberElement
from .numerics import char_poly, commutator, mat_exp


class NotOrthogonal(ValueError):
    """Flag witnesses must be rotations."""


class FiberResidual(ValueError):
    """Fiber part fails to lie in the conjugated nilpotent slice."""


class NoNilpotentWitness(ValueError):
    """Unipotent witness iteration did not converge."""


class NotTangent(ValueError):
    """Vector is not tangent to the orbit at the given point."""


class DegenerateChart(ValueError):
    """Chart directions are dependent modulo the centralizer."""


ORTHO_RTOL = 1e-8
CHAR_RTOL = 1e-9
TRACE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    chamber: ChamberElement
    witness: np.ndarray
    point: np.ndarray


@dataclass(frozen=True, eq=False)
class TangentVector:
    at: OrbitPoint
    value: np.ndarray
    generator: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CotangentRep:
    """Image of an orbit point under the bundle identification.

    ``base_witness`` is a rotation k, ``base`` the flag point k H k^-1,
    ``fiber`` a matrix whose k-deconjugation lies in n(H), and ``coords``
    the Killing pairings of the fiber against the conjugated m(H) basis.
    """

    chamber: ChamberElement
    base_witness: np.ndarray
    base: np.ndarray
    fiber: np.ndarray
    coords: tuple[float, ...]

    def pair(self, generator: np.ndarray) -> float:
        """Covector value on the flag tangent [generator, base]; the
        generator is given at the base point (already conjugated)."""
        return self.chamber.model.killing(self.fiber, generator)


def _locked(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=float)
    m.setflags(write=False)
    return m


def _check_on_orbit(chamber: ChamberElement, point: np.ndarray) -> None:
    nx = max(1.0, float(np.linalg.norm(point)))
    if abs(np.trace(point)) > TRACE_RTOL * nx:
        raise ValueError("orbit point must be traceless")
    coeffs = char_poly(point)
    for k, (got, ref) in enumerate(zip(coeffs[1:], chamber.char_coeffs[1:]), start=1):
        if abs(got - ref) > CHAR_RTOL * nx**k:
            raise ValueError("point spectrum does not match the chamber element")


def orbit_point(chamber: ChamberElement, witness) -> OrbitPoint:
    """Orbit point g H g^-1 carrying its witness g (determinant one)."""
    g = np.asarray(witness, dtype=float)
    _require_det_one(g)
    point = g @ chamber.matrix @ np.linalg.inv(g)
    _check_on_orbit(chamber, point)
    return OrbitPoint(chamber=chamber, witness=_locked(g), point=_locked(point))


def flag_point(chamber: ChamberElement, k) -> OrbitPoint:
    """Orbit point with rotation witness; lies on the compact flag."""
    mat = np.asarray(k, dtype=float)
    n = chamber.model.n
    if np.linalg.norm(mat.T @ mat - np.eye(n)) > ORTHO_RTOL or np.linalg.det(mat) < 0:
        raise NotOrthogonal("flag witness must be a rotation")
    point = mat @ chamber.matrix @ mat.T
    _check_on_orbit(chamber, point)
    return OrbitPoint(chamber=chamber, witness=_locked(mat), point=_locked(point))


def tangent_vector(x: OrbitPoint, value, generator=None) -> TangentVector:
    """Tangent vector at x, optionally with a generator Z, [Z, x] = V."""
    v = np.asarray(value, dtype=float)
    if generator is not None:
        z = np.asarray(generator, dtype=float)
        scale = max(1.0, float(np.linalg.norm(z)) * float(np.linalg.norm(x.point)))
        if np.linalg.norm(commutator(z, x.point) - v) > 1e-10 * scale:
            raise NotTangent("generator does not produce the given value")
        return TangentVector(at=x, value=_locked(v), generator=_locked(z))
    return TangentVector(at=x, value=_locked(v), generator=None)


def project_ruling(x: OrbitPoint, factors: IwasawaFactors | None = None) -> OrbitPoint:
    """Bundle projection onto the compact flag: conjugate H by the
    orthogonal factor of the witness."""
    fac = factors if factors is not None else iwasawa(x.witness)
    return flag_point(x.chamber, fac.k_factor)


def _fiber_coefficients(chamber: ChamberElement, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients of w on the n(H) basis plus the off-slice residual."""
    coeffs = w[chamber._n_index]
    recon = np.zeros_like(w)
    recon[chamber._n_index] = coeffs
    return coeffs, float(np.linalg.norm(w - recon))


def _cotangent(chamber: ChamberElement, k: np.ndarray, base: np.ndarray, fiber: np.ndarray,
               rtol: float) -> CotangentRep:
    """Representative over the flag point ``base`` = k H k^T.  Raises
    ``FiberResidual`` when k^T fiber k leaves n(H) by more than ``rtol``
    |base + fiber|, the orbit point whose rounding the residual carries."""
    _, residual = _fiber_coefficients(chamber, k.T @ fiber @ k)
    if residual > rtol * max(1.0, float(np.linalg.norm(base + fiber))):
        raise FiberResidual(f"fiber residual {residual:.3e} off the nilpotent slice")
    coords = tuple(chamber.model.killing(fiber, k @ e @ k.T) for e in chamber.m_basis)
    return CotangentRep(
        chamber=chamber,
        base_witness=_locked(k),
        base=base,
        fiber=_locked(fiber),
        coords=coords,
    )


def to_cotangent(x: OrbitPoint, rtol: float = 1e-10) -> CotangentRep:
    """Inverse of the bundle identification: split x into a flag base
    point and a fiber, and read off covector coordinates.

    Raises ``FiberResidual`` when the deconjugated fiber leaves the
    nilpotent slice, which signals witness or rounding breakdown.
    """
    fac = iwasawa(x.witness)
    base = project_ruling(x, factors=fac).point
    return _cotangent(x.chamber, fac.k_factor, base, x.point - base, rtol)


def cotangent_rep(chamber: ChamberElement, base_witness, fiber, rtol: float = 1e-10) -> CotangentRep:
    """Build a cotangent representative from a rotation and a fiber
    matrix given at the base point."""
    base = flag_point(chamber, base_witness)
    v = np.asarray(fiber, dtype=float)
    rep = _cotangent(chamber, base.witness, base.point, v, rtol)
    _check_on_orbit(chamber, base.point + v)
    return rep


def from_cotangent(rep: CotangentRep, max_iterations: int = 50, tol: float = 1e-12) -> OrbitPoint:
    """Bundle identification: recover the orbit point base + fiber with a
    witness k exp(Y), Y in n(H).

    The unipotent witness solves Ad(exp Y) H = H + w for the deconjugated
    fiber w.  Quasi-Newton iteration on the n(H) coefficients with the
    diagonal linearization [Y, H]; the nonlinearity only feeds strictly
    upward in the block grading, so the iteration settles in at most n
    steps.
    """
    chamber = rep.chamber
    h = chamber.matrix
    k = rep.base_witness
    w = k.T @ rep.fiber @ k
    target, _ = _fiber_coefficients(chamber, w)
    if len(target) == 0:
        return orbit_point(chamber, k)
    denom = -np.asarray(chamber.n_gaps)  # coords([Y, H]) = -gap * coords(Y)
    coeffs = target / denom
    scale = max(1.0, float(np.linalg.norm(target)))
    for _ in range(max_iterations):
        y = np.zeros_like(w)
        y[chamber._n_index] = coeffs
        displaced = mat_exp(y) @ h @ mat_exp(-y) - h
        current, _ = _fiber_coefficients(chamber, displaced)
        gap = target - current
        if np.linalg.norm(gap) <= tol * scale:
            return orbit_point(chamber, k @ mat_exp(y))
        coeffs = coeffs + gap / denom
    raise NoNilpotentWitness(f"no unipotent witness after {max_iterations} iterations")


def solve_generator(x: OrbitPoint, value, rtol: float = 1e-9) -> np.ndarray:
    """Minimum-norm Z with [Z, x] = V, via least squares on the bracket
    operator.  The minimum-norm solution is orthogonal to the kernel, so
    it is automatically traceless.  Raises ``NotTangent`` when V is not
    in the image of ad(x)."""
    v = np.asarray(value, dtype=float)
    p = x.point
    n = p.shape[0]
    op = np.kron(np.eye(n), p.T) - np.kron(p, np.eye(n))
    z, *_ = np.linalg.lstsq(op, v.ravel(), rcond=None)
    z = z.reshape(n, n)
    residual = float(np.linalg.norm(commutator(z, p) - v))
    scale = max(1.0, float(np.linalg.norm(p)) * float(np.linalg.norm(v)))
    if residual > rtol * scale:
        raise NotTangent(f"residual {residual:.3e} for the bracket equation")
    return z


def _dexp(u: np.ndarray, x: np.ndarray, max_terms: int = 40) -> np.ndarray:
    """Left-trivialized directional derivative of the exponential:
    returns D with d/ds exp(u + s x)|_0 = exp(u) D.  Series in nested
    brackets, summed to machine precision.  ``x`` may be a stack of
    directions (..., n, n); the series then runs until every slice has
    converged."""
    term = np.asarray(x, dtype=float)
    total = np.array(term)
    for m in range(1, max_terms):
        term = commutator(u, term) * (-1.0 / (m + 1))
        total += term
        sizes = np.linalg.norm(term, axis=(-2, -1))
        if np.all(sizes <= 1e-17 * np.maximum(1.0, np.linalg.norm(total, axis=(-2, -1)))):
            break
    return total


@dataclass(frozen=True, eq=False)
class OrbitChart:
    """Chart t -> Ad(g exp(sum t_i X_i)) H around a given point.

    ``coordinate_frame`` returns honest coordinate vector fields
    (pushforwards of the flat coordinates, which commute); away from
    t = 0 these pick up the exponential-derivative correction to the raw
    conjugated directions.  ``frame_generators`` returns the generators
    Ad(g(t)) X_i of the moving frame [Ad(g(t)) X_i, x(t)] instead; the two
    agree at t = 0.
    """

    at: OrbitPoint
    directions: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.directions)

    @cached_property
    def _stack(self) -> np.ndarray:
        """The directions as one (dim, n, n) array."""
        n = self.at.point.shape[0]
        return _locked(np.reshape(self.directions, (self.dim, n, n)))

    def _displacement(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != (self.dim,):
            raise ValueError(f"chart parameter must have shape ({self.dim},)")
        return np.einsum("i,ijk->jk", t, self._stack)

    def point(self, t) -> OrbitPoint:
        u = self._displacement(t)
        return orbit_point(self.at.chamber, self.at.witness @ mat_exp(u))

    def _dexp_generators(self, t) -> tuple[OrbitPoint, np.ndarray]:
        """Point at t and the left-trivialized generators dexp(u, X_i) of
        all coordinate fields, stacked (dim, n, n): the field of X_i at t
        is [w dexp(u, X_i) w^-1, x(t)] for the point's witness w."""
        u = self._displacement(t)
        return self.point(t), _dexp(u, self._stack)

    def frame_generators(self, t) -> tuple[OrbitPoint, np.ndarray]:
        """Point and all moving-frame generators at t, stacked
        (dim, n, n), sharing one witness inversion."""
        p = self.point(t)
        w = p.witness
        return p, w @ self._stack @ np.linalg.inv(w)

    def coordinate_frame(self, t) -> tuple[OrbitPoint, list[TangentVector]]:
        """Point and all coordinate velocity fields at t, sharing one
        witness inversion."""
        p, gens = self._dexp_generators(t)
        w = p.witness
        zs = w @ gens @ np.linalg.inv(w)
        return p, [tangent_vector(p, commutator(z, p.point), generator=z) for z in zs]


def orbit_chart(x: OrbitPoint, directions=None) -> OrbitChart:
    """Chart through x; defaults to the theta n(H) + n(H) directions, a
    complement of the centralizer.  Raises ``DegenerateChart`` when the
    directions are dependent modulo z(H)."""
    chamber = x.chamber
    if directions is None:
        dirs = tuple(chamber.theta_n_basis) + tuple(chamber.n_basis)
    else:
        dirs = tuple(np.asarray(d, dtype=float) for d in directions)
    if dirs:
        rows = [d.ravel() for d in dirs] + [z.ravel() for z in chamber.z_basis]
        stacked = np.stack(rows)
        expected = len(dirs) + len(chamber.z_basis)
        if np.linalg.matrix_rank(stacked, tol=1e-10) < expected:
            raise DegenerateChart("directions are dependent modulo the centralizer")
    return OrbitChart(at=x, directions=tuple(_locked(d) for d in dirs))


__all__ = [
    "CotangentRep",
    "DegenerateChart",
    "FiberResidual",
    "NoNilpotentWitness",
    "NotOrthogonal",
    "NotTangent",
    "OrbitChart",
    "OrbitPoint",
    "TangentVector",
    "cotangent_rep",
    "flag_point",
    "from_cotangent",
    "orbit_chart",
    "orbit_point",
    "project_ruling",
    "solve_generator",
    "tangent_vector",
    "to_cotangent",
]
