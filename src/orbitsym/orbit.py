"""Adjoint-orbit geometry: points, tangents, the ruling, and the
identification of the orbit with the cotangent bundle of its flag.

An orbit point is stored together with a group witness g, its inverse
and the matrix x = g H g^-1.  The orthogonal factor of the witness projects x to the
compact flag orbit (the zero section of the ruling); the difference
x - pr(x) is the fiber part, which lies in the K(g)-conjugate of n(H).
Pairing the fiber against conjugated m(H)-basis elements through the
Killing form gives cotangent coordinates; the inverse direction solves
for a unipotent witness in exp n(H) by back-substitution.

The builders behind the public functions take one matrix or a stack
(..., n, n) and give every slice the single-point result bit for bit:
``_orbit_points``, ``_flag_points``, ``_split`` (``to_cotangent`` after
the factorization), ``_cotangent_reps`` and ``_from_cotangent``.  Each
raises the single call's error for the first failing slice.
``_cotangent`` computes the coordinates of every representative after
its slice check (``_check_fiber``), and the n(H) slice is read through
``ChamberElement._n_index``.  A chart may sit at one base point or at a
stack of them (``OrbitChart``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iwasawa import IwasawaFactors, _require_det_one, iwasawa
from .model import ChamberElement
from .numerics import _frobenius_stack, char_poly, commutator, mat_exp


class NotOrthogonal(ValueError):
    """Flag witnesses must be rotations."""


class FiberResidual(ValueError):
    """Fiber part fails to lie in the conjugated nilpotent slice."""


class NotTangent(ValueError):
    """Vector is not tangent to the orbit at the given point."""


class DegenerateChart(ValueError):
    """Chart directions are dependent modulo the centralizer."""


ORTHO_RTOL = 1e-8
CHAR_RTOL = 1e-9
TRACE_RTOL = 1e-10
# A fiber may leave the conjugated n(H) by FIBER_RTOL times its orbit point.
FIBER_RTOL = 1e-10
# A witness's R factor A N and its inverse may miss the identity by
# INVERSE_RTOL times the product of their norms; neither depends on the
# scale of H.
INVERSE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """An orbit point x = g H g^-1 with its witness g and the inverse g^-1,
    which the chart's frames and the standard form reuse."""

    chamber: ChamberElement
    witness: np.ndarray
    point: np.ndarray
    witness_inverse: np.ndarray


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


def orbit_point(chamber: ChamberElement, witness) -> OrbitPoint:
    """Orbit point g H g^-1 carrying its witness g (determinant one)."""
    g = np.asarray(witness, dtype=float)
    point, g_inv = _orbit_points(chamber, g)
    return OrbitPoint(chamber=chamber, witness=_locked(g), point=_locked(point),
                      witness_inverse=_locked(g_inv))


def _check_on_orbit_stack(chamber: ChamberElement, points: np.ndarray) -> None:
    """Check that a point, or every slice of a stack (..., n, n), is
    traceless and has the chamber's spectrum; the first failing slice
    raises."""
    nx = np.maximum(1.0, _frobenius_stack(points))
    off_trace = np.abs(points.trace(axis1=-2, axis2=-1)) > TRACE_RTOL * nx
    coeffs = char_poly(points)
    powers = nx[..., None] ** np.arange(1, points.shape[-1] + 1)
    off_spectrum = np.abs(coeffs[..., 1:] - chamber.char_coeffs[1:]) > CHAR_RTOL * powers
    failed = off_trace | off_spectrum.any(axis=-1)
    if failed.any():
        first = tuple(np.argwhere(failed)[0])
        if off_trace[first]:
            raise ValueError("orbit point must be traceless")
        raise ValueError("point spectrum does not match the chamber element")


def _orbit_points(chamber: ChamberElement, witnesses) -> tuple[np.ndarray, np.ndarray]:
    """The points g H g^-1 of a witness or of every witness of a stack
    (..., n, n), and the witness inverses, as plain arrays."""
    g = np.asarray(witnesses, dtype=float)
    _require_det_one(g)
    g_inv = np.linalg.inv(g)
    return _conjugates(chamber, g, g_inv), g_inv


def _conjugates(chamber: ChamberElement, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """The points g H g^-1 of witnesses whose determinant was checked,
    given their inverses, after their ``_check_on_orbit_stack``."""
    points = g @ chamber.matrix @ g_inv
    _check_on_orbit_stack(chamber, points)
    return points


def _flag_points(chamber: ChamberElement, k: np.ndarray) -> np.ndarray:
    """The flag points k H k^T of a rotation or of every rotation of a
    stack (..., n, n); the first slice that is no rotation raises
    ``NotOrthogonal``."""
    k_t = np.swapaxes(k, -1, -2)
    off = _frobenius_stack(k_t @ k - np.eye(chamber.model.n)) > ORTHO_RTOL
    if np.any(off | (np.linalg.det(k) < 0)):
        raise NotOrthogonal("flag witness must be a rotation")
    points = k @ chamber.matrix @ k_t
    _check_on_orbit_stack(chamber, points)
    return points


def flag_point(chamber: ChamberElement, k) -> OrbitPoint:
    """Orbit point with rotation witness; lies on the compact flag."""
    mat = np.asarray(k, dtype=float)
    point = _flag_points(chamber, mat)
    return OrbitPoint(chamber=chamber, witness=_locked(mat), point=_locked(point),
                      witness_inverse=_locked(np.linalg.inv(mat)))


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


def _fiber_coefficients(chamber: ChamberElement, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of w on the n(H) basis plus the off-slice residual;
    a stack w (..., n, n) gives coefficients (..., dim_n) and residuals
    (...)."""
    rows, cols = chamber._n_index
    coeffs = w[..., rows, cols]
    recon = np.zeros_like(w)
    recon[..., rows, cols] = coeffs
    return coeffs, _frobenius_stack(w - recon)


def _check_fiber(chamber: ChamberElement, k: np.ndarray, base: np.ndarray,
                 fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = k^T fiber k and its off-slice residuals.  Raise ``FiberResidual`` for
    the first slice that leaves n(H) by more than ``FIBER_RTOL`` |base + fiber|, the
    orbit point whose rounding the residual carries; see ``_cotangent``."""
    w = np.swapaxes(k, -1, -2) @ fiber @ k
    _, residual = _fiber_coefficients(chamber, w)
    off = residual > FIBER_RTOL * np.maximum(1.0, _frobenius_stack(base + fiber))
    if off.any():
        first = float(np.asarray(residual)[off][0])
        raise FiberResidual(f"fiber residual {first:.3e} off the nilpotent slice")
    return w, residual


def _cotangent(chamber: ChamberElement, k: np.ndarray, base: np.ndarray,
               fiber: np.ndarray) -> np.ndarray:
    """Cotangent coordinates (..., dim_m) of the representatives over the
    flag points ``base`` = k H k^T with the given fibers, all stacks
    (..., n, n) that broadcast together, after their ``_check_fiber``."""
    _check_fiber(chamber, k, base, fiber)
    moved = k[..., None, :, :] @ chamber.m_basis @ np.swapaxes(k, -1, -2)[..., None, :, :]
    return chamber.model.killing(fiber[..., None, :, :], moved)


def _rep(chamber: ChamberElement, k, base, fiber, coords) -> CotangentRep:
    """One representative from the arrays of a single-point builder."""
    return CotangentRep(chamber=chamber, base_witness=_locked(k), base=_locked(base),
                        fiber=_locked(fiber), coords=tuple(coords.tolist()))


def _split(chamber: ChamberElement, k: np.ndarray,
           points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``to_cotangent`` of an orbit point, or of every point of a stack
    (..., n, n), given the orthogonal Iwasawa factors k of its witnesses:
    the flag points, fibers and cotangent coordinates."""
    base = _flag_points(chamber, k)
    fiber = points - base
    return base, fiber, _cotangent(chamber, k, base, fiber)


def to_cotangent(x: OrbitPoint) -> CotangentRep:
    """Inverse of the bundle identification: split x into a flag base
    point and a fiber, and read off covector coordinates.

    Raises ``FiberResidual`` when the deconjugated fiber leaves the
    nilpotent slice, which signals witness or rounding breakdown.
    """
    k = iwasawa(x.witness).k_factor
    return _rep(x.chamber, k, *_split(x.chamber, k, x.point))


def _cotangent_reps(chamber: ChamberElement, k: np.ndarray,
                    fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cotangent_rep`` of a rotation and fiber, or of stacks (..., n, n)
    that broadcast together: the flag points and cotangent coordinates.
    The representatives must lie on the orbit."""
    base = _flag_points(chamber, k)
    coords = _cotangent(chamber, k, base, fiber)
    _check_on_orbit_stack(chamber, base + fiber)
    return base, coords


def cotangent_rep(chamber: ChamberElement, base_witness, fiber) -> CotangentRep:
    """Build a cotangent representative from a rotation and a fiber
    matrix given at the base point."""
    k = np.asarray(base_witness, dtype=float)
    v = np.asarray(fiber, dtype=float)
    base, coords = _cotangent_reps(chamber, k, v)
    return _rep(chamber, k, base, v, coords)


def _from_cotangent(chamber: ChamberElement, k: np.ndarray,
                    fiber: np.ndarray) -> tuple[np.ndarray, ...]:
    """``from_cotangent`` of one representative, or of stacks (..., n, n)
    of rotations and fibers that broadcast together: the witnesses k U,
    their orbit points base + fiber and the witness inverses.

    U H = (H + w) U for the deconjugated fiber w = k^T fiber k, read on
    n(H), gives u_ij = (w U)_ij / (H_jj - H_ii) past the diagonal block
    of row i.  That sum reads only the rows past the block, so the rows
    are solved from the bottom up, each over every slice at once.
    """
    h = np.asarray(chamber.entries)
    w = np.swapaxes(k, -1, -2) @ fiber @ k
    u = np.broadcast_to(np.eye(len(h)), w.shape).copy()
    mults = [mult for _, mult in chamber.blocks]
    ends = np.repeat(np.cumsum(mults), mults)  # row i's block ends before column ends[i]
    for i in range(len(h) - 2, -1, -1):
        e = ends[i]
        u[..., i, e:] = (w[..., i, None, e:] @ u[..., e:, e:])[..., 0, :] / (h[e:] - h[i])
    witnesses = k @ u
    return witnesses, *_orbit_points(chamber, witnesses)


def from_cotangent(rep: CotangentRep) -> OrbitPoint:
    """Bundle identification: recover the orbit point base + fiber with a
    witness k U, where U in exp n(H) solves U H U^-1 = H + w for the
    deconjugated fiber w.  The group exp n(H) acts simply transitively on
    the slice H + n(H), and U is found by back-substitution.
    """
    witness, point, w_inv = _from_cotangent(rep.chamber, rep.base_witness, rep.fiber)
    return OrbitPoint(chamber=rep.chamber, witness=_locked(witness), point=_locked(point),
                      witness_inverse=_locked(w_inv))


def solve_generator(x: OrbitPoint, value) -> np.ndarray:
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
    if residual > 1e-9 * scale:
        raise NotTangent(f"residual {residual:.3e} for the bracket equation")
    return z


def _dexp(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-trivialized directional derivative of the exponential:
    returns D with d/ds exp(u + s x)|_0 = exp(u) D, for a stack x (..., n,
    n) and a stack u that broadcasts against it.  The m-th bracket term
    (-ad_u)^m x / (m+1)! is at most (2|u|)^m / (m+1)! |x|, |u| the largest
    Frobenius norm of u; terms are summed until that bound is at most 1e-17
    (39 at most) or a term is zero in every slice, as ad_u^3 x is for a u with
    one nonzero entry.  The count depends on u alone, not on x's slices."""
    term = np.asarray(x, dtype=float)
    total = np.array(term)
    size = 2.0 * float(np.max(_frobenius_stack(np.asarray(u, dtype=float)), initial=0.0))
    bound = 1.0
    for m in range(1, 40):
        term = commutator(u, term) * (-1.0 / (m + 1))
        total += term
        bound *= size / (m + 1)
        if bound <= 1e-17 or not term.any():
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
    agree at t = 0.  ``directions`` holds the X_i as one read-only stack
    (dim, n, n).  The base point ``at`` may be a stack (..., n, n):
    ``point``, ``frame_generators`` and the chart forms then stack over
    the base points, each equal to its own chart's bit for bit.
    """

    at: OrbitPoint
    directions: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.directions)

    def _displacement(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != (self.dim,):
            raise ValueError(f"chart parameter must have shape ({self.dim},)")
        return np.einsum("i,ijk->jk", t, self.directions)

    def point(self, t) -> OrbitPoint:
        """Chart point at t; at t = 0 the base point itself, which is what
        g exp(0) = g rebuilds bit for bit."""
        t = np.asarray(t, dtype=float)
        if t.shape == (self.dim,) and not t.any():
            return self.at
        return orbit_point(self.at.chamber, self.at.witness @ mat_exp(self._displacement(t)))

    def frame_generators(self, t) -> tuple[OrbitPoint, np.ndarray]:
        """Point and all moving-frame generators at t, stacked
        (..., dim, n, n), sharing the point's witness inverse."""
        p = self.point(t)
        return p, p.witness[..., None, :, :] @ self.directions @ p.witness_inverse[..., None, :, :]

    def coordinate_frame(self, t) -> tuple[OrbitPoint, list[TangentVector]]:
        """Point and all coordinate velocity fields at t, sharing the
        point's witness inverse: the field of X_i at t is
        [w dexp(u, X_i) w^-1, x(t)] for the point's witness w and the
        displacement u at t."""
        p = self.point(t)
        zs = p.witness @ _dexp(self._displacement(t), self.directions) @ p.witness_inverse
        return p, [tangent_vector(p, commutator(z, p.point), generator=z) for z in zs]


def _check_directions(chamber: ChamberElement, dirs: np.ndarray) -> None:
    """Raise ``DegenerateChart`` when the stack ``dirs`` (dim, n, n) is
    dependent modulo z(H)."""
    if len(dirs):
        rows = np.concatenate([dirs, chamber.z_basis]).reshape(len(dirs) + chamber.dim_z, -1)
        if np.linalg.matrix_rank(rows, tol=1e-10) < len(rows):
            raise DegenerateChart("directions are dependent modulo the centralizer")


def orbit_chart(x: OrbitPoint, directions=None) -> OrbitChart:
    """Chart through x; defaults to the theta n(H) + n(H) directions, a
    complement of the centralizer.  Raises ``DegenerateChart`` when the
    directions are dependent modulo z(H).  A read-only float stack
    (dim, n, n), such as a chamber basis, is kept as it is; other
    directions are copied into one.  The chamber's own chart stacks
    (``ChamberElement._owns``) skip the rank check: each of their
    matrices lives on off-diagonal entries that no other one and no
    matrix of z(H) touches, so they are independent modulo z(H) by
    construction."""
    chamber = x.chamber
    dirs = chamber._chart_basis if directions is None else np.asarray(directions, dtype=float)
    if dirs.flags.writeable or dirs.shape[1:] != chamber.matrix.shape:
        dirs = _locked(np.reshape(dirs, (-1, *chamber.matrix.shape)))
    if not chamber._owns(dirs):
        _check_directions(chamber, dirs)
    return OrbitChart(at=x, directions=dirs)


__all__ = [
    "CotangentRep",
    "DegenerateChart",
    "FiberResidual",
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
