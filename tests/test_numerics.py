import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbitsym.model import SpecialLinearModel
from orbitsym.numerics import (
    EXP_NORM_CAP,
    EXP_TAYLOR_DEGREE,
    SingularInput,
    _halvings,
    central_diff,
    char_poly,
    mat_exp,
    qr_positive,
)


def random_invertible(seed, n):
    """Well-conditioned invertible matrix: product of two exponentials."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n))
    b = rng.uniform(-0.5, 0.5, (n, n))
    return mat_exp(a) @ mat_exp(b)


class TestQrPositive:
    def test_identity(self):
        q, r = qr_positive(np.eye(2))
        assert_allclose(q, np.eye(2), atol=1e-15)
        assert_allclose(r, np.eye(2), atol=1e-15)

    def test_rotation_input_forces_trivial_r(self):
        t = 0.7
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        q, r = qr_positive(rot)
        assert_allclose(q, rot, atol=1e-14)
        assert_allclose(r, np.eye(2), atol=1e-14)

    def test_shear_by_hand(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        q, r = qr_positive(m)
        assert_allclose(q, np.eye(2), atol=1e-15)
        assert_allclose(r, m, atol=1e-15)

    @given(st.integers(0, 500), st.integers(2, 8))
    def test_factorization_properties(self, seed, n):
        m = random_invertible(seed, n)
        q, r = qr_positive(m)
        assert np.linalg.norm(m - q @ r) <= 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12
        assert np.min(np.diag(r)) > 0
        assert np.linalg.norm(np.tril(r, -1)) == 0.0

    @given(st.integers(0, 200), st.integers(2, 6))
    def test_idempotent_on_orthogonal_factor(self, seed, n):
        q, _ = qr_positive(random_invertible(seed, n))
        q2, r2 = qr_positive(q)
        assert np.linalg.norm(q2 - q) <= 1e-12
        assert np.linalg.norm(r2 - np.eye(n)) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularInput):
            qr_positive(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_dependent_middle_column_raises(self):
        m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [-1.0, -2.0, 3.0]])
        with pytest.raises(SingularInput, match="column 1"):
            qr_positive(m)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularInput):
            qr_positive(np.zeros((3, 3)))


class TestMatExp:
    def test_zero(self):
        assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3, 4, 4)])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_stack_is_a_fresh_identity(self, shape, zero):
        """An all-zero input skips the Taylor loop and gives what the loop
        gives: exactly I, with +0.0 off the diagonal even for -0.0 input."""
        e = mat_exp(np.full(shape, zero))
        expected = np.broadcast_to(np.eye(4), shape)
        assert np.array_equal(e, expected)
        assert np.array_equal(np.signbit(e), np.signbit(expected))
        e[...] = 2.0  # a writable array of its own, not a view of a shared identity
        assert np.array_equal(mat_exp(np.full(shape, zero)), expected)

    def test_zero_slice_beside_a_nonzero_one_takes_the_same_bits(self):
        x = np.zeros((2, 4, 4))
        x[1, 0, 1] = 0.3
        e = mat_exp(x)
        assert np.array_equal(e[0], np.eye(4))
        assert np.array_equal(np.signbit(e[0]), np.signbit(np.eye(4)))

    def test_diagonal(self):
        a = 1.3
        assert_allclose(
            mat_exp(np.diag([a, -a])), np.diag([math.exp(a), math.exp(-a)]), rtol=1e-13
        )

    def test_nilpotent_terminates(self):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(mat_exp(e12), np.eye(2) + e12, atol=1e-15)

    @given(st.integers(0, 300))
    def test_inverse_pairing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = rng.uniform(-1, 1, (n, n))
        x *= 3.0 / max(1.0, np.linalg.norm(x))
        prod = mat_exp(x) @ mat_exp(-x)
        assert np.linalg.norm(prod - np.eye(n)) <= 1e-11

    @given(st.integers(0, 300))
    def test_determinant_exponentiates_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = rng.uniform(-1, 1, (n, n))
        det = np.linalg.det(mat_exp(x))
        expected = math.exp(np.trace(x))
        assert abs(det - expected) <= 1e-10 * abs(expected)

    def test_overflowing_norm_raises(self):
        """A slice whose Frobenius norm overflows cannot be scaled to the
        cap: it raises, alone or stacked, rather than returning NaN."""
        big = 1e200 * np.diag([1.0, -1.0])
        with np.errstate(over="ignore"):  # the norm's own overflow warning
            with pytest.raises(OverflowError):
                mat_exp(big)
            with pytest.raises(OverflowError):
                mat_exp(np.stack([np.eye(2), big]))

    def test_scaled_norms_are_at_most_the_cap(self):
        """The squaring count is the least that halves a norm to at most
        EXP_NORM_CAP, also for norms a few ulps above cap * 2**k, where a
        count from a rounded log2 stops one halving short."""
        k, j = np.meshgrid(np.arange(59), np.arange(63), indexing="ij")
        norms = np.concatenate([
            (EXP_NORM_CAP * 2.0 ** k * (1.0 + j * 2.0 ** -52)).ravel(),
            EXP_NORM_CAP * np.array([1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52]),
            [0.0, 5e-324, 1e-300, 0.3, 1.0, 10.0, 1e300, np.finfo(float).max],
        ])
        counts = _halvings(norms)
        for norm, count in zip(norms.tolist(), counts.tolist()):
            least = 0
            while norm > EXP_NORM_CAP:
                norm, least = norm / 2.0, least + 1
            assert count == least
        assert (np.ldexp(norms, -counts) <= EXP_NORM_CAP).all()

    def test_accuracy_at_norm_ten(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (4, 4))
        x *= 10.0 / np.linalg.norm(x)
        eigres = np.linalg.eig(x)
        expected = (eigres.eigenvectors @ np.diag(np.exp(eigres.eigenvalues))
                    @ np.linalg.inv(eigres.eigenvectors)).real
        assert np.linalg.norm(mat_exp(x) - expected) <= 1e-12 * np.linalg.norm(expected)


class TestCentralDiff:
    def test_square_function(self):
        d = central_diff(lambda t: t * t, 1.0, 1e-3)
        assert abs(d - 2.0) <= 1e-9

    def test_constant(self):
        assert central_diff(lambda t: 4.5, 0.0, 1e-3) == 0.0

    def test_exponential_error_bound(self):
        d = central_diff(math.exp, 0.0, 1e-3)
        assert abs(d - 1.0) <= 1e-11

    @given(st.tuples(*[st.floats(-2, 2) for _ in range(5)]), st.floats(-1, 1))
    def test_exact_on_quartics(self, coeffs, t):
        poly = np.polynomial.Polynomial(coeffs)
        deriv = poly.deriv()
        d = central_diff(poly, t, 1e-2)
        assert abs(d - deriv(t)) <= 1e-9

    def test_matrix_valued(self):
        d = central_diff(lambda t: np.array([[t * t, t], [0.0, 1.0]]), 1.0, 1e-3)
        assert_allclose(d, [[2.0, 1.0], [0.0, 0.0]], atol=1e-9)


class TestCharPoly:
    def test_diagonal_by_hand(self):
        assert_allclose(char_poly(np.diag([1.0, 0.0, -1.0])), [1.0, 0.0, -1.0, 0.0], atol=1e-14)

    @given(st.integers(0, 300))
    def test_matches_numpy_poly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = rng.uniform(-2, 2, (n, n))
        assert_allclose(char_poly(m), np.poly(m), atol=1e-9 * max(1.0, np.linalg.norm(m)) ** n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_plain_recursion(self, n):
        """The in-place recursion gives the coefficients of the plain
        Faddeev-LeVerrier loop, which adds c_{k-1} I as a full matrix and
        takes ``np.trace``, bit for bit, on stacks of one to two leading
        axes with slices of very different norms."""
        rng = np.random.default_rng(70 + n)
        stack = rng.standard_normal((3, 4, n, n)) * np.array([1e-3, 1.0, 30.0])[:, None, None, None]
        for m in (stack, stack[1]):
            expected = np.empty((*m.shape[:-2], n + 1))
            expected[..., 0] = 1.0
            mk = np.zeros(m.shape)
            for k in range(1, n + 1):
                mk = m @ (mk + expected[..., k - 1, None, None] * np.eye(n))
                expected[..., k] = -np.trace(mk, axis1=-2, axis2=-1) / k
            assert np.array_equal(char_poly(m), expected)


def mixed_norm_stack(seed, n):
    """Stack whose slices need 0, 1 and several squarings in ``mat_exp``,
    in a (2, 3) layout so that leading axes are exercised too."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, (6, n, n))
    norms = np.array([0.3, 0.9, 7.0, 0.45, 40.0, 1e-3])
    return (raw * (norms / np.linalg.norm(raw, axis=(-2, -1)))[:, None, None]).reshape(2, 3, n, n)


class TestStackedTwins:
    """Stacking invariance: every slice of a stacked kernel call equals
    the call on that slice alone, bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_mat_exp_mixed_norms_match_single_calls(self, n):
        stack = mixed_norm_stack(n, n)
        squarings = {
            0 if nrm <= EXP_NORM_CAP else math.ceil(math.log2(nrm / EXP_NORM_CAP))
            for nrm in np.linalg.norm(stack, axis=(-2, -1)).ravel()
        }
        assert {0, 1} <= squarings and max(squarings) >= 4
        got = mat_exp(stack)
        assert got.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert np.array_equal(got[index], mat_exp(stack[index]))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_char_poly_and_qr_match_single_calls(self, n):
        matrices = np.stack([random_invertible(n + i, n) for i in range(6)]).reshape(3, 2, n, n)
        coeffs = char_poly(matrices)
        q, r = qr_positive(matrices)
        assert coeffs.shape == (3, 2, n + 1)
        for index in np.ndindex(3, 2):
            assert np.array_equal(coeffs[index], char_poly(matrices[index]))
            q1, r1 = qr_positive(matrices[index])
            assert np.array_equal(q[index], q1)
            assert np.array_equal(r[index], r1)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_killing_matches_single_calls(self, n):
        """Stacks (3, 1, n, n) and (2, n, n) broadcast to (3, 2) values;
        two matrices give a numpy float64."""
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, (3, 1, n, n))
        y = rng.uniform(-1, 1, (2, n, n))
        values = model.killing(x, y)
        assert values.shape == (3, 2)
        for i, j in np.ndindex(3, 2):
            single = model.killing(x[i, 0], y[j])
            assert isinstance(single, np.float64)
            assert values[i, j] == single

    def test_singular_slice_raises_with_its_column(self):
        dependent = [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [-1.0, -2.0, 3.0]]
        stack = np.stack([np.eye(3), dependent])
        with pytest.raises(SingularInput, match="column 1"):
            qr_positive(stack[1])
        with pytest.raises(SingularInput, match="column 1"):
            qr_positive(stack)

    def test_empty_stack_gives_empty_results(self):
        empty = np.zeros((0, 3, 3))
        assert mat_exp(empty).shape == (0, 3, 3)
        assert char_poly(empty).shape == (0, 4)
        assert [a.shape for a in qr_positive(empty)] == [(0, 3, 3)] * 2
        assert mat_exp(np.zeros((4, 0, 3, 3))).shape == (4, 0, 3, 3)
        assert SpecialLinearModel(3).killing(empty, np.eye(3)).shape == (0,)

    @pytest.mark.parametrize("kernel", [mat_exp, char_poly, qr_positive])
    def test_nonfinite_slice_rejected_like_single_calls(self, kernel):
        stack = np.stack([np.eye(2), [[1.0, float("nan")], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="finite"):
            kernel(stack[1])
        with pytest.raises(ValueError, match="finite"):
            kernel(stack)


def taylor_reference(x):
    """The full scaling-and-squaring exponential, written out one slice at
    a time, in C order: halve until the norm is at most EXP_NORM_CAP; sum
    the series to degree EXP_TAYLOR_DEGREE as Paterson and Stockmeyer
    do, from the blocks B_j = sum_i Y^i / (4j + i)! (i = 0..3, zero past
    the degree), each summed from Y upward with 1/(4j)! added to its
    diagonal last, and Horner's rule in Y^4; square back."""
    out = np.empty_like(x)
    n = x.shape[-1]
    coeff = [1.0 / math.factorial(k) if k <= EXP_TAYLOR_DEGREE else 0.0 for k in range(20)]
    for index in np.ndindex(x.shape[:-2]):
        y, count = np.array(x[index], order="C"), 0
        while np.linalg.norm(y) > EXP_NORM_CAP:
            y, count = y / 2.0, count + 1
        powers = [None, y, y @ y, y @ y @ y]
        blocks = []
        for j in range(5):
            block = coeff[4 * j + 1] * powers[1]
            for i in (2, 3):
                block = block + coeff[4 * j + i] * powers[i]
            for d in range(n):
                block[d, d] += coeff[4 * j]
            blocks.append(block)
        y4 = powers[2] @ powers[2]
        acc = blocks[4]
        for j in range(3, -1, -1):
            acc = y4 @ acc + blocks[j]
        for _ in range(count):
            acc = acc @ acc
        out[index] = acc
    return out


def exact_nilpotent_exp(x):
    """exp(x) of a nilpotent (n, n) float matrix as exact rationals: the
    finite sum of x^k / k! for k < n, in Fractions of its entries."""
    n = x.shape[-1]
    xs = [[Fraction(v) for v in row] for row in x.tolist()]
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = [row[:] for row in term]
    for k in range(1, n):
        term = [[sum(term[i][m] * xs[m][j] for m in range(n)) / k for j in range(n)]
                for i in range(n)]
        total = [[t + u for t, u in zip(row, new)] for row, new in zip(total, term)]
    return total


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def strictly_upper(rng, count, n, norm):
    """Strictly upper-triangular slices of the given Frobenius norm, with
    exact zeros and -0.0 among their entries, on and below the diagonal
    too."""
    raw = np.triu(rng.uniform(-1, 1, (count, n, n)), 1)
    raw[rng.random(raw.shape) < 0.3] = 0.0
    raw[:, 0, -1] = 1.0  # no slice is all zero
    y = raw * (norm / np.linalg.norm(raw, axis=(-2, -1)))[:, None, None]
    return np.where(rng.random(y.shape) < 0.2, -0.0 * np.sign(y + 0.5), y)


class TestFiniteTaylorSeries:
    """On strictly triangular stacks, where the Taylor sum is finite,
    every bit, signs of zero included, is the full degree-18 sum's, alone
    and in any stack."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("norm", [1e-8, 0.3, 3.0, 30.0])
    def test_triangular_stacks_match_the_full_sum(self, n, norm):
        rng = np.random.default_rng([n, int(norm * 1e8)])
        up = strictly_upper(rng, 4, n, norm)
        low = np.swapaxes(strictly_upper(rng, 4, n, norm), -1, -2)
        mixed = np.concatenate([up[:2], low[:2]])
        for stack in (up, low, mixed, np.stack([up, -up]), np.stack([mixed, -mixed])):
            assert_same_bits(mat_exp(stack), taylor_reference(stack))
            assert_same_bits(mat_exp(stack[0]), taylor_reference(stack[0]))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("norm", [1e-8, 0.3, 3.0, 30.0])
    def test_nilpotent_stacks_meet_the_exact_series(self, n, norm):
        """An oracle that shares no arithmetic with the kernel: every entry
        is within 4 ulps of the largest entry of the exact rational sum."""
        rng = np.random.default_rng([n, int(norm * 1e8), 1])
        stack = np.concatenate([strictly_upper(rng, 2, n, norm),
                                np.swapaxes(strictly_upper(rng, 2, n, norm), -1, -2)])
        got = mat_exp(stack)
        for slice_, e in zip(stack, got):
            exact = exact_nilpotent_exp(slice_)
            ulp = np.spacing(max(abs(float(v)) for row in exact for v in row))
            assert max(abs(Fraction(g) - v) for got_row, row in zip(e.tolist(), exact)
                       for g, v in zip(got_row, row)) <= 4 * ulp

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_a_triangular_slice_takes_the_same_bits_in_any_stack(self, n):
        """Alone, beside a full slice (which runs the full sum over the
        whole stack) and beside triangular slices, a slice's bits agree."""
        rng = np.random.default_rng(n)
        tri = np.concatenate([strictly_upper(rng, 2, n, 2.0),
                              np.swapaxes(strictly_upper(rng, 2, n, 0.4), -1, -2)])
        full = rng.uniform(-1, 1, (n, n))
        with_full = mat_exp(np.concatenate([tri, full[None]]))
        stacked = mat_exp(tri)
        for i, slice_ in enumerate(tri):
            alone = mat_exp(slice_)
            assert_same_bits(with_full[i], alone)
            assert_same_bits(stacked[i], alone)
        assert_same_bits(with_full[-1], mat_exp(full))
