import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbitsym import (
    SpecialLinearModel,
    fd_iwasawa_velocities,
    infinitesimal_iwasawa,
    iwasawa,
    mat_exp,
    random_combination,
    split_kan,
)
from orbitsym.iwasawa import _require_det_one


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestFactorization:
    def test_identity(self):
        fac = iwasawa(np.eye(3))
        assert_allclose(fac.k_factor, np.eye(3), atol=1e-14)
        assert_allclose(fac.a_factor, np.eye(3), atol=1e-14)
        assert_allclose(fac.n_factor, np.eye(3), atol=1e-14)
        assert_allclose(fac.h_projection, np.zeros((3, 3)), atol=1e-14)

    def test_unipotent_input(self):
        g = np.array([[1.0, 0.4, -0.2], [0.0, 1.0, 0.9], [0.0, 0.0, 1.0]])
        fac = iwasawa(g)
        assert_allclose(fac.k_factor, np.eye(3), atol=1e-14)
        assert_allclose(fac.a_factor, np.eye(3), atol=1e-14)
        assert_allclose(fac.n_factor, g, atol=1e-14)

    def test_diagonal_input_by_hand(self):
        g = np.diag([2.0, 0.5])
        fac = iwasawa(g)
        assert_allclose(fac.k_factor, np.eye(2), atol=1e-14)
        assert_allclose(fac.a_factor, g, atol=1e-14)
        assert_allclose(fac.h_projection, np.diag([math.log(2.0), -math.log(2.0)]), atol=1e-14)

    @given(st.integers(0, 400), st.integers(2, 6))
    def test_reconstruction(self, seed, n):
        model = SpecialLinearModel(n)
        g = model.random_group_element(seed, 1.2 / n)
        fac = iwasawa(g)
        assert np.linalg.norm(g - fac.reconstruct()) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(fac.k_factor.T @ fac.k_factor - np.eye(n)) <= 1e-12
        assert np.min(np.diag(fac.a_factor)) > 0
        assert_allclose(np.diag(fac.n_factor), np.ones(n))
        assert abs(np.trace(fac.h_projection)) <= 1e-12

    @given(st.integers(0, 300), st.integers(2, 5))
    def test_recovers_assembled_factors(self, seed, n):
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(seed)
        k = model.random_orthogonal(rng, 1.0 / n)
        a = mat_exp(random_combination(model.a_basis, rng, 0.5))
        u = mat_exp(random_combination(model.n_basis, rng, 0.5))
        fac = iwasawa(k @ a @ u)
        scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(u))
        assert np.linalg.norm(fac.k_factor - k) <= 1e-12 * scale
        assert np.linalg.norm(fac.a_factor - a) <= 1e-12 * scale
        assert np.linalg.norm(fac.n_factor - u) <= 1e-12 * scale

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            iwasawa(2.0 * np.eye(2))
        with pytest.raises(ValueError, match="determinant"):
            iwasawa(np.diag([1.0, -1.0]))


class TestInfinitesimal:
    def test_identity_witness_reduces_to_plain_split(self, model3):
        x = model3.random_algebra_element(21, 1.0)
        inf = infinitesimal_iwasawa(x, np.eye(3))
        xk, xa, xn = split_kan(x)
        assert_allclose(inf.k_deriv, xk, atol=1e-14)
        assert_allclose(inf.a_deriv, xa, atol=1e-14)
        assert_allclose(inf.n_deriv, xn, atol=1e-14)

    def test_nilpotent_direction_at_identity(self, model3):
        x = unit(3, 0, 2)
        inf = infinitesimal_iwasawa(x, np.eye(3))
        assert np.all(inf.k_deriv == 0)
        assert np.all(inf.a_deriv == 0)
        assert_allclose(inf.n_deriv, x)

    @given(st.integers(0, 300), st.integers(2, 5))
    def test_reconstruction_identity(self, seed, n):
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(seed)
        x = model.random_algebra_element(rng, 1.5 / n)
        g = model.random_group_element(rng, 1.2 / n)
        fac = iwasawa(g)
        inf = infinitesimal_iwasawa(x, g, factors=fac)
        an = fac.an_factor()
        y = an @ x @ np.linalg.inv(an)
        recon = inf.k_deriv + inf.a_deriv + an @ inf.n_deriv @ np.linalg.inv(an)
        assert np.linalg.norm(y - recon) <= 1e-12 * max(1.0, np.linalg.norm(y))
        assert np.linalg.norm(inf.k_deriv + inf.k_deriv.T) == 0.0
        assert np.linalg.norm(inf.a_deriv - np.diag(np.diag(inf.a_deriv))) == 0.0
        assert np.linalg.norm(np.tril(inf.n_deriv)) == 0.0

    @given(st.integers(0, 150), st.integers(2, 5))
    def test_matches_finite_differences(self, seed, n):
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(seed)
        x = model.random_algebra_element(rng, 1.5 / n)
        g = model.random_group_element(rng, 1.2 / n)
        inf = infinitesimal_iwasawa(x, g)
        k_fd, a_fd, n_fd = fd_iwasawa_velocities(x, g)
        tol = 1e-6 * max(1.0, np.linalg.norm(x) * np.linalg.norm(g))
        assert np.linalg.norm(inf.k_deriv - k_fd) <= tol
        assert np.linalg.norm(inf.a_deriv - a_fd) <= tol
        assert np.linalg.norm(inf.n_deriv - n_fd) <= tol

    def test_depends_on_witness_only_through_triangular_part(self, model4):
        rng = np.random.default_rng(8)
        x = model4.random_algebra_element(rng, 0.4)
        g = model4.random_group_element(rng, 0.3)
        fac = iwasawa(g)
        inf_g = infinitesimal_iwasawa(x, g, factors=fac)
        inf_an = infinitesimal_iwasawa(x, fac.an_factor())
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(g))
        assert np.linalg.norm(inf_g.k_deriv - inf_an.k_deriv) <= 1e-12 * scale
        assert np.linalg.norm(inf_g.a_deriv - inf_an.a_deriv) <= 1e-12 * scale
        assert np.linalg.norm(inf_g.n_deriv - inf_an.n_deriv) <= 1e-12 * scale


class TestFiniteDifferenceOracle:
    def test_zero_direction(self, model3):
        g = model3.random_group_element(5, 0.4)
        k_fd, a_fd, n_fd = fd_iwasawa_velocities(np.zeros((3, 3)), g)
        assert np.linalg.norm(k_fd) <= 1e-12
        assert np.linalg.norm(a_fd) <= 1e-12
        assert np.linalg.norm(n_fd) <= 1e-12

    def test_diagonal_curve_stays_diagonal(self, model3):
        x = np.diag([0.7, -0.2, -0.5])
        k_fd, a_fd, n_fd = fd_iwasawa_velocities(x, np.eye(3))
        assert np.linalg.norm(k_fd) <= 1e-9
        assert_allclose(a_fd, x, atol=1e-9)
        assert np.linalg.norm(n_fd) <= 1e-9


class TestStackedFactorization:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_matches_single_calls(self, n):
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(61)
        stack = np.stack([model.random_group_element(rng, 0.5) for _ in range(6)])
        stack = stack.reshape(2, 3, n, n)
        fac = iwasawa(stack)
        for index in np.ndindex(2, 3):
            single = iwasawa(stack[index])
            for name in ("k_factor", "a_factor", "n_factor", "h_projection"):
                assert np.array_equal(getattr(fac, name)[index], getattr(single, name)), name

    def test_empty_stack_gives_empty_factors(self):
        fac = iwasawa(np.zeros((0, 3, 3)))
        for name in ("k_factor", "a_factor", "n_factor", "h_projection"):
            assert getattr(fac, name).shape == (0, 3, 3), name

    def test_wrong_determinant_slice_raises_like_iwasawa(self):
        stack = np.stack([np.eye(2), np.diag([2.0, 1.0])])
        with pytest.raises(ValueError, match="group element must have determinant 1"):
            iwasawa(stack[1])
        with pytest.raises(ValueError, match="group element must have determinant 1"):
            iwasawa(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_slice_fails_the_determinant_check(self, bad):
        """A slice with a NaN or Inf entry has no determinant 1: slogdet gives
        it a NaN sign and log, which no comparison passes, so it is rejected
        with the determinant message, alone or behind a good slice.  (The
        suites raise numpy's invalid operation in slogdet itself.)"""
        broken = np.eye(3)
        broken[0, 1] = bad
        with np.errstate(invalid="ignore"):
            for g in (broken, np.stack([np.eye(3), broken]), np.stack([broken, np.eye(3)])):
                with pytest.raises(ValueError, match="group element must have determinant 1"):
                    _require_det_one(g)
            with pytest.raises(ValueError, match="group element must have determinant 1"):
                iwasawa(np.stack([np.eye(3), broken]))
        _require_det_one(np.stack([np.eye(3), np.eye(3)]))
