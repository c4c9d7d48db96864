import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitsym import (
    DegenerateChart,
    FiberResidual,
    NotOrthogonal,
    NotTangent,
    cotangent_rep,
    flag_point,
    from_cotangent,
    iwasawa,
    mat_exp,
    orbit_chart,
    orbit_point,
    project_ruling,
    solve_generator,
    tangent_vector,
    to_cotangent,
)
from orbitsym.orbit import _dexp, _fiber_coefficients


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestOrbitPoints:
    def test_identity_witness(self, chamber2):
        x = orbit_point(chamber2, np.eye(2))
        assert_allclose(x.point, chamber2.matrix)

    def test_quarter_turn_flips_chamber(self, chamber2):
        k = np.array([[0.0, -1.0], [1.0, 0.0]])
        x = flag_point(chamber2, k)
        assert_allclose(x.point, -chamber2.matrix, atol=1e-14)

    def test_unipotent_witness_by_hand(self, chamber2):
        g = mat_exp(unit(2, 0, 1))
        x = orbit_point(chamber2, g)
        assert_allclose(x.point, [[1.0, -2.0], [0.0, -1.0]], atol=1e-14)

    def test_point_is_isospectral(self, chamber3):
        g = chamber3.model.random_group_element(3, 0.5)
        x = orbit_point(chamber3, g)
        got = np.sort(np.linalg.eigvals(x.point).real)
        assert_allclose(got, np.sort(chamber3.entries), atol=1e-9)

    def test_rejects_non_unimodular_witness(self, chamber2):
        with pytest.raises(ValueError, match="determinant"):
            orbit_point(chamber2, np.diag([2.0, 1.0]))

    def test_witness_and_factorization_share_one_det_threshold(self, chamber2):
        g = np.diag([np.exp(1e-7), 1.0])
        with pytest.raises(ValueError, match="determinant"):
            orbit_point(chamber2, g)
        with pytest.raises(ValueError, match="determinant"):
            iwasawa(g)

    def test_flag_point_rejects_non_rotation(self, chamber2):
        with pytest.raises(NotOrthogonal):
            flag_point(chamber2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_flag_point_rejects_reflection(self, chamber2):
        with pytest.raises(NotOrthogonal):
            flag_point(chamber2, np.diag([1.0, -1.0]))


class TestRulingProjection:
    def test_fixes_zero_section(self, chamber3):
        k = chamber3.model.random_orthogonal(4, 0.5)
        x = flag_point(chamber3, k)
        assert_allclose(project_ruling(x).point, x.point, atol=1e-12)

    def test_unipotent_witness_projects_to_chamber(self, chamber3):
        rng = np.random.default_rng(6)
        g = mat_exp(chamber3.random_fiber(rng, 0.8))
        x = orbit_point(chamber3, g)
        assert_allclose(project_ruling(x).point, chamber3.matrix, atol=1e-12)

    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3"])
    def test_witness_independence_hundred_pairs(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        for i in range(100):
            rng = np.random.default_rng([17, i])
            g = model.random_group_element(rng, 0.4)
            z = mat_exp(chamber.random_centralizer(rng, 0.4)) @ mat_exp(
                chamber.random_compact_centralizer(rng, 0.6)
            )
            p1 = project_ruling(orbit_point(chamber, g)).point
            p2 = project_ruling(orbit_point(chamber, g @ z)).point
            assert np.linalg.norm(p1 - p2) <= 1e-9 * max(1.0, np.linalg.norm(p1))

    def test_displacement_lies_in_conjugated_slice(self, chamber4):
        from orbitsym.iwasawa import iwasawa

        g = chamber4.model.random_group_element(9, 0.35)
        x = orbit_point(chamber4, g)
        fac = iwasawa(g)
        w = fac.k_factor.T @ (x.point - project_ruling(x).point) @ fac.k_factor
        recon = np.zeros_like(w)
        for (i, j) in chamber4.n_positions:
            recon[i, j] = w[i, j]
        assert np.linalg.norm(w - recon) <= 1e-10 * max(1.0, np.linalg.norm(w))


class TestFiberSlice:
    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3", "wall4", "zero2"])
    def test_slice_matches_per_position_loop(self, chamber_name, request, model2):
        chamber = (model2.chamber_element([0, 0]) if chamber_name == "zero2"
                   else request.getfixturevalue(chamber_name))
        n = chamber.model.n
        w = np.random.default_rng(4).normal(size=(n, n))
        coeffs, residual = _fiber_coefficients(chamber, w)
        expected = np.array([w[i, j] for i, j in chamber.n_positions])
        recon = np.zeros_like(w)
        for c, (i, j) in zip(expected, chamber.n_positions):
            recon[i, j] = c
        assert coeffs.shape == (chamber.dim_n,)
        assert np.array_equal(coeffs, expected)
        assert residual == float(np.linalg.norm(w - recon))


class TestCotangentIdentification:
    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3", "chamber4"])
    def test_both_builders_agree_exactly(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        g = chamber.model.random_group_element(5, 0.4)
        x = orbit_point(chamber, g)
        rep = to_cotangent(x)
        same = cotangent_rep(chamber, iwasawa(g).k_factor, x.point - project_ruling(x).point)
        assert np.array_equal(rep.base, same.base)
        assert np.array_equal(rep.fiber, same.fiber)
        assert rep.coords == same.coords

    def test_large_chamber_round_trip_keeps_the_slice(self):
        """Rounding of order eps |H| is measured against the orbit point,
        not the fiber: no FiberResidual at |H| = 1e6."""
        from orbitsym import SpecialLinearModel

        model = SpecialLinearModel(3)
        chamber = model.chamber_element([10**6, 0, -10**6])
        for i in range(20):
            rng = np.random.default_rng([41, i])
            k = model.random_orthogonal(rng, 1.5 / model.n)
            v = k @ chamber.random_fiber(rng, 0.8) @ k.T
            rep = cotangent_rep(chamber, k, v)
            back = to_cotangent(from_cotangent(rep))
            scale = np.linalg.norm(chamber.matrix)
            assert np.linalg.norm(back.base - rep.base) <= 1e-12 * scale
            assert np.linalg.norm(back.fiber - rep.fiber) <= 1e-12 * scale

    def test_zero_section_has_zero_coords(self, chamber3):
        k = chamber3.model.random_orthogonal(12, 0.5)
        rep = to_cotangent(flag_point(chamber3, k))
        assert np.linalg.norm(rep.fiber) <= 1e-12
        assert max(abs(c) for c in rep.coords) <= 1e-11

    def test_nilpotent_witness_keeps_base_at_chamber(self, chamber3):
        rng = np.random.default_rng(2)
        w = chamber3.random_fiber(rng, 0.7)
        x = orbit_point(chamber3, mat_exp(w))
        rep = to_cotangent(x)
        assert_allclose(rep.base, chamber3.matrix, atol=1e-12)
        assert_allclose(rep.fiber, x.point - chamber3.matrix, atol=1e-13)

    def test_two_by_two_witness_closed_form(self, chamber2):
        t = 0.8
        rep = cotangent_rep(chamber2, np.eye(2), t * unit(2, 0, 1))
        x = from_cotangent(rep)
        assert_allclose(x.point, chamber2.matrix + t * unit(2, 0, 1), atol=1e-12)
        # witness solves the fiber equation: exp(-t/2 E12) moves H by +t E12
        assert_allclose(x.witness, mat_exp(-t / 2.0 * unit(2, 0, 1)), atol=1e-12)

    @pytest.mark.parametrize("entries", [[1, -1], [1, 0, -1], [1, 1, -2], [1.5, 0.5, -0.5, -1.5], [1, 1, -1, -1]])
    def test_round_trips_hundred_samples(self, entries):
        from orbitsym import SpecialLinearModel

        model = SpecialLinearModel(len(entries))
        chamber = model.chamber_element(entries)
        for i in range(100):
            rng = np.random.default_rng([23, i])
            g = model.random_group_element(rng, 1.2 / model.n)
            x = orbit_point(chamber, g)
            rep = to_cotangent(x)
            back = from_cotangent(rep)
            scale = max(1.0, np.linalg.norm(x.point))
            assert np.linalg.norm(back.point - x.point) <= 1e-9 * scale

            k = model.random_orthogonal(rng, 1.5 / model.n)
            v = k @ chamber.random_fiber(rng, 0.8) @ k.T
            rep2 = cotangent_rep(chamber, k, v)
            rep3 = to_cotangent(from_cotangent(rep2))
            fscale = max(1.0, np.linalg.norm(v))
            assert np.linalg.norm(rep3.base - rep2.base) <= 1e-9 * fscale
            assert np.linalg.norm(rep3.fiber - rep2.fiber) <= 1e-9 * fscale
            assert np.max(np.abs(np.subtract(rep3.coords, rep2.coords)), initial=0.0) <= 1e-9 * fscale

    def test_fiber_linearity(self, wall3):
        model = wall3.model
        rng = np.random.default_rng(31)
        k = model.random_orthogonal(rng, 0.5)
        v1 = k @ wall3.random_fiber(rng, 0.6) @ k.T
        v2 = k @ wall3.random_fiber(rng, 0.6) @ k.T
        c1 = cotangent_rep(wall3, k, v1).coords
        c2 = cotangent_rep(wall3, k, v2).coords
        c12 = to_cotangent(from_cotangent(cotangent_rep(wall3, k, v1 + v2))).coords
        assert_allclose(c12, np.add(c1, c2), atol=1e-10 * max(1.0, np.max(np.abs(np.add(c1, c2)))))

    def test_coords_pair_fiber_against_moved_basis(self, chamber3):
        model = chamber3.model
        rng = np.random.default_rng(14)
        k = model.random_orthogonal(rng, 0.5)
        v = k @ chamber3.random_fiber(rng, 0.7) @ k.T
        rep = cotangent_rep(chamber3, k, v)
        expected = [model.killing(v, k @ e @ k.T) for e in chamber3.m_basis]
        assert_allclose(rep.coords, expected, atol=1e-12)

    def test_off_slice_fiber_raises(self, chamber2):
        with pytest.raises(FiberResidual):
            cotangent_rep(chamber2, np.eye(2), unit(2, 1, 0))

    def test_exhausted_witness_iteration_raises(self, chamber2):
        from orbitsym import NoNilpotentWitness

        rep = cotangent_rep(chamber2, np.eye(2), 0.5 * unit(2, 0, 1))
        with pytest.raises(NoNilpotentWitness):
            from_cotangent(rep, max_iterations=0)

    @pytest.mark.parametrize("entries", [[1, -1], [1, 0, -1], [1, 1, -2], [1, 1, -1, -1]])
    def test_pairing_matrix_nondegenerate(self, entries):
        from orbitsym import SpecialLinearModel

        model = SpecialLinearModel(len(entries))
        chamber = model.chamber_element(entries)
        pairing = np.array(
            [[model.killing(u, e) for e in chamber.m_basis] for u in chamber.n_basis]
        )
        smin = np.linalg.svd(pairing, compute_uv=False)[-1]
        assert smin > 1e-8
        assert smin == pytest.approx(model.killing_coefficient)


class TestCharts:
    def test_center_and_dimension(self, chamber3):
        g = chamber3.model.random_group_element(41, 0.4)
        x = orbit_point(chamber3, g)
        chart = orbit_chart(x)
        assert chart.dim == 6
        assert_allclose(chart.point(np.zeros(6)).point, x.point, atol=1e-13)

    def test_velocities_agree_at_center(self, chamber3):
        g = chamber3.model.random_group_element(43, 0.4)
        chart = orbit_chart(orbit_point(chamber3, g))
        t0 = np.zeros(chart.dim)
        p, frame = chart.coordinate_frame(t0)
        p_gen, gens = chart.frame_generators(t0)
        assert_allclose(p_gen.point, p.point, atol=1e-13)
        for i in range(chart.dim):
            z = gens[i]
            assert_allclose(frame[i].value, z @ p.point - p.point @ z, atol=1e-13)
            expected = g @ chart.directions[i] @ np.linalg.inv(g)
            assert_allclose(frame[i].generator, expected, atol=1e-13)
            assert_allclose(z, expected, atol=1e-13)

    def test_single_direction_velocity_is_bracket(self, chamber3):
        x = orbit_point(chamber3, np.eye(3))
        d = chamber3.n_basis[0]
        chart = orbit_chart(x, directions=[d])
        _, frame = chart.coordinate_frame(np.zeros(1))
        assert_allclose(frame[0].value, d @ x.point - x.point @ d, atol=1e-14)

    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3", "chamber4"])
    def test_stacked_dexp_matches_per_direction(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        chart = orbit_chart(orbit_point(chamber, chamber.model.random_group_element(45, 0.4)))
        rng = np.random.default_rng(47)
        u = chart._displacement(rng.uniform(-0.3, 0.3, chart.dim))
        # u commutes with itself, so its slice converges after one term
        # and may not stop the series for the others
        directions = [u, *chart.directions]
        stacked = _dexp(u, np.stack(directions))
        assert stacked.shape == (chart.dim + 1,) + u.shape
        for d, got in zip(directions, stacked):
            single = _dexp(u, d)
            assert np.max(np.abs(got - single)) <= 1e-15 * max(1.0, np.max(np.abs(single)))

    def test_centralizer_direction_raises(self, chamber3):
        x = orbit_point(chamber3, np.eye(3))
        with pytest.raises(DegenerateChart):
            orbit_chart(x, directions=[chamber3.z_basis[0]])

    def test_zero_chamber_chart_is_empty(self, model2):
        ch = model2.chamber_element([0, 0])
        chart = orbit_chart(orbit_point(ch, np.eye(2)))
        assert chart.dim == 0


class TestGenerators:
    def test_zero_tangent(self, chamber3):
        x = orbit_point(chamber3, np.eye(3))
        assert np.linalg.norm(solve_generator(x, np.zeros((3, 3)))) <= 1e-12

    def test_regular_direction_minimum_norm(self, chamber2):
        x = orbit_point(chamber2, np.eye(2))
        e12 = unit(2, 0, 1)
        v = e12 @ x.point - x.point @ e12
        z = solve_generator(x, v)
        assert_allclose(z, e12, atol=1e-12)

    def test_not_tangent_raises(self, chamber2):
        x = orbit_point(chamber2, np.eye(2))
        with pytest.raises(NotTangent):
            solve_generator(x, chamber2.matrix)

    def test_solution_is_traceless(self, chamber4):
        g = chamber4.model.random_group_element(19, 0.3)
        x = orbit_point(chamber4, g)
        d = g @ chamber4.m_basis[0] @ np.linalg.inv(g)
        v = d @ x.point - x.point @ d
        z = solve_generator(x, v)
        assert abs(np.trace(z)) <= 1e-11

    def test_tangent_vector_validates_generator(self, chamber2):
        x = orbit_point(chamber2, np.eye(2))
        with pytest.raises(NotTangent):
            tangent_vector(x, unit(2, 0, 1), generator=unit(2, 0, 1))
