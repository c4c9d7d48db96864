import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbitsym import (
    DegenerateChart,
    FiberResidual,
    NotOrthogonal,
    NotTangent,
    SpecialLinearModel,
    cotangent_rep,
    flag_point,
    from_cotangent,
    iwasawa,
    mat_exp,
    omega_kks_chart,
    omega_std_chart,
    orbit_chart,
    orbit_point,
    project_ruling,
    solve_generator,
    tangent_vector,
    to_cotangent,
)
from orbitsym import model as model_module
from orbitsym import orbit as orbit_module
from orbitsym import symplectic
from orbitsym.orbit import (
    _check_on_orbit_stack,
    _cotangent_reps,
    _dexp,
    _fiber_coefficients,
    _flag_points,
    _from_cotangent,
    _orbit_points,
    _split,
)


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

    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_round_trips_on_random_chambers(self, data, seed):
        """Chambers of n = 2..8 with random block multiplicities and gaps
        between 0.1 and 2, at random rotations and fibers."""
        n = data.draw(st.integers(2, 8))
        ends = [*sorted(data.draw(st.sets(st.integers(1, n - 1)))), n]
        gaps = [Fraction(data.draw(st.integers(10, 200)), 100) for _ in ends[1:]]
        values = [-sum(gaps[:b]) for b in range(len(ends))]
        entries = [v for v, start, end in zip(values, [0, *ends], ends) for _ in range(start, end)]
        mean = sum(entries) / n
        entries = [e - mean for e in entries]
        model = SpecialLinearModel(n)
        chamber = model.chamber_element(entries)
        rng = np.random.default_rng(seed)
        k = model.random_orthogonal(rng, 1.0)
        v = k @ chamber.random_fiber(rng, 0.8) @ k.T
        rep = cotangent_rep(chamber, k, v)
        back = to_cotangent(from_cotangent(rep))
        fscale = max(1.0, np.linalg.norm(v))
        assert np.linalg.norm(back.base - rep.base) <= 1e-9 * fscale
        assert np.linalg.norm(back.fiber - rep.fiber) <= 1e-9 * fscale
        assert np.max(np.abs(np.subtract(back.coords, rep.coords)), initial=0.0) <= 1e-9 * fscale

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

    def test_center_is_the_base_point(self, chamber3):
        """At zero displacement the chart hands back its base point, which
        rebuilding it from the witness g exp(0) reproduces bit for bit."""
        x = orbit_point(chamber3, chamber3.model.random_group_element(41, 0.4))
        chart = orbit_chart(x)
        t0 = np.zeros(chart.dim)
        assert chart.point(t0) is x
        assert chart.frame_generators(t0)[0] is x
        rebuilt = orbit_point(chamber3, x.witness @ mat_exp(np.zeros((3, 3))))
        assert np.array_equal(rebuilt.witness, x.witness)
        assert np.array_equal(rebuilt.point, x.point)

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

    @pytest.mark.parametrize("scale", [2e-3, 0.3, 1.0])
    def test_dexp_matches_the_block_exponential(self, chamber4, scale):
        """An oracle outside the bracket series: the upper right block of
        exp([[u, x], [0, u]]) is d/ds exp(u + s x) at s = 0, so exp(-u)
        times it is dexp(u, x).  The displacements run from the stencil's
        size up; a series cut short after any bracket term fails, which the
        standard form's central differences alone would not show at the
        stencil's size, since they cancel the even-order error terms."""
        rng = np.random.default_rng(71)
        model = chamber4.model
        n = model.n
        u = np.stack([model.random_algebra_element(rng, scale) for _ in range(3)])
        x = np.stack([model.random_algebra_element(rng, 1.0) for _ in range(3)])
        block = np.zeros((3, 2 * n, 2 * n))
        block[:, :n, :n] = block[:, n:, n:] = u
        block[:, :n, n:] = x
        expected = mat_exp(-u) @ mat_exp(block)[:, :n, n:]
        got = _dexp(u, x)
        assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3", "chamber4"])
    def test_directions_as_list_tuple_or_stack_give_one_chart(self, chamber_name, request):
        """Directions given as a list, a tuple or a (dim, n, n) array give the
        same read-only directions stack, the default chart's, bit for bit,
        and the same orbit form entries."""
        chamber = request.getfixturevalue(chamber_name)
        x = orbit_point(chamber, chamber.model.random_group_element(49, 0.4))
        default = orbit_chart(x)
        stack = np.concatenate([chamber.theta_n_basis, chamber.n_basis])
        for directions in (list(stack), tuple(stack), stack):
            chart = orbit_chart(x, directions=directions)
            assert chart.directions.shape == stack.shape
            assert not chart.directions.flags.writeable
            assert np.array_equal(chart.directions, default.directions)
            assert np.array_equal(omega_kks_chart(chart), omega_kks_chart(default))
        assert stack.flags.writeable  # the caller's array is copied, not locked

    def test_centralizer_direction_raises(self, chamber3):
        x = orbit_point(chamber3, np.eye(3))
        with pytest.raises(DegenerateChart):
            orbit_chart(x, directions=[chamber3.z_basis[0]])

    def test_dependent_locked_stack_raises(self, wall3):
        """A read-only user stack is kept as it is but still checked: one
        that repeats a direction of the chamber's own chart stack raises."""
        x = orbit_point(wall3, np.eye(3))
        stack = np.concatenate([wall3.n_basis, wall3.n_basis[:1]])
        stack.setflags(write=False)
        with pytest.raises(DegenerateChart):
            orbit_chart(x, directions=stack)

    def test_only_the_chambers_own_stacks_skip_the_rank_check(self, chamber3, monkeypatch):
        """The default chart and the n(H) and m(H) stacks skip the rank
        check; a copy of one of them, equal entry for entry, does not."""
        checked = []
        real = orbit_module._check_directions
        monkeypatch.setattr(orbit_module, "_check_directions",
                            lambda chamber, dirs: checked.append(dirs) or real(chamber, dirs))
        x = orbit_point(chamber3, np.eye(3))
        for directions in (None, chamber3.n_basis, chamber3.m_basis):
            orbit_chart(x, directions=directions)
        assert checked == []
        copy = orbit_chart(x, directions=chamber3.m_basis.copy())
        assert len(checked) == 1 and checked[0] is copy.directions

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


class TestStackedOrbitPoints:
    """``_orbit_points`` against ``orbit_point`` slice by slice, including
    the message of the first failing slice."""

    def witnesses(self, chamber, count=4):
        rng = np.random.default_rng(63)
        return np.stack([chamber.model.random_group_element(rng, 0.5) for _ in range(count)])

    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall4"])
    def test_matches_single_calls(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        g = self.witnesses(chamber).reshape(2, 2, chamber.model.n, chamber.model.n)
        points, g_inv = _orbit_points(chamber, g)
        stacked = orbit_point(chamber, g)
        assert np.array_equal(stacked.witness_inverse, g_inv)
        assert not stacked.witness_inverse.flags.writeable
        for index in np.ndindex(2, 2):
            single = orbit_point(chamber, g[index])
            assert np.array_equal(points[index], single.point)
            assert np.array_equal(g_inv[index], np.linalg.inv(g[index]))
            assert np.array_equal(single.witness_inverse, g_inv[index])

    def test_empty_stack_gives_empty_points(self, chamber3):
        empty = np.zeros((0, 3, 3))
        _check_on_orbit_stack(chamber3, empty)
        points, g_inv = _orbit_points(chamber3, empty)
        assert points.shape == g_inv.shape == (0, 3, 3)

    def test_wrong_determinant_slice_raises_like_orbit_point(self, chamber3):
        g = self.witnesses(chamber3)
        g[2] = 2.0 * g[2]
        self.assert_same_message(chamber3, g, 2)

    @pytest.mark.parametrize("field, message", [
        ("char_coeffs", "spectrum"),
        ("matrix", "traceless"),
    ])
    def test_off_orbit_slice_raises_like_orbit_point(self, chamber3, wall3, field, message):
        # a chamber whose stored spectrum (or matrix) disagrees with its
        # points puts every witness off the orbit
        wrong = wall3.char_coeffs if field == "char_coeffs" else chamber3.matrix + np.eye(3)
        off = dataclasses.replace(chamber3, **{field: wrong})
        text = self.assert_same_message(off, self.witnesses(chamber3), 0)
        assert message in text

    def test_first_failing_slice_names_the_failure(self, chamber3):
        """One slice off the spectrum, a later one off the trace: the stack
        raises what a loop of single checks raises first."""
        points = _orbit_points(chamber3, self.witnesses(chamber3))[0].copy()
        points[1] = np.diag([2.0, 0.0, -2.0])
        points[2] = points[2] + 1e-3 * np.eye(3)
        with pytest.raises(ValueError) as single:
            for point in points:
                _check_on_orbit_stack(chamber3, point)
        with pytest.raises(ValueError) as stacked:
            _check_on_orbit_stack(chamber3, points)
        assert "spectrum" in str(single.value)
        assert str(stacked.value) == str(single.value)

    def assert_same_message(self, chamber, g, bad):
        with pytest.raises(ValueError) as single:
            orbit_point(chamber, g[bad])
        with pytest.raises(ValueError) as stacked:
            _orbit_points(chamber, g)
        assert str(stacked.value) == str(single.value)
        return str(single.value)


class TestStackedBundleBuilders:
    """The stack-aware builders behind ``flag_point``, ``to_cotangent``,
    ``cotangent_rep`` and ``from_cotangent`` against the single calls,
    slice by slice and bit for bit, and the error of the first failing
    slice."""

    CHAMBERS = ["chamber2", "chamber3", "wall3", "wall4", "zero2"]
    # beyond the fixtures: H = 0 and two large chambers, the n = 8 regular
    # one (7 back-substitution rows) and the n = 7 wall
    ENTRIES = {"zero2": [0, 0], "regular8": [3.5, 2.5, 1.5, 0.5, -0.5, -1.5, -2.5, -3.5],
               "wall7": [1, 1, 1, 1, 1, 1, -6]}

    def chamber(self, name, request, model2):
        if name in self.ENTRIES:
            return SpecialLinearModel(len(self.ENTRIES[name])).chamber_element(self.ENTRIES[name])
        return request.getfixturevalue(name)

    def data(self, chamber, count=4):
        """Rotations, fibers at them, and witnesses, each (count, n, n)."""
        model = chamber.model
        rng = np.random.default_rng(71)
        ks = np.stack([model.random_orthogonal(rng, 1.5 / model.n) for _ in range(count)])
        ws = np.stack([chamber.random_fiber(rng, 0.8) for _ in ks])
        gs = np.stack([model.random_group_element(rng, 1.2 / model.n) for _ in range(count)])
        return ks, ks @ ws @ np.swapaxes(ks, -1, -2), gs

    @pytest.mark.parametrize("chamber_name", CHAMBERS)
    def test_flag_points_match_single_calls(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        ks, _, _ = self.data(chamber)
        points = _flag_points(chamber, ks.reshape(2, 2, *ks.shape[1:]))
        for index in np.ndindex(2, 2):
            k = ks[2 * index[0] + index[1]]
            assert np.array_equal(points[index], flag_point(chamber, k).point)

    @pytest.mark.parametrize("chamber_name", CHAMBERS)
    def test_split_matches_to_cotangent(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        _, _, gs = self.data(chamber)
        points, _ = _orbit_points(chamber, gs)
        bases, fibers, coords = _split(chamber, np.stack([iwasawa(g).k_factor for g in gs]), points)
        for g, base, fiber, c in zip(gs, bases, fibers, coords):
            rep = to_cotangent(orbit_point(chamber, g))
            assert np.array_equal(base, rep.base)
            assert np.array_equal(fiber, rep.fiber)
            assert tuple(c.tolist()) == rep.coords

    @pytest.mark.parametrize("chamber_name", CHAMBERS)
    def test_cotangent_reps_match_single_calls(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        model = chamber.model
        ks, vs, _ = self.data(chamber)
        bases, coords = _cotangent_reps(chamber, ks, vs)
        for k, v, base, c in zip(ks, vs, bases, coords):
            rep = cotangent_rep(chamber, k, v)
            assert np.array_equal(base, rep.base)
            assert tuple(c.tolist()) == rep.coords
            # the Killing pairings against the moved basis, one call each
            assert rep.coords == tuple(model.killing(v, k @ e @ k.T) for e in chamber.m_basis)
        # one rotation shared by a stack of fibers, as in the projection suite
        k0 = ks[0]
        shared_vs = k0 @ (ks.transpose(0, 2, 1) @ vs @ ks) @ k0.T
        shared_base, shared = _cotangent_reps(chamber, k0, shared_vs)
        assert np.array_equal(shared_base, flag_point(chamber, k0).point)
        for v, c in zip(shared_vs, shared):
            assert tuple(c.tolist()) == cotangent_rep(chamber, k0, v).coords

    @pytest.mark.parametrize("chamber_name", [*CHAMBERS, "regular8", "wall7"])
    def test_from_cotangent_matches_single_calls(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        ks, vs, _ = self.data(chamber)
        witnesses, points, inverses = _from_cotangent(chamber, ks, vs)
        for k, v, witness, point, inverse in zip(ks, vs, witnesses, points, inverses):
            x = from_cotangent(cotangent_rep(chamber, k, v))
            assert np.array_equal(witness, x.witness)
            assert np.array_equal(point, x.point)
            assert np.array_equal(inverse, x.witness_inverse)
            assert np.array_equal(inverse, np.linalg.inv(witness))
            self.assert_unipotent_witness(chamber, k, v, witness, atol=1e-15)
        # at k = I the witness is U itself, so its structure is exact
        eye = np.eye(chamber.model.n)
        ws = np.swapaxes(ks, -1, -2) @ vs @ ks
        for w, witness in zip(ws, _from_cotangent(chamber, eye, ws)[0]):
            self.assert_unipotent_witness(chamber, eye, w, witness, atol=0.0)

    @pytest.mark.parametrize("chamber_name", CHAMBERS)
    def test_fiber_coefficients_match_single_calls(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        n = chamber.model.n
        w = np.random.default_rng(5).normal(size=(3, n, n))
        coeffs, residuals = _fiber_coefficients(chamber, w)
        for slice_, c, r in zip(w, coeffs, residuals):
            single_c, single_r = _fiber_coefficients(chamber, slice_)
            assert np.array_equal(c, single_c)
            assert r == single_r == float(np.linalg.norm(slice_ - self.on_slice(chamber, slice_)))

    @pytest.mark.parametrize("chamber_name", CHAMBERS)
    def test_empty_stacks(self, chamber_name, request, model2):
        chamber = self.chamber(chamber_name, request, model2)
        n = chamber.model.n
        empty = np.zeros((0, n, n))
        assert _flag_points(chamber, empty).shape == (0, n, n)
        bases, fibers, coords = _split(chamber, empty, empty)
        assert bases.shape == fibers.shape == (0, n, n) and coords.shape == (0, chamber.dim_m)
        bases, coords = _cotangent_reps(chamber, empty, empty)
        assert bases.shape == (0, n, n) and coords.shape == (0, chamber.dim_m)
        witnesses, points, inverses = _from_cotangent(chamber, empty, empty)
        assert witnesses.shape == points.shape == inverses.shape == (0, n, n)

    def test_reflection_slice_raises_like_flag_point(self, chamber3):
        ks, vs, _ = self.data(chamber3)
        ks[1] = ks[1] @ np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotOrthogonal) as single:
            flag_point(chamber3, ks[1])
        for stacked_call in (_flag_points, lambda c, k: _cotangent_reps(c, k, vs)):
            with pytest.raises(NotOrthogonal) as stacked:
                stacked_call(chamber3, ks)
            assert str(stacked.value) == str(single.value)

    def test_off_slice_fiber_raises_like_cotangent_rep(self, chamber3):
        """Two slices leave n(H) by different amounts; the stack names the
        residual of the first, as a loop of single calls does."""
        ks, vs, _ = self.data(chamber3)
        vs[1] = vs[1] + 0.3 * ks[1] @ unit(3, 2, 0) @ ks[1].T
        vs[2] = vs[2] + 0.7 * ks[2] @ unit(3, 1, 0) @ ks[2].T
        with pytest.raises(FiberResidual) as single:
            for k, v in zip(ks, vs):
                cotangent_rep(chamber3, k, v)
        with pytest.raises(FiberResidual) as stacked:
            _cotangent_reps(chamber3, ks, vs)
        assert str(stacked.value) == str(single.value)

    def test_earlier_orbit_point_error_comes_first(self, model3):
        """Slice 0's witness has determinant 2 and slice 1's is a good
        one: the stack raises slice 0's orbit-point error, as a loop of
        single calls does."""
        chamber = model3.chamber_element([2, 1, -3])
        ks, vs, _ = self.data(chamber, count=2)
        ks[0] = 2.0 ** (1.0 / 3.0) * ks[0]
        vs[0] = 0.0
        with pytest.raises(ValueError, match="determinant") as single:
            for k, v in zip(ks, vs):
                _from_cotangent(chamber, k, v)
        with pytest.raises(ValueError) as stacked:
            _from_cotangent(chamber, ks, vs)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)

    @staticmethod
    def assert_unipotent_witness(chamber, k, v, witness, atol):
        """U = k^T witness is 1 on the diagonal and 0 off n(H) and off the
        diagonal, to ``atol``, and U H U^-1 = H + w for w = k^T v k."""
        n = chamber.model.n
        u = k.T @ witness
        off = np.ones((n, n), dtype=bool)
        off[tuple(np.array(chamber.n_positions, dtype=int).reshape(-1, 2).T)] = False
        np.fill_diagonal(off, False)
        assert np.all(np.abs(np.diagonal(u) - 1.0) <= atol)
        assert np.all(np.abs(u[off]) <= atol)
        h, w = chamber.matrix, k.T @ v @ k
        scale = max(1.0, np.linalg.norm(h) + np.linalg.norm(w))
        assert np.linalg.norm(u @ h @ np.linalg.inv(u) - h - w) <= 1e-12 * scale

    @staticmethod
    def on_slice(chamber, w):
        recon = np.zeros_like(w)
        for i, j in chamber.n_positions:
            recon[i, j] = w[i, j]
        return recon


def test_chart_with_caller_directions_holds_a_read_only_copy(model4, monkeypatch):
    """A chart on one of the chamber's stacks holds that stack; a chart on
    a caller's copy holds a read-only copy.  Both give the same standard
    form bit for bit, and neither exponentiates anything: the exact form
    reads the base point's R factor alone."""
    chamber = model4.chamber_element([1.5, 0.5, -0.5, -1.5])
    witnesses = [np.eye(4), chamber.model.random_group_element(3, 0.3)]
    own = [orbit_chart(orbit_point(chamber, g), directions=chamber.m_basis) for g in witnesses]
    assert all(chart.directions is chamber.m_basis for chart in own)
    copy = np.array(chamber.m_basis)
    copies = [orbit_chart(orbit_point(chamber, g), directions=copy) for g in witnesses]
    assert all(chart.directions is not copy and not chart.directions.flags.writeable
               for chart in copies)
    exp_calls = []

    def counted(x):
        exp_calls.append(np.shape(x))
        return mat_exp(x)

    for module in (model_module, orbit_module, symplectic):
        if hasattr(module, "mat_exp"):
            monkeypatch.setattr(module, "mat_exp", counted)
    for a, b in zip(own, copies):
        assert omega_std_chart(a).tobytes() == omega_std_chart(b).tobytes()
    assert exp_calls == []
