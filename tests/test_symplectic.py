import importlib
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsym import (
    graph_routes,
    iwasawa_potential,
    kks,
    mat_exp,
    omega_kks_chart,
    omega_std_chart,
    orbit_chart,
    orbit_point,
    section_one_form,
    tangent_vector,
    tautological,
    to_cotangent,
)
from orbitsym import orbit as orbit_module
from orbitsym import cli, suites, symplectic
from orbitsym.iwasawa import infinitesimal_iwasawa, iwasawa
from orbitsym.model import SpecialLinearModel, random_combination
from orbitsym.numerics import STENCIL_OFFSETS, SingularInput, commutator, qr_positive
from orbitsym.orbit import _dexp


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def bracket_tangent(x, z):
    return tangent_vector(x, commutator(z, x.point), generator=z)


class TestKks:
    def test_mixed_pair_value_by_hand(self, chamber2):
        x = orbit_point(chamber2, np.eye(2))
        zv = unit(2, 0, 1) - unit(2, 1, 0)
        zw = unit(2, 0, 1)
        value = kks(x, bracket_tangent(x, zv), bracket_tangent(x, zw))
        assert value == pytest.approx(8.0, abs=1e-12)

    def test_vertical_pairs_vanish(self, chamber3):
        g = chamber3.model.random_group_element(3, 0.4)
        x = orbit_point(chamber3, g)
        g_inv = np.linalg.inv(g)
        gens = [g @ y @ g_inv for y in chamber3.n_basis]
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                vi = bracket_tangent(x, gens[i])
                vj = bracket_tangent(x, gens[j])
                assert abs(kks(x, vi, vj)) <= 1e-10 * max(1.0, np.linalg.norm(x.point))

    def test_flag_tangent_pairs_vanish(self, chamber3):
        model = chamber3.model
        g = model.random_group_element(5, 0.4)
        x = orbit_point(chamber3, g)
        g_inv = np.linalg.inv(g)
        gens = [g @ e @ g_inv for e in model.k_basis]
        scale = max(1.0, np.linalg.norm(x.point) * max(np.linalg.norm(z) for z in gens) ** 2)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                vi = bracket_tangent(x, gens[i])
                vj = bracket_tangent(x, gens[j])
                assert abs(kks(x, vi, vj)) <= 1e-10 * scale

    def test_generator_ambiguity_is_killed(self, wall3):
        model = wall3.model
        rng = np.random.default_rng(7)
        for i in range(50):
            g = model.random_group_element(rng, 0.4)
            x = orbit_point(wall3, g)
            g_inv = np.linalg.inv(g)
            z1 = g @ model.random_algebra_element(rng, 0.5) @ g_inv
            z2 = g @ model.random_algebra_element(rng, 0.5) @ g_inv
            shift = g @ wall3.random_centralizer(rng, 0.5) @ g_inv
            v1 = tangent_vector(x, commutator(z1, x.point))
            v2 = tangent_vector(x, commutator(z2, x.point))
            a = kks(x, bracket_tangent(x, z1), v2)
            b = kks(x, bracket_tangent(x, z1 + shift), v2)
            scale = max(1.0, abs(a))
            assert abs(a - b) <= 1e-9 * scale
            # generators recovered by least squares give the same value
            c = kks(x, v1, v2)
            assert abs(c - a) <= 1e-9 * scale

    def test_conjugation_invariance(self, chamber3):
        model = chamber3.model
        rng = np.random.default_rng(9)
        g = model.random_group_element(rng, 0.4)
        a = model.random_group_element(rng, 0.4)
        x = orbit_point(chamber3, g)
        z1 = model.random_algebra_element(rng, 0.6)
        z2 = model.random_algebra_element(rng, 0.6)
        before = kks(x, bracket_tangent(x, z1), bracket_tangent(x, z2))
        moved = orbit_point(chamber3, a @ g)
        a_inv = np.linalg.inv(a)
        after = kks(
            moved,
            bracket_tangent(moved, a @ z1 @ a_inv),
            bracket_tangent(moved, a @ z2 @ a_inv),
        )
        assert abs(before - after) <= 1e-9 * max(1.0, abs(before))


class TestTautological:
    def test_vanishes_on_zero_section(self, chamber3):
        model = chamber3.model
        k = model.random_orthogonal(11, 0.5)
        x = orbit_point(chamber3, k)
        for z in model.algebra_basis[:6]:
            v = bracket_tangent(x, z)
            assert abs(tautological(x, v)) <= 1e-12

    def test_vanishes_on_vertical_directions(self, chamber3):
        rng = np.random.default_rng(13)
        g = chamber3.model.random_group_element(rng, 0.4)
        x = orbit_point(chamber3, g)
        g_inv = np.linalg.inv(g)
        for y in chamber3.n_basis:
            v = bracket_tangent(x, g @ y @ g_inv)
            assert abs(tautological(x, v)) <= 1e-10 * max(1.0, np.linalg.norm(x.point))

    def test_matches_covector_route(self, chamber3):
        model = chamber3.model
        rng = np.random.default_rng(15)
        g = model.random_group_element(rng, 0.4)
        k = model.random_orthogonal(rng, 0.5)
        gk = g @ k
        x = orbit_point(chamber3, gk)
        rep = to_cotangent(x)
        fac = iwasawa(gk)
        for direction in chamber3.m_basis:
            v = bracket_tangent(x, gk @ direction @ np.linalg.inv(gk))
            inf = infinitesimal_iwasawa(direction, gk, factors=fac)
            covector = rep.pair(fac.k_factor @ inf.k_deriv @ fac.k_factor.T)
            assert abs(tautological(x, v) - covector) <= 1e-10 * max(1.0, abs(covector))

    @pytest.mark.parametrize("chamber_name", ["chamber2", "chamber3"])
    def test_matches_section_one_form_on_displaced_flag(self, chamber_name, request):
        """On tangents of a displaced flag, the transported one-form
        reduces to minus the pairing with the diagonal factor velocity."""
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        rng = np.random.default_rng(16)
        g = model.random_group_element(rng, 0.4)
        k = model.random_orthogonal(rng, 0.5)
        gk = g @ k
        x = orbit_point(chamber, gk)
        for direction in chamber.m_basis:
            v = bracket_tangent(x, gk @ direction @ np.linalg.inv(gk))
            expected = section_one_form(chamber, g, k, direction)
            assert abs(tautological(x, v) - expected) <= 1e-10 * max(1.0, abs(expected))


class TestPotential:
    def test_identity_witness_vanishes(self, chamber3):
        model = chamber3.model
        for seed in range(5):
            k = model.random_orthogonal(seed, 0.6)
            assert abs(iwasawa_potential(chamber3, np.eye(3), k)) <= 1e-12

    def test_diagonal_witness_by_hand(self, chamber2):
        a = np.diag([math.e, 1.0 / math.e])
        value = iwasawa_potential(chamber2, a, np.eye(2))
        log_a = np.diag([1.0, -1.0])
        assert value == pytest.approx(chamber2.model.killing(chamber2.matrix, log_a))
        assert value == pytest.approx(8.0)

    @pytest.mark.parametrize("chamber_name", ["wall3", "wall4"])
    def test_descends_through_compact_centralizer(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        for i in range(50):
            rng = np.random.default_rng([29, i])
            g = model.random_group_element(rng, 0.4)
            k = model.random_orthogonal(rng, 0.5)
            z = mat_exp(chamber.random_compact_centralizer(rng, 0.8))
            f1 = iwasawa_potential(chamber, g, k)
            f2 = iwasawa_potential(chamber, g, k @ z)
            assert abs(f1 - f2) <= 1e-10 * max(1.0, abs(f1))


def sweep_chambers():
    """The chamber entries of the sweep script's ``CONFIGS``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [entries for _, entries in sweep.CONFIGS]


class TestPotentialFromR:
    """``iwasawa_potential`` forms only R of g k, yet gives the bits of the
    full factorization's <H, log A(g k)> and raises its errors."""

    @pytest.mark.parametrize("entries", sweep_chambers(), ids=lambda e: ",".join(map(str, e)))
    def test_equals_the_full_factorization(self, entries):
        model = SpecialLinearModel(len(entries))
        chamber = model.chamber_element(entries)
        rng = np.random.default_rng(len(entries))
        g = np.stack([model.random_group_element(rng, 1.2 / model.n) for _ in range(3)])
        k = np.stack([model.random_orthogonal(rng, 1.5) for _ in range(12)])
        k = k.reshape(3, 4, model.n, model.n)
        values = iwasawa_potential(chamber, g[:, None], k)
        expected = model.killing(chamber.matrix, iwasawa(g[:, None] @ k).h_projection)
        assert values.shape == (3, 4)
        assert np.array_equal(values, expected)
        single = iwasawa_potential(chamber, g[1], k[1, 2])
        assert isinstance(single, np.float64)
        assert single == model.killing(chamber.matrix, iwasawa(g[1] @ k[1, 2]).h_projection)
        assert single == values[1, 2]

    def test_errors_match_the_full_factorization(self, chamber3):
        """A determinant other than 1 and a g k of determinant 1 but rank
        deficient at working precision raise what ``iwasawa`` raises, for
        a matrix and for a stack."""
        cases = [(2.0 * np.eye(3), ValueError, "determinant 1"),
                 (np.diag([1e12, 1e-6, 1e-6]), SingularInput, "column 1")]
        for g, error, message in cases:
            for arg in (g, np.stack([np.eye(3), g])):
                with pytest.raises(error, match=message):
                    iwasawa(arg)
                with pytest.raises(error, match=message):
                    iwasawa_potential(chamber3, arg, np.eye(3))


class TestSectionOneForm:
    def test_identity_witness_vanishes(self, chamber3):
        model = chamber3.model
        k = model.random_orthogonal(33, 0.5)
        for direction in chamber3.m_basis:
            assert abs(section_one_form(chamber3, np.eye(3), k, direction)) <= 1e-12

    def test_compact_centralizer_directions_are_degenerate(self, wall3):
        model = wall3.model
        rng = np.random.default_rng(35)
        g = model.random_group_element(rng, 0.4)
        k = model.random_orthogonal(rng, 0.5)
        for direction in wall3.zk_basis:
            a_val, b_val, _ = graph_routes(wall3, g, k, direction)
            assert abs(a_val - b_val) <= 1e-9 * max(1.0, abs(a_val))

    @pytest.mark.parametrize("chamber_name", ["chamber2", "chamber3", "wall3"])
    def test_three_routes_agree(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        rng = np.random.default_rng(37)
        for g in (np.eye(model.n), model.random_group_element(rng, 0.4)):
            k = model.random_orthogonal(rng, 0.6)
            for direction in chamber.m_basis:
                a_val, b_val, c_val = graph_routes(chamber, g, k, direction)
                scale = max(1.0, abs(a_val), abs(b_val), abs(c_val))
                assert abs(a_val - b_val) <= 1e-9 * scale
                assert abs(a_val - c_val) <= 1e-5 * scale
                assert abs(b_val - c_val) <= 1e-5 * scale

    @pytest.mark.parametrize("chamber_name", ["chamber2", "chamber3", "wall3", "wall4"])
    def test_stacked_directions_match_single_calls(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        rng = np.random.default_rng(39)
        g = model.random_group_element(rng, 0.4)
        k = model.random_orthogonal(rng, 0.6)
        directions = np.stack([*chamber.m_basis, random_combination(chamber.m_basis, rng, 1.0)])
        stacked = graph_routes(chamber, g, k, directions)
        assert [np.shape(route) for route in stacked] == [(len(directions),)] * 3
        for i, direction in enumerate(directions):
            single = graph_routes(chamber, g, k, direction)
            assert [np.shape(route) for route in single] == [()] * 3
            assert np.array_equal([route[i] for route in stacked], single)

    @pytest.mark.parametrize("chamber_name", ["chamber2", "chamber3", "wall3", "wall4"])
    def test_section_one_form_is_the_form_route(self, chamber_name, request, monkeypatch):
        """``section_one_form`` and the routes' first value evaluate minus
        <H, A-velocity> through one helper: equal bit for bit."""
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        real = symplectic._section_value
        calls = []

        def section_value(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(symplectic, "_section_value", section_value)
        rng = np.random.default_rng(45)
        for g in (np.eye(model.n), model.random_group_element(rng, 0.4)):
            k = model.random_orthogonal(rng, 0.6)
            form_values, _, _ = graph_routes(chamber, g, k, chamber.m_basis)
            for direction, form_value in zip(chamber.m_basis, form_values):
                assert section_one_form(chamber, g, k, direction) == form_value
        assert len(calls) == 2 * (1 + chamber.dim_m)

    @pytest.mark.parametrize("chamber_name", ["chamber2", "chamber3", "wall3", "wall4"])
    def test_stacked_witnesses_match_single_calls(self, chamber_name, request):
        """Stacks of g and k (samples, 1, n, n) against a direction stack
        (m, n, n) give routes (samples, m) whose every entry equals a
        single call bit for bit."""
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        rng = np.random.default_rng(47)
        g = np.stack([np.eye(model.n)] + [model.random_group_element(rng, 0.4) for _ in range(2)])
        k = np.stack([model.random_orthogonal(rng, 0.6) for _ in range(3)])
        stacked = graph_routes(chamber, g[:, None], k[:, None], chamber.m_basis)
        assert [np.shape(route) for route in stacked] == [(3, chamber.dim_m)] * 3
        for s in range(3):
            for i, direction in enumerate(chamber.m_basis):
                single = graph_routes(chamber, g[s], k[s], direction)
                assert np.array_equal([route[s, i] for route in stacked], single)

    def test_potential_offsets_split_at_the_byte_budget(self, monkeypatch):
        """A call whose g k stack at one stencil offset exceeds
        ``_POTENTIAL_BYTES`` (64 samples x 15 directions at n = 6) factors
        the potential one offset at a time, four R-only QR calls; chunks of
        8 samples fit all four offsets in one call.  The routes are equal
        bit for bit."""
        chamber = SpecialLinearModel(6).chamber_element([2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
        model = chamber.model
        rng = np.random.default_rng(51)
        g = np.stack([model.random_group_element(rng, 0.4) for _ in range(64)])[:, None]
        k = np.stack([model.random_orthogonal(rng, 0.6) for _ in range(64)])[:, None]
        assert 8 * g.size * chamber.dim_m > symplectic._POTENTIAL_BYTES
        real_qr = np.linalg.qr
        r_calls = []

        def qr(a, mode="reduced"):
            if mode == "r":
                r_calls.append(np.shape(a))
            return real_qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        stacked = graph_routes(chamber, g, k, chamber.m_basis)
        assert r_calls == [(1, 64, 15, 6, 6)] * 4
        del r_calls[:]
        chunks = [graph_routes(chamber, g[i:i + 8], k[i:i + 8], chamber.m_basis)
                  for i in range(0, 64, 8)]
        assert r_calls == [(4, 8, 15, 6, 6)] * 8
        for route, pieces in zip(stacked, zip(*chunks)):
            assert np.array_equal(route, np.concatenate(pieces))

    def test_empty_direction_stack_gives_empty_routes(self, model2):
        chamber = model2.chamber_element([0, 0])
        g = model2.random_group_element(43, 0.4)
        k = model2.random_orthogonal(43, 0.6)
        routes = graph_routes(chamber, g, k, np.zeros((0, 2, 2)))
        assert [np.shape(route) for route in routes] == [(0,)] * 3


@pytest.fixture
def fresh_m_exps():
    """An empty store of kept m(H) exponentials, emptied again afterwards."""
    symplectic._m_basis_exps.cache_clear()
    yield
    symplectic._m_basis_exps.cache_clear()


@pytest.mark.usefixtures("fresh_m_exps")
class TestMBasisExponentials:
    """``graph_routes`` keeps the potential stencil exponentials of
    ``chamber.m_basis`` per chamber and step; any other stack is
    exponentiated afresh."""

    def count_exps(self, monkeypatch) -> list:
        shapes = []
        monkeypatch.setattr(symplectic, "mat_exp", lambda x: shapes.append(x.shape) or mat_exp(x))
        return shapes

    def routes(self, chamber, directions, fd_step=1e-3):
        model = chamber.model
        g = model.random_group_element(61, 0.4)
        k = model.random_orthogonal(61, 0.6)
        return graph_routes(chamber, g, k, directions, fd_step)

    def test_kept_read_only_and_equal_to_a_fresh_exp(self, wall4):
        offsets = np.multiply(STENCIL_OFFSETS, 1e-3)
        exps = symplectic._m_basis_exps(wall4, 1e-3)
        assert symplectic._m_basis_exps(wall4, 1e-3) is exps
        assert not exps.flags.writeable
        assert exps.tobytes() == mat_exp(np.multiply.outer(offsets, wall4.m_basis)).tobytes()

    def test_computed_once_per_chamber_and_step_across_calls(self, chamber4, monkeypatch):
        shapes = self.count_exps(monkeypatch)
        first = self.routes(chamber4, chamber4.m_basis)
        for _ in range(2):
            assert all(map(np.array_equal, self.routes(chamber4, chamber4.m_basis), first))
        self.routes(chamber4, chamber4.m_basis, fd_step=2e-3)
        assert shapes == [(4, chamber4.dim_m, 4, 4)] * 2
        info = symplectic._m_basis_exps.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_a_cycle_through_as_many_chambers_as_the_cli_keeps_hits(self, model3, monkeypatch):
        """Calls that visit ``cli._CHAMBERS_KEPT`` chambers in turn at one
        step exponentiate each chamber's m(H) on its first visit only."""
        chambers = [model3.chamber_element([a, 0, -a]) for a in range(1, cli._CHAMBERS_KEPT + 1)]
        shapes = self.count_exps(monkeypatch)
        for _ in range(2):
            for chamber in chambers:
                self.routes(chamber, chamber.m_basis)
        assert shapes == [(4, 3, 3, 3)] * len(chambers)

    def test_other_stacks_are_exponentiated_afresh(self, chamber4, monkeypatch):
        shapes = self.count_exps(monkeypatch)
        copy = np.array(chamber4.m_basis)
        fresh = [self.routes(chamber4, copy) for _ in range(2)]
        assert shapes == [(4, chamber4.dim_m, 4, 4)] * 2
        assert symplectic._m_basis_exps.cache_info().currsize == 0
        kept = self.routes(chamber4, chamber4.m_basis)
        for routes in fresh:
            assert all(map(np.array_equal, routes, kept))

    def test_at_most_a_fixed_number_are_kept(self, chamber4):
        for step in range(1, symplectic._M_EXPS_KEPT + 3):
            symplectic._m_basis_exps(chamber4, step * 1e-3)
        info = symplectic._m_basis_exps.cache_info()
        assert info.maxsize == info.currsize == symplectic._M_EXPS_KEPT


class TestMixedPairIdentity:
    @pytest.mark.parametrize("chamber_name", ["chamber3", "wall3", "chamber4"])
    def test_closed_form_chain(self, chamber_name, request):
        chamber = request.getfixturevalue(chamber_name)
        model = chamber.model
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = model.random_group_element(rng, 0.4)
            fac = iwasawa(g)
            an = fac.an_factor()
            an_inv = np.linalg.inv(an)
            h_moved = an @ chamber.matrix @ an_inv
            for x_dir in model.k_basis:
                inf = infinitesimal_iwasawa(x_dir, g, factors=fac)
                for y_dir in chamber.n_basis:
                    lhs = model.killing(
                        commutator(an @ y_dir @ an_inv, h_moved), inf.k_deriv
                    )
                    rhs = model.killing(commutator(y_dir, chamber.matrix), x_dir)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                    assert rhs == pytest.approx(
                        model.killing(chamber.matrix, commutator(x_dir, y_dir)), abs=1e-12
                    )


class TestFormMatrices:
    def test_antisymmetry_exact(self, chamber3):
        g = chamber3.model.random_group_element(43, 0.4)
        chart = orbit_chart(orbit_point(chamber3, g))
        for form in (omega_std_chart(chart), omega_kks_chart(chart)):
            assert np.array_equal(form, -form.T)

    def test_two_by_two_value_by_hand(self, chamber2):
        chart = orbit_chart(orbit_point(chamber2, np.eye(2)))
        std = omega_std_chart(chart)
        kks_form = omega_kks_chart(chart)
        assert kks_form[0, 1] == pytest.approx(8.0, abs=1e-12)
        assert std[0, 1] == pytest.approx(8.0, abs=1e-5)

    def test_kks_diagonal_blocks_vanish(self, chamber3):
        g = chamber3.model.random_group_element(45, 0.4)
        chart = orbit_chart(orbit_point(chamber3, g))
        entries = omega_kks_chart(chart)
        m = chamber3.dim_n
        assert np.max(np.abs(entries[:m, :m])) <= 1e-12  # both directions lowered
        assert np.max(np.abs(entries[m:, m:])) <= 1e-12  # both directions raised

    def test_std_diagonal_blocks_vanish_at_zero_section(self, chamber3):
        chart = orbit_chart(orbit_point(chamber3, np.eye(3)))
        entries = omega_std_chart(chart)
        m = chamber3.dim_n
        assert np.max(np.abs(entries[:m, :m])) <= 1e-6
        assert np.max(np.abs(entries[m:, m:])) <= 1e-6

    def test_kks_chart_constant_across_parameters(self, wall3):
        g = wall3.model.random_group_element(47, 0.4)
        chart = orbit_chart(orbit_point(wall3, g))
        base = omega_kks_chart(chart)
        rng = np.random.default_rng(49)
        for _ in range(5):
            t = rng.uniform(-1e-3, 1e-3, chart.dim)
            moved = omega_kks_chart(chart, t)
            assert np.max(np.abs(moved - base)) <= 1e-9 * max(1.0, np.max(np.abs(base)))

    def test_forms_agree_on_independent_direction_basis(self, chamber3):
        """Chart independence: a different complement of the centralizer
        gives the same equality of forms."""
        model = chamber3.model
        g = model.random_group_element(51, 0.4)
        x = orbit_point(chamber3, g)
        rng = np.random.default_rng(53)
        mix = rng.uniform(-0.3, 0.3, (6, 6)) + np.eye(6)
        default = list(chamber3.theta_n_basis) + list(chamber3.n_basis)
        directions = [
            sum(c * d for c, d in zip(row, default)) for row in mix
        ]
        chart = orbit_chart(x, directions=directions)
        std = omega_std_chart(chart)
        kks_form = omega_kks_chart(chart)
        scale = max(1.0, np.max(np.abs(kks_form)))
        assert np.max(np.abs(std - kks_form)) <= 1e-5 * scale

    def test_smallest_singular_value(self, chamber2):
        chart = orbit_chart(orbit_point(chamber2, np.eye(2)))
        form = omega_kks_chart(chart)
        assert np.linalg.svd(form, compute_uv=False)[-1] == pytest.approx(8.0)


@pytest.mark.parametrize("entries", sweep_chambers())
def test_orbit_form_is_the_chamber_constant(entries):
    """Ad-invariance of the Killing form: at t = 0 the chart's orbit form is
    the chamber's Omega(H) at every witness, here the identity, generic
    witnesses and far ones (the strength of ``theorem``'s sample 1).
    Omega(H) is read-only and exactly antisymmetric, with one nonzero per
    row, and its smallest singular value is 2n times the smallest gap
    between distinct entries of H."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    omega = chamber._orbit_form
    assert omega.shape == (chamber.orbit_dim, chamber.orbit_dim)
    assert not omega.flags.writeable
    assert np.array_equal(omega, -omega.T)
    witnesses = np.stack([np.eye(model.n),
                          *[model.random_group_element(seed, 1.2 / model.n) for seed in (3, 4)],
                          *[model.random_group_element(seed, 2.0 / model.n) for seed in (5, 6, 7)]])
    kks_form = omega_kks_chart(orbit_chart(orbit_point(chamber, witnesses)))
    tolerance = 1e-13 * max(1.0, np.max(np.abs(omega), initial=0.0))
    assert np.max(np.abs(kks_form - omega), initial=0.0) <= tolerance
    if chamber.dim_n:
        assert np.all(np.count_nonzero(omega, axis=1) == 1)
        distinct = [value for value, _ in chamber.blocks]
        gap = min(a - b for a, b in zip(distinct, distinct[1:]))
        smin = np.linalg.svd(omega, compute_uv=False)[-1]
        assert smin == pytest.approx(model.killing_coefficient * gap, rel=1e-14)


def theorem_witnesses(model, seed, samples=50):
    """The witnesses of ``theorem``'s samples 0..samples-1 at ``seed``: the
    identity, a far witness (sample 1) and generic ones."""
    rngs = suites._rngs(seed, range(samples), suites.SUITES["theorem"][0])
    logs = suites._witness_logs(model, rngs, list(range(samples)),
                                lambda one: suites._group_logs(model, one, strength=2.0))
    return model._group_products(mat_exp(logs))


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("entries", sweep_chambers(), ids=lambda e: ",".join(map(str, e)))
def test_std_chart_is_the_orbit_form(entries, seed):
    """The exact oracle: at t = 0 minus d lambda is Omega(H) at every
    witness, so the standard form equals the chamber's ``_orbit_form``
    within 1e-13 max|Omega| at the 50 witnesses of ``theorem``, far ones
    included."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    std = omega_std_chart(orbit_chart(orbit_point(chamber, theorem_witnesses(model, seed))))
    omega = chamber._orbit_form
    assert std.shape == (50, *omega.shape)
    tolerance = 1e-13 * np.max(np.abs(omega), initial=0.0)
    assert np.max(np.abs(std - omega), initial=0.0) <= tolerance


@given(st.data(), st.integers(0, 2**32 - 1))
def test_std_chart_is_the_orbit_form_on_random_chambers(data, seed):
    """The same oracle at chambers of n = 2..8 with random block
    multiplicities (walls included) and gaps between 0.1 and 2, at the
    identity and at generic and far witnesses."""
    n = data.draw(st.integers(2, 8))
    ends = [*sorted(data.draw(st.sets(st.integers(1, n - 1)))), n]
    gaps = [Fraction(data.draw(st.integers(10, 200)), 100) for _ in ends[1:]]
    values = [-sum(gaps[:b]) for b in range(len(ends))]
    entries = [v for v, start, end in zip(values, [0, *ends], ends) for _ in range(start, end)]
    mean = sum(entries) / n
    model = SpecialLinearModel(n)
    chamber = model.chamber_element([e - mean for e in entries])
    rng = np.random.default_rng(seed)
    witnesses = np.stack([np.eye(n), *[model.random_group_element(rng, strength / n)
                                       for strength in (1.2, 1.2, 2.0, 2.0)]])
    std = omega_std_chart(orbit_chart(orbit_point(chamber, witnesses)))
    omega = chamber._orbit_form
    tolerance = 1e-13 * np.max(np.abs(omega), initial=0.0)
    assert np.max(np.abs(std - omega), initial=0.0) <= tolerance


@pytest.mark.parametrize("basis", [None, "n_basis", "m_basis"])
@pytest.mark.parametrize("entries", [[1, 0, -1], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5], [1, 1, -2],
                                     [1, 1, 1, 1, -1, -1, -1, -1]],
                         ids=["chamber3", "n6-regular", "wall3", "n8-wall"])
def test_std_chart_is_exact_under_dilation(entries, basis):
    """R, R^-1 and the L_i do not depend on H, and neither does the inverse
    check, which has no max(1, .) floor: at c H, for c = 2^k with k in
    {-40, -20, 20, 40}, the standard form of the same witnesses is c times
    its form at H bit for bit, and raises at none of them."""
    model = SpecialLinearModel(len(entries))
    witnesses = np.stack([np.eye(model.n),
                          *[model.random_group_element(seed, 2.0 / model.n) for seed in (5, 6)]])
    forms = {}
    for k in (0, -40, -20, 20, 40):
        chamber = model.chamber_element([2.0 ** k * e for e in entries])
        directions = None if basis is None else getattr(chamber, basis)
        chart = orbit_chart(orbit_point(chamber, witnesses), directions=directions)
        forms[k] = omega_std_chart(chart)
    if basis is None:
        assert np.any(forms[0] != 0.0)
    for k in (-40, -20, 20, 40):
        assert forms[k].tobytes() == (2.0 ** k * forms[0]).tobytes(), k


def exact_form_parts(chart):
    """Runs ``omega_std_chart`` on a chart of dim >= 2 and returns what it
    read on the way, through hooks on its names in ``symplectic``: the
    witnesses it factored, their K and R = A N, the R^-1 it checked against
    R, and its L_i, P and V0 (the arguments of its two commutators)."""
    calls = {"qr_positive": [], "_frobenius_stack": [], "commutator": []}

    def recorded(name, real):
        def wrapper(*args):
            out = real(*args)
            calls[name].append((args, out))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(symplectic, name, recorded(name, getattr(symplectic, name)))
        omega_std_chart(chart)
    [((w,), (k, r))] = calls["qr_positive"]
    [_, ((r_checked,), _), ((r_inv,), _)] = calls["_frobenius_stack"]
    assert r_checked is r
    [((l_i, p), _), ((_, v0), _)] = calls["commutator"]
    return w, k, r, r_inv, l_i, p[..., 0, :, :], v0[..., 0, :, :]


def inverting_route(chart):
    """R^-1, L_i = R^-1 triu(R X_i R^-1) R, P = R^-1 H R and V0 = H - P by
    the route that inverts each R factor of the base witnesses and solves
    with it."""
    h = chart.at.chamber.matrix
    _, r = qr_positive(chart.at.witness)
    r_inv = np.linalg.inv(r)
    p = np.linalg.solve(r, h @ r)
    u = np.triu(r[..., None, :, :] @ chart.directions @ r_inv[..., None, :, :])
    return r_inv, np.linalg.solve(r[..., None, :, :], u @ r[..., None, :, :]), p, h - p


@pytest.mark.parametrize("basis", [None, "m_basis"])
@pytest.mark.parametrize("entries", sweep_chambers())
def test_stencil_inverses_match_the_inverting_route(entries, basis):
    """The exact standard form took the fourth-order stencil's place, and its
    stencil is one point per sample, the base witness g = K R itself.  It
    reads R^-1 as triu(g^-1 K) from the base point's kept inverse instead of
    inverting R.  Its R^-1, L_i, P and V0 equal those of the route that
    inverts and solves, within 1e-12 times each base point's scale, at the
    identity, generic and far witnesses.  Its K and R are ``qr_positive`` of
    the chart's witnesses bit for bit, and R^-1, P, V0 and every L_i are
    exactly upper triangular."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    witnesses = np.stack([np.eye(model.n),
                          *[model.random_group_element(seed, 1.2 / model.n) for seed in (3, 4)],
                          *[model.random_group_element(seed, 2.0 / model.n) for seed in (5, 6, 7)]])
    directions = None if basis is None else getattr(chamber, basis)
    chart = orbit_chart(orbit_point(chamber, witnesses), directions=directions)
    if chart.dim < 2:
        return
    w, k, r, *got = exact_form_parts(chart)
    k_ref, r_ref = qr_positive(chart.at.witness)
    assert np.array_equal(w, chart.at.witness)
    assert np.array_equal(k, k_ref) and np.array_equal(r, r_ref)
    for part in got:
        assert np.array_equal(part, np.triu(part))
    for part, ref in zip(got, inverting_route(chart)):
        part, ref = part.reshape(len(witnesses), -1), ref.reshape(len(witnesses), -1)
        scale = np.fmax(1.0, np.max(np.abs(ref), axis=1))
        assert np.all(np.max(np.abs(part - ref), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("basis", [None, "n_basis", "m_basis"])
@pytest.mark.parametrize("entries", [[1, 0, -1], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]],
                         ids=["chamber3", "n6-regular"])
def test_stencil_is_the_same_under_dilation(entries, basis):
    """R, R^-1 and the L_i of the exact form's one stencil point per sample,
    the base witness, do not depend on the scale of H, and neither does its
    inverse check, which has no max(1, .) floor: at c H for c = 2^-40, 1 and
    2^40 the same witnesses give the same (K, R, R^-1, L_i) bit for bit, and
    the form raises at none of them."""
    model = SpecialLinearModel(len(entries))
    witnesses = np.stack([np.eye(model.n),
                          *[model.random_group_element(seed, 2.0 / model.n) for seed in (5, 6)]])
    stencils = []
    for c in (2.0 ** -40, 1.0, 2.0 ** 40):
        chamber = model.chamber_element([c * e for e in entries])
        directions = None if basis is None else getattr(chamber, basis)
        chart = orbit_chart(orbit_point(chamber, witnesses), directions=directions)
        _, k, r, r_inv, l_i, _, _ = exact_form_parts(chart)
        stencils.append([a.tobytes() for a in (k, r, r_inv, l_i)])
    assert stencils[0] == stencils[1] == stencils[2]


def reference_tautological(x, fac, gens):
    """Tautological values on left-trivialized generators, one direction
    at a time through the public closed-form factor velocities."""
    model = x.chamber.model
    k = fac.k_factor
    fiber = x.point - k @ x.chamber.matrix @ k.T
    return np.array([
        model.killing(fiber, k @ infinitesimal_iwasawa(z, x.witness, factors=fac).k_deriv @ k.T)
        for z in gens
    ])


def reference_std_chart(chart, h=1e-3):
    """The chart matrix of the cotangent form, pair by pair, from
    per-direction exponential derivatives and reference values."""
    m = chart.dim
    offsets = (-2.0 * h, -h, h, 2.0 * h)
    lam = np.zeros((m, 4, m))
    for i in range(m):
        for si, s in enumerate(offsets):
            t = np.zeros(m)
            t[i] = s
            u = chart._displacement(t)
            p = chart.point(t)
            gens = [_dexp(u, d) for d in chart.directions]
            lam[i, si] = reference_tautological(p, iwasawa(p.witness), gens)
    entries = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                dij = (lam[i, 0, j] - 8.0 * lam[i, 1, j] + 8.0 * lam[i, 2, j] - lam[i, 3, j]) / (12.0 * h)
                dji = (lam[j, 0, i] - 8.0 * lam[j, 1, i] + 8.0 * lam[j, 2, i] - lam[j, 3, i]) / (12.0 * h)
                entries[i, j] = -(dij - dji)
    return entries


STACK_CHAMBERS = ["chamber3", "wall3", "chamber4"]


def stacked_witnesses(chamber):
    """Witnesses (3, n, n) for a stacked chart: the identity, a generic
    witness and a far one."""
    model = chamber.model
    return np.stack([np.eye(model.n), model.random_group_element(55, 0.4),
                     model.random_group_element(56, 2.0 / model.n)])


class TestStackedKernels:
    """The stacked chart-form kernels against one-direction-at-a-time
    evaluations through public calls."""

    def chart(self, chamber):
        g = chamber.model.random_group_element(55, 0.4)
        return orbit_chart(orbit_point(chamber, g))

    @pytest.mark.parametrize("chamber_name", STACK_CHAMBERS)
    def test_tautological_stack_matches_reference(self, chamber_name, request):
        """``tautological`` on each coordinate field of ``coordinate_frame``,
        at t = 0 and t != 0, against the reference on the field's
        left-trivialized generator dexp(u, X_i)."""
        chart = self.chart(request.getfixturevalue(chamber_name))
        rng = np.random.default_rng(57)
        for t in (np.zeros(chart.dim), rng.uniform(-1e-2, 1e-2, chart.dim)):
            p, frame = chart.coordinate_frame(t)
            fac = iwasawa(p.witness)
            ref = reference_tautological(p, fac, _dexp(chart._displacement(t), chart.directions))
            scale = max(1.0, np.max(np.abs(ref)))
            assert len(frame) == len(ref)
            for v, expected in zip(frame, ref):
                assert abs(tautological(p, v, factors=fac) - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("chamber_name", STACK_CHAMBERS)
    def test_kks_chart_matches_pair_loop(self, chamber_name, request):
        chart = self.chart(request.getfixturevalue(chamber_name))
        model = chart.at.chamber.model
        t = np.random.default_rng(59).uniform(-1e-2, 1e-2, chart.dim)
        p, gens = chart.frame_generators(t)
        ref = np.array([[model.killing(p.point, commutator(a, b)) for b in gens] for a in gens])
        entries = omega_kks_chart(chart, t)
        assert np.max(np.abs(entries - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(entries, -entries.T)
        assert np.all(np.diag(entries) == 0.0)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 12)])
    def test_bracket_pairing_matches_trace_loop(self, batch, chamber4):
        """The batched matrix product gives 2n (tr(x Z_i Z_j) - tr(x Z_j Z_i))
        for one point, a stack of points and the (2, dim) batch of the
        invariance shifts, exactly antisymmetric with a zero diagonal."""
        rng = np.random.default_rng(61)
        m = 12  # the dimension of the default chart at this chamber
        x = rng.standard_normal((*batch, 4, 4))
        gens = rng.standard_normal((*batch, m, 4, 4))
        got = symplectic._bracket_pairing(chamber4, x, gens)
        assert got.shape == (*batch, m, m)
        for idx in np.ndindex(*batch):
            ref = np.array([[8.0 * (np.trace(x[idx] @ a @ b) - np.trace(x[idx] @ b @ a))
                             for b in gens[idx]] for a in gens[idx]])
            assert np.max(np.abs(got[idx] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(got[idx], -got[idx].T)
            assert np.all(np.diag(got[idx]) == 0.0)

    @pytest.mark.parametrize("chamber_name", STACK_CHAMBERS)
    def test_std_chart_matches_reference_loop(self, chamber_name, request):
        chart = self.chart(request.getfixturevalue(chamber_name))
        ref = reference_std_chart(chart)
        entries = omega_std_chart(chart)
        assert np.max(np.abs(entries - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("dim", [0, 1])
    def test_small_charts_give_zero_matrices(self, dim, model2, chamber2):
        if dim == 0:
            chart = orbit_chart(orbit_point(model2.chamber_element([0, 0]), np.eye(2)))
        else:
            chart = orbit_chart(orbit_point(chamber2, np.eye(2)), directions=chamber2.n_basis)
        assert chart.dim == dim
        for form in (omega_std_chart(chart), omega_kks_chart(chart)):
            assert form.shape == (dim, dim)
            assert np.all(form == 0.0)

    def test_dexp_at_minus_u_is_the_trace_adjoint(self, chamber4):
        """tr(V dexp(u, X)) = tr(dexp(-u, V) X), on matching stacks of u
        and V, for every basis direction X."""
        rng = np.random.default_rng(65)
        model = chamber4.model
        u = np.stack([model.random_algebra_element(rng, 0.3) for _ in range(3)])
        v = np.stack([model.random_algebra_element(rng, 1.0) for _ in range(3)])
        d = _dexp(-u, v)
        for x_dir in model.algebra_basis:
            lhs = np.einsum("pab,pba->p", v, _dexp(u, np.broadcast_to(x_dir, u.shape)))
            rhs = np.einsum("pab,ba->p", d, x_dir)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14

    @pytest.mark.parametrize("basis", [None, "m_basis", "n_basis"])
    @pytest.mark.parametrize("chamber_name", STACK_CHAMBERS)
    def test_stacked_chart_matches_single_charts(self, chamber_name, basis, request):
        """A chart at a stack of base points gives every base point the
        frame, both form matrices and the smallest singular value of its
        own chart, bit for bit.  The m(H) directions give dexp series that
        do not terminate, so the base points' series stop on their own."""
        chamber = request.getfixturevalue(chamber_name)
        directions = None if basis is None else getattr(chamber, basis)
        witnesses = stacked_witnesses(chamber)
        stacked = orbit_chart(orbit_point(chamber, witnesses), directions=directions)
        t0 = np.zeros(stacked.dim)
        _, gens = stacked.frame_generators(t0)
        kks_form = omega_kks_chart(stacked)
        std_form = omega_std_chart(stacked)
        smin = np.linalg.svd(kks_form, compute_uv=False)[..., -1]
        assert gens.shape == (len(witnesses), stacked.dim, *witnesses.shape[1:])
        assert smin.shape == (len(witnesses),)
        for i, g in enumerate(witnesses):
            chart = orbit_chart(orbit_point(chamber, g), directions=directions)
            single = omega_kks_chart(chart)
            assert np.array_equal(gens[i], chart.frame_generators(t0)[1])
            assert np.array_equal(kks_form[i], single)
            assert np.array_equal(std_form[i], omega_std_chart(chart))
            assert smin[i] == np.linalg.svd(single, compute_uv=False)[-1]

    def test_dexp_series_of_a_stack_stop_on_their_own(self, chamber4):
        """Each index of the axes that x has in front of u's gets the terms
        of its own call bit for bit, though the three problems here lie
        nine orders of magnitude apart."""
        rng = np.random.default_rng(67)
        model = chamber4.model
        u = np.stack([model.random_algebra_element(rng, 0.05) for _ in range(3)])
        x = np.stack([[model.random_algebra_element(rng, scale) for _ in range(3)]
                      for scale in (1e3, 1.0, 1e-6)])
        d = _dexp(u, x)
        for xi, di in zip(x, d):
            assert np.array_equal(di, _dexp(u, xi))

    def test_dexp_term_count_depends_on_the_shift_alone(self, chamber4, monkeypatch):
        """Call-count guard: the bracket terms of one ``_dexp`` call, counted
        as ``commutator`` calls, are as many for 1, 2 and 64 stacked base
        points and for x scaled by 1e-6, 1 and 1e6.  The m(H) shifts have
        two nonzero entries and a series that does not terminate.  A shift
        u = s E_ij with one nonzero entry has ad_u^2 V = -2 s^2 V_ji E_ij and
        ad_u^3 = 0, so for strictly upper V the default chart's series stops
        at its third term, exactly zero, at every base point at once, and
        the n(H) series at its second, since V_ji = 0 for i < j."""
        counts = []

        def commutator_counted(a, b):
            counts[-1] += 1
            return commutator(a, b)

        monkeypatch.setattr(orbit_module, "commutator", commutator_counted)
        rng = np.random.default_rng(69)
        offsets = np.multiply(STENCIL_OFFSETS, 1e-3)
        for directions, upper in ((chamber4.m_basis, False), (chamber4._chart_basis, True),
                                  (chamber4.n_basis, True)):
            u = np.multiply.outer(offsets, directions)
            for size, scale in ((1, 1.0), (2, 1.0), (64, 1.0), (2, 1e-6), (2, 1e6)):
                x = scale * rng.standard_normal((size, *u.shape))
                counts.append(0)
                _dexp(-u, np.triu(x, 1) if upper else x)
        assert len(set(counts[:5])) == 1 and counts[0] > 3
        assert counts[5:] == [3] * 5 + [2] * 5

    @pytest.mark.parametrize("size", [None, 1, 3])
    def test_std_chart_factors_once_per_chart(self, chamber3, monkeypatch, size):
        """Call-count guard: the standard form of a chart, at one base point
        or at a stack of them, makes exactly one ``qr_positive`` call, on
        the base witnesses as they are, and no ``_dexp``, Iwasawa
        factorization, determinant check, inversion or solve; it builds no
        point: no ``orbit_point``, ``_conjugates``, ``char_poly`` or
        single-point ``tautological`` call."""
        g = chamber3.model.random_group_element(55, 0.4)
        witnesses = g if size is None else np.stack([g] * size)
        chart = orbit_chart(orbit_point(chamber3, witnesses))
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, np.shape(args[-1])))
                return fn(*args, **kwargs)
            return wrapper

        iwasawa_module = importlib.import_module("orbitsym.iwasawa")
        for module in (symplectic, orbit_module, iwasawa_module):
            for name in ("qr_positive", "iwasawa", "_require_det_one", "_dexp", "orbit_point",
                         "_conjugates", "char_poly", "tautological"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
        for name in ("inv", "solve"):
            monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
        omega_std_chart(chart)
        assert calls == [("qr_positive", witnesses.shape)]
