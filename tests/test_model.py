from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbitsym import NotInChamber, SpecialLinearModel, mat_exp, random_combination, split_kan
from orbitsym import model as model_module
from orbitsym.numerics import STENCIL_OFFSETS


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestKilling:
    def test_diagonal_value_by_hand(self, model2):
        h = np.diag([1.0, -1.0])
        assert model2.killing(h, h) == pytest.approx(8.0)

    def test_compact_orthogonal_to_diagonal(self, model3):
        h = np.diag([1.0, 0.0, -1.0])
        for x in model3.k_basis:
            assert model3.killing(x, h) == pytest.approx(0.0, abs=1e-14)

    def test_chamber_orthogonal_to_nilpotent_slice(self, chamber3):
        model = chamber3.model
        for y in chamber3.n_basis:
            assert model.killing(chamber3.matrix, y) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_adjoint_trace_form(self, n):
        """Oracle: the trace form of the adjoint representation computed
        from structure constants equals 2n tr(XY) entrywise."""
        model = SpecialLinearModel(n)
        basis = model.algebra_basis
        d = len(basis)
        flat = np.stack([b.ravel() for b in basis]).T  # n^2 x d
        ads = []
        for x in basis:
            brackets = np.stack([(x @ b - b @ x).ravel() for b in basis]).T
            coords, *_ = np.linalg.lstsq(flat, brackets, rcond=None)
            ads.append(coords)
        trace_form = np.array([[np.trace(ads[i] @ ads[j]) for j in range(d)] for i in range(d)])
        killing_form = np.array(
            [[model.killing(basis[i], basis[j]) for j in range(d)] for i in range(d)]
        )
        assert_allclose(trace_form, killing_form, atol=1e-10)


class TestCartanInvolution:
    def test_fixes_antisymmetric(self, model3):
        for x in model3.k_basis:
            assert_allclose(model3.cartan_involution(x), x)

    def test_negates_symmetric(self, model2):
        x = np.array([[1.0, 2.0], [2.0, -1.0]])
        assert_allclose(model2.cartan_involution(x), -x)

    def test_elementary_matrix(self, model2):
        assert_allclose(model2.cartan_involution(unit(2, 0, 1)), -unit(2, 1, 0))

    def test_involutive(self, model3):
        x = model3.random_algebra_element(9, 1.0)
        assert_allclose(model3.cartan_involution(model3.cartan_involution(x)), x)


class TestSplitKan:
    def test_antisymmetric_input(self, model3):
        x = model3.k_basis[0]
        k, a, n = split_kan(x)
        assert_allclose(k, x)
        assert np.all(a == 0) and np.all(n == 0)

    def test_lower_elementary_by_hand(self):
        e21 = unit(2, 1, 0)
        k, a, n = split_kan(e21)
        assert_allclose(k, e21 - unit(2, 0, 1))
        assert np.all(a == 0)
        assert_allclose(n, unit(2, 0, 1))

    def test_diagonal_input(self, model3):
        x = np.diag([2.0, -1.0, -1.0])
        k, a, n = split_kan(x)
        assert np.all(k == 0) and np.all(n == 0)
        assert_allclose(a, x)

    @given(st.integers(0, 300))
    def test_components_have_shapes_and_sum_back(self, seed):
        rng = np.random.default_rng(seed)
        n_size = int(rng.integers(2, 7))
        x = rng.uniform(-3, 3, (n_size, n_size))
        x -= np.trace(x) / n_size * np.eye(n_size)
        xk, xa, xn = split_kan(x)
        assert np.linalg.norm(xk + xk.T) == 0.0
        assert np.linalg.norm(xa - np.diag(np.diag(xa))) == 0.0
        assert np.linalg.norm(np.tril(xn)) == 0.0
        assert np.linalg.norm(xk + xa + xn - x) <= 1e-15 * max(1.0, np.linalg.norm(x))

    @given(st.integers(0, 300))
    def test_projection_triple_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (4, 4))
        xk, xa, xn = split_kan(x)
        assert_allclose(split_kan(xk)[0], xk)
        assert_allclose(split_kan(xa)[1], xa)
        assert_allclose(split_kan(xn)[2], xn)

    def test_stack_splits_slice_by_slice(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(-3, 3, (2, 5, 4, 4))
        parts = split_kan(stack)
        for idx in np.ndindex(stack.shape[:2]):
            for part, single in zip(parts, split_kan(stack[idx])):
                assert np.array_equal(part[idx], single)


class TestChamberElement:
    def test_regular_three(self, chamber3):
        assert chamber3.blocks == ((1.0, 1), (0.0, 1), (-1.0, 1))
        assert chamber3.n_positions == ((0, 1), (0, 2), (1, 2))
        assert chamber3.dim_n == 3
        assert chamber3.dim_m == 3
        assert chamber3.is_regular

    def test_wall_three(self, wall3):
        assert wall3.blocks == ((1.0, 2), (-2.0, 1))
        assert wall3.n_positions == ((0, 2), (1, 2))
        assert wall3.dim_n == 2
        assert wall3.dim_m == 2
        assert not wall3.is_regular

    def test_zero_chamber_is_a_point(self, model2):
        ch = model2.chamber_element([0, 0])
        assert ch.dim_n == 0
        assert ch.orbit_dim == 0

    def test_not_decreasing_raises(self, model2):
        with pytest.raises(NotInChamber, match="weakly decreasing"):
            model2.chamber_element([-1, 1])

    def test_nonzero_sum_raises(self, model2):
        with pytest.raises(NotInChamber, match="sum to zero"):
            model2.chamber_element([1, 1])

    def test_wrong_length_raises(self, model3):
        with pytest.raises(NotInChamber):
            model3.chamber_element([1, -1])

    def test_rational_entries_detect_walls_exactly(self, model3):
        ch = model3.chamber_element([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
        assert ch.blocks[0][1] == 2

    def test_float_sum_is_exact_comparison(self, model3):
        with pytest.raises(NotInChamber, match="sum to zero"):
            model3.chamber_element([0.3, 0.1, -0.4])
        model3.chamber_element([Fraction("0.3"), Fraction("0.1"), Fraction("-0.4")])

    @pytest.mark.parametrize(
        "entries",
        [[1, -1], [1, 0, -1], [1, 1, -2], [1.5, 0.5, -0.5, -1.5], [1, 1, -1, -1], [2, 1, 0, -1, -2], [1, 1, 1, 1, -4]],
    )
    def test_dimension_identities(self, entries):
        model = SpecialLinearModel(len(entries))
        ch = model.chamber_element(entries)
        mults = [m for _, m in ch.blocks]
        expected_fiber = sum(
            mults[i] * mults[j] for i in range(len(mults)) for j in range(i + 1, len(mults))
        )
        assert ch.dim_n == expected_fiber
        assert ch.dim_m == ch.dim_n
        assert ch.dim_z + 2 * ch.dim_n == model.dim
        assert ch.dim_zk == sum(m * (m - 1) // 2 for m in mults)
        assert ch.orbit_dim == 2 * ch.dim_n
        assert ch.flag_dim == ch.dim_m

    def test_iwasawa_dimension_count(self):
        for n in range(2, 7):
            model = SpecialLinearModel(n)
            assert len(model.k_basis) + len(model.a_basis) + len(model.n_basis) == model.dim


def reference_bases(model, chamber):
    """Every basis as one unit matrix at a time (E_ij = unit(n, i, j)),
    in the documented order."""
    n = model.n
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    block = [chamber.blocks.index(b) for b in chamber.blocks for _ in range(b[1])]
    same = [(i, j) for i in range(n) for j in range(n) if i != j and block[i] == block[j]]
    positions = [(i, j) for i, j in upper if block[i] != block[j]]
    return {
        "k_basis": [unit(n, i, j) - unit(n, j, i) for i, j in upper],
        "a_basis": [unit(n, i, i) - unit(n, i + 1, i + 1) for i in range(n - 1)],
        "n_basis": [unit(n, i, j) for i, j in upper],
        "chamber.n_basis": [unit(n, i, j) for i, j in positions],
        "chamber.theta_n_basis": [-unit(n, i, j).T for i, j in positions],
        "chamber.z_basis": [unit(n, i, i) - unit(n, i + 1, i + 1) for i in range(n - 1)]
        + [unit(n, i, j) for i, j in same],
        "chamber.zk_basis": [unit(n, i, j) - unit(n, j, i) for i, j in same if i < j],
        "chamber.m_basis": [unit(n, i, j) - unit(n, j, i) for i, j in positions],
    }


# regular and wall chambers at n = 2..8
BASIS_ENTRIES = [
    [1, -1], [0, 0], [1, 0, -1], [1, 1, -2], [1.5, 0.5, -0.5, -1.5], [1, 1, -1, -1],
    [2, 1, 0, -1, -2], [1, 1, 1, 1, -4], [2.5, 1.5, 0.5, -0.5, -1.5, -2.5],
    [1, 1, 1, -1, -1, -1], [3, 2, 1, 0, -1, -2, -3], [1, 1, 1, 1, 1, 1, -6],
    [3.5, 2.5, 1.5, 0.5, -0.5, -1.5, -2.5, -3.5], [1, 1, 1, 1, -1, -1, -1, -1],
]


@pytest.mark.parametrize("entries", BASIS_ENTRIES, ids=lambda e: ",".join(map(str, e)))
def test_bases_match_unit_matrices(entries):
    """Each basis, built through index arrays, is one read-only float stack
    (dim, n, n) whose slices equal the unit-matrix references entry for
    entry, in order, with the same memory layout (theta n(H) is a
    transpose), signed zeros included."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    n = model.n
    dims = {"chamber.n_basis": chamber.dim_n, "chamber.theta_n_basis": chamber.dim_n,
            "chamber.z_basis": chamber.dim_z, "chamber.zk_basis": chamber.dim_zk,
            "chamber.m_basis": chamber.dim_m}
    for name, expected in reference_bases(model, chamber).items():
        owner = chamber if name.startswith("chamber.") else model
        got = getattr(owner, name.split(".")[-1])
        assert isinstance(got, np.ndarray) and got.dtype == np.float64, name
        assert got.shape == (len(expected), n, n) and not got.flags.writeable, name
        assert len(got) == dims.get(name, len(expected)), name
        for e, ref in zip(got, expected):
            assert np.array_equal(e, ref) and np.array_equal(np.signbit(e), np.signbit(ref)), name
            assert e.flags.c_contiguous == ref.flags.c_contiguous, name
            assert e.flags.f_contiguous == ref.flags.f_contiguous, name
    assert isinstance(model.algebra_basis, np.ndarray) and not model.algebra_basis.flags.writeable
    assert np.array_equal(model.algebra_basis,
                          np.concatenate([model.k_basis, model.a_basis, model.n_basis]))


@pytest.mark.parametrize("entries", [[0, 0], [1, 0, -1], [1, 1, -2], [1, 1, -1, -1]])
def test_basis_tuples_are_views_of_their_stacks(entries):
    """Each basis is built once, as one read-only (dim, n, n) stack, and
    the matrices it yields as a sequence, by iteration or by index, are
    read-only views of that stack rather than copies."""
    model = SpecialLinearModel(len(entries))
    chamber = model.chamber_element(entries)
    names = {model: ("k_basis", "a_basis", "n_basis", "algebra_basis"),
             chamber: ("n_basis", "theta_n_basis", "z_basis", "zk_basis", "m_basis")}
    for owner, owned in names.items():
        for name in owned:
            stack = getattr(owner, name)
            assert stack.shape == (len(stack), model.n, model.n), name
            assert not stack.flags.writeable, name
            for i, e in enumerate(stack):
                assert np.shares_memory(e, stack) and not e.flags.writeable, name
                assert np.shares_memory(stack[i], stack), name
            assert np.array_equal(stack, np.reshape(list(stack), stack.shape)), name


class TestSubspaceOrthogonality:
    def test_centralizer_orthogonal_to_slices(self, wall3):
        model = wall3.model
        for z in wall3.z_basis:
            for u in list(wall3.n_basis) + list(wall3.theta_n_basis):
                assert abs(model.killing(z, u)) <= 1e-12

    def test_opposite_slices_pair_only_on_matching_roots(self, chamber4):
        model = chamber4.model
        for a, u in enumerate(chamber4.theta_n_basis):
            for b, v in enumerate(chamber4.n_basis):
                value = model.killing(u, v)
                if a == b:
                    assert value == pytest.approx(-model.killing_coefficient)
                else:
                    assert abs(value) <= 1e-12
                assert abs(model.killing(u, model.cartan_involution(v))) <= 1e-12

    def test_compact_centralizer_stabilizes_chamber(self, wall3, wall4):
        for chamber in (wall3, wall4):
            rng = np.random.default_rng(5)
            for t in (0.3, 1.7):
                w = chamber.random_compact_centralizer(rng, 1.0)
                g = mat_exp(t * w)
                moved = g @ chamber.matrix @ np.linalg.inv(g)
                scale = max(1.0, np.linalg.norm(chamber.matrix))
                assert np.linalg.norm(moved - chamber.matrix) <= 1e-10 * scale


class TestRandomness:
    def test_zero_scale(self, model3):
        assert np.all(model3.random_algebra_element(0, 0.0) == 0.0)
        assert_allclose(model3.random_group_element(0, 0.0), np.eye(3))

    def test_determinism(self, model3):
        a = model3.random_algebra_element(123, 0.7)
        b = model3.random_algebra_element(123, 0.7)
        assert np.array_equal(a, b)
        g1 = model3.random_group_element(77, 0.4)
        g2 = model3.random_group_element(77, 0.4)
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("n, factors", [(2, 3), (4, 3), (6, 3), (4, 1), (4, 0)])
    def test_group_element_is_the_product_of_single_exponentials(self, n, factors):
        """The stacked exponentials give the left-to-right product of one
        ``mat_exp`` per factor, bit for bit, from the same draws."""
        model = SpecialLinearModel(n)
        rng = np.random.default_rng(19)
        expected = np.eye(n)
        for _ in range(factors):
            expected = expected @ mat_exp(model.random_algebra_element(rng, 0.5))
        g = model.random_group_element(np.random.default_rng(19), 0.5, factors=factors)
        assert np.array_equal(g, expected)

    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    def test_group_logs_are_single_draws_bit_for_bit(self, n):
        """One stacked draw with one trace removal gives the factor logs of
        ``random_group_element``, and leaves the generator, as one
        ``random_algebra_element`` per factor; each of those is a uniform
        draw minus tr/n times the identity."""
        model = SpecialLinearModel(n)
        for seed in range(50):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            logs = model._algebra_elements([rngs[0]], 1.2 / n, 3)[0]
            single = np.stack([model.random_algebra_element(rngs[1], 1.2 / n) for _ in range(3)])
            by_hand = rngs[2].uniform(-1.2 / n, 1.2 / n, (3, n, n))
            for m in by_hand:
                m -= np.trace(m) / n * np.eye(n)
            for other in (single, by_hand):
                assert np.array_equal(logs, other)
                assert np.array_equal(np.signbit(logs), np.signbit(other))
            assert len({rng.random() for rng in rngs}) == 1

    def test_algebra_element_is_traceless(self, model4):
        x = model4.random_algebra_element(3, 1.0)
        assert abs(np.trace(x)) <= 1e-13

    @given(st.integers(0, 200))
    def test_group_element_has_unit_determinant(self, seed):
        model = SpecialLinearModel(4)
        g = model.random_group_element(seed, 0.3)
        assert abs(np.linalg.det(g) - 1.0) <= 1e-10

    def test_orthogonal_sampler(self, model3):
        k = model3.random_orthogonal(11, 0.5)
        assert np.linalg.norm(k.T @ k - np.eye(3)) <= 1e-12
        assert np.linalg.det(k) == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(1, 3), (3, 4, 4), (2, 0)])
def test_uniform_fills_equal_uniform_draws(shape):
    """``_uniforms`` fills each generator's row with doubles and scales the
    stack in place; every row equals ``rng.uniform(-s, s, shape)`` bit for
    bit and leaves its generator where the draw leaves it.  An empty shape
    draws nothing."""
    for seed in range(200):
        for scale in (0.8, 1.2 / 7, 3.0):
            rngs = [np.random.default_rng([seed, i]) for i in range(3)]
            refs = [np.random.default_rng([seed, i]) for i in range(3)]
            states = [rng.bit_generator.state for rng in rngs]
            filled = model_module._uniforms(rngs, scale, shape)
            expected = np.array([rng.uniform(-scale, scale, shape) for rng in refs])
            assert filled.shape == (3, *shape)
            assert np.array_equal(filled.view(np.int64), expected.view(np.int64))
            assert [rng.bit_generator.state for rng in rngs] == (
                states if 0 in shape else [rng.bit_generator.state for rng in refs])


def test_random_combination_of_an_empty_basis_is_zero_and_draws_nothing(chamber3):
    """z_K(H) = 0 at a regular chamber: the combination is the zero matrix
    and the generator's state does not move."""
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    combination = random_combination(chamber3.zk_basis, rng, 1.0)
    assert combination.shape == (3, 3) and not combination.any()
    assert rng.bit_generator.state == state


class TestShiftExponentials:
    def test_own_stacks_are_kept_read_only_and_match_a_fresh_exp(self, model4):
        chamber = model4.chamber_element([1, 1, -1, -1])
        offsets = np.multiply(STENCIL_OFFSETS, 1e-3)
        for stack in (chamber._chart_basis, chamber.n_basis, chamber.m_basis):
            exps = chamber._shift_exps(stack, offsets)
            assert chamber._shift_exps(stack, offsets) is exps
            assert not exps.flags.writeable
            assert exps.tobytes() == mat_exp(np.multiply.outer(offsets, stack)).tobytes()

    def test_other_stacks_are_exponentiated_afresh(self, model4):
        chamber = model4.chamber_element([1, 1, -1, -1])
        offsets = np.multiply(STENCIL_OFFSETS, 1e-3)
        copy = np.array(chamber.m_basis)
        first = chamber._shift_exps(copy, offsets)
        assert chamber._shift_exps(copy, offsets) is not first
        assert first.tobytes() == chamber._shift_exps(chamber.m_basis, offsets).tobytes()
        assert len(chamber._shift_exps_kept) == 1

    def test_at_most_a_fixed_number_are_kept(self, model4):
        chamber = model4.chamber_element([1.5, 0.5, -0.5, -1.5])
        for step in range(1, model_module._SHIFT_EXPS_KEPT + 3):
            chamber._shift_exps(chamber.n_basis, np.multiply(STENCIL_OFFSETS, step * 1e-3))
        assert len(chamber._shift_exps_kept) == model_module._SHIFT_EXPS_KEPT
