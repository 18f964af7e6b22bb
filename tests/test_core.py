"""Unit tests for the numerical core.

Analytic gradients are checked against central finite differences of
the loss functions (the oracles live in tests/util.py and only ever
evaluate losses).  Worked examples are frozen by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohash.core import (
    Dataset,
    FactorMatrices,
    HashCode,
    Hyperparams,
    LengthMismatchError,
    RatingTriple,
    active_sum,
    dch_loss,
    grad_item,
    grad_user,
    init_factors,
    mf_grad_item,
    mf_grad_user,
    mf_loss,
    minibatch_gradients,
    pack_bit_matrix,
    predict_relaxed,
    project,
    round_codes,
    sgd_step,
    similarity,
    unpack_bit_matrix,
    words_per_code,
)
from util import (
    fd_grad_item,
    fd_grad_user,
    fd_mf_grad_item,
    fd_mf_grad_user,
    project_vector_loop,
    rand_dataset,
    rand_factors,
    rel_err,
    returns_within,
)


class TestHyperparams:
    def test_defaults_are_valid(self):
        h = Hyperparams()
        assert h.k == 10 and h.workers == 1 and h.staleness == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("batch_size", 0),
            ("staleness", 0),
            ("workers", 0),
            ("servers", 0),
            ("epochs", -1),
            ("alpha", 0.0),
            ("alpha", -0.1),
            ("gamma", 0.0),
            ("lambda_", -1e-9),
            ("seed", -1),
            ("k", 2.5),
        ],
    )
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(ValueError):
            Hyperparams(**{field: value})

    def test_radius(self):
        assert Hyperparams(gamma=4.0).radius == 0.5
        assert Hyperparams(gamma=1.0).radius == 1.0


class TestDataset:
    def test_active_sets_sorted_unique(self):
        d = Dataset(
            np.array([3, 1, 3]),
            np.array([0, 2, 2]),
            np.array([0.0, 0.5, 1.0]),
            np.array([1.0, 3.0, 5.0]),
            num_users=5,
            num_items=4,
        )
        assert d.active_users.tolist() == [1, 3]
        assert d.active_items.tolist() == [0, 2]
        assert len(d) == 3

    def test_id_out_of_range_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([5]), np.array([0]), np.array([0.5]), np.array([3.0]), 5, 4)
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([-1]), np.array([0.5]), np.array([3.0]), 5, 4)

    def test_unnormalized_rating_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([0]), np.array([1.5]), np.array([5.0]), 1, 1)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0, 1]), np.array([0]), np.array([0.5]), np.array([3.0]), 2, 1)

    def test_from_triples_and_subset(self):
        d = Dataset.from_triples(
            [(0, 1, 0.25), (2, 0, 1.0)], num_users=3, num_items=2,
            raw_ratings=[2.0, 5.0], scale=(1.0, 5.0),
        )
        assert d.triples() == [RatingTriple(0, 1, 0.25), RatingTriple(2, 0, 1.0)]
        sub = d.subset(np.array([1]))
        assert sub.triples() == [RatingTriple(2, 0, 1.0)]
        assert sub.num_users == 3 and sub.raw_ratings.tolist() == [5.0]


class TestHashCode:
    def test_bit_zero_is_lowest_bit_of_first_word(self):
        c = HashCode.from_bits([1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert int(c.words[0]) == 1 | (1 << 8)
        assert c.bit(0) == 1 and c.bit(8) == 1 and c.bit(1) == 0

    def test_from_signs_strictly_positive(self):
        c = HashCode.from_signs([0.3, -0.2, 0.0, 1.0])
        assert c.to_bits().tolist() == [True, False, False, True]
        assert c.to_signs().tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_padding_must_be_zero(self):
        with pytest.raises(ValueError):
            HashCode(4, np.array([1 << 10], dtype=np.uint64))

    def test_equality_and_hash(self):
        a = HashCode.from_bits([1, 0, 1])
        b = HashCode.from_bits([1, 0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != HashCode.from_bits([1, 0, 0])
        assert a != HashCode.from_bits([1, 0, 1, 0])

    def test_immutable(self):
        c = HashCode.from_bits([1])
        with pytest.raises(AttributeError):
            c.k = 2

    @pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 65, 128, 512])
    def test_pack_unpack_round_trip(self, k):
        rng = np.random.default_rng(k)
        bits = rng.integers(0, 2, size=(5, k)).astype(bool)
        words = pack_bit_matrix(bits)
        assert words.shape == (5, words_per_code(k))
        assert np.array_equal(unpack_bit_matrix(words, k), bits)


class TestSimilarity:
    def test_identical_codes(self):
        c = HashCode.from_bits([1, 0, 1, 1])
        assert similarity(c, c) == 1.0

    def test_complementary_codes(self):
        a = HashCode.from_bits([1, 0, 1, 0])
        b = HashCode.from_bits([0, 1, 0, 1])
        assert similarity(a, b) == 0.0

    def test_one_bit_differs(self):
        a = HashCode.from_bits([1, 0, 1, 0])
        b = HashCode.from_bits([1, 0, 1, 1])
        assert similarity(a, b) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            similarity(HashCode.from_bits([1]), HashCode.from_bits([1, 0]))

    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_inner_product_form(self, k, seed):
        rng = np.random.default_rng(seed)
        a = HashCode.from_bits(rng.integers(0, 2, size=k))
        b = HashCode.from_bits(rng.integers(0, 2, size=k))
        d = int(np.sum(a.to_bits() != b.to_bits()))
        assert similarity(a, b) == 1.0 - d / k
        dot = float(a.to_signs() @ b.to_signs())
        assert math.isclose(similarity(a, b), 0.5 + dot / (2 * k), rel_tol=0, abs_tol=1e-12)


class TestPredictRelaxed:
    def test_aligned_sign_vectors(self):
        ones = np.ones(8)
        assert predict_relaxed(ones, ones) == 1.0
        assert predict_relaxed(ones, -ones) == 0.0

    def test_zero_dot_gives_half(self):
        assert predict_relaxed(np.array([1.0, -1.0]), np.array([1.0, 1.0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            predict_relaxed(np.ones(3), np.ones(4))

    @given(st.integers(1, 130), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_similarity_on_sign_vectors(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=k)
        b = rng.integers(0, 2, size=k)
        ca, cb = HashCode.from_bits(a), HashCode.from_bits(b)
        assert predict_relaxed(ca.to_signs(), cb.to_signs()) == similarity(ca, cb)


class TestLossAndGradients:
    def test_loss_on_empty_data(self):
        d = Dataset(np.array([]), np.array([]), np.array([]), np.array([]), 3, 3)
        fm = rand_factors(np.random.default_rng(0), d, 4)
        assert dch_loss(d, fm, Hyperparams(k=4, lambda_=2.0)) == 0.0

    def test_loss_hand_example(self):
        d = Dataset(np.array([0]), np.array([0]), np.array([1.0]), np.array([5.0]), 1, 1)
        fm = FactorMatrices(
            np.array([[0.5, -0.5]]), np.array([[0.5, 0.5]]),
            np.array([0.5, -0.5]), np.array([0.5, 0.5]),
        )
        # dot = 0 so the prediction is 1/2; residual 0.5 squared is 0.25
        assert dch_loss(d, fm, Hyperparams(k=2, lambda_=0.0)) == pytest.approx(0.25)
        # norms of the two aggregate sums are both 0.5
        assert dch_loss(d, fm, Hyperparams(k=2, lambda_=0.5)) == pytest.approx(0.25 + 0.5)

    def test_loss_ignores_stale_caches(self):
        rng = np.random.default_rng(7)
        d = rand_dataset(rng, 6, 5, 20)
        fm = rand_factors(rng, d, 3)
        fresh = fm.copy()
        fm.sum_u[:] = 99.0
        fm.sum_v[:] = -3.0
        h = Hyperparams(k=3, lambda_=0.3)
        assert dch_loss(d, fm, h) == dch_loss(d, fresh, h)

    def test_grad_user_empty_batch_no_reg(self):
        rng = np.random.default_rng(1)
        d = rand_dataset(rng, 4, 4, 8)
        fm = rand_factors(rng, d, 5)
        g = grad_user(0, [], fm, Hyperparams(k=5, lambda_=0.0))
        assert np.array_equal(g, np.zeros(5))

    def test_grad_user_rejects_foreign_triple(self):
        rng = np.random.default_rng(2)
        d = rand_dataset(rng, 4, 4, 8)
        fm = rand_factors(rng, d, 3)
        with pytest.raises(ValueError):
            grad_user(0, [RatingTriple(1, 0, 0.5)], fm, Hyperparams(k=3))
        with pytest.raises(ValueError):
            grad_item(0, [RatingTriple(1, 2, 0.5)], fm, Hyperparams(k=3))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            k = int(rng.integers(2, 9))
            d = rand_dataset(rng, 5, 6, 25)
            fm = rand_factors(rng, d, k)
            h = Hyperparams(k=k, lambda_=float(rng.uniform(0.0, 0.2)))
            triples = d.triples()
            i = int(rng.choice(d.active_users))
            batch_u = [t for t in triples if t.user == i]
            g = grad_user(i, batch_u, fm, h)
            assert rel_err(g, fd_grad_user(d, fm, h, i)) < 1e-6
            j = int(rng.choice(d.active_items))
            batch_v = [t for t in triples if t.item == j]
            g = grad_item(j, batch_v, fm, h)
            assert rel_err(g, fd_grad_item(d, fm, h, j)) < 1e-6

    def test_mf_loss_hand_example(self):
        d = Dataset(np.array([0]), np.array([0]), np.array([1.0]), np.array([5.0]), 1, 1)
        fm = FactorMatrices(
            np.array([[1.0, 1.0]]), np.array([[0.5, 0.5]]),
            np.array([1.0, 1.0]), np.array([0.5, 0.5]),
        )
        # dot = 1 so the residual vanishes; penalty is 2 + 0.5
        assert mf_loss(d, fm, 0.0) == pytest.approx(0.0)
        assert mf_loss(d, fm, 2.0) == pytest.approx(2.0 * 2.5)

    def test_mf_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            k = int(rng.integers(2, 7))
            d = rand_dataset(rng, 5, 5, 20)
            fm = rand_factors(rng, d, k)
            lam = float(rng.uniform(0.0, 0.3))
            triples = d.triples()
            i = int(rng.choice(d.active_users))
            g = mf_grad_user(i, [t for t in triples if t.user == i], fm, lam)
            assert rel_err(g, fd_mf_grad_user(d, fm, lam, i)) < 1e-6
            j = int(rng.choice(d.active_items))
            g = mf_grad_item(j, [t for t in triples if t.item == j], fm, lam)
            assert rel_err(g, fd_mf_grad_item(d, fm, lam, j)) < 1e-6


class TestMinibatchGradients:
    @pytest.mark.parametrize("objective", ["dch", "mf"])
    def test_matches_per_entity_gradients(self, objective):
        rng = np.random.default_rng(5)
        d = rand_dataset(rng, 8, 7, 40)
        k = 4
        fm = rand_factors(rng, d, k)
        lam = 0.07
        h = Hyperparams(k=k, lambda_=lam)
        batch = d.triples()[:17]
        uu = np.array([t.user for t in batch])
        ii = np.array([t.item for t in batch])
        rr = np.array([t.rating for t in batch])
        u_index = np.unique(uu)
        i_index = np.unique(ii)
        g_u, g_v = minibatch_gradients(
            uu, ii, rr, fm.U[u_index], fm.V[i_index], u_index, i_index,
            fm.sum_u, fm.sum_v, lam, objective=objective,
        )
        for row, i in enumerate(u_index):
            mine = [t for t in batch if t.user == i]
            if objective == "dch":
                want = grad_user(int(i), mine, fm, h)
            else:
                want = mf_grad_user(int(i), mine, fm, lam)
            np.testing.assert_allclose(g_u[row], want, rtol=1e-12, atol=1e-14)
        for row, j in enumerate(i_index):
            mine = [t for t in batch if t.item == j]
            if objective == "dch":
                want = grad_item(int(j), mine, fm, h)
            else:
                want = mf_grad_item(int(j), mine, fm, lam)
            np.testing.assert_allclose(g_v[row], want, rtol=1e-12, atol=1e-14)

    def test_unknown_objective_raises(self):
        z = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            minibatch_gradients(
                z, z, np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)),
                z, z, np.zeros(2), np.zeros(2), 0.0, objective="nope",
            )


class TestSgdStep:
    def test_basic_update(self):
        out = sgd_step(np.array([1.0, 2.0]), np.array([2.0, 2.0]), 0.5)
        assert out.tolist() == [0.0, 1.0]

    def test_inputs_untouched(self):
        x = np.array([1.0, 2.0])
        sgd_step(x, np.array([1.0, 1.0]), 0.1)
        assert x.tolist() == [1.0, 2.0]

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatchError):
            sgd_step(np.ones(2), np.ones(3), 0.1)


class TestProject:
    def test_inside_ball_unchanged(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(project(x, 1.0), x)

    def test_zero_vector_unchanged(self):
        assert np.array_equal(project(np.zeros(4), 2.0), np.zeros(4))

    def test_outside_ball_lands_on_sphere(self):
        x = np.array([3.0, 4.0])
        y = project(x, 4.0)
        assert np.linalg.norm(y) == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(y, x * (0.5 / 5.0), rtol=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            project(np.ones(2), 0.0)

    @given(
        st.integers(1, 40),
        st.floats(0.01, 100.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_idempotent_exactly(self, k, gamma, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 10, size=k)
        once = project(x, gamma)
        twice = project(once, gamma)
        assert np.array_equal(once, twice)
        assert np.linalg.norm(once) <= 1.0 / math.sqrt(gamma)

    @given(
        st.integers(1, 40),
        st.floats(0.01, 100.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_rows_match_vector_loop(self, k, gamma, seed):
        rng = np.random.default_rng(seed)
        # row scales straddle the radius, so some rows stay put
        X = rng.normal(0, 1, size=(30, k)) * rng.uniform(0.01, 30.0, size=(30, 1))
        out = project(X, gamma)
        assert out.shape == X.shape
        for row, got in zip(X, out):
            assert np.array_equal(got, project_vector_loop(row, gamma))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_returns(self):
        # a NaN norm once kept the rescale loop spinning forever
        vec = returns_within(5.0, project, np.array([1.0, np.inf]), 1.0)
        mat = returns_within(5.0, project, np.array(
            [[3.0, 4.0], [np.nan, 1.0], [0.3, 0.4]]), 4.0)
        assert not np.isfinite(vec).all()
        assert np.isnan(mat[1, 0])
        np.testing.assert_allclose(mat[0], [0.3, 0.4], rtol=1e-12)
        assert mat[2].tolist() == [0.3, 0.4]


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_finite_row_lands_on_sphere(self):
        # the squared norm of such a row is inf; it once became all zeros
        radius = 1.0 / math.sqrt(0.1)
        y = project(np.array([1e200, 1e200]), 0.1)
        assert y[0] == y[1] > 0.0
        assert np.linalg.norm(y) == pytest.approx(radius, rel=1e-12)
        assert np.array_equal(project(y, 0.1), y)
        X = np.array([[3.0, -4.0, 1e160], [3.0, 4.0, 0.0], [0.1, 0.2, 0.3]])
        out = project(X, 1.0)
        np.testing.assert_allclose(out[0], [0.0, 0.0, 1.0], atol=1e-150)
        for row, got in zip(X[1:], out[1:]):
            assert np.array_equal(got, project_vector_loop(row, 1.0))


class TestRoundCodes:
    def test_even_count_median_is_mean_of_middle_two(self):
        # column values 1, 2, 3, 4: median 2.5, so rows 3 and 4 get +1
        U = np.array([[1.0], [2.0]])
        V = np.array([[3.0], [4.0]])
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        users, items = round_codes(fm)
        assert [c.bit(0) for c in users] == [0, 0]
        assert [c.bit(0) for c in items] == [1, 1]

    def test_strictly_greater_only(self):
        # a constant column has no entry strictly above its median
        U = np.full((3, 2), 0.7)
        V = np.full((2, 2), 0.7)
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        users, items = round_codes(fm)
        for c in users + items:
            assert c.to_bits().tolist() == [False, False]

    def test_distinct_values_split_in_half(self):
        rng = np.random.default_rng(11)
        vals = rng.permutation(100).astype(np.float64)
        U = vals[:60, None]
        V = vals[60:, None]
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        users, items = round_codes(fm)
        ones = sum(c.bit(0) for c in users + items)
        assert ones == 50

    def test_thresholds_pool_users_and_items(self):
        U = np.zeros((2, 1))
        V = np.full((2, 1), 10.0)
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        users, items = round_codes(fm)
        # joint median is 5, so the user rows fall below and items above
        assert [c.bit(0) for c in users] == [0, 0]
        assert [c.bit(0) for c in items] == [1, 1]


class TestInitFactors:
    def test_range_and_determinism(self):
        d = rand_dataset(np.random.default_rng(0), 20, 15, 60)
        h = Hyperparams(k=6, seed=42)
        fm1 = init_factors(d, h)
        fm2 = init_factors(d, h)
        assert np.array_equal(fm1.U, fm2.U) and np.array_equal(fm1.V, fm2.V)
        assert fm1.U.shape == (20, 6) and fm1.V.shape == (15, 6)
        assert fm1.U.min() >= -0.5 and fm1.U.max() <= 0.5
        fm3 = init_factors(d, Hyperparams(k=6, seed=43))
        assert not np.array_equal(fm1.U, fm3.U)

    def test_sums_match_recompute(self):
        d = rand_dataset(np.random.default_rng(1), 9, 9, 30)
        fm = init_factors(d, Hyperparams(k=3, seed=5))
        np.testing.assert_array_equal(fm.sum_u, active_sum(fm.U, d.active_users))
        np.testing.assert_array_equal(fm.sum_v, active_sum(fm.V, d.active_items))

    def test_empty_active_sum(self):
        assert np.array_equal(active_sum(np.ones((3, 2)), np.array([], dtype=np.int64)), np.zeros(2))
