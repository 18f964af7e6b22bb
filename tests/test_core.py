"""Unit tests for the numerical core.

Analytic gradients are checked against central finite differences of
the loss functions (the oracles live in tests/util.py and only ever
evaluate losses).  Worked examples are frozen by hand.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohash
from cohash import core
from cohash.core import (
    Dataset,
    FactorMatrices,
    HashCode,
    Hyperparams,
    LengthMismatchError,
    active_sum,
    dch_loss,
    init_factors,
    mf_loss,
    minibatch_gradients,
    pack_bit_matrix,
    predict_relaxed,
    project,
    round_codes,
    round_words,
    similarity,
    unpack_bit_matrix,
    words_per_code,
    xor_popcount,
)
from util import (
    batch_dots_unblocked,
    dch_loss_unblocked,
    fd_gradient_rows,
    mf_loss_unblocked,
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
            ("seed", 1.5),
            ("seed", True),
            ("k", 2.5),
            ("alpha", math.inf),
            ("gamma", math.inf),
            ("lambda_", math.inf),
            ("lambda_", math.nan),
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

    @pytest.mark.parametrize("users,items,num_users,num_items,rows", [
        ([], [], 0, 0, None),                    # empty
        ([], [], 3, 2, None),                    # empty, with entities
        ([4, 4, 2], [6, 1, 6], 7, 9, None),      # ids missing below the counts
        ([0, 5, 3, 5], [2, 2, 0, 7], 6, 8, [1, 3]),
        ([0, 5, 3, 5], [2, 2, 0, 7], 6, 8, []),  # empty subset
    ])
    def test_active_sets_equal_unique(self, users, items, num_users, num_items, rows):
        n = len(users)
        d = Dataset(np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
                    np.zeros(n), np.ones(n), num_users, num_items)
        if rows is not None:
            d = d.subset(np.array(rows, dtype=np.int64))
        for active, ids in ((d.active_users, d.users), (d.active_items, d.items)):
            want = np.unique(ids)
            assert active.dtype == want.dtype
            np.testing.assert_array_equal(active, want)

    def test_id_out_of_range_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([5]), np.array([0]), np.array([0.5]), np.array([3.0]), 5, 4)
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([-1]), np.array([0.5]), np.array([3.0]), 5, 4)

    def test_unnormalized_rating_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([0]), np.array([1.5]), np.array([5.0]), 1, 1)

    def test_nan_rating_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.array([0, 0]), np.array([0, 0]), np.array([0.5, np.nan]),
                    np.array([3.0, 3.0]), 1, 1)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0, 1]), np.array([0]), np.array([0.5]), np.array([3.0]), 2, 1)

    def test_from_triples_and_subset(self):
        d = Dataset(np.array([0, 2]), np.array([1, 0]), np.array([0.25, 1.0]),
                    np.array([2.0, 5.0]), num_users=3, num_items=2, scale=(1.0, 5.0))
        sub = d.subset(np.array([1]))
        assert (sub.users.tolist(), sub.items.tolist(), sub.ratings.tolist()) == ([2], [0], [1.0])
        assert sub.num_users == 3 and sub.raw_ratings.tolist() == [5.0]
        assert sub.scale == (1.0, 5.0)


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
        with pytest.raises(ValueError, match="padding bits must be zero"):
            HashCode(70, np.array([0, 1 << 6], dtype=np.uint64))

    @pytest.mark.parametrize("k, words", [
        (4, np.zeros(2, dtype=np.uint64)),
        (70, np.zeros(1, dtype=np.uint64)),
        (8, np.zeros((1, 1), dtype=np.uint64)),
    ])
    def test_word_shape_must_fit_length(self, k, words):
        with pytest.raises(ValueError, match="word count"):
            HashCode(k, words)

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

    def test_keeps_its_own_words(self):
        # a code once kept its caller's array, so a write to that array
        # changed the code and its hash, and could set a padding bit
        w = np.array([1], dtype=np.uint64)
        c = HashCode(8, w)
        before = hash(c)
        w[0] = 3 | (1 << 9)
        assert c == HashCode.from_bits([1, 0, 0, 0, 0, 0, 0, 0])
        assert hash(c) == before
        with pytest.raises(ValueError):
            c.words[0] = 3
        assert int(c.words[0]) == 1

    @pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 65, 128, 512])
    def test_pack_unpack_round_trip(self, k):
        rng = np.random.default_rng(k)
        bits = rng.integers(0, 2, size=(5, k)).astype(bool)
        words = pack_bit_matrix(bits)
        assert words.shape == (5, words_per_code(k))
        assert np.array_equal(unpack_bit_matrix(words, k), bits)


class TestXorPopcount:
    @given(st.sampled_from([1, 63, 64, 65, 128, 130, 200]), st.integers(1, 5),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_bit_oracle(self, k, q, n, seed):
        rng = np.random.default_rng(seed)
        items = pack_bit_matrix(rng.integers(0, 2, size=(n, k)).astype(bool))
        users = pack_bit_matrix(rng.integers(0, 2, size=(q, k)).astype(bool))
        item_bits, user_bits = unpack_bit_matrix(items, k), unpack_bit_matrix(users, k)
        want = (user_bits[:, None, :] ^ item_bits[None, :, :]).sum(axis=2)
        # rows against one query, and a (1, N) against a (Q, 1) block
        rows = xor_popcount(items, users[0])
        block = xor_popcount(items[None], users[:, None])
        assert rows.shape == (n,) and np.array_equal(rows, want[0])
        assert block.shape == (q, n) and np.array_equal(block, want)
        for d in (rows, block):
            assert d.dtype.kind == "u" and d.dtype.itemsize >= 2


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

    @pytest.mark.parametrize("n", [0, 1, core._DOT_BLOCK - 1, core._DOT_BLOCK,
                                   core._DOT_BLOCK + 1, 3 * core._DOT_BLOCK + 7])
    @pytest.mark.parametrize("k", [7, 32])
    def test_blocked_losses_match_unblocked_formula(self, n, k):
        # the dots are filled block by block; every loss keeps its bits
        rng = np.random.default_rng(n + k)
        d = rand_dataset(rng, 60, 50, n)
        fm = rand_factors(rng, d, k)
        dots = core._batch_dots(fm, d.users, d.items)
        assert dots.shape == (n,)
        assert np.array_equal(dots, batch_dots_unblocked(fm, d.users, d.items))
        h = Hyperparams(k=k, lambda_=0.01)
        assert dch_loss(d, fm, h) == dch_loss_unblocked(d, fm, h)
        assert mf_loss(d, fm, 0.1) == mf_loss_unblocked(d, fm, 0.1)

    @given(st.sampled_from([0, 1, core._DOT_BLOCK - 1, core._DOT_BLOCK + 1]),
           st.integers(1, 40), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_loss_on_given_sums_is_dch_loss(self, n, k, lam, seed):
        # the barrier's path: the exact active sums handed in
        rng = np.random.default_rng(seed)
        d = rand_dataset(rng, 60, 50, n)
        fm = rand_factors(rng, d, k)
        h = Hyperparams(k=k, lambda_=lam)
        su, sv = active_sum(fm.U, d.active_users), active_sum(fm.V, d.active_items)
        got = core._dch_loss_on_sums(d, fm, h, su, sv)
        assert np.float64(got).tobytes() == np.float64(dch_loss(d, fm, h)).tobytes()
        assert got == dch_loss_unblocked(d, fm, h)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            k = int(rng.integers(2, 9))
            d = rand_dataset(rng, 5, 6, 25)
            fm = rand_factors(rng, d, k)
            lam = float(rng.uniform(0.0, 0.2))
            g_u, g_v = minibatch_gradients(
                d.users, d.items, d.ratings, fm.U[d.active_users], fm.V[d.active_items],
                d.active_users, d.active_items, fm.sum_u, fm.sum_v, lam)
            fd_u, fd_v = fd_gradient_rows(d, fm, lam, "dch")
            assert max(map(rel_err, [*g_u, *g_v], [*fd_u, *fd_v])) < 1e-6

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
            g_u, g_v = minibatch_gradients(
                d.users, d.items, d.ratings, fm.U[d.active_users], fm.V[d.active_items],
                d.active_users, d.active_items, fm.sum_u, fm.sum_v, lam, objective="mf")
            fd_u, fd_v = fd_gradient_rows(d, fm, lam, "mf")
            assert max(map(rel_err, [*g_u, *g_v], [*fd_u, *fd_v])) < 1e-6


class TestMinibatchGradients:
    @pytest.mark.parametrize("objective", ["dch", "mf"])
    def test_matches_per_entity_gradients(self, objective):
        # a partial batch that repeats users and items, every row against
        # central differences of the loss over that batch; the aggregate
        # sums are the batch's own active sums
        rng = np.random.default_rng(5)
        d = rand_dataset(rng, 8, 7, 40).subset(np.arange(17))
        assert d.active_users.size < len(d) and d.active_items.size < len(d)
        fm = rand_factors(rng, d, 4)
        lam = 0.07
        g_u, g_v = minibatch_gradients(
            d.users, d.items, d.ratings, fm.U[d.active_users], fm.V[d.active_items],
            d.active_users, d.active_items, fm.sum_u, fm.sum_v, lam, objective=objective)
        fd_u, fd_v = fd_gradient_rows(d, fm, lam, objective)
        assert g_u.shape == fd_u.shape and g_v.shape == fd_v.shape
        assert max(map(rel_err, [*g_u, *g_v], [*fd_u, *fd_v])) < 1e-6

    @given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_scatter_is_bytes_of_unbuffered_add(self, b, n, k, seed):
        # repeated rows, rows nothing maps to, magnitudes from 1e-8 to 1e8
        # and signed zeros: the bincount sums keep the bits of add.at
        rng = np.random.default_rng(seed)
        inv = rng.integers(0, n, b)
        c = rng.choice([-1.0, 1.0], (b, k)) * 10.0 ** rng.uniform(-8, 8, (b, k))
        c[rng.random((b, k)) < 0.15] = 0.0
        c[rng.random((b, k)) < 0.15] = -0.0
        want = np.zeros((n, k))
        np.add.at(want, inv, c)
        got = core._scatter_rows(inv, c, n)
        assert got.shape == (n, k)
        assert got.tobytes() == want.tobytes()

    def test_scatter_of_negative_zeros_only(self):
        # a row that receives only -0.0 sums to +0.0, as add.at on zeros does
        c = np.full((3, 2), -0.0)
        want = np.zeros((4, 2))
        np.add.at(want, np.array([1, 1, 3]), c)
        assert core._scatter_rows(np.array([1, 1, 3]), c, 4).tobytes() == want.tobytes()

    def test_unknown_objective_raises(self):
        z = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            minibatch_gradients(
                z, z, np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)),
                z, z, np.zeros(2), np.zeros(2), 0.0, objective="nope",
            )


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["U", "V"])
    def test_non_finite_factor_raises(self, bad, side):
        # one NaN once made its column's median NaN and every bit there 0
        rng = np.random.default_rng(13)
        U, V = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        (U if side == "U" else V)[1, 2] = bad
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        for rounding in (round_words, round_codes):
            with pytest.raises(ValueError, match="non-finite"):
                rounding(fm)

    def test_codes_are_the_rounded_words(self):
        rng = np.random.default_rng(12)
        for k in (5, 64, 70):
            U, V = rng.normal(size=(9, k)), rng.normal(size=(13, k))
            fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
            user_words, item_words = round_words(fm)
            users, items = round_codes(fm)
            assert np.array_equal(np.stack([c.words for c in users]), user_words)
            assert np.array_equal(np.stack([c.words for c in items]), item_words)
            assert all(c.k == k for c in users + items)

    @pytest.mark.parametrize("k", [5, 64, 70, 130])
    def test_codes_equal_checked_codes(self, k):
        # round_codes skips the checks of HashCode(k, words); its codes
        # must not differ in any way from checked ones
        rng = np.random.default_rng(k)
        U, V = rng.normal(size=(9, k)), rng.normal(size=(13, k))
        fm = FactorMatrices(U, V, U.sum(0), V.sum(0))
        for codes, words in zip(round_codes(fm), round_words(fm)):
            for code, row in zip(codes, words):
                checked = HashCode(k, row)
                assert type(code) is HashCode and code == checked
                assert hash(code) == hash(checked) and repr(code) == repr(checked)
                assert code.words.dtype == np.uint64 and code.words.shape == row.shape
                with pytest.raises(AttributeError):
                    code.k = k + 1
                with pytest.raises(AttributeError):
                    code.words = row
                with pytest.raises(ValueError):
                    code.words[0] = 0


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


def test_export_lists_resolve():
    # every name in the package's and each module's __all__ exists
    modules = [cohash] + [importlib.import_module(f"cohash.{m.name}")
                          for m in pkgutil.iter_modules(cohash.__path__)]
    assert len(modules) > 10
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []
