"""Metric and evaluation-protocol tests with hand-computed expectations."""

import numpy as np
import pytest

from cohash import evaluation
from cohash.core import (
    Dataset,
    FactorMatrices,
    Hyperparams,
    LengthMismatchError,
    round_codes,
    xor_popcount,
)
from cohash.evaluation import (
    EvalReport,
    NoEvaluableUsersError,
    SplitSpec,
    dcg_at_k,
    evaluate,
    precision_at_k,
    run_variance,
    split,
)
from cohash.retrieval import CodeSet, _block_topk, realvalued_topk
from cohash.runtime import run_training
from cohash.synth import planted_dataset, random_codes
from util import distances_by_bits, evaluate_per_user, rand_dataset


class TestSplit:
    def test_eighty_twenty(self):
        d = rand_dataset(np.random.default_rng(0), 30, 20, 100)
        train, test = split(d, SplitSpec(0.8, seed=1))
        assert len(train) == 80 and len(test) == 20

    def test_ninety_ten(self):
        d = rand_dataset(np.random.default_rng(0), 30, 20, 100)
        train, test = split(d, SplitSpec(0.9, seed=1))
        assert len(train) == 90 and len(test) == 10

    def test_same_seed_same_split(self):
        d = rand_dataset(np.random.default_rng(1), 30, 20, 100)
        a_train, a_test = split(d, SplitSpec(0.8, seed=7))
        b_train, b_test = split(d, SplitSpec(0.8, seed=7))
        assert np.array_equal(a_train.users, b_train.users)
        assert np.array_equal(a_test.items, b_test.items)

    def test_disjoint_cover(self):
        d = rand_dataset(np.random.default_rng(2), 10, 10, 57)
        train, test = split(d, SplitSpec(0.8, seed=3))
        combined = sorted(
            list(zip(train.users, train.items, train.ratings))
            + list(zip(test.users, test.items, test.ratings))
        )
        original = sorted(zip(d.users, d.items, d.ratings))
        assert combined == original

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0)
        with pytest.raises(ValueError):
            SplitSpec(1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_invalid_seed(self, seed):
        # 1.5 once failed later, inside split, and -1 with a message
        # that did not name the field
        with pytest.raises(ValueError, match="seed"):
            SplitSpec(0.8, seed=seed)


class TestPrecisionAtK:
    def test_three_of_five(self):
        assert precision_at_k([1, 2, 3, 4, 5], {1, 3, 5}, 5) == 0.6

    def test_no_positives(self):
        assert precision_at_k([1, 2, 3], {9}, 3) == 0.0

    def test_all_positive(self):
        assert precision_at_k([1, 2], {1, 2}, 2) == 1.0

    def test_empty_ranking(self):
        assert precision_at_k([], {1}, 5) == 0.0

    def test_permutation_below_k_invariant(self):
        positives = {2, 4, 6}
        a = precision_at_k([2, 9, 4, 7, 1, 6, 3], positives, 4)
        b = precision_at_k([9, 4, 2, 7, 6, 1, 3], positives, 4)
        assert a == b


class TestDcgAtK:
    def test_single_item_rating_five(self):
        assert dcg_at_k([42], {42: 5.0}, 1) == 31.0

    def test_two_top_ratings(self):
        got = dcg_at_k([1, 2], {1: 5.0, 2: 5.0}, 2)
        assert got == pytest.approx(31.0 + 31.0 / np.log2(3.0), rel=1e-12)

    def test_all_unrated(self):
        assert dcg_at_k([1, 2, 3], {}, 3) == 0.0

    def test_swap_to_lower_first_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r1, r2 = sorted(rng.integers(0, 6, size=2))
            high_first = dcg_at_k([1, 2], {1: float(r2), 2: float(r1)}, 2)
            low_first = dcg_at_k([1, 2], {1: float(r1), 2: float(r2)}, 2)
            assert low_first <= high_first

    def test_k_validated(self):
        with pytest.raises(ValueError):
            dcg_at_k([1], {1: 1.0}, 0)


class TestEvalReport:
    def test_rows_one_per_metric_k(self):
        rep = EvalReport("dch", 4, {5: 0.2, 10: 0.1}, {5: 3.0, 10: 4.0})
        rows = rep.rows()
        assert ("dch", "precision", 5, 0.2) in rows
        assert ("dch", "dcg", 10, 4.0) in rows
        assert len(rows) == 4

    def test_range_validation(self):
        with pytest.raises(ValueError):
            EvalReport("m", 1, {5: 1.5}, {})
        with pytest.raises(ValueError):
            EvalReport("m", 1, {}, {5: -0.1})


def single_user_fixture():
    # one user, five items; the user's test positive is item 2
    test = Dataset(
        np.array([0]), np.array([2]), np.array([1.0]), np.array([5.0]),
        num_users=1, num_items=5, scale=(1.0, 5.0),
    )
    U = np.array([[0.4, -0.4, 0.4]])
    V = np.vstack([np.full(3, 0.1 * (j + 1)) for j in range(5)])
    return U, V, test


class TestEvaluate:
    def test_single_positive_in_top5(self):
        U, V, test = single_user_fixture()
        rep = evaluate(U, V, None, test, [5], model="mf")
        assert rep.precision[5] == pytest.approx(0.2)
        assert rep.users_evaluated == 1

    def test_identical_inputs_identical_reports(self):
        U, V, test = single_user_fixture()
        a = evaluate(U, V, None, test, [3, 5], model="x")
        b = evaluate(U, V, None, test, [3, 5], model="x")
        assert a.precision == b.precision and a.dcg == b.dcg

    def test_training_items_excluded_from_candidates(self):
        # user's nearest item is its training item; it must not be ranked
        users = CodeSet.from_words(np.array([[0b1111]], dtype=np.uint64), 4)
        items = CodeSet.from_words(
            np.array([[0b1111], [0b1110], [0b0000]], dtype=np.uint64), 4)
        train = Dataset(
            np.array([0]), np.array([0]), np.array([1.0]), np.array([5.0]), 1, 3)
        test = Dataset(
            np.array([0]), np.array([1]), np.array([1.0]), np.array([5.0]), 1, 3,
            scale=(1.0, 5.0))
        rep = evaluate(users, items, train, test, [1], model="dch")
        # with item 0 excluded, item 1 (distance 1) tops the list
        assert rep.precision[1] == 1.0

    def test_users_without_test_items_skipped(self):
        U = np.array([[0.5, 0.5], [0.1, 0.1], [-0.3, 0.2]])
        V = np.array([[1.0, 0.0], [0.0, 1.0]])
        test = Dataset(
            np.array([1]), np.array([0]), np.array([1.0]), np.array([5.0]), 3, 2,
            scale=(1.0, 5.0))
        rep = evaluate(U, V, None, test, [1])
        assert rep.users_evaluated == 1

    def test_mixed_representations_rejected(self):
        U, V, test = single_user_fixture()
        codes, _ = round_codes(FactorMatrices(U, V, U.sum(0), V.sum(0)))
        with pytest.raises(TypeError):
            evaluate(CodeSet(codes), V, None, test, [5])

    def test_no_evaluable_users(self):
        U, V, _ = single_user_fixture()
        empty = Dataset(np.array([]), np.array([]), np.array([]), np.array([]), 1, 5)
        with pytest.raises(NoEvaluableUsersError):
            evaluate(U, V, None, empty, [5])

    def test_mfh_is_mf_rounded_no_retraining(self):
        # rounding trained MF factors and ranking in Hamming space must
        # produce a well-formed report over the same universe
        d = rand_dataset(np.random.default_rng(4), 12, 10, 60)
        tr, te = split(d, SplitSpec(0.8, seed=2))
        h = Hyperparams(k=4, alpha=0.02, lambda_=0.01, batch_size=16, epochs=3, seed=1)
        run = run_training(tr, h, objective="mf", make_codes=True,
                           stop_on_convergence=False)
        mf_rep = evaluate(run.factors.U, run.factors.V, tr, te, [5], model="mf")
        mfh_rep = evaluate(run.user_codes, run.item_codes, tr, te, [5], model="mfh")
        assert mf_rep.users_evaluated == mfh_rep.users_evaluated
        assert 0.0 <= mfh_rep.precision[5] <= 1.0


def _stars(users, items, stars, num_users, num_items):
    stars = np.asarray(stars, dtype=np.float64)
    return Dataset(np.asarray(users), np.asarray(items), (stars - 1.0) / 4.0, stars,
                   num_users, num_items, scale=(1.0, 5.0))


def _cases_corpus(seed, num_users=50, num_items=24):
    """Random train/test triples plus the cases the blocked ranking must
    handle: user 0 has fewer unseen items than the largest k, users 45
    to 49 have no training items, (1, 3) is in both train and test, and
    (2, 5) is rated twice in test."""
    rng = np.random.default_rng(seed)
    n_train, n_test = 400, 150
    train = _stars(
        np.concatenate([rng.integers(0, 45, n_train), np.zeros(20, int), [1]]),
        np.concatenate([rng.integers(0, num_items, n_train), np.arange(20), [3]]),
        np.concatenate([rng.integers(1, 6, n_train), np.full(20, 3), [4]]),
        num_users, num_items)
    test = _stars(
        np.concatenate([rng.integers(0, num_users, n_test), [0, 0, 1, 2, 2, 45, 49]]),
        np.concatenate([rng.integers(0, num_items, n_test), [21, 22, 3, 5, 5, 0, 1]]),
        np.concatenate([rng.integers(1, 6, n_test), [5, 4, 5, 5, 1, 5, 5]]),
        num_users, num_items)
    return rng, train, test


class TestEvaluateMatchesPerUser:
    # evaluate ranks users in blocks; each report must equal the one the
    # per-user loop gives, bit for bit

    @pytest.mark.parametrize("k", [3, 10, 32, 64, 70, 130])
    @pytest.mark.parametrize("with_train", [True, False])
    def test_hamming(self, k, with_train):
        rng, train, test = _cases_corpus(k)
        users = random_codes(train.num_users, k, seed=k)
        items = random_codes(train.num_items, k, seed=k + 1)
        seen = train if with_train else None
        got = evaluate(users, items, seen, test, [10, 1, 5], model="dch")
        assert got == evaluate_per_user(users, items, seen, test, [1, 5, 10], model="dch")

    @pytest.mark.parametrize("k", [16, 31, 32, 33])
    def test_hamming_keys_equal_bit_distances(self, k):
        # codes of up to 32 bits are ranked from a uint32 copy of the words;
        # seen items rank after all others, by position
        users = random_codes(30, k, seed=k)
        items = random_codes(40, k, seed=k + 1)
        rows = np.array([0, 7, 29])
        dist = np.stack([distances_by_bits(items.words, k, users.words[u]) for u in rows])
        seen_rows = np.array([0, 0, 0, 2, 2])
        seen_cols = np.array([np.argmin(dist[0]), 5, 39, np.argmin(dist[2]), 0])
        dist[seen_rows, seen_cols] = k + 1
        for top_k in (12, 40, 64):
            top, unseen = _block_topk(users, items, rows, seen_rows, seen_cols, top_k)
            want = np.argsort(dist, axis=1, kind="stable")[:, :top_k]
            assert np.array_equal(top, want)
            assert np.array_equal(unseen, np.take_along_axis(dist, want, axis=1) <= k)

    def test_real_block_rows_equal_realvalued_topk(self):
        rng = np.random.default_rng(11)
        U = rng.normal(size=(30, 6))
        V = rng.normal(size=(8, 6))[rng.integers(0, 8, size=50)]  # tied scores
        rows = np.array([0, 7, 29])
        seen_rows = np.array([0, 0, 1, 2])
        seen_cols = np.array([3, 17, 0, 49])
        for top_k in (1, 10, 50, 64):
            top, unseen = _block_topk(U, V, rows, seen_rows, seen_cols, top_k)
            for row, u in enumerate(rows):
                seen = set(seen_cols[seen_rows == row].tolist())
                ranked = realvalued_topk(U[u], V, top_k + len(seen))
                want = [p for p, _ in ranked if p not in seen][:top_k]
                assert top[row][unseen[row]].tolist() == want
                assert unseen[row].sum() == len(want)

    @pytest.mark.parametrize("with_train", [True, False])
    def test_real_valued_with_tied_scores(self, with_train):
        rng, train, test = _cases_corpus(8, num_items=300)
        U = rng.normal(size=(train.num_users, 16))
        # duplicated item rows score exactly alike in a matrix-vector
        # product; in U @ V.T some of them do not
        V = rng.normal(size=(8, 16))[rng.integers(0, 8, size=train.num_items)]
        seen = train if with_train else None
        got = evaluate(U, V, seen, test, [1, 5, 10], model="mf")
        assert got == evaluate_per_user(U, V, seen, test, [1, 5, 10], model="mf")

    @pytest.mark.parametrize("codes", [True, False])
    def test_user_count_above_block_and_not_a_multiple(self, monkeypatch, codes):
        rng, train, test = _cases_corpus(9)
        monkeypatch.setattr(evaluation, "_BLOCK_ENTRIES", 6 * train.num_items)
        if codes:
            users, items = random_codes(50, 10, seed=3), random_codes(24, 10, seed=4)
        else:
            users, items = rng.normal(size=(50, 4)), rng.normal(size=(24, 4))
        got = evaluate(users, items, train, test, [1, 5, 10])
        assert got.users_evaluated > 6 and got.users_evaluated % 6
        assert got == evaluate_per_user(users, items, train, test, [1, 5, 10])

    @pytest.mark.parametrize("ks", [[1, 5, 10], [5, 30]])
    @pytest.mark.parametrize("k", [10, 130])
    def test_masked_keys_reach_the_top(self, k, ks):
        # Hamming codes are ranked by key value; a user with fewer unseen
        # items than max(ks) has masked keys among its top columns.  User
        # 0 has also trained on the 20 items nearest its code, user 1 on
        # all 24; ks=[5, 30] ranks whole rows, ks=[1, 5, 10] a partition.
        rng, train, test = _cases_corpus(k + 11)
        users = random_codes(train.num_users, k, seed=k)
        items = random_codes(train.num_items, k, seed=k + 1)
        near = np.argsort(xor_popcount(items.words, users.words[0]), kind="stable")
        train = _stars(np.concatenate([train.users, np.zeros(20, int), np.ones(24, int)]),
                       np.concatenate([train.items, near[:20], np.arange(24)]),
                       np.concatenate([train.raw_ratings, np.full(44, 3.0)]),
                       train.num_users, train.num_items)
        test = _stars(np.concatenate([test.users, [0, 0, 1]]),
                      np.concatenate([test.items, near[20:22], [0]]),
                      np.concatenate([test.raw_ratings, [5.0, 5.0, 5.0]]),
                      test.num_users, test.num_items)
        assert np.setdiff1d(np.arange(24), train.items[train.users == 0]).size < max(ks)
        got = evaluate(users, items, train, test, ks, model="dch")
        assert got == evaluate_per_user(users, items, train, test, ks, model="dch")
        assert got.precision[5] > 0.0

    def test_k_beyond_item_count(self):
        rng, train, test = _cases_corpus(10)
        users, items = random_codes(50, 4, seed=5), random_codes(24, 4, seed=6)
        got = evaluate(users, items, train, test, [5, 30])
        assert got == evaluate_per_user(users, items, train, test, [5, 30])

    def test_trained_models(self):
        d = rand_dataset(np.random.default_rng(4), 40, 30, 500)
        tr, te = split(d, SplitSpec(0.8, seed=2))
        for obj in ("dch", "mf"):
            h = Hyperparams(k=8, alpha=0.05, lambda_=0.01, batch_size=32, epochs=2, seed=1)
            run = run_training(tr, h, objective=obj, stop_on_convergence=False)
            for u, v in ((run.user_codes, run.item_codes), (run.factors.U, run.factors.V)):
                assert (evaluate(u, v, tr, te, [1, 5, 10])
                        == evaluate_per_user(u, v, tr, te, [1, 5, 10]))


class TestEvaluateCases:
    def _one_user(self):
        # user 0's ranking of four items: 0, 1, 2, 3 (Hamming 0, 1, 2, 3)
        users = CodeSet.from_words(np.array([[0b111]], dtype=np.uint64), 3)
        items = CodeSet.from_words(
            np.array([[0b111], [0b011], [0b001], [0b000]], dtype=np.uint64), 3)
        return users, items

    def test_repeated_test_pair_last_rating_counts(self):
        users, items = self._one_user()
        low_last = _stars([0, 0], [0, 0], [5, 1], 1, 4)
        rep = evaluate(users, items, None, low_last, [1])
        assert rep.precision[1] == 0.0 and rep.dcg[1] == 1.0
        high_last = _stars([0, 0], [0, 0], [1, 5], 1, 4)
        rep = evaluate(users, items, None, high_last, [1])
        assert rep.precision[1] == 1.0 and rep.dcg[1] == 31.0

    def test_pair_in_train_and_test_stays_excluded(self):
        users, items = self._one_user()
        train = _stars([0], [0], [5], 1, 4)
        test = _stars([0, 0], [0, 1], [5, 5], 1, 4)
        rep = evaluate(users, items, train, test, [1])
        # item 0 is seen, so item 1 ranks first
        assert rep.precision[1] == 1.0 and rep.dcg[1] == 31.0

    def test_fewer_unseen_items_than_k(self):
        users, items = self._one_user()
        train = _stars([0, 0], [0, 2], [3, 3], 1, 4)
        test = _stars([0, 0], [1, 3], [5, 5], 1, 4)
        rep = evaluate(users, items, train, test, [1, 5])
        assert rep.precision == {1: 1.0, 5: 0.4}
        assert rep.dcg[5] == 31.0 + 31.0 / np.log2(3)


class TestRepresentationCoverage:
    # evaluate once raised IndexError from the seen mask when the rows did
    # not cover the data's ids
    @staticmethod
    def _split():
        return split(planted_dataset(20, 30, 200, seed=0), SplitSpec())

    @pytest.mark.parametrize("codes", [True, False])
    def test_items_outside_the_item_rows_are_not_ranked(self, codes):
        tr, te = self._split()
        assert tr.items.max() >= 25 and te.items.max() >= 25
        if codes:
            users, items = random_codes(20, 8), random_codes(25, 8, seed=1)
        else:
            rng = np.random.default_rng(0)
            users, items = rng.normal(size=(20, 4)), rng.normal(size=(25, 4))
        got = evaluate(users, items, tr, te, [5, 30])
        assert got == evaluate_per_user(users, items, tr, te, [5, 30])

    @pytest.mark.parametrize("codes", [True, False])
    def test_test_user_without_a_row_raises(self, codes):
        tr, te = self._split()
        if codes:
            users, items = random_codes(15, 8), random_codes(30, 8, seed=1)
        else:
            users, items = np.ones((15, 4)), np.ones((30, 4))
        with pytest.raises(LengthMismatchError, match=r"needs 20 user rows, got 15"):
            evaluate(users, items, tr, te, [5])


class TestRunVariance:
    def test_identical_seeds_zero_variance(self):
        d = rand_dataset(np.random.default_rng(5), 10, 8, 60)
        h = Hyperparams(k=3, alpha=0.05, batch_size=16, epochs=2, seed=0)
        var = run_variance(d, h, [4, 4, 4])
        assert np.all(var == 0.0)

    def test_matches_hand_computed_sample_variance(self):
        d = rand_dataset(np.random.default_rng(6), 10, 8, 60)
        h = Hyperparams(k=3, alpha=0.05, batch_size=16, epochs=2, seed=0)
        import dataclasses

        t1 = run_training(d, dataclasses.replace(h, seed=1),
                          stop_on_convergence=False, make_codes=False).losses
        t2 = run_training(d, dataclasses.replace(h, seed=2),
                          stop_on_convergence=False, make_codes=False).losses
        var = run_variance(d, h, [1, 2])
        length = min(len(t1), len(t2))
        for b in range(length):
            hand = (t1[b] - t2[b]) ** 2 / 2.0
            assert var[b] == pytest.approx(hand, rel=1e-12)

    def test_requires_two_seeds(self):
        d = rand_dataset(np.random.default_rng(7), 10, 8, 40)
        with pytest.raises(ValueError):
            run_variance(d, Hyperparams(k=2), [1])


class TestTrainedModelParity:
    def test_hash_precision_within_five_percent_of_real_on_small_corpus(self):
        # 50x30 corpus with 4 planted taste groups: the rounded hashing
        # model and the real-valued baseline each grid-search their
        # balance weight, and hashing's Precision@5 may trail the
        # baseline by at most 5 percent
        from cohash.synth import planted_dataset

        data = planted_dataset(50, 30, 600, k_true=2, seed=3, noise=0.05,
                               gain=2.0, affinity=6.0)
        train, test = split(data, SplitSpec(0.8, seed=1))
        best = {}
        for obj, lams, alpha in (("dch", (1e-4, 1e-3), 0.5),
                                 ("mf", (1e-2, 1e-1), 0.05)):
            for lam in lams:
                h = Hyperparams(k=10, lambda_=lam, alpha=alpha, gamma=0.1,
                                batch_size=32, staleness=1, workers=1,
                                servers=1, epochs=40, seed=1)
                res = run_training(train, h, objective=obj,
                                   make_codes=(obj == "dch"))
                if obj == "dch":
                    rep = evaluate(res.user_codes, res.item_codes,
                                   train, test, [5], obj)
                else:
                    rep = evaluate(res.factors.U, res.factors.V,
                                   train, test, [5], obj)
                best[obj] = max(best.get(obj, 0.0), rep.precision[5])
        assert best["dch"] >= 0.95 * best["mf"], (
            f"hash P@5 {best['dch']:.4f} vs real {best['mf']:.4f}")
