"""Retrieval tests against brute-force oracles.

The oracles deliberately avoid the packed-word fast paths: distances
are recomputed by comparing unpacked bit vectors, and rankings come
from full sorts, so agreement is meaningful.
"""

import sys
import threading

import numpy as np
import pytest

from cohash.core import HashCode, LengthMismatchError, pack_bit_matrix, similarity
from cohash.retrieval import (
    BallTooLargeError,
    CodeSet,
    HashIndex,
    MultiIndex,
    ball_size,
    build_index,
    build_multi_index,
    hamming_distance,
    hamming_rank_topk,
    lookup_search,
    multi_index_search,
    radius_search,
    realvalued_topk,
    recommend,
)


def bit_distance(a: HashCode, b: HashCode) -> int:
    """Oracle distance: compare unpacked bit vectors directly."""
    return int(np.sum(a.to_bits() != b.to_bits()))


def rand_codeset(rng, n, k) -> CodeSet:
    return CodeSet([HashCode.from_bits(rng.integers(0, 2, size=k)) for _ in range(n)])


def oracle_radius(query, items, r):
    hits = [
        (p, bit_distance(query, c)) for p, c in enumerate(items.codes)
        if bit_distance(query, c) <= r
    ]
    return sorted(hits, key=lambda t: (t[1], t[0]))


def oracle_topk(query, items, k):
    d = [bit_distance(query, c) for c in items.codes]
    order = sorted(range(len(items)), key=lambda p: (d[p], p))
    return [(p, d[p]) for p in order[:k]]


class TestHammingDistance:
    def test_identical_is_zero(self):
        c = HashCode.from_bits([1, 0, 1, 1, 0])
        assert hamming_distance(c, c) == 0

    def test_complement_is_k(self):
        a = HashCode.from_bits([1, 0, 1, 0, 1, 0, 1, 0])
        b = HashCode.from_bits([0, 1, 0, 1, 0, 1, 0, 1])
        assert hamming_distance(a, b) == 8

    def test_two_positions_differ(self):
        a = HashCode.from_bits([1, 0, 1, 0])
        b = HashCode.from_bits([1, 0, 0, 1])
        assert hamming_distance(a, b) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            hamming_distance(HashCode.from_bits([1]), HashCode.from_bits([1, 1]))

    @pytest.mark.parametrize("k", [8, 32, 64, 100])
    def test_similarity_distance_identity_exact(self, k):
        rng = np.random.default_rng(k)
        for _ in range(200):
            a = HashCode.from_bits(rng.integers(0, 2, size=k))
            b = HashCode.from_bits(rng.integers(0, 2, size=k))
            assert similarity(a, b) + hamming_distance(a, b) / k == 1.0


class TestRadiusSearch:
    def test_radius_k_returns_all(self):
        rng = np.random.default_rng(0)
        items = rand_codeset(rng, 20, 6)
        out = radius_search(items.codes[0], items, 6)
        assert sorted(p for p, _ in out) == list(range(20))

    def test_radius_zero_exact_matches(self):
        c = HashCode.from_bits([1, 0, 1])
        other = HashCode.from_bits([0, 0, 1])
        items = CodeSet([c, other, c])
        assert radius_search(c, items, 0) == [(0, 0), (2, 0)]

    def test_matches_bruteforce_filter(self):
        rng = np.random.default_rng(1)
        items = rand_codeset(rng, 200, 16)
        for _ in range(20):
            q = HashCode.from_bits(rng.integers(0, 2, size=16))
            assert radius_search(q, items, 3) == oracle_radius(q, items, 3)

    def test_sorted_by_distance_then_position(self):
        rng = np.random.default_rng(2)
        items = rand_codeset(rng, 50, 8)
        out = radius_search(items.codes[0], items, 8)
        assert out == sorted(out, key=lambda t: (t[1], t[0]))

    def test_invalid_radius(self):
        items = rand_codeset(np.random.default_rng(3), 4, 8)
        with pytest.raises(ValueError):
            radius_search(items.codes[0], items, 9)
        with pytest.raises(ValueError):
            radius_search(items.codes[0], items, -1)


class TestLookupSearch:
    def test_radius_zero_probes_one_bucket(self):
        rng = np.random.default_rng(4)
        items = rand_codeset(rng, 30, 10)
        idx = build_index(items)
        q = items.codes[7]
        hits = lookup_search(q, idx, 0)
        assert hits == [p for p, c in enumerate(items.codes) if c == q]

    def test_ball_sizes(self):
        assert ball_size(4, 1) == 5
        assert ball_size(8, 8) == 256
        assert ball_size(64, 6) > 10_000_000

    @pytest.mark.parametrize("k,r", [(8, 6), (32, 4), (16, 3)])
    def test_equals_radius_search(self, k, r):
        rng = np.random.default_rng(k + r)
        items = rand_codeset(rng, 120, k)
        idx = build_index(items)
        for _ in range(15):
            q = HashCode.from_bits(rng.integers(0, 2, size=k))
            assert lookup_search(q, idx, r) == sorted(p for p, _ in radius_search(q, items, r))

    def test_deep_radius_still_equals_radius_search(self):
        # r=6 over 32 bits enumerates a 1.15M-code ball; a couple of
        # queries keep the deep end honest without hurting suite time
        rng = np.random.default_rng(62)
        items = rand_codeset(rng, 200, 32)
        idx = build_index(items)
        for _ in range(2):
            q = HashCode.from_bits(rng.integers(0, 2, size=32))
            assert lookup_search(q, idx, 6) == sorted(
                p for p, _ in radius_search(q, items, 6))

    def test_widest_legal_ball_at_64_bits(self):
        # ball_size(64, 5) is 8.3M, just under the probe cap; one query
        # exercises the largest enumeration the engine will ever accept
        rng = np.random.default_rng(63)
        items = rand_codeset(rng, 100, 64)
        idx = build_index(items)
        q = HashCode.from_bits(rng.integers(0, 2, size=64))
        assert lookup_search(q, idx, 5) == sorted(
            p for p, _ in radius_search(q, items, 5))

    def test_refuses_oversized_ball(self):
        rng = np.random.default_rng(5)
        items = rand_codeset(rng, 10, 64)
        idx = build_index(items)
        with pytest.raises(BallTooLargeError, match="radius_search"):
            lookup_search(items.codes[0], idx, 6)

    def test_length_mismatch(self):
        items = rand_codeset(np.random.default_rng(6), 5, 8)
        with pytest.raises(LengthMismatchError):
            lookup_search(HashCode.from_bits([1, 0]), build_index(items), 1)


class TestHashIndex:
    def test_every_item_in_exactly_one_bucket(self):
        rng = np.random.default_rng(7)
        items = rand_codeset(rng, 200, 6)
        idx = build_index(items)
        assert int(idx.bucket_sizes().sum()) == 200
        seen = sorted(idx.positions_by_key.tolist())
        assert seen == list(range(200))

    def test_bucket_key_equals_member_codes(self):
        rng = np.random.default_rng(8)
        items = rand_codeset(rng, 80, 5)
        idx = build_index(items)
        for p, c in enumerate(items.codes):
            hits = idx.probe(c.words[None, :])
            assert p in hits
            assert all(items.codes[h] == c for h in hits)


class TestMultiIndex:
    def test_substring_layout(self):
        items = rand_codeset(np.random.default_rng(9), 10, 10)
        mi = build_multi_index(items, 3)
        assert mi.boundaries == [(0, 4), (4, 7), (7, 10)]
        lengths = [hi - lo for lo, hi in mi.boundaries]
        assert max(lengths) - min(lengths) <= 1
        assert sum(lengths) == 10

    def test_m_one_degenerates_to_lookup(self):
        rng = np.random.default_rng(10)
        items = rand_codeset(rng, 60, 10)
        mi = build_multi_index(items, 1)
        idx = build_index(items)
        for _ in range(10):
            q = HashCode.from_bits(rng.integers(0, 2, size=10))
            got = sorted(p for p, _ in multi_index_search(q, mi, items, 3))
            assert got == lookup_search(q, idx, 3)

    @pytest.mark.parametrize("k,m,r", [(32, 4, 6), (16, 2, 4), (10, 3, 5), (64, 8, 6)])
    def test_equals_radius_search(self, k, m, r):
        rng = np.random.default_rng(k * m + r)
        items = rand_codeset(rng, 150, k)
        mi = build_multi_index(items, m)
        for _ in range(12):
            q = HashCode.from_bits(rng.integers(0, 2, size=k))
            assert multi_index_search(q, mi, items, r) == radius_search(q, items, r)

    def test_finds_planted_neighbor(self):
        # flip exactly r bits of an item; pigeonhole says it must be found
        rng = np.random.default_rng(11)
        k, m = 24, 3
        items = rand_codeset(rng, 40, k)
        mi = build_multi_index(items, m)
        for r in range(0, 7):
            bits = items.codes[5].to_bits().copy()
            flip = rng.choice(k, size=r, replace=False)
            bits[flip] = ~bits[flip]
            q = HashCode.from_bits(bits)
            assert 5 in {p for p, _ in multi_index_search(q, mi, items, r)}

    def test_rejects_foreign_codeset(self):
        rng = np.random.default_rng(12)
        items = rand_codeset(rng, 20, 8)
        other = rand_codeset(rng, 20, 8)
        mi = build_multi_index(items, 2)
        with pytest.raises(ValueError):
            multi_index_search(items.codes[0], mi, other, 2)

    def test_invalid_m(self):
        items = rand_codeset(np.random.default_rng(13), 5, 4)
        with pytest.raises(ValueError):
            build_multi_index(items, 0)
        with pytest.raises(ValueError):
            build_multi_index(items, 5)


class TestHammingRankTopk:
    def test_full_ranking_nondecreasing(self):
        rng = np.random.default_rng(14)
        items = rand_codeset(rng, 60, 12)
        q = HashCode.from_bits(rng.integers(0, 2, size=12))
        out = hamming_rank_topk(q, items, 60)
        dists = [d for _, d in out]
        assert dists == sorted(dists)
        assert len(out) == 60

    def test_exact_match_ranked_first(self):
        rng = np.random.default_rng(15)
        items = rand_codeset(rng, 30, 10)
        q = items.codes[17]
        first_pos, first_d = hamming_rank_topk(q, items, 1)[0]
        assert first_d == 0
        assert first_pos == min(p for p, c in enumerate(items.codes) if c == q)

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(16)
        items = rand_codeset(rng, 500, 16)
        for _ in range(25):
            q = HashCode.from_bits(rng.integers(0, 2, size=16))
            assert hamming_rank_topk(q, items, 10) == oracle_topk(q, items, 10)

    def test_one_word_ties_follow_position(self):
        # 12-bit codes over 3000 items: every distance is shared by
        # hundreds of items, so the cut falls inside a tie
        rng = np.random.default_rng(28)
        bits = rng.integers(0, 2, size=(3000, 12), dtype=np.uint8)
        items = CodeSet.from_words(pack_bit_matrix(bits), 12)
        for _ in range(20):
            qbits = rng.integers(0, 2, size=12, dtype=np.uint8)
            d = np.sum(bits != qbits, axis=1)
            order = np.lexsort((np.arange(3000), d))[:300]
            want = [(int(p), int(d[p])) for p in order]
            assert hamming_rank_topk(HashCode.from_bits(qbits), items, 300) == want

    def test_prefix_property(self):
        rng = np.random.default_rng(17)
        items = rand_codeset(rng, 80, 8)
        q = HashCode.from_bits(rng.integers(0, 2, size=8))
        for k in range(1, 40):
            assert hamming_rank_topk(q, items, k) == hamming_rank_topk(q, items, k + 1)[:k]

    def test_k_beyond_count_returns_all(self):
        items = rand_codeset(np.random.default_rng(18), 7, 4)
        assert len(hamming_rank_topk(items.codes[0], items, 99)) == 7

    def test_k_must_be_positive(self):
        items = rand_codeset(np.random.default_rng(19), 3, 4)
        with pytest.raises(ValueError):
            hamming_rank_topk(items.codes[0], items, 0)


class TestRealvaluedTopk:
    def test_identical_items_tie_break_by_position(self):
        items = np.tile(np.array([0.5, -0.25]), (6, 1))
        out = realvalued_topk(np.array([1.0, 1.0]), items, 4)
        assert [p for p, _ in out] == [0, 1, 2, 3]

    def test_unique_maximum(self):
        items = np.array([[0.1], [0.9], [0.5]])
        assert realvalued_topk(np.array([1.0]), items, 1) == [(1, 0.9)]

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(20)
        items = rng.normal(size=(300, 6))
        for _ in range(20):
            q = rng.normal(size=6)
            scores = items @ q
            order = sorted(range(300), key=lambda p: (-scores[p], p))
            want = [(p, float(scores[p])) for p in order[:12]]
            assert realvalued_topk(q, items, 12) == want

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            realvalued_topk(np.ones(3), np.ones((5, 4)), 2)


class TestRecommend:
    def test_rank_delegates(self):
        rng = np.random.default_rng(21)
        items = rand_codeset(rng, 40, 8)
        q = HashCode.from_bits(rng.integers(0, 2, size=8))
        got = recommend(q, items, "rank", top_k=5)
        want = [(p, float(d)) for p, d in hamming_rank_topk(q, items, 5)]
        assert got == want

    def test_excluded_items_never_appear(self):
        rng = np.random.default_rng(22)
        items = rand_codeset(rng, 40, 8)
        q = items.codes[3]
        seen = {3, 7, 11}
        for method in ("linear", "lookup", "multi-index", "rank"):
            out = recommend(q, items, method, top_k=30, radius=8, exclude=seen)
            assert seen.isdisjoint(p for p, _ in out)

    def test_exclusion_does_not_shrink_topk(self):
        rng = np.random.default_rng(23)
        items = rand_codeset(rng, 40, 8)
        q = items.codes[0]
        full = recommend(q, items, "rank", top_k=10)
        drop = {p for p, _ in full[:3]}
        out = recommend(q, items, "rank", top_k=10, exclude=drop)
        assert len(out) == 10

    def test_external_ids_are_reported(self):
        rng = np.random.default_rng(24)
        codes = [HashCode.from_bits(rng.integers(0, 2, size=6)) for _ in range(5)]
        items = CodeSet(codes, ids=["a", "b", "c", "d", "e"])
        out = recommend(codes[2], items, "rank", top_k=1)
        assert out[0][0] == "c" and out[0][1] == 0.0

    def test_real_method_uses_vectors(self):
        rng = np.random.default_rng(25)
        vecs = rng.normal(size=(30, 5))
        q = rng.normal(size=5)
        got = recommend(q, vecs, "real", top_k=4)
        assert got == [(p, float(s)) for p, s in realvalued_topk(q, vecs, 4)]

    def test_unknown_method(self):
        items = rand_codeset(np.random.default_rng(26), 5, 4)
        with pytest.raises(ValueError):
            recommend(items.codes[0], items, "cosine")

    def test_tables_are_built_once_per_codeset(self, monkeypatch):
        builds = {"lookup": 0, "multi": 0}

        def counting(cls, key):
            init = cls.__init__

            def wrapped(self, *args):
                builds[key] += 1
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", wrapped)

        counting(HashIndex, "lookup")
        counting(MultiIndex, "multi")
        rng = np.random.default_rng(29)
        items = rand_codeset(rng, 60, 10)
        for q in rand_codeset(rng, 4, 10).codes:
            for method in ("lookup", "multi-index"):
                got = recommend(q, items, method, top_k=60, radius=3)
                assert got == [(p, float(d)) for p, d in oracle_radius(q, items, 3)]
        assert builds == {"lookup": 1, "multi": 1}
        assert items.index() is items.index()
        assert items.multi_index(2) is items.multi_index(2)
        assert items.multi_index(3) is not items.multi_index(2)
        # the explicit constructors still build afresh
        assert build_index(items) is not items.index()
        assert build_multi_index(items, 2) is not items.multi_index(2)

    def test_concurrent_first_lookups_are_exact(self):
        rng = np.random.default_rng(30)
        items = rand_codeset(rng, 3000, 16)
        queries = rand_codeset(rng, 2, 16).codes
        want = [[(p, float(d)) for p, d in oracle_radius(q, items, 2)][:50] for q in queries]
        got = [None, None]

        def serve(t):
            got[t] = recommend(queries[t], items, "lookup", top_k=50, radius=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(t,)) for t in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want


class TestCodeSet:
    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatchError):
            CodeSet([HashCode.from_bits([1, 0]), HashCode.from_bits([1, 0, 1])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CodeSet([])

    def test_ids_length_checked(self):
        with pytest.raises(ValueError):
            CodeSet([HashCode.from_bits([1])], ids=[1, 2])

    def test_from_words_round_trip(self):
        rng = np.random.default_rng(27)
        items = rand_codeset(rng, 12, 70)
        again = CodeSet.from_words(items.words, 70)
        assert all(a == b for a, b in zip(items.codes, again.codes))

    def test_words_are_read_only(self):
        rng = np.random.default_rng(31)
        items = rand_codeset(rng, 5, 8)
        source = items.words.copy()
        again = CodeSet.from_words(source, 8)
        for cs in (items, again):
            with pytest.raises(ValueError):
                cs.words[0, 0] = 1
        # the set holds its own copy of the words it was built from
        source[0, 0] ^= np.uint64(1)
        assert again.codes == items.codes

    def test_codes_are_a_sequence_of_hashcodes(self):
        rng = np.random.default_rng(32)
        originals = [HashCode.from_bits(rng.integers(0, 2, size=70)) for _ in range(6)]
        items = CodeSet(originals)
        assert len(items.codes) == 6
        assert list(items.codes) == originals
        assert items.codes[4] == originals[4] and items.codes[-1] == originals[-1]
        assert items.codes[1:3] == originals[1:3]
        assert items.codes == originals
        assert items.codes == CodeSet.from_words(items.words, 70).codes
        assert items.codes != CodeSet(originals[::-1]).codes
        with pytest.raises(IndexError):
            items.codes[6]

    def test_from_words_rejects_padding_in_any_row(self):
        rng = np.random.default_rng(33)
        words = rng.integers(0, 2**63, size=(2000, 1), dtype=np.uint64)
        words = np.concatenate([words, words & np.uint64(1)], axis=1)
        CodeSet.from_words(words, 65)
        words[1000, 1] |= np.uint64(1 << 1)
        with pytest.raises(ValueError, match="padding bits must be zero"):
            CodeSet.from_words(words, 65)
        words = rng.integers(0, 2**33, size=(2000, 1), dtype=np.uint64)
        CodeSet.from_words(words, 33)
        words[1000, 0] |= np.uint64(1 << 40)
        with pytest.raises(ValueError, match="padding bits must be zero"):
            CodeSet.from_words(words, 33)
        full = np.full((3, 1), np.iinfo(np.uint64).max, dtype=np.uint64)
        assert CodeSet.from_words(full, 64).codes[2].bit(63) == 1

    def test_from_words_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CodeSet.from_words(np.zeros((3, 2), dtype=np.uint64), 64)
        with pytest.raises(ValueError):
            CodeSet.from_words(np.zeros((0, 1), dtype=np.uint64), 8)
        with pytest.raises(ValueError):
            CodeSet.from_words(np.zeros((3, 1), dtype=np.uint64), 0)
