"""Retrieval tests against brute-force oracles.

The oracles deliberately avoid the packed-word fast paths: distances
are recomputed by comparing unpacked bit vectors, and rankings come
from full sorts, so agreement is meaningful.
"""

import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohash import retrieval
from cohash.core import (
    HashCode,
    LengthMismatchError,
    pack_bit_matrix,
    similarity,
    unpack_bit_matrix,
    words_per_code,
    xor_popcount,
)
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
from util import distances_by_bits, hash_index_by_argsort, returns_within, split_by_bits


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


def probe_by_bucket_loop(index, probe_words):
    """HashIndex.probe as a Python loop over the hit buckets."""
    keys = retrieval._row_keys(probe_words)
    idx = np.minimum(np.searchsorted(index.unique_keys, keys), len(index.unique_keys) - 1)
    found = []
    for h in np.flatnonzero(index.unique_keys[idx] == keys):
        b = idx[h]
        found.extend(index.positions_by_key[index.bucket_starts[b] : index.bucket_ends[b]].tolist())
    return found


def code_words(rng, shape, n, k):
    """n packed k-bit codes: uniform, around three centres, or mostly one code."""
    if shape == "uniform":
        bits = rng.integers(0, 2, size=(n, k))
    elif shape == "clustered":
        centres = rng.integers(0, 2, size=(3, k))
        bits = centres[rng.integers(0, 3, size=n)] ^ (rng.random((n, k)) < 0.05)
    else:
        bits = np.tile(rng.integers(0, 2, size=k), (n, 1))
        odd = rng.random(n) < 0.2
        bits[odd] = rng.integers(0, 2, size=(int(odd.sum()), k))
    return pack_bit_matrix(bits.astype(np.uint8))


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

    def test_wide_enough_for_any_length(self):
        # 1,025 words: a uint16 sum of popcounts would wrap to 64
        k = 65_600
        bits = np.random.default_rng(14).integers(0, 2, size=(1, k)).astype(bool)
        items = CodeSet.from_words(pack_bit_matrix(np.concatenate([bits, ~bits])), k)
        a, b = items.codes
        assert hamming_distance(a, b) == k
        assert radius_search(a, items, k) == [(0, 0), (1, k)]
        assert hamming_rank_topk(b, items, 2) == [(1, 0), (0, k)]


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


class TestLayerMasks:
    @pytest.mark.parametrize("k,d", [(1, 0), (1, 1), (5, 2), (12, 12), (64, 3), (65, 2), (130, 2)])
    def test_layer_is_every_code_at_distance_d(self, k, d):
        nw = words_per_code(k)
        masks = retrieval._layer_masks(k, d, nw)
        want = np.zeros((math.comb(k, d), k), dtype=np.uint8)
        for row, bits in enumerate(itertools.combinations(range(k), d)):
            want[row, list(bits)] = 1
        assert masks.shape == (math.comb(k, d), nw) and masks.dtype == np.uint64
        assert sorted(map(bytes, masks)) == sorted(map(bytes, pack_bit_matrix(want)))

    def test_cached_layers_are_read_only(self):
        masks = retrieval._layer_masks(65, 2, 2)
        assert retrieval._layer_masks(65, 2, 2) is masks
        for layer in retrieval._LAYER_CACHE.values():
            assert not layer.flags.writeable
        with pytest.raises(ValueError):
            masks[0, 0] = 1
        # a ball is a fresh concatenation; the cached layers stay intact
        ball = retrieval._ball_masks(65, 2)
        ball[:] = 0
        assert (np.bitwise_count(masks).sum(axis=1) == 2).all()


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

    @pytest.mark.parametrize("k", [5, 64, 130])
    def test_probe_edge_cases_equal_bucket_loop(self, k):
        rng = np.random.default_rng(k)
        code = rng.integers(0, 2, size=(1, k)).astype(np.uint8)
        one_bucket = build_index(CodeSet.from_words(pack_bit_matrix(np.repeat(code, 9, axis=0)), k))
        other = pack_bit_matrix(1 - code)
        nw = other.shape[1]
        cases = [
            (one_bucket, np.zeros((0, nw), dtype=np.uint64), []),
            (one_bucket, other, []),
            (one_bucket, pack_bit_matrix(code), list(range(9))),
            (one_bucket, np.concatenate([other, pack_bit_matrix(code)] * 2),
             list(range(9)) * 2),
        ]
        for idx, probes, want in cases:
            got = idx.probe(probes)
            assert got.dtype == np.int64
            assert got.tolist() == probe_by_bucket_loop(idx, probes) == want

    @pytest.mark.parametrize("k", [16, 130])
    def test_arrays_are_read_only(self, k):
        items = CodeSet.from_words(code_words(np.random.default_rng(40), "clustered", 30, k), k)
        idx = items.index()
        for name in ("positions_by_key", "unique_keys", "bucket_starts", "bucket_ends"):
            with pytest.raises(ValueError):
                getattr(idx, name)[0] = getattr(idx, name)[1]
        # layer 0 is a slice of the table: writing through it must fail
        bucket = retrieval._layer(idx, items.words[0], 0)
        assert 0 in bucket.tolist()
        with pytest.raises(ValueError):
            bucket[0] = 1

    @given(st.sampled_from([1, 5, 12, 64, 65, 130]), st.integers(1, 60), st.integers(0, 12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_probe_equals_bucket_loop(self, k, n, n_probes, seed):
        # a few distinct codes, so buckets hold several items; probes
        # mix those codes, repeats of them and codes no item has
        rng = np.random.default_rng(seed)
        pool = pack_bit_matrix(rng.integers(0, 2, size=(int(rng.integers(1, 6)), k)).astype(np.uint8))
        words = pool[rng.integers(0, len(pool), size=n)]
        idx = build_index(CodeSet.from_words(words, k))
        strays = pack_bit_matrix(rng.integers(0, 2, size=(3, k)).astype(np.uint8))
        probes = np.concatenate([pool, strays])[rng.integers(0, len(pool) + 3, size=n_probes)]
        got = idx.probe(probes)
        assert got.dtype == np.int64
        assert got.tolist() == probe_by_bucket_loop(idx, probes)
        brute = [p for row in probes for p in range(n) if np.array_equal(words[p], row)]
        assert sorted(got.tolist()) == sorted(brute)

    @given(st.sampled_from([1, 7, 31, 32, 33, 63, 64, 65, 96, 130]),
           st.sampled_from(["uniform", "clustered", "repeated"]), st.integers(1, 80),
           st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_probe_keeps_bucket_loop_order(self, k, shape, n, n_probes, seed):
        # probes in any order: the items' codes, repeats of them, codes
        # no item has, and the lowest and highest codes, which fall
        # before the first key and past the last
        rng = np.random.default_rng(seed)
        words = code_words(rng, shape, n, k)
        idx = build_index(CodeSet.from_words(words, k))
        ends = pack_bit_matrix(np.array([[0] * k, [1] * k], dtype=np.uint8))
        pool = np.concatenate([words, code_words(rng, "uniform", 4, k), ends])
        probes = pool[rng.integers(0, len(pool), size=n_probes)]
        got = idx.probe(probes)
        assert got.dtype == np.int64
        assert got.tolist() == probe_by_bucket_loop(idx, probes)
        if k <= 64:  # one word a code: the words as 1-D keys probe alike
            keys = idx.probe(probes[:, 0])
            assert keys.dtype == np.int64 and keys.tolist() == got.tolist()

    # the sizes on either side of k + ceil(log2 N) = 64, where the
    # packed key-and-position sort gives way to the stable argsort
    @example(k=62, n=4, shape="uniform", seed=0)
    @example(k=62, n=5, shape="uniform", seed=0)
    @example(k=63, n=2, shape="uniform", seed=0)
    @example(k=63, n=3, shape="uniform", seed=0)
    @given(k=st.sampled_from([1, 5, 16, 32, 62, 63, 64, 65, 130]), n=st.integers(1, 70),
           shape=st.sampled_from(["uniform", "clustered", "repeated"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_arrays_equal_stable_argsort(self, k, n, shape, seed):
        words = code_words(np.random.default_rng(seed), shape, n, k)
        idx = HashIndex(words, k)
        for name, want in hash_index_by_argsort(words).items():
            got = getattr(idx, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


class TestMultiIndex:
    @pytest.mark.parametrize("k,m", [
        (32, 2),                        # spans inside one word
        (96, 2), (130, 3),              # spans across a word boundary
        (200, 2),                       # spans wider than one word
        (1, 1), (130, 1), (5, 5), (130, 130),
    ])
    def test_split_equals_unpack_pack(self, k, m):
        words = code_words(np.random.default_rng(k * m), "uniform", 40, k)
        mi = build_multi_index(CodeSet.from_words(words, k), m)
        want = split_by_bits(words, k, mi.boundaries)
        # the table build's rows, and one query's row
        for rows, pick in ((words, slice(None)), (words[3:4], slice(3, 4))):
            got = mi._split(rows)
            assert len(got) == m
            for g, w in zip(got, want):
                assert g.dtype == np.uint64 and g.shape == w[pick].shape
                assert np.array_equal(g, w[pick])

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

    @given(st.sampled_from([1, 16, 31, 32, 33, 63, 64, 65, 96, 128, 130, 200]),
           st.sampled_from(["uniform", "clustered", "repeated"]), st.integers(1, 60),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_search_equals_radius_search_for_every_m(self, k, shape, n, seed, data):
        # m up to 6, so spans of one bit, spans inside one word and, past
        # 64 bits, spans across a word boundary
        m = data.draw(st.integers(1, min(k, 6)), label="m")
        rng = np.random.default_rng(seed)
        words = code_words(rng, shape, n, k)
        items = CodeSet.from_words(words, k)
        mi = build_multi_index(items, m)
        # r from s * m to s * m + m - 1 probes each table at radius s;
        # wide spans keep s small, so the sub-balls stay small
        widest = max(hi - lo for lo, hi in mi.boundaries)
        s = data.draw(st.integers(0, min(widest, 2 if widest <= 64 else 1)), label="s")
        r = min(s * m + data.draw(st.integers(0, m - 1), label="extra"), k)
        bits = unpack_bit_matrix(words, k)
        qbits = bits[rng.integers(0, n)] ^ (rng.random(k) < 0.05)
        if data.draw(st.booleans(), label="random query"):
            qbits = rng.integers(0, 2, size=k)
        q = HashCode.from_bits(qbits)
        assert multi_index_search(q, mi, items, r) == radius_search(q, items, r)
        if k <= 64:  # a one-word query is split by integer shift and mask
            rows = mi._split(q.words[None, :])
            assert mi._split_word(int(q.words[0])) == [int(row[0, 0]) for row in rows]

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


@pytest.fixture
def rankers(monkeypatch):
    """hamming_rank_topk, and recommend's rank engine reading the set's
    table with no size gate and no probe budget; each ranking test runs
    on both."""
    monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
    monkeypatch.setattr(retrieval, "_PROBE_COST", 0)

    def from_table(query, items, k):
        got = [(p, int(d)) for p, d in recommend(query, items, "rank", top_k=k)]
        assert "index" in items._tables
        return got
    return hamming_rank_topk, from_table


class TestHammingRankTopk:
    def test_full_ranking_nondecreasing(self, rankers):
        for rank in rankers:
            rng = np.random.default_rng(14)
            items = rand_codeset(rng, 60, 12)
            q = HashCode.from_bits(rng.integers(0, 2, size=12))
            out = rank(q, items, 60)
            dists = [d for _, d in out]
            assert dists == sorted(dists)
            assert len(out) == 60

    def test_exact_match_ranked_first(self, rankers):
        for rank in rankers:
            rng = np.random.default_rng(15)
            items = rand_codeset(rng, 30, 10)
            q = items.codes[17]
            first_pos, first_d = rank(q, items, 1)[0]
            assert first_d == 0
            assert first_pos == min(p for p, c in enumerate(items.codes) if c == q)

    def test_matches_bruteforce_sort(self, rankers):
        for rank in rankers:
            rng = np.random.default_rng(16)
            items = rand_codeset(rng, 500, 16)
            for _ in range(25):
                q = HashCode.from_bits(rng.integers(0, 2, size=16))
                assert rank(q, items, 10) == oracle_topk(q, items, 10)

    def test_one_word_ties_follow_position(self, rankers):
        # 12-bit codes over 3000 items: every distance is shared by
        # hundreds of items, so the cut falls inside a tie
        for rank in rankers:
            rng = np.random.default_rng(28)
            bits = rng.integers(0, 2, size=(3000, 12), dtype=np.uint8)
            items = CodeSet.from_words(pack_bit_matrix(bits), 12)
            for _ in range(20):
                qbits = rng.integers(0, 2, size=12, dtype=np.uint8)
                d = np.sum(bits != qbits, axis=1)
                order = np.lexsort((np.arange(3000), d))[:300]
                want = [(int(p), int(d[p])) for p in order]
                assert rank(HashCode.from_bits(qbits), items, 300) == want

    def test_prefix_property(self, rankers):
        for rank in rankers:
            rng = np.random.default_rng(17)
            items = rand_codeset(rng, 80, 8)
            q = HashCode.from_bits(rng.integers(0, 2, size=8))
            for k in range(1, 40):
                assert rank(q, items, k) == rank(q, items, k + 1)[:k]

    def test_k_beyond_count_returns_all(self, rankers):
        for rank in rankers:
            items = rand_codeset(np.random.default_rng(18), 7, 4)
            assert len(rank(items.codes[0], items, 99)) == 7

    def test_k_must_be_positive(self, rankers):
        for rank in rankers:
            items = rand_codeset(np.random.default_rng(19), 3, 4)
            with pytest.raises(ValueError):
                rank(items.codes[0], items, 0)


class TestTableTopk:
    @given(st.sampled_from([1, 5, 12, 32, 64, 65, 130]),
           st.sampled_from(["uniform", "clustered", "one-code"]),
           st.integers(1, 150), st.sampled_from([1, 2, 12, 10**9]),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort_or_falls_back(self, k, shape, n, cost, seed, data):
        rng = np.random.default_rng(seed)
        words = code_words(rng, shape, n, k)
        items = CodeSet.from_words(words, k)
        top = data.draw(st.integers(1, n + 1), label="top")
        # repeats, and positions outside [0, n) that name no item
        drop = data.draw(st.lists(st.integers(-2, n + 2), max_size=n + 4), label="drop")
        bits = unpack_bit_matrix(words, k).astype(np.uint8)
        qbits = bits[rng.integers(0, n)].copy()
        qbits[rng.random(k) < 0.1] ^= 1
        d = np.sum(bits != qbits, axis=1)
        want = [(int(p), int(d[p])) for p in np.lexsort((np.arange(n), d))
                if p not in drop][:top]
        q = HashCode.from_bits(qbits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_PROBE_COST", cost)
            got = retrieval._table_topk(q, items, top, set(drop))
            # answered at every cost: layers past the probes are read
            # from the popcount classes, or the whole set is ranked
            assert got == want
            mp.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
            assert recommend(q, items, "rank", top_k=top, exclude=drop) == [
                (p, float(dist)) for p, dist in want]

    def test_stops_once_the_whole_set_is_found(self, monkeypatch):
        # k beyond the set: every item sits in the query's own bucket, so
        # layer 0 answers, and layer 1 is not probed even when the budget
        # (cost 0) would allow it
        items = CodeSet.from_words(np.full((10, 1), 7, dtype=np.uint64), 64)
        monkeypatch.setattr(HashIndex, "probe", lambda *args: pytest.fail("probed layer 1"))
        for cost in (1, 0):
            monkeypatch.setattr(retrieval, "_PROBE_COST", cost)
            got = retrieval._table_topk(items.codes[0], items, 15)
            assert got == [(p, 0) for p in range(10)]

    @pytest.mark.parametrize("k, shape", [(10, "every"), (12, "clustered"), (16, "uniform")])
    def test_probes_the_layers_that_cost_less_than_their_classes(self, monkeypatch, k, shape):
        # rank probes layer d while C(k, d) * _PROBE_COST is below the
        # count of codes whose popcount lies at d, d - 2, ... from the
        # query's, and reads the later layers from those classes.  Every
        # query popcount, at each cost in turn on the same set, so a cost
        # patched after the set's first rank takes effect
        monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
        probed = []
        probe = HashIndex.probe

        def counting(self, probe_words):
            probed.append(len(probe_words))
            return probe(self, probe_words)
        monkeypatch.setattr(HashIndex, "probe", counting)
        rng = np.random.default_rng(k)
        if shape == "every":
            words = np.arange(2**k, dtype=np.uint64)[:, None]
        else:
            words = code_words(rng, shape, 300, k)
        items = CodeSet.from_words(words, k)
        n = len(items)
        bits = unpack_bit_matrix(words, k)
        pops = bits.sum(axis=1)
        for cost in (0, 1, 3, 30, 10**9):
            monkeypatch.setattr(retrieval, "_PROBE_COST", cost)
            for q in range(k + 1):
                qbits = np.zeros(k, dtype=np.uint8)
                qbits[rng.choice(k, size=q, replace=False)] = 1
                d = np.sum(bits != qbits, axis=1)
                delta = np.abs(pops - q)
                ranked = [(int(p), float(d[p])) for p in np.lexsort((np.arange(n), d))]
                for top in (10, n):
                    want = []
                    for layer in range(1, k + 1):
                        if np.sum(d < layer) >= top:  # the walk has its answer
                            break
                        classes = np.sum((delta <= layer) & ((layer - delta) % 2 == 0))
                        if math.comb(k, layer) * cost >= classes:
                            break
                        want.append(math.comb(k, layer))
                    probed.clear()
                    got = recommend(HashCode.from_bits(qbits), items, "rank", top_k=top)
                    assert got == ranked[:top]
                    assert probed == want, (cost, q, top)

    def test_long_history_is_answered_from_the_table(self, monkeypatch):
        # 12 codes at the query, 40 one bit away and 250 at least four
        # bits away.  At a probe cost of 10 the budget ball has radius 1
        # and holds 52 items; the history leaves 12 of them, enough for
        # top-5, though 5 + len(history) hits would overrun the ball
        rng = np.random.default_rng(39)
        far = rng.integers(0, 2**16, size=2000, dtype=np.uint64)
        far = far[np.bitwise_count(far) >= 4][:250]
        one_bit = np.uint64(1) << (np.arange(40) % 16).astype(np.uint64)
        words = np.concatenate([np.zeros(12, dtype=np.uint64), one_bit, far])[:, None]
        items = CodeSet.from_words(words, 16)
        history = (list(range(10)) + list(range(12, 42))
                   + rng.choice(np.arange(52, 302), size=100, replace=False).tolist()
                   + [-1, 10**6])
        q = HashCode(16, np.zeros(1, dtype=np.uint64))
        want = [(p, d) for p, d in hamming_rank_topk(q, items, 302) if p not in history][:5]
        assert [d for _, d in want] == [0, 0, 1, 1, 1]
        monkeypatch.setattr(retrieval, "_PROBE_COST", 10)
        assert retrieval._table_topk(q, items, 5, set(history)) == want

        def scan(*args):
            pytest.fail("rank fell back to the scan")
        monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
        monkeypatch.setattr(retrieval, "hamming_rank_topk", scan)
        got = recommend(q, items, "rank", top_k=5, exclude=np.array(history))
        assert got == [(p, float(d)) for p, d in want]

    def test_small_set_builds_no_table(self):
        # fit-sized catalogs are scanned: no per-fit table build
        rng = np.random.default_rng(34)
        items = CodeSet.from_words(code_words(rng, "clustered", 1682, 32), 32)
        q = items.codes[5]
        got = recommend(q, items, "rank", top_k=10, exclude={5})
        assert items._tables == {}
        assert got == [(p, float(d)) for p, d in hamming_rank_topk(q, items, 11) if p != 5]

    def test_large_set_reads_its_table(self):
        rng = np.random.default_rng(35)
        n = retrieval._TABLE_MIN_ITEMS
        # every code one bit away from one of 50 centres
        centres = rng.integers(0, 2**32, size=50, dtype=np.uint64)
        flips = np.uint64(1) << rng.integers(0, 32, size=n).astype(np.uint64)
        words = (centres[rng.integers(0, 50, size=n)] ^ flips)[:, None]
        items = CodeSet.from_words(words, 32)
        for q in (items.codes[0], HashCode(32, centres[:1])):
            got = recommend(q, items, "rank", top_k=20)
            assert "index" in items._tables
            assert got == [(p, float(d)) for p, d in hamming_rank_topk(q, items, 20)]
            assert retrieval._table_topk(q, items, 20) is not None

    def test_length_mismatch_before_any_table(self):
        items = rand_codeset(np.random.default_rng(36), 5, 8)
        with pytest.raises(LengthMismatchError):
            retrieval._table_topk(HashCode.from_bits([1, 0]), items, 1)
        assert items._tables == {}


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

    def test_ties_nan_and_inf_match_full_sort(self):
        # catalogs past the column-bound size: heavy ties (integer and
        # repeated rows, a zero query), infinities, and NaN rows, which
        # rank last
        rng = np.random.default_rng(22)
        catalogs = [
            rng.integers(-2, 3, size=(2000, 4)).astype(float),
            np.repeat(rng.normal(size=(50, 4)), 40, axis=0),
            rng.normal(size=(2000, 4)),
        ]
        catalogs[2][rng.random(2000) < 0.05, 0] = np.nan
        catalogs[2][rng.random(2000) < 0.02, 1] = np.inf
        for items in catalogs:
            for q in (rng.normal(size=4), np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])):
                with np.errstate(invalid="ignore"):
                    scores = items @ q
                    got = realvalued_topk(q, items, 10)
                order = np.lexsort((np.arange(len(scores)), -scores))[:10]
                assert [p for p, _ in got] == order.tolist()
                assert all(type(p) is int and type(s) is float for p, s in got)
                assert all(np.signbit(s) == np.signbit(scores[p]) and s == scores[p]
                           for p, s in got)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            realvalued_topk(np.ones(3), np.ones((5, 4)), 2)

    # a NaN k-th score once gave a short list, or none, without an error
    def test_nan_query_over_many_items_raises(self):
        items = np.random.default_rng(23).normal(size=(1682, 10))
        with pytest.raises(ValueError, match="non-finite"):
            realvalued_topk(np.full(10, np.nan), items, 10)

    def test_nan_query_through_recommend_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            recommend(np.full(3, np.nan), np.ones((5, 3)), "real", top_k=2)

    def test_too_few_finite_scores_raises(self):
        items = np.vstack([np.ones((3, 2)), np.full((2, 2), np.nan)])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            realvalued_topk(np.ones(2), items, 4)

    # with k at least the item count, a full sort once returned NaN scores
    def test_nan_scores_with_k_at_the_item_count_raise(self):
        with pytest.raises(ValueError, match="non-finite"):
            realvalued_topk(np.full(3, np.nan), np.ones((5, 3)), 5)

    def test_nan_query_with_exclusions_through_recommend_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            recommend(np.full(3, np.nan), np.ones((5, 3)), "real", top_k=2, exclude=[0, 1, 2])


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

    @pytest.mark.parametrize("method", ["linear", "lookup", "multi-index", "rank"])
    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, method, top_k):
        # linear, lookup and multi-index once returned an empty list
        items = rand_codeset(np.random.default_rng(27), 20, 6)
        for exclude in ((), {1, 2}):
            with pytest.raises(ValueError, match="k must be >= 1"):
                recommend(items.codes[0], items, method, top_k=top_k, radius=6,
                          exclude=exclude)

    def test_unknown_method(self):
        items = rand_codeset(np.random.default_rng(26), 5, 4)
        with pytest.raises(ValueError):
            recommend(items.codes[0], items, "cosine")

    @given(st.sampled_from([1, 5, 32, 64, 65, 130]),
           st.sampled_from(["uniform", "clustered", "one-code"]),
           st.integers(1, 80), st.integers(0, 3), st.integers(1, 4),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=120, deadline=None)
    def test_table_engines_equal_linear_as_lists(self, k, shape, n, radius, subcodes, seed, data):
        rng = np.random.default_rng(seed)
        words = code_words(rng, shape, n, k)
        ids = [f"i{p}" for p in rng.permutation(n)]
        items = CodeSet.from_words(words, k, ids)
        bits = unpack_bit_matrix(words, k)
        qbits = bits[rng.integers(0, n)] ^ (rng.random(k) < 0.05)
        q = HashCode.from_bits(qbits)
        radius, subcodes = min(radius, k), min(subcodes, k)
        top_k = data.draw(st.integers(1, n + 2), label="top_k")
        drop = set(rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False).tolist())
        d = np.sum(bits != qbits, axis=1)
        want = [(ids[p], float(d[p])) for p in np.lexsort((np.arange(n), d))
                if d[p] <= radius and p not in drop][:top_k]
        for method in ("linear", "lookup", "multi-index"):
            got = recommend(q, items, method, top_k=top_k, radius=radius, subcodes=subcodes,
                            exclude=drop)
            assert got == want
            assert all(type(s) is float for _, s in got)

    def test_lookup_probes_no_layer_past_top_k(self, monkeypatch):
        # every 8-bit code once: layers 0 and 1 around code 0 hold 1 + 8
        # items.  Layer 0 is read in place, so only layers 1 and 2 probe
        items = CodeSet.from_words(np.arange(256, dtype=np.uint64)[:, None], 8)
        q = items.codes[0]
        probed = []
        probe = HashIndex.probe

        def counting(self, probe_words):
            probed.append(len(probe_words))
            return probe(self, probe_words)
        monkeypatch.setattr(HashIndex, "probe", counting)
        want = [(p, float(d)) for p, d in oracle_radius(q, items, 2)]
        for top_k, drop, layers in ((1, (), []), (9, (), [8]), (7, {1, 2}, [8]),
                                    (10, (), [8, 28]), (8, {1, 2}, [8, 28])):
            probed.clear()
            got = recommend(q, items, "lookup", top_k=top_k, radius=2, exclude=drop)
            assert got == [(p, d) for p, d in want if p not in drop][:top_k]
            assert probed == layers

    def test_tables_are_built_once_per_codeset(self, monkeypatch):
        builds = {"lookup": 0, "multi": 0}
        rng = np.random.default_rng(29)
        items = rand_codeset(rng, 60, 10)

        def counting(cls, key, top_level):
            init = cls.__init__

            def wrapped(self, *args):
                builds[key] += top_level(*args)
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", wrapped)

        # a multi-index builds one HashIndex per substring; only tables
        # over the set's own words are lookup tables
        counting(HashIndex, "lookup", lambda words, k: words is items.words)
        counting(MultiIndex, "multi", lambda words, k, m: words is items.words)
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

    def test_tables_do_not_keep_their_set_alive(self):
        # a multi-index once held its set, which holds its tables: a
        # cycle that only the garbage collector could free
        rng = np.random.default_rng(34)
        items = rand_codeset(rng, 60, 10)
        q = rand_codeset(rng, 1, 10)[0]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for method in ("lookup", "multi-index"):
                recommend(q, items, method, top_k=5, radius=2)
            assert len(items._tables) == 2
            ref = weakref.ref(items)
            del items
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

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

    def test_built_tables_are_read_without_the_lock(self):
        items = rand_codeset(np.random.default_rng(40), 50, 12)
        built = (items.index(), items.multi_index(2))
        with items._tables_lock:  # as a thread building another table would
            assert returns_within(5, items.index) is built[0]
            assert returns_within(5, items.multi_index, 2) is built[1]

    def test_concurrent_first_callers_build_once(self, monkeypatch):
        items = rand_codeset(np.random.default_rng(41), 50, 12)
        builds = []
        init = HashIndex.__init__

        def slow(self, *args):
            builds.append(args)
            threading.Event().wait(0.05)  # the other caller arrives mid-build
            init(self, *args)
        monkeypatch.setattr(HashIndex, "__init__", slow)
        got = [None] * 4
        threads = [threading.Thread(target=lambda t=t: got.__setitem__(t, items.index()))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert len(builds) == 1 and all(g is got[0] for g in got)

    def test_budget_radius_is_computed_once(self, monkeypatch):
        rng = np.random.default_rng(42)
        items = CodeSet.from_words(code_words(rng, "clustered", 3000, 20), 20)
        q = items[7]
        want = retrieval._table_topk(q, items, 10)
        # the second call reuses the radius (and the layer masks)
        monkeypatch.setattr(math, "comb", lambda *args: pytest.fail("radius recomputed"))
        assert retrieval._table_topk(q, items, 10) == want is not None


class TestScanWords:
    """Codes of up to 32 bits are scanned through a uint32 copy of
    their words; longer codes through the words themselves."""

    @given(st.sampled_from([1, 8, 16, 31, 32]),
           st.sampled_from(["uniform", "clustered", "one-code"]),
           st.integers(1, 150), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_scans_equal_bit_oracle(self, k, shape, n, radius, seed, data):
        rng = np.random.default_rng(seed)
        words = code_words(rng, shape, n, k)
        items = CodeSet.from_words(words, k)
        # near an item, or anywhere, high bits included
        qbits = unpack_bit_matrix(words, k)[rng.integers(0, n)] ^ (rng.random(k) < 0.1)
        if data.draw(st.booleans(), label="random query"):
            qbits = rng.integers(0, 2, size=k)
        q = HashCode.from_bits(qbits)
        d = distances_by_bits(words, k, q.words)
        ranked = [(int(p), int(d[p])) for p in np.lexsort((np.arange(n), d))]
        radius = min(radius, k)
        top = data.draw(st.integers(1, n + 1), label="top")
        got = retrieval._distances(q, items)
        assert got.dtype == np.uint16 and np.array_equal(got, d)
        assert radius_search(q, items, radius) == [(p, e) for p, e in ranked if e <= radius]
        assert hamming_rank_topk(q, items, top) == ranked[:top]
        assert recommend(q, items, "linear", top_k=top, radius=radius) == [
            (p, float(e)) for p, e in ranked if e <= radius][:top]
        assert recommend(q, items, "rank", top_k=top) == [(p, float(e)) for p, e in ranked[:top]]
        with pytest.MonkeyPatch.context() as mp:
            # from the table when the budget ball holds the answer
            mp.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
            assert recommend(q, items, "rank", top_k=top) == [
                (p, float(e)) for p, e in ranked[:top]]

    @pytest.mark.parametrize("k", [1, 8, 16, 31, 32, 33, 64, 65])
    def test_uint32_copy_only_up_to_32_bits(self, tmp_path, k):
        from cohash.data_io import load_codes, save_codes

        rng = np.random.default_rng(k)
        words = code_words(rng, "uniform", 20, k)
        made = CodeSet.from_words(words, k)
        save_codes(made, tmp_path / "c.codes")
        for items in (made, CodeSet(list(made)), load_codes(tmp_path / "c.codes")):
            scan = items._scan_words
            if k > 32:
                assert scan is items.words
                continue
            assert scan.dtype == np.uint32 and scan.shape == (20, 1)
            assert np.array_equal(scan, words)
            with pytest.raises(ValueError):
                scan[0, 0] = 1

    @pytest.mark.parametrize("k", [16, 32, 33, 64])
    def test_scans_read_one_width(self, monkeypatch, k):
        # both operands of every scan are uint32 words for k <= 32, so a
        # uint64 query does not widen the items' XOR back to 8 bytes
        seen = set()

        def recording(a, b):
            seen.add((a.dtype, b.dtype))
            return xor_popcount(a, b)
        monkeypatch.setattr(retrieval, "xor_popcount", recording)
        rng = np.random.default_rng(k)
        items = CodeSet.from_words(code_words(rng, "clustered", 100, k), k)
        q = items[3]
        radius_search(q, items, 2)
        hamming_rank_topk(q, items, 5)
        multi_index_search(q, items.multi_index(2), items, 2)
        width = np.dtype(np.uint32 if k <= 32 else np.uint64)
        assert seen == {(width, width)}


class TestBandScans:
    """Scans that read only the popcount classes that can hold an answer
    give the answers of a scan of every code."""

    @given(st.sampled_from([1, 7, 31, 32, 33, 64, 65, 130]),
           st.sampled_from(["uniform", "clustered", "sparse", "dense"]),
           st.integers(1, 120), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_radius_search_equals_bit_count(self, k, shape, n, seed, data):
        rng = np.random.default_rng(seed)
        if shape in ("sparse", "dense"):  # codes near popcount 0 or k
            bits = (rng.random((n, k)) < 0.1) ^ (shape == "dense")
            words = pack_bit_matrix(bits.astype(np.uint8))
        else:
            words = code_words(rng, shape, n, k)
        items = CodeSet.from_words(words, k)
        bits = unpack_bit_matrix(words, k)
        # near an item, anywhere, or near popcount 0 or k, where the
        # window of classes within r of the query's is clipped
        where = data.draw(st.sampled_from(["item", "random", "zeros", "ones"]), label="query")
        if where == "item":
            qbits = bits[rng.integers(0, n)] ^ (rng.random(k) < 0.1)
        elif where == "random":
            qbits = rng.random(k) < 0.5
        else:
            qbits = (rng.random(k) < 0.05) ^ (where == "ones")
        r = data.draw(st.integers(0, k), label="r")
        d = np.sum(bits != qbits, axis=1)
        want = [(int(p), int(d[p])) for p in np.lexsort((np.arange(n), d)) if d[p] <= r]
        assert radius_search(HashCode.from_bits(qbits), items, r) == want

    @pytest.mark.parametrize("k, cost", [(10, 0), (10, 1), (10, 3), (10, 10**9),
                                         (33, 1), (33, 3), (33, 10**9)])
    def test_rank_equals_reference_at_every_depth(self, monkeypatch, k, cost):
        # top_k set so that the last kept item lies at each distance in
        # turn: the shallow ones within the layers probed, the deep ones
        # past them, where the scan used to take over.  A cost of 0 lets
        # every layer be probed, so it is kept to k=10, whose widest
        # layer has 252 masks
        monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
        monkeypatch.setattr(retrieval, "_PROBE_COST", cost)
        rng = np.random.default_rng(k + cost)
        n = 400
        words = code_words(rng, "uniform", n, k)
        items = CodeSet.from_words(words, k, [f"i{p}" for p in range(n)])
        bits = unpack_bit_matrix(words, k)
        depths = set()
        for u in range(6):
            qbits = bits[u] ^ (rng.random(k) < 0.1)
            d = np.sum(bits != qbits, axis=1)
            drop = rng.choice(n, size=int(rng.integers(0, 60)), replace=False)
            ranked = [(f"i{p}", float(d[p])) for p in np.lexsort((np.arange(n), d))
                      if p not in set(drop.tolist())]
            q = HashCode.from_bits(qbits)
            for depth in sorted({s for _, s in ranked}):
                top_k = sum(s <= depth for _, s in ranked)
                got = recommend(q, items, "rank", top_k=top_k, exclude=drop)
                assert got == ranked[:top_k]
                depths.add(depth)
            assert recommend(q, items, "rank", top_k=n + 5, exclude=drop) == ranked
        assert "index" in items._tables
        assert len(depths) > 6

    def test_sets_loads_and_tables_build_no_band_table(self, tmp_path):
        from cohash.data_io import load_codes, save_codes

        rng = np.random.default_rng(43)
        made = CodeSet.from_words(code_words(rng, "clustered", 300, 32), 32)
        save_codes(made, tmp_path / "c.codes")
        loaded = load_codes(tmp_path / "c.codes")
        for items in (made, loaded, CodeSet(list(made))):
            build_index(items)
            build_multi_index(items, 2)
            items.index()
            items.multi_index(2)
            assert set(items._tables) == {"index", ("multi", 2)}

    def test_concurrent_first_callers_build_each_table_once(self, monkeypatch):
        monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
        rng = np.random.default_rng(44)
        items = CodeSet.from_words(code_words(rng, "clustered", 500, 20), 20)
        builds = []
        table = CodeSet._table

        def slow(self, key, build):
            def counted():
                builds.append(key)
                threading.Event().wait(0.05)  # the other callers arrive mid-build
                return build()
            return table(self, key, counted)
        monkeypatch.setattr(CodeSet, "_table", slow)
        queries = [items[u] for u in (1, 2, 3, 4)]
        want = [([(p, float(d)) for p, d in oracle_radius(q, items, 3)][:50],
                 [(p, float(d)) for p, d in oracle_topk(q, items, 12)]) for q in queries]
        got = [None] * 4

        def serve(t):
            got[t] = (recommend(queries[t], items, "linear", top_k=50, radius=3),
                      recommend(queries[t], items, "rank", top_k=12))
        threads = [threading.Thread(target=serve, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert not any(th.is_alive() for th in threads)
        assert got == want
        assert "index" in builds and len(builds) == len(set(builds))


class TestOutputTypes:
    """np.int64(3) == 3, so the equality tests above cannot see a NumPy
    scalar leak into an answer; these check the Python types."""

    @pytest.mark.parametrize("k", [12, 64, 96])
    def test_search_pairs_are_python_ints(self, monkeypatch, k):
        rng = np.random.default_rng(37)
        items = CodeSet.from_words(code_words(rng, "clustered", 200, k), k)
        q = items.codes[3]
        results = [hamming_rank_topk(q, items, 20), hamming_rank_topk(q, items, 500),
                   radius_search(q, items, 8),
                   multi_index_search(q, items.multi_index(2), items, 8)]
        if k == 12:
            # every layer within the budget, so the table answers
            monkeypatch.setattr(retrieval, "_PROBE_COST", 0)
            results.append(retrieval._table_topk(q, items, 150))
            assert {d for _, d in results[-1]} != {0}
        for pairs in results:
            assert pairs and all(type(p) is int and type(d) is int for p, d in pairs)

    @pytest.mark.parametrize("engine",
                             ["rank-scan", "rank-table", "lookup", "linear", "multi-index", "real"])
    def test_every_exclusion_container_gives_one_answer(self, monkeypatch, engine):
        rng = np.random.default_rng(38)
        n = 300
        words = code_words(rng, "clustered", n, 16)
        items = CodeSet.from_words(words, 16)
        vectors = unpack_bit_matrix(words, 16) * 2.0 - 1.0
        method = engine.split("-")[0] if engine.startswith("rank") else engine
        if engine == "rank-table":
            monkeypatch.setattr(retrieval, "_TABLE_MIN_ITEMS", 1)
        for u in (0, 7, 150):
            query, target = (vectors[u], vectors) if method == "real" else (items.codes[u], items)
            near = [p for p, _ in recommend(query, target, method, top_k=12, radius=4)]
            # the near half of the answer, the query's own item, and far items
            seen = np.unique(np.concatenate(
                [near[::2], [u], rng.choice(n, size=20, replace=False)])).astype(np.int64)
            for drop in (seen, np.array([], dtype=np.int64)):
                answers = [recommend(query, target, method, top_k=10, radius=4, exclude=ex)
                           for ex in (drop, drop.tolist(), tuple(drop.tolist()),
                                      set(drop.tolist()))]
                if drop.size == 0:
                    answers.append(recommend(query, target, method, top_k=10, radius=4,
                                             exclude=()))
                assert all(a == answers[0] for a in answers)
                assert answers[0] and not set(drop.tolist()) & {p for p, _ in answers[0]}
                for got in answers:
                    assert all(type(p) is int and type(s) is float for p, s in got)
        assert ("index" in items._tables) == (engine in ("rank-table", "lookup"))


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
        assert list(again) == list(items)

    def test_codes_are_a_sequence_of_hashcodes(self):
        rng = np.random.default_rng(32)
        originals = [HashCode.from_bits(rng.integers(0, 2, size=70)) for _ in range(6)]
        items = CodeSet(originals)
        assert items.codes is items and len(items) == 6
        assert list(items) == originals
        assert items[4] == originals[4] and items[-1] == originals[-1]
        assert list(items) == list(CodeSet.from_words(items.words, 70))
        assert list(items) != list(CodeSet(originals[::-1]))
        with pytest.raises(IndexError):
            items[6]

    @pytest.mark.parametrize("k", [8, 64, 70, 130])
    def test_codes_equal_checked_codes(self, k):
        # codes[i] skips the checks of HashCode(k, words); its codes must
        # not differ in any way from checked ones
        items = rand_codeset(np.random.default_rng(k), 7, k)
        for i, code in enumerate(items.codes):
            checked = HashCode(k, items.words[i])
            for c in (code, items.codes[i], items.codes[i - 7]):
                assert type(c) is HashCode and c == checked
                assert hash(c) == hash(checked) and repr(c) == repr(checked)
                with pytest.raises(AttributeError):
                    c.k = k + 1
        # only a position names a row
        for index in (slice(1, 3), np.array([0, 1]), 1.0):
            with pytest.raises(TypeError):
                items.codes[index]

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
