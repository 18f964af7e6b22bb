"""Hamming-space retrieval over packed binary codes.

Four ways to answer "which items are near this code": a linear scan
within a radius, a hash-table lookup that enumerates the Hamming ball
around the query, multi-index lookup over code substrings, and plain
top-k ranking by distance.  A real-valued dot-product ranker is kept
alongside as the timing baseline.

A CodeSet stores its codes only as one read-only matrix of packed
uint64 words, and all distance work runs on those words (XOR then
popcount), so per-pair cost depends on the word count, not the bit
count.  Each CodeSet builds its lookup table and its multi-index tables
once, on first use by ``recommend``, and reuses them afterwards;
``build_index`` and ``build_multi_index`` always build afresh.  Indices
are immutable once built; every query path is read-only and safe to run
concurrently.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Collection, Iterator, Sequence

import numpy as np

from cohash.core import (
    HashCode,
    LengthMismatchError,
    pack_bit_matrix,
    unpack_bit_matrix,
    words_per_code,
    xor_popcount,
)

__all__ = [
    "BallTooLargeError",
    "CodeSet",
    "HashIndex",
    "MultiIndex",
    "hamming_distance",
    "build_index",
    "build_multi_index",
    "radius_search",
    "lookup_search",
    "multi_index_search",
    "hamming_rank_topk",
    "realvalued_topk",
    "recommend",
    "ball_size",
]

# Hamming-ball enumeration beyond this many probes is refused.
MAX_LOOKUP_PROBES = 10_000_000


class BallTooLargeError(ValueError):
    """Ball enumeration would exceed the probe budget; use radius_search."""


class CodeSet:
    """An ordered collection of equal-length codes with external ids.

    Position (index into the collection) is the unit every search
    operation speaks in; ``ids[position]`` maps back to the caller's
    entity id and defaults to the position itself.

    The codes live only in ``words``, a read-only (N, ceil(k/64)) uint64
    matrix; ``codes[i]`` builds the i-th :class:`HashCode` on access.
    Because the words cannot change, the lookup and multi-index tables
    that :meth:`index` and :meth:`multi_index` build on first use stay
    valid for the life of the set.
    """

    def __init__(self, codes: Sequence[HashCode], ids: Sequence | None = None):
        codes = list(codes)
        if not codes:
            raise ValueError("CodeSet needs at least one code")
        k = codes[0].k
        for c in codes:
            if c.k != k:
                raise LengthMismatchError(f"mixed code lengths: {k} and {c.k}")
        self._init(k, np.stack([c.words for c in codes]), ids)

    @classmethod
    def from_words(cls, words: np.ndarray, k: int, ids: Sequence | None = None) -> "CodeSet":
        """A set over a copy of an (N, ceil(k/64)) word matrix.

        Raises ValueError, as :class:`HashCode` does for one code, when
        the shape does not fit k or any row has a padding bit set.
        """
        if k < 1:
            raise ValueError("code length must be >= 1")
        words = np.array(words, dtype=np.uint64, order="C")
        if words.ndim != 2 or words.shape[1] != words_per_code(k):
            raise ValueError("word count does not match the code length")
        if words.shape[0] == 0:
            raise ValueError("CodeSet needs at least one code")
        pad = words.shape[1] * 64 - k
        if pad:
            dirty = np.flatnonzero(words[:, -1] >> np.uint64(64 - pad))
            if dirty.size:
                raise ValueError(f"padding bits must be zero (row {dirty[0]})")
        codeset = cls.__new__(cls)
        codeset._init(k, words, ids)
        return codeset

    def _init(self, k: int, words: np.ndarray, ids: Sequence | None) -> None:
        words.flags.writeable = False
        self.k = k
        self.words = words
        self.codes = _CodeRows(k, words)
        n = words.shape[0]
        if ids is None:
            self.ids = list(range(n))
        else:
            self.ids = list(ids)
            if len(self.ids) != n:
                raise ValueError("ids and codes must have equal length")
        self._tables: dict = {}
        self._tables_lock = threading.Lock()

    def __len__(self) -> int:
        return self.words.shape[0]

    def index(self) -> "HashIndex":
        """The exact-code table over this set, built on first call."""
        return self._table("index", lambda: HashIndex(self))

    def multi_index(self, m: int) -> "MultiIndex":
        """The m-substring tables over this set, built on first call per m."""
        return self._table(("multi", m), lambda: MultiIndex(self, m))

    def _table(self, key, build):
        # one lock per set: a second caller waits for the first build
        # instead of repeating it
        with self._tables_lock:
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = build()
        return table


class _CodeRows(Sequence):
    """The rows of a word matrix as HashCode values, built on access."""

    __slots__ = ("k", "words")

    def __init__(self, k: int, words: np.ndarray):
        self.k = k
        self.words = words

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return HashCode(self.k, self.words[i])

    def __iter__(self) -> Iterator[HashCode]:
        for row in self.words:
            yield HashCode(self.k, row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _CodeRows):
            return self.k == other.k and bool(np.array_equal(self.words, other.words))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Count of differing bit positions, via XOR and popcount."""
    if a.k != b.k:
        raise LengthMismatchError(f"code lengths differ: {a.k} vs {b.k}")
    return xor_popcount(a.words, b.words)


def _distances(query: HashCode, items: CodeSet) -> np.ndarray:
    if query.k != items.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {items.k}")
    if items.words.shape[1] == 1:
        # uint16, not uint8: np.partition is slow on 8-bit keys
        return np.bitwise_count(items.words[:, 0] ^ query.words[0]).astype(np.uint16)
    return np.bitwise_count(np.bitwise_xor(items.words, query.words)).sum(axis=1).astype(np.int64)


def _within(query: HashCode, items: CodeSet, cand: np.ndarray, r: int) -> list[tuple[int, int]]:
    """The candidate positions within distance r, as sorted (position, distance) pairs."""
    d = np.bitwise_count(np.bitwise_xor(items.words[cand], query.words)).sum(axis=1)
    keep = d <= r
    cand, d = cand[keep], d[keep]
    order = np.lexsort((cand, d))
    return [(int(p), int(dd)) for p, dd in zip(cand[order], d[order])]


def _topk_positions(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys; ties resolved by ascending position.

    Uses a partition to find the k-th order statistic, takes everything
    strictly below it plus the lowest-position holders of the boundary
    value, then orders that small candidate set.  Avoids a full sort so
    per-query cost stays near the distance computation itself.
    """
    n = keys.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), keys))
    kth = np.partition(keys, k - 1)[k - 1]
    smaller = np.flatnonzero(keys < kth)
    equal = np.flatnonzero(keys == kth)
    cand = np.concatenate([smaller, equal[: k - smaller.size]])
    return cand[np.lexsort((cand, keys[cand]))]


# ---------------------------------------------------------------------------
# Hamming-ball mask enumeration


def ball_size(k: int, r: int) -> int:
    """Number of codes within Hamming distance r of a k-bit code."""
    return sum(math.comb(k, d) for d in range(min(r, k) + 1))


_BALL_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _layer_masks(k: int, d: int, nw: int, memo: dict) -> np.ndarray:
    """All (C(k, d), nw) word masks with exactly d set bits among the low k."""
    key = (k, d)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if d == 0:
        out = np.zeros((1, nw), dtype=np.uint64)
    else:
        chunks = []
        for p in range(d - 1, k):
            lower = _layer_masks(p, d - 1, nw, memo).copy()
            lower[:, p // 64] |= np.uint64(1 << (p % 64))
            chunks.append(lower)
        out = np.concatenate(chunks)
    memo[key] = out
    return out


def _ball_masks(k: int, r: int) -> np.ndarray:
    """XOR masks for the whole Hamming ball of radius r, cached per (k, r)."""
    cached = _BALL_CACHE.get((k, r))
    if cached is None:
        nw = words_per_code(k)
        memo: dict = {}
        cached = np.concatenate([_layer_masks(k, d, nw, memo) for d in range(r + 1)])
        _BALL_CACHE[(k, r)] = cached
    return cached


def _row_keys(words: np.ndarray) -> np.ndarray:
    """View each word row as one fixed-width byte string for sorted lookup."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return words.view(np.dtype((np.bytes_, words.shape[1] * 8))).ravel()


class HashIndex:
    """Exact-code hash table over a CodeSet.

    Stored as the sorted unique code keys plus slice offsets into a
    position array grouped by code, so a batch of probe keys resolves
    with one vectorized searchsorted instead of millions of dict hits.
    """

    def __init__(self, items: CodeSet):
        self.items = items
        self.k = items.k
        self._build(items.words)

    @classmethod
    def _over_words(cls, words: np.ndarray, k: int) -> "HashIndex":
        """A table over bare word rows, whose positions are row numbers."""
        index = cls.__new__(cls)
        index.items = None
        index.k = k
        index._build(words)
        return index

    def _build(self, words: np.ndarray) -> None:
        keys = _row_keys(words)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate([[0], boundaries])
        self.unique_keys = sorted_keys[starts]
        self.bucket_starts = starts
        self.bucket_ends = np.concatenate([boundaries, [len(keys)]])
        self.positions_by_key = order

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy of every non-empty bucket, for diagnostics."""
        return self.bucket_ends - self.bucket_starts

    def probe(self, probe_words: np.ndarray) -> list[int]:
        """Positions of all items whose code equals any probed word row."""
        keys = _row_keys(probe_words)
        idx = np.searchsorted(self.unique_keys, keys)
        idx = np.minimum(idx, len(self.unique_keys) - 1)
        hits = np.flatnonzero(self.unique_keys[idx] == keys)
        found: list[int] = []
        for h in hits:
            b = idx[h]
            found.extend(self.positions_by_key[self.bucket_starts[b] : self.bucket_ends[b]])
        return found


def build_index(items: CodeSet) -> HashIndex:
    """A fresh table over items; CodeSet.index() reuses one instead."""
    return HashIndex(items)


class MultiIndex:
    """One hash table per contiguous code substring.

    The k bits are split into m contiguous spans whose lengths differ by
    at most one; concatenating the spans reproduces the original code.
    Each span gets its own exact-match table over the items' packed
    sub-words.
    """

    def __init__(self, items: CodeSet, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > items.k:
            raise ValueError(f"cannot split {items.k} bits into {m} non-empty substrings")
        self.items = items
        self.k = items.k
        self.m = m
        base, extra = divmod(items.k, m)
        lengths = [base + 1 if s < extra else base for s in range(m)]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        self.boundaries = [(int(bounds[s]), int(bounds[s + 1])) for s in range(m)]
        bits = unpack_bit_matrix(items.words, items.k)
        self.sub_words: list[np.ndarray] = []
        self.sub_indices: list[HashIndex] = []
        for lo, hi in self.boundaries:
            sw = pack_bit_matrix(bits[:, lo:hi])
            self.sub_words.append(sw)
            self.sub_indices.append(HashIndex._over_words(sw, hi - lo))


def build_multi_index(items: CodeSet, m: int) -> MultiIndex:
    """Fresh substring tables over items; CodeSet.multi_index(m) reuses them."""
    return MultiIndex(items, m)


# ---------------------------------------------------------------------------
# Search operations


def _check_radius(k: int, r: int) -> None:
    if not 0 <= r <= k:
        raise ValueError(f"radius must be in [0, {k}], got {r}")


def radius_search(query: HashCode, items: CodeSet, r: int) -> list[tuple[int, int]]:
    """All (position, distance) pairs at distance <= r, by linear scan.

    Output is sorted by (distance, position) so results are stable
    across runs and directly comparable with the lookup paths.
    """
    _check_radius(items.k, r)
    d = _distances(query, items)
    within = np.flatnonzero(d <= r)
    order = within[np.lexsort((within, d[within]))]
    return [(int(p), int(d[p])) for p in order]


def lookup_search(query: HashCode, index: HashIndex, r: int) -> list[int]:
    """Positions found by probing every bucket in the Hamming ball.

    Enumerates all codes within distance r of the query and probes the
    table for each; equivalent to radius_search as a set.  Refuses when
    the ball exceeds MAX_LOOKUP_PROBES codes, since the linear scan is
    strictly cheaper from there.

    Returns positions in ascending order.
    """
    if query.k != index.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {index.k}")
    _check_radius(index.k, r)
    n_probes = ball_size(index.k, r)
    if n_probes > MAX_LOOKUP_PROBES:
        raise BallTooLargeError(
            f"radius {r} over {index.k} bits means {n_probes} bucket probes "
            f"(> {MAX_LOOKUP_PROBES}); use radius_search instead"
        )
    masks = _ball_masks(index.k, r)
    probe_words = np.bitwise_xor(masks, query.words)
    return sorted(index.probe(probe_words))


def multi_index_search(
    query: HashCode, mi: MultiIndex, items: CodeSet, r: int
) -> list[tuple[int, int]]:
    """Radius search via substring tables; equals radius_search as a set.

    Any code within distance r of the query differs from it by at most
    floor(r/m) bits in at least one of the m substrings (pigeonhole), so
    probing every table within that smaller radius cannot miss.  The
    candidate union is then verified against the full distance.
    """
    if items is not mi.items and not np.array_equal(items.words, mi.items.words):
        raise ValueError("multi-index was built over a different CodeSet")
    if query.k != mi.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {mi.k}")
    _check_radius(mi.k, r)
    sub_r = r // mi.m
    query_bits = unpack_bit_matrix(query.words[None, :], mi.k)[0]
    candidates: set[int] = set()
    for s, (lo, hi) in enumerate(mi.boundaries):
        sub_len = hi - lo
        sub_query = pack_bit_matrix(query_bits[None, lo:hi])[0]
        masks = _ball_masks(sub_len, min(sub_r, sub_len))
        probe_words = np.bitwise_xor(masks, sub_query)
        candidates.update(mi.sub_indices[s].probe(probe_words))
    cand = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
    return _within(query, items, cand, r)


def hamming_rank_topk(query: HashCode, items: CodeSet, k: int) -> list[tuple[int, int]]:
    """The k nearest (position, distance) pairs, nearest first.

    Ties are broken by ascending position; asking for more than the set
    holds returns the full ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = _distances(query, items)
    top = _topk_positions(d, k)
    return [(int(p), int(d[p])) for p in top]


def realvalued_topk(
    query: np.ndarray, items: np.ndarray | Sequence[np.ndarray], k: int
) -> list[tuple[int, float]]:
    """The k highest-scoring (position, dot product) pairs, best first.

    The score of item j is <query, items[j]>; ties are broken by
    ascending position, and k beyond the item count returns everything.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    mat = np.asarray(items, dtype=np.float64)
    if mat.ndim != 2 or query.ndim != 1 or mat.shape[1] != query.shape[0]:
        raise LengthMismatchError("query and item vectors must share one length")
    scores = mat @ query
    top = _topk_positions(-scores, k)
    return [(int(p), float(scores[p])) for p in top]


def recommend(
    query,
    items,
    method: str = "rank",
    *,
    top_k: int = 10,
    radius: int = 1,
    subcodes: int = 2,
    exclude: Collection[int] = (),
) -> list[tuple[object, float]]:
    """Uniform recommendation facade over the search operations.

    method selects the engine: "linear" (radius_search), "lookup"
    (ball-probing hash lookup), "multi-index", "rank" (Hamming top-k)
    or "real" (dot-product top-k over factor vectors).  For the hash
    methods ``items`` is a CodeSet and the score is a Hamming distance;
    for "real" it is a matrix of item vectors and the score is a dot
    product.  Positions in ``exclude`` (a user's training items) are
    dropped before the list is cut to ``top_k`` entries, and positions
    are translated to external ids when the CodeSet carries any.
    """
    excluded = set(exclude)

    if method in ("linear", "lookup", "multi-index"):
        if method == "linear":
            scored = radius_search(query, items, radius)
        elif method == "lookup":
            hits = np.array(lookup_search(query, items.index(), radius), dtype=np.int64)
            scored = _within(query, items, hits, radius)
        else:
            scored = multi_index_search(query, items.multi_index(subcodes), items, radius)
    elif method == "rank":
        scored = hamming_rank_topk(query, items, top_k + len(excluded))
    elif method == "real":
        scored = realvalued_topk(query, items, top_k + len(excluded))
    else:
        raise ValueError(f"unknown method {method!r}")

    kept = [(p, s) for p, s in scored if p not in excluded][:top_k]
    if isinstance(items, CodeSet):
        return [(items.ids[p], float(s)) for p, s in kept]
    return [(p, float(s)) for p, s in kept]
