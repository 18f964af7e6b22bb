"""Hamming-space retrieval over packed binary codes.

Four ways to answer "which items are near this code": a linear scan
within a radius, a hash-table lookup over the Hamming ball around the
query, multi-index lookup over code substrings, and exact top-k ranking
by distance.  The table engines of ``recommend`` walk the ball one
Hamming layer (the codes at distance exactly d) at a time, so each hit's
distance is its layer.  Excluded positions are dropped as each layer
is read: ``lookup`` reads layers 0..r until it has its top-k hits
outside the exclusions, and ``rank`` reads layers until it has k such
items on large sets, scanning every code instead on small sets.  Layer
0 is the query's own bucket, read in place as one slice of the table;
each further layer's XOR masks are built once and cached read-only, and
a whole ball is its layers in turn.  A code of up to 64 bits is probed
as its one word: a layer is its cached 1-D masks XORed with the word,
searched as it is, and ``lookup_search`` and each multi-index sub-table
probe a cached 1-D ball.  Longer codes are probed as word rows.  A
real-valued dot-product ranker is kept alongside as the timing
baseline.  ``evaluate`` ranks blocks of users in both orders through
this module's block ranker, so serving and evaluation share them.

The linear scan and rank's deeper layers read codes by popcount class.
Since |pop(a) - pop(b)| <= d(a, b) and d(a, b) = pop(a) + pop(b)
(mod 2), only the classes within r of the query's popcount can hold a
code within radius r, and layer d lies in the classes at d, d - 2, ...
from it (Swamidass and Baldi, J. Chem. Inf. Model. 2007).  ``linear``
scans one slice of the codes sorted by popcount.  ``rank`` on a large
set probes each layer while that costs less than reading its classes
(worked out once per set for each query popcount, not per request),
then reads each further layer from its classes, scanning each class at
most once per request; when those reads would pass half of the set, it
ranks the whole set at once, scanning only the classes not yet read.
So the answer is always exact and never costs a second scan.

A CodeSet stores its codes as one read-only matrix of packed uint64
words; indexing or iterating the set builds each HashCode from its row
on access.  A set of codes of up to 32 bits also keeps a read-only
uint32 copy of its words, which every scan reads at half the bytes.
Each set sorts a copy of those scan words by popcount on the first scan
that needs it (about 2 ms for 200k codes), never when it is built or
loaded.
One kernel, ``core.xor_popcount``, computes every distance a word column
at a time, so per-pair cost depends on the word count, not the bit
count.  Both table types are built over a word matrix and its code
length, never over the set, so a table does not keep its set alive.
Each CodeSet builds its lookup table and its multi-index tables once, on
first use by ``recommend``, and reuses them afterwards; ``build_index``
and ``build_multi_index`` always build afresh.  A table is built by one
sort of its keys, which for keys of up to 64 bits, row number included,
is ``np.sort`` of packed key-and-position words; the multi-index
sub-words are cut from the code words by shift and mask, and each query
is split the same way.  For 200k codes at k=32 the lookup table takes
about 4 ms and the two multi-index tables (m=2) about 11 ms.  Indices
are immutable once built, their arrays read-only; every query path is
read-only and safe to run concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections.abc import Collection, Iterator, Sequence
from itertools import filterfalse, islice, repeat

import numpy as np

from cohash.core import (
    HashCode,
    LengthMismatchError,
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

    The codes live in ``words``, a read-only (N, ceil(k/64)) uint64
    matrix; for k <= 32 the scans read a read-only (N, 1) uint32 copy.
    The set is the sequence of its codes: ``codeset[i]`` and iteration
    build each :class:`HashCode` on access.
    Because the words cannot change, the lookup and multi-index tables
    that :meth:`index` and :meth:`multi_index` build over them on first
    use stay valid for the life of the set, as does the copy of the scan
    words sorted by popcount that ``radius_search`` and ``rank`` build
    on first use, in the same cache.
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
        n = words.shape[0]
        if ids is None:
            self.ids = list(range(n))
        else:
            self.ids = list(ids)
            if len(self.ids) != n:
                raise ValueError("ids and codes must have equal length")
        # the words every full scan reads: for k <= 32 a read-only uint32
        # copy, half the bytes.  Over 200k codes a uint32 XOR took 30 us
        # against 125 us for uint64, whose input and output (1.6 MB each)
        # overflow a 2 MB L2; popcount took 82 against 92 us.  Not the
        # narrowest type: a uint16 popcount took 244 us (one Xeon core,
        # numpy 2.4)
        self._scan_words = words.astype(np.uint32) if k <= 32 else words
        self._scan_words.flags.writeable = False
        self._tables: dict = {}
        self._tables_lock = threading.Lock()

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, i: int) -> HashCode:
        # an int only: a slice or an index array would give a 2-d "row"
        return HashCode._trusted(self.k, self.words[operator.index(i)])

    def __iter__(self) -> Iterator[HashCode]:
        for row in self.words:
            yield HashCode._trusted(self.k, row)

    @property
    def codes(self) -> "CodeSet":
        """The set itself, for callers that read ``users.codes[u]``."""
        return self

    def index(self) -> "HashIndex":
        """The exact-code table over this set, built on first call."""
        return self._table("index", lambda: HashIndex(self.words, self.k))

    def multi_index(self, m: int) -> "MultiIndex":
        """The m-substring tables over this set, built on first call per m."""
        return self._table(("multi", m), lambda: MultiIndex(self.words, self.k, m))

    def _bands(self) -> "_Bands":
        """The scan words sorted by popcount, built on first call."""
        return self._table("bands", lambda: _Bands(self._scan_words, self.k))

    def _table(self, key, build):
        # a built table is read without the lock; one lock per set makes
        # a second first caller wait for the build instead of repeating it
        table = self._tables.get(key)
        if table is None:
            with self._tables_lock:
                table = self._tables.get(key)
                if table is None:
                    table = self._tables[key] = build()
        return table

    def _scan_query(self, query: HashCode) -> np.ndarray:
        """The query's words in the dtype of ``_scan_words``."""
        return query.words.astype(self._scan_words.dtype, copy=False)


class _Bands:
    """A set's scan words sorted by popcount, for scans that read only
    the popcount classes that can hold an answer.

    ``words`` are the scan words in that order (in the scan dtype),
    ``order`` the position of each row, ``sizes`` the size of each
    popcount class and ``starts`` a list of k + 2 offsets: class c, the
    codes with c set bits, is rows ``starts[c]:starts[c + 1]``, in
    ascending position.  Since |pop(a) - pop(b)| <= d(a, b) and
    d(a, b) = pop(a) + pop(b) (mod 2), the codes within distance r of a
    query lie in the classes within r of its popcount, and those at
    distance exactly d in the classes at d, d - 2, ... from it.
    """

    def __init__(self, scan_words: np.ndarray, k: int):
        pop = xor_popcount(scan_words, np.zeros_like(scan_words[0]))
        self.order = pop.argsort(kind="stable")
        self.words = scan_words[self.order]
        self.sizes = np.bincount(pop, minlength=k + 1).tolist()
        self.starts = [0, *itertools.accumulate(self.sizes)]
        for a in (self.order, self.words):
            a.flags.writeable = False
        self._probed: dict[tuple[int, int], int] = {}

    def probed_layers(self, q: int) -> int:
        """How many layers past 0 ``rank`` probes for a query of popcount
        q: layer d while C(k, d) * ``_PROBE_COST`` is below the codes in
        the classes at d, d - 2, ... from q.  Worked out once per cost
        and popcount, so a request reads it from a dict."""
        key = (_PROBE_COST, q)
        probed = self._probed.get(key)
        if probed is None:
            k, probed = len(self.sizes) - 1, 0
            while probed < k and (_layer_size(k, probed + 1) * _PROBE_COST
                                  < sum(self.sizes[_layer_classes(q, probed + 1, k)])):
                probed += 1
            self._probed[key] = probed
        return probed


def _layer_classes(q: int, d: int, k: int) -> slice:
    """The popcount classes that can hold codes at distance d from a
    k-bit code of popcount q: q - d, q - d + 2, ..., q + d within [0, k]."""
    return slice(q - d if d <= q else (d - q) % 2, min(q + d, k) + 1, 2)


def _popcount(query: HashCode) -> int:
    """The set bits of the query's code."""
    return sum(map(int.bit_count, query.words.tolist()))


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Count of differing bit positions, via XOR and popcount."""
    if a.k != b.k:
        raise LengthMismatchError(f"code lengths differ: {a.k} vs {b.k}")
    return int(xor_popcount(a.words, b.words))


def _distances(query: HashCode, items: CodeSet) -> np.ndarray:
    if query.k != items.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {items.k}")
    return xor_popcount(items._scan_words, items._scan_query(query))


def _by_distance(pos: np.ndarray, d: np.ndarray) -> list[tuple[int, int]]:
    """Distinct positions and their distances as (position, distance)
    pairs in (distance, position) order."""
    order = np.lexsort((pos, d))
    return list(zip(pos[order].tolist(), d[order].tolist()))


def _topk_positions(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys; ties resolved by ascending position.

    Uses a partition to find the k-th order statistic, takes everything
    strictly below it plus the lowest-position holders of the boundary
    value, then orders that small candidate set.  Avoids a full sort so
    per-query cost stays near the distance computation itself.  Raises
    ValueError when a NaN would be returned, which no comparison ranks.
    """
    if k >= keys.shape[0]:
        top = keys.argsort(kind="stable")
        # the sort puts NaN last
        if top.size and np.isnan(keys[top[-1]]):
            raise ValueError(f"non-finite scores: {np.isnan(keys).sum()} of the top "
                             f"{top.size} cannot be ranked")
        return top
    # array methods, not np.* wrappers: top-95 of 1,682 keys took 27 us
    # with the wrappers and 14-19 us without (one Xeon core, numpy 2.4)
    kth = np.partition(keys, k - 1)[k - 1]
    smaller = (keys < kth).nonzero()[0]
    equal = (keys == kth).nonzero()[0]
    cand = np.concatenate([smaller, equal[: k - smaller.size]])
    if cand.size < k:
        raise ValueError(f"non-finite scores: {k - cand.size} of the top {k} cannot be ranked")
    return cand[np.lexsort((cand, keys[cand]))]


_BOUND_ROWS = 16


def _top_scored(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The k (position, score) pairs of highest score, best first and
    ties by ascending position, as ``_topk_positions(-scores, k)`` ranks.

    Once at least k scores are at or above some bound, the answer and
    every score tied with its last are among them, so only those are
    sorted.  The bound is the k-th largest column maximum of the scores
    seen as a (16, n // 16) matrix, which about k scores reach when ties
    are few and k is well below the column count.  Fewer than 2k
    columns, fewer than k scores at the bound (a NaN bound) or many ties
    fall back to the partition of all n scores.  The bounded path makes
    no n-length float array besides the scores: each one is a fresh
    allocation, which over 17,770 items measured about 35 page faults
    per query.
    """
    cols = scores.shape[0] // _BOUND_ROWS
    if cols >= 2 * k:
        maxs = scores[: _BOUND_ROWS * cols].reshape(_BOUND_ROWS, cols).max(axis=0)
        maxs.partition(cols - k)
        cand = (scores >= maxs[cols - k]).nonzero()[0]
        if k <= cand.size <= 4 * k:
            pairs = zip(cand.tolist(), scores[cand].tolist())
            return sorted(pairs, key=lambda pair: -pair[1])[:k]
    top = _topk_positions(-scores, k)
    return list(zip(top.tolist(), scores[top].tolist()))


def _block_topk(
    users, items, rows: np.ndarray, seen_rows: np.ndarray, seen_cols: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each user in ``rows``, the first min(k, N) item positions in
    the order of ``hamming_rank_topk`` (two CodeSets) or
    ``realvalued_topk`` (two factor matrices), and whether each is not
    seen; seen items, (row, position) pairs, rank last by position.

    A Hamming key, distance * N + position, holds the tie-break and the
    position, so a block is ranked by value: one partition, one sort.
    Real scores, ``items @ user`` per row, go through ``_top_scored``.
    """
    n = len(items)
    width = min(k, n)
    if isinstance(items, CodeSet):
        keys = xor_popcount(items._scan_words[None], users._scan_words[rows][:, None])
        keys = keys.astype(np.int64)
        keys *= n
        keys += np.arange(n)
        seen = (items.k + 1) * n  # above every distance's keys
        keys[seen_rows, seen_cols] = seen + seen_cols
        if width < n:
            keys.partition(width - 1, axis=1)
        top_keys = np.sort(keys[:, :width], axis=1)
        return top_keys % n, top_keys < seen
    scores = np.empty((rows.shape[0], n))
    for row, u in enumerate(rows):
        scores[row] = items @ users[u]
    scores[seen_rows, seen_cols] = -np.inf
    top = np.array([[p for p, _ in _top_scored(s, width)] for s in scores], dtype=np.int64)
    return top, np.take_along_axis(scores, top, axis=1) != -np.inf


# ---------------------------------------------------------------------------
# Hamming-ball mask enumeration


def ball_size(k: int, r: int) -> int:
    """Number of codes within Hamming distance r of a k-bit code."""
    return sum(math.comb(k, d) for d in range(min(r, k) + 1))


_LAYER_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _layer_masks(k: int, d: int, nw: int) -> np.ndarray:
    """Hamming layer d of k bits: the read-only (C(k, d), nw) word masks
    with exactly d set bits among the low k, cached per (k, d, nw).

    Masks are grouped by their highest set bit p, ascending, so group p
    is the first C(p, d - 1) masks of layer (k - 1, d - 1) with bit p set.
    """
    key = (k, d, nw)
    out = _LAYER_CACHE.get(key)
    if out is None:
        if d == 0:
            out = np.zeros((1, nw), dtype=np.uint64)
        else:
            lower = _layer_masks(k - 1, d - 1, nw)
            chunks = []
            for p in range(d - 1, k):
                chunk = lower[: math.comb(p, d - 1)].copy()
                chunk[:, p // 64] |= np.uint64(1 << (p % 64))
                chunks.append(chunk)
            out = np.concatenate(chunks)
        out.flags.writeable = False
        _LAYER_CACHE[key] = out
    return out


@functools.cache
def _layer_keys(k: int, d: int) -> np.ndarray:
    """Hamming layer d of k <= 64 bits as one uint64 mask per code, the
    probe keys of a one-word query: a read-only 1-D view of
    ``_layer_masks(k, d, 1)``, cached."""
    return _layer_masks(k, d, 1)[:, 0]


def _ball_masks(k: int, r: int) -> np.ndarray:
    """XOR masks for the whole Hamming ball of radius r: its layers in turn."""
    return np.concatenate([_layer_masks(k, d, words_per_code(k)) for d in range(r + 1)])


@functools.lru_cache(maxsize=64)
def _ball_keys(k: int, r: int) -> np.ndarray:
    """The Hamming ball of radius r over k <= 64 bits as one uint64 mask
    per code, its layers in turn, cached read-only: the whole probe of a
    one-word ``lookup_search`` or multi-index sub-table."""
    ball = np.concatenate([_layer_keys(k, d) for d in range(r + 1)])
    ball.flags.writeable = False
    return ball


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per word row: the word itself for one-word rows,
    else the row viewed as one fixed-width byte string.

    A uint64 key searches about four times faster than an 8-byte string
    (19 against 83 us for 529 keys into 95k).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape[1] == 1:
        return words[:, 0]
    return words.view(np.dtype((np.bytes_, words.shape[1] * 8))).ravel()


class HashIndex:
    """Exact-code hash table over rows of k-bit code words.

    Stored as the sorted unique code keys plus slice offsets into a
    position array grouped by code, so a batch of probe keys resolves
    with one vectorized searchsorted instead of millions of dict hits.
    A position is a row number of the words the table was built over.

    Built by one sort, which orders the buckets by key and each bucket
    by ascending position.  When a key and a position fit one 64-bit
    word together (k + ceil(log2 N) <= 64) that is ``np.sort`` of the
    words ``key << b | position``, read back by shift and mask: 4 ms
    for 200k codes at k=32, where a stable argsort of the keys takes
    30 ms.  Wider keys (k=64 from two rows on, and every multi-word
    code) take the stable argsort.
    """

    def __init__(self, words: np.ndarray, k: int):
        self.k = k
        keys = _row_keys(words)
        n = keys.shape[0]
        b = (n - 1).bit_length()  # bits that hold every position
        if k + b <= 64:  # a one-word key and its position fit one word
            # np.sort of 200k uint64 words took 2.3 ms, where the default
            # argsort of the keys took 7.0 ms and the stable one 29.5 ms
            # (one Xeon core with AVX-512, numpy 2.4, whose sort is
            # vectorized for uint64); an argsort also needs the keys
            # gathered again in sorted order
            sorted_keys = keys << np.uint64(b)
            sorted_keys |= np.arange(n, dtype=np.uint64)
            sorted_keys.sort()
            self.positions_by_key = (sorted_keys & np.uint64((1 << b) - 1)).view(np.int64)
            sorted_keys >>= np.uint64(b)
        else:
            self.positions_by_key = np.argsort(keys, kind="stable")
            sorted_keys = keys[self.positions_by_key]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        self.bucket_starts = np.concatenate([[0], boundaries])
        self.unique_keys = sorted_keys[self.bucket_starts]
        self.bucket_ends = np.concatenate([boundaries, [len(keys)]])
        # read-only, as queries hand out slices of positions_by_key
        for a in (self.positions_by_key, self.unique_keys, self.bucket_starts, self.bucket_ends):
            a.flags.writeable = False
        # a search of all keys but the last gives an index in range; a
        # probe past the last key then fails the equality test
        self._search_keys = self.unique_keys[:-1]

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy of every non-empty bucket, for diagnostics."""
        return self.bucket_ends - self.bucket_starts

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Positions of all items whose code equals any probed code.

        ``keys`` holds the codes as word rows, a (P, ceil(k/64)) uint64
        matrix, or for codes of up to 64 bits as a 1-D uint64 array of
        their one word each, which is searched as it is.  The answer is
        an int64 array holding the hit buckets one after another, in
        probe order; a bucket probed twice is returned twice.  No hit,
        or one hit bucket, is a read-only slice of the table; more are
        gathered into a fresh array.
        """
        # array methods, not np.* wrappers: a query makes several small
        # probes, and the wrappers cost more than the work at this size
        if keys.ndim == 2:
            keys = _row_keys(keys)
        idx = self._search_keys.searchsorted(keys)
        hit = idx[self.unique_keys[idx] == keys]
        # no hit, or one bucket, as a slice of the table: in serve-200k's
        # request mix this took the p50 from 25.2-26.8 to 23.1-25.2 us
        # (catalog seeds 7, 3 and 51, one pinned CPU)
        if not hit.shape[0]:
            return self.positions_by_key[:0]
        if hit.shape[0] == 1:
            i = hit[0]
            return self.positions_by_key[self.bucket_starts[i]:self.bucket_ends[i]]
        ends = self.bucket_ends[hit]
        sizes = ends - self.bucket_starts[hit]
        # output entry j, in the bucket whose first entry is output
        # entry o, reads slot start + (j - o), and start + size = end
        shift = (ends - sizes.cumsum()).repeat(sizes)
        shift += np.arange(shift.shape[0])
        return self.positions_by_key[shift]


def build_index(items: CodeSet) -> HashIndex:
    """A fresh table over items; CodeSet.index() reuses one instead."""
    return HashIndex(items.words, items.k)


class MultiIndex:
    """One hash table per contiguous substring of rows of k-bit code words.

    The k bits are split into m contiguous spans whose lengths differ by
    at most one; concatenating the spans reproduces the original code.
    Each span gets its own exact-match table over the items' packed
    sub-words.

    Every word of a span's sub-words is cut from the code words by a
    shift, an or and a mask, planned once per table; the same plan
    splits each query.  For 200k codes at k=32 and m=2 the two tables
    take 11 ms to build, where unpacking the codes to bits and packing
    each span took 110 ms.
    """

    def __init__(self, words: np.ndarray, k: int, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > k:
            raise ValueError(f"cannot split {k} bits into {m} non-empty substrings")
        self.words = words
        self.k = k
        self.m = m
        base, extra = divmod(k, m)
        bounds = [s * base + min(s, extra) for s in range(m + 1)]
        self.boundaries = list(zip(bounds, bounds[1:]))
        # the split plan: sub-word j of span [lo, hi) holds code bits
        # p = lo + 64 j up to e = min(p + 64, hi), which are word p // 64
        # shifted right by p % 64, the next word shifted left by the
        # rest, and a mask of e - p bits
        pieces = [(p, min(p + 64, hi)) for lo, hi in self.boundaries for p in range(lo, hi, 64)]
        self._word = np.array([p // 64 for p, _ in pieces])
        self._next = np.minimum(self._word + 1, words_per_code(self.k) - 1)
        self._shift = np.array([[p % 64] for p, _ in pieces], dtype=np.uint64)
        self._carry = np.uint64(64) - self._shift
        self._mask = np.array([[(1 << (e - p)) - 1] for p, e in pieces], dtype=np.uint64)
        ends = np.cumsum([words_per_code(hi - lo) for lo, hi in self.boundaries]).tolist()
        self._span_rows = list(zip([0] + ends, ends))
        # a one-word code's span [lo, hi) is the word shifted right by lo
        # and masked to hi - lo bits
        self._cuts = [(lo, (1 << (hi - lo)) - 1) for lo, hi in self.boundaries]
        spans = zip(self._split(words), self.boundaries)
        self.sub_indices = [HashIndex(sw, hi - lo) for sw, (lo, hi) in spans]

    def _split(self, words: np.ndarray) -> list[np.ndarray]:
        """Each span of the (N, nw) code words, packed as its own word rows."""
        # one row of N per sub-word.  NumPy shifts by 64 to 0, so a piece
        # on a word boundary takes nothing from the next word; the mask
        # drops bits carried in from past the piece's end, as when the
        # last word stands in as its own next word
        cols = words.T
        sub = cols[self._word] >> self._shift
        sub |= cols[self._next] << self._carry
        sub &= self._mask
        return [sub[a:b].T for a, b in self._span_rows]

    def _split_word(self, word: int) -> list[int]:
        """Each span of a code of up to 64 bits, given as its one word."""
        return [word >> lo & mask for lo, mask in self._cuts]


def build_multi_index(items: CodeSet, m: int) -> MultiIndex:
    """Fresh substring tables over items; CodeSet.multi_index(m) reuses them."""
    return MultiIndex(items.words, items.k, m)


# ---------------------------------------------------------------------------
# Search operations


def _check_query(query: HashCode, k: int, r: int, max_probes: int | None = None) -> None:
    """Refuse a query of another length than k, r outside [0, k], or a
    Hamming ball of more than max_probes codes when that is given."""
    if query.k != k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {k}")
    if not 0 <= r <= k:
        raise ValueError(f"radius must be in [0, {k}], got {r}")
    if max_probes is not None and (n_probes := ball_size(k, r)) > max_probes:
        raise BallTooLargeError(
            f"radius {r} over {k} bits means {n_probes} bucket probes "
            f"(> {max_probes}); use radius_search instead"
        )


def radius_search(query: HashCode, items: CodeSet, r: int) -> list[tuple[int, int]]:
    """All (position, distance) pairs at distance <= r, by linear scan.

    Only the codes whose popcount is within r of the query's can be in
    reach, so the scan reads one slice of the set's codes sorted by
    popcount (about half of a 200k-code K=32 catalog at r=2), built on
    the set's first scan.  Output is sorted by (distance, position) so
    results are stable across runs and directly comparable with the
    lookup paths.
    """
    _check_query(query, items.k, r)
    bands, q = items._bands(), _popcount(query)
    lo, hi = bands.starts[max(q - r, 0)], bands.starts[min(q + r, items.k) + 1]
    d = xor_popcount(bands.words[lo:hi], items._scan_query(query))
    within = (d <= r).nonzero()[0]
    return _by_distance(bands.order[lo:hi][within], d[within])


def lookup_search(query: HashCode, index: HashIndex, r: int) -> list[int]:
    """Ascending positions found by probing every bucket in the Hamming ball.

    Probes the table once with all codes within distance r of the query;
    equivalent to radius_search as a set.  Refuses when the ball exceeds
    MAX_LOOKUP_PROBES codes, since the linear scan is strictly cheaper
    from there.
    """
    _check_query(query, index.k, r, MAX_LOOKUP_PROBES)
    if index.k <= 64:
        keys = _ball_keys(index.k, r) ^ query.words[0]
    else:
        keys = np.bitwise_xor(_ball_masks(index.k, r), query.words)
    return np.sort(index.probe(keys)).tolist()


def multi_index_search(
    query: HashCode, mi: MultiIndex, items: CodeSet, r: int
) -> list[tuple[int, int]]:
    """Radius search via substring tables; equals radius_search.

    Any code within distance r of the query differs from it by at most
    floor(r/m) bits in at least one of the m substrings (pigeonhole), so
    probing every table within that smaller radius cannot miss.  The
    candidate union is then verified against the full distance.
    """
    if items.words is not mi.words and not np.array_equal(items.words, mi.words):
        raise ValueError("multi-index was built over a different CodeSet")
    _check_query(query, mi.k, r)
    # one probe of a whole sub-ball costs less than one per layer
    if mi.k <= 64:  # spans cut by shift and mask, probed with 1-D keys
        found = [table.probe(_ball_keys(table.k, min(r // mi.m, table.k)) ^ sub)
                 for table, sub in zip(mi.sub_indices, mi._split_word(int(query.words[0])))]
    else:
        found = [table.probe(np.bitwise_xor(_ball_masks(table.k, min(r // mi.m, table.k)), sub))
                 for table, sub in zip(mi.sub_indices, mi._split(query.words[None, :]))]
    # the union: sorting puts repeats side by side to be dropped (9 us
    # on 290 candidates, where np.unique took 30 us and a Python set 16)
    cand = np.sort(np.concatenate(found))
    d = xor_popcount(items._scan_words[cand], items._scan_query(query))
    keep = d <= r
    keep[1:] &= cand[1:] != cand[:-1]
    return _by_distance(cand[keep], d[keep])


def hamming_rank_topk(query: HashCode, items: CodeSet, k: int) -> list[tuple[int, int]]:
    """The k nearest (position, distance) pairs, nearest first.

    Ties are broken by ascending position; asking for more than the set
    holds returns the full ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = _distances(query, items)
    top = _topk_positions(d, k)
    return list(zip(top.tolist(), d[top].tolist()))


# The rank engine reads the lookup table only on sets of at least this
# many codes; smaller sets are scanned and never build a table for it.
# On K=32 codes scattered around 2,000 centres, top-30 requests took
# 300 us from the table against 260 us by scan at 65,536 codes, 240
# against 320 us at 81,920, and 115 against 500 us at 131,072 (one
# 2-CPU Xeon core, numpy 2.4).  Where the two cross depends on how
# densely codes cluster, which the size alone does not show.
_TABLE_MIN_ITEMS = 2**17

# One probe of the table costs about as much as scanning this many
# codes; rank probes a layer only while its probes cost less than the
# popcount classes that can hold it.  A layer-3 probe of a K=32 code
# (4,960 one-word keys) into serve-200k's 95k-key table took 31-45 ns
# a key warm and 35-49 ns inside the request mix, and reading layer 3
# from its classes 1.0-1.9 ns a code warm and 1.3-2.2 ns in the mix,
# ratios of 17-31 (host phases differ by half; one pinned Xeon core,
# numpy 2.4).  A probe this size costs the same as before keys were
# 1-D, so serve-200k's crossover did not move: its query popcounts
# (6-26) get the same layers probed at any cost from 30 to 37.
_PROBE_COST = 30

# A rank request whose class reads would pass this share of the set
# ranks the whole set instead, scanning only the classes not read yet.
# Layer by layer, the far layers of uniform codes compare every class
# read so far again: top-10 and top-30 requests over 200k uniform K=64
# codes took 787 and 870 us with no such bound, 525 and 538 us at
# three quarters and 456 and 478 us at a half, against 544 and 521 us
# for the probes and full scan this replaces (same host).
_BAND_SHARE = 0.5


def _layer(index: HashIndex, words: np.ndarray, d: int) -> np.ndarray:
    """Ascending positions of the items at distance exactly d from the code
    ``words``; layer 0, its own bucket, is a read-only slice of the table.
    A code of up to 64 bits is probed as its one word."""
    if d:
        if index.k <= 64:
            hits = index.probe(_layer_keys(index.k, d) ^ words[0])
        else:
            hits = index.probe(_layer_masks(index.k, d, words.shape[0]) ^ words)
        if hits.flags.writeable:  # several buckets, each ascending
            hits.sort()
        return hits
    key = words[0] if index.k <= 64 else _row_keys(words[None, :])[0]
    i = index._search_keys.searchsorted(key)  # see probe
    if index.unique_keys[i] != key:
        return index.positions_by_key[:0]
    return index.positions_by_key[index.bucket_starts[i]:index.bucket_ends[i]]


def _walk(layers, n: int, k: int, excluded: Collection[int]):
    """The first k (position, distance) pairs outside ``excluded`` from
    ``layers``, the ascending positions at distance 0, 1, ... in turn,
    in (distance, position) order, and the count of codes in the layers
    read, which stop at k pairs or once they hold all n codes."""
    top: list[tuple[int, int]] = []
    read = 0
    for d, hits in enumerate(layers):
        read += hits.shape[0]
        need = k - len(top)
        # the first need + len(excluded) hits hold need kept ones, if any
        kept = filterfalse(excluded.__contains__, hits[: need + len(excluded)].tolist())
        top.extend(zip(islice(kept, need), repeat(d)))
        if len(top) == k or read == n:
            break
    return top, read


def _rank_layers(query: HashCode, items: CodeSet, dists: dict):
    """The layers of ``query`` in ``items`` for ``_walk``: each probed in
    the set's table while that costs less than reading the popcount
    classes that can hold it (``_Bands.probed_layers``), and from then
    on read from those classes.

    Layer d lies in the classes at d, d - 2, ... from the query's
    popcount.  Each class is scanned once, into ``dists`` (class: the
    distances of its codes); the layers end early, leaving the rest to
    ``_rank_all``, once the classes read would pass ``_BAND_SHARE`` of
    the set.
    """
    index = items.index()
    # layer 0, the query's own bucket, is one slice: cheaper than a scan
    yield _layer(index, query.words, 0)
    bands, k, q = items._bands(), items.k, _popcount(query)
    probed = bands.probed_layers(q)
    for d in range(1, probed + 1):
        yield _layer(index, query.words, d)
    starts, sizes, read = bands.starts, bands.sizes, 0
    qw = items._scan_query(query)
    for d in range(probed + 1, k + 1):
        classes = [c for c in range(k + 1)[_layer_classes(q, d, k)] if sizes[c]]
        new = [c for c in classes if c not in dists]
        read += sum(sizes[c] for c in new)
        if read > _BAND_SHARE * len(items):
            return
        for c in new:
            dists[c] = xor_popcount(bands.words[starts[c]:starts[c + 1]], qw)
        yield np.sort(np.concatenate(
            [bands.order[:0], *(bands.order[starts[c]:starts[c + 1]][dists[c] == d]
                                for c in classes)]))


def _rank_all(query: HashCode, items: CodeSet, dists: dict, k: int,
              excluded: Collection[int]) -> list[tuple[int, int]]:
    """``hamming_rank_topk(query, items, k + len(excluded))`` without
    ``excluded``, cut to k, from the popcount classes: those in
    ``dists`` are not scanned again."""
    bands = items._bands()
    starts, qw = bands.starts, items._scan_query(query)
    pieces = []
    # the classes read, and each run of unread ones in one scan
    for read, run in itertools.groupby(range(len(starts) - 1), dists.__contains__):
        run = list(run)
        pieces += ([dists[c] for c in run] if read else
                   [xor_popcount(bands.words[starts[run[0]]:starts[run[-1] + 1]], qw)])
    d = np.concatenate(pieces)
    n, t = d.shape[0], k + len(excluded)
    cand = (d <= np.partition(d, t - 1)[t - 1]).nonzero()[0] if t < n else np.arange(n)
    # a (distance, position) key per candidate; ties at the cut are kept
    # by position
    keys = d[cand].astype(np.int64) * n + bands.order[cand]
    if t < keys.shape[0]:
        keys.partition(t - 1)
        keys = keys[:t]
    keys.sort()
    ranked = zip((keys % n).tolist(), (keys // n).tolist())
    return list(islice(((p, s) for p, s in ranked if p not in excluded), k))


def _table_topk(
    query: HashCode, items: CodeSet, k: int, excluded: Collection[int] = ()
) -> list[tuple[int, int]]:
    """The first k pairs of ``hamming_rank_topk(query, items, n)`` whose
    position is not in ``excluded``, read one Hamming layer at a time.

    Layer d holds the hits at distance exactly d, in ascending position,
    so reading layers in turn gives the (distance, position) order.
    Layers are read until k kept items are found or the layers read
    hold every code: probed in ``items.index()`` while a probe costs
    less, then read from the popcount classes (``_rank_layers``).  When
    those reads would pass ``_BAND_SHARE`` of the set, the set is ranked
    at once, scanning only the classes not yet read.
    """
    if query.k != items.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {items.k}")
    dists: dict = {}
    top, read = _walk(_rank_layers(query, items, dists), len(items), k, excluded)
    if len(top) == k or read == len(items):
        return top
    return _rank_all(query, items, dists, k, excluded)


@functools.lru_cache(maxsize=1024)
def _layer_size(k: int, d: int) -> int:
    """C(k, d): the probes of Hamming layer d of k bits."""
    return math.comb(k, d)


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
    return _top_scored(mat @ query, k)


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
    (ball-probing hash lookup), "multi-index", "rank" (exact Hamming
    top-k) or "real" (dot-product top-k over factor vectors).  For the
    hash methods ``items`` is a CodeSet and the score is a Hamming
    distance; for "real" it is a matrix of item vectors and the score
    is a dot product.  Positions in ``exclude`` (a user's training
    items, as any collection of ints or an integer array) are dropped
    from the ranked hits until ``top_k`` entries remain, and positions
    are translated to external ids when the CodeSet carries any.

    "rank" returns what hamming_rank_topk does.  On a large set it reads
    one Hamming-ball layer at a time, dropping excluded positions as it
    reads, and stops at ``top_k`` items outside ``exclude``: from the
    set's lookup table while a layer's probes cost less than scanning
    the popcount classes that can hold it, and from those classes after
    that; how many layers are probed is worked out once per set for
    each query popcount.  When those reads would pass half of the set it ranks the
    whole set, scanning only the classes it has not read.  On every
    small set it scans all codes, so a small set never builds the table.
    "lookup" reads layers from the table the same way, and "linear"
    scans only the popcount classes within ``radius`` of the query's.
    Layer 0, the query's own bucket, is read in place as one slice; a
    code of up to 64 bits probes every further layer, and each
    multi-index sub-table, with 1-D keys of one word each.
    """
    if top_k < 1:
        raise ValueError(f"k must be >= 1, got {top_k}")
    # Python ints hash faster than NumPy scalars, and positions are ints
    excluded = set(exclude.tolist() if isinstance(exclude, np.ndarray) else exclude)

    kept = None  # the answer, when the engine itself drops excluded hits
    if method == "linear":
        scored = radius_search(query, items, radius)
    elif method == "lookup":
        _check_query(query, items.k, radius, MAX_LOOKUP_PROBES)
        index = items.index()
        layers = (_layer(index, query.words, d) for d in range(radius + 1))
        kept, _ = _walk(layers, len(items), top_k, excluded)
    elif method == "multi-index":
        scored = multi_index_search(query, items.multi_index(subcodes), items, radius)
    elif method == "rank":
        if len(items) >= _TABLE_MIN_ITEMS:
            kept = _table_topk(query, items, top_k, excluded)
        else:
            scored = hamming_rank_topk(query, items, top_k + len(excluded))
    elif method == "real":
        scored = realvalued_topk(query, items, top_k + len(excluded))
    else:
        raise ValueError(f"unknown method {method!r}")

    if kept is None:
        kept = islice(((p, s) for p, s in scored if p not in excluded), top_k)
    if isinstance(items, CodeSet):
        return [(items.ids[p], float(s)) for p, s in kept]
    return [(p, float(s)) for p, s in kept]
