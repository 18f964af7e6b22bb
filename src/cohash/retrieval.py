"""Hamming-space retrieval over packed binary codes.

Four ways to answer "which items are near this code": a radius search by
linear scan (or, on large sets, one multi-index round), a hash-table
lookup over the Hamming ball around the query, multi-index lookup over
code substrings, and exact top-k ranking by distance.  The table engines
of ``recommend`` walk the ball one Hamming layer (the codes at distance
exactly d) at a time, so each hit's distance is its layer.  Excluded
positions are dropped as each layer is read: ``lookup`` reads layers
0..r until it has its top-k hits outside the exclusions, and ``rank``
reads layers until it has k such items on large sets, scanning every
code instead on small sets.  Layer 0 is the query's own bucket, read in
place as one slice of the table; each further layer's XOR masks are
built once and cached read-only, and a whole ball is its layers in turn.
A code of up to 64 bits is probed as its one word: a layer is its cached
1-D masks XORed with the word, searched as it is, and ``lookup_search``
and each multi-index sub-table probe a cached 1-D ball.  Longer codes
are probed as word rows.  A real-valued dot-product ranker is kept
alongside as the timing baseline.  ``evaluate`` ranks blocks of users in
both orders through this module's block ranker, so serving and
evaluation share them.

The linear scan and rank's deeper layers read codes by popcount class.
Since |pop(a) - pop(b)| <= d(a, b) and d(a, b) = pop(a) + pop(b)
(mod 2), only the classes within r of the query's popcount can hold a
code within radius r, and layer d lies in the classes at d, d - 2, ...
from it (Swamidass and Baldi, J. Chem. Inf. Model. 2007).  The classes
hold the lookup table's distinct codes, each with its bucket, so a scan
compares each distinct code once and reads out only the buckets that
hit.  ``linear`` scans one slice of the distinct codes sorted by
popcount, unless one multi-index round costs less (below).  ``rank`` on
a large set probes each layer while that costs less than reading its
classes (worked out once per set for each query popcount from the
codes in them, not per request), then reads each further layer from
its classes, scanning each class at most once per request; when those
reads would pass half of the distinct codes, it ranks the whole set at
once, scanning only the classes not yet read.
So the answer is always exact and never costs a second scan.

On codes of 17 to 64 bits, ``rank`` may read the layers past its probes
from multi-index rounds instead (Norouzi, Punjani and Fleet, CVPR
2012): the set's multi-index over m = ceil(k/16) spans, addressed
directly by the sub-key, finds every code within m(s + 1) - 1 after
sub-radius s with tens of keys where a layer-3 probe takes 4,960.  A set
plans the rounds once for each distance and query popcount, and takes
them only where the rounds that reach a uniform spread's t wanted codes
cost less than the band layers; a request whose rounds outgrow that
cost goes on with the band layers.  On a set large enough for
``rank`` to read its table, ``radius_search`` (so ``linear``) answers
radius r from one pigeonhole round at sub-radius floor(r/m) over the
same multi-index, where the rounds that complete layer r cost less than
its band slice: at serve-200k's r=2 that weighs 834 against about 50k
distinct codes and took 91 to 58 us a query, while r=8 keeps the scan
(one pinned Xeon core, numpy 2.4).  Smaller sets always scan and build
no multi-index for it.

A CodeSet stores its codes as one read-only matrix of packed uint64
words; indexing or iterating the set builds each HashCode from its row
on access.  A set of codes of up to 32 bits also keeps a read-only
uint32 copy of its words, which every scan reads at half the bytes.
One kernel, ``core.xor_popcount``, computes every distance a word
column at a time, so per-pair cost depends on the word count, not the
bit count; only ``_rank_all`` keeps 8-bit popcounts for one-word codes,
which it only compares with its cut.  Each set builds its lookup table,
its multi-index tables (one per m, so ``rank``'s rounds, the round of
``radius_search`` and the ``multi-index`` engine at m = ceil(k/16) read
one) and its distinct codes sorted by popcount once, on first use,
never when it is built or loaded; ``build_index`` and
``build_multi_index`` always build afresh.
For 200k codes at k=32 the lookup table takes about 4 ms, the bands
about 4 ms, and the multi-index at m=2 2.12 MB and about 5.6 ms.  The
lookup table is one sort of its keys, for keys of up to 64 bits, row
number included, ``np.sort`` of packed key-and-position words; the
multi-index cuts each code, and each query, by shift and mask.  Tables
are built over a word matrix and its code length, never over the set,
so a table does not keep its set alive.  Indices are immutable once
built, their arrays read-only; every query path is read-only and safe
to run concurrently.
"""

from __future__ import annotations

import bisect
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
    use stay valid for the life of the set, as do the table's distinct
    codes sorted by popcount that ``radius_search`` and ``rank`` build
    on first use, in the same cache.  ``rank``'s rounds and the round of
    ``radius_search`` read ``multi_index(ceil(k / 16))``, the table the
    ``multi-index`` engine reads at that m.
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
        """The table's distinct codes sorted by popcount, built on first call."""
        bands = self._tables.get("bands")
        if bands is None:
            index = self.index()  # before the bands' build: the lock is not re-entrant
            bands = self._table("bands", lambda: _Bands(index, self._scan_words, self.k))
        return bands

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
    """A set's distinct codes sorted by popcount, read from its lookup
    table, for scans that read only the popcount classes that can hold
    an answer and compare each distinct code once.

    Row i is one bucket of the table: ``words[i]`` is its code in the
    scan dtype, and ``spans[i]`` its slice of the table's ``positions``,
    packed as first slot << b | count (see ``codes``).  ``starts`` is a
    list of k + 2 row offsets: class c, the distinct codes with c set
    bits, is rows ``starts[c]:starts[c + 1]``, in ascending position of
    their first code, and ``sizes[c]`` counts the codes in it.  Since
    |pop(a) - pop(b)| <= d(a, b) and d(a, b) = pop(a) + pop(b) (mod 2),
    the codes within distance r of a query lie in the classes within r
    of its popcount, and those at distance exactly d in the classes at
    d, d - 2, ... from it.  serve-200k's 200k codes hold 95,297 distinct
    values, so its band scans compare about half as many words, and its
    bands take 1.1 MB where a sorted copy of the codes and their order
    took 2.4 MB.

    For codes of 17 to 64 bits the bands also plan the multi-index
    rounds from the count of their rows, at one cost (``_round_cost``):
    ``rank``'s (``round_budget``) and the one round of a radius query
    (``radius_round``).
    """

    def __init__(self, index: HashIndex, scan_words: np.ndarray, k: int):
        self.positions = index.positions_by_key
        first = self.positions[index.bucket_starts]
        words = scan_words[first]
        pop = xor_popcount(words, np.zeros_like(words[0]))
        # by popcount, then by first position: one sort of distinct keys
        order = (pop.astype(np.int64) << len(self.positions).bit_length() | first).argsort()
        self.words = words[order]
        counts = index.bucket_sizes()
        # first slot << b | count fits 63 bits while N * (largest bucket)
        # stays below 2^62
        self._bits = int(counts.max()).bit_length()
        self._mask = (1 << self._bits) - 1
        self.spans = (index.bucket_starts << self._bits | counts)[order]
        self.sizes = np.bincount(pop, weights=counts, minlength=k + 1).astype(int).tolist()
        self.starts = [0, *itertools.accumulate(np.bincount(pop, minlength=k + 1).tolist())]
        for a in (self.words, self.spans):
            a.flags.writeable = False
        self._probed: dict[tuple[int, int], int] = {}
        # for the multi-index rounds on codes of 17 to 64 bits: reach[d],
        # the codes within distance d of a query if the set's were spread
        # uniformly
        n = len(self.positions)
        self._reach = (list(itertools.accumulate(n * math.comb(k, d) / 2**k for d in range(k + 1)))
                       if 16 < k <= 64 else None)
        self._rounds: dict[tuple, float | None] = {}
        self._radius_rounds: dict[tuple[int, int, int], bool] = {}

    def codes(self, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
        """The positions of the codes of the rows whose ``spans`` are
        given, bucket after bucket, and for each code the index in
        ``spans`` of its row.  When every row holds one code, nearly
        always on uniform codes, that is one gather of first slots."""
        if not spans.shape[0]:
            return self.positions[:0], slice(None)
        firsts, counts = spans >> self._bits, spans & self._mask
        if counts.sum() == spans.shape[0]:
            return self.positions[firsts], slice(None)
        return (self.positions[_bucket_slots(firsts + counts, counts)],
                np.arange(spans.shape[0]).repeat(counts))

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

    def _round_cost(self, d: int) -> float:
        """What the multi-index rounds that complete layer d cost, in
        scans of one distinct code: rounds 0 to floor(d / m) look up
        C(w, s) sub-keys per span at each sub-radius s, each finding
        about R / 2^w of the R rows, and each key and row is weighted by
        ``_ROUND_COST``."""
        # rows counts distinct codes, though the rounds find positions:
        # counting positions took rank's rounds from 8 of 40 (popcount,
        # wanted count) plans at serve-200k (catalog seed 7), and from
        # every plan on the round tests' codes that share a span
        k, rows = len(self.sizes) - 1, self.starts[-1]
        spans = _span_bounds(k, -(-k // _SUB_BITS))
        width = spans[0][1]
        return _ROUND_COST * sum(
            len(spans) * math.comb(width, s)
            + sum(math.comb(hi - lo, s) * rows / 2**(hi - lo) for lo, hi in spans)
            for s in range(d // len(spans) + 1))

    def _near(self, q: int, d: int) -> int:
        """The rows of the classes within d of popcount q."""
        return self.starts[min(q + d, len(self.sizes) - 1) + 1] - self.starts[max(q - d, 0)]

    def round_budget(self, t: int, q: int) -> float | None:
        """What ``rank``'s multi-index rounds may spend on t wanted codes
        for a query of popcount q, or None when they are not taken.

        d is the distance within which a uniform spread of the set's
        codes would hold t of them (k when t passes the set).  The
        rounds that complete layer d (``_round_cost``) are taken when
        they cost no more than the band layers would: the rows of the
        classes within d of q, or every row once those pass
        ``_BAND_SHARE`` of them.  That cost is the budget.  Worked out
        once per cost, distance and popcount."""
        if self._reach is None:
            return None
        key = (_ROUND_COST, bisect.bisect_left(self._reach, t, 0, len(self._reach) - 1), q)
        try:
            return self._rounds[key]
        except KeyError:
            near, rows = self._near(q, key[1]), self.starts[-1]
            scan = near if near <= _BAND_SHARE * rows else rows
            budget = self._rounds[key] = scan if self._round_cost(key[1]) <= scan else None
            return budget

    def radius_round(self, r: int, q: int) -> bool:
        """Whether ``radius_search`` reads radius r around a query of
        popcount q from one multi-index round: on codes of 17 to 64 bits,
        when the rounds that complete layer r cost no more than the band
        slice, the rows of the classes within r of q.  At serve-200k's
        r=2 that weighs 834 against about 50k.  Worked out once per
        cost, radius and popcount."""
        key = (_ROUND_COST, r, q)
        taken = self._radius_rounds.get(key)
        if taken is None:
            taken = self._radius_rounds[key] = (
                self._reach is not None and self._round_cost(r) <= self._near(q, r))
        return taken


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


def _bucket_slots(ends: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The slots of the buckets that end at ``ends`` and hold ``sizes``
    entries, bucket after bucket, for one gather from a table."""
    # output entry j, in the bucket whose first entry is output entry o,
    # reads slot end - size + (j - o)
    slots = (ends - sizes.cumsum()).repeat(sizes)
    slots += np.arange(slots.shape[0])
    return slots


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
        # bucket i is slots offsets[i]:offsets[i + 1]; its starts and ends
        # are two views of one array (0.76 MB less at 95k buckets)
        offsets = np.concatenate([[0], boundaries, [len(keys)]])
        # read-only, as queries hand out slices of positions_by_key
        for a in (self.positions_by_key, offsets):
            a.flags.writeable = False
        self.bucket_starts, self.bucket_ends = offsets[:-1], offsets[1:]
        self.unique_keys = sorted_keys[self.bucket_starts]
        self.unique_keys.flags.writeable = False
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
        return self.positions_by_key[_bucket_slots(ends, ends - self.bucket_starts[hit])]


def build_index(items: CodeSet) -> HashIndex:
    """A fresh table over items; CodeSet.index() reuses one instead."""
    return HashIndex(items.words, items.k)


# A span of at most this many bits is addressed directly by its sub-key
# (2^16 + 1 offsets); rank's rounds cut k bits into ceil(k / 16) spans.
_SUB_BITS = 16


def _span_bounds(k: int, m: int) -> list[tuple[int, int]]:
    """k bits cut into m contiguous spans [lo, hi) whose lengths differ by
    at most one, the longer ones first."""
    base, extra = divmod(k, m)
    bounds = [s * base + min(s, extra) for s in range(m + 1)]
    return list(zip(bounds, bounds[1:]))


class MultiIndex:
    """One exact-match table per contiguous substring of rows of k-bit
    code words.

    The k bits are split into m contiguous spans whose lengths differ by
    at most one, w bits at the widest; concatenating the spans
    reproduces the original code.  On codes of up to 64 bits with w at
    most ``_SUB_BITS``, the tables are addressed directly by the sub-key
    (a code's value in a span): span j's positions, by sub-key and then
    position, fill a slice of the int32 ``rows``, and sub-key x's are
    ``rows[starts[j << w | x]:ends[j << w | x]]``, so one gather looks
    up every span's keys (a narrower span's keys past its width hold no
    row).  At serve-200k (m=2) that takes 2.12 MB and about 5.6 ms, by
    one radix sort per span, against 4.24 MB and 6.8 ms for a
    ``HashIndex`` per span, which wider spans and longer codes keep in
    ``sub_indices``.  Every word of a span's sub-words is cut from the
    code words by a shift, an or and a mask, planned once per table (110
    ms at serve-200k through bits); the same plan splits each query.
    """

    def __init__(self, words: np.ndarray, k: int, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > k:
            raise ValueError(f"cannot split {k} bits into {m} non-empty substrings")
        self.words = words
        self.k = k
        self.m = m
        self.boundaries = _span_bounds(k, m)
        self.width = self.boundaries[0][1]
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
        # each span's (shift, mask): a one-word code's span [lo, hi) is
        # the word shifted right by lo and masked to hi - lo bits
        self._cuts = [(lo, (1 << (hi - lo)) - 1) for lo, hi in self.boundaries]
        if k > 64 or self.width > _SUB_BITS:
            spans = zip(self._split(words), self.boundaries)
            self.sub_indices = [HashIndex(sw, hi - lo) for sw, (lo, hi) in spans]
            return
        self.sub_indices = None
        n = words.shape[0]
        dtype = np.int32 if m * n < 2**31 else np.int64
        # each span's order goes straight into its slice of rows: joining
        # int64 orders took the traced peak from 5.7 to 9.5 MB at serve-200k
        self.rows = np.empty(m * n, dtype=dtype)
        counts = np.empty((m, 1 << self.width), dtype=dtype)
        for j, (lo, mask) in enumerate(self._cuts):
            sub = (words[:, 0] >> lo & mask).astype(np.uint16)
            self.rows[j * n:(j + 1) * n] = sub.argsort(kind="stable")
            counts[j] = np.bincount(sub, minlength=1 << self.width)
        offsets = np.zeros(counts.size + 1, dtype=dtype)
        counts.ravel().cumsum(out=offsets[1:])
        for a in (self.rows, offsets):
            a.flags.writeable = False
        self.starts, self.ends = offsets[:-1], offsets[1:]

    def _tops(self, word: int) -> np.ndarray:
        """A one-word code's sub-keys as direct-address keys, span j's at
        j << w: an (m, 1) column that a ball's masks are XORed onto."""
        return np.array([[sub | j << self.width] for j, sub in enumerate(self._split_word(word))],
                        dtype=np.int64)

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
    """All (position, distance) pairs at distance <= r, by a scan of the
    popcount classes in reach or, on large sets, one multi-index round.

    Only the codes whose popcount is within r of the query's can be in
    reach, so the scan reads one slice of the set's distinct codes
    sorted by popcount (about half of a 200k-code K=32 catalog's 95k
    distinct codes at r=2), built from the set's lookup table on its
    first scan, and reads out only the buckets in reach.  On a set of
    ``_TABLE_MIN_ITEMS`` codes or more of 17 to 64 bits, where the set
    plans it cheaper than that slice (``_Bands.radius_round``), the
    answer is ``multi_index_search`` over ``items.multi_index(ceil(k /
    16))``, the table ``rank``'s rounds read, at sub-radius floor(r / m).
    Output is sorted by (distance, position) so results are stable
    across runs and directly comparable with the lookup paths.
    """
    _check_query(query, items.k, r)
    bands, q = items._bands(), _popcount(query)
    if len(items) >= _TABLE_MIN_ITEMS and bands.radius_round(r, q):
        return multi_index_search(query, items.multi_index(-(-items.k // _SUB_BITS)), items, r)
    lo, hi = bands.starts[max(q - r, 0)], bands.starts[min(q + r, items.k) + 1]
    d = xor_popcount(bands.words[lo:hi], items._scan_query(query))
    within = (d <= r).nonzero()[0]
    pos, rows = bands.codes(bands.spans[lo:hi][within])
    return _by_distance(pos, d[within][rows])


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
    if mi.sub_indices is None:
        keys = (_ball_keys(mi.width, r // mi.m).view(np.int64)
                ^ mi._tops(int(query.words[0]))).ravel()
        hi = mi.ends[keys]
        cand = mi.rows[_bucket_slots(hi, hi - mi.starts[keys])]
    elif mi.k <= 64:  # spans cut by shift and mask, probed with 1-D keys
        cand = np.concatenate([
            table.probe(_ball_keys(table.k, min(r // mi.m, table.k)) ^ sub)
            for table, sub in zip(mi.sub_indices, mi._split_word(int(query.words[0])))])
    else:
        cand = np.concatenate([
            table.probe(np.bitwise_xor(_ball_masks(table.k, min(r // mi.m, table.k)), sub))
            for table, sub in zip(mi.sub_indices, mi._split(query.words[None, :]))])
    # the union: sorting puts repeats side by side to be dropped (9 us
    # on 290 candidates, where np.unique took 30 us and a Python set 16)
    cand.sort()
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

# What one sub-key looked up, or one row found, costs rank's multi-index
# rounds, in scans of one distinct code, as _PROBE_COST weighs a probe.
# Timed over keys of empty sub-buckets and of one-row ones: a key took
# 5.7-7.2 ns and a row 6.1-6.9 ns, against 0.5-1.1 ns a code for the
# scan, at serve-200k and on 200k uniform codes of 32, 48 and 64 bits
# (ratios 7-12 for both; one pinned Xeon core, numpy 2.4).  So on 200k
# uniform codes ten wanted codes take rounds at 32 and 48 bits (11k and
# 85k against 200k), and not at 64 (408k: about 10k keys and 31k rows).
_ROUND_COST = 10


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


def _rank_layers(query: HashCode, items: CodeSet, dists: dict, t: int):
    """The layers of ``query`` in ``items`` for ``_walk``, which wants t
    codes: each probed in the set's table while that costs less than
    reading the popcount classes that can hold it
    (``_Bands.probed_layers``), then, where ``_Bands.round_budget``
    plans them, from multi-index rounds over the set's
    ``multi_index(ceil(k / 16))`` (``_round_layers``), and from then on
    read from those classes.

    The rounds' place is after layer 2, or after layer 1 when layers 0
    and 1 hold no code: a query with no code within 1 lies away from the
    codes and seldom ends at layer 2, and the plan is read only there,
    so a request the probes answer never reads it.  Where rounds are
    planned they replace the probes from there on; rounds that would
    pass their budget stop at the last layer they completed.  Layer d
    lies in the classes at d, d - 2, ... from the query's popcount.
    Each class is scanned once, into ``dists`` (class: the distances of
    its distinct codes); the layers end early, leaving the rest to
    ``_rank_all``, once the distinct codes read would pass
    ``_BAND_SHARE`` of them.
    """
    index = items.index()
    # layer 0, the query's own bucket, is one slice: cheaper than a scan
    hits = _layer(index, query.words, 0)
    yield hits
    bands, k, q = items._bands(), items.k, _popcount(query)
    probed, held = bands.probed_layers(q), hits.shape[0]
    if probed:
        hits = _layer(index, query.words, 1)
        yield hits
        held += hits.shape[0]
    if held and probed >= 2:  # before the plan: the requests it answers never read it
        yield _layer(index, query.words, 2)
    done, qw = min(probed, 2 if held else 1), items._scan_query(query)
    budget = bands.round_budget(t, q)
    if budget is None:
        for done in range(done + 1, probed + 1):
            yield _layer(index, query.words, done)
    else:
        mi = items.multi_index(-(-k // _SUB_BITS))
        done = yield from _round_layers(query, items, mi, qw, done, budget)
    starts, sizes, spans, read = bands.starts, bands.sizes, bands.spans, 0
    for d in range(done + 1, k + 1):
        classes = [c for c in range(k + 1)[_layer_classes(q, d, k)] if sizes[c]]
        new = [c for c in classes if c not in dists]
        read += sum(starts[c + 1] - starts[c] for c in new)
        if read > _BAND_SHARE * starts[-1]:
            return
        for c in new:
            dists[c] = xor_popcount(bands.words[starts[c]:starts[c + 1]], qw)
        yield np.sort(bands.codes(np.concatenate(
            [spans[:0], *(spans[starts[c]:starts[c + 1]][dists[c] == d] for c in classes)]))[0])


def _round_layers(query: HashCode, items: CodeSet, mi: MultiIndex, qw: np.ndarray,
                  done: int, budget: float):
    """Layers done + 1, ... of ``query`` from multi-index rounds over the
    direct-address tables ``mi`` (Norouzi, Punjani and Fleet, "Fast
    Search in Hamming Space with Multi-Index Hashing", CVPR 2012), and
    as its return value the last layer complete when they end.

    Round s looks up the sub-keys at sub-radius s of every span in one
    gather, the first round those at every sub-radius up to its own, and
    checks the positions found by their full distance.  A code within
    m(s + 1) - 1 of the query is within s of it in some span, so after
    round s every layer up to that bound is complete: those past
    ``done`` are yielded, and positions found beyond it are carried into
    the next round.  A position is found once in each span, and yielded
    once.  Each key and each position found is charged ``_ROUND_COST``;
    a round that would take the charge past the budget is not made.
    """
    k, m, tops = mi.k, mi.m, mi._tops(int(query.words[0]))
    pos, dist, spent = mi.rows[:0], np.empty(0, dtype=np.uint16), 0
    s = -(-(done + 2) // m) - 1  # the first round completes layer done + 1
    masks = _ball_keys(mi.width, s)
    while True:
        keys = (masks.view(np.int64) ^ tops).ravel()
        hi = mi.ends[keys]
        counts = hi - mi.starts[keys]
        spent += (keys.shape[0] + int(counts.sum())) * _ROUND_COST
        if spent > budget:
            return done
        found = mi.rows[_bucket_slots(hi, counts)]
        pos = np.concatenate([pos, found])
        dist = np.concatenate([dist, xor_popcount(items._scan_words[found], qw)])
        bound = min(m * (s + 1) - 1, k)
        for layer in range(done + 1, bound + 1):
            hits = pos[dist == layer]
            if hits.shape[0] > 1:
                hits.sort()
                # a position found in several spans is yielded once
                first = np.empty(hits.shape[0], dtype=bool)
                first[0] = True
                np.not_equal(hits[1:], hits[:-1], out=first[1:])
                hits = hits[first]
            yield hits
        done = max(done, bound)
        if done == k:
            return done
        s += 1
        masks = _layer_keys(mi.width, s)


def _rank_all(query: HashCode, items: CodeSet, dists: dict, k: int,
              excluded: Collection[int]) -> list[tuple[int, int]]:
    """``hamming_rank_topk(query, items, k + len(excluded))`` without
    ``excluded``, cut to k, from the popcount classes: those in
    ``dists`` are not scanned again.  Every distinct code holds at least
    one code, so the t-th least distance of the distinct codes, or of
    those already read when they number t or more, bounds the t-th least
    of the codes, and only the buckets within it are read out.  A code
    within that cut lies in a class within it of the query's popcount,
    so the classes past it are not scanned.  The candidates are taken
    from the classes read, joined once for the cut, and from each run of
    classes as it is scanned, never from one array of every distance."""
    bands = items._bands()
    starts, qw, top = bands.starts, items._scan_query(query), len(bands.sizes) - 1
    t, q = k + len(excluded), _popcount(query)
    classes = sorted(dists)
    near = np.concatenate([dists[c] for c in classes] or [np.empty(0, dtype=np.uint16)])
    if near.shape[0] < t < starts[-1]:  # too few read to bound the cut: scan them all
        for read, run in itertools.groupby(range(top + 1), dists.__contains__):
            if not read:
                run = list(run)
                d = xor_popcount(bands.words[starts[run[0]]:starts[run[-1] + 1]], qw)
                dists.update((c, d[starts[c] - starts[run[0]]:starts[c + 1] - starts[run[0]]])
                             for c in run)
        return _rank_all(query, items, dists, k, excluded)
    cut = int(np.partition(near, t - 1)[t - 1]) if t < starts[-1] else top
    # near's entry i lies in the first read class whose entries end past
    # i, whose rows run in order from its first
    ends = list(itertools.accumulate(starts[c + 1] - starts[c] for c in classes))
    shift = np.array([starts[c] - begin for c, begin in zip(classes, [0, *ends])], dtype=np.int64)
    within = (near <= cut).nonzero()[0]
    cand, cand_d = [within + shift[np.searchsorted(ends, within, side="right")]], [near[within]]
    # each run of unread classes within the cut, in one scan
    for read, run in itertools.groupby(range(max(q - cut, 0), min(q + cut, top) + 1),
                                       dists.__contains__):
        if not read:
            run = list(run)
            first = starts[run[0]]
            # a one-word code's 8-bit popcounts only meet the cut here, so
            # xor_popcount's widening copy is skipped: rank top-10 and
            # top-30 over 200k uniform K=64 codes took 4.4% and 4.1% less
            # time with it skipped, in 35 and 33 of 40 interleaved rounds
            # (K=32, mostly answered by the rounds: 1.4% and 1.1%, 20 and
            # 22 of 40; one pinned Xeon core, numpy 2.4)
            if qw.shape[0] == 1:
                d = np.bitwise_count(bands.words[first:starts[run[-1] + 1], 0] ^ qw[0])
            else:
                d = xor_popcount(bands.words[first:starts[run[-1] + 1]], qw)
            within = (d <= cut).nonzero()[0]
            cand.append(within + first)
            cand_d.append(d[within])
    pos, rows = bands.codes(bands.spans[np.concatenate(cand)])
    # a (distance, position) key per candidate code; ties at the cut are
    # kept by position
    n = len(items)
    keys = np.concatenate(cand_d)[rows].astype(np.int64) * n + pos
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
    less, then from multi-index rounds where the set plans them, then
    read from the popcount classes (``_rank_layers``).  When
    those reads would pass ``_BAND_SHARE`` of the set, the set is ranked
    at once, scanning only the classes not yet read.
    """
    if query.k != items.k:
        raise LengthMismatchError(f"code lengths differ: {query.k} vs {items.k}")
    dists: dict = {}
    layers = _rank_layers(query, items, dists, k + len(excluded))
    top, read = _walk(layers, len(items), k, excluded)
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
    each query popcount.  The classes hold the table's distinct codes,
    each compared once, and only the buckets that hit are read out.
    When those reads would pass half of the distinct codes it ranks
    the whole set, scanning only the classes it has not read and within
    its cut.  On codes of 17 to 64 bits, where the set plans them for
    ``top_k + len(exclude)`` wanted codes, multi-index rounds read the
    layers past layer 2, or past layer 1 when layers 0 and 1 hold no
    code, until they would cost more than the class reads, from the
    set's multi-index that "multi-index" reads at ``subcodes`` =
    ceil(k/16).  A small set is scanned whole and never builds a table.
    "lookup" reads layers from the table the same way, and "linear"
    scans only the popcount classes within ``radius`` of the query's,
    building the set's table on first use as "rank" and "lookup" do;
    on a set where "rank" reads its table, codes of 17 to 64 bits are
    instead read from one multi-index round over that same multi-index
    wherever the set plans the round cheaper than those classes.
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
