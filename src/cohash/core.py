"""Numerical core of the collaborative-hashing recommender.

Users and items get K-dimensional latent vectors, trained inside the
relaxed box [-1, 1]^K and rounded to binary codes (one bit per
coordinate, +1/-1 semantics) once training is done.  Everything in this
module is a pure function over numpy arrays; scheduling, sharding and
persistence live in the sibling modules.

Two arithmetic details are deliberate and load-bearing:

* ``similarity`` is computed literally as ``1.0 - d / k`` and
  ``predict_relaxed`` as ``1.0 - (k - dot) / (2.0 * k)``.  For sign
  vectors the inner product is exactly ``k - 2 * d``, so both routes
  divide the same integers and agree bit for bit, not just to rounding.
* ``project`` rescales until the norm actually tests inside the radius,
  so projecting twice is exactly the same as projecting once even when
  a single rescale lands an ulp outside.  On a matrix it works row by
  row and gives each row the same bits as projecting it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LengthMismatchError",
    "Hyperparams",
    "Dataset",
    "FactorMatrices",
    "HashCode",
    "words_per_code",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "xor_popcount",
    "init_factors",
    "active_sum",
    "similarity",
    "predict_relaxed",
    "dch_loss",
    "minibatch_gradients",
    "indexed_gradients",
    "project",
    "round_words",
    "round_codes",
    "mf_loss",
]


class LengthMismatchError(ValueError):
    """Two codes or vectors that must share a dimension do not."""


def _check_int(name: str, value, low: int) -> None:
    """Refuse a value that is not an integer (a bool is not one) or is below low."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs shared by the trainer, the baseline and the CLI.

    ``gamma`` parametrizes the feasible ball: factor vectors are pulled
    back inside radius 1/sqrt(gamma) at every synchronization barrier.
    ``staleness`` is the number of SGD operations each worker may run
    between barriers; 1 means fully synchronous.
    """

    k: int = 10
    lambda_: float = 0.01
    alpha: float = 0.001
    gamma: float = 1.0
    batch_size: int = 1000
    staleness: int = 2
    workers: int = 1
    servers: int = 1
    epochs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k", "batch_size", "staleness", "workers", "servers", "epochs"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        for name in ("alpha", "gamma", "lambda_"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {self.lambda_}")

    @property
    def radius(self) -> float:
        """Radius of the projection ball, 1/sqrt(gamma)."""
        return 1.0 / math.sqrt(self.gamma)


@dataclass
class Dataset:
    """Observed (user, item, rating) interactions with dense 0-based ids.

    ``ratings`` holds the normalized values in [0, 1] the objective
    consumes; ``raw_ratings`` keeps the original scale for gain-based
    ranking metrics.  ``active_users`` / ``active_items`` are the sorted
    distinct ids that actually occur; the balance penalty sums factor
    vectors over exactly these sets.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    raw_ratings: np.ndarray
    num_users: int
    num_items: int
    scale: tuple[float, float] | None = None
    user_labels: list[str] | None = None
    item_labels: list[str] | None = None
    active_users: np.ndarray = field(init=False, repr=False)
    active_items: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.users = np.ascontiguousarray(self.users, dtype=np.int64)
        self.items = np.ascontiguousarray(self.items, dtype=np.int64)
        self.ratings = np.ascontiguousarray(self.ratings, dtype=np.float64)
        self.raw_ratings = np.ascontiguousarray(self.raw_ratings, dtype=np.float64)
        n = self.users.shape[0]
        if not (self.items.shape[0] == self.ratings.shape[0] == self.raw_ratings.shape[0] == n):
            raise ValueError("users, items, ratings and raw_ratings must have equal length")
        if self.num_users < 0 or self.num_items < 0:
            raise ValueError("entity counts must be non-negative")
        if n:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user id out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item id out of range")
            # written so that a NaN rating fails too
            if not (self.ratings.min() >= 0.0 and self.ratings.max() <= 1.0):
                raise ValueError("normalized ratings must lie in [0, 1]")
        self.active_users = np.flatnonzero(np.bincount(self.users, minlength=self.num_users))
        self.active_items = np.flatnonzero(np.bincount(self.items, minlength=self.num_items))

    def subset(self, idx: np.ndarray) -> "Dataset":
        """New Dataset over the given row indices; entity counts carry over."""
        return Dataset(
            self.users[idx],
            self.items[idx],
            self.ratings[idx],
            self.raw_ratings[idx],
            self.num_users,
            self.num_items,
            scale=self.scale,
            user_labels=self.user_labels,
            item_labels=self.item_labels,
        )

    def __len__(self) -> int:
        return int(self.users.shape[0])


@dataclass
class FactorMatrices:
    """Relaxed factors plus cached per-coordinate sums over active entities.

    ``sum_u`` / ``sum_v`` mirror ``U[active_users].sum(axis=0)`` and the
    item analogue.  The trainer keeps them incrementally up to date and
    recomputes them from scratch at every barrier, so between barriers
    they may drift from the matrices by float accumulation only.
    """

    U: np.ndarray
    V: np.ndarray
    sum_u: np.ndarray
    sum_v: np.ndarray

    def __post_init__(self) -> None:
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.sum_u = np.asarray(self.sum_u, dtype=np.float64)
        self.sum_v = np.asarray(self.sum_v, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("U and V must be 2-d")
        if self.U.shape[1] != self.V.shape[1]:
            raise LengthMismatchError("U and V must share the code length")
        k = self.U.shape[1]
        if self.sum_u.shape != (k,) or self.sum_v.shape != (k,):
            raise ValueError("aggregate sums must be length-k vectors")

    @property
    def k(self) -> int:
        return int(self.U.shape[1])

    def copy(self) -> "FactorMatrices":
        return FactorMatrices(self.U.copy(), self.V.copy(), self.sum_u.copy(), self.sum_v.copy())


def active_sum(matrix: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per-coordinate sum of the rows listed in ``active`` (sorted id order)."""
    if active.size == 0:
        return np.zeros(matrix.shape[1], dtype=np.float64)
    return matrix[active].sum(axis=0)


def init_factors(data: Dataset, h: Hyperparams) -> FactorMatrices:
    """Fresh factors, each entry drawn uniformly from [-0.5, 0.5].

    Draws U in full, then V, from one stream so the result depends only
    on (seed, shapes), not on how training is later sharded.
    """
    rng = np.random.default_rng(np.random.SeedSequence(h.seed, spawn_key=(0,)))
    U = rng.uniform(-0.5, 0.5, size=(data.num_users, h.k))
    V = rng.uniform(-0.5, 0.5, size=(data.num_items, h.k))
    return FactorMatrices(
        U, V, active_sum(U, data.active_users), active_sum(V, data.active_items)
    )


# ---------------------------------------------------------------------------
# Binary codes


_WORD_BITS = 64


def words_per_code(k: int) -> int:
    return (k + _WORD_BITS - 1) // _WORD_BITS


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, k) boolean matrix into (n, ceil(k/64)) uint64 words.

    Bit b of a row lands in word b // 64 at position b % 64 (little
    endian both across bytes and within them), so coordinate 0 is the
    lowest bit of the first byte.  Padding bits are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    n, k = bits.shape
    nw = words_per_code(k)
    packed = np.packbits(bits, axis=1, bitorder="little")
    if packed.shape[1] < nw * 8:
        pad = np.zeros((n, nw * 8 - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return np.ascontiguousarray(packed).view(np.dtype("<u8")).astype(np.uint64, copy=False)


def unpack_bit_matrix(words: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_matrix`; returns an (n, k) bool matrix."""
    words = np.ascontiguousarray(words, dtype=np.dtype("<u8"))
    if words.ndim != 2 or words.shape[1] != words_per_code(k):
        raise ValueError("word matrix does not match the code length")
    as_bytes = words.view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=k, bitorder="little").astype(bool)


class HashCode:
    """A k-bit binary code packed into little-endian 64-bit words.

    A set bit encodes +1, a clear bit encodes -1.  Instances are
    immutable value objects over a read-only copy of the words given:
    equality compares length and words.
    """

    __slots__ = ("k", "words")

    def __init__(self, k: int, words: np.ndarray):
        if k < 1:
            raise ValueError("code length must be >= 1")
        words = np.array(words, dtype=np.uint64)
        words.flags.writeable = False
        if words.shape != (words_per_code(k),):
            raise ValueError("word count does not match the code length")
        pad = words_per_code(k) * _WORD_BITS - k
        if pad and int(words[-1]) >> (_WORD_BITS - pad):
            raise ValueError("padding bits must be zero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "words", words)

    @classmethod
    def _trusted(cls, k: int, words: np.ndarray) -> "HashCode":
        """A code over one row of a read-only word matrix that is already
        valid for k, as :func:`round_codes` and a CodeSet hold: no checks
        and no copy.  The 2,625 codes of a K=10 rounding took 5.2 ms this way
        against 9.2 ms through ``__init__`` (one Xeon core)."""
        code = object.__new__(cls)
        object.__setattr__(code, "k", k)
        object.__setattr__(code, "words", words)
        return code

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("HashCode is immutable")

    @classmethod
    def from_signs(cls, signs: Sequence[float]) -> "HashCode":
        """Build a code from a vector; entries > 0 become +1 bits."""
        signs = np.asarray(signs, dtype=np.float64)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("expected a non-empty 1-d vector")
        return cls(signs.size, pack_bit_matrix((signs > 0)[None, :])[0])

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "HashCode":
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("expected a non-empty 1-d bit vector")
        return cls(bits.size, pack_bit_matrix(bits[None, :])[0])

    def to_bits(self) -> np.ndarray:
        return unpack_bit_matrix(self.words[None, :], self.k)[0]

    def to_signs(self) -> np.ndarray:
        """The code as a float vector of +1.0 / -1.0 entries."""
        return np.where(self.to_bits(), 1.0, -1.0)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise IndexError("bit index out of range")
        return int(self.words[i // _WORD_BITS] >> np.uint64(i % _WORD_BITS)) & 1

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashCode):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.k, self.words.tobytes()))

    def __repr__(self) -> str:
        bits = "".join("1" if b else "0" for b in self.to_bits())
        if len(bits) > 32:
            bits = bits[:32] + "..."
        return f"HashCode(k={self.k}, bits={bits})"


def xor_popcount(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distances between rows of packed words, the leading axes
    broadcast: the popcounts of a ^ b, added one word column at a time
    (at K=96 over 200k codes, 1.0 ms against 6.8 ms for a sum along the
    word axis).  Never uint8, as np.partition is slow on 8-bit keys.
    The scans pass a set's scan words as a and the query's words, cast
    to the same dtype, as b: uint32 for codes of up to 32 bits, else
    uint64, so a uint64 operand never widens a 4-byte scan."""
    acc = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(
        np.promote_types(np.uint16, np.min_scalar_type(64 * a.shape[-1])))
    for w in range(1, a.shape[-1]):
        acc += np.bitwise_count(a[..., w] ^ b[..., w])
    return acc


def similarity(a: HashCode, b: HashCode) -> float:
    """Fraction-of-matching-bits similarity, computed as 1 - d/k.

    Equals 1/2 + <a, b>/(2k) on sign vectors; the 1 - d/k form is the
    one whose float result the relaxed predictor reproduces exactly.
    """
    if a.k != b.k:
        raise LengthMismatchError(f"code lengths differ: {a.k} vs {b.k}")
    return 1.0 - int(xor_popcount(a.words, b.words)) / a.k


def predict_relaxed(u: np.ndarray, v: np.ndarray) -> float:
    """Predicted normalized rating 1/2 + <u, v>/(2k) for relaxed factors.

    Evaluated as 1 - (k - <u, v>)/(2k): on +/-1 vectors the numerator is
    exactly twice the Hamming distance, so the result is bit-identical
    to :func:`similarity` of the corresponding codes.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("factor vectors must be 1-d")
    if u.shape[0] != v.shape[0]:
        raise LengthMismatchError(f"vector lengths differ: {u.shape[0]} vs {v.shape[0]}")
    k = u.shape[0]
    dot = float(np.dot(u, v))
    return 1.0 - (k - dot) / (2.0 * k)


# Rows gathered per block by _batch_dots.  Two (4096, k) gathers stay
# small enough for the allocator to hand back the same pages block after
# block, where two full-length gathers are paged in fresh on every call.
_DOT_BLOCK = 4096


def _batch_dots(fm: FactorMatrices, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """<U[users[n]], V[items[n]]> for every n, computed block by block.

    Each dot depends on its own two rows only, so the blocks give the
    same bits as one einsum over the full gathers.
    """
    out = np.empty(users.shape[0], dtype=np.float64)
    for s in range(0, users.shape[0], _DOT_BLOCK):
        e = s + _DOT_BLOCK
        # ids were range-checked when the Dataset was built; "clip" skips
        # the check take would repeat on every block
        np.einsum("ij,ij->i", fm.U.take(users[s:e], axis=0, mode="clip"),
                  fm.V.take(items[s:e], axis=0, mode="clip"), out=out[s:e])
    return out


def dch_loss(data: Dataset, fm: FactorMatrices, h: Hyperparams) -> float:
    """Squared-error objective with the balance penalty.

    sum over observed (i, j) of (r_ij - 1/2 - <u_i, v_j>/(2k))^2 plus
    lambda * (||sum of active u_i||^2 + ||sum of active v_j||^2).  The
    penalty sums are recomputed from the matrices here, not read from
    the caches, so the value is a pure function of (data, U, V).  The
    trainer's barrier, which has just computed those exact sums, calls
    :func:`_dch_loss_on_sums` with them instead.
    """
    return _dch_loss_on_sums(data, fm, h, active_sum(fm.U, data.active_users),
                             active_sum(fm.V, data.active_items))


def _dch_loss_on_sums(data: Dataset, fm: FactorMatrices, h: Hyperparams,
                      su: np.ndarray, sv: np.ndarray) -> float:
    """:func:`dch_loss` given ``su`` and ``sv``, the active sums of U and
    V; bit for bit ``dch_loss`` when they are exactly those sums.  The
    residuals are computed in the dot buffer, one operation at a time in
    the order ``data.ratings - (1.0 - (k - dot) / (2.0 * k))`` takes."""
    _check_factor_shapes(data, fm, h.k)
    resid = _batch_dots(fm, data.users, data.items)
    np.subtract(h.k, resid, out=resid)
    resid /= 2.0 * h.k
    np.subtract(1.0, resid, out=resid)
    np.subtract(data.ratings, resid, out=resid)
    return float(resid @ resid + h.lambda_ * (su @ su + sv @ sv))


def _check_factor_shapes(data: Dataset, fm: FactorMatrices, k: int) -> None:
    if fm.U.shape != (data.num_users, k) or fm.V.shape != (data.num_items, k):
        raise ValueError(
            f"factor shapes {fm.U.shape}/{fm.V.shape} do not match "
            f"({data.num_users}, {k})/({data.num_items}, {k})"
        )


def minibatch_gradients(
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    u_rows: np.ndarray,
    v_rows: np.ndarray,
    u_index: np.ndarray,
    i_index: np.ndarray,
    sum_u: np.ndarray,
    sum_v: np.ndarray,
    lambda_: float,
    objective: str = "dch",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entity gradients for a whole minibatch, aggregated before any step.

    ``u_rows`` / ``v_rows`` are snapshot factor rows aligned with the
    sorted unique id arrays ``u_index`` / ``i_index``; all residuals are
    evaluated against this one snapshot.  Looks up each rating's row
    with ``searchsorted`` and hands over to :func:`indexed_gradients`,
    which sums each row's contributions with
    ``np.bincount(inv * K + col, weights=c.ravel(), minlength=n * K)``:
    in batch order, starting from 0.0, so the result is reproducible for
    a fixed batch.

    ``objective`` selects the model: "dch" is the hashing objective (the
    regularizer reads the aggregate sums), "mf" is plain regularized
    matrix factorization (the regularizer reads each entity's own row,
    and the aggregate arguments are ignored).
    """
    return indexed_gradients(
        np.searchsorted(u_index, users), np.searchsorted(i_index, items), ratings,
        u_rows, v_rows, sum_u, sum_v, lambda_, objective,
    )


def indexed_gradients(
    inv_u: np.ndarray,
    inv_i: np.ndarray,
    ratings: np.ndarray,
    u_rows: np.ndarray,
    v_rows: np.ndarray,
    sum_u: np.ndarray,
    sum_v: np.ndarray,
    lambda_: float,
    objective: str = "dch",
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of :func:`minibatch_gradients`, given each rating's
    row: rating n reads ``u_rows[inv_u[n]]`` and ``v_rows[inv_i[n]]``.

    Each row's contributions are summed by ``np.bincount`` over the
    flattened (row, coordinate) bins, which adds them in batch order
    starting from 0.0: bit for bit an unbuffered scatter-add into zeros.
    """
    ub = u_rows[inv_u]
    vb = v_rows[inv_i]
    dot = np.einsum("ij,ij->i", ub, vb)
    if objective == "dch":
        k = u_rows.shape[1]
        resid = ratings - (1.0 - (k - dot) / (2.0 * k))
        acc_u = _scatter_rows(inv_u, resid[:, None] * vb, u_rows.shape[0])
        acc_v = _scatter_rows(inv_i, resid[:, None] * ub, v_rows.shape[0])
        g_u = -(acc_u / k) + (2.0 * lambda_) * sum_u
        g_v = -(acc_v / k) + (2.0 * lambda_) * sum_v
    elif objective == "mf":
        resid = ratings - dot
        acc_u = _scatter_rows(inv_u, resid[:, None] * vb, u_rows.shape[0])
        acc_v = _scatter_rows(inv_i, resid[:, None] * ub, v_rows.shape[0])
        g_u = -2.0 * acc_u + (2.0 * lambda_) * u_rows
        g_v = -2.0 * acc_v + (2.0 * lambda_) * v_rows
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return g_u, g_v


def _scatter_rows(inv: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """(n, k) sums of the rows of ``c`` grouped by ``inv``: row r is the
    sum, in order, of every ``c[m]`` with ``inv[m] == r``, starting from
    0.0; rows no ``m`` maps to stay 0.0."""
    k = c.shape[1]
    bins = (inv[:, None] * k + np.arange(k)).ravel()
    return np.bincount(bins, weights=c.ravel(), minlength=n * k).reshape(n, k)


def project(x: np.ndarray, gamma: float) -> np.ndarray:
    """Euclidean projection onto the ball of radius 1/sqrt(gamma).

    ``x`` is one vector, or a matrix whose rows are projected one by one
    exactly as if each were passed alone.  A vector is rescaled by
    radius/||x|| and again if rounding left it a hair outside, so the
    function is an exact fixed point on its own output; vectors already
    inside the ball come back unchanged.  Returns a new array.

    A finite vector whose squared norm overflows (entries above about
    1e154) is first divided by its largest |entry|, so it too lands on
    the sphere with its direction kept.  A vector with a NaN or infinite
    entry gets at most one rescale and is returned as it then stands
    (an infinite entry becomes NaN), so the call returns on such input
    and the caller's finiteness check sees the damage.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    x = np.asarray(x, dtype=np.float64)
    radius = 1.0 / math.sqrt(gamma)
    out = np.array(x, ndmin=2)
    todo = np.arange(out.shape[0])
    while todo.size:
        rows = out[todo]
        # one dot product per row: bit for bit np.linalg.norm of the row,
        # which np.linalg.norm(rows, axis=1) and einsum are not
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
        over = norms > radius
        rows, todo, scale = rows[over], todo[over], radius / norms[over]
        shrink = scale < 1.0
        # a finite row whose squared norm overflows would get scale 0;
        # divided by its largest |entry| first, it keeps its direction
        huge = np.isinf(norms[over])
        if huge.any():
            huge &= np.isfinite(rows).all(axis=1)
            unit = rows[huge] / np.abs(rows[huge]).max(axis=1, keepdims=True)
            rows[huge] = unit
            scale[huge] = radius / np.sqrt((unit[:, None, :] @ unit[:, :, None]).ravel())
            shrink |= huge
        todo = todo[shrink]
        out[todo] = rows[shrink] * scale[shrink, None]
    return out.reshape(x.shape)


def round_words(fm: FactorMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Median-threshold rounding of relaxed factors to packed code words.

    For each coordinate c the threshold is the median of column c taken
    over all users and items jointly; an entry becomes a +1 bit only if
    it is strictly greater than that median.  With an even count the
    median is the mean of the two middle order statistics.  Returns the
    user and the item word matrices, laid out as :func:`pack_bit_matrix`
    packs them.  Raises ValueError on any non-finite factor, which would
    otherwise give its whole column a NaN median and a zero bit.
    """
    stacked = np.concatenate([fm.U, fm.V], axis=0)
    if stacked.shape[0] == 0:
        raise ValueError("cannot round empty factor matrices")
    if not np.isfinite(stacked).all():
        raise ValueError("cannot round non-finite factors")
    med = np.median(stacked, axis=0)
    return pack_bit_matrix(fm.U > med), pack_bit_matrix(fm.V > med)


def round_codes(fm: FactorMatrices) -> tuple[list[HashCode], list[HashCode]]:
    """The codes of :func:`round_words`, one :class:`HashCode` per row."""
    user_words, item_words = round_words(fm)
    user_words.flags.writeable = item_words.flags.writeable = False
    k = fm.k
    users = [HashCode._trusted(k, row) for row in user_words]
    items = [HashCode._trusted(k, row) for row in item_words]
    return users, items


# ---------------------------------------------------------------------------
# Real-valued matrix factorization baseline


def mf_loss(data: Dataset, fm: FactorMatrices, lambda_mf: float) -> float:
    """Squared error sum (r - <u, v>)^2 plus lambda * sum of squared norms.

    The norm penalty runs over active users and items only, matching
    the entities the trainer ever updates.
    """
    _check_factor_shapes(data, fm, fm.k)
    resid = _batch_dots(fm, data.users, data.items)
    np.subtract(data.ratings, resid, out=resid)
    reg_u = float(np.sum(fm.U[data.active_users] ** 2))
    reg_v = float(np.sum(fm.V[data.active_items] ** 2))
    return float(resid @ resid + lambda_mf * (reg_u + reg_v))
