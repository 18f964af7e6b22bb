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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LengthMismatchError",
    "Hyperparams",
    "RatingTriple",
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
    "grad_user",
    "grad_item",
    "minibatch_gradients",
    "sgd_step",
    "project",
    "round_codes",
    "mf_loss",
    "mf_grad_user",
    "mf_grad_item",
]


class LengthMismatchError(ValueError):
    """Two codes or vectors that must share a dimension do not."""


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
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {self.lambda_}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def radius(self) -> float:
        """Radius of the projection ball, 1/sqrt(gamma)."""
        return 1.0 / math.sqrt(self.gamma)


class RatingTriple(NamedTuple):
    user: int
    item: int
    rating: float


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
            if self.ratings.min() < 0.0 or self.ratings.max() > 1.0:
                raise ValueError("normalized ratings must lie in [0, 1]")
        self.active_users = np.unique(self.users)
        self.active_items = np.unique(self.items)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[int, int, float]],
        num_users: int,
        num_items: int,
        raw_ratings: Sequence[float] | None = None,
        scale: tuple[float, float] | None = None,
    ) -> "Dataset":
        rows = list(triples)
        users = np.array([t[0] for t in rows], dtype=np.int64)
        items = np.array([t[1] for t in rows], dtype=np.int64)
        ratings = np.array([t[2] for t in rows], dtype=np.float64)
        if raw_ratings is None:
            raw = ratings.copy()
        else:
            raw = np.asarray(raw_ratings, dtype=np.float64)
        return cls(users, items, ratings, raw, num_users, num_items, scale=scale)

    def triples(self) -> list[RatingTriple]:
        return [
            RatingTriple(int(u), int(i), float(r))
            for u, i, r in zip(self.users, self.items, self.ratings)
        ]

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
    immutable value objects: equality compares length and words.
    """

    __slots__ = ("k", "words")

    def __init__(self, k: int, words: np.ndarray):
        if k < 1:
            raise ValueError("code length must be >= 1")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (words_per_code(k),):
            raise ValueError("word count does not match the code length")
        pad = words_per_code(k) * _WORD_BITS - k
        if pad and int(words[-1]) >> (_WORD_BITS - pad):
            raise ValueError("padding bits must be zero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "words", words)

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


def xor_popcount(a_words: np.ndarray, b_words: np.ndarray) -> int:
    """Number of set bits in the XOR of two word vectors."""
    return int(np.bitwise_count(np.bitwise_xor(a_words, b_words)).sum())


def similarity(a: HashCode, b: HashCode) -> float:
    """Fraction-of-matching-bits similarity, computed as 1 - d/k.

    Equals 1/2 + <a, b>/(2k) on sign vectors; the 1 - d/k form is the
    one whose float result the relaxed predictor reproduces exactly.
    """
    if a.k != b.k:
        raise LengthMismatchError(f"code lengths differ: {a.k} vs {b.k}")
    return 1.0 - xor_popcount(a.words, b.words) / a.k


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


def _batch_dots(fm: FactorMatrices, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", fm.U[users], fm.V[items])


def dch_loss(data: Dataset, fm: FactorMatrices, h: Hyperparams) -> float:
    """Squared-error objective with the balance penalty.

    sum over observed (i, j) of (r_ij - 1/2 - <u_i, v_j>/(2k))^2 plus
    lambda * (||sum of active u_i||^2 + ||sum of active v_j||^2).  The
    penalty sums are recomputed from the matrices here, not read from
    the caches, so the value is a pure function of (data, U, V).
    """
    _check_factor_shapes(data, fm, h.k)
    dot = _batch_dots(fm, data.users, data.items)
    pred = 1.0 - (h.k - dot) / (2.0 * h.k)
    resid = data.ratings - pred
    su = active_sum(fm.U, data.active_users)
    sv = active_sum(fm.V, data.active_items)
    return float(resid @ resid + h.lambda_ * (su @ su + sv @ sv))


def _check_factor_shapes(data: Dataset, fm: FactorMatrices, k: int) -> None:
    if fm.U.shape != (data.num_users, k) or fm.V.shape != (data.num_items, k):
        raise ValueError(
            f"factor shapes {fm.U.shape}/{fm.V.shape} do not match "
            f"({data.num_users}, {k})/({data.num_items}, {k})"
        )


def grad_user(
    i: int, batch: Sequence[RatingTriple], fm: FactorMatrices, h: Hyperparams
) -> np.ndarray:
    """Gradient of the objective w.r.t. user vector i over one minibatch.

    -(1/k) * sum over the user's triples of resid * v_j, plus
    2 * lambda * sum_u.  The balance term reads the cached aggregate,
    which is the trainer's (possibly stale) view of the user sum.
    """
    k = fm.k
    u = fm.U[i]
    acc = np.zeros(k, dtype=np.float64)
    for t in batch:
        if t.user != i:
            raise ValueError(f"batch contains a triple for user {t.user}, expected {i}")
        v = fm.V[t.item]
        acc += (t.rating - predict_relaxed(u, v)) * v
    return -(acc / k) + (2.0 * h.lambda_) * fm.sum_u


def grad_item(
    j: int, batch: Sequence[RatingTriple], fm: FactorMatrices, h: Hyperparams
) -> np.ndarray:
    """Item-side analogue of :func:`grad_user`."""
    k = fm.k
    v = fm.V[j]
    acc = np.zeros(k, dtype=np.float64)
    for t in batch:
        if t.item != j:
            raise ValueError(f"batch contains a triple for item {t.item}, expected {j}")
        u = fm.U[t.user]
        acc += (t.rating - predict_relaxed(u, v)) * u
    return -(acc / k) + (2.0 * h.lambda_) * fm.sum_v


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
    evaluated against this one snapshot.  Accumulation uses np.add.at,
    which applies contributions in batch order, so the result is
    reproducible for a fixed batch.

    ``objective`` selects the model: "dch" is the hashing objective (the
    regularizer reads the aggregate sums), "mf" is plain regularized
    matrix factorization (the regularizer reads each entity's own row,
    and the aggregate arguments are ignored).
    """
    inv_u = np.searchsorted(u_index, users)
    inv_i = np.searchsorted(i_index, items)
    ub = u_rows[inv_u]
    vb = v_rows[inv_i]
    dot = np.einsum("ij,ij->i", ub, vb)
    acc_u = np.zeros_like(u_rows)
    acc_v = np.zeros_like(v_rows)
    if objective == "dch":
        k = u_rows.shape[1]
        resid = ratings - (1.0 - (k - dot) / (2.0 * k))
        np.add.at(acc_u, inv_u, resid[:, None] * vb)
        np.add.at(acc_v, inv_i, resid[:, None] * ub)
        g_u = -(acc_u / k) + (2.0 * lambda_) * sum_u
        g_v = -(acc_v / k) + (2.0 * lambda_) * sum_v
    elif objective == "mf":
        resid = ratings - dot
        np.add.at(acc_u, inv_u, resid[:, None] * vb)
        np.add.at(acc_v, inv_i, resid[:, None] * ub)
        g_u = -2.0 * acc_u + (2.0 * lambda_) * u_rows
        g_v = -2.0 * acc_v + (2.0 * lambda_) * v_rows
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return g_u, g_v


def sgd_step(x: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """One descent update x - alpha * g; inputs are left untouched."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise LengthMismatchError(f"shapes differ: {x.shape} vs {g.shape}")
    return x - alpha * g


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


def round_codes(fm: FactorMatrices) -> tuple[list[HashCode], list[HashCode]]:
    """Median-threshold rounding of relaxed factors to binary codes.

    For each coordinate c the threshold is the median of column c taken
    over all users and items jointly; an entry becomes a +1 bit only if
    it is strictly greater than that median.  With an even count the
    median is the mean of the two middle order statistics.
    """
    stacked = np.concatenate([fm.U, fm.V], axis=0)
    if stacked.shape[0] == 0:
        raise ValueError("cannot round empty factor matrices")
    med = np.median(stacked, axis=0)
    user_words = pack_bit_matrix(fm.U > med)
    item_words = pack_bit_matrix(fm.V > med)
    k = fm.k
    users = [HashCode(k, row) for row in user_words]
    items = [HashCode(k, row) for row in item_words]
    return users, items


# ---------------------------------------------------------------------------
# Real-valued matrix factorization baseline


def mf_loss(data: Dataset, fm: FactorMatrices, lambda_mf: float) -> float:
    """Squared error sum (r - <u, v>)^2 plus lambda * sum of squared norms.

    The norm penalty runs over active users and items only, matching
    the entities the trainer ever updates.
    """
    _check_factor_shapes(data, fm, fm.k)
    dot = _batch_dots(fm, data.users, data.items)
    resid = data.ratings - dot
    reg_u = float(np.sum(fm.U[data.active_users] ** 2))
    reg_v = float(np.sum(fm.V[data.active_items] ** 2))
    return float(resid @ resid + lambda_mf * (reg_u + reg_v))


def mf_grad_user(
    i: int, batch: Sequence[RatingTriple], fm: FactorMatrices, lambda_mf: float
) -> np.ndarray:
    """-2 * sum of resid * v_j over the user's triples, plus 2 * lambda * u_i."""
    u = fm.U[i]
    acc = np.zeros(fm.k, dtype=np.float64)
    for t in batch:
        if t.user != i:
            raise ValueError(f"batch contains a triple for user {t.user}, expected {i}")
        v = fm.V[t.item]
        acc += (t.rating - float(np.dot(u, v))) * v
    return -2.0 * acc + (2.0 * lambda_mf) * u


def mf_grad_item(
    j: int, batch: Sequence[RatingTriple], fm: FactorMatrices, lambda_mf: float
) -> np.ndarray:
    """Item-side analogue of :func:`mf_grad_user`."""
    v = fm.V[j]
    acc = np.zeros(fm.k, dtype=np.float64)
    for t in batch:
        if t.item != j:
            raise ValueError(f"batch contains a triple for item {t.item}, expected {j}")
        u = fm.U[t.user]
        acc += (t.rating - float(np.dot(u, v))) * u
    return -2.0 * acc + (2.0 * lambda_mf) * v
