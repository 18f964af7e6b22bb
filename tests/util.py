"""Shared test helpers: synthetic datasets and independent oracles.

The finite-difference gradients here are the ground truth the analytic
gradients are checked against; they only ever call the loss functions.
The unblocked losses, the per-user ``evaluate``, the per-line
``load_ratings_loop``, the stable-argsort hash table, the unpacked-bit
distances and the unpack/pack substring split are the plain forms the blocked, column-wise or packed
product code must match bit for bit.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from cohash.core import (
    Dataset,
    FactorMatrices,
    Hyperparams,
    active_sum,
    dch_loss,
    mf_loss,
    pack_bit_matrix,
    unpack_bit_matrix,
)
from cohash.data_io import DataFormatError, EmptyDatasetError
from cohash.evaluation import EvalReport, NoEvaluableUsersError, dcg_at_k, precision_at_k
from cohash.retrieval import CodeSet, _row_keys, hamming_rank_topk, realvalued_topk


def rand_dataset(
    rng: np.random.Generator,
    num_users: int,
    num_items: int,
    n: int,
    max_stars: int = 5,
) -> Dataset:
    """Random star ratings, normalized to [0, 1] by (r - 1) / (max - 1)."""
    users = rng.integers(0, num_users, size=n)
    items = rng.integers(0, num_items, size=n)
    stars = rng.integers(1, max_stars + 1, size=n).astype(np.float64)
    ratings = (stars - 1.0) / (max_stars - 1.0)
    return Dataset(
        users, items, ratings, stars, num_users, num_items, scale=(1.0, float(max_stars))
    )


def rand_factors(
    rng: np.random.Generator, data: Dataset, k: int, half_width: float = 0.5
) -> FactorMatrices:
    """Uniform random factors with freshly computed aggregate sums."""
    U = rng.uniform(-half_width, half_width, size=(data.num_users, k))
    V = rng.uniform(-half_width, half_width, size=(data.num_items, k))
    su = U[data.active_users].sum(axis=0) if data.active_users.size else np.zeros(k)
    sv = V[data.active_items].sum(axis=0) if data.active_items.size else np.zeros(k)
    return FactorMatrices(U, V, su, sv)


def _central_diff(loss_at, x0: float, eps: float) -> float:
    return (loss_at(x0 + eps) - loss_at(x0 - eps)) / (2.0 * eps)


def fd_grad_user(
    data: Dataset, fm: FactorMatrices, h: Hyperparams, i: int, eps: float = 1e-6
) -> np.ndarray:
    """Central finite differences of the hashing loss w.r.t. user row i."""
    g = np.zeros(h.k)
    for c in range(h.k):
        orig = fm.U[i, c]

        def loss_at(x: float) -> float:
            fm.U[i, c] = x
            return dch_loss(data, fm, h)

        g[c] = _central_diff(loss_at, orig, eps)
        fm.U[i, c] = orig
    return g


def fd_grad_item(
    data: Dataset, fm: FactorMatrices, h: Hyperparams, j: int, eps: float = 1e-6
) -> np.ndarray:
    """Central finite differences of the hashing loss w.r.t. item row j."""
    g = np.zeros(h.k)
    for c in range(h.k):
        orig = fm.V[j, c]

        def loss_at(x: float) -> float:
            fm.V[j, c] = x
            return dch_loss(data, fm, h)

        g[c] = _central_diff(loss_at, orig, eps)
        fm.V[j, c] = orig
    return g


def fd_mf_grad_user(
    data: Dataset, fm: FactorMatrices, lambda_mf: float, i: int, eps: float = 1e-6
) -> np.ndarray:
    k = fm.k
    g = np.zeros(k)
    for c in range(k):
        orig = fm.U[i, c]

        def loss_at(x: float) -> float:
            fm.U[i, c] = x
            return mf_loss(data, fm, lambda_mf)

        g[c] = _central_diff(loss_at, orig, eps)
        fm.U[i, c] = orig
    return g


def fd_mf_grad_item(
    data: Dataset, fm: FactorMatrices, lambda_mf: float, j: int, eps: float = 1e-6
) -> np.ndarray:
    k = fm.k
    g = np.zeros(k)
    for c in range(k):
        orig = fm.V[j, c]

        def loss_at(x: float) -> float:
            fm.V[j, c] = x
            return mf_loss(data, fm, lambda_mf)

        g[c] = _central_diff(loss_at, orig, eps)
        fm.V[j, c] = orig
    return g


def fd_gradient_rows(
    data: Dataset, fm: FactorMatrices, lambda_: float, objective: str
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients of the "dch" or "mf" loss for every
    active user and item, one row each in ``active_users`` and
    ``active_items`` order: the rows ``minibatch_gradients`` returns when
    the whole dataset is its batch."""
    if objective == "dch":
        h = Hyperparams(k=fm.k, lambda_=lambda_)
        g_u = [fd_grad_user(data, fm, h, i) for i in data.active_users]
        g_v = [fd_grad_item(data, fm, h, j) for j in data.active_items]
    else:
        g_u = [fd_mf_grad_user(data, fm, lambda_, i) for i in data.active_users]
        g_v = [fd_mf_grad_item(data, fm, lambda_, j) for j in data.active_items]
    return np.reshape(g_u, (-1, fm.k)), np.reshape(g_v, (-1, fm.k))


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative error with an absolute floor so near-zero entries compare sanely."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.linalg.norm(exact)), 1e-8)
    return float(np.linalg.norm(approx - exact)) / denom


def project_vector_loop(x: np.ndarray, gamma: float) -> np.ndarray:
    """The ball projection of one finite vector, written as the plain
    rescale loop: the oracle for the row-wise ``core.project``."""
    radius = 1.0 / math.sqrt(gamma)
    out = x
    while True:
        norm = float(np.linalg.norm(out))
        if norm <= radius or radius / norm >= 1.0:
            return out
        out = out * (radius / norm)


def load_ratings_loop(path, fmt: str = "tsv", scale=(1.0, 5.0)) -> Dataset:
    """The per-line ratings parser, kept as the oracle for the column-wise
    ``data_io.load_ratings``: same arrays, labels and error text."""
    lo, hi = float(scale[0]), float(scale[1])
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    raw: list[float] = []

    def add(user_label: str, item_label: str, value_text: str, lineno: int) -> None:
        try:
            value = float(value_text)
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: rating {value_text!r} is not a number") from None
        if not lo <= value <= hi:
            raise DataFormatError(
                f"{path}:{lineno}: rating {value} outside scale [{lo}, {hi}]")
        users.append(user_index.setdefault(user_label, len(user_index)))
        items.append(item_index.setdefault(item_label, len(item_index)))
        raw.append(value)

    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "tsv":
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(fields)}")
                add(fields[0], fields[1], fields[2], lineno)
        else:
            movie = None
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.endswith(":"):
                    movie = line[:-1]
                    if not movie:
                        raise DataFormatError(f"{path}:{lineno}: empty movie id")
                    continue
                if movie is None:
                    raise DataFormatError(
                        f"{path}:{lineno}: rating row before any movie header")
                fields = line.split(",")
                if len(fields) < 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 'user,rating[,date]'")
                add(fields[0], movie, fields[1], lineno)

    if not users:
        raise EmptyDatasetError(f"{path}: no ratings found")
    raw_arr = np.array(raw, dtype=np.float64)
    return Dataset(
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        (raw_arr - lo) / (hi - lo),
        raw_arr,
        num_users=len(user_index),
        num_items=len(item_index),
        scale=(lo, hi),
        user_labels=list(user_index),
        item_labels=list(item_index),
    )


def returns_within(seconds: float, fn, *args):
    """fn(*args), failing the test if it has not returned after ``seconds``."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__} did not return in {seconds} s"
    return result[0]


def batch_dots_unblocked(fm: FactorMatrices, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """All rating dots in one einsum over the two full-length gathers."""
    return np.einsum("ij,ij->i", fm.U[users], fm.V[items])


def dch_loss_unblocked(data: Dataset, fm: FactorMatrices, h: Hyperparams) -> float:
    """``core.dch_loss`` written over :func:`batch_dots_unblocked`."""
    dot = batch_dots_unblocked(fm, data.users, data.items)
    pred = 1.0 - (h.k - dot) / (2.0 * h.k)
    resid = data.ratings - pred
    su = active_sum(fm.U, data.active_users)
    sv = active_sum(fm.V, data.active_items)
    return float(resid @ resid + h.lambda_ * (su @ su + sv @ sv))


def mf_loss_unblocked(data: Dataset, fm: FactorMatrices, lambda_mf: float) -> float:
    """``core.mf_loss`` written over :func:`batch_dots_unblocked`."""
    resid = data.ratings - batch_dots_unblocked(fm, data.users, data.items)
    reg_u = float(np.sum(fm.U[data.active_users] ** 2))
    reg_v = float(np.sum(fm.V[data.active_items] ** 2))
    return float(resid @ resid + lambda_mf * (reg_u + reg_v))


def evaluate_per_user(
    user_repr, item_repr, train, test, ks, model="model"
) -> EvalReport:
    """``evaluation.evaluate`` as one ranking call and one metric call per
    user, with dicts and sets built from the triples in Python."""
    ks = sorted(set(int(k) for k in ks))
    codes_in = isinstance(user_repr, CodeSet)
    if not codes_in:
        user_repr = np.asarray(user_repr, dtype=np.float64)
        item_repr = np.asarray(item_repr, dtype=np.float64)
    if test.scale is not None:
        positive_rating = float(test.scale[1])
    elif len(test):
        positive_rating = float(test.raw_ratings.max())
    else:
        raise NoEvaluableUsersError("empty test set")

    by_user: dict[int, dict[int, float]] = {}
    for u, i, raw in zip(test.users, test.items, test.raw_ratings):
        by_user.setdefault(int(u), {})[int(i)] = float(raw)
    if not by_user:
        raise NoEvaluableUsersError("no user has a test interaction")
    seen_by_user: dict[int, set[int]] = {}
    if train is not None:
        for u, i in zip(train.users, train.items):
            seen_by_user.setdefault(int(u), set()).add(int(i))

    max_k = ks[-1]
    prec_sums = {k: 0.0 for k in ks}
    dcg_sums = {k: 0.0 for k in ks}
    for u in sorted(by_user):
        ratings = by_user[u]
        seen = seen_by_user.get(u, set())
        kk = max_k + len(seen)
        if codes_in:
            pairs = hamming_rank_topk(user_repr.codes[u], item_repr, kk)
        else:
            pairs = realvalued_topk(user_repr[u], item_repr, kk)
        ranked = [p for p, _ in pairs if p not in seen][:max_k]
        positives = {i for i, r in ratings.items() if r == positive_rating}
        for k in ks:
            prec_sums[k] += precision_at_k(ranked, positives, k)
            dcg_sums[k] += dcg_at_k(ranked, ratings, k)
    n_users = len(by_user)
    return EvalReport(
        model=model,
        users_evaluated=n_users,
        precision={k: prec_sums[k] / n_users for k in ks},
        dcg={k: dcg_sums[k] / n_users for k in ks},
    )


def hash_index_by_argsort(words: np.ndarray) -> dict[str, np.ndarray]:
    """The arrays of ``retrieval.HashIndex`` built by one stable argsort
    of the row keys: the oracle for its packed key-and-position sort."""
    keys = _row_keys(words)
    positions_by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[positions_by_key]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    bucket_starts = np.concatenate([[0], boundaries])
    return {
        "positions_by_key": positions_by_key,
        "unique_keys": sorted_keys[bucket_starts],
        "bucket_starts": bucket_starts,
        "bucket_ends": np.concatenate([boundaries, [len(keys)]]),
    }


def distances_by_bits(words: np.ndarray, k: int, query_words: np.ndarray) -> np.ndarray:
    """Hamming distances from one k-bit code to each row of a word
    matrix, by comparing unpacked bits: the oracle for the packed scans."""
    bits = unpack_bit_matrix(words, k)
    return np.sum(bits != unpack_bit_matrix(query_words[None, :], k), axis=1)


def split_by_bits(words: np.ndarray, k: int, boundaries) -> list[np.ndarray]:
    """Each [lo, hi) span of the k-bit code words, unpacked to bits and
    packed again as its own word rows: the oracle for
    ``MultiIndex._split``."""
    bits = unpack_bit_matrix(words, k)
    return [pack_bit_matrix(bits[:, lo:hi]) for lo, hi in boundaries]
