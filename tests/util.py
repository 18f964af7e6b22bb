"""Shared test helpers: synthetic datasets and independent oracles.

The finite-difference gradients here are the ground truth the analytic
gradients are checked against; they only ever call the loss functions.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from cohash.core import Dataset, FactorMatrices, Hyperparams, dch_loss, mf_loss


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


def returns_within(seconds: float, fn, *args):
    """fn(*args), failing the test if it has not returned after ``seconds``."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__} did not return in {seconds} s"
    return result[0]
