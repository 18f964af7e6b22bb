"""Synthetic data generators for benchmarks and end-to-end checks.

Three flavors: random codes (retrieval benchmarks), star ratings planted
on latent sign codes (so hashing models have recoverable structure), and
sparse binary interactions shaped like implicit-feedback logs.
"""

from __future__ import annotations

import numpy as np

from cohash.core import Dataset, pack_bit_matrix
from cohash.retrieval import CodeSet

__all__ = ["random_codes", "planted_dataset", "implicit_dataset"]


def random_codes(count: int, k: int, seed: int = 0) -> CodeSet:
    """Uniform random K-bit codes, one per entity."""
    if count < 1 or k < 1:
        raise ValueError(f"need count >= 1 and k >= 1, got {count}, {k}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, k), dtype=np.uint8)
    return CodeSet.from_words(pack_bit_matrix(bits), k)


def planted_dataset(
    num_users: int,
    num_items: int,
    num_ratings: int,
    k_true: int = 10,
    seed: int = 0,
    noise: float = 0.05,
    gain: float = 2.0,
    affinity: float = 0.0,
    scale: tuple[float, float] = (1.0, 5.0),
) -> Dataset:
    """Star ratings derived from hidden sign codes.

    Each user and item gets a latent code in {-1, +1}^k_true; a sampled
    (user, item) cell is scored by the code similarity 1 - d/k, pushed
    away from 0.5 by `gain`, jittered by gaussian `noise`, clipped to
    [0, 1], and quantized onto the star scale.  Cells are sampled
    without replacement so no pair repeats.

    `affinity` biases which cells get rated: selection weight is
    exp(affinity * signed similarity), so positive values concentrate
    ratings on strongly matched (and strongly mismatched) pairs the way
    people rate what they chose to watch.  Zero keeps sampling uniform.
    """
    cells = num_users * num_items
    if num_ratings > cells:
        raise ValueError(f"cannot place {num_ratings} ratings in {cells} cells")
    rng = np.random.default_rng(seed)
    u_codes = rng.choice([-1.0, 1.0], size=(num_users, k_true))
    v_codes = rng.choice([-1.0, 1.0], size=(num_items, k_true))
    if affinity == 0.0:
        flat = rng.choice(cells, size=num_ratings, replace=False)
    else:
        # Gumbel top-k draws num_ratings cells without replacement with
        # probability proportional to exp(affinity * uv / k)
        signed = (u_codes @ v_codes.T).ravel() / k_true
        gumbel = -np.log(-np.log(rng.random(cells)))
        keys = affinity * signed + gumbel
        flat = np.argpartition(-keys, num_ratings - 1)[:num_ratings]
    users = (flat // num_items).astype(np.int64)
    items = (flat % num_items).astype(np.int64)
    sim = 0.5 + (np.einsum("ij,ij->i", u_codes[users], v_codes[items])
                 / (2.0 * k_true)) * gain
    sim = np.clip(sim + rng.normal(0.0, noise, size=num_ratings), 0.0, 1.0)
    lo, hi = float(scale[0]), float(scale[1])
    levels = hi - lo
    raw = lo + np.rint(sim * levels)
    normalized = (raw - lo) / levels
    return Dataset(users, items, normalized, raw,
                   num_users=num_users, num_items=num_items, scale=(lo, hi))


def implicit_dataset(
    num_users: int,
    num_items: int,
    density: float = 0.0004,
    seed: int = 0,
) -> Dataset:
    """Binary interactions sampled at the given density; every rating is 1.

    Density 4e-4 mirrors large payment-style logs; the scale is (0, 1)
    so the single observed value normalizes to 1.0.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    cells = num_users * num_items
    count = max(1, int(round(cells * density)))
    rng = np.random.default_rng(seed)
    flat = rng.choice(cells, size=count, replace=False)
    users = (flat // num_items).astype(np.int64)
    items = (flat % num_items).astype(np.int64)
    ones = np.ones(count, dtype=np.float64)
    return Dataset(users, items, ones, ones.copy(),
                   num_users=num_users, num_items=num_items, scale=(0.0, 1.0))
