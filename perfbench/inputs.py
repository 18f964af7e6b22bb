"""Workload inputs, made only from the workload seed.

The generators here use NumPy alone, never cohash, so every version of
the program under test receives the same files and arrays for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Parity-size planted corpus: 943 users x 1682 items, 100k ratings.
NUM_USERS = 943
NUM_ITEMS = 1682
NUM_RATINGS = 100_000
K_TRUE = 4
AFFINITY = 6.0
GAIN = 2.0
NOISE = 0.1

# Serving catalog: 200k 32-bit item codes around planted centres.
CATALOG_ITEMS = 200_000
CATALOG_K = 32
CATALOG_CENTRES = 2_000
CATALOG_USERS = 2_000
ITEM_FLIP_P = 0.03
USER_FLIP_P = 0.02
SEEN_PER_USER = 20


def write_ratings_tsv(path: Path, seed: int) -> int:
    """Write a planted star-rating corpus as TSV; returns the line count.

    Users and items carry hidden sign codes; cells are drawn without
    replacement with weight exp(affinity * signed similarity) (Gumbel
    top-k), scored by code agreement pushed away from 1/2 by the gain,
    jittered, and quantized onto 1..5 stars.
    """
    rng = np.random.default_rng([seed, 1])
    u_codes = rng.choice([-1.0, 1.0], size=(NUM_USERS, K_TRUE))
    v_codes = rng.choice([-1.0, 1.0], size=(NUM_ITEMS, K_TRUE))
    signed = (u_codes @ v_codes.T).ravel() / K_TRUE
    keys = AFFINITY * signed - np.log(-np.log(rng.random(signed.size)))
    flat = np.argpartition(-keys, NUM_RATINGS - 1)[:NUM_RATINGS]
    users, items = flat // NUM_ITEMS, flat % NUM_ITEMS
    agree = np.einsum("ij,ij->i", u_codes[users], v_codes[items]) / (2.0 * K_TRUE)
    score = np.clip(0.5 + GAIN * agree + rng.normal(0.0, NOISE, NUM_RATINGS), 0.0, 1.0)
    stars = (1 + np.rint(score * 4)).astype(np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"u{u}\ti{i}\t{s}\n" for u, i, s in zip(users, items, stars)))
    return NUM_RATINGS


@dataclass
class Catalog:
    """Packed 32-bit codes (one uint64 word per row) plus request inputs."""

    item_words: np.ndarray   # (CATALOG_ITEMS, 1) uint64
    user_words: np.ndarray   # (CATALOG_USERS, 1) uint64
    seen: list[np.ndarray]   # per user, SEEN_PER_USER item positions


def _flip_words(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    bits = (rng.random((n, CATALOG_K)) < p).astype(np.uint64)
    return (bits << np.arange(CATALOG_K, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def make_catalog(seed: int) -> Catalog:
    """Items and users scattered by random bit flips around shared centres.

    Uniform codes at K=32 would leave almost every radius-2 ball empty;
    around planted centres each ball holds tens of items, so the lookup
    engines do real work.  Half of each user's seen items come from the
    user's own centre, so exclusion removes items the ranking would
    otherwise return.
    """
    rng = np.random.default_rng([seed, 2])
    centres = rng.integers(0, 1 << CATALOG_K, size=CATALOG_CENTRES, dtype=np.uint64)
    item_centre = rng.integers(0, CATALOG_CENTRES, size=CATALOG_ITEMS)
    user_centre = rng.integers(0, CATALOG_CENTRES, size=CATALOG_USERS)
    item_words = centres[item_centre] ^ _flip_words(rng, CATALOG_ITEMS, ITEM_FLIP_P)
    user_words = centres[user_centre] ^ _flip_words(rng, CATALOG_USERS, USER_FLIP_P)
    members = np.argsort(item_centre, kind="stable")
    starts = np.searchsorted(item_centre[members], np.arange(CATALOG_CENTRES + 1))
    seen = []
    half = SEEN_PER_USER // 2
    for c in user_centre:
        own = members[starts[c]:starts[c + 1]]
        near = rng.choice(own, size=min(half, own.size), replace=False)
        far = rng.choice(CATALOG_ITEMS, size=SEEN_PER_USER - near.size, replace=False)
        seen.append(np.unique(np.concatenate([near, far])))
    return Catalog(item_words[:, None], user_words[:, None], seen)
