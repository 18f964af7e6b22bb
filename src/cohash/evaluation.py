"""Dataset splitting, ranking metrics, and model comparison.

Rankings are produced per user over the full item set minus the items
that user rated in training; users with no test interactions are
skipped, and the reported numbers are macro-averages over the users
that remain.  Positives for Precision@k are the test items whose raw
rating equals the scale maximum (5 on a 1-5 star scale, 1 on binary
data).  DCG uses raw ratings and a base-2 log discount.

``evaluate`` hands blocks of users to ``cohash.retrieval``'s block
ranker, which owns the ranking order that ``hamming_rank_topk`` and
``realvalued_topk`` serve.  Here are the split, the seen items, the
blocks and the metric arithmetic of ``precision_at_k`` and ``dcg_at_k``,
so the reports equal a per-user loop over those calls bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cohash.core import Dataset, Hyperparams, LengthMismatchError, _check_int
from cohash.retrieval import CodeSet, _block_topk
from cohash.runtime import run_training

__all__ = [
    "SplitSpec",
    "EvalReport",
    "NoEvaluableUsersError",
    "split",
    "precision_at_k",
    "dcg_at_k",
    "evaluate",
    "run_variance",
]


class NoEvaluableUsersError(ValueError):
    """The test set contains no user with at least one interaction."""


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction and seed for a reproducible uniform split."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")
        _check_int("seed", self.seed, 0)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Uniform random split of the triples into train and test sets.

    The two parts are disjoint, cover the data, and keep the original
    row order internally; the same spec always produces the same split.
    """
    n = len(data)
    n_train = int(round(spec.train_fraction * n))
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(3,)))
    perm = rng.permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return data.subset(train_idx), data.subset(test_idx)


def precision_at_k(ranked: Sequence[int], positives: set, k: int) -> float:
    """Fraction of the first k ranked items that are positives."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(ranked):
        return 0.0
    hits = sum(1 for item in ranked[:k] if item in positives)
    return hits / k


def dcg_at_k(ranked: Sequence[int], ratings: Mapping[int, float], k: int) -> float:
    """Sum of (2^r_i - 1) / log2(i + 1) over the first k ranked items.

    r_i is the raw test rating of the item at rank i (1-based); items
    the user never rated contribute zero gain.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = 0.0
    for rank, item in enumerate(ranked[:k], start=1):
        r = ratings.get(item, 0.0)
        if r:
            total += (2.0 ** r - 1.0) / np.log2(rank + 1)
    return float(total)


@dataclass
class EvalReport:
    """Macro-averaged ranking metrics for one model."""

    model: str
    users_evaluated: int
    precision: dict[int, float]
    dcg: dict[int, float]

    def __post_init__(self) -> None:
        for k, v in self.precision.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"Precision@{k} out of range: {v}")
        for k, v in self.dcg.items():
            if v < 0.0:
                raise ValueError(f"DCG@{k} negative: {v}")

    def rows(self) -> list[tuple[str, str, int, float]]:
        """One (model, metric, k, value) row per metric, for CSV/JSON."""
        out = [(self.model, "precision", k, v) for k, v in sorted(self.precision.items())]
        out += [(self.model, "dcg", k, v) for k, v in sorted(self.dcg.items())]
        return out


# Users ranked per block: a block's (users, items) key matrix holds
# about this many entries, so its temporaries stay at a few MB.
_BLOCK_ENTRIES = 1 << 18


def _pair_keys(users: np.ndarray, items: np.ndarray, stride: int) -> np.ndarray:
    return users.astype(np.int64) * stride + items


def evaluate(
    user_repr,
    item_repr,
    train: Dataset | None,
    test: Dataset,
    ks: Sequence[int],
    model: str = "model",
) -> EvalReport:
    """Rank every evaluable user's candidates and macro-average the metrics.

    ``user_repr`` / ``item_repr`` are either two CodeSets (Hamming
    ranking) or two factor matrices (dot-product ranking).  Candidates
    are all items except the user's training items.  A test rating is
    positive when it equals the test set's declared scale maximum, or
    without a scale the largest raw rating present.  When a (user, item)
    pair occurs more than once in the test set, its last rating counts.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("ks must contain positive ranks")
    codes_in = isinstance(user_repr, CodeSet)
    if codes_in != isinstance(item_repr, CodeSet):
        raise TypeError("user and item representations must both be codes or both vectors")
    if codes_in:
        if user_repr.k != item_repr.k:
            raise LengthMismatchError(f"code lengths differ: {user_repr.k} vs {item_repr.k}")
    else:
        user_repr = np.asarray(user_repr, dtype=np.float64)
        item_repr = np.asarray(item_repr, dtype=np.float64)
        if (user_repr.ndim != 2 or item_repr.ndim != 2
                or user_repr.shape[1] != item_repr.shape[1]):
            raise LengthMismatchError("query and item vectors must share one length")

    if not len(test):
        raise NoEvaluableUsersError("no user has a test interaction")
    positive_rating = float(test.raw_ratings.max() if test.scale is None else test.scale[1])

    # test pairs grouped by user (then item), keeping the last rating
    # of a repeated pair
    n_items = len(item_repr)
    stride = max(n_items, test.num_items, train.num_items if train is not None else 0)
    test_keys = _pair_keys(test.users, test.items, stride)
    order = np.argsort(test_keys, kind="stable")
    test_keys = test_keys[order]
    last = np.append(test_keys[1:] != test_keys[:-1], True)
    test_keys = test_keys[last]
    raw = test.raw_ratings[order[last]]
    positive = raw == positive_rating
    # gains and discounts come from the scalar calls dcg_at_k makes
    levels, level_of = np.unique(raw, return_inverse=True)
    gain = np.array([2.0 ** float(r) - 1.0 for r in levels])[level_of]
    users = np.unique(test.users)
    if users[-1] >= len(user_repr):
        raise LengthMismatchError(
            f"the test set needs {users[-1] + 1} user rows, got {len(user_repr)}")

    seen_keys = (np.empty(0, dtype=np.int64) if train is None
                 else _pair_keys(train.users, train.items, stride))
    # like test items, seen items outside the item set are never ranked
    seen_users, seen_items = np.divmod(np.sort(seen_keys[seen_keys % stride < n_items]), stride)

    max_k = ks[-1]
    width = min(max_k, n_items)
    discount = np.array([np.log2(rank + 1) for rank in range(1, width + 1)])
    precision = {k: np.empty(users.shape[0]) for k in ks}
    dcg = {k: np.empty(users.shape[0]) for k in ks}
    block = max(1, _BLOCK_ENTRIES // n_items)
    for start in range(0, users.shape[0], block):
        bu = users[start:start + block]
        lo, hi = np.searchsorted(seen_users, [bu[0], bu[-1] + 1])
        row = np.searchsorted(bu, seen_users[lo:hi])
        hit = bu[row] == seen_users[lo:hi]
        top, unseen = _block_topk(user_repr, item_repr, bu, row[hit], seen_items[lo:hi][hit], max_k)
        pair = _pair_keys(bu[:, None], top, stride)
        at = np.minimum(np.searchsorted(test_keys, pair), test_keys.shape[0] - 1)
        rated = unseen & (test_keys[at] == pair)
        hits = np.cumsum(rated & positive[at], axis=1)
        terms = np.where(rated, gain[at], 0.0) / discount
        totals = [np.zeros(bu.shape[0])]
        for column in terms.T:  # in rank order, as dcg_at_k adds
            totals.append(totals[-1] + column)
        for k in ks:
            depth = min(k, width)
            precision[k][start:start + block] = hits[:, depth - 1] / k
            dcg[k][start:start + block] = totals[depth]
    n_users = users.shape[0]
    # np.add.accumulate adds in sequence, user after user
    return EvalReport(
        model=model,
        users_evaluated=n_users,
        precision={k: float(np.add.accumulate(precision[k])[-1] / n_users) for k in ks},
        dcg={k: float(np.add.accumulate(dcg[k])[-1] / n_users) for k in ks},
    )


def run_variance(
    data: Dataset,
    h: Hyperparams,
    seeds: Sequence[int],
    objective: str = "dch",
) -> np.ndarray:
    """Across-seed sample variance of the training-loss trace.

    Trains once per seed with convergence stopping disabled so traces
    align barrier-for-barrier; traces are truncated to the shortest one
    and the variance at each barrier uses the n-1 denominator.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds")
    traces = []
    for s in seeds:
        r = run_training(
            data,
            dataclasses.replace(h, seed=int(s)),
            objective=objective,
            stop_on_convergence=False,
            make_codes=False,
        )
        traces.append(r.losses)
    length = min(len(t) for t in traces)
    stacked = np.array([t[:length] for t in traces], dtype=np.float64)
    # shift by one trace so identical runs give exactly zero variance
    return (stacked - stacked[0]).var(axis=0, ddof=1)
