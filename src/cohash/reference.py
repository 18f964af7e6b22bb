"""Plain single-threaded SGD trainer used as a correctness oracle.

No servers, no messages, no locks: one loop owns the factor matrices
and walks the exact schedule the parameter-server runtime is supposed
to simulate (same partition, same per-pass shuffles, same barrier
cadence, same update arithmetic).  With W=1 and P=1 the runtime must
reproduce this trainer bit for bit; the tests hold it to that.

The numerical kernel (the x - alpha * g update, projection, aggregate
recompute, and the gradient kernel, which this loop reaches through the
public minibatch_gradients and the runtime through indexed_gradients
beneath it) is shared with the runtime on purpose: what this oracle
pins down independently is the scheduling and the aggregate
bookkeeping, not the float arithmetic: the finite-difference tests call
minibatch_gradients itself and compare every row it returns with
central differences of the losses.  It still finds each batch's rows
with its own np.unique per batch, against which the runtime's epoch
plan is checked.  Like the runtime it keeps U and V as dense matrices,
steps a batch's rows in one vectorized update and projects whole
matrices with core.project.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cohash.core import (
    Dataset,
    FactorMatrices,
    Hyperparams,
    active_sum,
    dch_loss,
    init_factors,
    mf_loss,
    minibatch_gradients,
    project,
)
from cohash.runtime import has_converged, partition_data

__all__ = ["ReferenceRun", "train_reference"]


@dataclass
class ReferenceRun:
    factors: FactorMatrices
    losses: list[float]
    converged: bool


class _Stream:
    """Reshuffled passes over one shard; batches wrap across passes."""

    def __init__(self, data: Dataset, shard: np.ndarray, worker: int, seed: int):
        self._data = data
        self._shard = shard
        self._worker = worker
        self._seed = seed
        self._pass = 0
        self._pos = 0
        self._order = self._permute()

    def _permute(self) -> np.ndarray:
        ss = np.random.SeedSequence(self._seed, spawn_key=(1, self._worker, self._pass))
        return self._shard[np.random.default_rng(ss).permutation(self._shard.size)]

    def take(self, b: int) -> np.ndarray:
        parts = []
        need = b
        while need > 0:
            chunk = self._order[self._pos : self._pos + need]
            parts.append(chunk)
            self._pos += chunk.size
            need -= chunk.size
            if self._pos >= self._order.size:
                self._pass += 1
                self._pos = 0
                self._order = self._permute()
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _step(matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray,
          alpha: float, total: np.ndarray) -> np.ndarray:
    """x - alpha * g on matrix[rows] in place; returns ``total`` plus each
    row's (new - old) delta, added one at a time in row order."""
    old = matrix[rows]
    matrix[rows] = old - alpha * grads
    return np.add.accumulate(np.vstack([total, matrix[rows] - old]))[-1]


def train_reference(
    data: Dataset,
    h: Hyperparams,
    *,
    objective: str = "dch",
    stop_on_convergence: bool = True,
) -> ReferenceRun:
    """Sequential trainer with the runtime's schedule and arithmetic.

    Workers take turns round-robin, P operations each per period, with
    the projection, exact aggregate recompute and loss recording at
    every period boundary.  Per-entity updates inside one operation
    apply users in ascending id order, then items, and the aggregate
    sums absorb each vector's (new - old) delta in that same order.
    """
    if objective not in ("dch", "mf"):
        raise ValueError(f"unknown objective {objective!r}")
    fm = init_factors(data, h)
    U, V = fm.U, fm.V
    sum_u, sum_v = fm.sum_u.copy(), fm.sum_v.copy()
    shards = partition_data(data, h.workers, h.seed)
    streams = [_Stream(data, shards[w], w, h.seed) for w in range(h.workers)]
    max_shard = max(s.size for s in shards)
    ops_per_epoch = -(-max_shard // h.batch_size)
    periods = -(-(h.epochs * ops_per_epoch) // h.staleness)

    losses: list[float] = []
    converged = False
    for _period in range(periods):
        for _p in range(h.staleness):
            for w in range(h.workers):
                idx = streams[w].take(h.batch_size)
                uu, ii, rr = data.users[idx], data.items[idx], data.ratings[idx]
                u_index = np.unique(uu)
                i_index = np.unique(ii)
                g_u, g_v = minibatch_gradients(
                    uu, ii, rr, U[u_index], V[i_index], u_index, i_index,
                    sum_u, sum_v, h.lambda_, objective=objective,
                )
                sum_u = _step(U, u_index, g_u, h.alpha, sum_u)
                sum_v = _step(V, i_index, g_v, h.alpha, sum_v)
        if objective == "dch":
            U = project(U, h.gamma)
            V = project(V, h.gamma)
        sum_u = active_sum(U, data.active_users)
        sum_v = active_sum(V, data.active_items)
        snapshot = FactorMatrices(U, V, sum_u, sum_v)
        if objective == "dch":
            losses.append(dch_loss(data, snapshot, h))
        else:
            losses.append(mf_loss(data, snapshot, h.lambda_))
        if stop_on_convergence and has_converged(losses):
            converged = True
            break
    return ReferenceRun(FactorMatrices(U, V, sum_u, sum_v), losses, converged)
