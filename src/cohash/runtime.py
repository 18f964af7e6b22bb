"""Simulated parameter server running asynchronous minibatch SGD.

Three roles, all in one process: a coordinator that owns barrier state
and holds the factor matrices U and V as dense arrays; worker loops
that pull the rows of a minibatch and push their gradients back; and
server shards.  A shard is a lock and a logical clock over the rows of
U and V it owns, placed by crc32 of "kind:index" mod S; each of the two
aggregate sums is owned by one shard the same way.  A pull copies the
batch's rows under each touched shard's lock, and a push steps them
shard by shard and forwards the (new - old) deltas to the owners of the
aggregates.

Workers plan each epoch once: when a worker has no planned op left it
draws the next epoch's batches from its stream and, with one sort per
side for every op at once, computes each op's unique users and items
grouped by owning shard, each rating's row among them, and the op's
routes: a route is a shard and a pair of slices, one over the op's
users and one over its items.  An op is then one step, the same in
both execution modes: pull, gradient kernel, push, and a count of the
op as done, which the staleness record reads.

The staleness knob P is the number of SGD operations each worker runs
between synchronization barriers; P=1 degenerates to synchronous SGD.
All workers meet at every barrier, so that alone bounds the op-count
skew between any two workers to P-1.  At a barrier all in-flight
gradients have been applied, every row of U and V is projected into the
radius-1/sqrt(gamma) ball, the aggregate sums are recomputed exactly,
and the training loss is recorded.

Two execution modes share every code path that touches numbers:
"serial" runs workers round-robin on the calling thread and is bit-for-
bit reproducible, "threads" runs real worker threads with per-shard
locks.  Gradients are applied to the live server state immediately on
receipt; there is no cross-worker averaging.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from cohash.core import (
    Dataset,
    FactorMatrices,
    Hyperparams,
    _dch_loss_on_sums,
    active_sum,
    indexed_gradients,
    init_factors,
    mf_loss,
    project,
    round_words,
)
from cohash.retrieval import CodeSet

__all__ = [
    "ServerShard",
    "TrainResult",
    "DivergenceError",
    "partition_data",
    "shard_of",
    "has_converged",
    "run_training",
    "CONVERGENCE_WINDOW",
    "CONVERGENCE_TOL",
    "DIVERGENCE_FACTOR",
]

CONVERGENCE_WINDOW = 5
CONVERGENCE_TOL = 1e-5
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Training loss turned non-finite or blew past DIVERGENCE_FACTOR
    times its initial value."""

    def __init__(self, message: str, losses: list[float]):
        super().__init__(message)
        self.losses = losses


def shard_of(kind: str, index: int, num_shards: int) -> int:
    """Stable shard assignment: crc32 of "kind:index", mod S.

    ``kind`` is "user" or "item" for a row of U or V, and "aggregate-u"
    or "aggregate-v" (index 0) for an aggregate sum.  crc32 rather than
    the builtin hash so placement does not move between interpreter runs.
    """
    return zlib.crc32(f"{kind}:{index}".encode()) % num_shards


class ServerShard:
    """A lock and a logical clock over the rows of U and V it owns.

    The clock counts applied updates: one per row stepped and one per
    delta absorbed into an aggregate sum the shard owns.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.clock = 0


def _step_rows(matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray,
               alpha: float) -> np.ndarray:
    """x - alpha * g on matrix[rows] in place; returns the (new - old) rows."""
    old = matrix[rows]
    new = old - alpha * grads
    matrix[rows] = new
    return new - old


def _absorb(total: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """``total`` plus each delta row in turn, left to right: the same
    sequential adds, bit for bit, as ``total = total + d`` in a loop."""
    return np.add.accumulate(np.vstack([total, deltas]))[-1]


@dataclass
class TrainResult:
    factors: FactorMatrices
    losses: list[float]
    wall_clock_ms: list[float]
    converged: bool
    barriers: int
    ops_per_worker: int
    objective: str
    user_codes: CodeSet | None = None
    item_codes: CodeSet | None = None
    staleness_max: int = 0
    # applied row updates per ("user", i) or ("item", j); rows never
    # updated are left out
    update_counts: dict[tuple[str, int], int] = field(default_factory=dict)


def partition_data(data: Dataset, workers: int, seed: int = 0) -> list[np.ndarray]:
    """Split triple indices into W disjoint shards of near-equal size.

    Sizes differ by at most one.  W=1 returns the identity ordering;
    otherwise a seeded permutation is dealt round-robin, so the split
    depends only on (seed, |data|, W).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = len(data)
    if workers > n:
        raise ValueError(f"cannot split {n} triples across {workers} workers")
    if workers == 1:
        return [np.arange(n, dtype=np.int64)]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    perm = rng.permutation(n).astype(np.int64)
    return [perm[w::workers] for w in range(workers)]


def has_converged(losses: Sequence[float]) -> bool:
    """True when the loss moved < CONVERGENCE_TOL (relatively) across the
    last CONVERGENCE_WINDOW barriers, i.e. over the trailing window+1
    recorded values."""
    if len(losses) < CONVERGENCE_WINDOW + 1:
        return False
    tail = losses[-(CONVERGENCE_WINDOW + 1):]
    spread = max(tail) - min(tail)
    scale = max(abs(tail[-1]), 1e-12)
    return spread / scale < CONVERGENCE_TOL


class _WorkerStream:
    """Deterministic minibatch source over one worker's shard.

    Each pass over the shard is a fresh seeded permutation, appended to
    the rest of the drawn passes only when a draw needs its first index;
    a draw of b takes the first b indices of that rest, wrapping across
    passes.  The sequence depends only on (seed, worker, shard), never
    on scheduling or on how the draws are chunked.
    """

    def __init__(self, data: Dataset, shard: np.ndarray, worker: int, seed: int):
        if shard.size == 0:
            raise ValueError("worker shard must not be empty")
        self._data = data
        self._shard = shard
        self._worker = worker
        self._seed = seed
        self._pass = 0  # passes drawn so far
        self._rest = shard[:0]

    def _permute(self) -> np.ndarray:
        ss = np.random.SeedSequence(self._seed, spawn_key=(1, self._worker, self._pass))
        return self._shard[np.random.default_rng(ss).permutation(self._shard.size)]

    def next_batch(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        while self._rest.size < b:
            self._rest = np.concatenate([self._rest, self._permute()])
            self._pass += 1
        idx, self._rest = self._rest[:b], self._rest[b:]
        return self._data.users[idx], self._data.items[idx], self._data.ratings[idx]


# One shard's part of an op: the shard, then its slices of the op's
# u_index and i_index.
_Route = tuple[ServerShard, slice, slice]


class _Op(NamedTuple):
    """One planned SGD operation.  ``u_index`` holds the op's unique
    users grouped by owning shard, ascending within a group, and rating
    n of the batch reads row ``inv_u[n]`` of it; ``i_index`` and
    ``inv_i`` likewise for items.  Each route is a shard and its slices
    of ``u_index`` and ``i_index``."""

    ratings: np.ndarray
    inv_u: np.ndarray
    inv_i: np.ndarray
    u_index: np.ndarray
    i_index: np.ndarray
    routes: list[_Route]


class _Coordinator:
    """Owns barrier state, shards, the factor matrices and the loss trace."""

    def __init__(
        self,
        data: Dataset,
        h: Hyperparams,
        objective: str,
        stop_on_convergence: bool,
    ):
        if objective not in ("dch", "mf"):
            raise ValueError(f"unknown objective {objective!r}")
        self.data = data
        self.h = h
        self.objective = objective
        self.stop_on_convergence = stop_on_convergence

        fm = init_factors(data, h)
        self.U, self.V, self.sum_u, self.sum_v = fm.U, fm.V, fm.sum_u, fm.sum_v
        # init_factors' sums are the exact active sums
        self.initial_loss = self._loss()
        s = h.servers
        self.shards = [ServerShard() for _ in range(s)]
        if s == 1:
            # every key's crc32 mod 1 is 0
            self.user_owner = np.zeros(data.num_users, dtype=np.intp)
            self.item_owner = np.zeros(data.num_items, dtype=np.intp)
        else:
            self.user_owner = np.array(
                [shard_of("user", i, s) for i in range(data.num_users)], dtype=np.intp)
            self.item_owner = np.array(
                [shard_of("item", j, s) for j in range(data.num_items)], dtype=np.intp)
        self.agg_u_shard = self.shards[shard_of("aggregate-u", 0, s)]
        self.agg_v_shard = self.shards[shard_of("aggregate-v", 0, s)]
        self.user_updates = np.zeros(data.num_users, dtype=np.int64)
        self.item_updates = np.zeros(data.num_items, dtype=np.int64)

        self.losses: list[float] = []
        self.wall_clock_ms: list[float] = []
        self._t0 = time.monotonic()
        self.completed = [0] * h.workers
        self.staleness_max = 0
        self.stop = False
        self.failure: BaseException | None = None
        self._state_lock = threading.Lock()

    # -- worker-facing protocol ---------------------------------------

    def plan(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray,
             ops: int) -> list[_Op]:
        """Split the ratings into ``ops`` equal consecutive batches and
        plan one op for each.

        One ``np.unique`` per side over the keys (op * S + owner) * n + id
        gives every op its unique ids grouped by owning shard, ascending
        within a group, and each rating's row among them; a route's
        slices are read off the group cut points.  An op's routes come in
        the order its users, by smallest id, and then its items first
        touch the shards.  Ids outside U or V raise IndexError here,
        before any row is read or written.
        """
        s = len(self.shards)
        b = ratings.size // ops
        op_of = np.repeat(np.arange(ops), b)
        sides = []
        for ids, owner, kind in ((users, self.user_owner, "user"),
                                 (items, self.item_owner, "item")):
            n = owner.size
            if ids.min() < 0 or ids.max() >= n:
                raise IndexError(f"{kind} id out of range [0, {n})")
            keys, inv = np.unique((op_of * s + owner[ids]) * n + ids, return_inverse=True)
            cuts = np.searchsorted(keys, np.arange(ops * s + 1) * n)
            inv -= np.repeat(cuts[:-1:s], b)
            grouped = keys % n
            # each group's smallest id, or n where the op leaves the shard alone
            first = np.where(cuts[1:] > cuts[:-1], grouped.take(cuts[:-1], mode="clip"), n)
            sides.append((grouped, cuts, inv, first.reshape(ops, s)))
        (u_ids, u_cuts, inv_u, u_first), (i_ids, i_cuts, inv_i, i_first) = sides
        nu = self.user_owner.size
        # the op's users come before its items in first-touch order
        touch = np.where(u_first < nu, u_first, nu + i_first)
        order = np.argsort(touch, axis=1, kind="stable").tolist()
        touched = (touch < nu + self.item_owner.size).sum(axis=1).tolist()
        u_cuts, i_cuts = u_cuts.tolist(), i_cuts.tolist()
        planned = []
        for o in range(ops):
            g0 = o * s
            u0, u1, i0, i1 = u_cuts[g0], u_cuts[g0 + s], i_cuts[g0], i_cuts[g0 + s]
            routes = [(self.shards[sid],
                       slice(u_cuts[g0 + sid] - u0, u_cuts[g0 + sid + 1] - u0),
                       slice(i_cuts[g0 + sid] - i0, i_cuts[g0 + sid + 1] - i0))
                      for sid in order[o][:touched[o]]]
            planned.append(_Op(ratings[o * b:(o + 1) * b], inv_u[o * b:(o + 1) * b],
                               inv_i[o * b:(o + 1) * b], u_ids[u0:u1], i_ids[i0:i1],
                               routes))
        return planned

    def pull(self, worker: int, op: _Op) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the op's rows of U and V, each taken under its
        shard's lock along the op's routes, and of the two aggregate
        sums."""
        u_rows = np.empty((op.u_index.size, self.h.k))
        v_rows = np.empty((op.i_index.size, self.h.k))
        for shard, us, is_ in op.routes:
            with shard.lock:
                u_rows[us] = self.U[op.u_index[us]]
                v_rows[is_] = self.V[op.i_index[is_]]
        with self.agg_u_shard.lock:
            sum_u = self.sum_u.copy()
        with self.agg_v_shard.lock:
            sum_v = self.sum_v.copy()
        with self._state_lock:
            skew = self.completed[worker] - min(self.completed)
            if skew > self.staleness_max:
                self.staleness_max = skew
        return u_rows, v_rows, sum_u, sum_v

    def push(self, op: _Op, g_u: np.ndarray, g_v: np.ndarray) -> None:
        """SGD-step the op's rows, one shard at a time, and add each
        shard's (new - old) deltas to the aggregate sums in ascending id
        order.  Rows of ``g_u``/``g_v`` line up with ``op.u_index``/
        ``op.i_index``."""
        alpha = self.h.alpha
        for shard, us, is_ in op.routes:
            users, items = op.u_index[us], op.i_index[is_]
            with shard.lock:
                d_u = _step_rows(self.U, users, g_u[us], alpha)
                d_v = _step_rows(self.V, items, g_v[is_], alpha)
                self.user_updates[users] += 1
                self.item_updates[items] += 1
                shard.clock += users.size + items.size
            with self.agg_u_shard.lock:
                self.sum_u = _absorb(self.sum_u, d_u)
                self.agg_u_shard.clock += users.size
            with self.agg_v_shard.lock:
                self.sum_v = _absorb(self.sum_v, d_v)
                self.agg_v_shard.clock += items.size

    def op_done(self, worker: int) -> None:
        with self._state_lock:
            self.completed[worker] += 1

    # -- barrier ------------------------------------------------------

    def _loss(self) -> float:
        """The objective on the live U and V; ``sum_u`` and ``sum_v``
        must be their exact active sums."""
        fm = FactorMatrices(self.U, self.V, self.sum_u, self.sum_v)
        if self.objective == "dch":
            return _dch_loss_on_sums(self.data, fm, self.h, self.sum_u, self.sum_v)
        return mf_loss(self.data, fm, self.h.lambda_)

    @contextlib.contextmanager
    def _all_shards_locked(self) -> Iterator[None]:
        # in id order; a worker holds one shard lock at a time, so this
        # cannot deadlock against a pull or a push
        with contextlib.ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.lock)
            yield

    def gather(self) -> FactorMatrices:
        """A consistent copy of U, V and the two aggregate sums."""
        with self._all_shards_locked():
            return FactorMatrices(self.U.copy(), self.V.copy(),
                                  self.sum_u.copy(), self.sum_v.copy())

    def on_barrier(self) -> None:
        """Project every row, restore exact aggregates and record the
        loss."""
        with self._all_shards_locked():
            if self.objective == "dch":
                self.U[...] = project(self.U, self.h.gamma)
                self.V[...] = project(self.V, self.h.gamma)
            self.sum_u = active_sum(self.U, self.data.active_users)
            self.sum_v = active_sum(self.V, self.data.active_items)
            loss = self._loss()
        self.losses.append(loss)
        self.wall_clock_ms.append((time.monotonic() - self._t0) * 1000.0)
        limit = DIVERGENCE_FACTOR * max(self.initial_loss, 1e-300)
        if not math.isfinite(loss) or loss > limit:
            raise DivergenceError(
                f"loss {loss:.6g} at barrier {len(self.losses)} is not "
                f"finite or exceeds {DIVERGENCE_FACTOR:g} x initial "
                f"{self.initial_loss:.6g}",
                self.losses,
            )
        if self.stop_on_convergence and has_converged(self.losses):
            self.stop = True


def _planned_ops(coord: _Coordinator, stream: _WorkerStream,
                 ops_per_epoch: int) -> Iterator[_Op]:
    """One worker's operations, planned an epoch at a time: the next
    epoch is planned only when its first op is asked for."""
    while True:
        yield from coord.plan(*stream.next_batch(ops_per_epoch * coord.h.batch_size),
                              ops_per_epoch)


def _worker_op(coord: _Coordinator, plan: Iterator[_Op], worker: int) -> None:
    """One whole op: pull, gradient kernel, push, then count it done."""
    op = next(plan)
    u_rows, v_rows, sum_u, sum_v = coord.pull(worker, op)
    g_u, g_v = indexed_gradients(
        op.inv_u, op.inv_i, op.ratings, u_rows, v_rows, sum_u, sum_v,
        coord.h.lambda_, objective=coord.objective,
    )
    coord.push(op, g_u, g_v)
    coord.op_done(worker)


def _plan_ops(data: Dataset, h: Hyperparams, shards: list[np.ndarray]) -> tuple[int, int, int]:
    """Ops per epoch, periods and ops-per-worker for the epoch budget.

    One epoch is enough operations for the largest shard to be covered
    once at batch size B; the total is rounded up to whole periods so
    every worker performs exactly P operations between barriers.
    """
    max_shard = max(s.size for s in shards)
    ops_per_epoch = -(-max_shard // h.batch_size)
    total = h.epochs * ops_per_epoch
    periods = -(-total // h.staleness)
    return ops_per_epoch, periods, periods * h.staleness


def run_training(
    data: Dataset,
    h: Hyperparams,
    *,
    objective: str = "dch",
    mode: str = "serial",
    stop_on_convergence: bool = True,
    make_codes: bool = True,
) -> TrainResult:
    """Coordinator loop: partition, repeated P-operation rounds with
    barriers, then median rounding of the final factors.

    ``mode`` is "serial" (round-robin on the calling thread, exactly
    reproducible) or "threads" (one thread per worker, shard locks and
    the barrier doing the synchronization).  The MF objective runs the
    same protocol but skips the projection step, which belongs to the
    hashing model.  Raises DivergenceError when the loss at a barrier is
    not finite or exceeds DIVERGENCE_FACTOR times its initial value.
    """
    if mode not in ("serial", "threads"):
        raise ValueError(f"unknown mode {mode!r}")
    coord = _Coordinator(data, h, objective, stop_on_convergence)
    shards = partition_data(data, h.workers, h.seed)
    ops_per_epoch, periods, ops_per_worker = _plan_ops(data, h, shards)
    plans = [_planned_ops(coord, _WorkerStream(data, shards[w], w, h.seed), ops_per_epoch)
             for w in range(h.workers)]

    if mode == "serial":
        for _period in range(periods):
            for _p in range(h.staleness):
                for w in range(h.workers):
                    _worker_op(coord, plans[w], w)
            coord.on_barrier()
            if coord.stop:
                break
    else:
        sync = threading.Barrier(h.workers, action=coord.on_barrier)

        def worker_loop(w: int) -> None:
            try:
                for _period in range(periods):
                    for _p in range(h.staleness):
                        if coord.stop:
                            return
                        _worker_op(coord, plans[w], w)
                    try:
                        sync.wait()
                    except threading.BrokenBarrierError:
                        return
                    if coord.stop:
                        return
            except BaseException as exc:
                # record the first failure, then unblock everyone else
                with coord._state_lock:
                    if coord.failure is None:
                        coord.failure = exc
                    coord.stop = True
                sync.abort()

        threads = [
            threading.Thread(target=worker_loop, args=(w,), name=f"worker-{w}")
            for w in range(h.workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if coord.failure is not None:
            raise coord.failure

    fm = coord.gather()
    user_codes = item_codes = None
    if make_codes:
        user_words, item_words = round_words(fm)
        user_codes = CodeSet.from_words(user_words, fm.k)
        item_codes = CodeSet.from_words(item_words, fm.k)
    update_counts = {
        (kind, row): n
        for kind, counts in (("user", coord.user_updates), ("item", coord.item_updates))
        for row, n in zip(counts.nonzero()[0].tolist(), counts[counts != 0].tolist())
    }
    return TrainResult(
        factors=fm,
        losses=coord.losses,
        wall_clock_ms=coord.wall_clock_ms,
        converged=coord.stop and coord.failure is None,
        barriers=len(coord.losses),
        ops_per_worker=ops_per_worker,
        objective=objective,
        user_codes=user_codes,
        item_codes=item_codes,
        staleness_max=coord.staleness_max,
        update_counts=update_counts,
    )
