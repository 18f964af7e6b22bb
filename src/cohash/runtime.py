"""Simulated parameter server running asynchronous minibatch SGD.

Three roles, all in one process: a coordinator that owns barrier state,
hands out operation permits and holds the factor matrices U and V as
dense arrays; worker loops that pull the rows of a minibatch and push
their gradients back; and server shards.  A shard is a lock and a
logical clock over the rows of U and V it owns, placed by crc32 of
"kind:index" mod S; each of the two aggregate sums is owned by one
shard the same way.  A pull copies the batch's rows under each touched
shard's lock, and a push steps them shard by shard and forwards the
(new - old) deltas to the owners of the aggregates.

The staleness knob P is the number of SGD operations each worker runs
between synchronization barriers; P=1 degenerates to synchronous SGD.
At a barrier all in-flight gradients have been applied, every row of U
and V is projected into the radius-1/sqrt(gamma) ball, the aggregate
sums are recomputed exactly, and the training loss is recorded.

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
from typing import Iterator, Sequence

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
    round_codes,
)
from cohash.retrieval import CodeSet

__all__ = [
    "ServerShard",
    "TrainResult",
    "OpEvent",
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
class OpEvent:
    """Timing record of one worker SGD operation, for schedule assertions."""

    worker: int
    op: int
    period: int
    started: float
    finished: float


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
    events: list[OpEvent] = field(default_factory=list)


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


def has_converged(
    losses: Sequence[float],
    window: int = CONVERGENCE_WINDOW,
    tol: float = CONVERGENCE_TOL,
) -> bool:
    """True when the loss moved < tol (relatively) across the last
    ``window`` barriers, i.e. over the trailing window+1 recorded values."""
    if len(losses) < window + 1:
        return False
    tail = losses[-(window + 1):]
    spread = max(tail) - min(tail)
    scale = max(abs(tail[-1]), 1e-12)
    return spread / scale < tol


class _WorkerStream:
    """Deterministic minibatch source over one worker's shard.

    Each pass over the shard is a fresh seeded permutation; a batch that
    exhausts the current pass wraps into the next one, so every
    operation yields exactly B triples.  The sequence depends only on
    (seed, worker, shard), never on scheduling.
    """

    def __init__(self, data: Dataset, shard: np.ndarray, worker: int, seed: int):
        if shard.size == 0:
            raise ValueError("worker shard must not be empty")
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

    def next_batch(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        taken = []
        need = b
        while need > 0:
            chunk = self._order[self._pos : self._pos + need]
            taken.append(chunk)
            self._pos += chunk.size
            need -= chunk.size
            if self._pos >= self._order.size:
                self._pass += 1
                self._pos = 0
                self._order = self._permute()
        idx = np.concatenate(taken) if len(taken) > 1 else taken[0]
        return self._data.users[idx], self._data.items[idx], self._data.ratings[idx]


class _Coordinator:
    """Owns barrier state, permits, shards, the factor matrices and the
    loss trace."""

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
        if objective == "dch":
            self.initial_loss = dch_loss(data, fm, h)
        else:
            self.initial_loss = mf_loss(data, fm, h.lambda_)
        self.U, self.V, self.sum_u, self.sum_v = fm.U, fm.V, fm.sum_u, fm.sum_v
        s = h.servers
        self.shards = [ServerShard() for _ in range(s)]
        self.user_owner = np.array(
            [shard_of("user", i, s) for i in range(data.num_users)], dtype=np.intp)
        self.item_owner = np.array(
            [shard_of("item", j, s) for j in range(data.num_items)], dtype=np.intp)
        self.agg_u_shard = self.shards[shard_of("aggregate-u", 0, s)]
        self.agg_v_shard = self.shards[shard_of("aggregate-v", 0, s)]
        self.user_updates = np.zeros(data.num_users, dtype=np.int64)
        self.item_updates = np.zeros(data.num_items, dtype=np.int64)

        self.barrier_index = 0
        self.losses: list[float] = []
        self.wall_clock_ms: list[float] = []
        self._t0 = time.monotonic()
        self.completed = [0] * h.workers
        self.staleness_max = 0
        self.stop = False
        self.failure: BaseException | None = None
        self._state_lock = threading.Lock()
        self._permit = threading.Condition(self._state_lock)

    # -- worker-facing protocol ---------------------------------------

    def _by_shard(
        self, u_index: np.ndarray, i_index: np.ndarray
    ) -> Iterator[tuple[ServerShard, np.ndarray, np.ndarray]]:
        """(shard, user mask, item mask) for each shard owning a row of
        the batch, in the order the users and then the items first touch
        the shards.  Ids outside U or V raise IndexError here, before
        any row is read or written."""
        u_owner = self.user_owner[u_index]
        i_owner = self.item_owner[i_index]
        ids, first = np.unique(np.concatenate([u_owner, i_owner]), return_index=True)
        for s in ids[np.argsort(first)]:
            yield self.shards[s], u_owner == s, i_owner == s

    def pull(
        self, worker: int, u_index: np.ndarray, i_index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the rows U[u_index] and V[i_index], each taken under
        its shard's lock, and of the two aggregate sums."""
        u_rows = np.empty((u_index.size, self.h.k))
        v_rows = np.empty((i_index.size, self.h.k))
        for shard, um, im in self._by_shard(u_index, i_index):
            with shard.lock:
                u_rows[um] = self.U[u_index[um]]
                v_rows[im] = self.V[i_index[im]]
        with self.agg_u_shard.lock:
            sum_u = self.sum_u.copy()
        with self.agg_v_shard.lock:
            sum_v = self.sum_v.copy()
        with self._state_lock:
            skew = self.completed[worker] - min(self.completed)
            if skew > self.staleness_max:
                self.staleness_max = skew
        return u_rows, v_rows, sum_u, sum_v

    def push(self, u_index: np.ndarray, i_index: np.ndarray,
             g_u: np.ndarray, g_v: np.ndarray) -> None:
        """SGD-step the pulled rows, one shard at a time, and add each
        shard's (new - old) deltas to the aggregate sums in ascending id
        order.  Rows of ``g_u``/``g_v`` line up with ``u_index``/``i_index``."""
        alpha = self.h.alpha
        for shard, um, im in self._by_shard(u_index, i_index):
            users, items = u_index[um], i_index[im]
            with shard.lock:
                d_u = _step_rows(self.U, users, g_u[um], alpha)
                d_v = _step_rows(self.V, items, g_v[im], alpha)
                self.user_updates[users] += 1
                self.item_updates[items] += 1
                shard.clock += users.size + items.size
            with self.agg_u_shard.lock:
                self.sum_u = _absorb(self.sum_u, d_u)
                self.agg_u_shard.clock += users.size
            with self.agg_v_shard.lock:
                self.sum_v = _absorb(self.sum_v, d_v)
                self.agg_v_shard.clock += items.size

    def permit_wait(self, worker: int) -> None:
        """Block until starting this worker's next op keeps the op-count
        skew below P (the bounded-staleness permit)."""
        with self._permit:
            while (
                self.completed[worker] - min(self.completed) >= self.h.staleness
                and not self.stop
            ):
                self._permit.wait()

    def op_done(self, worker: int) -> None:
        with self._permit:
            self.completed[worker] += 1
            self._permit.notify_all()

    # -- barrier ------------------------------------------------------

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
        """Project every row, restore exact aggregates, record the loss,
        and advance the barrier index."""
        try:
            with self._all_shards_locked():
                if self.objective == "dch":
                    self.U[...] = project(self.U, self.h.gamma)
                    self.V[...] = project(self.V, self.h.gamma)
                self.sum_u = active_sum(self.U, self.data.active_users)
                self.sum_v = active_sum(self.V, self.data.active_items)
            fm = self.gather()
            if self.objective == "dch":
                loss = dch_loss(self.data, fm, self.h)
            else:
                loss = mf_loss(self.data, fm, self.h.lambda_)
            self.losses.append(loss)
            self.wall_clock_ms.append((time.monotonic() - self._t0) * 1000.0)
            self.barrier_index += 1
            limit = DIVERGENCE_FACTOR * max(self.initial_loss, 1e-300)
            if not math.isfinite(loss) or loss > limit:
                raise DivergenceError(
                    f"loss {loss:.6g} at barrier {self.barrier_index} is not "
                    f"finite or exceeds {DIVERGENCE_FACTOR:g} x initial "
                    f"{self.initial_loss:.6g}",
                    self.losses,
                )
            if self.stop_on_convergence and has_converged(self.losses):
                self.stop = True
        except BaseException as exc:
            self.failure = exc
            self.stop = True
            raise
        finally:
            with self._permit:
                self._permit.notify_all()


def _worker_op(coord: _Coordinator, stream: _WorkerStream, worker: int,
               objective: str) -> None:
    uu, ii, rr = stream.next_batch(coord.h.batch_size)
    u_index = np.unique(uu)
    i_index = np.unique(ii)
    u_rows, v_rows, sum_u, sum_v = coord.pull(worker, u_index, i_index)
    g_u, g_v = minibatch_gradients(
        uu, ii, rr, u_rows, v_rows, u_index, i_index, sum_u, sum_v,
        coord.h.lambda_, objective=objective,
    )
    coord.push(u_index, i_index, g_u, g_v)


def _plan_ops(data: Dataset, h: Hyperparams, shards: list[np.ndarray]) -> tuple[int, int]:
    """Periods and ops-per-worker for the epoch budget.

    One epoch is enough operations for the largest shard to be covered
    once at batch size B; the total is rounded up to whole periods so
    every worker performs exactly P operations between barriers.
    """
    max_shard = max(s.size for s in shards)
    ops_per_epoch = -(-max_shard // h.batch_size)
    total = h.epochs * ops_per_epoch
    periods = -(-total // h.staleness)
    return periods, periods * h.staleness


def run_training(
    data: Dataset,
    h: Hyperparams,
    *,
    objective: str = "dch",
    mode: str = "serial",
    stop_on_convergence: bool = True,
    make_codes: bool = True,
    worker_delays: Sequence[float] | None = None,
    record_schedule: bool = False,
) -> TrainResult:
    """Coordinator loop: partition, repeated P-operation rounds with
    barriers, then median rounding of the final factors.

    ``mode`` is "serial" (round-robin on the calling thread, exactly
    reproducible) or "threads" (one thread per worker, shard locks and
    permits doing the synchronization).  The MF objective runs the same
    protocol but skips the projection step, which belongs to the
    hashing model.  Raises DivergenceError when the loss at a barrier is
    not finite or exceeds DIVERGENCE_FACTOR times its initial value.
    """
    if mode not in ("serial", "threads"):
        raise ValueError(f"unknown mode {mode!r}")
    if worker_delays is not None and len(worker_delays) != h.workers:
        raise ValueError("worker_delays must list one delay per worker")
    coord = _Coordinator(data, h, objective, stop_on_convergence)
    shards = partition_data(data, h.workers, h.seed)
    streams = [_WorkerStream(data, shards[w], w, h.seed) for w in range(h.workers)]
    periods, ops_per_worker = _plan_ops(data, h, shards)
    delays = list(worker_delays) if worker_delays is not None else [0.0] * h.workers
    events: list[OpEvent] = []
    events_lock = threading.Lock()

    def one_op(w: int, op: int, period: int) -> None:
        started = time.monotonic()
        if delays[w] > 0.0:
            time.sleep(delays[w])
        _worker_op(coord, streams[w], w, objective)
        coord.op_done(w)
        if record_schedule:
            with events_lock:
                events.append(OpEvent(w, op, period, started, time.monotonic()))

    if mode == "serial":
        for period in range(periods):
            for p in range(h.staleness):
                for w in range(h.workers):
                    one_op(w, period * h.staleness + p, period)
            coord.on_barrier()
            if coord.stop:
                break
    else:
        sync = threading.Barrier(h.workers, action=coord.on_barrier)

        def worker_loop(w: int) -> None:
            try:
                for period in range(periods):
                    for p in range(h.staleness):
                        coord.permit_wait(w)
                        if coord.stop:
                            return
                        one_op(w, period * h.staleness + p, period)
                    try:
                        sync.wait()
                    except threading.BrokenBarrierError:
                        return
                    if coord.stop:
                        return
            except BaseException as exc:
                # record the first failure, then unblock everyone else
                with coord._permit:
                    if coord.failure is None:
                        coord.failure = exc
                    coord.stop = True
                    coord._permit.notify_all()
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
        ucodes, icodes = round_codes(fm)
        user_codes = CodeSet(ucodes)
        item_codes = CodeSet(icodes)
    update_counts = {
        (kind, int(row)): int(counts[row])
        for kind, counts in (("user", coord.user_updates), ("item", coord.item_updates))
        for row in np.flatnonzero(counts)
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
        events=events,
    )
