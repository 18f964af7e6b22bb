"""Parameter-server runtime tests.

The single-threaded trainer in cohash.reference is the oracle for the
scheduling semantics: with one worker and staleness 1 the runtime must
match it bit for bit.  Aggregate bookkeeping is checked against a
recompute-from-scratch oracle, and the threaded mode is held to its
barrier ordering and bounded-staleness contracts.
"""

import sys

import numpy as np
import pytest

from cohash.core import Dataset, Hyperparams, active_sum
from cohash.reference import train_reference
from cohash.runtime import (
    DivergenceError,
    _Coordinator,
    _worker_op,
    _WorkerStream,
    has_converged,
    partition_data,
    run_training,
    shard_of,
)
from util import rand_dataset, returns_within


def toy_data(seed=0, users=20, items=15, n=120):
    return rand_dataset(np.random.default_rng(seed), users, items, n)


def toy_h(**kw):
    base = dict(k=4, lambda_=0.01, alpha=0.05, gamma=1.0, batch_size=16,
                staleness=1, workers=1, servers=1, epochs=4, seed=3)
    base.update(kw)
    return Hyperparams(**base)


def toy_coord(d, h=None):
    return _Coordinator(d, h or toy_h(), "dch", True)


def rows(*ids):
    return np.array(ids, dtype=np.int64)


class TestParameterKey:
    """A parameter key is the "kind:index" text that places a row or an
    aggregate sum on a shard."""

    def test_shard_assignment_stable_and_in_range(self):
        # crc32 of the key text, so placement is the same in every process
        placed = {("user", 12): [0, 1, 4], ("item", 12): [0, 0, 3],
                  ("aggregate-v", 0): [0, 0, 5]}
        for (kind, index), want in placed.items():
            assert [shard_of(kind, index, s) for s in (1, 2, 7)] == want
        coord = toy_coord(toy_data(), toy_h(servers=5))
        owners = np.concatenate([coord.user_owner, coord.item_owner])
        assert 0 <= owners.min() and owners.max() < 5
        assert coord.user_owner.tolist() == [
            shard_of("user", i, 5) for i in range(coord.U.shape[0])]
        assert coord.item_owner.tolist() == [
            shard_of("item", j, 5) for j in range(coord.V.shape[0])]

    def test_user_and_item_keys_do_not_collide(self):
        coord = toy_coord(toy_data())
        coord.push(rows(5), rows(5), np.ones((1, 4)), np.ones((1, 4)))
        counts = coord.user_updates, coord.item_updates
        assert [c[5] for c in counts] == [1, 1]
        assert [int(c.sum()) for c in counts] == [1, 1]


class TestPartitionData:
    def test_even_split(self):
        d = toy_data(n=10)
        shards = partition_data(d, 2, seed=1)
        assert [len(s) for s in shards] == [5, 5]

    def test_remainder_spread(self):
        d = toy_data(n=10)
        sizes = sorted(len(s) for s in partition_data(d, 3, seed=1))
        assert sizes == [3, 3, 4]

    def test_single_worker_identity(self):
        d = toy_data(n=9)
        (only,) = partition_data(d, 1, seed=5)
        assert np.array_equal(only, np.arange(9))

    def test_disjoint_cover(self):
        d = toy_data(n=37)
        shards = partition_data(d, 4, seed=2)
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(37))

    def test_deterministic_given_seed(self):
        d = toy_data(n=23)
        a = partition_data(d, 3, seed=9)
        b = partition_data(d, 3, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = partition_data(d, 3, seed=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_many_workers(self):
        d = toy_data(n=3)
        with pytest.raises(ValueError):
            partition_data(d, 4)


class TestWorkerStream:
    def test_pass_is_permutation_without_replacement(self):
        d = toy_data(n=12)
        shard = np.arange(12)
        s = _WorkerStream(d, shard, 0, seed=1)
        first_pass = [s.next_batch(4) for _ in range(3)]
        users = np.concatenate([b[0] for b in first_pass])
        assert len(users) == 12

    def test_batches_wrap_to_reshuffled_pass(self):
        d = toy_data(n=5)
        s = _WorkerStream(d, np.arange(5), 0, seed=1)
        uu, ii, rr = s.next_batch(8)
        assert len(uu) == len(ii) == len(rr) == 8

    def test_sequence_depends_only_on_seed_and_worker(self):
        d = toy_data(n=20)
        a = _WorkerStream(d, np.arange(20), 1, seed=4)
        b = _WorkerStream(d, np.arange(20), 1, seed=4)
        for _ in range(5):
            ua, _, _ = a.next_batch(7)
            ub, _, _ = b.next_batch(7)
            assert np.array_equal(ua, ub)


class TestHasConverged:
    def test_needs_full_window(self):
        assert not has_converged([1.0] * 5)
        assert has_converged([1.0] * 6)

    def test_moving_loss_not_converged(self):
        assert not has_converged([10.0, 9.0, 8.0, 7.0, 6.0, 5.0])

    def test_tiny_relative_drift_converges(self):
        base = 100.0
        losses = [base + i * 1e-5 for i in range(6)]
        assert has_converged(losses)


class TestServerShard:
    def test_unknown_key_fails_fast(self):
        coord = toy_coord(toy_data(users=20, items=15))
        before = coord.gather()
        with pytest.raises(IndexError):
            coord.push(rows(0, 3), rows(999), np.ones((2, 4)), np.ones((1, 4)))
        after = coord.gather()
        assert np.array_equal(after.U, before.U)
        assert np.array_equal(after.sum_u, before.sum_u)
        assert [shard.clock for shard in coord.shards] == [0]

    def test_zero_gradient_message_advances_clock_only(self):
        coord = toy_coord(toy_data(), toy_h(servers=3))
        before = coord.gather()
        coord.push(rows(1), rows(), np.zeros((1, 4)), np.zeros((0, 4)))
        after = coord.gather()
        owner = coord.shards[coord.user_owner[1]]
        assert owner.clock == 1 + (coord.agg_u_shard is owner)
        assert sum(shard.clock for shard in coord.shards) == 2
        assert np.array_equal(after.U, before.U)
        assert np.array_equal(after.sum_u, before.sum_u)

    def test_disjoint_keys_commute(self):
        d = toy_data()
        h = toy_h(servers=3)
        ga, gb = np.array([[1.0, 2.0, 0.0, -1.0]]), np.array([[-3.0, 0.5, 1.0, 2.0]])
        a = toy_coord(d, h)
        a.push(rows(0), rows(), ga, np.zeros((0, 4)))
        a.push(rows(), rows(4), np.zeros((0, 4)), gb)
        b = toy_coord(d, h)
        b.push(rows(), rows(4), np.zeros((0, 4)), gb)
        b.push(rows(0), rows(), ga, np.zeros((0, 4)))
        fa, fb = a.gather(), b.gather()
        assert np.array_equal(fa.U, fb.U)
        assert np.array_equal(fa.V, fb.V)

    def test_update_counts_track_messages(self):
        coord = toy_coord(toy_data())
        for _ in range(5):
            coord.push(rows(), rows(2), np.zeros((0, 4)), np.ones((1, 4)))
        assert coord.item_updates[2] == 5
        assert int(coord.item_updates.sum() + coord.user_updates.sum()) == 5
        # one shard: five row updates plus five deltas into sum_v
        assert coord.shards[0].clock == 10


class TestProtocol:
    def test_pull_of_unknown_key_fails(self):
        coord = toy_coord(toy_data(users=20))
        with pytest.raises(IndexError):
            coord.pull(0, rows(999), rows(0))

    def test_minibatch_pull_is_sparse(self, monkeypatch):
        seen = []
        orig = _Coordinator.pull

        def spy(self, worker, u_index, i_index):
            got = orig(self, worker, u_index, i_index)
            seen.append((u_index, i_index, got))
            return got

        monkeypatch.setattr(_Coordinator, "pull", spy)
        d = toy_data()
        run_training(d, toy_h(batch_size=1, epochs=1), make_codes=False)
        assert seen
        for u_index, i_index, (u_rows, v_rows, sum_u, sum_v) in seen:
            assert u_index.size == i_index.size == 1
            assert u_rows.shape == v_rows.shape == (1, 4)
            assert sum_u.shape == sum_v.shape == (4,)

    def test_aggregates_track_incremental_updates(self):
        # run several operations with no intervening barrier, then compare
        # the incrementally maintained sums against a recompute
        d = toy_data(n=80)
        h = toy_h(staleness=10, batch_size=8, servers=3)
        coord = _Coordinator(d, h, "dch", True)
        stream = _WorkerStream(d, np.arange(len(d)), 0, h.seed)
        for _ in range(6):
            _worker_op(coord, stream, 0, "dch")
        fm = coord.gather()
        np.testing.assert_allclose(
            fm.sum_u, active_sum(fm.U, d.active_users), rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            fm.sum_v, active_sum(fm.V, d.active_items), rtol=0, atol=1e-9)


class TestRunTraining:
    def test_deterministic_loss_trace(self):
        d = toy_data()
        h = toy_h(epochs=3)
        a = run_training(d, h, make_codes=False)
        b = run_training(d, h, make_codes=False)
        assert a.losses == b.losses
        assert np.array_equal(a.factors.U, b.factors.U)
        assert np.array_equal(a.factors.V, b.factors.V)

    def test_trace_shapes(self):
        d = toy_data()
        r = run_training(d, toy_h(epochs=2), make_codes=False,
                         stop_on_convergence=False)
        assert len(r.losses) == r.barriers == len(r.wall_clock_ms)
        assert all(b >= a for a, b in zip(r.wall_clock_ms, r.wall_clock_ms[1:]))

    def test_ops_accounting_rounds_up_to_periods(self):
        d = toy_data(n=10)
        # 10 triples, B=4 -> 3 ops per epoch; 3 epochs -> 9 ops; P=2 -> 5 periods
        h = toy_h(batch_size=4, epochs=3, staleness=2)
        r = run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert r.barriers == 5
        assert r.ops_per_worker == 10

    def test_post_barrier_norms_within_ball(self):
        d = toy_data()
        h = toy_h(gamma=4.0, alpha=0.2, epochs=3)
        r = run_training(d, h, make_codes=False, stop_on_convergence=False)
        radius = 1.0 / np.sqrt(h.gamma)
        norms_u = np.linalg.norm(r.factors.U, axis=1)
        norms_v = np.linalg.norm(r.factors.V, axis=1)
        assert norms_u.max() <= radius + 1e-12
        assert norms_v.max() <= radius + 1e-12

    def test_final_aggregates_exact(self):
        d = toy_data()
        r = run_training(d, toy_h(epochs=2, servers=4, workers=2, staleness=3),
                         make_codes=False, stop_on_convergence=False)
        np.testing.assert_allclose(
            r.factors.sum_u, active_sum(r.factors.U, d.active_users),
            rtol=0, atol=1e-9)

    def test_update_counts_match_operations(self):
        d = toy_data()
        h = toy_h(batch_size=1, epochs=1, workers=2, staleness=2)
        r = run_training(d, h, make_codes=False, stop_on_convergence=False)
        total = sum(r.update_counts.values())
        assert total == 2 * r.ops_per_worker * h.workers

    def test_convergence_stops_early(self):
        d = toy_data()
        h = toy_h(alpha=1e-9, epochs=50, batch_size=30)
        r = run_training(d, h, make_codes=False)
        assert r.converged
        assert r.barriers < 50 * 4

    def test_divergence_aborts(self):
        d = toy_data()
        h = toy_h(alpha=500.0, lambda_=10.0, epochs=60, batch_size=8, gamma=1e-12)
        with pytest.raises(DivergenceError) as err:
            run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert err.value.losses

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["serial", "threads"])
    @pytest.mark.parametrize("objective", ["dch", "mf"])
    def test_non_finite_loss_is_divergence(self, objective, mode):
        # the step overflows and the loss turns NaN, which compares false
        # against any bound; two workers so a DCH step is not projected
        # away before the next one reads the overflowed aggregates
        d = toy_data()
        h = toy_h(alpha=1e200, workers=2)
        with pytest.raises(DivergenceError) as err:
            run_training(d, h, objective=objective, mode=mode, make_codes=False)
        assert not np.isfinite(err.value.losses[-1])

    def test_codes_returned(self):
        d = toy_data()
        r = run_training(d, toy_h(epochs=1))
        assert len(r.user_codes) == d.num_users
        assert len(r.item_codes) == d.num_items
        assert r.user_codes.k == 4

    def test_rejects_bad_arguments(self):
        d = toy_data()
        with pytest.raises(ValueError):
            run_training(d, toy_h(), mode="fibers")
        with pytest.raises(ValueError):
            run_training(d, toy_h(), objective="svd")
        with pytest.raises(ValueError):
            run_training(d, toy_h(workers=2), worker_delays=[0.1])


class TestReferenceEquivalence:
    def test_w1_p1_bit_identical(self):
        d = toy_data()
        h = toy_h(epochs=3, servers=3)
        ref = train_reference(d, h)
        run = run_training(d, h, make_codes=False)
        assert run.losses == ref.losses
        assert np.array_equal(run.factors.U, ref.factors.U)
        assert np.array_equal(run.factors.V, ref.factors.V)
        assert run.converged == ref.converged

    def test_w1_higher_staleness_single_shard(self):
        d = toy_data()
        h = toy_h(epochs=3, staleness=4, servers=1)
        ref = train_reference(d, h, stop_on_convergence=False)
        run = run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert run.losses == ref.losses
        assert np.array_equal(run.factors.U, ref.factors.U)

    def test_multi_worker_serial_single_shard(self):
        d = toy_data()
        h = toy_h(epochs=2, workers=3, staleness=2, servers=1, batch_size=8)
        ref = train_reference(d, h, stop_on_convergence=False)
        run = run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert run.losses == ref.losses
        assert np.array_equal(run.factors.V, ref.factors.V)

    def test_full_batch_w1_p1_is_gradient_descent(self):
        # B = |data| and one op per epoch: plain projected full-batch descent
        d = toy_data()
        h = toy_h(batch_size=len(d), epochs=6)
        run = run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert run.barriers == 6
        ref = train_reference(d, h, stop_on_convergence=False)
        assert run.losses == ref.losses

    def test_shard_grouped_aggregates_pinned(self):
        # with S > 1 and P > 1 the aggregates absorb deltas grouped by
        # shard, which the ascending-id oracle does not reproduce; these
        # losses were recorded from the per-key message implementation
        d = toy_data()
        h = toy_h(workers=2, servers=3, staleness=3)
        run = run_training(d, h, make_codes=False, stop_on_convergence=False)
        assert run.losses == [
            15.3505922066117, 15.318123050885623, 15.287558876468832,
            15.261452223240843, 15.233896956681614, 15.209143499906101,
        ]

    def test_mf_objective_matches_reference(self):
        d = toy_data()
        h = toy_h(epochs=2, alpha=0.01)
        ref = train_reference(d, h, objective="mf", stop_on_convergence=False)
        run = run_training(d, h, objective="mf", make_codes=False,
                           stop_on_convergence=False)
        assert run.losses == ref.losses
        assert np.array_equal(run.factors.U, ref.factors.U)


class TestThreadedMode:
    def test_barrier_ordering_with_unequal_speeds(self):
        d = toy_data()
        h = toy_h(workers=3, staleness=2, epochs=2, batch_size=16, servers=2)
        r = run_training(
            d, h, mode="threads", make_codes=False, stop_on_convergence=False,
            worker_delays=[0.0005, 0.002, 0.004], record_schedule=True,
        )
        assert r.events
        by_period: dict[int, list] = {}
        for e in r.events:
            by_period.setdefault(e.period, []).append(e)
        periods = sorted(by_period)
        for t in periods[:-1]:
            latest_finish = max(e.finished for e in by_period[t])
            next_start = min(e.started for e in by_period[t + 1])
            assert next_start >= latest_finish

    def test_losses_and_staleness_bounded(self):
        d = toy_data(n=200)
        h = toy_h(workers=4, staleness=3, epochs=3, batch_size=4, servers=2)
        r = run_training(d, h, mode="threads", make_codes=False,
                         stop_on_convergence=False)
        assert r.staleness_max <= h.staleness
        assert len(r.losses) == r.barriers
        assert np.isfinite(r.factors.U).all()

    def test_no_lost_updates_under_contention(self, monkeypatch):
        # a lost read-modify-write would show as aggregate drift or a
        # shard clock short of its count before a barrier, or as update
        # counts that differ from the serial run (each worker's batches
        # do not depend on the schedule)
        d = toy_data(n=200)
        h = toy_h(workers=4, staleness=2, epochs=3, batch_size=4, servers=3)
        serial = run_training(d, h, make_codes=False, stop_on_convergence=False)
        drift, clock_gap = [], []
        on_barrier = _Coordinator.on_barrier

        def checked(self):
            drift.append(max(
                np.abs(self.sum_u - active_sum(self.U, d.active_users)).max(),
                np.abs(self.sum_v - active_sum(self.V, d.active_items)).max()))
            rows = int(self.user_updates.sum() + self.item_updates.sum())
            clock_gap.append(2 * rows - sum(s.clock for s in self.shards))
            on_barrier(self)

        monkeypatch.setattr(_Coordinator, "on_barrier", checked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = returns_within(
                120.0, lambda: run_training(d, h, mode="threads", make_codes=False,
                                            stop_on_convergence=False))
        finally:
            sys.setswitchinterval(interval)
        assert threaded.update_counts == serial.update_counts
        assert max(drift) < 1e-9
        assert set(clock_gap) == {0}

    def test_threaded_divergence_propagates(self):
        d = toy_data()
        h = toy_h(workers=2, alpha=500.0, lambda_=10.0, epochs=40,
                  batch_size=8, gamma=1e-12)
        with pytest.raises(DivergenceError):
            run_training(d, h, mode="threads", make_codes=False,
                         stop_on_convergence=False)

    def test_threaded_matches_serial_loss_count(self):
        d = toy_data()
        h = toy_h(workers=2, staleness=2, epochs=2, batch_size=16)
        a = run_training(d, h, make_codes=False, stop_on_convergence=False)
        b = run_training(d, h, mode="threads", make_codes=False,
                         stop_on_convergence=False)
        assert a.barriers == b.barriers
