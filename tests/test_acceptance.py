"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states its own tolerances and time budget inline; nothing here
depends on another test having run first.  The heavier tests build
synthetic datasets with planted low-rank structure so quality numbers
are meaningful on a desk-sized machine.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cohash
from cohash.core import (
    HashCode,
    Hyperparams,
    minibatch_gradients,
    predict_relaxed,
    round_codes,
    similarity,
    FactorMatrices,
)
from cohash.data_io import load_codes, load_ratings, save_codes
from cohash.evaluation import SplitSpec, evaluate, run_variance, split
from cohash.reference import train_reference
from cohash.retrieval import (
    CodeSet,
    build_index,
    build_multi_index,
    hamming_rank_topk,
    lookup_search,
    multi_index_search,
    radius_search,
)
from cohash.runtime import run_training
from cohash.synth import planted_dataset, random_codes
from util import (
    fd_gradient_rows,
    rand_dataset,
    rand_factors,
    rel_err,
)


def test_gradients_match_finite_differences():
    # 100 random instances; the training kernel, called once per instance
    # and objective with the whole dataset as its batch, against central
    # differences for every active user and item: relative error <= 1e-5,
    # total under 10 seconds
    budget_start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        count = int(rng.integers(1, m * n + 1))
        data = rand_dataset(rng, m, n, count)
        fm = rand_factors(rng, data, k)
        h = Hyperparams(k=k, lambda_=float(rng.uniform(0.0, 0.2)),
                        alpha=0.01, gamma=float(rng.uniform(0.5, 2.0)))
        lam_mf = float(rng.uniform(0.0, 0.2))
        users, items = data.active_users, data.active_items
        for objective, lam in (("dch", h.lambda_), ("mf", lam_mf)):
            g_u, g_v = minibatch_gradients(
                data.users, data.items, data.ratings, fm.U[users], fm.V[items],
                users, items, fm.sum_u, fm.sum_v, lam, objective=objective)
            fd_u, fd_v = fd_gradient_rows(data, fm, lam, objective)
            assert g_u.shape == fd_u.shape and g_v.shape == fd_v.shape
            worst = max(worst, *map(rel_err, [*g_u, *g_v], [*fd_u, *fd_v]))
    elapsed = time.perf_counter() - budget_start
    assert worst <= 1e-5, f"worst relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_similarity_equals_distance_form_exactly():
    # sim(a, b) == 1 - d/K bitwise, and the inner-product predictor on
    # sign vectors returns the identical float; 10,000 pairs per length
    rng = np.random.default_rng(777)
    for k in (8, 32, 64):
        a_bits = rng.integers(0, 2, size=(10_000, k), dtype=np.uint8)
        b_bits = rng.integers(0, 2, size=(10_000, k), dtype=np.uint8)
        for row_a, row_b in zip(a_bits, b_bits):
            a = HashCode.from_bits(row_a)
            b = HashCode.from_bits(row_b)
            d = int(np.count_nonzero(row_a != row_b))
            s = similarity(a, b)
            assert s == 1.0 - d / k
            assert predict_relaxed(a.to_signs(), b.to_signs()) == s


def test_all_search_engines_agree():
    # radius scan, ball-probing lookup, and multi-index return identical
    # sets, and top-k matches the brute-force ranking; 1,000 queries
    # against 500 items, split over code lengths 8/32/64, in under 30
    # seconds; the radius range shrinks with K to keep ball probing in
    # its legal budget
    budget_start = time.perf_counter()
    for k, m, radii, n_queries in ((8, 2, 7, 334), (32, 4, 5, 333),
                                   (64, 8, 4, 333)):
        items = random_codes(500, k, seed=31 + k)
        index = build_index(items)
        multi = build_multi_index(items, m)
        queries = random_codes(n_queries, k, seed=32 + k)
        dist_all = np.bitwise_count(
            np.bitwise_xor(items.words[None, :, :], queries.words[:, None, :])
        ).sum(axis=2)
        for qi, q in enumerate(queries.codes):
            r = qi % radii
            scan = radius_search(q, items, r)
            lookup = sorted(lookup_search(q, index, r))
            assert sorted(p for p, _ in scan) == lookup
            mi = multi_index_search(q, multi, items, r)
            assert mi == scan
            top = hamming_rank_topk(q, items, 10)
            d = dist_all[qi]
            order = np.lexsort((np.arange(500), d))[:10]
            assert [p for p, _ in top] == order.tolist()
            assert [s for _, s in top] == d[order].tolist()
    elapsed = time.perf_counter() - budget_start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_single_worker_run_is_bit_identical_to_reference():
    # the simulated parameter server with one worker and period 1 must
    # reproduce the plain sequential loop bit for bit on a 50x30 problem
    data = planted_dataset(50, 30, 400, k_true=4, seed=21, noise=0.1)
    h = Hyperparams(k=4, lambda_=0.01, alpha=0.05, gamma=1.0,
                    batch_size=32, staleness=1, workers=1, servers=3,
                    epochs=2, seed=9)
    runtime = run_training(data, h, objective="dch", mode="serial",
                           stop_on_convergence=False, make_codes=False)
    ref = train_reference(data, h, objective="dch", stop_on_convergence=False)
    assert np.array_equal(runtime.factors.U, ref.factors.U)
    assert np.array_equal(runtime.factors.V, ref.factors.V)
    assert np.array_equal(runtime.factors.sum_u, ref.factors.sum_u)
    assert np.array_equal(runtime.factors.sum_v, ref.factors.sum_v)
    assert runtime.losses == ref.losses


def test_threaded_staleness_never_exceeds_bound():
    # four threaded workers at permitted staleness 3: at least 10,000
    # ops total and no observed staleness above the bound
    data = planted_dataset(100, 80, 2_000, k_true=4, seed=13, noise=0.1)
    h = Hyperparams(k=4, lambda_=0.01, alpha=0.02, gamma=1.0,
                    batch_size=4, staleness=3, workers=4, servers=2,
                    epochs=20, seed=5)
    result = run_training(data, h, objective="dch", mode="threads",
                          stop_on_convergence=False, make_codes=False)
    total_ops = result.ops_per_worker * h.workers
    assert total_ops >= 10_000, f"only {total_ops} ops executed"
    assert result.staleness_max <= 3, f"staleness {result.staleness_max}"


def test_median_rounding_splits_coordinates_exactly_in_half():
    # 1,000 pooled rows with distinct values per coordinate must round
    # to exactly 500 one-bits in every coordinate
    rng = np.random.default_rng(99)
    k = 8
    columns = [rng.permutation(1_000) + rng.uniform(0.0, 0.5) for _ in range(k)]
    pooled = np.stack(columns, axis=1).astype(np.float64)
    U, V = pooled[:600], pooled[600:]
    fm = FactorMatrices(U, V, U.sum(axis=0), V.sum(axis=0))
    user_codes, item_codes = round_codes(fm)
    bits = np.array([c.to_bits() for c in user_codes + item_codes])
    np.testing.assert_array_equal(bits.sum(axis=0), np.full(k, 500))


# settings for the quality comparison below; the generator plants
# 10-dimensional sign structure behind noisy affinity-biased ratings
PARITY_DATA = dict(num_users=943, num_items=1682, num_ratings=100_000,
                   k_true=4, seed=42, affinity=6.0, gain=2.0, noise=0.1)
PARITY_DCH = dict(alpha=0.5, epochs=15, grid=(1e-4, 1e-3, 3e-3))
PARITY_MF = dict(alpha=0.05, epochs=30, grid=(1e-2, 1e-1, 3e-1))


def test_rounded_ranking_stays_within_five_percent_of_real_baseline():
    # hashing pipeline vs the real-valued baseline at K=10 on a
    # 943x1682 corpus with 100k ratings; each model picks its best
    # balance weight from its own grid; Precision@5 and DCG@5 of the
    # rounded model may trail by at most 5 percent; under 10 minutes
    budget_start = time.perf_counter()
    data = planted_dataset(**PARITY_DATA)
    train, test = split(data, SplitSpec(train_fraction=0.8, seed=1))
    base = Hyperparams(k=10, lambda_=1e-4, alpha=0.5, gamma=0.1,
                       batch_size=500, staleness=5, workers=1, servers=1,
                       epochs=15, seed=1)

    best_dch = None
    for lam in PARITY_DCH["grid"]:
        h = dataclasses.replace(base, lambda_=lam, alpha=PARITY_DCH["alpha"],
                                epochs=PARITY_DCH["epochs"])
        r = run_training(train, h, objective="dch", mode="serial")
        rep = evaluate(r.user_codes, r.item_codes, train, test, [5], model="dch")
        if best_dch is None or rep.precision[5] > best_dch.precision[5]:
            best_dch = rep

    best_mf = None
    for lam in PARITY_MF["grid"]:
        h = dataclasses.replace(base, lambda_=lam, alpha=PARITY_MF["alpha"],
                                epochs=PARITY_MF["epochs"])
        r = run_training(train, h, objective="mf", mode="serial",
                         make_codes=False)
        rep = evaluate(r.factors.U, r.factors.V, train, test, [5], model="mf")
        if best_mf is None or rep.precision[5] > best_mf.precision[5]:
            best_mf = rep

    elapsed = time.perf_counter() - budget_start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    assert best_dch.precision[5] >= 0.95 * best_mf.precision[5], (
        f"Precision@5 {best_dch.precision[5]:.4f} vs {best_mf.precision[5]:.4f}")
    assert best_dch.dcg[5] >= 0.95 * best_mf.dcg[5], (
        f"DCG@5 {best_dch.dcg[5]:.4f} vs {best_mf.dcg[5]:.4f}")


def test_barriers_to_threshold_shrink_with_workers_and_batches():
    # (a) reaching a fixed training-loss level takes monotonically fewer
    # barriers as workers grow through {1,2,4} and batches through
    # {100,500,1000}; (b) across-seed loss variance at the final barrier
    # does not drop when the staleness bound grows from 1 to 5
    data = planted_dataset(200, 150, 12_000, k_true=4, seed=5,
                           affinity=2.0, noise=0.1)
    base = Hyperparams(k=4, lambda_=0.001, alpha=1.0, gamma=0.25,
                       batch_size=100, staleness=1, workers=1, servers=2,
                       epochs=3, seed=3)
    traces = {}
    for w in (1, 2, 4):
        for b in (100, 500, 1000):
            h = dataclasses.replace(base, workers=w, batch_size=b)
            r = run_training(data, h, objective="dch", mode="serial",
                             stop_on_convergence=False, make_codes=False)
            traces[(w, b)] = r.losses
    threshold = max(t[-1] for t in traces.values()) * 1.02
    barriers = {
        key: next(i + 1 for i, x in enumerate(trace) if x <= threshold)
        for key, trace in traces.items()
    }
    for b in (100, 500, 1000):
        seq = [barriers[(w, b)] for w in (1, 2, 4)]
        assert seq[0] >= seq[1] >= seq[2], f"B={b}: {seq}"
    for w in (1, 2, 4):
        seq = [barriers[(w, b)] for b in (100, 500, 1000)]
        assert seq[0] >= seq[1] >= seq[2], f"W={w}: {seq}"

    # staleness needs several workers and a few epochs to show: a lone
    # worker always sees its own pushes, so P barely moves the dynamics
    seeds = range(10)
    h_fresh = dataclasses.replace(base, staleness=1, epochs=3, workers=4)
    h_stale = dataclasses.replace(base, staleness=5, epochs=3, workers=4)
    var_fresh = run_variance(data, h_fresh, seeds, objective="dch")
    var_stale = run_variance(data, h_stale, seeds, objective="dch")
    assert var_stale[-1] >= var_fresh[-1], (
        f"variance {var_stale[-1]:.3e} < {var_fresh[-1]:.3e}")


QUERY_TIMINGS = """
import json
from cohash.bench import bench_query_vs_k, bench_query_vs_n
print(json.dumps([
    bench_query_vs_k(num_items=17_770, ks=(8, 64), num_queries=30,
                     top_k=10, seed=0, reps=5),
    bench_query_vs_n(k=25, ns=(4_443, 17_770), num_queries=30,
                     top_k=10, seed=0, reps=5),
]))
"""


def test_query_time_scales_gently_for_codes_and_linearly_in_catalog():
    # on a 17,770-item catalog: going K=8 -> 64 slows hash ranking by
    # under 2x but real-valued ranking by at least 3x; growing the
    # catalog 4x stays linear-ish for both; hash queries stay under 5 ms.
    # The claim is per core: the timings run in a child process held to
    # one BLAS thread, since the variable must be set before NumPy loads
    # and a K=64 matvec spread over two cores hides the slowdown.
    src = str(Path(cohash.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", QUERY_TIMINGS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    rows, rows_n = json.loads(proc.stdout)
    hash_ratio = rows[1]["hash_ms"] / rows[0]["hash_ms"]
    real_ratio = rows[1]["real_ms"] / rows[0]["real_ms"]
    assert hash_ratio < 2.0, f"hash slowed {hash_ratio:.2f}x"
    assert real_ratio >= 3.0, f"real-valued slowed only {real_ratio:.2f}x"
    assert rows[1]["hash_ms"] < 5.0, f"{rows[1]['hash_ms']:.3f} ms per query"

    hash_growth = rows_n[1]["hash_ms"] / rows_n[0]["hash_ms"]
    real_growth = rows_n[1]["real_ms"] / rows_n[0]["real_ms"]
    assert hash_growth < 10.0, f"hash grew {hash_growth:.1f}x on 4x items"
    assert real_growth < 10.0, f"real grew {real_growth:.1f}x on 4x items"


NETFLIX_FIXTURE = """\
1:
30878,4,2005-12-26
2647871,4,2005-12-27
10:
30878,3,2004-02-01
2:
1952305,3,2004-01-01
30878,1,2005-01-02
"""


def test_code_files_round_trip_and_ratings_fixture_parses(tmp_path):
    # binary code files survive a save/load cycle at awkward lengths,
    # and the three-movie ratings fixture parses to exact counts
    rng = np.random.default_rng(8)
    for k in (1, 7, 8, 64, 512):
        original = CodeSet(
            [HashCode.from_bits(rng.integers(0, 2, size=k, dtype=np.uint8))
             for _ in range(6)],
            ids=[f"e{i}" for i in range(6)])
        path = tmp_path / f"codes_{k}.bin"
        save_codes(original, path)
        loaded = load_codes(path)
        assert loaded.k == k
        assert list(loaded) == list(original)
        assert loaded.ids == original.ids
        assert path.stat().st_size == 12 + 6 * ((k + 7) // 8)

    fixture = tmp_path / "combined.txt"
    fixture.write_text(NETFLIX_FIXTURE)
    data = load_ratings(fixture, fmt="netflix-prize")
    assert data.num_items == 3
    assert data.num_users == 3
    assert len(data) == 5
    np.testing.assert_array_equal(np.bincount(data.items), [2, 1, 2])
    np.testing.assert_array_equal(np.bincount(data.users), [3, 1, 1])
    np.testing.assert_array_equal(data.raw_ratings, [4, 4, 3, 3, 1])
