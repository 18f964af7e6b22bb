"""Timing harness: query latency versus code length and catalog size,
training wall clock versus worker count, and bucket-occupancy summaries.

All timings use the monotonic clock and report the median of several
repetitions taken after a warm-up pass, so cache effects and scheduler
noise do not dominate single-shot numbers.
"""

from __future__ import annotations

import csv
import dataclasses
import statistics
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from cohash.core import Dataset, Hyperparams
from cohash.retrieval import build_index, hamming_rank_topk, realvalued_topk
from cohash.runtime import run_training
from cohash.synth import random_codes

__all__ = [
    "time_median_ms",
    "bench_query_vs_k",
    "bench_query_vs_n",
    "bench_train_vs_workers",
    "bucket_stats",
    "write_rows_csv",
]

MIN_REPS = 5


def time_median_ms(fn: Callable[[], object], reps: int = MIN_REPS) -> float:
    """Median wall time of fn over reps runs, after one warm-up call."""
    if reps < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} repetitions, got {reps}")
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def _query_row(
    num_items: int, k: int, num_queries: int, top_k: int, seed: int, reps: int
) -> dict:
    """One timing row: median per-query latency (ms) of hash ranking and of
    real-valued ranking over num_items codes of k bits."""
    items = random_codes(num_items, k, seed=seed)
    queries = random_codes(num_queries, k, seed=seed + 1)

    def run_hash():
        for q in queries:
            hamming_rank_topk(q, items, top_k)

    rng = np.random.default_rng(seed + 2)
    real_items = rng.standard_normal((num_items, k))
    real_queries = rng.standard_normal((num_queries, k))

    def run_real():
        for q in real_queries:
            realvalued_topk(q, real_items, top_k)

    return {"k": k, "num_items": num_items,
            "hash_ms": time_median_ms(run_hash, reps) / num_queries,
            "real_ms": time_median_ms(run_real, reps) / num_queries}


def bench_query_vs_k(
    num_items: int = 17770,
    ks: Sequence[int] = (5, 15, 25, 35),
    num_queries: int = 50,
    top_k: int = 10,
    seed: int = 0,
    reps: int = MIN_REPS,
) -> list[dict]:
    """Per-query latency at a fixed catalog size, one row per code length."""
    return [_query_row(num_items, k, num_queries, top_k, seed, reps) for k in ks]


def bench_query_vs_n(
    k: int = 25,
    ns: Sequence[int] = (4443, 8885, 13328, 17770),
    num_queries: int = 50,
    top_k: int = 10,
    seed: int = 0,
    reps: int = MIN_REPS,
) -> list[dict]:
    """Per-query latency at a fixed code length, one row per catalog size."""
    return [_query_row(n, k, num_queries, top_k, seed, reps) for n in ns]


def bench_train_vs_workers(
    data: Dataset,
    h: Hyperparams,
    workers: Sequence[int] = (1, 2, 4),
) -> list[dict]:
    """Threaded training wall clock as the worker count grows, one row
    per count."""
    rows = []
    for w in workers:
        result = run_training(data, dataclasses.replace(h, workers=w), mode="threads",
                              stop_on_convergence=False, make_codes=False)
        rows.append({"workers": w,
                     "wall_clock_ms": result.wall_clock_ms[-1],
                     "barriers": result.barriers})
    return rows


def bucket_stats(items) -> dict:
    """Occupancy summary of the exact-key hash table over a code set."""
    sizes = build_index(items).bucket_sizes()
    return {
        "buckets": int(sizes.size),
        "min_size": int(sizes.min()),
        "median_size": float(np.median(sizes)),
        "max_size": int(sizes.max()),
        "mean_size": float(sizes.mean()),
    }


def write_rows_csv(path: str | Path, rows: Iterable[dict]) -> None:
    """Rows of identical dicts to CSV; keys of the first row fix the columns."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
