"""The three workloads: two fits on a planted ratings corpus and one
serving loop over a 200k-item code catalog.

Every call into cohash goes through a public function, wrapped in a
span named after it and tagged with its layer.  Every workload has the
same three phases, so each end-to-end metric exists on each workload:

* set-up: the program reads its inputs (repeated; the median counts);
* build: the program turns them into something it can serve from
  (training, rounding and held-out evaluation on the fit workloads;
  the lookup and multi-index tables on serve-200k);
* serve: one client sends ``recommend`` requests in a closed loop.

Output checks run on every run, and each one counts as an operation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from cohash.bench import bench_query_vs_k, bucket_stats
from cohash.cli import cli
from cohash.core import Hyperparams, dch_loss, mf_loss, minibatch_gradients, round_codes
from cohash.data_io import load_codes, load_ratings, save_codes
from cohash.evaluation import SplitSpec, evaluate, split
from cohash.retrieval import (
    CodeSet,
    ball_size,
    build_index,
    build_multi_index,
    lookup_search,
    multi_index_search,
    radius_search,
    recommend,
)
from cohash.runtime import run_training

import inputs

TOP_K = 10
EVAL_K = 5
MIN_REQUESTS = 1000        # leaves at least 10 samples beyond the p99
MIN_FIT_REPS = 2           # the bit-for-bit final-loss check needs two fits
MIN_TRACED_FIT_REPS = 4    # fits 1..3: two traced, one untraced after the first
FIT_SETUP_REPS = 9
SERVE_SETUP_REPS = 3
SERVE_BUILD_REPS = 8
FIT_SERVE_PASSES = 10      # requests per user after each fit
FIT_CHECKS_PER_REP = 20
SERVE_CHECKS_PER_METHOD = 10
KERNEL_BATCHES = 40
LOSS_REPS = 5
CLI_REPS = 3
CLI_USERS = 20
TRACE_BLOCK = 200          # requests per tracing on/off block in traced runs
# Seconds of requests between two host-speed samples: often enough to
# follow the host's speed.  The speed slice pushes the requests' data out
# of the CPU caches, so the request after a sample is slow; with a sample
# every hundred of the fit workloads' 0.13 ms requests, those slow
# requests would be the p99.
CALIBRATE_S = 0.25
WINDOW = 1000              # requests per window of the tail statistics

SERVE_RADIUS = 2
SERVE_SUBCODES = 2         # two 16-bit substrings at K=32
# one cycle of requests; every run serves whole cycles in a seeded order,
# so the share of each kind does not change with the seed
SERVE_CYCLE = ["rank"] * 17 + ["lookup", "linear", "multi-index"]

# DCH on one serial worker; MF on two real threads and two shards.
FIT_WORKLOADS = {
    "fit-dch": dict(
        objective="dch", mode="serial", method="rank",
        h=dict(k=10, lambda_=1e-3, alpha=0.5, gamma=0.1, batch_size=500,
               staleness=5, workers=1, servers=1, epochs=1)),
    "fit-mf-threads": dict(
        objective="mf", mode="threads", method="real",
        h=dict(k=10, lambda_=0.1, alpha=0.05, gamma=0.1, batch_size=500,
               staleness=2, workers=2, servers=2, epochs=1)),
}
WORKLOADS = (*FIT_WORKLOADS, "serve-200k")


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation or output check; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _now() -> float:
    return time.perf_counter()


class Speed:
    """How fast the host runs a fixed slice of work right now.

    On a shared host the speed of a CPU drifts by tens of percent over
    tens of seconds, which no repetition inside one run averages away.
    The workloads time this slice between operations, never inside them,
    and report each operation at the reference speed: its raw time times
    REF_S over the mean of the samples taken just before and just after
    it.  The slice mixes the kinds of work cohash does (an interpreter
    loop, dict lookups feeding small NumPy calls, popcount over 1.6 MB,
    a sort) and is the benchmark's own code, so no change to cohash can
    move it.
    """

    REF_S = 0.004   # slice time on a quiet 2-CPU Xeon host

    def __init__(self):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 1 << 63, size=200_000, dtype=np.uint64)
        self._floats = rng.random(20_000)
        self._rows = {(i % 7, i): rng.random(10) for i in range(20_000)}
        self._probe = [(int(i) % 7, int(i)) for i in rng.integers(0, 20_000, size=400)]
        self.samples: list[float] = []

    def _slice(self) -> float:
        t0 = _now()
        acc = 0
        for i in range(10_000):
            acc += i * i
        vec = np.zeros(10)
        for key in self._probe:
            vec += 0.5 * self._rows[key]
            if float(np.dot(vec, vec)) > 1e6:
                vec *= 0.5
        for _ in range(2):
            np.bitwise_count(self._words ^ np.uint64(acc & 0xFFFF)).sum()
        np.sort(self._floats)
        return _now() - t0

    def sample(self) -> float:
        """Median of three slices timed now."""
        s = statistics.median(self._slice() for _ in range(3))
        self.samples.append(s)
        return s

    def scale(self) -> float:
        """Reference over observed speed across the whole run."""
        return self.REF_S / statistics.median(self.samples)


class Series:
    """Durations of one kind of operation, raw and scaled by the speed
    samples taken just before and just after each."""

    def __init__(self):
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.samples: list[float] = []

    def add(self, raw: Sequence[float], before: float, after: float) -> None:
        factor = 2.0 * Speed.REF_S / (before + after)
        self.raw.extend(raw)
        self.ref.extend(x * factor for x in raw)
        self.samples += [before, after]

    def median_at_phase_speed(self) -> float:
        """Median raw duration scaled by the median of all its samples."""
        return statistics.median(self.raw) * Speed.REF_S / statistics.median(self.samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _windowed(values: np.ndarray, stat) -> float:
    """Median of ``stat`` over consecutive whole windows of WINDOW values."""
    return statistics.median(float(stat(values[k:k + WINDOW]))
                             for k in range(0, len(values) - WINDOW + 1, WINDOW))


def _end_to_end(out: Outcome, speed: Speed, setup: Series, build: Series,
                latency: Series) -> None:
    """Medians and percentiles at the reference speed; raw ones in ``extra``.

    Set-up and requests are short, so each is scaled by the samples
    taken just around it.  A build runs for seconds and the host's speed
    changes inside it, which two samples at its ends do not follow (on
    a shared 2-CPU host that scaling widened the spread of build_s), so the
    median build is scaled by the median of all samples taken around
    builds instead.  One client waits for each reply, so requests per
    second is the inverse of the mean latency; the samples taken between
    requests are not part of it.

    A burst of load elsewhere on the host slows every request for a
    moment and fills the tail.  So p99 and requests per second are taken
    in consecutive windows of WINDOW requests (ten samples beyond each
    window's p99), and the median window is reported.
    """
    for pick in ("ref", "raw"):
        ms = np.asarray(getattr(latency, pick)) * 1e3
        values = {
            "setup_s": (statistics.median(getattr(setup, pick)), "s"),
            "recommend_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "recommend_p99_ms": (_windowed(ms, lambda w: np.percentile(w, 99)), "ms"),
            "recommend_qps": (_windowed(ms, lambda w: 1e3 / w.mean()), "1/s"),
        }
        for name, (value, unit) in values.items():
            if pick == "ref":
                out.end_to_end[name] = value
            else:
                out.extra[f"{name}.raw"] = (value, unit)
    out.end_to_end["build_s"] = build.median_at_phase_speed()
    out.extra["build_s.raw"] = (statistics.median(build.raw), "s")
    out.end_to_end["peak_rss_mb"] = _peak_rss_mb()
    out.extra["speed_scale"] = (speed.scale(), "ratio")
    out.extra["requests"] = (float(len(latency.raw)), "count")


def _hamming(words: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words ^ query_words).sum(axis=1).astype(np.int64)


def _expected(positions: np.ndarray, key: np.ndarray, exclude) -> list[int]:
    """The first TOP_K positions by (key, position), excluded ones dropped."""
    order = positions[np.lexsort((positions, key[positions]))]
    drop = {int(p) for p in exclude}
    return list(itertools.islice((int(p) for p in order if int(p) not in drop), TOP_K))


def _bench_probe(out: Outcome, tr, seed: int) -> None:
    """Query time at K=64 over K=8 for both rankers (the F2 ratio)."""
    with tr.span("bench_query_vs_k", "bench", request="probe-bench"):
        rows = bench_query_vs_k(ks=(8, 64), seed=seed)
    by_k = {r["k"]: r for r in rows}
    out.per_layer["bench.real_k64_over_k8"] = by_k[64]["real_ms"] / by_k[8]["real_ms"]
    out.per_layer["bench.hash_k64_over_k8"] = by_k[64]["hash_ms"] / by_k[8]["hash_ms"]


# per-layer metric -> (span name, unit factor); a span that never ran reads 0
SPAN_METRICS = {
    "data_io.load_ratings_s": ("load_ratings", 1.0),
    "data_io.load_codes_s": ("load_codes", 1.0),
    "data_io.save_codes_s": ("save_codes", 1.0),
    "runtime.train_s": ("run_training", 1.0),
    "core.kernel_ms": ("minibatch_gradients", 1e3),
    "core.loss_s": ("loss", 1.0),
    "core.round_codes_s": ("round_codes", 1.0),
    "retrieval.codeset_s": ("codeset", 1.0),
    "retrieval.build_index_s": ("build_index", 1.0),
    "retrieval.build_multi_index_s": ("build_multi_index", 1.0),
    "retrieval.rank_ms": ("rank", 1e3),
    "retrieval.real_ms": ("real", 1e3),
    "retrieval.lookup_ms": ("lookup", 1e3),
    "retrieval.lookup_prebuilt_ms": ("lookup_search", 1e3),
    "retrieval.linear_ms": ("linear", 1e3),
    "retrieval.multi_index_ms": ("multi-index", 1e3),
    "evaluation.split_s": ("split", 1.0),
    "evaluation.evaluate_s": ("evaluate", 1.0),
    "cli.recommend_s": ("cli_recommend", 1.0),
}
# counts and ratios each workload fills in where its layers run
WORKLOAD_METRICS = (
    "runtime.ms_per_op", "runtime.barrier_interval_ms", "runtime.ops", "runtime.barriers",
    "runtime.updates_applied", "runtime.staleness_max", "core.kernel_share",
    "core.bit_balance", "retrieval.lookup_probes", "retrieval.hits_per_query",
    "retrieval.hit_ratio", "retrieval.bucket_max", "evaluation.users_evaluated",
)
LAYERS = ("harness", "data_io", "runtime", "core", "retrieval", "evaluation", "cli", "bench")


def _span_layers(out: Outcome, tr) -> dict[str, float]:
    """Median span lengths, layer self times, and zeros for the rest."""
    p = out.per_layer
    p.update(dict.fromkeys(WORKLOAD_METRICS, 0.0))
    for metric, (span, factor) in SPAN_METRICS.items():
        p[metric] = tr.median_s(span) * factor
    layers = tr.self_time_by_layer()
    for layer in LAYERS:
        p[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return p


# ---------------------------------------------------------------------------
# fit-dch, fit-mf-threads


def _seen_by_user(train, num_users: int) -> list[np.ndarray]:
    order = np.argsort(train.users, kind="stable")
    bounds = np.searchsorted(train.users[order], np.arange(num_users + 1))
    return [train.items[order[bounds[u]:bounds[u + 1]]] for u in range(num_users)]


def _bit_balance(user_codes: CodeSet, item_codes: CodeSet) -> np.ndarray:
    words = np.concatenate([user_codes.words, item_codes.words])[:, 0]
    bits = (words[:, None] >> np.arange(user_codes.k, dtype=np.uint64)) & np.uint64(1)
    return bits.mean(axis=0)


def run_fit(name: str, seed: int, seconds: float, tr, workdir: Path, traced: bool) -> Outcome:
    spec = FIT_WORKLOADS[name]
    objective, method = spec["objective"], spec["method"]
    h = Hyperparams(**spec["h"], seed=seed)
    out = Outcome()
    speed = Speed()

    tsv = workdir / "ratings.tsv"
    inputs.write_ratings_tsv(tsv, seed)

    tr.enabled = traced
    setup = Series()
    for r in range(FIT_SETUP_REPS):
        before = speed.sample()
        t0 = _now()
        with tr.span("setup", "harness", request=f"setup-{r}"):
            with tr.span("load_ratings", "data_io"):
                data = load_ratings(tsv)
            with tr.span("split", "evaluation"):
                train, test = split(data, SplitSpec(train_fraction=0.8, seed=seed))
        setup.add([_now() - t0], before, speed.sample())
    out.op(len(data) == inputs.NUM_RATINGS, "load_ratings line count")
    seen = _seen_by_user(train, data.num_users)
    ratings_per_fit = 0

    build = {False: Series(), True: Series()}   # by tracing state
    train_s = Series()
    latency = Series()
    final_losses = []
    rng = np.random.default_rng([seed, 5])
    deadline = _now() + seconds
    rep = 0
    rep_s: list[float] = []   # one fit and its requests and checks
    min_reps = MIN_TRACED_FIT_REPS if traced else MIN_FIT_REPS
    # a fit is started only if it would end less than half a fit past
    # the deadline, so that a run measures --seconds on average
    while rep < min_reps or _now() + statistics.median(rep_s) / 2 <= deadline:
        rep_t0 = _now()
        # traced runs alternate: even fits untraced, odd fits traced
        tr.enabled = traced and rep % 2 == 1
        before = speed.sample()
        t0 = _now()
        with tr.span("fit", "harness", request=f"fit-{rep}"):
            with tr.span("run_training", "runtime"):
                result = run_training(train, h, objective=objective, mode=spec["mode"],
                                      stop_on_convergence=False, make_codes=False)
            t_train = _now() - t0
            if objective == "dch":
                with tr.span("round_codes", "core"):
                    ucodes, icodes = round_codes(result.factors)
                with tr.span("codeset", "retrieval"):
                    users, items = CodeSet(ucodes), CodeSet(icodes)
            else:
                users, items = result.factors.U, result.factors.V
            with tr.span("evaluate", "evaluation"):
                report = evaluate(users, items, train, test, [EVAL_K])
        t_build = _now() - t0
        after = speed.sample()
        build[tr.enabled].add([t_build], before, after)
        train_s.add([t_train], before, after)
        ratings_per_fit = result.ops_per_worker * h.workers * h.batch_size

        out.op(all(math.isfinite(x) for x in result.losses), f"fit {rep}: non-finite loss")
        final_losses.append(result.losses[-1])
        if objective == "dch":
            balance = _bit_balance(users, items)
            n = len(users) + len(items)
            out.op(bool(np.all((balance >= 0.5 - 1.0 / n) & (balance <= 0.5))),
                   f"fit {rep}: bit balance {balance.min():.6f}..{balance.max():.6f}")
            if rep > 0:
                # serial DCH is deterministic: same inputs, same loss bits
                out.op(final_losses[-1] == final_losses[0],
                       f"fit {rep}: final loss {final_losses[-1]!r} != {final_losses[0]!r}")

        order = np.concatenate([rng.permutation(data.num_users)
                                for _ in range(FIT_SERVE_PASSES)])
        kept = {}
        block: list[float] = []
        before, next_sample = after, _now() + CALIBRATE_S
        for u in order:
            query = users.codes[u] if objective == "dch" else users[u]
            r0 = _now()
            try:
                with tr.span(method, "retrieval", request=f"fit-{rep}-user-{u}"):
                    got = recommend(query, items, method, top_k=TOP_K, exclude=seen[u])
            except Exception as exc:  # a failed request is counted, not fatal
                out.op(False, f"{method} for user {u}: {exc!r}")
                continue
            block.append(_now() - r0)
            out.op(True, "request")
            if _now() >= next_sample:
                after = speed.sample()
                latency.add(block, before, after)
                block, before = [], after
                next_sample = _now() + CALIBRATE_S
            if len(kept) < FIT_CHECKS_PER_REP:
                kept[int(u)] = got
        latency.add(block, before, speed.sample())

        for u, got in kept.items():
            if objective == "dch":
                score = _hamming(items.words, users.codes[u].words)
                key = score
            else:
                score = items @ users[u]
                key = -score
            want = _expected(np.arange(key.size), key, seen[u])
            out.op(got == [(p, float(score[p])) for p in want],
                   f"fit {rep}: {method} for user {u} differs from NumPy")
        rep += 1
        rep_s.append(_now() - rep_t0)

    _end_to_end(out, speed, setup, build[False], latency)
    out.extra["fits"] = (float(rep), "count")
    out.extra["train_ratings_per_s"] = (ratings_per_fit / statistics.median(train_s.raw), "1/s")
    out.extra["final_loss"] = (final_losses[-1], "loss")
    out.extra["precision_at_5"] = (report.precision[EVAL_K], "ratio")
    out.extra["dcg_at_5"] = (report.dcg[EVAL_K], "gain")

    if traced:
        tr.enabled = True
        _fit_layers(out, tr, name, seed, h, train, result, report, users, items, build)
        out.per_layer["host.speed_scale"] = speed.scale()
    return out


def _fit_layers(out, tr, name, seed, h, train, result, report, users, items, build) -> None:
    spec = FIT_WORKLOADS[name]
    objective = spec["objective"]
    fm = result.factors
    rng = np.random.default_rng([seed, 4])
    perm = rng.permutation(len(train))
    for b in range(KERNEL_BATCHES):
        idx = perm[b * h.batch_size:(b + 1) * h.batch_size]
        bu, bi = train.users[idx], train.items[idx]
        ui, ii = np.unique(bu), np.unique(bi)
        with tr.span("minibatch_gradients", "core", request="probe-kernel"):
            minibatch_gradients(bu, bi, train.ratings[idx], fm.U[ui], fm.V[ii], ui, ii,
                                fm.sum_u, fm.sum_v, h.lambda_, objective)
    for _ in range(LOSS_REPS):
        with tr.span("loss", "core", request="probe-loss"):
            if objective == "dch":
                dch_loss(train, fm, h)
            else:
                mf_loss(train, fm, h.lambda_)
    _bench_probe(out, tr, seed)

    p = _span_layers(out, tr)
    ops = result.ops_per_worker * h.workers
    p["runtime.ms_per_op"] = p["runtime.train_s"] * 1e3 / ops
    p["runtime.barrier_interval_ms"] = float(np.median(np.diff(result.wall_clock_ms, prepend=0.0)))
    p["runtime.ops"] = ops
    p["runtime.barriers"] = result.barriers
    p["runtime.updates_applied"] = sum(result.update_counts.values())
    p["runtime.staleness_max"] = result.staleness_max
    p["core.kernel_share"] = ops * p["core.kernel_ms"] / (p["runtime.train_s"] * 1e3)
    if objective == "dch":
        p["core.bit_balance"] = float(_bit_balance(users, items).min())
    p["evaluation.users_evaluated"] = report.users_evaluated
    # the first fit (untraced) pays one-off warm-up, so it is left out
    p["trace.overhead_frac"] = (statistics.median(build[True].raw)
                                / statistics.median(build[False].raw[1:]) - 1.0)


# ---------------------------------------------------------------------------
# serve-200k


def _serve_multi(query, mi, items: CodeSet, exclude):
    """The facade's post-processing over a prebuilt multi-index.

    ``recommend(..., "multi-index")`` rebuilds the tables on every call
    (seconds at 200k items), so the loop queries a prebuilt index and
    applies the same exclusion, cut and id mapping itself.
    """
    drop = set(int(p) for p in exclude)
    scored = multi_index_search(query, mi, items, SERVE_RADIUS)
    kept = [(p, d) for p, d in scored if p not in drop][:TOP_K]
    return [(items.ids[p], float(d)) for p, d in kept]


def run_serve(seed: int, seconds: float, tr, workdir: Path, traced: bool) -> Outcome:
    out = Outcome()
    speed = Speed()
    cat = inputs.make_catalog(seed)
    k = inputs.CATALOG_K
    tr.enabled = traced
    # building the CodeSets is input preparation; only the write is timed
    gen_items = CodeSet.from_words(cat.item_words, k, [f"i{j}" for j in range(len(cat.item_words))])
    gen_users = CodeSet.from_words(cat.user_words, k, [f"u{q}" for q in range(len(cat.user_words))])
    with tr.span("save_codes", "data_io", request="inputs"):
        save_codes(gen_items, workdir / "items.codes")
        save_codes(gen_users, workdir / "users.codes")
    del gen_items, gen_users

    setup = Series()
    for r in range(SERVE_SETUP_REPS):
        items = users = None  # let the previous copy go before loading again
        before = speed.sample()
        t0 = _now()
        with tr.span("setup", "harness", request=f"setup-{r}"):
            with tr.span("load_codes", "data_io"):
                items = load_codes(workdir / "items.codes")
                users = load_codes(workdir / "users.codes")
        setup.add([_now() - t0], before, speed.sample())
    out.op(np.array_equal(items.words, cat.item_words), "load_codes round trip")

    build = Series()
    for r in range(SERVE_BUILD_REPS):
        index = mi = None
        before = speed.sample()
        t0 = _now()
        with tr.span("build", "harness", request=f"build-{r}"):
            with tr.span("build_index", "retrieval"):
                index = build_index(items)
            with tr.span("build_multi_index", "retrieval"):
                mi = build_multi_index(items, SERVE_SUBCODES)
        build.add([_now() - t0], before, speed.sample())

    rng = np.random.default_rng([seed, 3])
    plan_len = 50_000
    plan_users = rng.integers(0, len(users), size=plan_len)
    plan_methods = np.concatenate([rng.permutation(len(SERVE_CYCLE))
                                   for _ in range(plan_len // len(SERVE_CYCLE))])
    methods = list(dict.fromkeys(SERVE_CYCLE))
    kept: list[tuple[str, int, list]] = []
    served = dict.fromkeys(methods, 0)
    latency = Series()
    block: list[float] = []
    rank_lat = {True: [], False: []}       # rank latencies by tracing state
    deadline = _now() + seconds
    before, next_sample = speed.sample(), _now() + CALIBRATE_S
    i = 0
    while i < MIN_REQUESTS or i % len(SERVE_CYCLE) or _now() < deadline:
        tr.enabled = traced and (i // TRACE_BLOCK) % 2 == 1
        u = int(plan_users[i % plan_len])
        method = SERVE_CYCLE[plan_methods[i % plan_len]]
        i += 1
        r0 = _now()
        try:
            with tr.span(method, "retrieval", request=f"req-{i}"):
                if method == "multi-index":
                    got = _serve_multi(users.codes[u], mi, items, cat.seen[u])
                else:
                    got = recommend(users.codes[u], items, method, top_k=TOP_K,
                                    radius=SERVE_RADIUS, exclude=cat.seen[u])
        except Exception as exc:  # a failed request is counted, not fatal
            out.op(False, f"{method} for user {u}: {exc!r}")
            continue
        lat = _now() - r0
        block.append(lat)
        if _now() >= next_sample:
            after = speed.sample()
            latency.add(block, before, after)
            block, before = [], after
            next_sample = _now() + CALIBRATE_S
        if method == "rank":
            rank_lat[tr.enabled].append(lat)
        out.op(True, "request")
        served[method] += 1
        if served[method] <= SERVE_CHECKS_PER_METHOD:
            kept.append((method, u, got))
    latency.add(block, before, speed.sample())
    tr.enabled = traced

    hits = []
    for method, u, got in kept:
        query = users.codes[u]
        d = _hamming(items.words, query.words)
        within = np.flatnonzero(d <= SERVE_RADIUS)
        want = _expected(np.arange(d.size) if method == "rank" else within, d, cat.seen[u])
        ok = got == [(items.ids[p], float(d[p])) for p in want]
        out.op(ok, f"{method} for user {u} differs from the NumPy ranking")
        if method == "rank":
            continue
        # engine agreement on the same query, prebuilt tables included
        with tr.span("radius_search", "retrieval", request=f"check-{u}"):
            linear = {p for p, _ in radius_search(query, items, SERVE_RADIUS)}
        with tr.span("lookup_search", "retrieval", request=f"check-{u}"):
            looked = lookup_search(query, index, SERVE_RADIUS)
        with tr.span("multi_index_search", "retrieval", request=f"check-{u}"):
            multi = {p for p, _ in multi_index_search(query, mi, items, SERVE_RADIUS)}
        hits.append(len(looked))
        out.op(linear == set(looked) == multi == set(within.tolist()),
               f"engines disagree for user {u}")

    _end_to_end(out, speed, setup, build, latency)
    for method in methods:
        out.extra[f"requests.{method}"] = (float(served[method]), "count")

    if traced:
        _serve_layers(out, tr, seed, workdir, items, users, rank_lat, hits)
        out.per_layer["host.speed_scale"] = speed.scale()
    return out


def _serve_layers(out, tr, seed, workdir, items, users, rank_lat, hits) -> None:
    with tr.span("codeset", "retrieval", request="probe-codeset"):
        CodeSet.from_words(items.words, items.k, items.ids)
    with tr.span("bucket_stats", "bench", request="probe-buckets"):
        buckets = bucket_stats(items)
    for r in range(CLI_REPS):
        argv = ["recommend", "--input", str(workdir), "--top-k", str(TOP_K),
                "--user", ",".join(users.ids[:CLI_USERS]),
                "--output", str(workdir / "cli.tsv")]
        with tr.span("cli_recommend", "cli", request=f"probe-cli-{r}"):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli(argv)
        lines = (workdir / "cli.tsv").read_text(encoding="utf-8").splitlines()
        out.op(rc == 0 and len(lines) == CLI_USERS * TOP_K, f"cli recommend exit {rc}")
    _bench_probe(out, tr, seed)

    p = _span_layers(out, tr)
    probes = ball_size(items.k, SERVE_RADIUS)
    hits_per_query = statistics.mean(hits)
    p["retrieval.lookup_probes"] = probes
    p["retrieval.hits_per_query"] = hits_per_query
    p["retrieval.hit_ratio"] = hits_per_query / probes
    p["retrieval.bucket_max"] = buckets["max_size"]
    # the rank requests are most of the mix, so both halves hold many
    p["trace.overhead_frac"] = (statistics.median(rank_lat[True])
                                / statistics.median(rank_lat[False]) - 1.0)
