"""Print one SHA-256 digest per family of answers the program gives.

    python3 scripts/answers_digest.py

Run it from the root of a source checkout; cohash is imported from
``src/``.  Each output line is ``name sha256``:

* ``training``: 216 serial fits, dch and mf x W 1-3 x S 1-3 x P 1 and 3
  x B 5, 16 and 64 x 2 random 30x25 datasets of 300 ratings, K=8,
  2 epochs; the losses, U, V, ``sum_u``, ``sum_v``, the update counts
  and both code-word matrices of each.
* ``engines``: ``recommend`` over every 25th user of perfbench's catalog
  (seed 3) with the four hash engines, top 10 and 50, radius 2, the
  user's seen items excluded.
* ``evaluate``: the ``EvalReport``s at ks 1, 5 and 10 of DCH codes, MF
  vectors and MF rounded codes, trained serially on perfbench's fit
  corpus (seed 41) with its fit workloads' hyperparameters.
* ``ingest``: the arrays, labels, counts and scale ``load_ratings``
  returns for perfbench's fit corpus (seed 41) and for a fixed TSV and
  Netflix-prize text with "\\r\\n", lone "\\r", blank lines, long labels
  and non-ASCII labels.

A change that keeps the program's answers bit-identical keeps every
line.  The definitions are fixed here, hyperparameters included, so
lines printed at different commits compare.  Nothing is timed, and the
only part of perfbench read is its input generator.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  perfbench's input generator
from cohash.core import Dataset, Hyperparams  # noqa: E402
from cohash.data_io import load_ratings  # noqa: E402
from cohash.evaluation import SplitSpec, evaluate, split  # noqa: E402
from cohash.retrieval import CodeSet, recommend  # noqa: E402
from cohash.runtime import run_training  # noqa: E402

# (objective, workers, servers, staleness, batch size, dataset seed)
TRAINING_CONFIGS = list(itertools.product(
    ("dch", "mf"), (1, 2, 3), (1, 2, 3), (1, 3), (5, 16, 64), (0, 1)))
ENGINES = ("linear", "lookup", "multi-index", "rank")
EVAL_KS = (1, 5, 10)
FIT_SEED = 41
# line endings of every kind, blank lines, labels past 8 bytes, non-ASCII labels
INGEST_TEXTS = {
    "tsv": ("u1\ti1\t5\r\nu2\ti1\t4\ra long user label\ti2\t3\n\n\nü\t漢字\t1\r\n"
            "\r\nu1\tan item label past 8 bytes\t2.5\nü\ti1\t 4 "),
    "netflix-prize": ("1:\r\n30878,4,2005-12-26\r2647871,3\n\n10:\n30878,1,2004-02-01\r\n"
                      "üser with a long label,5\r\r漢:\n2647871,2\n"),
}
# perfbench's fit workloads, both run serially here
FIT_HYPERPARAMS = {
    "dch": dict(k=10, lambda_=1e-3, alpha=0.5, gamma=0.1, batch_size=500,
                staleness=5, workers=1, servers=1, epochs=1),
    "mf": dict(k=10, lambda_=0.1, alpha=0.05, gamma=0.1, batch_size=500,
               staleness=2, workers=2, servers=2, epochs=1),
}


def digest(values) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and reprs of the rest."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def random_dataset(seed: int) -> Dataset:
    """300 random 1-5 star ratings of 25 items by 30 users."""
    rng = np.random.default_rng(seed)
    stars = rng.integers(1, 6, size=300).astype(np.float64)
    return Dataset(rng.integers(0, 30, size=300), rng.integers(0, 25, size=300),
                   (stars - 1.0) / 4.0, stars, 30, 25, scale=(1.0, 5.0))


def fit(config):
    """One serial fit of a training config, with codes."""
    objective, workers, servers, staleness, batch, data_seed = config
    h = Hyperparams(k=8, alpha=0.05, lambda_=0.01, batch_size=batch, staleness=staleness,
                    workers=workers, servers=servers, epochs=2, seed=0)
    return run_training(random_dataset(data_seed), h, objective=objective,
                        stop_on_convergence=False)


def training_answers(result) -> list:
    fm = result.factors
    return [np.array(result.losses), fm.U, fm.V, fm.sum_u, fm.sum_v,
            sorted(result.update_counts.items()),
            result.user_codes.words, result.item_codes.words]


def engine_answers():
    cat = inputs.make_catalog(3)
    users = CodeSet.from_words(cat.user_words, inputs.CATALOG_K)
    items = CodeSet.from_words(cat.item_words, inputs.CATALOG_K)
    for u in range(0, len(users), 25):
        for method, top_k in itertools.product(ENGINES, (10, 50)):
            yield recommend(users[u], items, method, top_k=top_k, radius=2, exclude=cat.seen[u])


def fit_corpus() -> Dataset:
    with tempfile.TemporaryDirectory() as tmp:
        tsv = Path(tmp) / "ratings.tsv"
        inputs.write_ratings_tsv(tsv, FIT_SEED)
        return load_ratings(tsv)


def evaluate_answers():
    data = fit_corpus()
    train, test = split(data, SplitSpec(train_fraction=0.8, seed=FIT_SEED))
    for objective, hp in FIT_HYPERPARAMS.items():
        run = run_training(train, Hyperparams(**hp, seed=FIT_SEED), objective=objective,
                           stop_on_convergence=False)
        yield evaluate(run.user_codes, run.item_codes, train, test, EVAL_KS, objective)
        if objective == "mf":
            yield evaluate(run.factors.U, run.factors.V, train, test, EVAL_KS, objective)


def ingest_answers():
    datasets = [fit_corpus()]
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, text in INGEST_TEXTS.items():
            path = Path(tmp) / fmt
            path.write_bytes(text.encode("utf-8"))
            datasets.append(load_ratings(path, fmt))
    for data in datasets:
        yield from (data.users, data.items, data.ratings, data.raw_ratings, data.user_labels,
                    data.item_labels, data.num_users, data.num_items, data.scale)


def main() -> None:
    training = (v for config in TRAINING_CONFIGS for v in training_answers(fit(config)))
    print("training", digest(training), flush=True)
    print("engines", digest(engine_answers()), flush=True)
    print("evaluate", digest(evaluate_answers()), flush=True)
    print("ingest", digest(ingest_answers()), flush=True)


if __name__ == "__main__":
    main()
