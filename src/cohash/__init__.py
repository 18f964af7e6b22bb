"""Collaborative hashing recommender.

Learns binary user/item codes by relaxed stochastic optimization on a
simulated parameter server, rounds them by per-coordinate medians, and
serves recommendations with Hamming-space retrieval.
"""

from cohash.core import (
    Dataset,
    FactorMatrices,
    HashCode,
    Hyperparams,
    dch_loss,
    init_factors,
    mf_loss,
    predict_relaxed,
    project,
    round_codes,
    similarity,
)
from cohash.data_io import load_codes, load_factors, load_ratings, save_codes, save_factors
from cohash.evaluation import SplitSpec, dcg_at_k, evaluate, precision_at_k, run_variance, split
from cohash.retrieval import (
    CodeSet,
    build_index,
    build_multi_index,
    hamming_distance,
    hamming_rank_topk,
    lookup_search,
    multi_index_search,
    radius_search,
    recommend,
)
from cohash.runtime import TrainResult, run_training
from cohash.synth import implicit_dataset, planted_dataset, random_codes

__version__ = "0.1.0"

__all__ = [
    "CodeSet",
    "Dataset",
    "FactorMatrices",
    "HashCode",
    "Hyperparams",
    "SplitSpec",
    "TrainResult",
    "build_index",
    "build_multi_index",
    "dch_loss",
    "dcg_at_k",
    "evaluate",
    "hamming_distance",
    "hamming_rank_topk",
    "implicit_dataset",
    "init_factors",
    "load_codes",
    "load_factors",
    "load_ratings",
    "lookup_search",
    "mf_loss",
    "multi_index_search",
    "planted_dataset",
    "precision_at_k",
    "predict_relaxed",
    "project",
    "radius_search",
    "random_codes",
    "recommend",
    "round_codes",
    "run_training",
    "run_variance",
    "save_codes",
    "save_factors",
    "similarity",
    "split",
    "__version__",
]
