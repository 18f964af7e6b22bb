"""scripts/answers_digest.py: digests that repeat and that see one nudged factor or label."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "answers_digest.py"
_spec = importlib.util.spec_from_file_location("answers_digest", SCRIPT)
answers_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers_digest)


def _slice_answers():
    configs = [answers_digest.TRAINING_CONFIGS[0], answers_digest.TRAINING_CONFIGS[-1]]
    assert {c[0] for c in configs} == {"dch", "mf"}
    return [answers_digest.training_answers(answers_digest.fit(c)) for c in configs]


def test_grid_has_216_configs():
    assert len(set(answers_digest.TRAINING_CONFIGS)) == 216


def test_training_slice_digest_repeats_and_sees_a_nudge():
    first, second = _slice_answers(), _slice_answers()
    flat = [v for answers in first for v in answers]
    want = answers_digest.digest(flat)
    assert answers_digest.digest(v for answers in second for v in answers) == want
    U = second[1][1]  # the mf fit's U
    U[3, 2] = np.nextafter(U[3, 2], np.inf)
    assert answers_digest.digest(v for answers in second for v in answers) != want


def test_ingest_digest_repeats_and_sees_a_nudged_label():
    first, second = list(answers_digest.ingest_answers()), list(answers_digest.ingest_answers())
    want = answers_digest.digest(first)
    assert answers_digest.digest(second) == want
    item_labels = second[9 + 5]  # nine answers a dataset; the fixed TSV's come second
    assert item_labels[1] == "i2"
    item_labels[1] = "i3"
    assert answers_digest.digest(second) != want
