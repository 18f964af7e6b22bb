"""File formats: ratings loaders, the binary code file, factor persistence."""

import struct

import numpy as np
import pytest

from cohash.core import FactorMatrices, HashCode
from cohash.data_io import (
    BadMagicError,
    CodeCountMismatchError,
    CodeFileError,
    DataFormatError,
    EmptyDatasetError,
    TruncatedCodeFileError,
    load_codes,
    load_factors,
    load_ratings,
    save_codes,
    save_factors,
    write_loss_trace,
    write_report,
)
from cohash.evaluation import EvalReport
from cohash.retrieval import CodeSet


class TestTsvLoader:
    def test_three_line_example(self, tmp_path):
        # users {a, b}, item {x}, stars {5, 3, 1} on a 1-5 scale
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t5\nb\tx\t3\na\tx\t1\n")
        data = load_ratings(p)
        assert data.num_users == 2
        assert data.num_items == 1
        assert data.user_labels == ["a", "b"]
        assert data.item_labels == ["x"]
        np.testing.assert_array_equal(data.users, [0, 1, 0])
        np.testing.assert_array_equal(data.items, [0, 0, 0])
        np.testing.assert_array_equal(data.ratings, [1.0, 0.5, 0.0])
        np.testing.assert_array_equal(data.raw_ratings, [5.0, 3.0, 1.0])

    def test_first_appearance_order(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u9\ti3\t4\nu1\ti7\t2\nu9\ti7\t5\n")
        data = load_ratings(p)
        assert data.user_labels == ["u9", "u1"]
        assert data.item_labels == ["i3", "i7"]
        np.testing.assert_array_equal(data.users, [0, 1, 0])
        np.testing.assert_array_equal(data.items, [0, 1, 1])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t5\n\nb\tx\t3\n")
        assert len(load_ratings(p)) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t5\nb\tx\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_ratings(p)

    def test_non_numeric_rating(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\tfive\n")
        with pytest.raises(DataFormatError, match=r":1:.*not a number"):
            load_ratings(p)

    def test_rating_outside_scale(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t6\n")
        with pytest.raises(DataFormatError, match=r"outside scale"):
            load_ratings(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_ratings(p)

    def test_custom_scale(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t1\nb\tx\t0\n")
        data = load_ratings(p, scale=(0.0, 1.0))
        np.testing.assert_array_equal(data.ratings, [1.0, 0.0])
        assert data.scale == (0.0, 1.0)

    def test_bad_scale_rejected(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t1\n")
        with pytest.raises(ValueError, match="scale"):
            load_ratings(p, scale=(5.0, 1.0))

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t1\n")
        with pytest.raises(ValueError, match="format"):
            load_ratings(p, fmt="csv")


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


class TestNetflixLoader:
    def test_three_movie_fixture(self, tmp_path):
        p = tmp_path / "combined.txt"
        p.write_text(NETFLIX_FIXTURE)
        data = load_ratings(p, fmt="netflix-prize")
        assert data.num_items == 3
        assert data.num_users == 3
        assert len(data) == 5
        assert data.item_labels == ["1", "10", "2"]
        assert data.user_labels == ["30878", "2647871", "1952305"]
        # movie "1" carries two ratings, "10" one, "2" two
        np.testing.assert_array_equal(np.bincount(data.items), [2, 1, 2])
        # user 30878 rated all three movies
        np.testing.assert_array_equal(np.bincount(data.users), [3, 1, 1])
        np.testing.assert_array_equal(data.raw_ratings, [4, 4, 3, 3, 1])
        np.testing.assert_allclose(data.ratings, [0.75, 0.75, 0.5, 0.5, 0.0])

    def test_row_before_header_rejected(self, tmp_path):
        p = tmp_path / "combined.txt"
        p.write_text("30878,4,2005-12-26\n1:\n")
        with pytest.raises(DataFormatError, match=r":1:.*movie header"):
            load_ratings(p, fmt="netflix-prize")

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "combined.txt"
        p.write_text("1:\n30878\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_ratings(p, fmt="netflix-prize")

    def test_date_is_optional(self, tmp_path):
        p = tmp_path / "combined.txt"
        p.write_text("1:\n30878,4\n")
        data = load_ratings(p, fmt="netflix-prize")
        assert len(data) == 1


def signs_set(k: int, rng: np.random.Generator, n: int) -> CodeSet:
    signs = rng.choice([-1.0, 1.0], size=(n, k))
    return CodeSet([HashCode.from_signs(row) for row in signs])


class TestCodeFile:
    @pytest.mark.parametrize("k", [1, 7, 8, 64, 512])
    def test_round_trip(self, tmp_path, k):
        rng = np.random.default_rng(k)
        original = signs_set(k, rng, 9)
        path = tmp_path / "codes.bin"
        save_codes(original, path)
        loaded = load_codes(path)
        assert loaded.k == k
        assert len(loaded) == 9
        np.testing.assert_array_equal(loaded.words, original.words)
        assert loaded.codes == original.codes

    def test_file_length_is_exact(self, tmp_path):
        for k, n in [(1, 3), (8, 2), (10, 5), (64, 4)]:
            rng = np.random.default_rng(k * 31 + n)
            path = tmp_path / f"codes_{k}_{n}.bin"
            save_codes(signs_set(k, rng, n), path)
            assert path.stat().st_size == 12 + n * ((k + 7) // 8)

    def test_single_entity_all_ones_k8(self, tmp_path):
        # K=8, one entity, every coordinate +1: 13 bytes ending in 0xFF
        code = HashCode.from_signs(np.ones(8))
        path = tmp_path / "one.bin"
        save_codes(CodeSet([code]), path)
        blob = path.read_bytes()
        assert blob == b"DCH1" + struct.pack("<II", 8, 1) + b"\xff"

    def test_bit_zero_of_byte_zero_is_coordinate_zero(self, tmp_path):
        signs = -np.ones(8)
        signs[0] = 1.0
        path = tmp_path / "c.bin"
        save_codes(CodeSet([HashCode.from_signs(signs)]), path)
        assert path.read_bytes()[-1] == 0x01

    def test_ids_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cs = CodeSet([HashCode.from_signs(row)
                      for row in rng.choice([-1.0, 1.0], size=(3, 4))],
                     ids=["alpha", "beta", "gamma"])
        path = tmp_path / "c.bin"
        save_codes(cs, path)
        assert (tmp_path / "c.bin.ids").read_text() == "alpha\nbeta\ngamma\n"
        assert load_codes(path).ids == ["alpha", "beta", "gamma"]

    def test_missing_sidecar_defaults_to_positions(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "c.bin"
        save_codes(signs_set(4, rng, 3), path)
        (tmp_path / "c.bin.ids").unlink()
        assert load_codes(path).ids == [0, 1, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"NOPE" + struct.pack("<II", 8, 1) + b"\xff")
        with pytest.raises(BadMagicError):
            load_codes(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"DCH1\x08\x00")
        with pytest.raises(TruncatedCodeFileError):
            load_codes(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"DCH1" + struct.pack("<II", 8, 3) + b"\xff\x01")
        with pytest.raises(TruncatedCodeFileError, match="expected 15 bytes, got 14"):
            load_codes(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"DCH1" + struct.pack("<II", 8, 1) + b"\xff\x00")
        with pytest.raises(CodeCountMismatchError):
            load_codes(path)

    def test_error_variants_are_distinct(self):
        assert not issubclass(BadMagicError, TruncatedCodeFileError)
        assert not issubclass(TruncatedCodeFileError, BadMagicError)
        assert not issubclass(CodeCountMismatchError, TruncatedCodeFileError)
        for cls in (BadMagicError, TruncatedCodeFileError, CodeCountMismatchError):
            assert issubclass(cls, CodeFileError)

    def test_nonzero_padding_rejected(self, tmp_path):
        # K=4 uses the low nibble only; a set high bit is corruption
        path = tmp_path / "c.bin"
        path.write_bytes(b"DCH1" + struct.pack("<II", 4, 1) + b"\x1f")
        with pytest.raises(CodeFileError):
            load_codes(path)

    def test_nonzero_padding_in_later_row_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        rows = [b"\x0f"] * 2000
        rows[1000] = b"\x1f"
        path.write_bytes(b"DCH1" + struct.pack("<II", 4, 2000) + b"".join(rows))
        with pytest.raises(CodeFileError, match="padding"):
            load_codes(path)

    def test_sidecar_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "c.bin"
        save_codes(signs_set(4, rng, 3), path)
        (tmp_path / "c.bin.ids").write_text("only-one\n")
        with pytest.raises(CodeFileError, match="ids"):
            load_codes(path)


def rand_fm(num_users: int, num_items: int, k: int, seed: int) -> FactorMatrices:
    rng = np.random.default_rng(seed)
    U = rng.uniform(-0.5, 0.5, size=(num_users, k))
    V = rng.uniform(-0.5, 0.5, size=(num_items, k))
    return FactorMatrices(U, V, U.sum(axis=0), V.sum(axis=0))


class TestFactorPersistence:
    def test_round_trip(self, tmp_path):
        fm = rand_fm(6, 4, 3, seed=11)
        save_factors(fm, tmp_path / "model", user_labels=list("abcdef"),
                     item_labels=["x", "y", "z", "w"])
        loaded, users, items = load_factors(tmp_path / "model")
        np.testing.assert_array_equal(loaded.U, fm.U)
        np.testing.assert_array_equal(loaded.V, fm.V)
        np.testing.assert_array_equal(loaded.sum_u, fm.sum_u)
        np.testing.assert_array_equal(loaded.sum_v, fm.sum_v)
        assert users == list("abcdef")
        assert items == ["x", "y", "z", "w"]

    def test_byte_identical_across_saves(self, tmp_path):
        fm = rand_fm(5, 7, 3, seed=2)
        save_factors(fm, tmp_path / "a")
        save_factors(fm, tmp_path / "b")
        for name in ("U.npy", "V.npy", "sum_u.npy", "sum_v.npy", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_labels_optional(self, tmp_path):
        fm = rand_fm(2, 2, 2, seed=0)
        save_factors(fm, tmp_path / "m")
        _, users, items = load_factors(tmp_path / "m")
        assert users is None and items is None

    def test_meta_mismatch_detected(self, tmp_path):
        fm = rand_fm(2, 2, 2, seed=0)
        save_factors(fm, tmp_path / "m")
        meta = (tmp_path / "m" / "meta.json")
        meta.write_text(meta.read_text().replace('"k": 2', '"k": 9'))
        with pytest.raises(ValueError, match="meta.json"):
            load_factors(tmp_path / "m")

    def test_item_count_mismatch_detected(self, tmp_path):
        save_factors(rand_fm(2, 3, 2, seed=0), tmp_path / "m")
        np.save(tmp_path / "m" / "V.npy", np.zeros((4, 2)))
        with pytest.raises(ValueError, match="meta.json"):
            load_factors(tmp_path / "m")


class TestWriters:
    def test_loss_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace(path, [0.5, 0.25], [10.0, 20.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "barrier_index,wall_clock_ms,training_loss"
        assert lines[1] == "1,10.0,0.5"
        assert lines[2] == "2,20.5,0.25"

    def test_report_csv(self, tmp_path):
        rep = EvalReport(model="dch", users_evaluated=4, precision={5: 0.25}, dcg={5: 1.5})
        path = tmp_path / "report.csv"
        write_report(path, [rep])
        lines = path.read_text().splitlines()
        assert lines[0] == "model,metric,k,value"
        assert "dch,precision,5,0.25" in lines
        assert "dch,dcg,5,1.5" in lines

    def test_report_json(self, tmp_path):
        import json

        rep = EvalReport(model="mf", users_evaluated=2, precision={1: 1.0}, dcg={1: 3.0})
        path = tmp_path / "report.json"
        write_report(path, [rep])
        rows = json.loads(path.read_text())
        assert {"model": "mf", "metric": "precision", "k": 1, "value": 1.0} in rows
        assert {"model": "mf", "metric": "dcg", "k": 1, "value": 3.0} in rows
