"""File formats: ratings loaders, the binary code file, factor persistence."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from util import load_ratings_loop


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

    def test_blank_lines_only(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_bytes(b"\n\r\n\r\n\r")
        with pytest.raises(EmptyDatasetError):
            load_ratings(p)

    def test_invalid_utf8_after_a_bad_line(self, tmp_path):
        # the whole file is decoded before any line is parsed
        p = tmp_path / "r.tsv"
        p.write_bytes(b"a\tx\t5\nb\tx\nc\tx\t\xff\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:3: 'utf-8' codec")):
            load_ratings(p)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_names_its_line(self, tmp_path, end):
        # a blank line counts, and the bad byte starts line 3
        p = tmp_path / "r.tsv"
        p.write_bytes(end.join([b"a\tx\t5", b"", b"\xff\ty\t4", b"c\tz\t3", b""]))
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:3: ")):
            load_ratings(p)

    def test_labels_told_apart_by_length_and_later_words(self, tmp_path):
        # equal first words: "a" and "a\x00", and labels past 8 bytes
        labels = ["a", "a\x00", "abcdefgh", "abcdefgh\x00", "abcdefgh1", "abcdefgh2",
                  "abcdefghijklmnopq", "abcdefghijklmnopr", "abcdefgh"]
        p = tmp_path / "r.tsv"
        p.write_text("".join(f"{label}\t{label}\t5\n" for label in labels))
        data = load_ratings(p)
        assert data.user_labels == data.item_labels == labels[:-1]
        np.testing.assert_array_equal(data.users, [0, 1, 2, 3, 4, 5, 6, 7, 2])

    def test_one_long_label_among_short_ones(self, tmp_path):
        # a field is read word by word only as far as it reaches
        p = tmp_path / "r.tsv"
        long = "x" * 1000
        p.write_text(f"a\ti\t5\n{long}\ti\t4\n{long}y\tj\t3\na\tj\t2\n{long}\ti\t1\n")
        assert_same_outcome(p, "tsv")
        assert load_ratings(p).user_labels == ["a", long, long + "y"]

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

    @pytest.mark.parametrize("scale", [(1.0, np.inf), (-np.inf, 5.0), (-1e308, 1e308)])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        # (-inf, 5) once normalized every rating to NaN
        p = tmp_path / "r.tsv"
        p.write_text("a\tx\t1\n")
        with pytest.raises(ValueError, match="finite"):
            load_ratings(p, scale=scale)

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

    def test_invalid_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "combined.txt"
        p.write_bytes(b"1:\r\n30878,4,2005-12-26\r\n2647\xff,3,2005-12-26\r\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:3: ")):
            load_ratings(p, fmt="netflix-prize")

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


def parse_outcome(parse, path, fmt, scale):
    """The Dataset a parser returns, or the type and text of its error."""
    try:
        return parse(path, fmt, scale)
    except DataFormatError as exc:
        return type(exc), str(exc)


def assert_same_outcome(path, fmt, scale=(1.0, 5.0)):
    got = parse_outcome(load_ratings, path, fmt, scale)
    want = parse_outcome(load_ratings_loop, path, fmt, scale)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("users", "items", "ratings", "raw_ratings", "active_users", "active_items"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (got.num_users, got.num_items, got.scale) == \
        (want.num_users, want.num_items, want.scale)
    assert got.user_labels == want.user_labels
    assert got.item_labels == want.item_labels


# labels with spaces, non-ASCII text, NUL, and characters str.splitlines()
# breaks on but a text-mode file does not; the long ones, of 8 to 20
# characters, share their first 8 bytes often, so later words tell them apart
LABEL_ALPHABET = list("ab9 é漢") + ["\x1c", "\x0c", "\x85", "\u2028"]
LABELS = st.one_of(
    st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=4),
    st.builds(str.__add__, st.sampled_from(["abababab", "9 é漢9 é漢"]),
              st.text(alphabet=LABEL_ALPHABET + ["\x00"], max_size=12)),
    st.sampled_from(["\x00", "a\x00", "a"]),
)
VALUES = st.sampled_from(["1", "5", "3", " 4 ", "4.5", "1_0", "1e0", "2\xa0", "0.0"])
# not a number, outside the scale, NaN, a field too many
FAULTY = st.sampled_from(["x", "", "11", "-1", "nan", "inf", "2\t2"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
SCALE = (0.0, 10.0)


@st.composite
def tsv_files(draw, values=VALUES):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        else:
            lines.append(f"{draw(LABELS)}\t{draw(LABELS)}\t{draw(values)}")
    endings = [draw(ENDINGS) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""  # a last line without a line ending
    return "".join(map(str.__add__, lines, endings))


@st.composite
def netflix_files(draw, values=VALUES):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        # a movie id that strip() leaves whole; one it empties is a fault
        lines.append(f"m{draw(LABELS)}9:")
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.integers(0, 5)) == 0:
                lines.append("")
            date = draw(st.sampled_from(["", ",2005-12-26"]))
            lines.append(f"{draw(LABELS)},{draw(values)}{date}")
    return "".join(line + draw(ENDINGS) for line in lines)


RUN_ON_ONE_FILE = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMatchesLineParser:
    """The column-wise parser against the per-line one it replaced."""

    @pytest.mark.parametrize("fmt,files", [
        ("tsv", tsv_files()),
        ("tsv", tsv_files(values=st.one_of(VALUES, FAULTY))),
        ("netflix-prize", netflix_files()),
        ("netflix-prize", netflix_files(values=st.one_of(VALUES, FAULTY))),
    ], ids=["tsv", "tsv-faults", "netflix", "netflix-faults"])
    @RUN_ON_ONE_FILE
    @given(data=st.data())
    def test_generated_files(self, tmp_path, fmt, files, data):
        path = tmp_path / "ratings"
        path.write_bytes(data.draw(files).encode("utf-8"))
        assert_same_outcome(path, fmt, SCALE)

    @pytest.mark.parametrize("fmt,text,error", [
        # a scale error on line 2 before a 2-field line on line 4
        ("tsv", "a\tx\t5\nb\tx\t9\nc\tx\t3\nd\tx\n",
         ":2: rating 9.0 outside scale [1.0, 5.0]"),
        ("tsv", "a\tx\tfive\nb\tx\t9\n", ":1: rating 'five' is not a number"),
        ("tsv", "a\tx\t9\nb\tx\tfive\n", ":1: rating 9.0 outside scale"),
        ("tsv", "a\tx\t5\nb\tx\tnan\n", ":2: rating nan outside scale"),
        ("tsv", "a\tx\t5\nb\tx\t-inf\n", ":2: rating -inf outside scale"),
        # blank lines, "\r\n" and a lone "\r" count in line numbers
        ("tsv", "\n\na\tx\t5\r\n\rb\tx\n", ":5: expected 3 tab-separated fields, got 2"),
        ("tsv", "a\tx\t5\n\nb\tx\t1\tz\n", ":3: expected 3 tab-separated fields, got 4"),
        ("tsv", " \n", ":1: expected 3 tab-separated fields, got 1"),
        ("netflix-prize", "1:\n30878,x\n2647871\n", ":2: rating 'x' is not a number"),
        ("netflix-prize", "1:\n30878,4\n\n30879,6\n:\n", ":4: rating 6.0 outside scale"),
        ("netflix-prize", "1:\n30878,4\n\n:\n30879,x\n", ":4: empty movie id"),
        ("netflix-prize", "\n30878,4\n1:\n", ":2: rating row before any movie header"),
    ])
    def test_errors_read_the_same(self, tmp_path, fmt, text, error):
        path = tmp_path / "ratings"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataFormatError) as got:
            load_ratings(path, fmt=fmt)
        assert str(got.value).startswith(f"{path}{error}")
        with pytest.raises(DataFormatError) as want:
            load_ratings_loop(path, fmt=fmt)
        assert str(got.value) == str(want.value)


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
        assert list(loaded) == list(original)

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

    def test_ids_with_line_break_characters_survive_round_trip(self, tmp_path):
        # ratings labels may hold characters str.splitlines() breaks on
        ids = ["a\x1cb", "c\x0cd", "e\u2028f", "g\x85", ""]
        rng = np.random.default_rng(8)
        words = signs_set(4, rng, len(ids)).words
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(words, 4, ids), path)
        assert load_codes(path).ids == ids

    def test_positional_ids_survive_round_trip(self, tmp_path):
        # a set built without ids once came back as ['0', '1', '2']
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(np.arange(3, dtype=np.uint64)[:, None], 4), path)
        assert not (tmp_path / "c.bin.ids").exists()
        assert load_codes(path).ids == [0, 1, 2]

    def test_positional_save_removes_stale_sidecar(self, tmp_path):
        words = np.arange(3, dtype=np.uint64)[:, None]
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(words, 4, ["a", "b", "c"]), path)
        save_codes(CodeSet.from_words(words, 4), path)
        assert not (tmp_path / "c.bin.ids").exists()
        assert load_codes(path).ids == [0, 1, 2]

    def test_int_labels_out_of_position_keep_their_sidecar(self, tmp_path):
        words = np.arange(3, dtype=np.uint64)[:, None]
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(words, 4, [0, 2, 1]), path)
        assert (tmp_path / "c.bin.ids").read_text() == "0\n2\n1\n"
        assert load_codes(path).ids == ["0", "2", "1"]

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_id_with_line_break_rejected_before_writing(self, tmp_path, brk):
        # the sidecar reader would take the id for two
        words = signs_set(4, np.random.default_rng(9), 2).words
        bad = f"a{brk}b"
        with pytest.raises(ValueError, match=re.escape(f"id {bad!r} holds a line break")):
            save_codes(CodeSet.from_words(words, 4, [bad, "c"]), tmp_path / "c.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["a\rb\nc\n", "a\r\nb\r\nc\r\n", "a\rb\rc"])
    def test_sidecar_lines_end_as_ratings_lines_do(self, tmp_path, text):
        # "\r\n" and a lone "\r" end an id line, as they end a ratings line
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(np.zeros((3, 1), np.uint64), 4, ["x", "y", "z"]), path)
        (tmp_path / "c.bin.ids").write_bytes(text.encode())
        assert load_codes(path).ids == ["a", "b", "c"]

    def test_missing_sidecar_defaults_to_positions(self, tmp_path):
        # a labelled set, since a positional one is saved without a sidecar
        rng = np.random.default_rng(6)
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(signs_set(4, rng, 3).words, 4, ["a", "b", "c"]), path)
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

    def test_sidecar_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "c.bin"
        save_codes(CodeSet.from_words(np.zeros((3, 1), np.uint64), 4, ["a", "b", "c"]), path)
        side = tmp_path / "c.bin.ids"
        side.write_bytes(b"a\nb\n\xff\n")
        with pytest.raises(CodeFileError, match=re.escape(f"{side}:3: ")):
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

    def test_labels_with_line_break_characters_survive_round_trip(self, tmp_path):
        users, items = ["a\x1cb", "c\u2028d"], ["x\x0cy", "", "z\x85"]
        save_factors(rand_fm(2, 3, 2, seed=4), tmp_path / "m", users, items)
        _, got_users, got_items = load_factors(tmp_path / "m")
        assert (got_users, got_items) == (users, items)

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    @pytest.mark.parametrize("side", ["users", "items"])
    def test_label_with_line_break_rejected_before_writing(self, tmp_path, side, brk):
        bad = f"u{brk}1"
        labels = {"users": ["a", "b"], "items": ["x", "y", "z"]}
        labels[side][1] = bad
        with pytest.raises(ValueError, match=re.escape(f"id {bad!r} holds a line break")):
            save_factors(rand_fm(2, 3, 2, seed=4), tmp_path / "m",
                         labels["users"], labels["items"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["users.ids", "items.ids"])
    def test_label_count_mismatch_names_file(self, tmp_path, name):
        save_factors(rand_fm(2, 3, 2, seed=4), tmp_path / "m", ["a", "b"], ["x", "y", "z"])
        (tmp_path / "m" / name).write_text("only\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{name}: 1 ids for [23] rows"):
            load_factors(tmp_path / "m")

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

    @pytest.mark.parametrize("drop", ["k", "num_users", "num_items"])
    def test_meta_missing_key_named(self, tmp_path, drop):
        save_factors(rand_fm(2, 3, 2, seed=0), tmp_path / "m")
        meta = tmp_path / "m" / "meta.json"
        fields = json.loads(meta.read_text())
        del fields[drop]
        meta.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=f"meta.json has no {drop}"):
            load_factors(tmp_path / "m")

    @pytest.mark.parametrize("text,error", [
        ("[]", "must hold a JSON object"), ("3", "must hold a JSON object"),
        ('"meta"', "must hold a JSON object"), ("null", "must hold a JSON object"),
        ("{", "is not JSON"), ("", "is not JSON"),
    ])
    def test_meta_not_a_json_object(self, tmp_path, text, error):
        save_factors(rand_fm(2, 3, 2, seed=0), tmp_path / "m")
        (tmp_path / "m" / "meta.json").write_text(text)
        with pytest.raises(ValueError, match=f"meta.json {error}"):
            load_factors(tmp_path / "m")

    @pytest.mark.parametrize("name,text,line", [
        ("users.ids", b"a\r\n\xffb\n", 2),
        ("items.ids", b"x\ry\r\xe2\x82\n", 3),
        ("meta.json", b'{"k": 2,\n\xff}', 2),
    ])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, name, text, line):
        save_factors(rand_fm(2, 3, 2, seed=0), tmp_path / "m", ["a", "b"], ["x", "y", "z"])
        (tmp_path / "m" / name).write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'm' / name}:{line}: ")):
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
