"""Dataset ingestion, code/factor persistence, and report writers.

Ratings come in as TSV (user, item, rating separated by single tabs) or
in the Netflix-prize layout ("<movie-id>:" header lines followed by
"user,rating,date" rows).  A line ends at "\\n", "\\r\\n" or a lone "\\r"
only; blank lines are skipped but counted in line numbers, and an error
names the first bad line.  An invalid UTF-8 byte in any text file read
here raises that file's own error, naming the byte's line, before any
other fault of the file.  External ids are arbitrary strings mapped to
dense 0-based indices in order of first appearance, and the mapping is
kept so downstream commands can answer in the caller's ids.

The TSV branch works on byte offsets.  It turns the bytes "\\r\\n" and a
lone "\\r" into "\\n", as text mode does, and one NumPy pass finds every
"\\n" and tab; each distinct label is decoded, and each distinct rating
field decoded and float()-parsed, only once.  The Netflix-prize branch
reads line by line, because its str.strip() strips Unicode whitespace.

Codes are stored in a small binary format: magic "DCH1", u32 LE code
length K, u32 LE entity count, then ceil(K/8) bytes per entity with
bit 0 of byte 0 holding coordinate 0 (1 encodes +1).  The file length
is exactly 12 + count * ceil(K/8) bytes; a text sidecar "<path>.ids"
maps row to external id, one per line, so the writers refuse an id that
holds "\\n" or "\\r".  A set whose ids are its positions is saved
without a sidecar, and a code file without one loads with those ids.
Factors are saved as individual .npy files (their bytes are
deterministic, unlike zip containers) plus a JSON meta file.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from cohash.core import Dataset, FactorMatrices, words_per_code
from cohash.retrieval import CodeSet

__all__ = [
    "DataFormatError",
    "EmptyDatasetError",
    "CodeFileError",
    "BadMagicError",
    "TruncatedCodeFileError",
    "CodeCountMismatchError",
    "load_ratings",
    "save_codes",
    "load_codes",
    "save_factors",
    "load_factors",
    "write_loss_trace",
    "write_report",
]

CODE_MAGIC = b"DCH1"


class DataFormatError(ValueError):
    """A ratings file line failed to parse; the message names the line."""


class EmptyDatasetError(DataFormatError):
    """The ratings file contains no triples."""


class CodeFileError(ValueError):
    """Base for structurally invalid code files."""


class BadMagicError(CodeFileError):
    """The file does not start with the DCH1 magic bytes."""


class TruncatedCodeFileError(CodeFileError):
    """The file is shorter than its header promises."""


class CodeCountMismatchError(CodeFileError):
    """The payload holds more bytes than count * ceil(K/8)."""


# ---------------------------------------------------------------------------
# Text decoding


def _bad_utf8(path: Path, exc: UnicodeDecodeError) -> str:
    """``path:line: reason`` for the invalid byte of ``exc``, whose
    ``object`` is the file's bytes; "\\n", "\\r\\n" and a lone "\\r"
    each end a line."""
    head = exc.object[: exc.start]
    line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return f"{path}:{line}: {exc}"


def _read_text(path: Path, error: type[ValueError]) -> str:
    """The file as text mode reads it; invalid UTF-8 raises ``error``,
    naming the line."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(_bad_utf8(path, exc)) from None


# ---------------------------------------------------------------------------
# Ratings ingestion


def _ids_by_first_occurrence(column: list[str]) -> tuple[np.ndarray, list[str]]:
    index = dict(zip(dict.fromkeys(column), itertools.count()))
    ids = np.fromiter(map(index.__getitem__, column), np.int64, len(column))
    # copies, so that the labels kept do not pin the memory of the parse
    return ids, [label.encode().decode() for label in index]


# _LOW_BYTES[n] keeps the first n bytes of a little-endian word
_LOW_BYTES = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


def _ids_by_spans(
    blob: bytes, spans: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, list[str]]:
    """``_ids_by_first_occurrence`` of the fields ``blob[start:end]`` of
    the (starts, ends) ``spans``, by sorts of their bytes.  ``blob`` ends
    in 8 zero bytes, so a word read at a field's start stays inside it.

    A field's bytes are read as uint64 words through a view whose stride
    is one byte, zeroed past its end; its length is part of its key, so
    "a" and "a\\x00" differ.  Only each distinct field's first occurrence
    is decoded.
    """
    starts, ends = spans
    if not starts.size:
        return np.zeros(0, np.int64), []
    at = np.ndarray((len(blob) - 7,), "<u8", buffer=blob, strides=(1,))
    lengths = ends - starts

    def word(rows, offset: int) -> np.ndarray:
        return at[starts[rows] + offset] & _LOW_BYTES[np.minimum(lengths[rows] - offset, 8)]

    longest = int(lengths.max())
    if longest < 8:
        # a field of at most 7 bytes leaves its word's top byte for the length
        key = word(slice(None), 0) | lengths.astype(np.uint64) << np.uint64(56)
    else:
        # fields are classed by length, then split word by word; a pass
        # reads only the fields that reach its offset, so one long field
        # costs a word per pass, not one per field
        key = lengths.copy()
        top = longest  # the largest class id in use
        rows = np.arange(key.size)
        for offset in range(0, longest, 8):
            rows = rows[lengths[rows] > offset]
            words = word(rows, offset)
            # by class, then by word: a stable sort after a fast one
            order = words.argsort()
            order = order[key[rows[order]].argsort(kind="stable")]
            rows, words = rows[order], words[order]
            classes = key[rows]
            split = np.empty(rows.size, bool)
            split[0] = True
            split[1:] = (classes[1:] != classes[:-1]) | (words[1:] != words[:-1])
            key[rows] = top + np.cumsum(split)
            top = int(key[rows[-1]])
    # not a stable sort: 100k keys took 1.7 ms against 7 ms (one Xeon core
    # with AVX-512, numpy 2.4); first occurrences are taken per run below
    order = key.argsort()
    key = key[order]
    new = np.empty(key.size, bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    runs = np.flatnonzero(new)
    # a distinct field's first occurrence is the least position in its run
    firsts = np.minimum.reduceat(order, runs)
    by_first = firsts.argsort()
    rank = np.empty(runs.size, np.int64)
    rank[by_first] = np.arange(runs.size)
    ids = np.empty(order.size, np.int64)
    ids[order] = np.repeat(rank, np.diff(runs, append=order.size))
    firsts = firsts[by_first]
    labels = [blob[s:e].decode() for s, e in zip(starts[firsts].tolist(), ends[firsts].tolist())]
    return ids, labels


def _tsv_spans(data: np.ndarray) -> tuple[list, np.ndarray, tuple[int, str] | None]:
    """The (starts, ends) of the three fields of each row before the
    first row without exactly two tabs, the 0-based line of every row,
    and (row, message) of that first bad row, or None.  ``data`` holds
    the file's bytes with every line ending turned into "\\n"."""
    newlines = np.flatnonzero(data == 10)
    tabs = np.flatnonzero(data == 9)
    # the text after the last "\n" is one more line, blank or not
    ends = np.append(newlines, data.size)
    starts = np.concatenate([[0], newlines + 1])
    del newlines
    tab_counts = np.diff(np.searchsorted(tabs, ends), prepend=0)
    rows = np.flatnonzero(ends > starts)
    bad = np.flatnonzero(tab_counts[rows] != 2)
    fault = None
    good = rows
    if bad.size:
        row = int(bad[0])
        fault = (row, f"expected 3 tab-separated fields, got {tab_counts[rows[row]] + 1}")
        good = rows[:row]
    # every line before the first bad row is blank or holds two tabs
    pairs = tabs[: 2 * good.size].reshape(good.size, 2)
    spans = [(starts[good], pairs[:, 0]), (pairs[:, 0] + 1, pairs[:, 1]),
             (pairs[:, 1] + 1, ends[good])]
    return spans, rows, fault


def load_ratings(
    path: str | Path,
    fmt: str = "tsv",
    scale: tuple[float, float] = (1.0, 5.0),
) -> Dataset:
    """Parse a ratings file into a Dataset with dense 0-based ids.

    Ratings are validated against the declared (lo, hi) scale and
    normalized to [0, 1] by (r - lo) / (hi - lo); the raw values are
    kept alongside for gain-based metrics.
    """
    path = Path(path)
    lo, hi = float(scale[0]), float(scale[1])
    # an infinite bound or span would turn every rating into 0 or NaN
    if not math.isfinite(hi - lo):
        raise ValueError(f"scale bounds and their span must be finite, got {scale}")
    if not hi > lo:
        raise ValueError(f"scale must satisfy lo < hi, got {scale}")
    # (row, message) of the first bad row; a structural one cuts the columns there
    fault: tuple[int, str] | None = None
    if fmt == "tsv":
        blob = path.read_bytes()
        # decoded once, only so that a bad byte raises before any parse fault
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(_bad_utf8(path, exc)) from None
        if b"\r" in blob:
            # the line endings text mode turns into "\n"
            blob = blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        # the 8 bytes a word read at the end of the last field reaches
        blob += bytes(8)
        data = np.frombuffer(blob, np.uint8, len(blob) - 8)
        (user_col, item_col, value_col), rows, fault = _tsv_spans(data)
        ids = functools.partial(_ids_by_spans, blob)

        def lineno(row: int) -> int:
            return int(rows[row]) + 1
    elif fmt == "netflix-prize":
        text = _read_text(path, DataFormatError)
        user_col, item_col, value_col = [], [], []
        # the line of every row, then that of the fault
        linenos: list[int] = []
        movie: str | None = None
        for n, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            if line.endswith(":"):
                movie = line[:-1]
                if movie:
                    continue
                problem = "empty movie id"
            elif movie is None:
                problem = "rating row before any movie header"
            elif len(fields := line.split(",")) < 2:
                problem = "expected 'user,rating[,date]'"
            else:
                user_col.append(fields[0])
                item_col.append(movie)
                value_col.append(fields[1])
                linenos.append(n)
                continue
            fault = (len(value_col), problem)
            linenos.append(n)
            break
        del text
        lineno = linenos.__getitem__
        ids = _ids_by_first_occurrence
    else:
        raise ValueError(f"unknown ratings format {fmt!r}")

    # float() once per distinct text, in order of first appearance
    value_ids, texts = ids(value_col)
    values = np.empty(len(texts))
    for j, text in enumerate(texts):
        try:
            values[j] = float(text)
        except ValueError:
            row = int(np.argmax(value_ids == j))
            fault = (row, f"rating {text!r} is not a number")
            value_ids = value_ids[:row]
            break
    raw = values[value_ids]
    # written so that a NaN rating is outside too
    outside = np.flatnonzero(~((raw >= lo) & (raw <= hi)))
    if outside.size:
        row = int(outside[0])
        fault = (row, f"rating {float(raw[row])} outside scale [{lo}, {hi}]")
    if fault is not None:
        raise DataFormatError(f"{path}:{lineno(fault[0])}: {fault[1]}")
    if not raw.size:
        raise EmptyDatasetError(f"{path}: no ratings found")
    users, user_labels = ids(user_col)
    items, item_labels = ids(item_col)
    return Dataset(
        users,
        items,
        (raw - lo) / (hi - lo),
        raw,
        num_users=len(user_labels),
        num_items=len(item_labels),
        scale=(lo, hi),
        user_labels=user_labels,
        item_labels=item_labels,
    )


# ---------------------------------------------------------------------------
# Code files


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".ids")


def _read_ids(path: Path, error: type[ValueError]) -> list[str]:
    """One id per line; "\\n", "\\r\\n" and a lone "\\r" end a line, as
    in a ratings file, and nothing else does.  Invalid UTF-8 raises
    ``error``."""
    ids = _read_text(path, error).split("\n")
    if ids[-1] == "":
        ids.pop()
    return ids


def _ids_text(ids: Sequence) -> str:
    """The text of an id sidecar, one id per line.  An id holding "\\n"
    or "\\r" would read back as two, so it raises ValueError."""
    text = "".join(f"{ident}\n" for ident in ids)
    if "\r" in text or text.count("\n") != len(ids):
        bad = next(i for i in map(str, ids) if "\n" in i or "\r" in i)
        raise ValueError(f"id {bad!r} holds a line break")
    return text


def save_codes(codes: CodeSet, path: str | Path) -> None:
    """Write the binary code file and its id sidecar; an id holding a
    line break raises ValueError before either is written.

    A set whose ids are its positions (``[0, 1, ...]``, the default)
    gets no sidecar, and a stale one at the path is removed, so it
    loads back with the same int ids.
    """
    path = Path(path)
    # ids[0] first: a labelled set is told apart without building a range
    positional = codes.ids[0] == 0 and codes.ids == list(range(len(codes)))
    ids = None if positional else _ids_text(codes.ids)
    k = codes.k
    row_bytes = (k + 7) // 8
    as_bytes = np.ascontiguousarray(codes.words.astype("<u8")).view(np.uint8)
    payload = np.ascontiguousarray(as_bytes[:, :row_bytes])
    with open(path, "wb") as fh:
        fh.write(CODE_MAGIC)
        fh.write(struct.pack("<II", k, len(codes)))
        fh.write(payload.tobytes())
    if ids is None:
        _sidecar(path).unlink(missing_ok=True)
    else:
        _sidecar(path).write_text(ids, encoding="utf-8")


def load_codes(path: str | Path) -> CodeSet:
    """Read a code file back; inverse of save_codes, bit for bit."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 4 or blob[:4] != CODE_MAGIC:
        raise BadMagicError(f"{path}: not a code file (bad magic)")
    if len(blob) < 12:
        raise TruncatedCodeFileError(
            f"{path}: header needs 12 bytes, file has {len(blob)}")
    k, count = struct.unpack("<II", blob[4:12])
    if k < 1 or count < 1:
        raise CodeFileError(f"{path}: invalid header (K={k}, count={count})")
    row_bytes = (k + 7) // 8
    expected = 12 + count * row_bytes
    if len(blob) < expected:
        raise TruncatedCodeFileError(
            f"{path}: expected {expected} bytes, got {len(blob)}")
    if len(blob) > expected:
        raise CodeCountMismatchError(
            f"{path}: expected {expected} bytes for {count} codes, "
            f"got {len(blob)}")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=12).reshape(count, row_bytes)
    word_bytes = words_per_code(k) * 8
    if row_bytes < word_bytes:
        pad = np.zeros((count, word_bytes - row_bytes), dtype=np.uint8)
        payload = np.concatenate([payload, pad], axis=1)
    words = np.ascontiguousarray(payload).view(np.dtype("<u8")).astype(np.uint64)
    ids: Sequence | None = None
    side = _sidecar(path)
    if side.exists():
        ids = _read_ids(side, CodeFileError)
        if len(ids) != count:
            raise CodeFileError(f"{side}: {len(ids)} ids for {count} codes")
    try:
        return CodeSet.from_words(words, k, ids)
    except ValueError as exc:
        raise CodeFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Factor persistence


def save_factors(
    fm: FactorMatrices,
    directory: str | Path,
    user_labels: Sequence[str] | None = None,
    item_labels: Sequence[str] | None = None,
) -> None:
    """Write factors as four .npy files plus meta.json and id tables.

    Separate .npy files keep outputs byte-identical across runs; zip
    containers would embed timestamps.  A label holding a line break
    raises ValueError before anything is written.
    """
    labels = {name: _ids_text(ids) for name, ids in
              (("users.ids", user_labels), ("items.ids", item_labels)) if ids is not None}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "U.npy", fm.U)
    np.save(directory / "V.npy", fm.V)
    np.save(directory / "sum_u.npy", fm.sum_u)
    np.save(directory / "sum_v.npy", fm.sum_v)
    meta = {"k": fm.k, "num_users": int(fm.U.shape[0]), "num_items": int(fm.V.shape[0])}
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    for name, text in labels.items():
        (directory / name).write_text(text, encoding="utf-8")


def load_factors(
    directory: str | Path,
) -> tuple[FactorMatrices, list[str] | None, list[str] | None]:
    directory = Path(directory)
    fm = FactorMatrices(
        np.load(directory / "U.npy"),
        np.load(directory / "V.npy"),
        np.load(directory / "sum_u.npy"),
        np.load(directory / "sum_v.npy"),
    )
    try:
        meta = json.loads(_read_text(directory / "meta.json", ValueError))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{directory}: meta.json is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{directory}: meta.json must hold a JSON object, "
                         f"not {type(meta).__name__}")
    missing = [key for key in ("k", "num_users", "num_items") if key not in meta]
    if missing:
        raise ValueError(f"{directory}: meta.json has no {', '.join(missing)}")
    if (fm.k != meta["k"] or fm.U.shape[0] != meta["num_users"]
            or fm.V.shape[0] != meta["num_items"]):
        raise ValueError(f"{directory}: meta.json disagrees with array shapes")
    labels = []
    for name, count in (("users.ids", meta["num_users"]), ("items.ids", meta["num_items"])):
        side = directory / name
        labels.append(_read_ids(side, ValueError) if side.exists() else None)
        if labels[-1] is not None and len(labels[-1]) != count:
            raise ValueError(f"{side}: {len(labels[-1])} ids for {count} rows in meta.json")
    return fm, *labels


# ---------------------------------------------------------------------------
# Trace and report writers


def write_loss_trace(path: str | Path, losses: Sequence[float],
                     wall_clock_ms: Sequence[float]) -> None:
    """CSV with one row per barrier: barrier_index, wall_clock_ms, training_loss."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("barrier_index,wall_clock_ms,training_loss\n")
        for i, (ms, loss) in enumerate(zip(wall_clock_ms, losses), start=1):
            fh.write(f"{i},{ms!r},{loss!r}\n")


def write_report(path: str | Path, reports) -> None:
    """EvalReports to CSV or JSON (by file suffix), one row per (model, metric, k)."""
    path = Path(path)
    rows = [row for rep in reports for row in rep.rows()]
    if path.suffix.lower() == ".json":
        payload = [
            {"model": m, "metric": metric, "k": k, "value": v}
            for m, metric, k, v in rows
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("model,metric,k,value\n")
            for m, metric, k, v in rows:
                fh.write(f"{m},{metric},{k},{v!r}\n")
