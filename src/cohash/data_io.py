"""Dataset ingestion, code/factor persistence, and report writers.

Ratings come in as TSV (user, item, rating separated by single tabs) or
in the Netflix-prize layout ("<movie-id>:" header lines followed by
"user,rating,date" rows).  A line ends at "\\n", "\\r\\n" or a lone "\\r"
only; blank lines are skipped but counted in line numbers, and an error
names the first bad line.  External ids are arbitrary strings mapped to
dense 0-based indices in order of first appearance, and the mapping is
kept so downstream commands can answer in the caller's ids.

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
# Ratings ingestion


def _ids_by_first_occurrence(column: list[str]) -> tuple[np.ndarray, list[str]]:
    index = dict(zip(dict.fromkeys(column), itertools.count()))
    ids = np.fromiter(map(index.__getitem__, column), np.int64, len(column))
    # copies, so that the labels kept do not pin the memory of the parse
    return ids, [label.encode().decode() for label in index]


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
    # text mode has already turned "\r\n" and a lone "\r" into "\n"
    text = path.read_text(encoding="utf-8")
    # (row, message) of the first bad row; a structural one cuts the columns there
    fault: tuple[int, str] | None = None
    if fmt == "tsv":
        rows = [line for line in text.split("\n") if line]
        tabs = np.fromiter(map(str.count, rows, itertools.repeat("\t")), np.int64, len(rows))
        bad = np.flatnonzero(tabs != 2)
        if bad.size:
            row = int(bad[0])
            fault = (row, f"expected 3 tab-separated fields, got {tabs[row] + 1}")
            del rows[row:]
        # each stage is freed before the next is built, to bound the peak
        joined = "\t".join(rows)
        del rows
        fields = joined.split("\t") if joined else []
        user_col, item_col, value_col = fields[0::3], fields[1::3], fields[2::3]
        del joined, fields

        def lineno(row: int) -> int:
            return [n for n, line in enumerate(text.split("\n"), start=1) if line][row]
    elif fmt == "netflix-prize":
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
        lineno = linenos.__getitem__
    else:
        raise ValueError(f"unknown ratings format {fmt!r}")

    texts = iter(value_col)
    try:
        raw = np.fromiter(map(float, texts), np.float64, len(value_col))
    except ValueError:
        # the map stopped at the first text float() rejects
        row = len(value_col) - 1 - sum(1 for _ in texts)
        fault = (row, f"rating {value_col[row]!r} is not a number")
        raw = np.fromiter(map(float, value_col[:row]), np.float64, row)
    # written so that a NaN rating is outside too
    outside = np.flatnonzero(~((raw >= lo) & (raw <= hi)))
    if outside.size:
        row = int(outside[0])
        fault = (row, f"rating {float(raw[row])} outside scale [{lo}, {hi}]")
    if fault is not None:
        raise DataFormatError(f"{path}:{lineno(fault[0])}: {fault[1]}")
    if not raw.size:
        raise EmptyDatasetError(f"{path}: no ratings found")
    users, user_labels = _ids_by_first_occurrence(user_col)
    items, item_labels = _ids_by_first_occurrence(item_col)
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


def _read_ids(path: Path) -> list[str]:
    """One id per line; only "\\n" ends a line, as in a ratings file."""
    ids = path.read_text(encoding="utf-8").split("\n")
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
        ids = _read_ids(side)
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
        meta = json.loads((directory / "meta.json").read_text())
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
        labels.append(_read_ids(side) if side.exists() else None)
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
