"""Dataset ingestion, code/factor persistence, and report writers.

Ratings come in as TSV (user, item, rating separated by single tabs) or
in the Netflix-prize layout ("<movie-id>:" header lines followed by
"user,rating,date" rows).  External ids are arbitrary strings mapped to
dense 0-based indices in order of first appearance, and the mapping is
kept so downstream commands can answer in the caller's ids.

Codes are stored in a small binary format: magic "DCH1", u32 LE code
length K, u32 LE entity count, then ceil(K/8) bytes per entity with
bit 0 of byte 0 holding coordinate 0 (1 encodes +1).  The file length
is exactly 12 + count * ceil(K/8) bytes; a text sidecar "<path>.ids"
maps row to external id.  Factors are saved as individual .npy files
(their bytes are deterministic, unlike zip containers) plus a JSON
meta file.
"""

from __future__ import annotations

import json
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


def _index_of(label: str, index: dict, labels: list) -> int:
    pos = index.get(label)
    if pos is None:
        pos = len(labels)
        index[label] = pos
        labels.append(label)
    return pos


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
    if not hi > lo:
        raise ValueError(f"scale must satisfy lo < hi, got {scale}")
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user_labels: list[str] = []
    item_labels: list[str] = []
    users: list[int] = []
    items: list[int] = []
    raw: list[float] = []

    def add(user_label: str, item_label: str, value_text: str, lineno: int) -> None:
        try:
            value = float(value_text)
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: rating {value_text!r} is not a number") from None
        if not lo <= value <= hi:
            raise DataFormatError(
                f"{path}:{lineno}: rating {value} outside scale [{lo}, {hi}]")
        users.append(_index_of(user_label, user_index, user_labels))
        items.append(_index_of(item_label, item_index, item_labels))
        raw.append(value)

    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "tsv":
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(fields)}")
                add(fields[0], fields[1], fields[2], lineno)
        elif fmt == "netflix-prize":
            movie: str | None = None
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.endswith(":"):
                    movie = line[:-1]
                    if not movie:
                        raise DataFormatError(f"{path}:{lineno}: empty movie id")
                    continue
                if movie is None:
                    raise DataFormatError(
                        f"{path}:{lineno}: rating row before any movie header")
                fields = line.split(",")
                if len(fields) < 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 'user,rating[,date]'")
                add(fields[0], movie, fields[1], lineno)
        else:
            raise ValueError(f"unknown ratings format {fmt!r}")

    if not users:
        raise EmptyDatasetError(f"{path}: no ratings found")
    raw_arr = np.array(raw, dtype=np.float64)
    normalized = (raw_arr - lo) / (hi - lo)
    return Dataset(
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        normalized,
        raw_arr,
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


def save_codes(codes: CodeSet, path: str | Path) -> None:
    """Write the binary code file and its id sidecar."""
    path = Path(path)
    k = codes.k
    row_bytes = (k + 7) // 8
    as_bytes = np.ascontiguousarray(codes.words.astype("<u8")).view(np.uint8)
    payload = np.ascontiguousarray(as_bytes[:, :row_bytes])
    with open(path, "wb") as fh:
        fh.write(CODE_MAGIC)
        fh.write(struct.pack("<II", k, len(codes)))
        fh.write(payload.tobytes())
    with open(_sidecar(path), "w", encoding="utf-8") as fh:
        for ident in codes.ids:
            fh.write(f"{ident}\n")


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
        lines = side.read_text(encoding="utf-8").splitlines()
        if len(lines) != count:
            raise CodeFileError(
                f"{side}: {len(lines)} ids for {count} codes")
        ids = lines
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
    containers would embed timestamps.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "U.npy", fm.U)
    np.save(directory / "V.npy", fm.V)
    np.save(directory / "sum_u.npy", fm.sum_u)
    np.save(directory / "sum_v.npy", fm.sum_v)
    meta = {"k": fm.k, "num_users": int(fm.U.shape[0]), "num_items": int(fm.V.shape[0])}
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    if user_labels is not None:
        (directory / "users.ids").write_text(
            "".join(f"{u}\n" for u in user_labels), encoding="utf-8")
    if item_labels is not None:
        (directory / "items.ids").write_text(
            "".join(f"{i}\n" for i in item_labels), encoding="utf-8")


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
    meta = json.loads((directory / "meta.json").read_text())
    if (fm.k != meta["k"] or fm.U.shape[0] != meta["num_users"]
            or fm.V.shape[0] != meta["num_items"]):
        raise ValueError(f"{directory}: meta.json disagrees with array shapes")
    user_labels = item_labels = None
    if (directory / "users.ids").exists():
        user_labels = (directory / "users.ids").read_text(encoding="utf-8").splitlines()
    if (directory / "items.ids").exists():
        item_labels = (directory / "items.ids").read_text(encoding="utf-8").splitlines()
    return fm, user_labels, item_labels


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
