"""Print each workload's end-to-end medians across the BENCH files.

    python3 scripts/bench_trajectory.py [BENCH_18.json BENCH_19.json ...]

With no arguments it reads every ``BENCH_<n>.json`` at the root of the
repo, in order of n.  Each file compares one change with its parent,
so a metric that creeps a few percent a change never meets its bound
there; this script lines the files up.  It takes each file's ``after``
side, the change that file records.

For each workload it prints one row per file: the file, its commit, the
request count, and for each end-to-end metric of ``BENCHMARK.json`` the
median as scaled by the benchmark, the ``.raw`` median when the file
printed one, and the change since the first file.  A change in the
metric's worse direction past its ``BENCHMARK.json`` bound is marked
``!``.  The request count sits beside the medians because ``peak_rss_mb``
grows with the requests the harness records.  A workload that fits a
model (fit-dch and fit-mf-threads) also gets the printed medians of its
model quality, ``precision_at_5`` and ``final_loss``, with the change
since the first file.  A value that differs from the first file's on
the same seeds is marked ``*``: a change to speed alone leaves a serial
fit's model as it was, though the threaded fit's schedule moves both
from run to run.  On other seeds the medians move with the seeds, so a
change there is printed but not marked.  The last lines flag each
metric that the last file holds past its bound against the first, and
the exit status is 1 when any is flagged.  The script reads the files
and writes nothing but its output.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the model's quality, from each fit row's printed medians
MODEL = ["precision_at_5", "final_loss"]


def _number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else -1


def _rows(paths: list[Path]) -> dict[str, list[dict]]:
    """Each workload's rows, one per file that holds it, in file order."""
    rows: dict[str, list[dict]] = {}
    for path in paths:
        after = json.loads(path.read_text(encoding="utf-8"))["after"]
        for workload, side in after["workloads"].items():
            rows.setdefault(workload, []).append({
                "file": path.name, "commit": str(after["commit"])[:7],
                "seeds": side.get("seeds"), "medians": side["medians"],
                "printed": side.get("printed_medians") or {}})
    return rows


def _worse(change: float, better: str) -> float:
    """A relative change as a move in the worse direction (> 0 is worse)."""
    return change if better == "lower" else -change


def _cell(row: dict, first: dict, metric: dict) -> tuple[str, float | None]:
    name = metric["name"]
    value, base = row["medians"].get(name), first["medians"].get(name)
    if value is None:
        return "-", None
    raw = row["printed"].get(name + ".raw")
    text = f"{value:.4g}" + (f" ({raw:.4g})" if raw is not None else "")
    if not base:
        return text, None
    change = value / base - 1
    flag = "!" if _worse(change, metric["better"]) > metric["bound"] else ""
    return f"{text} {change:+.1%}{flag}", change


def _model_cell(row: dict, first: dict, name: str) -> str:
    value, base = row["printed"].get(name), first["printed"].get(name)
    if value is None:
        return "-"
    if base is None or value == base:
        return f"{value:.6g}"
    mark = "*" if row["seeds"] == first["seeds"] else ""
    return f"{value:.6g} {value / base - 1:+.1%}{mark}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or sorted(ROOT.glob("BENCH_*.json"), key=_number)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    flags = []
    for workload, rows in _rows(paths).items():
        first = rows[0]
        model = [name for name in MODEL if any(name in row["printed"] for row in rows)]
        table = [["file", "commit", "requests"] + [m["name"] for m in metrics] + model]
        for row in rows:
            requests = row["printed"].get("requests")
            table.append([row["file"], row["commit"], "-" if requests is None else f"{requests:.0f}"]
                         + [_cell(row, first, m)[0] for m in metrics]
                         + [_model_cell(row, first, name) for name in model])
        widths = [max(len(line[c]) for line in table) for c in range(len(table[0]))]
        print(workload)
        for line in table:
            print("  " + "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        for m in metrics:
            change = _cell(rows[-1], first, m)[1]
            if change is not None and _worse(change, m["better"]) > m["bound"]:
                flags.append(f"{workload} {m['name']}: {first['medians'][m['name']]:.4g} "
                             f"({first['file']}) -> {rows[-1]['medians'][m['name']]:.4g} "
                             f"({rows[-1]['file']}), {change:+.1%}, bound {m['bound']:.0%}")
    for flag in flags:
        print("FLAG " + flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
