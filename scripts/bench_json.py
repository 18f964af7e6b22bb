"""Merge two sets of ``perfbench/spread.py --save`` files into one BENCH file.

    python3 scripts/bench_json.py BENCH_18.json \\
        --before PARENT_COMMIT parent/fit-dch.json parent/fit-mf-threads.json ... \\
        --after CHANGE_COMMIT change/fit-dch.json change/fit-mf-threads.json ... \\
        [--traced-before parent/serve-200k.trace.txt ... \\
         --traced-after change/serve-200k.trace.txt ...]

Each save file holds one workload's runs over a set of seeds; several
saves of one workload on one side, such as blocks of seeds run in turn
with the other side's, are pooled, and the end-to-end medians are taken
over all their runs.  For each side and workload the output keeps the
medians of the end-to-end
metrics and their spread (the distance between the first and third
quartiles as a share of the median, as ``spread.py`` prints it), the
medians of the printed figures (``final_loss``, ``precision_at_5``,
``*.raw`` times, ...), the seeds, the runs' shared environment and
their load-average range; for each workload, each end-to-end metric's
relative change from before to after, and on how many of the seeds both
sides ran the after run beat the before run in the metric's better
direction, which is read from ``BENCHMARK.json``.

A traced file is what one ``perfbench/run.py --trace 1`` run printed
(one BLAS thread, one CPU); each side may take several per workload.
The median of each per-layer metric over a workload's traced runs (the
metrics of each run's last line) goes under the workload's
``per_layer``, with the runs' seeds, and each per-layer metric's
relative change goes under ``relative_change_per_layer``.  One traced
run per side cannot resolve a move of less than about 40%.  The script
runs nothing itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import _spread  # noqa: E402  the spread spread.py prints

# environment fields that differ from run to run
_PER_RUN_ENV = ("loadavg_1m", "loadavg_1m_end")


def _iqr_share(values: list[float]) -> float | None:
    """spread.py's spread of the values; None below two runs."""
    return _spread(values)[1] if len(values) > 1 else None


def _values(runs: list[dict]) -> dict[int, dict[str, float]]:
    """Each run's metric values by seed."""
    return {r["seed"]: {m: v["value"] for m, v in r["result"]["metrics"].items()} for r in runs}


def _side(commit: str, saves: list[Path]) -> tuple[dict, dict]:
    """A side's summary, and each workload's metric values by seed."""
    by_workload: dict[str, list[dict]] = {}
    for path in saves:
        save = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(save["workload"], []).append(save)
    workloads, values = {}, {}
    for workload, group in by_workload.items():
        runs = [r for save in group for r in save["runs"]]
        values[workload] = _values(runs)
        medians = group[0]["medians"] if len(group) == 1 else {
            m: statistics.median(r["result"]["metrics"][m]["value"] for r in runs)
            for m in group[0]["medians"]}
        envs = [r["env"] for r in runs]
        shared = {k: v for k, v in envs[0].items()
                  if k not in _PER_RUN_ENV and all(e.get(k) == v for e in envs)}
        loads = [e[k] for e in envs for k in _PER_RUN_ENV if k in e]
        printed = sorted({k for r in runs for k in r["printed"]})
        workloads[workload] = {
            "seeds": [r["seed"] for r in runs],
            "medians": medians,
            "iqr_share": {m: _iqr_share([r["result"]["metrics"][m]["value"] for r in runs])
                          for m in medians},
            "printed_medians": {
                k: statistics.median(r["printed"][k] for r in runs if k in r["printed"])
                for k in printed},
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "env": shared,
            "loadavg_1m_range": [min(loads), max(loads)] if loads else None,
        }
    return {"commit": commit, "workloads": workloads}, values


def _add_traced(side: dict, traced: list[Path]) -> None:
    by_workload: dict[str, list[tuple[int, dict]]] = {}
    for path in traced:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        head = next(line.split() for line in lines if line.startswith("workload "))
        by_workload.setdefault(head[1], []).append((int(head[3]), json.loads(lines[-1])))
    for workload, runs in by_workload.items():
        values: dict[str, list[float]] = {}
        for _, result in runs:
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        side["workloads"].setdefault(workload, {})["per_layer"] = {
            "seeds": [seed for seed, _ in runs],
            "correct": all(result["correct"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "metrics": {m: statistics.median(v) for m, v in values.items()}}


def _relative(before: dict, after: dict) -> dict:
    return {m: (after[m] - v) / v for m, v in before.items() if m in after and v}


def _better_pairs(before: dict, after: dict, better: dict[str, str]) -> dict:
    """For each end-to-end metric both sides ran, on how many of their
    shared seeds the after run is better than the before run."""
    shared = sorted(before.keys() & after.keys())
    out = {}
    for m, direction in better.items():
        pairs = [(before[s][m], after[s][m]) for s in shared if m in before[s] and m in after[s]]
        if pairs:
            wins = sum(a < b if direction == "lower" else a > b for b, a in pairs)
            out[m] = {"better": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--before", nargs="+", required=True, metavar="COMMIT_THEN_SAVES")
    parser.add_argument("--after", nargs="+", required=True, metavar="COMMIT_THEN_SAVES")
    parser.add_argument("--traced-before", nargs="+", type=Path, default=[], metavar="RUN_OUTPUT")
    parser.add_argument("--traced-after", nargs="+", type=Path, default=[], metavar="RUN_OUTPUT")
    args = parser.parse_args(argv)
    if len(args.before) < 2 or len(args.after) < 2:
        parser.error("--before and --after each take a commit and at least one save file")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    before, before_values = _side(args.before[0], [Path(p) for p in args.before[1:]])
    after, after_values = _side(args.after[0], [Path(p) for p in args.after[1:]])
    _add_traced(before, args.traced_before)
    _add_traced(after, args.traced_after)
    change, layer_change, pairs = {}, {}, {}
    for name, b in before["workloads"].items():
        a = after["workloads"].get(name)
        if a is None:
            continue
        if "medians" in a and "medians" in b:
            change[name] = _relative(b["medians"], a["medians"])
            pairs[name] = _better_pairs(before_values[name], after_values[name], better)
        if "per_layer" in a and "per_layer" in b:
            layer_change[name] = _relative(b["per_layer"]["metrics"], a["per_layer"]["metrics"])
    out = {"tool": "perfbench/spread.py --save, merged by scripts/bench_json.py",
           "before": before, "after": after, "relative_change": change,
           "better_on_shared_seeds": pairs}
    if layer_change:
        out["tool"] += "; per_layer: medians of perfbench/run.py --trace 1 runs per side"
        out["relative_change_per_layer"] = layer_change
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
