"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fit-dch --seeds 1-10
    python3 perfbench/spread.py --workload fit-dch --seeds 11-20 \\
        --save perfbench/out/b.json --compare perfbench/out/a.json

Runs ``perfbench/run.py`` once per seed, one run at a time, with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
prints the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  A spread wider than a third of the metric's bound is
flagged, except for ``setup_s``.  ``--compare`` reads an earlier
``--save`` file and flags every metric whose median got worse by more
than its bound.  Exits 1 when any run fails or any flag is raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    # the metric lines for people: "  name value unit"
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            printed[parts[0]] = float(parts[1])
    return {"seed": seed, "env": env, "wall_s": wall, "printed": printed,
            "result": json.loads(lines[-1])}


def _spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in args.seeds:
        run = _run(args.workload, seed, spec["run_seconds"])
        res = run["result"]
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} wall={run['wall_s']:.1f}s "
              f"load={run['env'].get('loadavg_1m')} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)
        runs.append(run)

    bad = [r["seed"] for r in runs if not r["result"]["correct"]]
    before = {}
    if args.compare:
        before = json.loads(args.compare.read_text(encoding="utf-8"))["medians"]
    medians = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, spread = _spread(values)
        medians[name] = med
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag += f"  SPREAD > bound/3 ({bound / 3:.3f})"
        if name in before:
            change = (med - before[name]) / before[name]
            worse = change if m["better"] == "lower" else -change
            flag += f"  vs before {change:+.3f}" + ("  WORSE THAN BOUND" if worse > bound else "")
        print(f"{name:<20} median {med:<12.6g} spread {spread:.4f} bound {bound}{flag}")
        if "SPREAD" in flag or "WORSE" in flag:
            bad.append(name)
    # unscaled times, so the spread the speed scaling removes can be seen
    for name in sorted({k for r in runs for k in r["printed"] if k.endswith(".raw")}):
        values = [r["printed"][name] for r in runs if name in r["printed"]]
        if len(values) == len(runs):
            med, spread = _spread(values)
            print(f"{name:<20} median {med:<12.6g} spread {spread:.4f} (not bounded)")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps({"workload": args.workload, "medians": medians,
                                         "runs": runs}, indent=1) + "\n", encoding="utf-8")
    if bad:
        print(f"flagged: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
