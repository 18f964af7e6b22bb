"""Run one cohash benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-dch --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; cohash is imported from
``src/`` next to this directory, never from an installed copy.  The
inputs are made from ``--seed`` alone.  ``--trace 0`` prints the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` records spans
around every call into a cohash layer, writes them as JSON lines under
``perfbench/out/`` and prints the per-layer metrics instead.  Every line
before the last is for people: the environment, then one metric per
line with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

# One BLAS thread: the MF workload's two worker threads are the only
# threads that compute, and the process runs on one CPU (pin_one_cpu).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pin_one_cpu() -> int:
    """Hold this process, and every thread it starts later, to one CPU.

    The GIL lets one thread compute at a time, so a second CPU adds no
    speed to cohash; on a shared host it adds noise.  Spread over two
    CPUs, each hand-off of the GIL between the MF workload's worker
    threads wakes a thread on the other CPU, and how long that takes
    depends on what else the host runs: a fit took 40% longer than on
    one CPU and its time varied by a fifth.  A single-threaded workload
    left free to move between CPUs also varied more from run to run.
    The last CPU is taken because device interrupts usually go to the
    first.
    Returns the number of CPUs the process may use.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return len(os.sched_getaffinity(0))


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_proc(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Interpreter, NumPy, CPU and machine load, recorded with every run."""
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read_proc("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    load = _read_proc("/proc/loadavg").split()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": float(load[0]) if load else -1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cohash" / "__init__.py").is_file():
        return _fail(f"no cohash sources under {src}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    if args.seed < 0 or not args.seconds > 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(src))

    import cohash
    import tracing
    import workloads

    if Path(cohash.__file__).resolve().parent != (src / "cohash").resolve():
        return _fail(f"imported cohash from {cohash.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    traced = bool(args.trace)
    env = environment()
    env["cpus_used"] = pin_one_cpu()
    tr = tracing.Tracer(enabled=False)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in workloads.FIT_WORKLOADS:
            outcome = workloads.run_fit(args.workload, args.seed, args.seconds, tr,
                                        workdir, traced)
        else:
            outcome = workloads.run_serve(args.seed, args.seconds, tr, workdir, traced)
    except Exception:
        traceback.print_exc()
        return _fail(f"workload {args.workload} stopped before it finished")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = environment()["loadavg_1m"]

    values = outcome.per_layer if traced else outcome.end_to_end
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            return _fail(f"metric {m['name']} was not measured on {args.workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    if traced:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write_jsonl(trace_path, {"workload": args.workload, "seed": args.seed,
                                    "seconds": args.seconds, "env": env})
        print(f"trace {trace_path.relative_to(ROOT)} ({len(tr.spans)} spans)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not traced:
        rows += [(name, v, unit) for name, (v, unit) in outcome.extra.items()]
    rows.append(("error_rate", outcome.failed / max(outcome.attempted, 1), "ratio"))
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for what in outcome.failures[:20]:
        print(f"  FAILED: {what}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
