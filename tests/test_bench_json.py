"""scripts/bench_json.py: spread.py saves and traced runs merged into one BENCH file."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _save(path: Path, p50s: list[float], first_seed: int = 41) -> Path:
    runs = [{"seed": first_seed + i, "env": {"python": "3", "loadavg_1m": 0.5},
             "printed": {"recommend_p50_ms.raw": v},
             "result": {"correct": True, "failed": 0,
                        "metrics": {"recommend_p50_ms": {"value": v, "unit": "ms"}}}}
            for i, v in enumerate(p50s)]
    path.write_text(json.dumps({"workload": "serve-200k", "runs": runs,
                                "medians": {"recommend_p50_ms": sorted(p50s)[1]}}))
    return path


def _traced(path: Path, rank_ms: float, seed: int = 7, failed: int = 0) -> Path:
    metrics = {"retrieval.rank_ms": {"value": rank_ms, "unit": "ms"},
               "retrieval.linear_ms": {"value": 10 * rank_ms, "unit": "ms"}}
    path.write_text("\n".join([
        'env {"python": "3"}', f"workload serve-200k seed {seed} seconds 30 trace 1",
        f"  retrieval.rank_ms {rank_ms} ms",
        json.dumps({"correct": not failed, "attempted": 9, "failed": failed,
                    "metrics": metrics})]) + "\n")
    return path


def test_merges_saves_and_traced_runs(tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_json.main([
        str(out),
        "--before", "aaa", str(_save(tmp_path / "b.json", [0.07, 0.08, 0.06])),
        "--after", "bbb", str(_save(tmp_path / "a.json", [0.05, 0.04, 0.06])),
        "--traced-before", str(_traced(tmp_path / "b.txt", 0.04)),
        "--traced-after", str(_traced(tmp_path / "a.txt", 0.03))]) == 0
    bench = json.loads(out.read_text())
    before = bench["before"]["workloads"]["serve-200k"]
    assert before["seeds"] == [41, 42, 43]
    assert before["per_layer"] == {"seeds": [7], "correct": True, "failed": 0,
                                   "metrics": {"retrieval.rank_ms": 0.04,
                                               "retrieval.linear_ms": 0.4}}
    assert abs(bench["relative_change"]["serve-200k"]["recommend_p50_ms"] + 2 / 7) < 1e-12
    assert abs(bench["relative_change_per_layer"]["serve-200k"]["retrieval.rank_ms"]
               + 0.25) < 1e-12


def test_without_traced_runs_has_no_per_layer(tmp_path):
    out = tmp_path / "BENCH.json"
    save = str(_save(tmp_path / "s.json", [0.07, 0.08, 0.06]))
    assert bench_json.main([str(out), "--before", "aaa", save, "--after", "bbb", save]) == 0
    bench = json.loads(out.read_text())
    assert "relative_change_per_layer" not in bench
    assert "per_layer" not in bench["after"]["workloads"]["serve-200k"]


def test_several_traced_runs_give_per_metric_medians(tmp_path):
    out = tmp_path / "BENCH.json"
    save = str(_save(tmp_path / "s.json", [0.07, 0.08, 0.06]))
    before = [_traced(tmp_path / f"b{i}.txt", v, seed=41 + i)
              for i, v in enumerate([0.05, 0.03, 0.04])]
    after = [_traced(tmp_path / f"a{i}.txt", v, seed=41 + i, failed=i == 1)
             for i, v in enumerate([0.01, 0.09, 0.02, 0.03])]
    assert bench_json.main([str(out), "--before", "aaa", save, "--after", "bbb", save,
                            "--traced-before", *map(str, before),
                            "--traced-after", *map(str, after)]) == 0
    bench = json.loads(out.read_text())
    b = bench["before"]["workloads"]["serve-200k"]["per_layer"]
    a = bench["after"]["workloads"]["serve-200k"]["per_layer"]
    assert b["seeds"] == [41, 42, 43] and a["seeds"] == [41, 42, 43, 44]
    assert b["metrics"] == {"retrieval.rank_ms": 0.04, "retrieval.linear_ms": 0.4}
    assert abs(a["metrics"]["retrieval.rank_ms"] - 0.025) < 1e-12
    assert (a["correct"], a["failed"]) == (False, 1) and (b["correct"], b["failed"]) == (True, 0)
    change = bench["relative_change_per_layer"]["serve-200k"]
    assert abs(change["retrieval.rank_ms"] + 0.375) < 1e-12
    assert abs(change["retrieval.linear_ms"] + 0.375) < 1e-12


def test_saves_of_one_workload_pool_their_runs(tmp_path):
    # blocks of two seeds, as alternating pairs are run
    out = tmp_path / "BENCH.json"
    blocks = [str(_save(tmp_path / f"b{i}.json", p50s, first_seed=41 + 2 * i))
              for i, p50s in enumerate([[0.07, 0.08], [0.06, 0.09], [0.05, 0.10]])]
    assert bench_json.main([str(out), "--before", "aaa", *blocks,
                            "--after", "bbb", blocks[0]]) == 0
    bench = json.loads(out.read_text())
    before = bench["before"]["workloads"]["serve-200k"]
    assert before["seeds"] == [41, 42, 43, 44, 45, 46]
    assert abs(before["medians"]["recommend_p50_ms"] - 0.075) < 1e-12
    assert abs(before["printed_medians"]["recommend_p50_ms.raw"] - 0.075) < 1e-12
    assert bench["after"]["workloads"]["serve-200k"]["medians"] == {"recommend_p50_ms": 0.08}
