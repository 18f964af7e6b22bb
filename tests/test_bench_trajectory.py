"""scripts/bench_trajectory.py: end-to-end medians across BENCH files, with drift flags."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _bench(path: Path, commit: str, rss: float, qps: float, p50: float,
           requests: float | None = 1000.0) -> Path:
    printed = {"recommend_p50_ms.raw": p50 / 2, "recommend_qps.raw": qps * 2}
    if requests is not None:
        printed["requests"] = requests
    side = {"medians": {"peak_rss_mb": rss, "recommend_qps": qps, "recommend_p50_ms": p50},
            "printed_medians": printed}
    path.write_text(json.dumps({"before": {"commit": "parent", "workloads": {}},
                                "after": {"commit": commit, "workloads": {"serve-200k": side}}}))
    return path


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


def test_flags_a_cumulative_move_past_the_bound(tmp_path, capsys):
    # peak_rss_mb (lower is better, bound 10%) creeps 5% and then 9.5%:
    # neither step passes the bound, the whole move does
    paths = [_bench(tmp_path / "BENCH_1.json", "aaaaaaaaa", 100.0, 1000.0, 0.05),
             _bench(tmp_path / "BENCH_2.json", "bbbbbbbbb", 105.0, 1000.0, 0.04),
             _bench(tmp_path / "BENCH_3.json", "ccccccccc", 115.0, 700.0, 0.03, requests=None)]
    assert bench_trajectory.main([str(p) for p in paths]) == 1
    lines = _lines(capsys)
    assert lines[0] == "serve-200k"
    header, *rows = [line.split() for line in lines[1:5]]
    assert header == ["file", "commit", "requests", "setup_s", "build_s", "recommend_p50_ms",
                      "recommend_p99_ms", "recommend_qps", "peak_rss_mb"]
    assert [row[:3] for row in rows] == [["BENCH_1.json", "aaaaaaa", "1000"],
                                         ["BENCH_2.json", "bbbbbbb", "1000"],
                                         ["BENCH_3.json", "ccccccc", "-"]]
    # each metric: the scaled median, the raw one when printed, the change
    assert "105 +5.0%" in lines[3] and "115 +15.0%!" in lines[4]
    assert "0.03 (0.015) -40.0%" in lines[4]  # p50 fell: better, not flagged
    assert "700 (1400) -30.0%!" in lines[4]   # qps fell past its 25% bound
    flags = [line for line in lines if line.startswith("FLAG ")]
    assert flags == [
        "FLAG serve-200k recommend_qps: 1000 (BENCH_1.json) -> 700 (BENCH_3.json), -30.0%, "
        "bound 25%",
        "FLAG serve-200k peak_rss_mb: 100 (BENCH_1.json) -> 115 (BENCH_3.json), +15.0%, "
        "bound 10%"]


def test_no_flag_when_the_last_file_is_within_bounds(tmp_path, capsys):
    # a move past the bound that comes back is marked on its row only
    paths = [_bench(tmp_path / "BENCH_1.json", "a", 100.0, 1000.0, 0.05),
             _bench(tmp_path / "BENCH_2.json", "b", 120.0, 1000.0, 0.05),
             _bench(tmp_path / "BENCH_3.json", "c", 104.0, 1000.0, 0.05)]
    assert bench_trajectory.main([str(p) for p in paths]) == 0
    lines = _lines(capsys)
    assert "120 +20.0%!" in lines[3] and "104 +4.0%" in lines[4]
    assert not any(line.startswith("FLAG ") for line in lines)


def test_files_are_read_in_order_of_their_number():
    names = ["BENCH_10.json", "BENCH_9.json", "BENCH_30.json", "BENCH_18.json"]
    ordered = sorted((Path(n) for n in names), key=bench_trajectory._number)
    assert [p.name for p in ordered] == ["BENCH_9.json", "BENCH_10.json", "BENCH_18.json",
                                         "BENCH_30.json"]


def _fit(path: Path, seeds: list[int], precision: float | None, loss: float) -> Path:
    printed = {"final_loss": loss, "requests": 500.0}
    if precision is not None:
        printed["precision_at_5"] = precision
    side = {"medians": {"peak_rss_mb": 100.0}, "printed_medians": printed, "seeds": seeds}
    serve = {"medians": {"peak_rss_mb": 150.0}, "printed_medians": {}}
    path.write_text(json.dumps({"after": {"commit": path.stem, "workloads": {
        "fit-dch": side, "serve-200k": serve}}}))
    return path


def test_fit_rows_print_model_quality_and_mark_moves(tmp_path, capsys):
    # the same model on the same seeds is unmarked; a moved value on the
    # same seeds is marked; on other seeds the change is printed unmarked
    paths = [_fit(tmp_path / "BENCH_1.json", [1, 2], 0.25, 5000.0),
             _fit(tmp_path / "BENCH_2.json", [1, 2], 0.25, 5000.0),
             _fit(tmp_path / "BENCH_3.json", [1, 2], 0.2, 5000.0),
             _fit(tmp_path / "BENCH_4.json", [3, 4], 0.25, 5500.0),
             _fit(tmp_path / "BENCH_5.json", [1, 2], None, 5000.0)]
    assert bench_trajectory.main([str(p) for p in paths]) == 0  # a move is no flag
    lines = _lines(capsys)
    assert lines[0] == "fit-dch"
    header, *rows = [line.split("  ") for line in lines[1:7]]
    assert [c.strip() for c in header if c.strip()][-2:] == ["precision_at_5", "final_loss"]
    cells = [[c.strip() for c in row if c.strip()][-2:] for row in rows]
    assert cells == [["0.25", "5000"], ["0.25", "5000"], ["0.2 -20.0%*", "5000"],
                     ["0.25", "5500 +10.0%"], ["-", "5000"]]
    # a workload whose rows print no model quality gets no such columns
    assert lines[7] == "serve-200k"
    assert lines[8].split()[-1] == "peak_rss_mb"
