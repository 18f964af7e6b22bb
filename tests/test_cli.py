"""Command-line behavior: option precedence, pipelines, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohash
import cohash.cli as cli_module
from cohash.cli import _option_table, build_parser, cli
from cohash.core import FactorMatrices, HashCode, round_codes
from cohash.data_io import load_codes, load_factors, save_codes, save_factors
from cohash.retrieval import CodeSet, HashIndex, MultiIndex
from cohash.synth import planted_dataset


@pytest.fixture()
def ratings_tsv(tmp_path):
    data = planted_dataset(12, 10, 70, k_true=4, seed=9)
    lines = [
        f"u{u}\ti{i}\t{int(r)}"
        for u, i, r in zip(data.users, data.items, data.raw_ratings)
    ]
    path = tmp_path / "ratings.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


TRAIN_FLAGS = ["--k", "4", "--epochs", "3", "--batch-size", "16",
               "--workers", "1", "--staleness", "1", "--seed", "7"]


class TestTrain:
    def test_writes_factors_and_trace(self, tmp_path, ratings_tsv, capsys):
        out = tmp_path / "model"
        rc = cli(["train", "--input", str(ratings_tsv), "--output", str(out),
                  *TRAIN_FLAGS])
        assert rc == 0
        fm, users, items = load_factors(out)
        assert fm.k == 4
        assert users is not None and users[0].startswith("u")
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "barrier_index,wall_clock_ms,training_loss"
        assert len(trace) >= 2
        assert "trained dch" in capsys.readouterr().out

    def test_invalid_utf8_input_is_an_error_line(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_bytes(b"u1\ti1\t5\nu\xff\ti2\t4\n")
        rc = cli(["train", "--input", str(ratings), "--output", str(tmp_path / "m"),
                  *TRAIN_FLAGS])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "utf-8" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_utf8_error_names_file_and_line(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_bytes(b"u1\ti1\t5\r\nu\xff\ti2\t4\r\n")
        rc = cli(["train", "--input", str(ratings), "--output", str(tmp_path / "m"),
                  *TRAIN_FLAGS])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {ratings}:2: 'utf-8' codec")

    def test_identical_invocations_are_byte_identical(self, tmp_path, ratings_tsv):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert cli(["train", "--input", str(ratings_tsv),
                        "--output", str(out), *TRAIN_FLAGS]) == 0
        for name in ("U.npy", "V.npy", "sum_u.npy", "sum_v.npy"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mf_method(self, tmp_path, ratings_tsv):
        out = tmp_path / "mf"
        rc = cli(["train", "--input", str(ratings_tsv), "--output", str(out),
                  "--method", "mf", *TRAIN_FLAGS])
        assert rc == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1_without_checkpoint(self, tmp_path, ratings_tsv,
                                                   capsys):
        out = tmp_path / "mf"
        rc = cli(["train", "--input", str(ratings_tsv), "--output", str(out),
                  "--method", "mf", "--alpha", "1e200", *TRAIN_FLAGS])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "U.npy").exists()

    @pytest.mark.parametrize("flag,value", [("--gamma", "inf"), ("--lambda", "nan"),
                                            ("--alpha", "inf")])
    def test_non_finite_hyperparameter_rejected(self, tmp_path, ratings_tsv, capsys,
                                                flag, value):
        # --gamma inf once projected every factor to zero and exited 0
        out = tmp_path / "model"
        rc = cli(["train", "--input", str(ratings_tsv), "--output", str(out),
                  *TRAIN_FLAGS, flag, value])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "U.npy").exists()

    def test_bad_method(self, tmp_path, ratings_tsv, capsys):
        rc = cli(["train", "--input", str(ratings_tsv),
                  "--output", str(tmp_path / "x"), "--method", "svd"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli(["train", "--input", str(tmp_path / "nope.tsv"),
                  "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_option(self, ratings_tsv, capsys):
        rc = cli(["train", "--input", str(ratings_tsv)])
        assert rc == 1
        assert "--output" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, ratings_tsv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "k=3\nepochs=2\nbatch-size=16\nseed=5\n"
            f"input={ratings_tsv}\n")
        out1 = tmp_path / "from_config"
        assert cli(["train", "--config", str(cfg), "--output", str(out1)]) == 0
        fm, _, _ = load_factors(out1)
        assert fm.k == 3

        out2 = tmp_path / "flag_wins"
        assert cli(["train", "--config", str(cfg), "--output", str(out2),
                    "--k", "5"]) == 0
        fm2, _, _ = load_factors(out2)
        assert fm2.k == 5

    def test_unknown_config_key(self, tmp_path, ratings_tsv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clusters=9\n")
        rc = cli(["train", "--config", str(cfg), "--input", str(ratings_tsv),
                  "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_comments_and_blanks(self, tmp_path, ratings_tsv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# hyper\n\nk=3  # short codes\nepochs=2\nbatch-size=16\n")
        out = tmp_path / "out"
        assert cli(["train", "--config", str(cfg), "--input", str(ratings_tsv),
                    "--output", str(out)]) == 0
        fm, _, _ = load_factors(out)
        assert fm.k == 3


class TestRoundAndRecommend:
    def test_round_then_recommend(self, tmp_path, ratings_tsv, capsys):
        model = tmp_path / "model"
        codes = tmp_path / "codes"
        assert cli(["train", "--input", str(ratings_tsv),
                    "--output", str(model), *TRAIN_FLAGS]) == 0
        assert cli(["round", "--input", str(model), "--output", str(codes)]) == 0
        users = load_codes(codes / "users.codes")
        assert users.k == 4 and len(users) == 12
        assert users.ids[0] == "u0" or users.ids[0].startswith("u")
        capsys.readouterr()

        rc = cli(["recommend", "--input", str(codes), "--user", users.ids[0],
                  "--method", "rank", "--top-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert all(line.split("\t")[0] == users.ids[0] for line in out)

    def test_labels_with_line_break_characters(self, tmp_path, ratings_tsv, capsys):
        # "\x1c" once split the user table into one label too many
        ratings = tmp_path / "odd.tsv"
        text = ratings_tsv.read_text().replace("u0\t", "u\x1c0\t").replace("i1\t", "i\x0c1\t")
        ratings.write_text(text, encoding="utf-8")
        model, codes = tmp_path / "model", tmp_path / "codes"
        assert cli(["train", "--input", str(ratings), "--output", str(model),
                    *TRAIN_FLAGS]) == 0
        assert cli(["round", "--input", str(model), "--output", str(codes)]) == 0
        assert "u\x1c0" in load_codes(codes / "users.codes").ids
        assert "i\x0c1" in load_codes(codes / "items.codes").ids
        capsys.readouterr()
        assert cli(["recommend", "--input", str(codes), "--user", "u\x1c0",
                    "--method", "rank", "--top-k", "3"]) == 0
        out = capsys.readouterr().out.split("\n")
        assert len(out) == 4 and out[-1] == ""
        assert all(line.split("\t")[0] == "u\x1c0" for line in out[:-1])

    @pytest.mark.parametrize("meta", ['{"k": 2, "num_items": 3}', "[]"])
    def test_round_malformed_meta_exits_1(self, tmp_path, capsys, meta):
        # a missing key once raised KeyError, a JSON list TypeError
        U, V = np.zeros((2, 2)), np.zeros((3, 2))
        save_factors(FactorMatrices(U, V, U.sum(axis=0), V.sum(axis=0)), tmp_path / "model")
        (tmp_path / "model" / "meta.json").write_text(meta)
        rc = cli(["round", "--input", str(tmp_path / "model"),
                  "--output", str(tmp_path / "codes")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "meta.json" in err

    @pytest.mark.parametrize("side", ["U", "V"])
    def test_round_non_finite_factors_exits_1(self, tmp_path, capsys, side):
        # a NaN factor once rounded to an all-zero bit column, exit 0
        U, V = np.zeros((2, 2)), np.ones((3, 2))
        (U if side == "U" else V)[0, 1] = np.nan
        save_factors(FactorMatrices(U, V, U.sum(axis=0), V.sum(axis=0)), tmp_path / "model")
        codes = tmp_path / "codes"
        rc = cli(["round", "--input", str(tmp_path / "model"), "--output", str(codes)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (codes / "users.codes").exists() and not (codes / "items.codes").exists()

    def test_round_files_equal_sets_of_rounded_codes(self, tmp_path, ratings_tsv):
        # round writes from the packed words; the bytes are those of sets
        # built from one HashCode per row
        model, codes, want = tmp_path / "model", tmp_path / "codes", tmp_path / "want"
        assert cli(["train", "--input", str(ratings_tsv),
                    "--output", str(model), *TRAIN_FLAGS]) == 0
        assert cli(["round", "--input", str(model), "--output", str(codes)]) == 0
        fm, user_labels, item_labels = load_factors(model)
        user_codes, item_codes = round_codes(fm)
        want.mkdir()
        save_codes(CodeSet(user_codes, user_labels), want / "users.codes")
        save_codes(CodeSet(item_codes, item_labels), want / "items.codes")
        for name in ("users.codes", "items.codes"):
            assert (codes / name).read_bytes() == (want / name).read_bytes()

    def test_recommend_matches_hand_ranking(self, tmp_path, capsys):
        # one user code 1111; items at Hamming distances 0, 1, 2
        codes = tmp_path / "codes"
        codes.mkdir()
        user = HashCode.from_bits([1, 1, 1, 1])
        items = [HashCode.from_bits(b) for b in
                 ([1, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1])]
        save_codes(CodeSet([user], ids=["alice"]), codes / "users.codes")
        save_codes(CodeSet(items, ids=["x", "y", "z"]), codes / "items.codes")
        rc = cli(["recommend", "--input", str(codes), "--user", "alice",
                  "--method", "rank", "--top-k", "10"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["alice\ty\t0", "alice\tx\t1", "alice\tz\t2"]

    def test_recommend_excludes_training_items(self, tmp_path, capsys):
        codes = tmp_path / "codes"
        codes.mkdir()
        user = HashCode.from_bits([1, 1, 1, 1])
        items = [HashCode.from_bits(b) for b in
                 ([1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 0, 1])]
        save_codes(CodeSet([user], ids=["alice"]), codes / "users.codes")
        save_codes(CodeSet(items, ids=["x", "y", "z"]), codes / "items.codes")
        seen = tmp_path / "seen.tsv"
        seen.write_text("alice\tx\t5\n")
        rc = cli(["recommend", "--input", str(codes), "--user", "alice",
                  "--train", str(seen), "--top-k", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["alice\ty\t1", "alice\tz\t2"]

    def test_recommend_to_file(self, tmp_path, capsys):
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1, 0])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([1, 0])], ids=["j"]),
                   codes / "items.codes")
        target = tmp_path / "recs.tsv"
        rc = cli(["recommend", "--input", str(codes), "--user", "a",
                  "--output", str(target)])
        assert rc == 0
        assert target.read_text() == "a\tj\t0\n"

    def test_recommend_with_no_hits_writes_nothing(self, tmp_path, capsys):
        # once wrote one blank line, to stdout or as the whole file
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1, 0])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([0, 1])], ids=["j"]),
                   codes / "items.codes")
        args = ["recommend", "--input", str(codes), "--user", "a",
                "--method", "lookup", "--radius", "0"]
        assert cli(args) == 0
        assert capsys.readouterr().out == ""
        target = tmp_path / "recs.tsv"
        assert cli([*args, "--output", str(target)]) == 0
        assert target.read_text() == ""
        assert capsys.readouterr().out == f"wrote 0 recommendations to {target}\n"

    @pytest.mark.parametrize("method,table", [("lookup", HashIndex),
                                              ("multi-index", MultiIndex)])
    def test_recommend_builds_table_once(self, tmp_path, monkeypatch, capsys,
                                         method, table):
        # the table once was rebuilt per user: seconds each at 200k items
        codes = tmp_path / "codes"
        codes.mkdir()
        rng = np.random.default_rng(5)
        users = [HashCode.from_bits(rng.integers(0, 2, size=8)) for _ in range(3)]
        items = [HashCode.from_bits(rng.integers(0, 2, size=8)) for _ in range(40)]
        save_codes(CodeSet(users, ids=["a", "b", "c"]), codes / "users.codes")
        save_codes(CodeSet(items), codes / "items.codes")
        builds = []
        init = table.__init__

        def counting(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(table, "__init__", counting)
        rc = cli(["recommend", "--input", str(codes), "--user", "a,b,c",
                  "--method", method, "--radius", "3", "--top-k", "5"])
        assert rc == 0
        assert len(builds) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert {line.split("\t")[0] for line in out} == {"a", "b", "c"}

    @pytest.mark.parametrize("method", ["rank", "lookup", "multi-index", "linear"])
    def test_top_k_zero_is_rejected(self, tmp_path, capsys, method):
        # lookup, multi-index and linear once exited 0 with a blank line
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1, 0])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([1, 0])], ids=["j"]),
                   codes / "items.codes")
        rc = cli(["recommend", "--input", str(codes), "--user", "a",
                  "--method", method, "--top-k", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: k must be >= 1" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_user_list_is_rejected(self, tmp_path, capsys):
        # once exited 0 after writing one blank line
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["j"]),
                   codes / "items.codes")
        rc = cli(["recommend", "--input", str(codes), "--user", ","])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --user names no user id" in captured.err

    def test_real_method_is_rejected(self, tmp_path, capsys):
        # recommend serves codes; ranking with real factors is evaluate's job
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["j"]),
                   codes / "items.codes")
        rc = cli(["recommend", "--input", str(codes), "--user", "a",
                  "--method", "real"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_user(self, tmp_path, capsys):
        codes = tmp_path / "codes"
        codes.mkdir()
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["a"]),
                   codes / "users.codes")
        save_codes(CodeSet([HashCode.from_bits([1])], ids=["j"]),
                   codes / "items.codes")
        rc = cli(["recommend", "--input", str(codes), "--user", "bob"])
        assert rc == 1
        assert "unknown user" in capsys.readouterr().err


class TestEvaluate:
    def test_report_csv(self, tmp_path, ratings_tsv, capsys):
        report = tmp_path / "report.csv"
        rc = cli(["evaluate", "--input", str(ratings_tsv),
                  "--output", str(report), "--top-k", "2,5",
                  "--train-fraction", "0.8", *TRAIN_FLAGS])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "model,metric,k,value"
        # 3 models x 2 metrics x 2 ranks
        assert len(lines) == 1 + 12
        models = {line.split(",")[0] for line in lines[1:]}
        assert models == {"dch", "mf", "mfh"}

    def test_stdout_single_model(self, tmp_path, ratings_tsv, capsys):
        rc = cli(["evaluate", "--input", str(ratings_tsv), "--method", "dch",
                  "--top-k", "3", *TRAIN_FLAGS])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "model,metric,k,value"
        assert len(out) == 3  # header + precision + dcg
        assert all(line.startswith("dch,") for line in out[1:])

    def test_json_report(self, tmp_path, ratings_tsv):
        report = tmp_path / "report.json"
        rc = cli(["evaluate", "--input", str(ratings_tsv), "--method", "mf",
                  "--output", str(report), "--top-k", "5", *TRAIN_FLAGS])
        assert rc == 0
        rows = json.loads(report.read_text())
        assert {r["metric"] for r in rows} == {"precision", "dcg"}


class TestBench:
    def test_emits_all_csvs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = cli(["bench", "--output", str(out), "--num-items", "64",
                  "--ks", "4,8", "--num-queries", "3", "--reps", "5"])
        assert rc == 0
        for name in ("time_vs_k.csv", "time_vs_n.csv",
                     "train_vs_workers.csv", "bucket_sizes.csv"):
            text = (out / name).read_text().splitlines()
            assert len(text) >= 2, name
        header = (out / "time_vs_k.csv").read_text().splitlines()[0]
        assert header == "k,num_items,hash_ms,real_ms"

    def test_empty_ks_is_rejected(self, tmp_path, capsys):
        # an empty list once raised IndexError with a traceback
        config = tmp_path / "bench.cfg"
        config.write_text("ks=,\n")
        for args in (["--ks", ","], ["--config", str(config)]):
            rc = cli(["bench", "--output", str(tmp_path / "bench"), *args])
            assert rc == 1
            assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli(["train", "--bogus", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli(["explode"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        # the child imports the cohash under test, installed or not
        src = str(Path(cohash.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "cohash.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        for name in ("train", "round", "recommend", "evaluate", "bench"):
            assert name in proc.stdout


# one flag value per option type; each differs from every default
SAMPLE_VALUES = {None: "x", int: "3", float: "0.5",
                 cli_module._scale: "0,4", cli_module._int_list: "2,7"}
COMMANDS = tuple(_option_table(build_parser()))
REQUIRED_FLAGS = {"train": ["--input", "r", "--output", "m"],
                  "round": ["--input", "m", "--output", "c"],
                  "recommend": ["--input", "c", "--user", "u"],
                  "evaluate": ["--input", "r"],
                  "bench": ["--output", "b"]}


def parsed(monkeypatch, argv) -> dict:
    """The options the command named by ``argv[0]`` would be run with."""
    got = []
    monkeypatch.setattr(cli_module, f"_cmd_{argv[0]}", got.append)
    assert cli(argv) is None
    (args,) = got
    return {k: v for k, v in vars(args).items() if k not in ("func", "config")}


class TestOptionTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_value_parses_like_its_flag(self, tmp_path, monkeypatch, command):
        options = _option_table(build_parser())[command]
        values = {key: action.choices[-1] if action.choices
                  else SAMPLE_VALUES[action.type]
                  for key, action in options.items()}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={v}\n" for key, v in values.items()))
        flags = [arg for key, v in values.items() for arg in (f"--{key}", v)]
        from_flags = parsed(monkeypatch, [command, *flags])
        from_config = parsed(monkeypatch, [command, "--config", str(cfg)])
        assert from_flags.keys() == from_config.keys() == {
            "command", *(a.dest for a in options.values())}
        for key, action in options.items():
            assert from_flags[action.dest] == from_config[action.dest], key
            assert from_config[action.dest] != action.default, key

    @pytest.mark.parametrize("command,line,dest,value", [
        ("train", "lambda=0.25", "lambda_", 0.25),
        ("train", "batch-size=64", "batch_size", 64),
        ("train", "scale=0,10", "scale", (0.0, 10.0)),
        ("recommend", "top-k=4", "top_k", 4),
        ("evaluate", "top-k=3,1", "top_k", [3, 1]),
        ("bench", "ks=8,16", "ks", [8, 16]),
    ])
    def test_config_value_is_typed(self, tmp_path, monkeypatch, command, line,
                                   dest, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        got = parsed(monkeypatch, [command, "--config", str(cfg),
                                   *REQUIRED_FLAGS[command]])
        assert got[dest] == value

    @pytest.mark.parametrize("command,line", [
        ("train", "k=abc"), ("train", "mode=fast"), ("train", "scale=1"),
        ("recommend", "format=csv"), ("evaluate", "top-k=a,b"),
        ("bench", "ks=4,x"),
    ])
    def test_bad_config_value_exits_1_naming_line_and_key(self, tmp_path, capsys,
                                                          command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# hyper\n{line}\n")
        rc = cli([command, "--config", str(cfg), *REQUIRED_FLAGS[command]])
        assert rc == 1
        key = line.split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {key}: ")

    def test_invalid_utf8_config_exits_1_naming_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# hyper\r\nk=3\r\nepochs=\xff\r\n")
        rc = cli(["train", "--config", str(cfg), *REQUIRED_FLAGS["train"]])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: 'utf-8' codec")

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\x0c", "\x1c"])
    def test_only_line_endings_end_a_config_line(self, tmp_path, brk):
        # str.splitlines() also breaks on these, which once made the text
        # after one in a comment a live setting and pushed line numbers on
        from cohash.config import ConfigError, parse_config

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# note{brk}k=9\nk=3{brk}\r\nmethod=a{brk}b\repochs=\n",
                       encoding="utf-8", newline="")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:4: empty value")):
            parse_config(cfg)
        cfg.write_text(f"# note{brk}k=9\nk=3{brk}\r\nmethod=a{brk}b\repochs=2\n",
                       encoding="utf-8", newline="")
        assert parse_config(cfg) == {"k": ("3", 2), "method": (f"a{brk}b", 3),
                                     "epochs": ("2", 4)}

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, monkeypatch):
        # round reads none of these keys, so their values are not parsed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ks=not,numbers\nradius=2\nmode=fast\ntop-k=a\n")
        got = parsed(monkeypatch, ["round", "--config", str(cfg),
                                   *REQUIRED_FLAGS["round"]])
        assert got == {"command": "round", "input": "m", "output": "c"}

    @pytest.mark.parametrize("argv", [["round", "--seed", "1"],
                                      ["round", "--method", "dch"],
                                      ["recommend", "--seed", "1"],
                                      ["bench", "--method", "rank"]])
    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["bench", "--ks", "a,b"], "expected comma-separated integers, got 'a,b'"),
        (["evaluate", "--top-k", "a"], "expected comma-separated integers, got 'a'"),
        (["train", "--scale", "1"], "scale must be 'lo,hi', got '1'"),
    ])
    def test_flag_value_its_type_rejects_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_commands_run(self, tmp_path, monkeypatch):
        # the corpus snippet, then every cohash line of the sh blocks
        text = README.read_text(encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        corpus = re.search(r"python - << 'EOF'\n(.*?)\nEOF\n", text, re.S)
        exec(corpus.group(1), {})
        blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
        lines = [line for block in blocks
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("cohash ")]
        assert len(lines) >= 4
        for line in lines:
            assert cli(shlex.split(line)[1:]) == 0, line

    def test_every_flag_is_declared(self):
        # --no-build-isolation on the pip line is pip's own flag
        text = "\n".join(line for line in README.read_text(encoding="utf-8").splitlines()
                         if not line.startswith("pip install"))
        mentioned = set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)", text))
        declared = {"config", "help"}.union(*_option_table(build_parser()).values())
        assert mentioned and mentioned <= declared, mentioned - declared


class TestRecommendExclusions:
    def test_unknown_items_and_users_without_ratings(self, tmp_path, capsys):
        # exclusions are built for the requested users only; an item with
        # no code and a user with no training row exclude nothing
        codes = tmp_path / "codes"
        codes.mkdir()
        users = [HashCode.from_bits(b) for b in ([1, 1, 1, 1], [0, 0, 0, 0])]
        items = [HashCode.from_bits(b) for b in
                 ([1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 0, 1])]
        save_codes(CodeSet(users, ids=["alice", "bob"]), codes / "users.codes")
        save_codes(CodeSet(items, ids=["x", "y", "z"]), codes / "items.codes")
        seen = tmp_path / "seen.tsv"
        seen.write_text("alice\tx\t5\nalice\tnope\t4\ncarol\tz\t3\nalice\tx\t2\n")
        rc = cli(["recommend", "--input", str(codes), "--user", "alice,bob",
                  "--train", str(seen), "--top-k", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["alice\ty\t1", "alice\tz\t2", "bob\tz\t2", "bob\ty\t3"]
