"""Command-line behavior: option precedence, pipelines, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cohash.cli import cli
from cohash.core import HashCode
from cohash.data_io import load_codes, load_factors, save_codes
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
        proc = subprocess.run([sys.executable, "-m", "cohash.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("train", "round", "recommend", "evaluate", "bench"):
            assert name in proc.stdout
