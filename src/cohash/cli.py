"""Command-line entry point: train, round, recommend, evaluate, bench.

Each option is declared once, in ``build_parser``, with its type,
choices and default; a subcommand declares only the options it reads.
A key=value config file (--config) supplies the chosen subcommand's
defaults through the same types and choices; a key of another
subcommand is ignored, and a flag wins over the file.  Commands exit 0
on success and 1 with an ``error:`` line on stderr otherwise; argparse
exits 2 for an unknown flag or a flag value its type rejects.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from cohash.bench import (
    bench_query_vs_k,
    bench_query_vs_n,
    bench_train_vs_workers,
    bucket_stats,
    write_rows_csv,
)
from cohash.config import ConfigError, parse_config
from cohash.core import Hyperparams, round_words
from cohash.data_io import (
    load_codes,
    load_factors,
    load_ratings,
    save_codes,
    save_factors,
    write_loss_trace,
    write_report,
)
from cohash.evaluation import SplitSpec, evaluate, split
from cohash.retrieval import CodeSet, recommend
from cohash.runtime import run_training
from cohash.synth import planted_dataset, random_codes

__all__ = ["cli", "main"]

# the default of a required option: it must come from a flag or the config
_REQUIRED = argparse.SUPPRESS


class CliError(ValueError):
    """A usage problem: missing required option or bad value."""


def _scale(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be 'lo,hi', got {text!r}") from None
    return lo, hi


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(Hyperparams)})


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    data = load_ratings(args.input, fmt=args.format, scale=args.scale)
    h = _hyperparams(args)
    method = args.method
    if method not in ("dch", "mf"):
        raise CliError(f"train method must be dch or mf, got {method!r}")
    out = Path(args.output)
    result = run_training(data, h, objective=method, mode=args.mode, make_codes=False)
    save_factors(result.factors, out, data.user_labels, data.item_labels)
    write_loss_trace(out / "loss_trace.csv", result.losses, result.wall_clock_ms)
    print(f"trained {method} for {result.barriers} barriers "
          f"(converged={result.converged}); final loss {result.losses[-1]:.6f}")
    print(f"factors written to {out}")
    return 0


def _cmd_round(args) -> int:
    out = Path(args.output)
    fm, user_labels, item_labels = load_factors(args.input)
    user_words, item_words = round_words(fm)
    out.mkdir(parents=True, exist_ok=True)
    save_codes(CodeSet.from_words(user_words, fm.k, user_labels), out / "users.codes")
    save_codes(CodeSet.from_words(item_words, fm.k, item_labels), out / "items.codes")
    print(f"rounded {len(user_words)} user and {len(item_words)} item codes "
          f"(K={fm.k}) to {out}")
    return 0


def _seen_items(args, items: CodeSet, wanted: list[str]) -> dict[str, list[int]]:
    """Positions in ``items`` of what each wanted user rated in --train."""
    train = load_ratings(args.train, fmt=args.format, scale=args.scale)
    item_pos = {str(ident): pos for pos, ident in enumerate(items.ids)}
    # one code position per distinct training item, -1 where it has no code
    code_pos = np.array([item_pos.get(i, -1) for i in train.item_labels], dtype=np.int64)
    user_row = {label: u for u, label in enumerate(train.user_labels)}
    # user u's ratings, in file order, are order[start[u]:start[u + 1]]
    order = np.argsort(train.users, kind="stable")
    start = np.searchsorted(train.users[order], np.arange(train.num_users + 1)).tolist()
    seen = {}
    for label in wanted:
        if label in user_row:
            u = user_row[label]
            pos = code_pos[train.items[order[start[u]:start[u + 1]]]]
            seen[label] = pos[pos >= 0].tolist()
    return seen


def _cmd_recommend(args) -> int:
    in_dir = Path(args.input)
    users = load_codes(in_dir / "users.codes")
    items = load_codes(in_dir / "items.codes")
    wanted = [u for u in args.user.split(",") if u]
    if not wanted:
        raise CliError("--user names no user id")
    method = args.method
    if method not in ("rank", "lookup", "multi-index", "linear"):
        raise CliError("recommend method must be rank, lookup, multi-index or "
                       f"linear, got {method!r}")

    user_pos = {str(ident): pos for pos, ident in enumerate(users.ids)}
    seen = {} if args.train is None else _seen_items(args, items, wanted)

    lines = []
    for label in wanted:
        pos = user_pos.get(label)
        if pos is None:
            raise CliError(f"unknown user id {label!r}")
        hits = recommend(users[pos], items, method, top_k=args.top_k,
                         radius=args.radius, subcodes=args.subcodes,
                         exclude=seen.get(label, ()))
        for ident, score in hits:
            lines.append(f"{label}\t{ident}\t{score:g}")

    text = "".join(f"{line}\n" for line in lines)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(lines)} recommendations to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    data = load_ratings(args.input, fmt=args.format, scale=args.scale)
    h = _hyperparams(args)
    train, test = split(data, SplitSpec(train_fraction=args.train_fraction, seed=h.seed))
    method = args.method
    models = ("dch", "mf", "mfh") if method == "all" else tuple(method.split(","))
    for m in models:
        if m not in ("dch", "mf", "mfh"):
            raise CliError(f"evaluate method must be dch, mf, mfh or all, got {m!r}")
    ks = args.top_k
    if not ks:
        raise CliError("--top-k names no rank")

    runs: dict[str, object] = {}

    def trained(objective: str):
        if objective not in runs:
            runs[objective] = run_training(train, h, objective=objective, mode=args.mode)
        return runs[objective]

    reports = []
    for m in models:
        if m == "dch":
            r = trained("dch")
            rep = evaluate(r.user_codes, r.item_codes, train, test, ks, model="dch")
        elif m == "mf":
            r = trained("mf")
            rep = evaluate(r.factors.U, r.factors.V, train, test, ks, model="mf")
        else:
            r = trained("mf")
            rep = evaluate(r.user_codes, r.item_codes, train, test, ks, model="mfh")
        reports.append(rep)

    if args.output is not None:
        write_report(args.output, reports)
        print(f"wrote report to {args.output}")
    else:
        print("model,metric,k,value")
        for rep in reports:
            for model, metric, k, v in rep.rows():
                print(f"{model},{metric},{k},{v:.6f}")
    return 0


def _cmd_bench(args) -> int:
    ks, n, seed = args.ks, args.num_items, args.seed
    if not ks:
        raise CliError("--ks names no code length")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    fixed_k = ks[len(ks) // 2]
    ns = sorted({max(1, round(n * f)) for f in (0.25, 0.5, 0.75, 1.0)})
    timing = (args.num_queries, args.top_k, seed, args.reps)
    write_rows_csv(out / "time_vs_k.csv", bench_query_vs_k(n, ks, *timing))
    write_rows_csv(out / "time_vs_n.csv", bench_query_vs_n(fixed_k, ns, *timing))

    data = planted_dataset(200, 150, 5000, seed=seed)
    h = Hyperparams(k=8, batch_size=200, epochs=2, staleness=2, servers=2,
                    seed=seed)
    write_rows_csv(out / "train_vs_workers.csv",
                   bench_train_vs_workers(data, h, workers=(1, 2, 4)))

    bucket_rows = []
    for k in ks:
        row = {"k": k, "num_items": n}
        row.update(bucket_stats(random_codes(n, k, seed=seed)))
        bucket_rows.append(row)
    write_rows_csv(out / "bucket_sizes.csv", bucket_rows)

    for name in ("time_vs_k.csv", "time_vs_n.csv", "train_vs_workers.csv",
                 "bucket_sizes.csv"):
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_hyper(sub: argparse.ArgumentParser) -> None:
    """One flag per Hyperparams field ("--batch-size" for batch_size)."""
    for f in dataclasses.fields(Hyperparams):
        sub.add_argument("--" + f.name.rstrip("_").replace("_", "-"),
                         dest=f.name, type=type(f.default), default=f.default)
    sub.add_argument("--mode", choices=("serial", "threads"), default="serial")


def _add_data(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("tsv", "netflix-prize"), default="tsv")
    sub.add_argument("--scale", type=_scale, default=(1.0, 5.0),
                     help="rating scale 'lo,hi'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohash",
        description="Train, round, and serve binary collaborative hashing models.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(func=func)
        sub.add_argument("--config", help="key=value config file; flags win")
        return sub

    train = command("train", _cmd_train, "learn relaxed factors from ratings")
    train.add_argument("--input", default=_REQUIRED, help="ratings file")
    train.add_argument("--output", default=_REQUIRED, help="factor directory")
    train.add_argument("--method", default="dch", help="dch or mf")
    _add_hyper(train)
    _add_data(train)

    rnd = command("round", _cmd_round, "threshold saved factors into codes")
    rnd.add_argument("--input", default=_REQUIRED, help="factor directory")
    rnd.add_argument("--output", default=_REQUIRED, help="code directory")

    rec = command("recommend", _cmd_recommend, "rank items for users from codes")
    rec.add_argument("--input", default=_REQUIRED, help="code directory")
    rec.add_argument("--output", help="recommendation file; stdout by default")
    rec.add_argument("--user", default=_REQUIRED,
                     help="external user id(s), comma separated")
    rec.add_argument("--method", default="rank",
                     help="rank, lookup, multi-index or linear")
    rec.add_argument("--top-k", type=int, default=10)
    rec.add_argument("--train", help="ratings file whose items are excluded")
    rec.add_argument("--radius", type=int, default=1)
    rec.add_argument("--subcodes", type=int, default=2)
    _add_data(rec)

    ev = command("evaluate", _cmd_evaluate, "split, train, and score models")
    ev.add_argument("--input", default=_REQUIRED, help="ratings file")
    ev.add_argument("--output", help="report file; stdout by default")
    ev.add_argument("--method", default="all",
                    help="dch, mf, mfh, a comma list of them, or all")
    ev.add_argument("--top-k", type=_int_list, default=(5, 10),
                    help="comma-separated ranks")
    ev.add_argument("--train-fraction", type=float, default=0.8)
    _add_hyper(ev)
    _add_data(ev)

    bench = command("bench", _cmd_bench, "emit timing and occupancy CSVs")
    bench.add_argument("--output", default=_REQUIRED, help="CSV directory")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--top-k", type=int, default=10)
    bench.add_argument("--num-items", type=int, default=17770)
    bench.add_argument("--num-queries", type=int, default=50)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--ks", type=_int_list, default=(5, 15, 25, 35),
                       help="comma-separated code lengths")

    return parser


def _option_table(parser) -> dict[str, dict[str, argparse.Action]]:
    """Subcommand -> config key (its flag without dashes) -> argparse action."""
    (subs,) = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[-1][2:]: a for a in sub._actions
                   if a.dest not in ("help", "config")}
            for name, sub in subs.choices.items()}


def _apply_config(path: str, table: dict, command: str) -> None:
    """Make the config file's values the defaults of ``command``'s options."""
    own = table[command]
    for key, (text, lineno) in parse_config(path).items():
        if not any(key in options for options in table.values()):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        action = own.get(key)
        if action is None:
            continue  # an option of another subcommand
        try:
            value = action.type(text) if action.type else text
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{path}:{lineno}: {key}: {value!r} is not one of "
                              f"{', '.join(action.choices)}")
        action.default = value


def cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = _option_table(parser)
        if args.config:
            _apply_config(args.config, table, args.command)
            args = parser.parse_args(argv)
        for key, action in table[args.command].items():
            if not hasattr(args, action.dest):
                raise CliError(f"missing required option --{key}")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
