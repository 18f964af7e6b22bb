"""Command-line entry point: train, round, recommend, evaluate, bench.

Every option can come from a key=value config file (--config) or a
flag; the flag wins.  All commands exit 0 on success and nonzero with
a message on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from cohash.bench import (
    bench_query_vs_k,
    bench_query_vs_n,
    bench_train_vs_workers,
    bucket_stats,
    write_rows_csv,
)
from cohash.config import ConfigError, parse_config
from cohash.core import Dataset, Hyperparams, round_words
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

_H = Hyperparams()


class CliError(ValueError):
    """A usage problem: missing required option or bad value."""


def _get(args: argparse.Namespace, config: dict, key: str, cast, default):
    """Effective option value: flag beats config file beats default."""
    attr = key.replace("-", "_")
    if attr == "lambda":
        attr = "lambda_"
    value = getattr(args, attr)
    if value is not None:
        return value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ConfigError(
                f"config key {key!r}: cannot parse {config[key]!r}") from None
    return default


def _require(args, config, key: str, cast=str):
    value = _get(args, config, key, cast, None)
    if value is None:
        raise CliError(f"missing required option --{key}")
    return value


def _parse_scale(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"scale must be 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise CliError(f"expected at least one integer, got {text!r}")
    return values


def _hyperparams(args, config) -> Hyperparams:
    return Hyperparams(
        k=_get(args, config, "k", int, _H.k),
        lambda_=_get(args, config, "lambda", float, _H.lambda_),
        alpha=_get(args, config, "alpha", float, _H.alpha),
        gamma=_get(args, config, "gamma", float, _H.gamma),
        batch_size=_get(args, config, "batch-size", int, _H.batch_size),
        staleness=_get(args, config, "staleness", int, _H.staleness),
        workers=_get(args, config, "workers", int, _H.workers),
        servers=_get(args, config, "servers", int, _H.servers),
        epochs=_get(args, config, "epochs", int, _H.epochs),
        seed=_get(args, config, "seed", int, _H.seed),
    )


def _scale_of(args, config) -> tuple[float, float]:
    scale = _get(args, config, "scale", str, "1,5")
    return _parse_scale(scale) if isinstance(scale, str) else scale


def _load_input(args, config) -> Dataset:
    path = _require(args, config, "input")
    fmt = _get(args, config, "format", str, "tsv")
    return load_ratings(path, fmt=fmt, scale=_scale_of(args, config))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args, config) -> int:
    data = _load_input(args, config)
    h = _hyperparams(args, config)
    method = _get(args, config, "method", str, "dch")
    if method not in ("dch", "mf"):
        raise CliError(f"train method must be dch or mf, got {method!r}")
    mode = _get(args, config, "mode", str, "serial")
    out = Path(_require(args, config, "output"))
    result = run_training(data, h, objective=method, mode=mode, make_codes=False)
    save_factors(result.factors, out, data.user_labels, data.item_labels)
    write_loss_trace(out / "loss_trace.csv", result.losses, result.wall_clock_ms)
    print(f"trained {method} for {result.barriers} barriers "
          f"(converged={result.converged}); final loss {result.losses[-1]:.6f}")
    print(f"factors written to {out}")
    return 0


def _cmd_round(args, config) -> int:
    in_dir = Path(_require(args, config, "input"))
    out = Path(_require(args, config, "output"))
    fm, user_labels, item_labels = load_factors(in_dir)
    user_words, item_words = round_words(fm)
    out.mkdir(parents=True, exist_ok=True)
    save_codes(CodeSet.from_words(user_words, fm.k, user_labels), out / "users.codes")
    save_codes(CodeSet.from_words(item_words, fm.k, item_labels), out / "items.codes")
    print(f"rounded {len(user_words)} user and {len(item_words)} item codes "
          f"(K={fm.k}) to {out}")
    return 0


def _cmd_recommend(args, config) -> int:
    in_dir = Path(_require(args, config, "input"))
    users = load_codes(in_dir / "users.codes")
    items = load_codes(in_dir / "items.codes")
    wanted = [u for u in _require(args, config, "user").split(",") if u]
    if not wanted:
        raise CliError("--user names no user id")
    method = _get(args, config, "method", str, "rank")
    if method not in ("rank", "lookup", "multi-index", "linear"):
        raise CliError("recommend method must be rank, lookup, multi-index or "
                       f"linear, got {method!r}")
    top_k = _get(args, config, "top-k", int, 10)
    radius = _get(args, config, "radius", int, 1)
    subcodes = _get(args, config, "subcodes", int, 2)

    user_pos = {str(ident): pos for pos, ident in enumerate(users.ids)}
    seen: dict[str, set[int]] = {}
    train_path = _get(args, config, "train", str, None)
    if train_path is not None:
        fmt = _get(args, config, "format", str, "tsv")
        train = load_ratings(train_path, fmt=fmt, scale=_scale_of(args, config))
        item_pos = {str(ident): pos for pos, ident in enumerate(items.ids)}
        for u, i in zip(train.users, train.items):
            label = train.user_labels[u]
            pos = item_pos.get(train.item_labels[i])
            if pos is not None:
                seen.setdefault(label, set()).add(pos)

    lines = []
    for label in wanted:
        pos = user_pos.get(label)
        if pos is None:
            raise CliError(f"unknown user id {label!r}")
        hits = recommend(users.codes[pos], items, method, top_k=top_k,
                         radius=radius, subcodes=subcodes,
                         exclude=seen.get(label, ()))
        for ident, score in hits:
            lines.append(f"{label}\t{ident}\t{score:g}")

    out = _get(args, config, "output", str, None)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {len(lines)} recommendations to {out}")
    return 0


def _cmd_evaluate(args, config) -> int:
    data = _load_input(args, config)
    h = _hyperparams(args, config)
    fraction = _get(args, config, "train-fraction", float, 0.8)
    train, test = split(data, SplitSpec(train_fraction=fraction, seed=h.seed))
    method = _get(args, config, "method", str, "all")
    models = ("dch", "mf", "mfh") if method == "all" else tuple(method.split(","))
    for m in models:
        if m not in ("dch", "mf", "mfh"):
            raise CliError(f"evaluate method must be dch, mf, mfh or all, got {m!r}")
    ks = _get(args, config, "top-k", _parse_int_list, [5, 10])
    if isinstance(ks, str):
        ks = _parse_int_list(ks)
    mode = _get(args, config, "mode", str, "serial")

    runs: dict[str, object] = {}

    def trained(objective: str):
        if objective not in runs:
            runs[objective] = run_training(train, h, objective=objective,
                                           mode=mode)
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

    out = _get(args, config, "output", str, None)
    if out is not None:
        write_report(out, reports)
        print(f"wrote report to {out}")
    else:
        print("model,metric,k,value")
        for rep in reports:
            for model, metric, k, v in rep.rows():
                print(f"{model},{metric},{k},{v:.6f}")
    return 0


def _cmd_bench(args, config) -> int:
    out = Path(_require(args, config, "output"))
    out.mkdir(parents=True, exist_ok=True)
    n = _get(args, config, "num-items", int, 17770)
    ks = _get(args, config, "ks", _parse_int_list, [5, 15, 25, 35])
    if isinstance(ks, str):
        ks = _parse_int_list(ks)
    queries = _get(args, config, "num-queries", int, 50)
    reps = _get(args, config, "reps", int, 5)
    top_k = _get(args, config, "top-k", int, 10)
    seed = _get(args, config, "seed", int, 0)

    fixed_k = ks[len(ks) // 2]
    ns = sorted({max(1, round(n * f)) for f in (0.25, 0.5, 0.75, 1.0)})
    write_rows_csv(out / "time_vs_k.csv",
                   bench_query_vs_k(n, ks, queries, top_k, seed, reps))
    write_rows_csv(out / "time_vs_n.csv",
                   bench_query_vs_n(fixed_k, ns, queries, top_k, seed, reps))

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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file; flags win")
    sub.add_argument("--input", help="input path")
    sub.add_argument("--output", help="output path")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--method")


def _add_hyper(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, help="code length")
    sub.add_argument("--lambda", dest="lambda_", type=float,
                     help="balance penalty weight")
    sub.add_argument("--alpha", type=float, help="learning rate")
    sub.add_argument("--gamma", type=float, help="projection ball parameter")
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--servers", type=int)
    sub.add_argument("--staleness", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--mode", choices=("serial", "threads"))


def _add_data(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("tsv", "netflix-prize"))
    sub.add_argument("--scale", type=_parse_scale, help="rating scale 'lo,hi'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohash",
        description="Train, round, and serve binary collaborative hashing models.")
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="learn relaxed factors from ratings")
    _add_common(train)
    _add_hyper(train)
    _add_data(train)
    train.set_defaults(func=_cmd_train)

    rnd = subs.add_parser("round", help="threshold saved factors into codes")
    _add_common(rnd)
    rnd.set_defaults(func=_cmd_round)

    rec = subs.add_parser("recommend", help="rank items for users from codes")
    _add_common(rec)
    _add_data(rec)
    rec.add_argument("--user", help="external user id(s), comma separated")
    rec.add_argument("--top-k", dest="top_k", type=int)
    rec.add_argument("--train", help="ratings file whose items are excluded")
    rec.add_argument("--radius", type=int)
    rec.add_argument("--subcodes", type=int)
    rec.set_defaults(func=_cmd_recommend)

    ev = subs.add_parser("evaluate", help="split, train, and score models")
    _add_common(ev)
    _add_hyper(ev)
    _add_data(ev)
    ev.add_argument("--top-k", dest="top_k", help="comma-separated ranks")
    ev.add_argument("--train-fraction", dest="train_fraction", type=float)
    ev.set_defaults(func=_cmd_evaluate)

    bench = subs.add_parser("bench", help="emit timing and occupancy CSVs")
    _add_common(bench)
    bench.add_argument("--top-k", dest="top_k", type=int)
    bench.add_argument("--num-items", dest="num_items", type=int)
    bench.add_argument("--num-queries", dest="num_queries", type=int)
    bench.add_argument("--reps", type=int)
    bench.add_argument("--ks", help="comma-separated code lengths")
    bench.set_defaults(func=_cmd_bench)

    return parser


def cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
