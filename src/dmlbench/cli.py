"""Command line front end.

Subcommands: gradcheck, synth, folds, train, eval, grid, report. Every
flag can also come from a JSON config file (--config): the file's values
become the subcommand parser's defaults before a second parse, so explicit
flags win over the file and the file wins over built-in defaults.

Each default is written once. A flag that feeds a function parameter
takes the parameter's default; a loss or training flag defaults to None
and leaves the `LossConfig` or `TrainConfig` field (or, for grid epochs,
the per-shot epochs) at its own default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .encoder import forward_batch, load_encoder, pack_tokens, save_encoder, tokenize
from .errors import ConfigError
from .evaluation import blended_scores, macro_f1, predict
from .gradcheck import run_gradcheck
from .harness import (
    SHOT_CHOICES,
    canonical_json,
    desk_grid,
    fold_plans_to_json,
    full_grid,
    load_dataset,
    make_fold_plans,
    render_csv,
    render_table,
    result_to_report,
    run_grid,
    save_dataset,
    synth_dataset,
)
from .losses import LOSSES, VARIANTS, LossConfig
from .proxies import load_proxies, save_proxies
from .trainer import TrainConfig, train

# CLI flag (argparse dest) -> the config fields it sets, from the variant
# table: --delta is the margin of soft-triple and of proxy-anchor
LOSS_FLAGS: dict[str, list[str]] = {"beta": ["beta"]}
for _spec in LOSSES.values():
    for _flag, _field in _spec.flags.items():
        LOSS_FLAGS.setdefault(_flag, []).append(_field)
TRAIN_FLAGS = {f: [f] for f in ("epochs", "batch_size", "lr", "weight_decay", "warmup_fraction")}
LOSS_DEFAULTS = LossConfig()
TRAIN_DEFAULTS = TrainConfig()


def _default(fn, name: str):
    """The default of fn's parameter `name`: the flag shares it."""
    return inspect.signature(fn).parameters[name].default


FLAGS = {
    "seed": dict(type=int, default=0, help="master seed"),
    "config": dict(type=str, help="JSON file of flag defaults"),
    "loss": dict(type=str, choices=list(VARIANTS), help="loss variant"),
    "shots": dict(default="20", help=f"training examples per fold, one of {SHOT_CHOICES}"),
    "folds": dict(type=int, default=40, help="number of cross-validation folds"),
    "beta_inf": dict(
        type=float, default=_default(run_grid, "beta_inf"), help="inference-time blend weight"
    ),
    "blended": dict(action="store_true", help="score with the proxy blend"),
    "full_grid": dict(action="store_true", help="use the full search space"),
    "workers": dict(
        type=int, default=_default(run_grid, "workers"), help="parallel training processes"
    ),
    "epochs": dict(type=int, help="training epochs"),
    "batch_size": dict(type=int, help="mini-batch size"),
    "lr": dict(type=float, help="base learning rate"),
    "weight_decay": dict(type=float, help="decoupled weight decay"),
    "warmup_fraction": dict(type=float, help="fraction of steps spent warming up"),
    **{
        flag: dict(
            type=type(getattr(LOSS_DEFAULTS, names[0])), help=f"LossConfig.{', '.join(names)}"
        )
        for flag, names in LOSS_FLAGS.items()
    },
}


def _add_common(p: argparse.ArgumentParser, *dests: str) -> None:
    for dest in dests:
        p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])


def _parse_shot(raw):
    """The shot as make_fold_plans takes it, which checks that it is known."""
    return "full" if raw == "full" else int(raw)


def _fields(args: argparse.Namespace, flags: dict[str, list[str]], defaults) -> dict:
    """The fields of `defaults`' class that a flag or the config file sets,
    cast to the type of their default."""
    return {
        name: type(getattr(defaults, name))(getattr(args, flag))
        for flag, names in flags.items()
        if getattr(args, flag) is not None
        for name in names
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(int(args.instances), seed=int(args.seed))
    ok = True
    for r in results:
        status = "ok" if r.passed else f"FAIL ({r.failures}/{r.instances})"
        print(
            f"{r.variant:<12} {status:<14} worst_abs={r.worst_abs:.3e} worst_rel={r.worst_rel:.3e}"
        )
        ok = ok and r.passed
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    ds = synth_dataset(
        num_classes=int(args.classes),
        size=int(args.size),
        signal_tokens=int(args.signal_tokens),
        noise=float(args.noise),
        seed=int(args.seed),
    )
    save_dataset(ds, args.out)
    print(f"wrote {ds.size} texts, {ds.num_classes} classes to {args.out}")
    return 0


def _cmd_folds(args) -> int:
    ds = load_dataset(args.data)
    shot = _parse_shot(args.shots)
    seed = int(args.seed)
    plans = make_fold_plans(ds.labels, int(args.folds), shot, seed, strict=bool(args.strict))
    text = fold_plans_to_json(plans, shot, seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(plans)} folds to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.data)
    variant = args.loss
    loss = LossConfig(variant=variant, **_fields(args, LOSS_FLAGS, LOSS_DEFAULTS))
    cfg = TrainConfig(loss=loss, seed=int(args.seed), **_fields(args, TRAIN_FLAGS, TRAIN_DEFAULTS))
    if args.out_proxies and not loss.is_proxy_based:
        raise ConfigError(f"{variant} has no proxies to save")
    model = train(ds.texts, ds.labels, ds.num_classes, cfg)
    if args.out_encoder:
        save_encoder(model.params, args.out_encoder)
    if args.out_proxies:
        save_proxies(model.bank, args.out_proxies)
    if args.out_log:
        with open(args.out_log, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(model.log_dict()))
    print(f"trained {variant} for {len(model.steps)} steps, final loss {model.steps[-1][1]:.6f}")
    return 0


def _cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    params = load_encoder(args.encoder)
    bank = load_proxies(args.proxies) if args.proxies else None
    beta_inf = float(args.beta_inf) if args.blended else 1.0
    packed = pack_tokens([tokenize(t, params.vocab_size) for t in ds.texts])
    z, _ = forward_batch(params, packed)
    scores = blended_scores(params, z, bank, beta_inf)
    result = macro_f1(predict(scores), ds.labels, ds.num_classes)
    print(canonical_json(result.to_dict()), end="")
    return 0


def _cmd_grid(args) -> int:
    ds = load_dataset(args.data)
    variant = args.loss
    if variant is None or variant == "cce":
        raise ConfigError("grid needs a metric-learning --loss")
    shot = _parse_shot(args.shots)
    seed = int(args.seed)
    plans = make_fold_plans(ds.labels, int(args.folds), shot, seed)
    points = full_grid(variant) if args.full_grid else desk_grid(variant)
    result = run_grid(
        ds,
        plans,
        points,
        master_seed=seed,
        shot=shot,
        beta_inf=float(args.beta_inf),
        workers=int(args.workers),
        train_overrides=_fields(args, TRAIN_FLAGS, TRAIN_DEFAULTS),
    )
    report = result_to_report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    print(render_table(report), end="")
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each key of a report row: what its value must be, and the check
REPORT_FIELDS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "per_fold": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "mean": ("a number", _is_number),
    "std": ("a number", _is_number),
    "p_value": ("a number or null", lambda v: v is None or _is_number(v)),
}


def _cmd_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    rows = report.get("rows") if isinstance(report, dict) else None
    if not rows or not isinstance(rows, list) or not all(
        isinstance(r, dict) and r.keys() >= REPORT_FIELDS.keys() for r in rows
    ):
        raise ConfigError(
            f"{args.report}: not a grid report, whose rows have {', '.join(REPORT_FIELDS)}"
        )
    for i, row in enumerate(rows):
        for key, (kind, check) in REPORT_FIELDS.items():
            if not check(row[key]):
                raise ConfigError(f"{args.report}: row {i} {key} must be {kind}, got {row[key]!r}")
    if args.format == "table":
        print(render_table(report), end="")
    elif args.format == "csv":
        print(render_csv(report), end="")
    else:
        print(canonical_json(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmlbench",
        description="metric-learning losses and a few-shot text benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *common):
        p = sub.add_parser(name, help=summary)
        # the subparser rides along so main can load --config into its defaults
        p.set_defaults(func=func, subparser=p)
        _add_common(p, *common)
        return p

    p = command(
        "gradcheck", _cmd_gradcheck, "verify analytic gradients against finite differences",
        "seed", "config",
    )
    p.add_argument(
        "--instances", type=int, default=_default(run_gradcheck, "instances"),
        help="random instances per loss",
    )

    p = command("synth", _cmd_synth, "generate a synthetic dataset", "seed", "config")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--signal-tokens", type=int, default=_default(synth_dataset, "signal_tokens"))
    p.add_argument("--noise", type=float, default=_default(synth_dataset, "noise"))
    p.add_argument("--out", required=True)

    p = command(
        "folds", _cmd_folds, "emit a cross-validation fold plan", "seed", "config", "folds", "shots"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")

    p = command(
        "train", _cmd_train, "train one model on a whole dataset",
        "seed", "config", "loss", *LOSS_FLAGS, *TRAIN_FLAGS,
    )
    p.set_defaults(loss="cce")
    p.add_argument("--data", required=True)
    p.add_argument("--out-encoder")
    p.add_argument("--out-proxies")
    p.add_argument("--out-log")

    p = command(
        "eval", _cmd_eval, "score a checkpoint on a dataset", "config", "blended", "beta_inf"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--proxies")

    p = command(
        "grid", _cmd_grid, "cross-validated hyperparameter search",
        "seed", "config", "loss", "folds", "shots", "beta_inf", "full_grid", "workers",
        *TRAIN_FLAGS,
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = command("report", _cmd_report, "render a grid report")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                file_config = json.load(fh)
            if not isinstance(file_config, dict):
                raise ConfigError("config file must hold a JSON object")
            # keys that name no flag of this subcommand are ignored
            flags = vars(args).keys() - {"command", "func", "subparser"}
            args.subparser.set_defaults(**{k: v for k, v in file_config.items() if k in flags})
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
