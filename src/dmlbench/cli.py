"""Command line front end.

Subcommands: gradcheck, synth, folds, train, eval, grid, report. Every
flag can also come from a JSON config file (--config); explicit flags win
over the file, the file wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .encoder import forward_batch, load_encoder, save_encoder, tokenize
from .errors import ConfigError
from .evaluation import blended_scores, macro_f1, predict
from .gradcheck import run_gradcheck
from .harness import (
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

# CLI flag (argparse dest) -> the LossConfig fields it sets, from the
# variant table: --delta is the margin of soft-triple and of proxy-anchor
LOSS_FLAGS: dict[str, list[str]] = {"beta": ["beta"]}
for _spec in LOSSES.values():
    for _flag, _field in _spec.flags.items():
        LOSS_FLAGS.setdefault(_flag, []).append(_field)
TRAIN_FLAGS = ("batch_size", "lr", "weight_decay", "warmup_fraction", "epochs")
LOSS_DEFAULTS = LossConfig()
TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}

DEFAULTS = {
    "seed": 0,
    "folds": 40,
    "shots": "20",
    "beta_inf": 0.5,
    "workers": 1,
    "instances": 50,
    "classes": 2,
    "size": 2000,
    "signal_tokens": 8,
    "noise": 0.35,
    **{flag: getattr(LOSS_DEFAULTS, names[0]) for flag, names in LOSS_FLAGS.items()},
    **{key: TRAIN_DEFAULTS[key] for key in TRAIN_FLAGS},
    "epochs": None,  # unset: grid takes its per-shot default, train TrainConfig's
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    table = {
        "seed": dict(type=int, help="master seed"),
        "config": dict(type=str, help="JSON file of flag defaults"),
        "loss": dict(type=str, choices=list(VARIANTS), help="loss variant"),
        "shots": dict(type=str, help="training examples per fold: 20, 100, 1000 or full"),
        "folds": dict(type=int, help="number of cross-validation folds"),
        "beta": dict(type=float, help="blend weight on the cross-entropy term"),
        "margin": dict(type=float, help="triplet margin"),
        "tau": dict(type=float, help="contrastive temperature"),
        "softmax-scale": dict(type=float, help="proxy-nca distance scale"),
        "k": dict(type=int, help="proxies per class (soft-triple)"),
        "gamma": dict(type=float, help="soft-triple inner softmax temperature"),
        "lam": dict(type=float, help="soft-triple logit scale"),
        "delta": dict(type=float, help="margin (soft-triple or proxy-anchor)"),
        "alpha": dict(type=float, help="proxy-anchor sharpness"),
        "beta-inf": dict(type=float, help="inference-time blend weight"),
        "blended": dict(action="store_true", default=None, help="score with the proxy blend"),
        "full-grid": dict(action="store_true", default=None, help="use the full search space"),
        "workers": dict(type=int, help="parallel training processes"),
        "epochs": dict(type=int, help="training epochs"),
        "batch-size": dict(type=int, help="mini-batch size"),
        "lr": dict(type=float, help="base learning rate"),
        "weight-decay": dict(type=float, help="decoupled weight decay"),
        "warmup-fraction": dict(type=float, help="fraction of steps spent warming up"),
    }
    for name in names:
        p.add_argument(f"--{name}", **table[name])


def _resolve(args: argparse.Namespace, key: str, fallback=None):
    """Flag if given, else config-file value, else the built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    cfg = getattr(args, "_file_config", {})
    if key in cfg:
        return cfg[key]
    return DEFAULTS.get(key, fallback)


def _parse_shot(raw):
    if raw in ("full", None):
        return "full" if raw == "full" else None
    shot = int(raw)
    if shot not in (20, 100, 1000):
        raise ConfigError("shots must be 20, 100, 1000 or full")
    return shot


def _loss_config(args: argparse.Namespace, variant: str) -> LossConfig:
    """Every field a loss flag maps to, cast to the type of its default."""
    values = {}
    for flag, names in LOSS_FLAGS.items():
        value = _resolve(args, flag)
        for name in names:
            values[name] = type(getattr(LOSS_DEFAULTS, name))(value)
    return LossConfig(variant=variant, **values)


def _train_overrides(args: argparse.Namespace) -> dict:
    """The TrainConfig fields of TRAIN_FLAGS that have a value, cast to the
    type of their default."""
    values = {key: _resolve(args, key) for key in TRAIN_FLAGS}
    return {k: type(TRAIN_DEFAULTS[k])(v) for k, v in values.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(int(_resolve(args, "instances")), int(_resolve(args, "seed")))
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
        num_classes=int(_resolve(args, "classes")),
        size=int(_resolve(args, "size")),
        signal_tokens=int(_resolve(args, "signal_tokens")),
        noise=float(_resolve(args, "noise")),
        seed=int(_resolve(args, "seed")),
    )
    save_dataset(ds, args.out)
    print(f"wrote {ds.size} texts, {ds.num_classes} classes to {args.out}")
    return 0


def _cmd_folds(args) -> int:
    ds = load_dataset(args.data)
    shot = _parse_shot(_resolve(args, "shots"))
    seed = int(_resolve(args, "seed"))
    plans = make_fold_plans(
        ds.labels, int(_resolve(args, "folds")), shot, seed, strict=bool(args.strict)
    )
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
    variant = _resolve(args, "loss", "cce")
    loss = _loss_config(args, variant)
    cfg = TrainConfig(loss=loss, seed=int(_resolve(args, "seed")), **_train_overrides(args))
    model = train(ds.texts, ds.labels, ds.num_classes, cfg)
    if args.out_encoder:
        save_encoder(model.params, args.out_encoder)
    if args.out_proxies:
        if model.bank is None:
            raise ConfigError(f"{variant} has no proxies to save")
        save_proxies(model.bank, args.out_proxies)
    if args.out_log:
        with open(args.out_log, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(model.log_dict()))
    final = model.steps[-1][1] if model.steps else float("nan")
    print(f"trained {variant} for {len(model.steps)} steps, final loss {final:.6f}")
    return 0


def _cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    params = load_encoder(args.encoder)
    bank = load_proxies(args.proxies) if args.proxies else None
    blended = bool(_resolve(args, "blended", False))
    beta_inf = float(_resolve(args, "beta_inf")) if blended else 1.0
    tokenized = [tokenize(t, params.vocab_size) for t in ds.texts]
    z, _ = forward_batch(params, tokenized)
    scores = blended_scores(params, z, bank, beta_inf)
    result = macro_f1(predict(scores), ds.labels, ds.num_classes)
    print(canonical_json(result.to_dict()), end="")
    return 0


def _cmd_grid(args) -> int:
    ds = load_dataset(args.data)
    variant = _resolve(args, "loss")
    if variant is None or variant == "cce":
        raise ConfigError("grid needs a metric-learning --loss")
    shot = _parse_shot(_resolve(args, "shots"))
    seed = int(_resolve(args, "seed"))
    plans = make_fold_plans(ds.labels, int(_resolve(args, "folds")), shot, seed)
    points = full_grid(variant) if _resolve(args, "full_grid", False) else desk_grid(variant)
    result = run_grid(
        ds,
        plans,
        points,
        master_seed=seed,
        shot=shot,
        beta_inf=float(_resolve(args, "beta_inf")),
        workers=int(_resolve(args, "workers")),
        train_overrides=_train_overrides(args),
    )
    report = result_to_report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    print(render_table(report), end="")
    return 0


def _cmd_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
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

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--instances", type=int, help="random instances per loss")
    _add_common(p, "seed", "config")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--signal-tokens", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--out", required=True)
    _add_common(p, "seed", "config")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("folds", help="emit a cross-validation fold plan")
    p.add_argument("--data", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    _add_common(p, "seed", "config", "folds", "shots")
    p.set_defaults(func=_cmd_folds)

    p = sub.add_parser("train", help="train one model on a whole dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out-encoder")
    p.add_argument("--out-proxies")
    p.add_argument("--out-log")
    _add_common(
        p,
        "seed",
        "config",
        "loss",
        "beta",
        "margin",
        "tau",
        "softmax-scale",
        "k",
        "gamma",
        "lam",
        "delta",
        "alpha",
        "epochs",
        "batch-size",
        "lr",
        "weight-decay",
        "warmup-fraction",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--proxies")
    _add_common(p, "config", "blended", "beta-inf")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="cross-validated hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    _add_common(
        p,
        "seed",
        "config",
        "loss",
        "folds",
        "shots",
        "beta-inf",
        "full-grid",
        "workers",
        "epochs",
        "batch-size",
        "lr",
        "weight-decay",
        "warmup-fraction",
    )
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("report", help="render a grid report")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_config = json.load(fh)
        if not isinstance(file_config, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 2
    args._file_config = file_config
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
