"""Few-shot benchmark harness: datasets, fold plans, hyperparameter grids,
grid execution, and report emission.

A run is fully specified by (dataset, fold plan, grid, master seed) and is
reproducible to the byte: fold plans serialize to canonical JSON, every
training cell derives its own seed from the master seed and its (point,
fold) coordinates, and reports re-serialize to identical bytes after a
JSON round trip. Every cell, the cross-entropy baseline included, goes
through one function; serial and pooled runs differ only in the `map`
that applies it. Failed cells (diverged training) poison their grid point,
which is excluded from best-point selection but still listed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .encoder import TokenBatch, forward_batch, pack_tokens, tokenize
from .errors import (
    ConfigError,
    DatasetParseError,
    StratificationError,
    TrainingDivergedError,
)
from .evaluation import blended_scores, macro_f1, paired_significance, predict
from .losses import LOSSES, PROXY_VARIANTS, LossConfig
from .numeric import Rng, derive_seed
from .trainer import TrainConfig, train

DEFAULT_EPOCHS_BY_SHOT = {20: 128, 100: 64, 1000: 8, "full": 8}
SHOT_CHOICES = tuple(DEFAULT_EPOCHS_BY_SHOT)
BETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
NOISE_POOL = 64  # distinct filler tokens shared by all classes


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    texts: list[str]
    labels: np.ndarray  # (n,) dense ints, first-appearance order
    label_names: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.texts) != self.labels.shape[0]:
            raise ConfigError("texts and labels must be aligned")

    @property
    def size(self) -> int:
        return len(self.texts)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)


def load_dataset(path) -> Dataset:
    """Read a tab-separated file of "<label>\\t<text>" lines (UTF-8).

    Labels are remapped to dense integers in order of first appearance.
    Text may contain further tabs; only the first one separates. A dataset
    with a single class cannot be benchmarked and is rejected.
    """
    texts: list[str] = []
    labels: list[int] = []
    names: list[str] = []
    index: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line == "":
                raise DatasetParseError("empty line", lineno)
            if "\t" not in line:
                raise DatasetParseError("missing tab separator", lineno)
            label, text = line.split("\t", 1)
            if label == "":
                raise DatasetParseError("empty label", lineno)
            if label not in index:
                index[label] = len(names)
                names.append(label)
            labels.append(index[label])
            texts.append(text)
    if not texts:
        raise DatasetParseError("file has no data lines", 1)
    if len(names) < 2:
        raise ConfigError("dataset must contain at least two classes")
    return Dataset(texts, np.array(labels, dtype=np.int64), names)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text, label in zip(dataset.texts, dataset.labels):
            fh.write(f"{dataset.label_names[int(label)]}\t{text}\n")


def synth_dataset(
    num_classes: int,
    size: int,
    signal_tokens: int = 8,
    noise: float = 0.35,
    seed: int = 0,
    tokens_per_text: int = 8,
) -> Dataset:
    """Synthetic classification corpus with a tunable signal-to-noise mix.

    Each class owns `signal_tokens` private tokens ("c<c>t<j>"); all
    classes share one pool of filler tokens ("n<j>"). Every text draws
    `tokens_per_text` tokens, each one a class token with probability
    1 - noise and a filler otherwise. Class sizes are balanced to within
    one text. noise 0 gives a perfectly separable dataset.
    """
    if num_classes < 2 or size < num_classes:
        raise ConfigError("need >= 2 classes and at least one text per class")
    if not 0.0 <= noise <= 1.0:
        raise ConfigError("noise must lie in [0, 1]")
    if signal_tokens < 1 or tokens_per_text < 1:
        raise ConfigError("signal_tokens and tokens_per_text must be >= 1")
    base, extra = divmod(size, num_classes)
    labels = np.repeat(np.arange(num_classes), base + (np.arange(num_classes) < extra))
    # token by token in text order, one uniform picks noise or signal and
    # the next picks the token as Rng.randint does: floor(u * bound)
    u = Rng(derive_seed(seed, "synth")).random(2 * size * tokens_per_text)
    u = u.reshape(size, tokens_per_text, 2)
    noisy = u[:, :, 0] < noise
    picks = (u[:, :, 1] * np.where(noisy, NOISE_POOL, signal_tokens)).astype(np.int64)
    texts = [
        " ".join(f"n{j}" if is_noise else f"c{c}t{j}" for is_noise, j in zip(row_noisy, row_picks))
        for c, row_noisy, row_picks in zip(labels.tolist(), noisy.tolist(), picks.tolist())
    ]
    names = [f"class{c}" for c in range(num_classes)]
    return Dataset(texts, labels, names)


# ---------------------------------------------------------------------------
# fold plans


@dataclass
class FoldPlan:
    fold_id: int
    seed: int  # the fold's derived seed, recorded for audit
    train_indices: list[int]
    test_indices: list[int]
    fewshot_indices: list[int]  # subset of train_indices actually trained on


def _largest_remainder_quotas(counts: np.ndarray, shot: int) -> np.ndarray:
    """Integer quotas proportional to counts summing to shot, none above its
    class size, with at least one per non-empty class when shot allows.
    All tie-breaks go to the lower class index."""
    total = int(counts.sum())
    if shot >= total:
        return counts.copy()
    raw = shot * counts / total
    quota = np.floor(raw).astype(np.int64)
    remainder = raw - quota
    order = np.lexsort((np.arange(len(counts)), -remainder))
    # a leftover unit goes only to a class with a positive remainder, whose
    # floor is below its count, so no quota exceeds its class size
    for idx in order[: shot - int(quota.sum())]:
        quota[idx] += 1
    # guarantee representation when the budget covers every class
    nonempty = int(np.count_nonzero(counts))
    if shot >= nonempty:
        for c in range(len(counts)):
            if counts[c] > 0 and quota[c] == 0:
                donor = int(np.argmax(quota))
                quota[donor] -= 1
                quota[c] = 1
    return quota


def make_fold_plans(
    labels,
    num_folds: int,
    shot,
    master_seed: int,
    strict: bool = False,
) -> list[FoldPlan]:
    """num_folds independent shuffle-and-split plans over one dataset.

    Each fold reshuffles the whole dataset with its own derived seed and
    splits 80/20 into train/test; the few-shot subset takes `shot`
    training examples stratified by class frequency (or every one for
    "full"). strict refuses shots too small to cover every class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if num_folds < 1:
        raise ConfigError("num_folds must be >= 1")
    if n < 5:
        raise ConfigError("need at least 5 examples for an 80/20 split")
    if shot not in SHOT_CHOICES:
        raise ConfigError(f"shot must be one of {SHOT_CHOICES}")
    num_classes = int(labels.max()) + 1
    plans = []
    for fold_id in range(num_folds):
        fold_seed = derive_seed(master_seed, "fold", fold_id)
        rng = Rng(fold_seed)
        perm = rng.permutation(n)
        n_test = max(1, n // 5)
        test = perm[:n_test]
        train = perm[n_test:]
        if shot == "full":
            few = np.sort(train)
        else:
            counts = np.bincount(labels[train], minlength=num_classes)
            present = int(np.count_nonzero(counts))
            if strict and shot < present:
                raise StratificationError(
                    f"fold {fold_id}: shot {shot} cannot cover {present} classes"
                )
            quota = _largest_remainder_quotas(counts, shot)
            # each class's first quota members in train's shuffled order
            few = np.sort(
                np.concatenate([train[labels[train] == c][: quota[c]] for c in range(num_classes)])
            )
        plans.append(
            FoldPlan(
                fold_id=fold_id,
                seed=fold_seed,
                train_indices=[int(i) for i in np.sort(train)],
                test_indices=[int(i) for i in np.sort(test)],
                fewshot_indices=[int(i) for i in few],
            )
        )
    return plans


def fold_plans_to_json(plans: list[FoldPlan], shot, master_seed: int) -> str:
    obj = {
        "master_seed": master_seed,
        "num_folds": len(plans),
        "shot": shot,
        "folds": [asdict(p) for p in plans],
    }
    return canonical_json(obj)


def canonical_json(obj) -> str:
    """One fixed JSON shape so identical content means identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# hyperparameter grids


def _points(variant: str, axes: dict | None) -> list[dict]:
    """Every combination of the axes and the beta sweep, in the variant's
    point order: the first axis outermost, beta innermost."""
    if axes is None:
        raise ConfigError(f"no grid for variant {variant!r}")
    points = [{}]
    for name, values in {**axes, "beta": BETA_GRID}.items():
        points = [dict(p, **{name: v}) for p in points for v in values]
    return [dict(variant=variant, **p) for p in points]


def full_grid(variant: str) -> list[dict]:
    """The complete search space per loss; beta is swept everywhere."""
    return _points(variant, getattr(LOSSES.get(variant), "full_grid", None))


def desk_grid(variant: str) -> list[dict]:
    """Trimmed grids (at most 25 points) for quick local runs; the beta
    sweep is kept intact, the per-loss axes are thinned."""
    return _points(variant, getattr(LOSSES.get(variant), "desk_grid", None))


# ---------------------------------------------------------------------------
# grid execution


@dataclass
class GridResult:
    variant: str
    points: list[dict]
    fold_scores: np.ndarray  # (P, F) dense-head macro-F1, NaN where a cell failed
    blended_fold_scores: np.ndarray | None  # (P, F) for proxy losses
    baseline_scores: np.ndarray  # (F,) plain cross-entropy
    best_index: int | None
    p_value: float | None  # best point vs baseline
    blended_p_value: float | None  # best point's blended row vs baseline
    beta_inf: float
    shot: object
    master_seed: int
    dataset_size: int
    num_classes: int

    def failed_points(self) -> list[int]:
        return [
            i for i in range(len(self.points)) if np.isnan(self.fold_scores[i]).any()
        ]


def _train_eval_cell(
    pack: TokenBatch,
    labels: np.ndarray,
    num_classes: int,
    plan: FoldPlan,
    point: dict,
    seed: int,
    overrides: dict,
    beta_inf: float,
) -> tuple[float, float]:
    """Train one (grid point, fold) cell and evaluate on the fold's test
    split; the baseline's point is {"variant": "cce"}. The cell tokenizes
    nothing: it takes its few-shot and test texts from `pack`, the grid's
    dataset tokenized and packed once by `run_grid`. Returns (dense F1,
    blended F1); the latter is NaN for proxy-free models, both are NaN when
    training diverges. Any other error is raised again, of the same type,
    with the cell's point, fold and seed at the head of its message."""
    try:
        cfg = TrainConfig(loss=LossConfig(**point), seed=seed, **overrides)
        few = plan.fewshot_indices
        model = train(pack.take(few), labels[few], num_classes, cfg)
        test = plan.test_indices
        z, _ = forward_batch(model.params, pack.take(test))
        dense = predict(blended_scores(model.params, z, None, 1.0))
        dense_f1 = macro_f1(dense, labels[test], num_classes).macro_f1
        blended_f1 = float("nan")
        if model.bank is not None:
            blend = predict(blended_scores(model.params, z, model.bank, beta_inf))
            blended_f1 = macro_f1(blend, labels[test], num_classes).macro_f1
        return (dense_f1, blended_f1)
    except TrainingDivergedError:
        return (float("nan"), float("nan"))
    except Exception as exc:
        exc.args = (f"cell {point} fold {plan.fold_id} seed {seed}: {exc}",)
        raise


def run_grid(
    dataset: Dataset,
    plans: list[FoldPlan],
    points: list[dict],
    master_seed: int,
    shot,
    beta_inf: float = 0.5,
    workers: int = 1,
    train_overrides: dict | None = None,
) -> GridResult:
    """Evaluate every grid point on every fold, plus the cross-entropy
    baseline on the same folds.

    The best point is the highest mean dense-head F1 among points with no
    failed fold; its significance against the baseline is a paired t-test
    over per-fold scores, so at least two folds are needed. Proxy-based
    variants also carry a proxy-blended score per cell (mixing weight
    beta_inf, in [0, 1], at inference only).

    The dataset's texts are tokenized and packed once per call, at the
    vocabulary the cells train with, before any cell runs; every cell,
    serial or pooled, takes its texts from that one pack.
    """
    if not points:
        raise ConfigError("grid needs at least one point")
    variant = points[0]["variant"]
    if any(p["variant"] != variant for p in points):
        raise ConfigError("grid points must share one variant")
    if shot not in SHOT_CHOICES:
        raise ConfigError(f"shot must be one of {SHOT_CHOICES}")
    if not 0.0 <= beta_inf <= 1.0:
        raise ConfigError("beta_inf must lie in [0, 1]")
    if len(plans) < 2:
        raise ConfigError("grid needs at least two folds to test against the baseline")
    overrides = {"epochs": DEFAULT_EPOCHS_BY_SHOT[shot], **(train_overrides or {})}
    n_points, n_folds = len(points), len(plans)
    vocab_size = TrainConfig(**overrides).vocab_size
    pack = pack_tokens(tokenize(text, vocab_size) for text in dataset.texts)

    # (plan, point, seed) per cell: every point on every fold, then the baseline
    cells = [
        (plan, point, derive_seed(master_seed, "train", pi, plan.fold_id))
        for pi, point in enumerate(points)
        for plan in plans
    ] + [
        (plan, {"variant": "cce"}, derive_seed(master_seed, "baseline", plan.fold_id))
        for plan in plans
    ]
    cell = functools.partial(
        _train_eval_cell, pack, dataset.labels, dataset.num_classes,
        overrides=overrides, beta_inf=beta_inf,
    )
    columns = tuple(zip(*cells))  # the plans, points and seeds, in cell order
    if workers <= 1:
        scores = list(map(cell, *columns))
    else:
        with ProcessPoolExecutor(workers) as pool:
            scores = list(pool.map(cell, *columns, chunksize=4))
    scores = np.array(scores).reshape(n_points + 1, n_folds, 2)
    dense = scores[:n_points, :, 0].copy()
    blended = scores[:n_points, :, 1].copy()
    baseline = scores[n_points, :, 0].copy()

    if np.isnan(baseline).any():
        raise TrainingDivergedError("cross-entropy baseline diverged on some fold")

    means = dense.mean(axis=1)  # NaN propagates for failed points
    valid = ~np.isnan(means)
    best_index = int(np.argmax(np.where(valid, means, -np.inf))) if valid.any() else None
    p_value = None
    blended_p = None
    has_blend = variant in PROXY_VARIANTS
    if best_index is not None:
        p_value = paired_significance(dense[best_index], baseline)
        if has_blend:
            blended_p = paired_significance(blended[best_index], baseline)
    return GridResult(
        variant=variant,
        points=points,
        fold_scores=dense,
        blended_fold_scores=blended if has_blend else None,
        baseline_scores=baseline,
        best_index=best_index,
        p_value=p_value,
        blended_p_value=blended_p,
        beta_inf=beta_inf,
        shot=shot,
        master_seed=master_seed,
        dataset_size=dataset.size,
        num_classes=dataset.num_classes,
    )


# ---------------------------------------------------------------------------
# reports


def _row(name, scores, p_value, point):
    scores = [float(s) for s in scores]
    mean = float(np.mean(scores))
    # sample std across folds, the spread quoted after the +/- sign
    std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
    return {
        "name": name,
        "per_fold": scores,
        "mean": mean,
        "std": std,
        "p_value": p_value,
        "point": point,
    }


def result_to_report(result: GridResult) -> dict:
    rows = [_row("cce", result.baseline_scores, None, None)]
    if result.best_index is not None:
        bi = result.best_index
        rows.append(
            _row(result.variant, result.fold_scores[bi], result.p_value, result.points[bi])
        )
        if result.blended_fold_scores is not None:
            rows.append(
                _row(
                    result.variant + "+inf",
                    result.blended_fold_scores[bi],
                    result.blended_p_value,
                    dict(result.points[bi], beta_inf=result.beta_inf),
                )
            )
    return {
        "variant": result.variant,
        "dataset": {"n": result.dataset_size, "num_classes": result.num_classes},
        "shot": result.shot,
        "num_folds": int(result.baseline_scores.shape[0]),
        "master_seed": result.master_seed,
        "beta_inf": result.beta_inf,
        "grid": {
            "n_points": len(result.points),
            "failed_points": result.failed_points(),
            "best_point": None if result.best_index is None else result.points[result.best_index],
        },
        "rows": rows,
    }


def format_cell(mean: float, std: float, p_value: float | None) -> str:
    """Table cell "67.50±4.87", starred when the paired test is significant
    at 0.05."""
    star = "*" if p_value is not None and p_value < 0.05 else ""
    return f"{mean * 100:.2f}±{std * 100:.2f}{star}"


def render_table(report: dict) -> str:
    names = [r["name"] for r in report["rows"]]
    width = max(len(n) for n in names) + 2
    lines = [f"{'loss':<{width}}macro_f1"]
    for r in report["rows"]:
        lines.append(f"{r['name']:<{width}}{format_cell(r['mean'], r['std'], r['p_value'])}")
    return "\n".join(lines) + "\n"


def render_csv(report: dict) -> str:
    """Long-format per-fold scores: one data row per (loss row, fold)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "fold", "macro_f1"])
    for r in report["rows"]:
        for fold_id, score in enumerate(r["per_fold"]):
            writer.writerow([r["name"], fold_id, repr(score)])
    return buf.getvalue()
