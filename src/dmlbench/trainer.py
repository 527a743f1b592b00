"""Mini-batch trainer: AdamW with linear warmup/decay over the encoder,
the classifier head, and (for proxy losses) the proxy bank, whose rows go
back to unit length after every step.

Every variant takes the same step. With the cross-entropy weight w
(`TrainConfig.ce_weight`: 1 for cce, 0 with dml_only, beta otherwise) the
step runs the variant's metric loss (none for cce), runs the classifier
loss when w > 0, and blends the two with `combined_loss` at weight w when
both ran; when only one ran, its output is the step's. The classifier
loss's gradient g w.r.t. the logits is chained by hand: the embeddings
get w * (g @ W.T), through the blend, and the head gets z.T @ (w * g) and
the column sums of w * g.

Determinism contract: every random decision draws from its own stream
derived from the run seed ("init", "proxies", "shuffle", "mining"), so
e.g. adding proxies or mining does not shift the shuffle order. Training
twice with the same data, seed, and config reproduces every parameter
bit for bit. Two consequences the tests lean on:

* with blend weight 1.0 the blend returns the cross-entropy side exactly,
  so the encoder trajectory is bit-identical to a plain cross-entropy run;
* with blend weight 0.0 the classifier loss does not run and the head gets
  zero gradients, so the run is bit-identical to a dml_only run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoder import (
    DEFAULT_EMBED_DIM,
    DEFAULT_OUT_DIM,
    DEFAULT_VOCAB,
    EncoderParams,
    backward_batch,
    classify_logits,
    forward_batch,
    init_encoder,
    tokenize,
)
from .errors import ConfigError, ScheduleError, TrainingDivergedError
from .losses import (
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    cce_loss,
    combined_loss,
    dml_loss,
)
from .numeric import Rng, derive_seed, l2_normalize_rows, softmax_rows
from .proxies import ProxyBank, init_proxies

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear warmup to base_lr, then linear decay toward zero.

    Warmup spans ceil(warmup_fraction * total_steps) steps; the decay leg
    interpolates from base_lr at the warmup boundary down to base_lr /
    (total - warmup) at the final step, never reaching zero while training.
    """
    if total_steps < 1:
        raise ScheduleError("total_steps must be >= 1")
    if step < 0 or step >= total_steps:
        raise ScheduleError(f"step {step} outside [0, {total_steps})")
    if not 0.0 <= warmup_fraction <= 1.0:
        raise ScheduleError("warmup_fraction must lie in [0, 1]")
    warmup_steps = math.ceil(warmup_fraction * total_steps)
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


class AdamW:
    """AdamW over named parameter blocks, updated in place.

    Bias-corrected moments, decoupled weight decay scaled by the current
    learning rate (lr 0 freezes parameters exactly), and global L2 norm
    clipping across all blocks before any moment update.

    A step allocates nothing: each block owns its work arrays, and every
    operation writes into them with ``out=``. The operations and their
    order are those of the textbook form

        g = grad * scale
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g²
        param -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd param)

    so the result is the same to the bit. Gradients are C-contiguous
    arrays of each block's shape, as the trainer builds them.

    Live rows. ``live_rows`` maps a block name to the rows that can ever
    get a non-zero gradient (the trainer passes the token ids of its
    training texts for the embedding table); the caller guarantees that
    every other row's gradient is zero at every step. Those rows keep
    g = m = v = +0.0 for good (a -0.0 gradient still gives m = v = +0.0),
    so their Adam update is (+0 / bc1) / (sqrt(+0 / bc2) + eps) = +0.0 and
    their step reduces to the decay part of the same sequence,
    ``tmp = param * wd; tmp += 0.0; tmp *= lr; param -= tmp``. The
    ``+= 0.0`` stays: it turns a -0.0 decay into +0.0, as adding the +0.0
    update does, and so keeps the sign of a -0.0 parameter. The live rows
    are gathered, run through the full sequence and scattered back, and
    the moments are stored for them only.

    The clip norm stays a sum of squares over the whole dense gradient:
    numpy's pairwise sum groups its terms by position, so a sum over the
    live rows alone could differ in the last bit.

    The split is used only when at most half a block's rows are live: the
    gather, the scatter and the decay pass cost more than they save on a
    table that is mostly live (with every row live the split takes about
    40% longer than the dense step).
    """

    def __init__(
        self,
        blocks: list[tuple[str, np.ndarray]],
        clip_norm: float,
        live_rows: dict[str, np.ndarray] | None = None,
    ):
        self.blocks = blocks
        self.clip_norm = clip_norm
        self.live = {}
        for name, arr in blocks:
            if live_rows is None or name not in live_rows:
                continue
            rows = np.unique(np.asarray(live_rows[name], dtype=np.int64))
            if rows.size and (rows[0] < 0 or rows[-1] >= len(arr)):
                raise ConfigError(f"live rows of {name} outside [0, {len(arr)})")
            if 2 * rows.size <= len(arr):
                self.live[name] = rows
        shapes = {name: arr.shape for name, arr in blocks}
        for name, rows in self.live.items():
            shapes[name] = (rows.size,) + shapes[name][1:]
        self.m = {name: np.zeros(s) for name, s in shapes.items()}
        self.v = {name: np.zeros(s) for name, s in shapes.items()}
        self._work = {name: (np.empty(s), np.empty(s)) for name, s in shapes.items()}
        # a live-row block's gathered rows, and a buffer for its whole
        # gradient squared and for the decay of its other rows
        self._gathered = {name: np.empty(shapes[name]) for name in self.live}
        self._full = {name: np.empty(arr.shape) for name, arr in blocks if name in self.live}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float, weight_decay: float) -> None:
        sq = 0.0
        for name, _ in self.blocks:
            out = self._full[name] if name in self.live else self._work[name][0]
            sq += float(np.square(grads[name], out=out).sum())
        norm = math.sqrt(sq)
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, param in self.blocks:
            g, tmp = self._work[name]
            rows = self.live.get(name)
            if rows is None:
                np.multiply(grads[name], scale, out=g)
                target = param
            else:
                # rows lie in range (checked in __init__); "clip" takes them unbuffered
                np.take(grads[name], rows, axis=0, out=g, mode="clip")
                g *= scale
                target = np.take(param, rows, axis=0, out=self._gathered[name], mode="clip")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.square(g, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            v += tmp
            update = np.divide(m, bc1, out=g)  # g is not needed any more
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update /= tmp
            decayed = np.multiply(target, weight_decay, out=tmp)
            decayed += update
            decayed *= lr
            target -= decayed
            if rows is not None:
                # every other row: the same sequence with a +0.0 update
                decayed = np.multiply(param, weight_decay, out=self._full[name])
                decayed += 0.0
                decayed *= lr
                param -= decayed
                param[rows] = target


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 8
    batch_size: int = 64
    lr: float = 3e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.06
    clip_norm: float = 5.0
    seed: int = 0
    vocab_size: int = DEFAULT_VOCAB
    # at 1, forward_batch sums a text's rows in token order, where numpy's
    # mean sums 8 or more rows pairwise: the last bit can differ from mean()
    embed_dim: int = DEFAULT_EMBED_DIM
    out_dim: int = DEFAULT_OUT_DIM
    dml_only: bool = False  # skip the classifier loss entirely

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr < 0.0 or self.weight_decay < 0.0 or self.clip_norm <= 0.0:
            raise ConfigError("lr/weight_decay must be >= 0 and clip_norm > 0")
        if self.dml_only and not self.loss.is_metric:
            raise ConfigError("dml_only needs a metric-learning variant")

    @property
    def ce_weight(self) -> float:
        """The weight w of the cross-entropy side of the training step."""
        if not self.loss.is_metric:
            return 1.0
        return 0.0 if self.dml_only else self.loss.beta


@dataclass
class TrainedModel:
    params: EncoderParams
    bank: ProxyBank | None
    config: TrainConfig
    steps: list[tuple[int, float]]

    def log_dict(self) -> dict:
        return {
            "steps": [{"step": s, "loss": v} for s, v in self.steps],
            "config": asdict(self.config),
        }


def _check_finite(what: str, arr: np.ndarray, step: int) -> None:
    """Divergence shows first in these small arrays: raise before a loss or
    the renorm turns it into a DimensionError or DegenerateVectorError."""
    if not np.isfinite(arr).all():
        raise TrainingDivergedError(f"step {step}: {what} not finite")


def train(texts: list[str], labels, num_classes: int, config: TrainConfig) -> TrainedModel:
    labels = np.asarray(labels, dtype=np.int64)
    n = len(texts)
    if n == 0 or labels.shape != (n,):
        raise ConfigError("texts and labels must be non-empty and aligned")
    if num_classes < 1 or np.any(labels < 0) or np.any(labels >= num_classes):
        raise ConfigError("labels must lie in [0, num_classes)")
    loss_cfg = config.loss
    w = config.ce_weight

    init_rng = Rng(derive_seed(config.seed, "init"))
    shuffle_rng = Rng(derive_seed(config.seed, "shuffle"))
    mining_rng = Rng(derive_seed(config.seed, "mining"))
    params = init_encoder(
        num_classes, config.vocab_size, config.embed_dim, config.out_dim, init_rng
    )
    bank = None
    if loss_cfg.is_proxy_based:
        proxy_rng = Rng(derive_seed(config.seed, "proxies"))
        bank = init_proxies(
            num_classes, loss_cfg.proxies_per_class(), config.out_dim, proxy_rng
        )

    tokenized = [tokenize(t, config.vocab_size) for t in texts]
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    blocks = params.blocks()
    if bank is not None:
        blocks = blocks + [("proxies", bank.matrix)]
    # only the rows of tokens in the training texts ever get a gradient
    used = np.fromiter(itertools.chain.from_iterable(tokenized), dtype=np.int64)
    optimizer = AdamW(blocks, config.clip_norm, live_rows={"embedding_table": np.unique(used)})

    log: list[tuple[int, float]] = []
    step = 0
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            yb = labels[chosen]
            z, cache = forward_batch(params, [tokenized[i] for i in chosen])
            _check_finite("embeddings", z, step)

            metric = ce = None
            if loss_cfg.is_metric:
                metric = dml_loss(EmbeddingBatch(z, yb, num_classes), loss_cfg, bank, mining_rng)
            if w > 0.0:
                c_out = cce_loss(softmax_rows(classify_logits(params, z)), yb)
                grad_logits = w * c_out.grad_embeddings
                ce = LossOutput(c_out.value, c_out.grad_embeddings @ params.classifier.T)
            if ce is None:
                out = metric
            elif metric is None:
                out = ce
            else:
                out = combined_loss(ce, metric, w)
            log.append((step, out.value))

            grads = backward_batch(params, cache, out.grad_embeddings)
            if w > 0.0:
                grads["classifier"] = z.T @ grad_logits
                grads["classifier_bias"] = grad_logits.sum(axis=0)
            if bank is not None:
                grads["proxies"] = out.grad_proxies

            lr = lr_schedule(step, total_steps, config.lr, config.warmup_fraction)
            optimizer.step(grads, lr, config.weight_decay)
            if bank is not None:
                # a row norm overflows before an entry does: report it as a
                # divergence before the renorm rejects the row
                _check_finite("proxy norms", np.linalg.norm(bank.matrix, axis=1), step)
                bank.matrix[:] = l2_normalize_rows(bank.matrix)
            step += 1

    return TrainedModel(params, bank, config, log)
