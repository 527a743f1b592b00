"""Mini-batch trainer: AdamW with linear warmup/decay over the encoder,
the classifier head, and (for proxy losses) the proxy bank, whose rows go
back to unit length after every step.

Every variant takes the same step. With the cross-entropy weight w
(`TrainConfig.ce_weight`: 1 for cce, beta otherwise) the step runs the
variant's metric loss when w < 1 (never for cce), runs the classifier
loss when w > 0, and blends the two with `combined_loss` at weight w when
both ran; when only one ran, its output is the step's. The classifier
loss's gradient g w.r.t. the logits is chained by hand: the embeddings
get w * (g @ W.T), through the blend, and the head gets z.T @ (w * g)
and the column sums of w * g. The blocks stepped (the compact encoder's,
then the bank's) and the gradient each step writes are one vector each.

Determinism contract: every random decision draws from its own stream
derived from the run seed ("init", "proxies", "shuffle", "mining"), so
e.g. adding proxies or mining does not shift the shuffle order. Training
twice with the same data, seed, and config reproduces every parameter
bit for bit. Two consequences the tests lean on:

* with blend weight 1.0 the metric loss does not run and the bank gets
  zero gradients, so the encoder trajectory is bit-identical to a plain
  cross-entropy run (the tests compare the bytes);
* with blend weight 0.0 the classifier loss does not run and the head gets
  zero gradients: the step is the metric loss's alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoder import (
    BLOCK_NAMES,
    DEFAULT_EMBED_DIM,
    DEFAULT_OUT_DIM,
    DEFAULT_VOCAB,
    EncoderParams,
    TokenBatch,
    backward_batch,
    classify_logits,
    forward_batch,
    init_encoder,
    pack_tokens,
    tokenize,
)
from .errors import ConfigError, DegenerateVectorError, ScheduleError, TrainingDivergedError
from .losses import (
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    cce_loss,
    combined_loss,
    dml_loss,
)
from .numeric import Rng, block_views, derive_seed, l2_normalize_rows, softmax_rows
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
    """AdamW over one flat parameter vector, updated in place.

    Bias-corrected moments, decoupled weight decay scaled by the current
    learning rate (lr 0 freezes parameters exactly), and global L2 norm
    clipping across all blocks before any moment update.

    The parameters `params`, the gradient and the moments are one vector
    each, with the blocks `blocks` names in order (`m` and `v` name the
    moments' blocks); a step runs its ufunc chain once over the whole
    vector, into two work vectors with ``out=``, in the order of the form

        g = grad * scale   (g is grad itself when the scale is 1.0)
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g²
        param -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd param)

    entry by entry, so the result is that of a step block by block, to the
    bit; a scale of 1.0 takes no pass, as x * 1.0 is x. The clip norm's sum
    of squares is taken block by block, in order, unless one dot product
    of the gradient with itself rules clipping out.

    Sparse blocks. ``sparse`` maps a block name to ``(rows, total)``: the
    block holds the rows ``rows`` (increasing) of a table of ``total``
    rows, and every other row of that table has a zero gradient (the
    trainer passes its compact embedding table this way). Those rows never
    reach the optimizer; the only thing that depends on them is the clip
    norm, whose reference is numpy's pairwise sum of squares over the dense
    (total, ...) gradient. So the block's squares are written at ``rows``
    of a zeroed dense array and summed as the reference does, and a step
    that clips, or that overflows, uses the reference's own bits. The
    array lives for that sum only: held for the whole run, it would add
    its size to the peak memory of every training run. The decay the
    other rows owe is the caller's to apply (`EncoderParams.defer_decay`).

    The no-clip dot product. It and the dense block sums add the same n
    non-negative squares (the dense one adds exact zeros besides) in other
    groupings. The dot lies within about n·2⁻⁵³ relative of the exact sum;
    a pairwise sum within (log2(n) + 20)·2⁻⁵³ (at most sixteen additions
    in a row within a block of 128, then halvings), under 1e-14 for any n
    that fits in memory, and the sum over the blocks adds a few roundings
    more. Hence a dot below ``(1 - 4n·2⁻⁵³) clip_norm² (1 - 1e-9)``
    (capped so that no sum can overflow) puts the dense sum below
    ``clip_norm²``: clipping cannot fire, and the scale is exactly 1.0
    either way. Any other dot, inf and NaN included, takes the dense sum.
    """

    def __init__(
        self,
        params: np.ndarray,
        blocks: list[tuple[str, np.ndarray]],
        clip_norm: float,
        sparse: dict[str, tuple[np.ndarray, int]] | None = None,
    ):
        self.params = params
        self.blocks = blocks
        self.clip_norm = clip_norm
        self.sparse = {}
        for name, (rows, total) in (sparse or {}).items():
            rows = np.asarray(rows, dtype=np.int64)
            shape = dict(blocks)[name].shape
            if rows.shape != shape[:1] or np.any(np.diff(rows) <= 0) or (
                rows.size and (rows[0] < 0 or rows[-1] >= total)
            ):
                raise ConfigError(f"rows of {name} must be {shape[0]} increasing ids in [0, {total})")
            self.sparse[name] = (rows, total)
        # below this dot product clipping cannot fire (see above)
        no_clip_below = min(clip_norm * clip_norm, sys.float_info.max) * (1.0 - 1e-9)
        self._dot_below = no_clip_below * (1.0 - 4 * params.size * 2.0**-53)
        self._m, self._v, self._g, self._tmp = (np.zeros(params.shape) for _ in range(4))
        shapes = [(name, arr.shape) for name, arr in blocks]
        self.m, self.v, self._squares = (block_views(x, shapes) for x in (self._m, self._v, self._g))
        self.t = 0

    def _sum_of_squares(self) -> float:
        sq = 0.0
        for name, squares in self._squares.items():
            if name in self.sparse:
                rows, total = self.sparse[name]
                full = np.zeros((total,) + squares.shape[1:])
                full[rows] = squares
                sq += float(full.sum())
            else:
                sq += float(squares.sum())
        return sq

    def step(self, grad: np.ndarray, lr: float, weight_decay: float) -> None:
        g, tmp, m, v = self._g, self._tmp, self._m, self._v
        if float(np.dot(grad, grad)) < self._dot_below:
            scale = 1.0
        else:
            np.square(grad, out=g)  # viewed block by block as self._squares
            norm = math.sqrt(self._sum_of_squares())
            scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        if scale != 1.0:
            grad = np.multiply(grad, scale, out=g)
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.square(grad, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        update = np.divide(m, bc1, out=g)  # the scaled gradient is not needed any more
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update /= tmp
        decayed = np.multiply(self.params, weight_decay, out=tmp)
        decayed += update
        decayed *= lr
        self.params -= decayed


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

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr < 0.0 or self.weight_decay < 0.0 or self.clip_norm <= 0.0:
            raise ConfigError("lr/weight_decay must be >= 0 and clip_norm > 0")

    @property
    def ce_weight(self) -> float:
        """The weight w of the cross-entropy side of the training step: the
        loss's beta for a metric variant (0 trains the metric loss alone),
        1 for cce."""
        return self.loss.beta if self.loss.is_metric else 1.0


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


def train(
    texts: list[str] | TokenBatch, labels, num_classes: int, config: TrainConfig
) -> TrainedModel:
    """Train an encoder (and a proxy bank for proxy variants) on the texts.

    Tokenization. `texts` is a list of texts, which are tokenized at
    `config.vocab_size` and packed once here (`pack_tokens`), or a pack of
    them made so (a grid packs its dataset once and passes each cell a
    `TokenBatch.take` of it); a pack with an id outside the vocabulary is
    refused with ConfigError. Both give the same bits. Each epoch takes
    its shuffled order from the pack once and cuts that epoch pack into its
    step batches, views of it, in one pass (`TokenBatch.split`).

    Compact table. The encoder comes from `init_encoder`, so the init
    stream is that of every other run, but only the R table rows that the
    training texts use can get a gradient, and only those rows are drawn.
    The step trains a copy of the model whose table holds just those rows,
    with the token ids renumbered by their rank in the sorted R. The
    renumbering is monotone: `forward_batch` gathers the same values in the
    same order, and `backward_batch` scatters its (text, row) pairs in the
    same order, so every bit of the embeddings and gradients is that of
    the full table. AdamW sees the table as rows R of a V-row block (for
    its clip norm). At the end the trained rows are written back at R, and
    every other row owes its init draw and one decoupled decay step per
    training step, which `EncoderParams` applies when the row is first
    read.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(texts)
    if n == 0 or labels.shape != (n,):
        raise ConfigError("texts and labels must be non-empty and aligned")
    if num_classes < 1 or labels.min() < 0 or labels.max() >= num_classes:
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

    if isinstance(texts, TokenBatch):
        packed = texts
        if int(packed.ids.max()) >= config.vocab_size:
            raise ConfigError(f"token ids must lie below vocab_size {config.vocab_size}")
    else:
        packed = pack_tokens([tokenize(t, config.vocab_size) for t in texts])
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    # only the rows of tokens in the training texts ever get a gradient:
    # train those rows of the table, renumbered in order, and no others
    rows = np.unique(packed.rows)
    rank = np.zeros(rows[-1] + 1, dtype=np.int64)  # every id a text uses is in rows
    rank[rows] = np.arange(rows.size)
    packed = TokenBatch(
        rank[packed.ids], packed.lengths, rank[packed.rows], packed.counts, packed.widths,
    )
    initial = [params.table_for(rows)[rows], params.projection, params.projection_bias,
               params.classifier, params.classifier_bias] + ([bank.matrix] if bank is not None else [])
    shapes = [(name, b.shape) for name, b in zip(BLOCK_NAMES + ("proxies",), initial)]
    flat = np.concatenate([b.ravel() for b in initial])
    blocks = block_views(flat, shapes)
    grad = np.zeros_like(flat)
    grads = block_views(grad, shapes)
    compact = EncoderParams(*list(blocks.values())[:5])
    for name in BLOCK_NAMES[1:]:  # the returned model shares these with compact
        setattr(params, name, blocks[name])
    if bank is not None:
        bank.matrix = blocks["proxies"]
    sparse = {"embedding_table": (rows, config.vocab_size)}
    optimizer = AdamW(flat, list(blocks.items()), config.clip_norm, sparse=sparse)

    lrs: list[float] = []
    log: list[tuple[int, float]] = []
    step = 0
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch, epoch_labels = packed.take(order), labels[order]
        for start, batch in zip(range(0, n, config.batch_size), epoch.split(config.batch_size)):
            yb = epoch_labels[start : start + config.batch_size]
            z, cache = forward_batch(compact, batch)
            _check_finite("embeddings", z, step)

            metric = ce = None
            if w < 1.0:
                metric = dml_loss(EmbeddingBatch(z, yb, num_classes), loss_cfg, bank, mining_rng)
            if w > 0.0:
                c_out = cce_loss(softmax_rows(classify_logits(compact, z)), yb)
                grad_logits = w * c_out.grad_embeddings
                ce = LossOutput(c_out.value, c_out.grad_embeddings @ compact.classifier.T)
            if ce is None:
                out = metric
            elif metric is None:
                out = ce
            else:
                out = combined_loss(ce, metric, w)
            log.append((step, out.value))

            backward_batch(compact, cache, out.grad_embeddings, grads)
            if w > 0.0:
                np.matmul(z.T, grad_logits, out=grads["classifier"])
                np.add.reduce(grad_logits, axis=0, out=grads["classifier_bias"])
            if bank is not None:
                grads["proxies"][...] = 0.0 if metric is None else out.grad_proxies

            lr = lr_schedule(step, total_steps, config.lr, config.warmup_fraction)
            optimizer.step(grad, lr, config.weight_decay)
            lrs.append(lr)
            if bank is not None:
                try:
                    bank.matrix[:] = l2_normalize_rows(bank.matrix)
                except DegenerateVectorError:
                    # a row norm overflows before an entry does: report it
                    # as a divergence, not as the row the renorm rejects
                    _check_finite("proxy norms", np.linalg.norm(bank.matrix, axis=1), step)
                    raise
            step += 1

    # the unused rows owe their init draw and the decay
    params.table_for(rows)[rows] = compact.embedding_table
    params.defer_decay(rows, lrs, config.weight_decay)
    return TrainedModel(params, bank, config, log)
