"""Forward values and analytic gradients for the training objectives.

Seven losses: categorical cross-entropy plus six metric-learning objectives
(triplet, n-pairs, supervised contrastive, and the proxy-based trio:
proxy-NCA, soft-triple, proxy-anchor). Every loss returns a `LossOutput`
carrying the scalar value, the gradient w.r.t. the batch embeddings, and,
for proxy-based losses, the gradient w.r.t. the proxy bank. Gradients are
derived by hand and verified against the central-difference oracle in the
test suite; there is no autograd anywhere. Each metric loss is three
parts:

* a plan, the tuple `<variant>_plan` returns: every check and index
  array that reads only the labels, the class count, the mined structure,
  the hyperparameters and the bank's shape;
* a forward part, which reads the embedding and proxy values, makes the
  checks on them and computes the value;
* a `backward` closure over the forward's intermediates, which the output
  runs when a gradient is first read.

`<variant>_loss` builds its plan itself, as in training. Its private
`_plan` keyword takes a plan built from the call's own labels, structure,
hyperparameters and bank, and uses it unchecked; only the gradient oracle
passes one, so that it makes the plan once for all the calls of one
instance. Cross-entropy computes everything at once.

`LOSSES`, at the end of the module, is the one table of variants: per loss
it holds the miner that picks the structure the loss needs from a batch
(if any), the function that builds its plan and the call that computes
the loss on that structure, whether it trains a proxy bank and with how
many proxies per class, its full and desk hyperparameter grids, and which
CLI flags set its `LossConfig` fields. `VARIANTS`, `PROXY_VARIANTS`,
`dml_loss` (and so the trainer), the harness grids, the CLI and the
gradient check all read it; cce's row is empty, as the trainer runs the
classifier loss itself.

Conventions:

* triplet uses squared Euclidean distances and one margin over an int64
  (T, 3) array of (anchor, positive, negative) row indices in [0, L);
* n-pairs takes an int64 (P, 2) array of (anchor, positive) rows and
  contrasts each anchor with the other classes' rows among the pairs;
* proxy-NCA and soft-triple always L2-normalize embeddings and proxies
  internally (gradients are still w.r.t. the raw inputs, chained through
  the normalization); proxy-anchor normalizes implicitly via cosine
  similarity;
* proxy-NCA's denominator ranges over the non-target proxies only, so its
  value can go negative;
* mixing happens through `combined_loss`, one affine formula with weight
  `beta` on the cross-entropy side, at the endpoints too.

Supcon, proxy-NCA, n-pairs and proxy-anchor take stacked passes where they
once looped in Python over anchors, rows, pairs or classes, and each keeps
the bits of its loop, which stays in `tests/reference.py` as the
reference (`tests/test_hotpath_equivalence.py` compares them). Where a
loss takes STACK_ROWS rows at a time, the forward keeps each block's
intermediates and the backward goes over the blocks in the same order.
How the bits are kept, in all four:

* a log-sum-exp row is read C-ordered through `log_sum_exp_rows`, which
  gives it the bits it has alone as a 1-D array; rows of different lengths
  go in separate calls, never padded to one width;
* a product the loop took per anchor or pair is a stacked matmul whose
  slices are the gemv the loop ran;
* where the loop scattered terms onto a zeroed gradient in order, the
  terms sit in one (1+B, rows, d) array after the running sum, and
  `np.add.reduce(axis=0)` adds them in that order;
* the value adds its terms one by one in a Python loop, in the loop's
  order.

Each function's docstring says what else it relies on. The equality was
seen with numpy 2.4.6 on OpenBLAS 0.3.31, with its SkylakeX kernels and
with numpy held to AVX2 and OpenBLAS to Haswell
(`tests/test_cpu_dispatch.py` runs the n-pairs and proxy-anchor
comparisons under both).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    InvalidTripletError,
    LabelError,
    PairingError,
    TrainingDivergedError,
)
from .numeric import (
    Rng,
    add_rows_at,
    as_matrix,
    l2_normalize_rows,
    log_sum_exp_rows,
    normalize_backward,
    sigmoid,
    softmax_rows,
    softplus,
)
from .proxies import ProxyBank

PROB_FLOOR = 1e-12


@dataclass
class EmbeddingBatch:
    """L embedding rows with aligned class labels in [0, num_classes)."""

    embeddings: np.ndarray  # (L, d)
    labels: np.ndarray  # (L,) int
    num_classes: int

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.embeddings.shape[0]:
            raise DimensionError("labels must align with embedding rows")
        if self.embeddings.shape[0] < 1 or self.embeddings.shape[1] < 1:
            raise DimensionError("batch needs at least one row and one dimension")
        if self.num_classes < 1:
            raise LabelError("num_classes must be >= 1")
        if (self.labels < 0).any() or (self.labels >= self.num_classes).any():
            raise LabelError(f"labels must lie in [0, {self.num_classes})")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


class LossOutput:
    """A loss value and its gradients: w.r.t. the batch embeddings, and,
    for a proxy-based loss, w.r.t. the proxy bank (None otherwise).

    The value is computed and checked when the output is built: a
    non-finite value raises `TrainingDivergedError` there. Gradients given
    as arrays are checked there too. A metric loss gives a `backward`
    closure instead, over its forward's own intermediates, returning
    (grad_embeddings, grad_proxies): it runs, and its gradients are checked
    and kept, when one of them is first read. It computes them from the
    inputs of the call as they are then, so read them before changing
    those inputs in place (`dml_loss` reads them before it returns). A
    caller that reads only `value`, as the gradient oracle's probes do,
    forms no gradient.
    """

    def __init__(self, value, grad_embeddings=None, grad_proxies=None, *, backward=None):
        # a non-finite loss is a diverging run, which poisons its grid cell
        self.value = float(value)
        if not np.isfinite(self.value):
            raise TrainingDivergedError("loss value is not finite")
        self._backward = backward
        self._grads = None if backward is not None else _finite_gradients(grad_embeddings, grad_proxies)

    def gradients(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(grad_embeddings, grad_proxies), from `backward` on the first call."""
        if self._grads is None:
            self._grads = _finite_gradients(*self._backward())
            self._backward = None  # frees the forward's intermediates
        return self._grads

    @property
    def grad_embeddings(self) -> np.ndarray:
        return self.gradients()[0]

    @property
    def grad_proxies(self) -> np.ndarray | None:
        return self.gradients()[1]


def _finite_gradients(grad_embeddings, grad_proxies):
    if not np.isfinite(grad_embeddings).all():
        raise TrainingDivergedError("embedding gradient contains NaN or Inf")
    if grad_proxies is not None and not np.isfinite(grad_proxies).all():
        raise TrainingDivergedError("proxy gradient contains NaN or Inf")
    return grad_embeddings, grad_proxies


@dataclass
class LossConfig:
    """Variant tag plus every per-loss hyperparameter; only the tagged
    variant's fields are ever read."""

    variant: str = "cce"
    beta: float = 0.5  # weight on the cross-entropy side of the blend
    margin: float = 1.0  # triplet
    tau: float = 0.1  # supcon temperature
    softmax_scale: float = 1.0  # proxynca
    st_k: int = 5  # softtriple proxies per class
    st_gamma: float = 0.05
    st_lambda: float = 1.0
    st_delta: float = 0.1
    pa_alpha: float = 32.0  # proxyanchor
    pa_delta: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        if self.margin < 0.0:
            raise ConfigError("margin must be >= 0")
        if self.tau <= 0.0:
            raise ConfigError("tau must be positive")
        if self.st_gamma <= 0.0:
            raise ConfigError("st_gamma must be positive")
        if self.st_k < 1:
            raise ConfigError("st_k must be >= 1")
        if self.st_lambda <= 0.0:
            raise ConfigError("st_lambda must be positive")
        if self.pa_alpha <= 0.0:
            raise ConfigError("pa_alpha must be positive")
        if self.softmax_scale <= 0.0:
            raise ConfigError("softmax_scale must be positive")

    @property
    def is_metric(self) -> bool:
        return LOSSES[self.variant].call is not None

    @property
    def is_proxy_based(self) -> bool:
        return LOSSES[self.variant].proxies is not None

    def proxies_per_class(self) -> int:
        per_class = LOSSES[self.variant].proxies
        return per_class(self) if per_class is not None else 1


def zero_output(batch: EmbeddingBatch) -> LossOutput:
    """Zero loss with zero gradients, for steps where no valid structure exists."""
    return LossOutput(0.0, np.zeros_like(batch.embeddings))


# ---------------------------------------------------------------------------
# categorical cross-entropy


def cce_loss(probs, labels) -> LossOutput:
    """Mean negative log-likelihood of the true class.

    `probs` rows are softmax outputs; the returned gradient is w.r.t. the
    pre-softmax logits (the usual fused softmax cross-entropy form
    (probs - onehot) / N), so it can be chained straight into the
    classifier head.
    """
    probs = as_matrix(probs)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = probs.shape
    if labels.shape != (n,):
        raise DimensionError("labels must align with probability rows")
    if (labels < 0).any() or (labels >= c).any():
        raise LabelError(f"labels must lie in [0, {c})")
    row_sums = probs.sum(axis=1)
    if (np.abs(row_sums - 1.0) > 1e-9).any():
        raise ConfigError("probability rows must sum to 1")
    picked = np.clip(probs[np.arange(n), labels], PROB_FLOOR, 1.0)
    value = -float(np.log(picked).sum()) / n
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return LossOutput(value, grad)


# ---------------------------------------------------------------------------
# triplet


def triplet_plan(batch: EmbeddingBatch, triplets, margin: float) -> tuple:
    """`triplet_loss`'s plan: its checks, then the triplets as int64 and
    their (a, p, n) columns.

    `triplets` is a (T, 3) int array of (anchor, positive, negative) rows,
    each index in [0, L), under one margin. The first invalid row raises
    the first of the checks below that it fails."""
    idx = np.asarray(triplets)
    if idx.size == 0:
        raise InvalidTripletError("need at least one triplet")
    if idx.ndim != 2 or idx.shape[1] != 3 or idx.dtype.kind not in "iu":
        raise DimensionError(f"triplets must be integers of shape (T, 3), got {idx.dtype} {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    labels = batch.labels
    outside = np.any((idx < 0) | (idx >= batch.size), axis=1)
    a, p, n = np.where(outside[:, None], 0, idx).T  # such rows fail the range check first
    checks = [  # {0}, {1}, {2}: the row's anchor, positive and negative
        (outside, "indices must lie in [0, {L}), got ({0}, {1}, {2})"),
        ((a == p) | (a == n) | (p == n), "indices must be distinct, got ({0}, {1}, {2})"),
        (labels[a] != labels[p], "anchor {0} and positive {1} differ in class"),
        (labels[a] == labels[n], "anchor {0} and negative {2} share a class"),
        (np.full(len(idx), margin < 0.0), "margin must be >= 0"),
    ]
    bad = np.array([mask for mask, _ in checks])  # (check, triplet)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        message = checks[int(np.argmax(bad[:, row]))][1]
        raise InvalidTripletError(message.format(*idx[row].tolist(), L=batch.size))
    return idx, a, p, n


def triplet_loss(batch: EmbeddingBatch, triplets, margin: float, *, _plan: tuple | None = None) -> LossOutput:
    """Sum of hinge terms [d²(a,p) - d²(a,n) + margin]+ over the given triplets.

    Squared Euclidean distances; the subgradient at the hinge kink is zero.
    `triplet_plan` checks the triplets and the margin (not when the call
    is handed `_plan`). The terms are computed for all triplets at once
    but summed in triplet order, and each active triplet scatters its
    (anchor, positive, negative) rows in that order, so the result is the
    same to the bit as taking one triplet at a time.
    """
    idx, a, p, n = triplet_plan(batch, triplets, margin) if _plan is None else _plan
    z = batch.embeddings
    ap = z[a] - z[p]
    an = z[a] - z[n]
    # stacked (1, d) @ (d, 1) products are the same BLAS dots as ap @ ap per row
    slack = (ap[:, None, :] @ ap[:, :, None] - an[:, None, :] @ an[:, :, None])[:, 0, 0] + margin
    hit = slack > 0.0
    value = float(np.cumsum(slack[hit])[-1]) if hit.any() else 0.0

    ap, an, rows = ap[hit], an[hit], idx[hit].ravel()

    def backward():
        grad = np.zeros(z.shape)  # C-ordered whatever z's layout, for add_rows_at
        steps = np.stack((2.0 * (ap - an), -2.0 * ap, 2.0 * an), axis=1)
        add_rows_at(grad, rows, steps)
        return grad, None

    return LossOutput(value, backward=backward)


def mine_triplets(batch: EmbeddingBatch, *, rng: Rng | None = None, cap: int = 512) -> np.ndarray:
    """All valid (anchor, positive, negative) index triples in the batch, as
    the rows of an int64 (T, 3) array in lexicographic order, indices in
    [0, L), subsampled to `cap` with the given rng when there are more:
    rng.choice picks `cap` ranks of that order, kept sorted.

    No triple is built that is not returned. Anchor a owns the block of
    |pos(a)| * |neg(a)| consecutive ranks; a rank is decoded from its
    anchor's block into the positive (the same-class members other than a,
    ascending) and the negative (the other classes' members, ascending), so
    the memory is O(batch + cap) however many triples there are.
    """
    labels = batch.labels
    size = batch.size
    counts = np.bincount(labels)
    order = np.argsort(labels, kind="stable")  # members of each class, ascending
    first = np.cumsum(counts) - counts  # where each class starts in `order`
    within = np.empty(size, dtype=np.int64)  # a's rank among its class
    within[order] = np.arange(size) - first[labels[order]]
    same = counts[labels]
    per_anchor = (same - 1) * (size - same)
    total = int(per_anchor.sum())
    if total > cap:
        if rng is None:
            raise ConfigError(f"{total} triplets exceed cap {cap}; rng required")
        ranks = np.sort(rng.choice(total, cap))
    else:
        ranks = np.arange(total)
    ends = np.cumsum(per_anchor)
    anchor = np.searchsorted(ends, ranks, side="right")
    cls = labels[anchor]
    pos_rank, neg_rank = np.divmod(ranks - ends[anchor] + per_anchor[anchor], size - same[anchor])
    pos_rank += pos_rank >= within[anchor]  # step over the anchor itself
    positive = order[first[cls] + pos_rank]
    negative = np.empty_like(neg_rank)
    for c in np.unique(cls):
        sel = cls == c
        negative[sel] = np.nonzero(labels != c)[0][neg_rank[sel]]
    return np.stack((anchor, positive, negative), axis=1)


# Batch rows (n-pairs' pairs, supcon's anchors, proxynca's rows) per stacked
# pass. Each pass holds a few (STACK_ROWS, L, d) or (STACK_ROWS, C, d)
# float64 arrays, so their size grows with the batch only linearly; a pass
# adds the running gradient sum in as its first slice, so blocks change no
# bit.
STACK_ROWS = 64


# ---------------------------------------------------------------------------
# n-pairs


def npairs_plan(batch: EmbeddingBatch, pairs) -> tuple:
    """`npairs_loss`'s plan: the pair checks, then the pair count and, per
    STACK_ROWS block of pairs, its size and its groups by row count K,
    each group's pairs (in the block, in pair order), anchors and (G, K)
    rows: the positive, then the members outside the anchor's class,
    ascending."""
    idx = np.asarray(pairs)
    if idx.size == 0:
        raise PairingError("need at least one (anchor, positive) pair")
    if idx.ndim != 2 or idx.shape[1] != 2 or idx.dtype.kind not in "iu":
        raise DimensionError(f"pairs must be integers of shape (P, 2), got {idx.dtype} {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    labels = batch.labels
    if ((idx < 0) | (idx >= batch.size)).any():
        raise PairingError(f"pair indices must lie in [0, {batch.size})")
    anchors, positives = idx.T
    if (anchors == positives).any():
        raise PairingError("an anchor cannot be its own positive")
    if (labels[anchors] != labels[positives]).any():
        raise PairingError("an anchor and its positive differ in class")
    if np.unique(anchors).size != anchors.size:
        raise PairingError("an anchor appears in more than one pair")
    members = np.unique(idx)
    member_labels = labels[members]
    # rows per pair: the positive, then the members outside the anchor's class
    widths = 1 + members.size - np.bincount(member_labels, minlength=batch.num_classes)[labels[anchors]]
    blocks = []
    for start in range(0, len(idx), STACK_ROWS):
        block = slice(start, start + STACK_ROWS)
        block_widths = widths[block]
        groups = []
        for width in set(block_widths.tolist()):
            sel = np.flatnonzero(block_widths == width)  # in the block, in pair order
            i = anchors[block][sel]
            outside = member_labels != labels[i][:, None]  # (G, members)
            others = members[np.nonzero(outside)[1]].reshape(sel.size, width - 1)
            rows = np.concatenate((positives[block][sel][:, None], others), axis=1)  # (G, K)
            groups.append((sel, i, rows))
        blocks.append((start, block_widths.size, groups))
    return len(idx), tuple(blocks)


def npairs_loss(batch: EmbeddingBatch, pairs, *, _plan: tuple | None = None) -> LossOutput:
    """Softmax of the anchor-positive dot product against anchor-negative ones.

    `pairs` is a (P, 2) int array of (anchor, positive) rows, each index in
    [0, L), every anchor in one pair only; `npairs_plan` checks them (not
    when the call is handed `_plan`). An anchor's negatives are the rows of
    other classes that appear in `pairs`, ascending (Sohn, NeurIPS 2016:
    the other pairs' members). The value and the gradient are averaged
    over the pairs, taken in their given order.

    The pairs are taken STACK_ROWS at a time in stacked passes, to the bit
    of one pair at a time:

    * a pair's rows are its positive, then the other classes' members;
      the pairs of a block are grouped by that row count K (training's
      miner and the oracle give every pair the same K, so one group);
    * a group's scores are `(zr @ zi[:, :, None])[:, :, 0]` with `zr` of
      shape (G, K, d), the same gemv per pair as `z[rows] @ z[i]`, and
      `log_sum_exp_rows` keeps the 1-D call's bits, its exact singleton
      case included, and raises exactly when that call did on some pair;
    * the anchor's own gradient row is one stacked (G, 1, K) @ (G, K, d)
      matmul, the same gemv per pair as a 1-D @ 2-D product, and the
      other rows' terms are `coeff[:, :, None] * zi[:, None, :]`, the
      products of `np.outer`;
    * an anchor is never among its own rows, so a pair adds at most one
      term to any gradient row; the terms sit in one (1+B, L, d) array
      after the running sum, which starts at zeros, and
      `np.add.reduce(axis=0)` adds them in pair order, as the scatter
      onto a zeroed gradient did;
    * the value adds each pair's `lse - scores[0]` in a Python loop, in
      order.

    The equality with the per-pair loop was seen with numpy 2.4.6 on
    OpenBLAS 0.3.31's SkylakeX kernels, and with numpy held to AVX2 and
    OpenBLAS to Haswell (`tests/test_cpu_dispatch.py`).
    """
    count, parts = npairs_plan(batch, pairs) if _plan is None else _plan
    z = batch.embeddings
    gaps = np.empty(count)  # each pair's lse - scores[0]
    blocks = []  # per block: its pair count and its groups' intermediates
    for start, size, groups in parts:
        forward = []
        for sel, i, rows in groups:
            zr, zi = z[rows], z[i]
            scores = (zr @ zi[:, :, None])[:, :, 0]
            lse = log_sum_exp_rows(scores)
            gaps[start + sel] = lse - scores[:, 0]
            forward.append((sel, i, rows, zr, zi, scores, lse))
        blocks.append((size, forward))
    value = 0.0
    for gap in gaps.tolist():
        value += gap

    def backward():
        grad = np.zeros_like(z)
        for size, forward in blocks:
            terms = np.zeros((size + 1,) + z.shape)
            terms[0] = grad
            for sel, i, rows, zr, zi, scores, lse in forward:
                coeff = np.exp(scores - lse[:, None])
                coeff[:, 0] -= 1.0
                terms[1 + sel[:, None], rows] = coeff[:, :, None] * zi[:, None, :]  # outer products
                terms[1 + sel, i] = (coeff[:, None, :] @ zr)[:, 0, :]
            np.add.reduce(terms, axis=0, out=grad)
        return grad / count, None

    return LossOutput(value / count, backward=backward)


def select_npairs_pairs(labels, rng: Rng | None = None) -> np.ndarray:
    """Two members of every class that has at least two, each the other's
    positive: an int64 (P, 2) array of (anchor, positive) rows, anchors
    ascending, empty when every class is a singleton. With an rng a larger
    class's two are drawn by rng.choice, class by class in label order;
    without one, or with exactly two, a class gives its first two."""
    labels = np.asarray(labels)
    pairs = []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        if members.size < 2:
            continue
        if rng is None or members.size == 2:
            a, b = members[:2]
        else:
            a, b = members[rng.choice(members.size, 2)]
        pairs += [(a, b), (b, a)]
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[np.argsort(pairs[:, 0])]


# ---------------------------------------------------------------------------
# supervised contrastive


def rows_with_a_positive(labels) -> np.ndarray:
    """The rows whose class has another member in the batch, ascending: the
    anchors of supervised contrastive learning, as an int64 array."""
    labels = np.asarray(labels)
    return np.flatnonzero(np.bincount(labels)[labels] > 1)


def supcon_plan(batch: EmbeddingBatch, tau: float) -> tuple:
    """`supcon_loss`'s plan: its checks, and per STACK_ROWS block of
    anchors the anchors, each one's (B, L-1) `others` (every row but its
    own, ascending), the mask of its positives among them, and per class
    of the block its anchors' places in the block with their rows of that
    mask."""
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    labels = batch.labels
    length = batch.size
    anchors = rows_with_a_positive(labels)
    if anchors.size == 0:
        raise DegenerateBatchError("no anchor in the batch has a positive")
    blocks = []
    for start in range(0, anchors.size, STACK_ROWS):
        block = anchors[start : start + STACK_ROWS]
        others = np.arange(length - 1) + (np.arange(length - 1) >= block[:, None])  # (B, L-1)
        block_labels = labels[block]
        positive = labels[others] == block_labels[:, None]
        classes = []
        for cls in np.unique(block_labels):
            members = np.flatnonzero(block_labels == cls)
            classes.append((members, positive[members]))
        blocks.append((block, others, positive, classes))
    return tuple(blocks)


def supcon_loss(batch: EmbeddingBatch, tau: float, *, _plan: tuple | None = None) -> LossOutput:
    """Supervised contrastive loss over raw dot products at temperature tau.

    Every batch member with a positive (`rows_with_a_positive`, which is
    also the `LOSSES` row's miner) is an anchor; its positives are all
    same-class others and the contrast set is everything else in the batch.
    Anchors without a positive contribute zero (singleton classes are
    common in few-shot batches); a batch where no anchor has one is
    degenerate. `supcon_plan` makes those checks (not when the call is
    handed `_plan`).

    The anchors are taken STACK_ROWS at a time in stacked passes, to the
    bit of one anchor at a time:

    * each anchor's contrast row is its row of the similarities without
      the diagonal, C-ordered (B, L-1), and its log-sum-exp is
      `log_sum_exp_rows`, which raises exactly when the 1-D call on an
      anchor's row did (a non-anchor's row, inf self-similarity included,
      is never read);
    * the mean over an anchor's positives stays a row sum per anchor, one
      class at a time, since all of a class's anchors have the same count:
      padding rows of different counts to one width would regroup numpy's
      pairwise sum from 8 entries on;
    * the anchor's own gradient row is one stacked (B, 1, L-1) @
      (B, L-1, d) matmul, the same gemv per anchor as a 1-D @ 2-D product;
    * the terms of every gradient row (its own term at its anchor's place,
      the other anchors' outer products elsewhere) sit in one (1+B, L, d)
      array after the running sum, which starts at zeros; and
      `np.add.reduce(axis=0)` adds them in anchor order, as the scatter
      onto a zeroed gradient did;
    * the value adds each anchor's term in a Python loop, in order.

    The equality with the per-anchor loop was seen with numpy 2.4.6 on
    OpenBLAS 0.3.31's SkylakeX kernels; another BLAS may round a stacked
    matmul otherwise.
    """
    parts = supcon_plan(batch, tau) if _plan is None else _plan
    z = batch.embeddings
    length = batch.size
    sims = (z @ z.T) / tau
    value = 0.0
    blocks = []  # per block: its anchors' intermediates
    for block, others, positive, classes in parts:
        rows = sims[block[:, None], others]
        lse = log_sum_exp_rows(rows)
        means = np.empty(block.size)
        for members, mask in classes:
            pos = rows[members][mask].reshape(members.size, -1)
            means[members] = pos.sum(axis=1) / pos.shape[1]
        for term in (lse - means).tolist():
            value += term
        blocks.append((block, others, rows, lse, positive))

    def backward():
        grad = np.zeros_like(z)
        for block, others, rows, lse, positive in blocks:
            count = block.size
            coeff = np.exp(rows - lse[:, None])
            coeff = np.where(positive, coeff - 1.0 / positive.sum(axis=1)[:, None], coeff)
            spread = np.zeros((count, length))  # coeff at each anchor's others, 0 at the anchor
            spread[np.arange(count)[:, None], others] = coeff
            terms = np.empty((count + 1, length, z.shape[1]))
            terms[0] = grad
            np.multiply(spread[:, :, None], z[block][:, None, :], out=terms[1:])  # outer products
            terms[1:] /= tau
            terms[1 + np.arange(count), block] = (coeff[:, None, :] @ z.take(others, axis=0))[:, 0, :] / tau
            np.add.reduce(terms, axis=0, out=grad)
        return grad, None

    return LossOutput(value, backward=backward)


# ---------------------------------------------------------------------------
# proxy-NCA


def proxynca_plan(batch: EmbeddingBatch, bank: ProxyBank, scale: float) -> tuple:
    """`proxynca_loss`'s plan: its checks, and per STACK_ROWS block of
    rows their slice, labels, positions in the block and (B, C)
    `off_target` mask."""
    if scale <= 0.0:
        raise ConfigError("scale must be positive")
    if bank.proxies_per_class != 1:
        raise ConfigError("proxy-NCA needs exactly one proxy per class")
    if bank.classes < 2:
        raise DegenerateBatchError("proxy-NCA needs >= 2 classes for its denominator")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
    blocks = []
    for start in range(0, batch.size, STACK_ROWS):
        block = slice(start, start + STACK_ROWS)
        y = batch.labels[block]
        blocks.append((block, y, np.arange(y.size), np.arange(bank.classes) != y[:, None]))
    return tuple(blocks)


def proxynca_loss(
    batch: EmbeddingBatch, bank: ProxyBank, scale: float, *, _plan: tuple | None = None
) -> LossOutput:
    """Negative log-ratio of the target-proxy term over the non-target proxies.

    Embeddings and proxies are L2-normalized first, and the returned
    gradients chain back to the raw inputs. Distances between the unit
    rows are Euclidean, scaled by `scale` inside both exponents. The
    denominator excludes the target proxy, so the value can be negative.
    `proxynca_plan` checks the scale and the bank (not when the call is
    handed `_plan`).

    The rows are taken STACK_ROWS at a time in stacked passes, to the bit
    of one row at a time:

    * the (B, C, d) differences are C-ordered, so each distance is numpy's
      pairwise sum over one contiguous run of d entries, as it was for one
      row's (C, d) block; `l2_normalize_rows` returns C-ordered rows
      whatever the layout of its input;
    * the non-target scores are the scaled distances without the target
      column, C-ordered (B, C-1); `log_sum_exp_rows` keeps the 1-D call's
      bits, its exact singleton case included (2 classes), and raises
      exactly when that call did on some row;
    * each row's pull is added over its C-1 proxies by `sum(axis=1)` on a
      C-ordered (B, C-1, d) array, the same reduction as `sum(axis=0)` on
      one row's (C-1, d) block;
    * the terms of every proxy's gradient row (its target term where it is
      the row's target, the pull elsewhere) sit in one (1+B, C, d) array
      after the running sum, which starts at zeros; and
      `np.add.reduce(axis=0)` adds them in batch-row order, as the scatter
      onto a zeroed gradient did;
    * the value adds each row's term in a Python loop, in order.

    The equality with the per-row loop was seen with numpy 2.4.6 on
    OpenBLAS 0.3.31's SkylakeX kernels.
    """
    parts = proxynca_plan(batch, bank, scale) if _plan is None else _plan
    z_raw = batch.embeddings
    p_raw = bank.matrix
    z = l2_normalize_rows(z_raw)
    p = l2_normalize_rows(p_raw)
    n, classes, dim = batch.size, bank.classes, z.shape[1]
    value = 0.0
    blocks = []  # per block: its rows' intermediates
    for block, y, rows, off_target in parts:
        diffs = z[block, None, :] - p  # (B, C, d)
        dists = np.linalg.norm(diffs, axis=2)
        neg_scores = (-scale * dists)[off_target].reshape(y.size, classes - 1)
        lse = log_sum_exp_rows(neg_scores)
        for term in (scale * dists[rows, y] + lse).tolist():
            value += term
        blocks.append((block, y, rows, diffs, dists, off_target, neg_scores, lse))
    value /= n

    def backward():
        grad_z = np.zeros_like(z)
        grad_p = np.zeros_like(p)
        for block, y, rows, diffs, dists, off_target, neg_scores, lse in blocks:
            count = y.size
            # unit direction of d(z, p_c) w.r.t. z; subgradient 0 at d == 0
            safe = np.where(dists > 0.0, dists, 1.0)
            dirs = diffs / safe[:, :, None]
            dirs[dists == 0.0] = 0.0
            target = (scale / n) * dirs[rows, y]  # (B, d)
            weights = np.exp(neg_scores - lse[:, None])
            pull = (scale / n) * weights[:, :, None] * dirs[off_target].reshape(count, classes - 1, dim)
            grad_z[block] += target
            grad_z[block] -= pull.sum(axis=1)
            terms = np.empty((count + 1, classes, dim))
            terms[0] = grad_p
            terms[1:][off_target] = pull.reshape(-1, dim)
            terms[1 + rows, y] = -target
            np.add.reduce(terms, axis=0, out=grad_p)
        return normalize_backward(z_raw, grad_z), normalize_backward(p_raw, grad_p)

    return LossOutput(value, backward=backward)


# ---------------------------------------------------------------------------
# soft-triple


def softtriple_plan(batch: EmbeddingBatch, bank: ProxyBank, scale: float, gamma: float, delta: float) -> tuple:
    """`softtriple_loss`'s plan: its checks, and the row index."""
    if gamma <= 0.0:
        raise ConfigError("gamma must be positive")
    if scale <= 0.0:
        raise ConfigError("scale must be positive")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
    return (np.arange(batch.size),)


def softtriple_loss(
    batch: EmbeddingBatch,
    bank: ProxyBank,
    scale: float,
    gamma: float,
    delta: float,
    *,
    _plan: tuple | None = None,
) -> LossOutput:
    """Cross-entropy over relaxed class similarities with K proxies per class.

    The per-class similarity is the softmax(s/gamma)-weighted mean of the
    K proxy similarities; the margin `delta` is subtracted from the true
    class only, and `scale` multiplies every logit. Embeddings and proxies
    are L2-normalized before the inner products; gradients flow through
    the softmax weights, the similarities, and the normalization.
    `softtriple_plan` checks gamma, the scale and the bank (not when the
    call is handed `_plan`).
    """
    (rows,) = softtriple_plan(batch, bank, scale, gamma, delta) if _plan is None else _plan
    n, d = batch.embeddings.shape
    classes, per_class = bank.classes, bank.proxies_per_class
    z_raw = batch.embeddings
    w_raw = bank.matrix
    z = l2_normalize_rows(z_raw)
    w = l2_normalize_rows(w_raw).reshape(classes, per_class, d)

    sims = np.einsum("ld,ckd->lck", z, w)  # (L, C, K)
    shifted = sims / gamma
    shifted -= shifted.max(axis=2, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=2, keepdims=True)  # softmax over k
    relaxed = np.einsum("lck,lck->lc", weights, sims)  # (L, C)

    logits = scale * relaxed
    logits[rows, batch.labels] -= scale * delta
    probs = softmax_rows(logits)
    picked = np.clip(probs[rows, batch.labels], PROB_FLOOR, 1.0)
    value = -float(np.log(picked).sum()) / n

    def backward():
        grad_relaxed = probs.copy()
        grad_relaxed[rows, batch.labels] -= 1.0
        grad_relaxed *= scale / n  # (L, C)

        # dS'/ds_k = a_k + (a_k / gamma) (s_k - S')
        inner = weights * (1.0 + (sims - relaxed[:, :, None]) / gamma)
        grad_sims = grad_relaxed[:, :, None] * inner  # (L, C, K)

        grad_z = np.einsum("lck,ckd->ld", grad_sims, w)
        grad_w = np.einsum("lck,ld->ckd", grad_sims, z).reshape(classes * per_class, d)
        return normalize_backward(z_raw, grad_z), normalize_backward(w_raw, grad_w)

    return LossOutput(value, backward=backward)


# ---------------------------------------------------------------------------
# proxy-anchor


def proxyanchor_plan(batch: EmbeddingBatch, bank: ProxyBank, alpha: float, delta: float) -> tuple:
    """`proxyanchor_loss`'s plan: its checks; `own`, the (L, C) mask of
    the pull side's entries; of the 2C log-sum-exp rows (row k < C is
    class k's pull over its members, row C + k its push over its
    outsiders), per length the rows of that length with the (rows,
    length) batch rows they take and their columns; the count of present
    classes; and the (row, divisor) of each of the value's terms, in
    order: the rows that take any batch row."""
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    if delta < 0.0:
        raise ConfigError("delta must be >= 0")
    if bank.proxies_per_class != 1:
        raise ConfigError("proxy-anchor needs exactly one proxy per class")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
    classes = bank.classes
    own = batch.labels[:, None] == np.arange(classes)
    sides = np.concatenate((own.T, ~own.T))  # (2C, L): the batch rows each row takes
    lengths = sides.sum(axis=1)
    entries = []
    for length in set(lengths.tolist()) - {0}:
        which = np.flatnonzero(lengths == length)
        rows = np.nonzero(sides[which])[1].reshape(which.size, length)
        entries.append((which, rows, which[:, None] % classes))
    present = int(np.count_nonzero(lengths[:classes]))
    terms = [(k, present if k < classes else classes) for k, length in enumerate(lengths.tolist()) if length]
    return own, entries, present, terms


def proxyanchor_loss(
    batch: EmbeddingBatch,
    bank: ProxyBank,
    alpha: float,
    delta: float,
    *,
    _plan: tuple | None = None,
) -> LossOutput:
    """Proxies act as anchors: a softplus pull toward each in-batch class
    proxy and a push from every proxy's out-of-class batch members.

    Cosine similarities throughout; the pull term averages over the proxies
    whose class appears in the batch, the push term over all proxies. Inner
    sums go through log-sum-exp + log1p so large `alpha` cannot overflow.
    `proxyanchor_plan` checks alpha, delta and the bank (not when the call
    is handed `_plan`).

    Each side's log-sum-exp rows (a present class's members for the pull,
    a class's outsiders for the push) are taken in stacked passes, to the
    bit of one class at a time:

    * every entry of the (L, C) similarities is in exactly one row: its
      class's pull row where the batch row's class is the column, that
      column's push row elsewhere; so its exponent is the pull's or the
      push's, computed entry by entry, and its gradient is exactly one
      term, still added to zero (which turns -0.0 into +0.0);
    * the rows are grouped by length, both sides together (at 2 classes
      a pull row and the other class's push row have the same length);
      a row's entries are in ascending batch order and
      `log_sum_exp_rows` keeps the 1-D call's bits, its exact singleton
      case included, and raises exactly when that call did on some class;
    * `softplus` and `sigmoid` stay scalar calls per row, and the value
      adds its terms in the loop's order: the pull side over present
      classes ascending, then the push side over the classes that have
      outsiders, ascending;
    * the gradient of the similarities stays C-ordered (L, C): at 2
      classes both products after it have 2 output columns, and such a
      GEMM rounds by the layout of its operands.

    The equality with the per-class loop was seen with numpy 2.4.6 on
    OpenBLAS 0.3.31's SkylakeX kernels, and with numpy held to AVX2 and
    OpenBLAS to Haswell (`tests/test_cpu_dispatch.py`).
    """
    own, entries, present, terms = proxyanchor_plan(batch, bank, alpha, delta) if _plan is None else _plan
    z_raw = batch.embeddings
    p_raw = bank.matrix
    z = l2_normalize_rows(z_raw)
    p = l2_normalize_rows(p_raw)
    sims = z @ p.T  # (L, C) cosine similarities
    classes = bank.classes
    x = np.where(own, -alpha * (sims - delta), alpha * (sims + delta))
    lse = np.zeros(2 * classes)
    for which, rows, columns in entries:
        lse[which] = log_sum_exp_rows(x[rows, columns])
    value = 0.0
    at = lse.tolist()
    for k, divisor in terms:
        value += softplus(at[k]) / divisor

    def backward():
        sig = np.zeros(2 * classes)
        for k, _ in terms:
            sig[k] = sigmoid(at[k])
        # entry (l, c) of x is in log-sum-exp row[l, c]
        row = np.arange(classes) + classes * ~own
        weight = np.where(own, -alpha / present, alpha / classes)
        grad_sims = weight * (sig[row] * np.exp(x - lse[row]))
        grad_sims += 0.0  # as the loop's scatter onto zeros, -0.0 becomes +0.0
        grad_z = normalize_backward(z_raw, grad_sims @ p)
        grad_p = normalize_backward(p_raw, grad_sims.T @ z)
        return grad_z, grad_p

    return LossOutput(value, backward=backward)


# ---------------------------------------------------------------------------
# blending


def combined_loss(cce: LossOutput, dml: LossOutput, beta: float) -> LossOutput:
    """Affine blend: beta * cce + (1 - beta) * dml, for value and every gradient.

    Only the metric side carries proxy gradients; its share is
    (1 - beta) * grad_proxies. At the endpoints the formula gives one
    side's values: the other side's finite values add as zeros, so only a
    zero's sign may differ, and beta=1 gives zero proxy gradients. A
    beta=1 training run stays bit-identical to a pure cross-entropy run.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0, 1]")
    if cce.grad_embeddings.shape != dml.grad_embeddings.shape:
        raise DimensionError(
            "cannot blend gradients of shapes "
            f"{cce.grad_embeddings.shape} and {dml.grad_embeddings.shape}"
        )
    if cce.grad_proxies is not None:
        raise DimensionError("the cross-entropy side has no proxy gradient")
    grad_p = None
    if dml.grad_proxies is not None:
        # adding to 0.0 turns a -0.0 share into +0.0
        grad_p = 0.0 + (1.0 - beta) * dml.grad_proxies
    value = beta * cce.value + (1.0 - beta) * dml.value
    grad_e = beta * cce.grad_embeddings + (1.0 - beta) * dml.grad_embeddings
    return LossOutput(value, grad_e, grad_p)


# ---------------------------------------------------------------------------
# the variant table


@dataclass(frozen=True)
class LossSpec:
    """One loss variant. Training (`dml_loss`) and the gradient check both
    take the structure from `mine` once and hand it to `call`; the check
    also builds the loss's plan once per instance with `plan` and hands it
    to each call of that instance as `_plan`. The callables look the loss
    functions up when they run, so a name patched on this module is the
    one called."""

    # (batch, rng) -> the int64 index array the loss needs: triplets (T, 3),
    # n-pairs (P, 2), supcon's rows with a positive; None when it needs none
    mine: Callable[..., np.ndarray] | None = None
    # (batch, config, bank, structure) -> the tuple `<variant>_plan`
    # returns; None for cce
    plan: Callable[..., tuple] | None = None
    # (batch, config, bank, structure, _plan=None) -> LossOutput; None for
    # cce. `_plan` is used unchecked, so it must be `plan`'s at the same
    # arguments
    call: Callable[..., LossOutput] | None = None
    # config -> proxies per class; None when the loss trains no proxy bank
    proxies: Callable[[LossConfig], int] | None = None
    # LossConfig field -> values, outermost axis first; beta is swept last
    full_grid: dict | None = None
    desk_grid: dict | None = None
    # CLI flag (argparse dest) -> the LossConfig field it sets
    flags: dict = field(default_factory=dict)


LOSSES: dict[str, LossSpec] = {
    "cce": LossSpec(),
    "triplet": LossSpec(
        mine=lambda batch, rng: mine_triplets(batch, rng=rng),
        plan=lambda batch, config, bank, triplets: triplet_plan(batch, triplets, config.margin),
        call=lambda batch, config, bank, triplets, _plan=None: triplet_loss(
            batch, triplets, config.margin, _plan=_plan
        ),
        full_grid={"margin": [1, 3, 5, 7, 9]},
        desk_grid={"margin": [1, 5, 9]},
        flags={"margin": "margin"},
    ),
    "npairs": LossSpec(
        mine=lambda batch, rng: select_npairs_pairs(batch.labels, rng),
        plan=lambda batch, config, bank, pairs: npairs_plan(batch, pairs),
        call=lambda batch, config, bank, pairs, _plan=None: npairs_loss(batch, pairs, _plan=_plan),
        full_grid={},
        desk_grid={},
    ),
    "supcon": LossSpec(
        mine=lambda batch, rng: rows_with_a_positive(batch.labels),
        plan=lambda batch, config, bank, anchors: supcon_plan(batch, config.tau),
        call=lambda batch, config, bank, anchors, _plan=None: supcon_loss(batch, config.tau, _plan=_plan),
        full_grid={"tau": [0.1, 0.3, 0.5, 0.7, 0.9]},
        desk_grid={"tau": [0.1, 0.5, 0.9]},
        flags={"tau": "tau"},
    ),
    "proxynca": LossSpec(
        plan=lambda batch, config, bank, structure: proxynca_plan(batch, bank, config.softmax_scale),
        call=lambda batch, config, bank, structure, _plan=None: proxynca_loss(
            batch, bank, config.softmax_scale, _plan=_plan
        ),
        proxies=lambda config: 1,
        full_grid={"softmax_scale": [0.4, 0.6, 0.8, 1, 1.2, 1.4, 1.6, 1.8, 2, 3, 5]},
        desk_grid={"softmax_scale": [0.4, 1, 2, 5]},
        flags={"softmax_scale": "softmax_scale"},
    ),
    "softtriple": LossSpec(
        plan=lambda batch, config, bank, structure: softtriple_plan(
            batch, bank, config.st_lambda, config.st_gamma, config.st_delta
        ),
        call=lambda batch, config, bank, structure, _plan=None: softtriple_loss(
            batch, bank, config.st_lambda, config.st_gamma, config.st_delta, _plan=_plan
        ),
        proxies=lambda config: config.st_k,
        full_grid={
            "st_k": [5, 25, 1000, 2000],
            "st_gamma": [0.01, 0.03, 0.05, 0.07, 0.1],
            "st_lambda": [1, 3, 3.3, 4, 6, 8, 10],
            "st_delta": [0.1, 0.3, 0.5, 0.7, 0.9, 1],
        },
        desk_grid={"st_k": [5], "st_gamma": [0.05], "st_lambda": [1, 10], "st_delta": [0.1, 0.9]},
        flags={"k": "st_k", "gamma": "st_gamma", "lam": "st_lambda", "delta": "st_delta"},
    ),
    "proxyanchor": LossSpec(
        plan=lambda batch, config, bank, structure: proxyanchor_plan(
            batch, bank, config.pa_alpha, config.pa_delta
        ),
        call=lambda batch, config, bank, structure, _plan=None: proxyanchor_loss(
            batch, bank, config.pa_alpha, config.pa_delta, _plan=_plan
        ),
        proxies=lambda config: 1,
        full_grid={"pa_alpha": [16, 32, 64, 128], "pa_delta": [0, 0.1, 0.3, 0.5, 0.7, 0.9]},
        desk_grid={"pa_alpha": [32, 128], "pa_delta": [0, 0.5]},
        flags={"alpha": "pa_alpha", "delta": "pa_delta"},
    ),
}
VARIANTS = tuple(LOSSES)
PROXY_VARIANTS = tuple(v for v, spec in LOSSES.items() if spec.proxies is not None)


def dml_loss(
    batch: EmbeddingBatch,
    config: LossConfig,
    bank: ProxyBank | None = None,
    rng: Rng | None = None,
) -> LossOutput:
    """Evaluate the configured metric-learning loss on one batch, as its
    `LOSSES` row calls it: the row's `mine` picks the structure once (with
    `rng` where it subsamples), an empty structure gives a zero
    contribution (no valid triplet, no class with two members, every
    class a singleton), and otherwise the row's `call` takes it. The
    gradients are read before it returns, so the step's backward pass
    runs, and a non-finite gradient raises, inside this call.
    """
    spec = LOSSES[config.variant]
    if spec.call is None:
        raise ConfigError(f"{config.variant} is not a metric-learning loss")
    if spec.proxies is not None and bank is None:
        raise ConfigError(f"{config.variant} requires a proxy bank")
    structure = spec.mine(batch, rng) if spec.mine is not None else None
    if structure is not None and len(structure) == 0:
        return zero_output(batch)
    out = spec.call(batch, config, bank, structure)
    out.gradients()
    return out
