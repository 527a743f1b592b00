"""Forward values and analytic gradients for the training objectives.

Seven losses: categorical cross-entropy plus six metric-learning objectives
(triplet, n-pairs, supervised contrastive, and the proxy-based trio:
proxy-NCA, soft-triple, proxy-anchor). Every loss returns a `LossOutput`
carrying the scalar value, the gradient w.r.t. the batch embeddings, and,
for proxy-based losses, the gradient w.r.t. the proxy bank. Gradients are
derived by hand and verified against the central-difference oracle in the
test suite; there is no autograd anywhere.

`LOSSES`, at the end of the module, is the one table of variants: per loss
it holds the miner that picks the structure the loss needs from a batch
(if any) and the call that computes the loss on that structure, whether
it trains a proxy bank and with how many proxies per class, its full and
desk hyperparameter grids, and which CLI flags set its `LossConfig`
fields. `VARIANTS`, `PROXY_VARIANTS`, `dml_loss` (and so the trainer), the
harness grids, the CLI and the gradient check all read it; cce's row is
empty, as the trainer runs the classifier loss itself.

Conventions:

* triplet uses squared Euclidean distances and one margin over an int64
  (T, 3) array of (anchor, positive, negative) row indices in [0, L);
* n-pairs takes an int64 (P, 2) array of (anchor, positive) rows and
  contrasts each anchor with the other classes' rows among the pairs;
* proxy-NCA and soft-triple L2-normalize embeddings and proxies internally
  (gradients are still w.r.t. the raw inputs, chained through the
  normalization); proxy-anchor normalizes implicitly via cosine similarity;
* proxy-NCA's denominator ranges over the non-target proxies only, so its
  value can go negative;
* mixing happens through `combined_loss`, an affine blend with weight
  `beta` on the cross-entropy side.
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
    log_sum_exp,
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
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise LabelError(f"labels must lie in [0, {self.num_classes})")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class LossOutput:
    value: float
    grad_embeddings: np.ndarray
    grad_proxies: np.ndarray | None = None

    def __post_init__(self):
        # a non-finite loss is a diverging run, which poisons its grid cell
        self.value = float(self.value)
        if not np.isfinite(self.value):
            raise TrainingDivergedError("loss value is not finite")
        if not np.all(np.isfinite(self.grad_embeddings)):
            raise TrainingDivergedError("embedding gradient contains NaN or Inf")
        if self.grad_proxies is not None and not np.all(np.isfinite(self.grad_proxies)):
            raise TrainingDivergedError("proxy gradient contains NaN or Inf")


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
    if np.any(labels < 0) or np.any(labels >= c):
        raise LabelError(f"labels must lie in [0, {c})")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise ConfigError("probability rows must sum to 1")
    picked = np.clip(probs[np.arange(n), labels], PROB_FLOOR, 1.0)
    value = -float(np.log(picked).sum()) / n
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return LossOutput(value, grad)


# ---------------------------------------------------------------------------
# triplet


def triplet_loss(batch: EmbeddingBatch, triplets, margin: float) -> LossOutput:
    """Sum of hinge terms [d²(a,p) - d²(a,n) + margin]+ over the given triplets.

    `triplets` is a (T, 3) int array of (anchor, positive, negative) rows,
    each index in [0, L), under one margin. Squared Euclidean distances;
    the subgradient at the hinge kink is zero. The first invalid row raises
    the first of the checks below that it fails. The terms are computed for
    all triplets at once but summed in triplet order, and each active
    triplet scatters its (anchor, positive, negative) rows in that order,
    so the result is the same to the bit as taking one triplet at a time.
    """
    idx = np.asarray(triplets)
    if idx.size == 0:
        raise InvalidTripletError("need at least one triplet")
    if idx.ndim != 2 or idx.shape[1] != 3 or idx.dtype.kind not in "iu":
        raise DimensionError(f"triplets must be integers of shape (T, 3), got {idx.dtype} {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    z = batch.embeddings
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
    ap = z[a] - z[p]
    an = z[a] - z[n]
    # stacked (1, d) @ (d, 1) products are the same BLAS dots as ap @ ap per row
    slack = (ap[:, None, :] @ ap[:, :, None] - an[:, None, :] @ an[:, :, None])[:, 0, 0] + margin
    hit = slack > 0.0
    grad = np.zeros(z.shape)  # C-ordered whatever z's layout, for add_rows_at
    if not hit.any():
        return LossOutput(0.0, grad)
    value = float(np.cumsum(slack[hit])[-1])
    ap, an = ap[hit], an[hit]
    rows = idx[hit].ravel()
    steps = np.stack((2.0 * (ap - an), -2.0 * ap, 2.0 * an), axis=1)
    add_rows_at(grad, rows, steps)
    return LossOutput(value, grad)


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


# ---------------------------------------------------------------------------
# n-pairs


def npairs_loss(batch: EmbeddingBatch, pairs) -> LossOutput:
    """Softmax of the anchor-positive dot product against anchor-negative ones.

    `pairs` is a (P, 2) int array of (anchor, positive) rows, each index in
    [0, L), every anchor in one pair only. An anchor's negatives are the
    rows of other classes that appear in `pairs`, ascending (Sohn, NeurIPS
    2016: the other pairs' members). The value and the gradient are
    averaged over the pairs, taken in their given order.
    """
    idx = np.asarray(pairs)
    if idx.size == 0:
        raise PairingError("need at least one (anchor, positive) pair")
    if idx.ndim != 2 or idx.shape[1] != 2 or idx.dtype.kind not in "iu":
        raise DimensionError(f"pairs must be integers of shape (P, 2), got {idx.dtype} {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    labels = batch.labels
    if np.any((idx < 0) | (idx >= batch.size)):
        raise PairingError(f"pair indices must lie in [0, {batch.size})")
    anchors, positives = idx.T
    if np.any(anchors == positives):
        raise PairingError("an anchor cannot be its own positive")
    if np.any(labels[anchors] != labels[positives]):
        raise PairingError("an anchor and its positive differ in class")
    if np.unique(anchors).size != anchors.size:
        raise PairingError("an anchor appears in more than one pair")
    z = batch.embeddings
    members = np.unique(idx)
    grad = np.zeros_like(z)
    value = 0.0
    for i, pos in idx.tolist():
        rows = np.concatenate(([pos], members[labels[members] != labels[i]]))
        scores = z[rows] @ z[i]
        lse = log_sum_exp(scores)
        value += lse - float(scores[0])
        coeff = np.exp(scores - lse)
        coeff[0] -= 1.0
        grad[i] += coeff @ z[rows]
        grad[rows] += np.outer(coeff, z[i])
    return LossOutput(value / len(idx), grad / len(idx))


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


def supcon_loss(batch: EmbeddingBatch, tau: float) -> LossOutput:
    """Supervised contrastive loss over raw dot products at temperature tau.

    Every batch member is an anchor; its positives are all same-class
    others and the contrast set is everything else in the batch. Anchors
    without a positive contribute zero (singleton classes are common in
    few-shot batches); a batch where no anchor has one is degenerate.
    """
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    z = batch.embeddings
    labels = batch.labels
    length = batch.size
    sims = (z @ z.T) / tau
    grad = np.zeros_like(z)
    value = 0.0
    any_anchor = False
    for i in range(length):
        positives = np.nonzero(labels == labels[i])[0]
        positives = positives[positives != i]
        if positives.size == 0:
            continue
        any_anchor = True
        others = np.concatenate((np.arange(i), np.arange(i + 1, length)))
        row = sims[i, others]
        lse = log_sum_exp(row)
        value += lse - float(sims[i, positives].mean())
        coeff = np.exp(row - lse)
        pos_mask = labels[others] == labels[i]
        coeff[pos_mask] -= 1.0 / positives.size
        grad[i] += (coeff @ z[others]) / tau
        grad[others] += np.outer(coeff, z[i]) / tau
    if not any_anchor:
        raise DegenerateBatchError("no anchor in the batch has a positive")
    return LossOutput(value, grad)


# ---------------------------------------------------------------------------
# proxy-NCA


def proxynca_loss(
    batch: EmbeddingBatch,
    bank: ProxyBank,
    scale: float,
    normalize: bool = True,
) -> LossOutput:
    """Negative log-ratio of the target-proxy term over the non-target proxies.

    Distances are plain Euclidean, scaled by `scale` inside both exponents.
    The denominator excludes the target proxy, so the value can be negative.
    With `normalize` (the training default) embeddings and proxies are
    L2-normalized first and the returned gradients chain back to the raw
    inputs; the raw geometry is available with normalize=False.
    """
    if scale <= 0.0:
        raise ConfigError("scale must be positive")
    if bank.proxies_per_class != 1:
        raise ConfigError("proxy-NCA needs exactly one proxy per class")
    if bank.classes < 2:
        raise DegenerateBatchError("proxy-NCA needs >= 2 classes for its denominator")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
    z_raw = batch.embeddings
    p_raw = bank.matrix
    z = l2_normalize_rows(z_raw) if normalize else z_raw
    p = l2_normalize_rows(p_raw) if normalize else p_raw
    n = batch.size
    grad_z = np.zeros_like(z)
    grad_p = np.zeros_like(p)
    value = 0.0
    for i in range(n):
        y = int(batch.labels[i])
        diffs = z[i] - p  # (C, d)
        dists = np.linalg.norm(diffs, axis=1)
        # unit direction of d(z, p_c) w.r.t. z; subgradient 0 at d == 0
        safe = np.where(dists > 0.0, dists, 1.0)
        dirs = diffs / safe[:, None]
        dirs[dists == 0.0] = 0.0
        others = np.concatenate((np.arange(y), np.arange(y + 1, bank.classes)))
        neg_scores = -scale * dists[others]
        lse = log_sum_exp(neg_scores)
        value += scale * float(dists[y]) + lse
        grad_z[i] += (scale / n) * dirs[y]
        grad_p[y] -= (scale / n) * dirs[y]
        weights = np.exp(neg_scores - lse)
        pull = (scale / n) * weights[:, None] * dirs[others]
        grad_z[i] -= pull.sum(axis=0)
        grad_p[others] += pull
    value /= n
    if normalize:
        grad_z = normalize_backward(z_raw, grad_z)
        grad_p = normalize_backward(p_raw, grad_p)
    return LossOutput(value, grad_z, grad_p)


# ---------------------------------------------------------------------------
# soft-triple


def softtriple_loss(
    batch: EmbeddingBatch,
    bank: ProxyBank,
    scale: float,
    gamma: float,
    delta: float,
) -> LossOutput:
    """Cross-entropy over relaxed class similarities with K proxies per class.

    The per-class similarity is the softmax(s/gamma)-weighted mean of the
    K proxy similarities; the margin `delta` is subtracted from the true
    class only, and `scale` multiplies every logit. Embeddings and proxies
    are L2-normalized before the inner products; gradients flow through
    the softmax weights, the similarities, and the normalization.
    """
    if gamma <= 0.0:
        raise ConfigError("gamma must be positive")
    if scale <= 0.0:
        raise ConfigError("scale must be positive")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
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
    rows = np.arange(n)
    logits[rows, batch.labels] -= scale * delta
    probs = softmax_rows(logits)
    picked = np.clip(probs[rows, batch.labels], PROB_FLOOR, 1.0)
    value = -float(np.log(picked).sum()) / n

    grad_relaxed = probs.copy()
    grad_relaxed[rows, batch.labels] -= 1.0
    grad_relaxed *= scale / n  # (L, C)

    # dS'/ds_k = a_k + (a_k / gamma) (s_k - S')
    inner = weights * (1.0 + (sims - relaxed[:, :, None]) / gamma)
    grad_sims = grad_relaxed[:, :, None] * inner  # (L, C, K)

    grad_z = np.einsum("lck,ckd->ld", grad_sims, w)
    grad_w = np.einsum("lck,ld->ckd", grad_sims, z).reshape(classes * per_class, d)
    return LossOutput(value, normalize_backward(z_raw, grad_z), normalize_backward(w_raw, grad_w))


# ---------------------------------------------------------------------------
# proxy-anchor


def proxyanchor_loss(
    batch: EmbeddingBatch,
    bank: ProxyBank,
    alpha: float,
    delta: float,
) -> LossOutput:
    """Proxies act as anchors: a softplus pull toward each in-batch class
    proxy and a push from every proxy's out-of-class batch members.

    Cosine similarities throughout; the pull term averages over the proxies
    whose class appears in the batch, the push term over all proxies. Inner
    sums go through log-sum-exp + log1p so large `alpha` cannot overflow.
    """
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    if delta < 0.0:
        raise ConfigError("delta must be >= 0")
    if bank.proxies_per_class != 1:
        raise ConfigError("proxy-anchor needs exactly one proxy per class")
    if batch.num_classes > bank.classes:
        raise LabelError("batch classes exceed the proxy bank")
    z_raw = batch.embeddings
    p_raw = bank.matrix
    z = l2_normalize_rows(z_raw)
    p = l2_normalize_rows(p_raw)
    sims = z @ p.T  # (L, C) cosine similarities
    labels = batch.labels
    classes = bank.classes
    present = sorted(set(int(c) for c in labels))

    grad_sims = np.zeros_like(sims)
    value = 0.0
    for c in present:
        members = np.nonzero(labels == c)[0]
        x = -alpha * (sims[members, c] - delta)
        lse = log_sum_exp(x)
        value += softplus(lse) / len(present)
        coeff = sigmoid(lse) * np.exp(x - lse)
        grad_sims[members, c] += (-alpha / len(present)) * coeff
    for c in range(classes):
        outsiders = np.nonzero(labels != c)[0]
        if outsiders.size == 0:
            continue
        x = alpha * (sims[outsiders, c] + delta)
        lse = log_sum_exp(x)
        value += softplus(lse) / classes
        coeff = sigmoid(lse) * np.exp(x - lse)
        grad_sims[outsiders, c] += (alpha / classes) * coeff

    grad_z = normalize_backward(z_raw, grad_sims @ p)
    grad_p = normalize_backward(p_raw, grad_sims.T @ z)
    return LossOutput(value, grad_z, grad_p)


# ---------------------------------------------------------------------------
# blending


def combined_loss(cce: LossOutput, dml: LossOutput, beta: float) -> LossOutput:
    """Affine blend: beta * cce + (1 - beta) * dml, for value and every gradient.

    Only the metric side carries proxy gradients; its share is
    (1 - beta) * grad_proxies. At the endpoints the dominant side is
    returned exactly (copies, with zero proxy gradients at beta=1), which
    keeps beta=1 runs bit-identical to pure cross-entropy runs.
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
    if beta == 0.0:
        grad_p = dml.grad_proxies.copy() if dml.grad_proxies is not None else None
        return LossOutput(dml.value, dml.grad_embeddings.copy(), grad_p)
    grad_p = np.zeros(dml.grad_proxies.shape) if dml.grad_proxies is not None else None
    if beta == 1.0:
        return LossOutput(cce.value, cce.grad_embeddings.copy(), grad_p)
    if grad_p is not None:
        # adding to zeros turns a -0.0 share into +0.0
        grad_p += (1.0 - beta) * dml.grad_proxies
    value = beta * cce.value + (1.0 - beta) * dml.value
    grad_e = beta * cce.grad_embeddings + (1.0 - beta) * dml.grad_embeddings
    return LossOutput(value, grad_e, grad_p)


# ---------------------------------------------------------------------------
# the variant table


@dataclass(frozen=True)
class LossSpec:
    """One loss variant. Training (`dml_loss`) and the gradient check both
    take the structure from `mine` once and hand it to `call`. The callables
    look the loss functions up when they run, so a name patched on this
    module is the one called."""

    # (batch, rng) -> the int64 index array the loss needs: triplets (T, 3),
    # n-pairs (P, 2), supcon's rows with a positive; None when it needs none
    mine: Callable[..., np.ndarray] | None = None
    # (batch, config, bank, structure) -> LossOutput; None for cce
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
        call=lambda batch, config, bank, triplets: triplet_loss(batch, triplets, config.margin),
        full_grid={"margin": [1, 3, 5, 7, 9]},
        desk_grid={"margin": [1, 5, 9]},
        flags={"margin": "margin"},
    ),
    "npairs": LossSpec(
        mine=lambda batch, rng: select_npairs_pairs(batch.labels, rng),
        call=lambda batch, config, bank, pairs: npairs_loss(batch, pairs),
        full_grid={},
        desk_grid={},
    ),
    "supcon": LossSpec(
        mine=lambda batch, rng: np.flatnonzero(np.bincount(batch.labels)[batch.labels] > 1),
        call=lambda batch, config, bank, anchors: supcon_loss(batch, config.tau),
        full_grid={"tau": [0.1, 0.3, 0.5, 0.7, 0.9]},
        desk_grid={"tau": [0.1, 0.5, 0.9]},
        flags={"tau": "tau"},
    ),
    "proxynca": LossSpec(
        call=lambda batch, config, bank, structure: proxynca_loss(
            batch, bank, config.softmax_scale
        ),
        proxies=lambda config: 1,
        full_grid={"softmax_scale": [0.4, 0.6, 0.8, 1, 1.2, 1.4, 1.6, 1.8, 2, 3, 5]},
        desk_grid={"softmax_scale": [0.4, 1, 2, 5]},
        flags={"softmax_scale": "softmax_scale"},
    ),
    "softtriple": LossSpec(
        call=lambda batch, config, bank, structure: softtriple_loss(
            batch, bank, config.st_lambda, config.st_gamma, config.st_delta
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
        call=lambda batch, config, bank, structure: proxyanchor_loss(
            batch, bank, config.pa_alpha, config.pa_delta
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
    class a singleton), and otherwise the row's `call` takes it.
    """
    spec = LOSSES[config.variant]
    if spec.call is None:
        raise ConfigError(f"{config.variant} is not a metric-learning loss")
    if spec.proxies is not None and bank is None:
        raise ConfigError(f"{config.variant} requires a proxy bank")
    structure = spec.mine(batch, rng) if spec.mine is not None else None
    if structure is not None and len(structure) == 0:
        return zero_output(batch)
    return spec.call(batch, config, bank, structure)
