"""One plain reference per package function that the equivalence tests
check bit for bit.

Each is the plainest loop that gives the function's bits today, one
element, row, pair, class, text or block at a time, and its docstring
states the formula it implements. A numeric change to a package function
edits its one reference here. The references, by package module:

- numeric: `old_permutation` (`Rng.permutation`), `old_choice`
  (`Rng.choice`), `old_log_sum_exp` (`log_sum_exp_rows`),
  `old_l2_normalize_rows` (`l2_normalize_rows`), `old_normalize_backward`
  (`normalize_backward`) and `mix64_reference` (the SplitMix64 finalizer
  behind `Rng`);
- losses: `old_mine_triplets`, `old_triplet_loss`, `old_supcon_loss`,
  `old_proxynca_loss` and `old_proxyanchor_loss`, each for the function
  without `old_`; `old_npairs_pairs_loss` (`npairs_loss`) and
  `old_npairs_step` (`dml_loss` on n-pairs, which mines with
  `select_npairs_pairs`);
- encoder: `eager_init_encoder` (`init_encoder`), `old_forward_batch`,
  `old_backward_batch` and `decayed_eagerly` (`EncoderParams.defer_decay`);
- trainer: `OldAdamW` (`AdamW`) and `dense_train` (`train`);
- harness: `old_synth` (`synth_dataset`) and `old_largest_remainder_quotas`
  (`_largest_remainder_quotas`).
"""

import math

import numpy as np

from dmlbench import trainer
from dmlbench.encoder import EncoderParams, block_shapes, classify_logits, tokenize
from dmlbench.errors import (
    ConfigError,
    DegenerateBatchError,
    DegenerateVectorError,
    DimensionError,
    InvalidTripletError,
    LabelError,
    PairingError,
)
from dmlbench.harness import NOISE_POOL
from dmlbench.losses import EmbeddingBatch, LossOutput, cce_loss, combined_loss, dml_loss, zero_output
from dmlbench.numeric import (
    Rng,
    derive_seed,
    l2_normalize_rows,
    normalize_backward,
    sigmoid,
    softmax_rows,
    softplus,
)
from dmlbench.proxies import init_proxies
from dmlbench.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, lr_schedule

# ---------------------------------------------------------------------------
# numeric


def old_permutation(rng: Rng, n: int) -> np.ndarray:
    """Fisher-Yates from the end: for i = n-1 .. 1, swap i with
    j = rng.randint(i + 1), one draw per swap."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def old_choice(rng: Rng, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates from the front: for i = 0 .. k-1, swap i with
    j = i + rng.randint(n - i); the first k entries, in draw order."""
    if k > n:
        raise ValueError(f"cannot draw {k} distinct values from {n}")
    pool = np.arange(n)
    for i in range(k):
        j = i + rng.randint(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


def old_log_sum_exp(xs) -> float:
    """log sum exp(x) = m + log sum exp(x - m) with m = max x, and m alone
    for one entry; refuses NaN, Inf and an empty vector."""
    x = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DimensionError("vector contains NaN or Inf")
    if x.size == 0:
        raise DimensionError("log_sum_exp of empty vector")
    m = float(np.max(x))
    if x.size == 1:
        return m
    return m + float(np.log(np.sum(np.exp(x - m))))


def old_l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Each row of m, read C-ordered, over its norm from
    `np.linalg.norm(m, axis=1)`; a zero norm raises, and then a non-finite
    one."""
    m = np.ascontiguousarray(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise DegenerateVectorError("cannot normalize zero-norm row")
    if not np.isfinite(norms).all():
        raise DegenerateVectorError("row norm is not finite")
    return m / norms


def old_normalize_backward(raw: np.ndarray, grad_unit: np.ndarray) -> np.ndarray:
    """For one row x with u = x / |x|: dL/dx = (g - (g . u) u) / |x|."""
    r = float(np.linalg.norm(raw))
    u = raw / r
    return (grad_unit - (grad_unit @ u) * u) / r


def mix64_reference(x: int) -> int:
    """The SplitMix64 finalizer on Python integers, straight from the
    published constants: x ^= x >> 30; x *= 0xBF58476D1CE4E5B9;
    x ^= x >> 27; x *= 0x94D049BB133111EB; x ^= x >> 31, modulo 2^64."""
    mask = (1 << 64) - 1
    x &= mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return (x ^ (x >> 31)) & mask


# ---------------------------------------------------------------------------
# losses


def old_mine_triplets(batch: EmbeddingBatch, rng: Rng | None = None, cap: int = 512) -> list:
    """Every (a, p, n) with label(p) = label(a), p != a and label(n) !=
    label(a), in (a, p, n) order; above `cap` of them, the ones at the
    sorted positions of old_choice(rng, total, cap)."""
    labels = batch.labels
    triples = []
    for a in range(batch.size):
        positives = np.nonzero(labels == labels[a])[0]
        negatives = np.nonzero(labels != labels[a])[0]
        for p in positives:
            if p == a:
                continue
            for n in negatives:
                triples.append((a, int(p), int(n)))
    if len(triples) > cap:
        if rng is None:
            raise ConfigError(f"{len(triples)} triplets exceed cap {cap}; rng required")
        keep = old_choice(rng, len(triples), cap)
        triples = [triples[i] for i in sorted(keep)]
    return triples


def old_triplet_loss(batch: EmbeddingBatch, triplets, margin: float) -> tuple[float, np.ndarray]:
    """sum over triplets of max(0, |z_a - z_p|² - |z_a - z_n|² + margin),
    one triplet at a time, each checked first, and its gradient."""
    triplets = list(triplets)
    if not triplets:
        raise InvalidTripletError("need at least one triplet")
    z, labels = batch.embeddings, batch.labels
    grad = np.zeros_like(z)
    value = 0.0
    for a, p, n in triplets:
        if not all(0 <= i < labels.size for i in (a, p, n)):
            raise InvalidTripletError(f"indices must lie in [0, {labels.size}), got ({a}, {p}, {n})")
        if len({a, p, n}) != 3:
            raise InvalidTripletError(f"indices must be distinct, got ({a}, {p}, {n})")
        if labels[a] != labels[p]:
            raise InvalidTripletError(f"anchor {a} and positive {p} differ in class")
        if labels[a] == labels[n]:
            raise InvalidTripletError(f"anchor {a} and negative {n} share a class")
        if margin < 0.0:
            raise InvalidTripletError("margin must be >= 0")
        ap = z[a] - z[p]
        an = z[a] - z[n]
        slack = float(ap @ ap - an @ an) + margin
        if slack > 0.0:
            value += slack
            grad[a] += 2.0 * (ap - an)
            grad[p] -= 2.0 * ap
            grad[n] += 2.0 * an
    return value, grad


def old_npairs_pairs_loss(batch: EmbeddingBatch, pairs) -> LossOutput:
    """Mean over the pairs (i, p) of lse(z_r . z_i) - z_p . z_i, where r
    runs over p and then the pairs' rows of other classes, in row order;
    one pair at a time, each pair's gradient added as it goes."""
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
        lse = old_log_sum_exp(scores)
        value += lse - float(scores[0])
        coeff = np.exp(scores - lse)
        coeff[0] -= 1.0
        grad[i] += coeff @ z[rows]
        grad[rows] += np.outer(coeff, z[i])
    return LossOutput(value / len(idx), grad / len(idx))


def old_npairs_step(batch: EmbeddingBatch, rng: Rng) -> LossOutput:
    """The trainer's n-pairs step: from each class of two or more rows, in
    label order, its two rows (drawn by rng.choice(size, 2) when it has
    more), each the other's positive; old_npairs_pairs_loss over those
    pairs, anchors ascending, or zero when no class has two rows."""
    partner = {}
    for cls in np.unique(batch.labels):
        members = np.nonzero(batch.labels == cls)[0]
        if members.size < 2:
            continue
        a, b = members if members.size == 2 else members[rng.choice(members.size, 2)]
        partner[int(a)], partner[int(b)] = int(b), int(a)
    if not partner:
        return zero_output(batch)
    return old_npairs_pairs_loss(batch, sorted(partner.items()))


def old_supcon_loss(batch: EmbeddingBatch, tau: float) -> LossOutput:
    """sum over anchors i with a positive of lse_{j != i}(s_ij) - mean over
    positives p of s_ip, with s = z z^T / tau; one anchor at a time."""
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
        lse = old_log_sum_exp(row)
        value += lse - float(sims[i, positives].mean())
        coeff = np.exp(row - lse)
        pos_mask = labels[others] == labels[i]
        coeff[pos_mask] -= 1.0 / positives.size
        grad[i] += (coeff @ z[others]) / tau
        grad[others] += np.outer(coeff, z[i]) / tau
    if not any_anchor:
        raise DegenerateBatchError("no anchor in the batch has a positive")
    return LossOutput(value, grad)


def old_proxynca_loss(batch, bank, scale: float) -> LossOutput:
    """Mean over rows i of scale d(z_i, p_y) + lse_{c != y}(-scale d(z_i,
    p_c)), with d the Euclidean distance between unit rows; one row at a
    time, chained back through the normalization."""
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
    z = l2_normalize_rows(z_raw)
    p = l2_normalize_rows(p_raw)
    n = batch.size
    grad_z = np.zeros_like(z)
    grad_p = np.zeros_like(p)
    value = 0.0
    for i in range(n):
        y = int(batch.labels[i])
        diffs = z[i] - p
        dists = np.linalg.norm(diffs, axis=1)
        safe = np.where(dists > 0.0, dists, 1.0)
        dirs = diffs / safe[:, None]
        dirs[dists == 0.0] = 0.0
        others = np.concatenate((np.arange(y), np.arange(y + 1, bank.classes)))
        neg_scores = -scale * dists[others]
        lse = old_log_sum_exp(neg_scores)
        value += scale * float(dists[y]) + lse
        grad_z[i] += (scale / n) * dirs[y]
        grad_p[y] -= (scale / n) * dirs[y]
        weights = np.exp(neg_scores - lse)
        pull = (scale / n) * weights[:, None] * dirs[others]
        grad_z[i] -= pull.sum(axis=0)
        grad_p[others] += pull
    value /= n
    return LossOutput(value, normalize_backward(z_raw, grad_z), normalize_backward(p_raw, grad_p))


def old_proxyanchor_loss(batch, bank, alpha: float, delta: float) -> LossOutput:
    """mean over present classes c of softplus(lse_{i in c}(-alpha (s_ic -
    delta))) plus mean over all classes c of softplus(lse_{i not in c}(alpha
    (s_ic + delta))), with s the cosines of rows and proxies; one class at
    a time, chained back through the normalization."""
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
        lse = old_log_sum_exp(x)
        value += softplus(lse) / len(present)
        coeff = sigmoid(lse) * np.exp(x - lse)
        grad_sims[members, c] += (-alpha / len(present)) * coeff
    for c in range(classes):
        outsiders = np.nonzero(labels != c)[0]
        if outsiders.size == 0:
            continue
        x = alpha * (sims[outsiders, c] + delta)
        lse = old_log_sum_exp(x)
        value += softplus(lse) / classes
        coeff = sigmoid(lse) * np.exp(x - lse)
        grad_sims[outsiders, c] += (alpha / classes) * coeff

    grad_z = normalize_backward(z_raw, grad_sims @ p)
    grad_p = normalize_backward(p_raw, grad_sims.T @ z)
    return LossOutput(value, grad_z, grad_p)


# ---------------------------------------------------------------------------
# encoder


def eager_init_encoder(num_classes, vocab_size, embed_dim, out_dim, rng: Rng) -> EncoderParams:
    """Every block drawn whole, normal(size, 0.1), in checkpoint order, the
    table first."""
    shapes = block_shapes(vocab_size, embed_dim, out_dim, num_classes)
    return EncoderParams(*(rng.normal(int(np.prod(s)), scale=0.1).reshape(s) for s in shapes))


def old_forward_batch(params: EncoderParams, token_lists) -> tuple[np.ndarray, np.ndarray]:
    """Text by text: pooled_i = (the text's table rows added in token order,
    from +0.0) / len(text), then z = tanh(pooled @ projection +
    projection_bias). Returns (z, pooled)."""
    table = params.embedding_table
    pooled = np.empty((len(token_lists), params.embed_dim))
    for i, ids in enumerate(token_lists):
        total = np.zeros(params.embed_dim)
        for token in ids:
            total += table[token]
        pooled[i] = total / len(ids)
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, pooled


def old_backward_batch(params: EncoderParams, token_lists, pooled, z, grad_embeddings) -> dict:
    """Through z = tanh(u): g_u = g_z (1 - z²); the projection gets pooled^T
    g_u and its bias the column sums of g_u; text by text, each distinct
    row of a text adds (count / len(text)) (g_u projection^T)_i. Returns
    every block's gradient, zero for the classifier's, keyed in order."""
    grads = {name: np.zeros_like(arr) for name, arr in params.blocks()}
    grad_z = np.array(grad_embeddings, dtype=np.float64, copy=True)
    grad_u = grad_z * (1.0 - z * z)
    grads["projection"] = pooled.T @ grad_u
    grads["projection_bias"] = grad_u.sum(axis=0)
    grad_pooled = grad_u @ params.projection.T
    table = grads["embedding_table"]
    for i, ids in enumerate(token_lists):
        uniq, counts = np.unique(np.asarray(ids, dtype=np.int64), return_counts=True)
        table[uniq] += (counts[:, None] / len(ids)) * grad_pooled[i]
    return grads


def decayed_eagerly(table: np.ndarray, fresh, lrs, weight_decay: float) -> None:
    """Every row of `table` outside `fresh`, in place, after one OldAdamW
    step of zero gradient per entry of `lrs`, in order: p -= lr (0 + wd p)."""
    stale = np.setdiff1d(np.arange(len(table)), fresh)
    rows = table[stale]
    opt = OldAdamW([("rows", rows)])
    for lr in lrs:
        opt.step({"rows": np.zeros_like(rows)}, lr, weight_decay)
    table[stale] = rows


# ---------------------------------------------------------------------------
# trainer


class OldAdamW:
    """AdamW block by block, with fresh temporaries and dense moments: the
    global norm |g| = sqrt(sum over blocks of sum g²), g *= clip / |g| when
    |g| > clip, then per block m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g²
    and p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p). Keeps each
    step's norm in `norms`."""

    def __init__(self, blocks, clip_norm=5.0):
        self.blocks = blocks
        self.clip_norm = clip_norm
        self.m = {name: np.zeros_like(arr) for name, arr in blocks}
        self.v = {name: np.zeros_like(arr) for name, arr in blocks}
        self.t = 0
        self.norms = []

    def step(self, grads, lr, weight_decay):
        sq = 0.0
        for name, _ in self.blocks:
            g = grads[name]
            sq += float((g * g).sum())
        norm = math.sqrt(sq)
        self.norms.append(norm)
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, param in self.blocks:
            g = grads[name] * scale
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            param -= lr * (update + weight_decay * param)


def dense_train(texts, labels, num_classes, config):
    """The training loop on the whole table: every step runs
    old_forward_batch, the metric loss for a metric variant, the
    classifier loss when w > 0, old_backward_batch and OldAdamW over every
    block, so every row decays at every step. Returns (params, bank, loss
    trace, the gradient norm of each step)."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(texts)
    loss_cfg, w = config.loss, config.ce_weight
    shuffle_rng = Rng(derive_seed(config.seed, "shuffle"))
    mining_rng = Rng(derive_seed(config.seed, "mining"))
    params = trainer.init_encoder(
        num_classes, config.vocab_size, config.embed_dim, config.out_dim,
        Rng(derive_seed(config.seed, "init")),
    )
    bank = None
    if loss_cfg.is_proxy_based:
        bank = init_proxies(
            num_classes, loss_cfg.proxies_per_class(), config.out_dim,
            Rng(derive_seed(config.seed, "proxies")),
        )
    tokenized = [tokenize(t, config.vocab_size) for t in texts]
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    blocks = params.blocks() + ([("proxies", bank.matrix)] if bank is not None else [])
    optimizer = OldAdamW(blocks, config.clip_norm)
    log = []
    step = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            yb = labels[chosen]
            lists = [tokenized[i] for i in chosen]
            z, pooled = old_forward_batch(params, lists)
            metric = ce = None
            if loss_cfg.is_metric:
                metric = dml_loss(EmbeddingBatch(z, yb, num_classes), loss_cfg, bank, mining_rng)
            if w > 0.0:
                c_out = cce_loss(softmax_rows(classify_logits(params, z)), yb)
                grad_logits = w * c_out.grad_embeddings
                ce = LossOutput(c_out.value, c_out.grad_embeddings @ params.classifier.T)
            out = metric if ce is None else ce if metric is None else combined_loss(ce, metric, w)
            log.append((step, out.value))
            grads = old_backward_batch(params, lists, pooled, z, out.grad_embeddings)
            if w > 0.0:
                grads["classifier"] = z.T @ grad_logits
                grads["classifier_bias"] = grad_logits.sum(axis=0)
            if bank is not None:
                grads["proxies"] = out.grad_proxies
            lr = lr_schedule(step, total_steps, config.lr, config.warmup_fraction)
            optimizer.step(grads, lr, config.weight_decay)
            if bank is not None:
                bank.matrix[:] = l2_normalize_rows(bank.matrix)
            step += 1
    return params, bank, log, optimizer.norms


# ---------------------------------------------------------------------------
# harness


def old_synth(num_classes, size, signal_tokens, noise, seed, tokens_per_text):
    """Class by class, text by text, token by token: a uniform below `noise`
    picks filler "n<randint(NOISE_POOL)>", else "c<c>t<randint(signal_tokens)>"."""
    rng = Rng(derive_seed(seed, "synth"))
    texts, labels = [], []
    base, extra = divmod(size, num_classes)
    for c in range(num_classes):
        for _ in range(base + (1 if c < extra else 0)):
            words = []
            for _ in range(tokens_per_text):
                if rng.random() < noise:
                    words.append(f"n{rng.randint(NOISE_POOL)}")
                else:
                    words.append(f"c{c}t{rng.randint(signal_tokens)}")
            texts.append(" ".join(words))
            labels.append(c)
    return texts, labels


def old_largest_remainder_quotas(counts: np.ndarray, shot: int) -> np.ndarray:
    """floor(shot * counts / total), leftover units by largest remainder
    (ties to the lower index), capped at the class sizes with the overflow
    moved to the class of most room, then one unit for each empty non-empty
    class from the largest quota while it exceeds 1; all of counts when
    shot >= total."""
    total = int(counts.sum())
    if shot >= total:
        return counts.copy()
    raw = shot * counts / total
    quota = np.floor(raw).astype(np.int64)
    remainder = raw - quota
    order = np.lexsort((np.arange(len(counts)), -remainder))
    for idx in order[: shot - int(quota.sum())]:
        quota[idx] += 1
    overflow = int(np.maximum(quota - counts, 0).sum())
    quota = np.minimum(quota, counts)
    while overflow > 0:
        spare = counts - quota
        if spare.max() <= 0:
            break
        quota[int(np.argmax(spare))] += 1
        overflow -= 1
    nonempty = int(np.count_nonzero(counts))
    if shot >= nonempty:
        for c in range(len(counts)):
            if counts[c] > 0 and quota[c] == 0:
                donor = int(np.argmax(quota))
                if quota[donor] <= 1:
                    break
                quota[donor] -= 1
                quota[c] = 1
    return quota
