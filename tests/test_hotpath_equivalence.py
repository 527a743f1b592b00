"""The vectorised training-step kernels against the per-element code they
replaced, bit for bit.

The reference implementations below are the earlier loops, kept here and
nowhere else: `Rng.permutation` / `Rng.choice` with one draw per call,
`mine_triplets` as a triple loop, `triplet_loss` one triplet at a time,
n-pairs on a sub-batch of two members per class scattered back,
per-text pooling and scatter in the encoder, pooling one token position
at a time, the encoder on token lists counted at every step, a backward
pass that allocates its gradient blocks, the eager init of the whole
table, AdamW with fresh temporaries and dense moments over every row,
AdamW block by block, `normalize_backward` one row
at a time, `synth_dataset` with two draws per token, and supcon and
proxy-NCA one anchor at a time, n-pairs one pair at a time and
proxy-anchor one class at a time, all four on the 1-D log-sum-exp.
Hypothesis varies the sizes; every comparison is on the raw bytes of the
results, so a difference in the last bit or in the sign of a zero fails.
"""

import dataclasses
import itertools
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlbench import losses, trainer
from dmlbench.encoder import (
    BLOCK_NAMES,
    EncoderParams,
    backward_batch,
    block_shapes,
    classify_logits,
    forward_batch,
    init_encoder,
    pack_tokens,
    save_encoder,
    tokenize,
)
from dmlbench.errors import (
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    InvalidTripletError,
    LabelError,
    PairingError,
)
from dmlbench.harness import NOISE_POOL, synth_dataset
from dmlbench.losses import (
    VARIANTS,
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    cce_loss,
    combined_loss,
    dml_loss,
    mine_triplets,
    npairs_loss,
    proxyanchor_loss,
    proxynca_loss,
    select_npairs_pairs,
    softtriple_loss,
    supcon_loss,
    triplet_loss,
    zero_output,
)
from dmlbench.numeric import (
    Rng,
    add_rows_at,
    block_views,
    derive_seed,
    l2_normalize_rows,
    log_sum_exp_rows,
    normalize_backward,
    sigmoid,
    softmax_rows,
    softplus,
)
from dmlbench.proxies import ProxyBank, init_proxies
from dmlbench.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamW,
    TrainConfig,
    lr_schedule,
    train,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# reference implementations


def old_permutation(rng: Rng, n: int) -> np.ndarray:
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def old_choice(rng: Rng, n: int, k: int) -> np.ndarray:
    if k > n:
        raise ValueError(f"cannot draw {k} distinct values from {n}")
    pool = np.arange(n)
    for i in range(k):
        j = i + rng.randint(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


def old_mine_triplets(batch, rng=None, cap=512):
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


def old_check_triplet(triplet, margin, labels):
    a, p, n = triplet
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


def old_triplet_loss(batch, triplets, margin):
    triplets = list(triplets)
    if not triplets:
        raise InvalidTripletError("need at least one triplet")
    z = batch.embeddings
    grad = np.zeros_like(z)
    value = 0.0
    for a, p, n in triplets:
        old_check_triplet((a, p, n), margin, batch.labels)
        ap = z[a] - z[p]
        an = z[a] - z[n]
        slack = float(ap @ ap - an @ an) + margin
        if slack > 0.0:
            value += slack
            grad[a] += 2.0 * (ap - an)
            grad[p] -= 2.0 * ap
            grad[n] += 2.0 * an
    return value, grad


def old_forward_batch(params, token_lists):
    pooled = np.empty((len(token_lists), params.embed_dim))
    for i, ids in enumerate(token_lists):
        pooled[i] = params.embedding_table[np.asarray(ids, dtype=np.int64)].mean(axis=0)
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, pooled


def old_backward_batch(params, token_lists, pooled, z, grad_embeddings):
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


def list_forward_batch(params, token_lists):
    """forward_batch on a list of token-id lists, as it was before packing."""
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    ids = np.fromiter(
        itertools.chain.from_iterable(token_lists), dtype=np.int64, count=int(lengths.sum())
    )
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longest_first = lengths[order]
    table = params.table_for(ids)
    sums = np.zeros((len(token_lists), params.embed_dim))
    for j in range(int(longest_first[0])):
        active = int(np.count_nonzero(longest_first > j))
        sums[:active] += table[ids[starts[:active] + j]]
    pooled = np.empty_like(sums)
    pooled[order] = sums / longest_first[:, None]
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, (ids, lengths, pooled)


def list_backward_batch(params, cache, grad_embeddings, z):
    """backward_batch with its np.unique over the (text, token) pairs at
    every call, as it was before packing."""
    ids, lengths, pooled = cache
    grads = {name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.blocks()}
    grad_u = np.asarray(grad_embeddings, dtype=np.float64) * (1.0 - z * z)
    grads["projection"] = pooled.T @ grad_u
    grads["projection_bias"] = grad_u.sum(axis=0)
    grad_pooled = grad_u @ params.projection.T
    vocab = params.vocab_size
    text_of = np.repeat(np.arange(lengths.size), lengths)
    pairs, counts = np.unique(text_of * vocab + ids, return_counts=True)
    texts, rows = np.divmod(pairs, vocab)
    shares = counts / lengths[texts]
    add_rows_at(grads["embedding_table"], rows, shares[:, None] * grad_pooled[texts])
    return grads


def position_forward_batch(params, batch):
    """forward_batch as it was before pooling by length: one gather and add
    per token position over every text still that long."""
    ids, lengths = batch.ids, batch.lengths
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longest_first = lengths[order]
    table = params.table_for(ids)
    sums = np.zeros((len(batch), params.embed_dim))
    for j in range(int(longest_first[0])):
        active = int(np.count_nonzero(longest_first > j))
        sums[:active] += table[ids[starts[:active] + j]]
    pooled = np.empty_like(sums)
    pooled[order] = sums / longest_first[:, None]
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, pooled


def allocating_backward_batch(params, cache, grad_embeddings):
    """backward_batch as it was before the flat gradient: five zeroed
    arrays allocated at every call and returned in a dict."""
    z = cache.embeddings
    batch = cache.batch
    dims = (params.vocab_size, params.embed_dim, params.out_dim, params.num_classes)
    grads = {name: np.zeros(shape) for name, shape in zip(BLOCK_NAMES, block_shapes(*dims))}
    grad_z = np.asarray(grad_embeddings, dtype=np.float64)
    grad_u = grad_z * (1.0 - z * z)
    grads["projection"] = cache.pooled.T @ grad_u
    grads["projection_bias"] = grad_u.sum(axis=0)
    grad_pooled = grad_u @ params.projection.T
    texts = np.repeat(np.arange(len(batch)), batch.widths)
    shares = batch.counts / batch.lengths[texts]
    add_rows_at(grads["embedding_table"], batch.rows, shares[:, None] * grad_pooled[texts])
    return grads


def backward_into_zeros(params, cache, grad_embeddings):
    """backward_batch's gradients, written into zeroed blocks keyed like
    params.blocks()."""
    grads = {name: np.zeros(arr.shape) for name, arr in params.blocks()}
    backward_batch(params, cache, grad_embeddings, grads)
    return grads


def flat_copy(named):
    """One vector holding the named arrays one after another, and its
    named views, as `train` lays out its blocks."""
    flat = np.concatenate([np.ravel(arr) for _, arr in named])
    return flat, block_views(flat, [(name, np.shape(arr)) for name, arr in named])


def flat_grad(grads, names):
    """The named gradient blocks as one vector, in the order of names."""
    return np.concatenate([np.ravel(grads[name]) for name in names])


def eager_init_encoder(num_classes, vocab_size, embed_dim, out_dim, rng):
    """init_encoder as it was before the table rows were drawn on read:
    every block drawn in checkpoint order, the table first."""
    shapes = block_shapes(vocab_size, embed_dim, out_dim, num_classes)
    return EncoderParams(*(rng.normal(int(np.prod(s)), scale=0.1).reshape(s) for s in shapes))


class OldAdamW:
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


class BlockAdamW:
    """AdamW as it was before the flat vector: per-block moments and work
    arrays in dicts, the ufunc chain run once per block. Its clip norm
    takes the compact sum of squares first and the dense one only when
    the compact one does not rule clipping out; `AdamW` no longer has that
    path, so this is its only copy, kept as the reference."""

    def __init__(self, blocks, clip_norm, sparse=None):
        self.blocks = blocks
        self.clip_norm = clip_norm
        self.sparse = {name: (np.asarray(rows, dtype=np.int64), total)
                       for name, (rows, total) in (sparse or {}).items()}
        self._no_clip_below = min(clip_norm * clip_norm, sys.float_info.max) * (1.0 - 1e-9)
        self.m = {name: np.zeros(arr.shape) for name, arr in blocks}
        self.v = {name: np.zeros(arr.shape) for name, arr in blocks}
        self._work = {name: (np.empty(arr.shape), np.empty(arr.shape)) for name, arr in blocks}
        self.t = 0

    def _sum_of_squares(self, grads, dense):
        sq = 0.0
        for name, _ in self.blocks:
            squares = np.square(grads[name], out=self._work[name][0])
            if dense and name in self.sparse:
                rows, total = self.sparse[name]
                full = np.zeros((total,) + squares.shape[1:])
                full[rows] = squares
                sq += float(full.sum())
            else:
                sq += float(squares.sum())
        return sq

    def step(self, grads, lr, weight_decay):
        sq = self._sum_of_squares(grads, dense=False)
        if self.sparse and not sq < self._no_clip_below:
            sq = self._sum_of_squares(grads, dense=True)
        norm = math.sqrt(sq)
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, param in self.blocks:
            g, tmp = self._work[name]
            np.multiply(grads[name], scale, out=g)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.square(g, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            v += tmp
            update = np.divide(m, bc1, out=g)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update /= tmp
            decayed = np.multiply(param, weight_decay, out=tmp)
            decayed += update
            decayed *= lr
            param -= decayed


# ---------------------------------------------------------------------------
# Rng


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300), start=st.integers(0, 5))
def test_permutation_matches_per_element_draws(seed, n, start):
    new, old = Rng(seed), Rng(seed)
    new.random(start), old.random(start)
    assert same_bits(new.permutation(n), old_permutation(old, n))
    assert new.counter == old.counter


@SETTINGS
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(0, 70000),
    frac=st.floats(0.0, 1.0),
    start=st.integers(0, 5),
)
def test_choice_matches_partial_fisher_yates(seed, n, frac, start):
    k = min(n, int(frac * min(n, 600)))
    new, old = Rng(seed), Rng(seed)
    new.random(start), old.random(start)
    assert same_bits(new.choice(n, k), old_choice(old, n, k))
    assert new.counter == old.counter


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_permutations_and_choices(n):
    for k in range(n + 1):
        new, old = Rng(5), Rng(5)
        assert same_bits(new.choice(n, k), old_choice(old, n, k))
        assert new.counter == old.counter
        assert same_bits(new.permutation(n), old_permutation(old, n))
        assert new.counter == old.counter


@SETTINGS
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 5),
    k=st.integers(0, 50),
    bound=st.integers(1, 2**53 - 1),
)
def test_a_scalar_draw_is_a_vector_draw(seed, start, k, bound):
    # random() is the one uniform of random(1), and randint(b) is floor(u * b)
    # of that uniform
    one, block = Rng(seed), Rng(seed)
    one.random(start), block.random(start)
    singles = [one.random() for _ in range(k)]
    assert all(type(u) is float for u in singles)
    assert same_bits(np.array(singles, dtype=np.float64), block.random(k))
    assert one.counter == block.counter
    u = block.random()
    assert one.randint(bound) == int(u * bound)
    assert one.counter == block.counter


@pytest.mark.parametrize("k", [4, -1])
def test_choice_rejects_k_outside_0_to_n_without_drawing(k):
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.choice(3, k)
    assert rng.counter == 0


# ---------------------------------------------------------------------------
# triplet mining and loss


@st.composite
def labelled_batches(draw, max_rows=24, max_dim=9):
    rows = draw(st.integers(1, max_rows))
    classes = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32))
    z = Rng(seed).normal(rows * dim).reshape(rows, dim)
    return EmbeddingBatch(z, np.array(labels), classes)


def as_tuples(triplets):
    return [tuple(t) for t in np.asarray(triplets, dtype=np.int64).reshape(-1, 3).tolist()]


@SETTINGS
@given(batch=labelled_batches(), cap=st.integers(0, 600), seed=st.integers(0, 2**32))
def test_mine_triplets_same_order_with_and_without_cap(batch, cap, seed):
    new_rng, old_rng = Rng(seed), Rng(seed)
    new = mine_triplets(batch, rng=new_rng, cap=cap)
    old = old_mine_triplets(batch, old_rng, cap)
    assert as_tuples(new) == as_tuples(old)
    assert new.dtype == np.int64 and new.shape == (len(old), 3)
    assert new_rng.counter == old_rng.counter
    uncapped = mine_triplets(batch, rng=None, cap=10**9)
    assert as_tuples(uncapped) == as_tuples(old_mine_triplets(batch, None, 10**9))


def test_mine_triplets_full_batch_of_two_classes():
    # the benchmark's shape: 64 rows, two classes, 63488 triples capped at 512
    labels = np.array([i % 2 for i in range(64)])
    batch = EmbeddingBatch(Rng(3).normal(64 * 4).reshape(64, 4), labels, 2)
    new_rng, old_rng = Rng(9), Rng(9)
    assert as_tuples(mine_triplets(batch, rng=new_rng)) == as_tuples(
        old_mine_triplets(batch, old_rng)
    )
    assert new_rng.counter == old_rng.counter == 512


@SETTINGS
@given(
    batch=labelled_batches(max_dim=40),
    margin=st.sampled_from([0.0, 0.05, 1.0, 50.0]),
    seed=st.integers(0, 2**32),
)
def test_triplet_loss_matches_per_triplet_loop(batch, margin, seed):
    specs = mine_triplets(batch, rng=Rng(seed), cap=200)
    if not len(specs):
        return
    out = triplet_loss(batch, specs, margin)
    value, grad = old_triplet_loss(batch, specs, margin)
    assert same_bits(out.value, value)
    assert same_bits(out.grad_embeddings, grad)


@SETTINGS
@given(
    batch=labelled_batches(max_rows=8),
    raw=st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
        min_size=1,
        max_size=12,
    ),
    margin=st.sampled_from([1.0, 0.0, -0.5]),
)
def test_triplet_loss_raises_what_the_loop_raised(batch, raw, margin):
    try:
        expected = old_triplet_loss(batch, raw, margin)
    except Exception as exc:  # the same type and message, or no error at all
        with pytest.raises(type(exc)) as got:
            triplet_loss(batch, raw, margin)
        assert str(got.value) == str(exc)
        return
    out = triplet_loss(batch, raw, margin)
    assert same_bits(out.value, expected[0])
    assert same_bits(out.grad_embeddings, expected[1])


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_triplet_loss_gradient_for_any_memory_layout(layout):
    if layout == "fortran":
        z = np.asfortranarray(Rng(4).normal(10 * 6).reshape(10, 6))
    else:
        z = Rng(4).normal(6 * 10).reshape(6, 10).T
    assert not z.flags.c_contiguous
    batch = EmbeddingBatch(z, np.array([i % 3 for i in range(10)]), 3)
    specs = mine_triplets(batch, rng=Rng(2), cap=40)
    out = triplet_loss(batch, specs, 5.0)
    value, grad = old_triplet_loss(batch, specs, 5.0)
    assert np.any(grad != 0.0)
    assert same_bits(out.value, value)
    assert same_bits(out.grad_embeddings, grad)


def test_add_rows_at_refuses_a_target_it_cannot_view_flat():
    target = np.asfortranarray(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="C-contiguous"):
        add_rows_at(target, np.array([1]), np.ones((1, 3)))


def test_triplet_loss_rejects_empty_list():
    batch = EmbeddingBatch(np.eye(3), [0, 0, 1], 2)
    with pytest.raises(InvalidTripletError, match="at least one"):
        triplet_loss(batch, [], 1.0)


# ---------------------------------------------------------------------------
# n-pairs: the (P, 2) pair array against the sub-batch it replaced


def old_select_npairs_members(labels, rng=None):
    labels = np.asarray(labels)
    chosen = []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        if members.size < 2:
            continue
        if rng is None or members.size == 2:
            pick = members[:2]
        else:
            pick = members[rng.choice(members.size, 2)]
        chosen.extend(int(i) for i in pick)
    return np.array(sorted(chosen), dtype=np.int64)


def old_npairs_loss(batch):
    z = batch.embeddings
    labels = batch.labels
    anchors = []
    for i in range(batch.size):
        partners = np.nonzero(labels == labels[i])[0]
        partners = partners[partners != i]
        if partners.size > 1:
            raise PairingError(f"anchor {i} has {partners.size} positives, needs 1")
        if partners.size == 1:
            anchors.append((i, int(partners[0])))
    if not anchors:
        raise PairingError("no anchor has a positive partner")
    grad = np.zeros_like(z)
    value = 0.0
    for i, pos in anchors:
        negatives = np.nonzero(labels != labels[i])[0]
        idx = np.concatenate(([pos], negatives))
        scores = z[idx] @ z[i]
        lse = old_log_sum_exp(scores)
        value += lse - float(scores[0])
        coeff = np.exp(scores - lse)
        coeff[0] -= 1.0
        grad[i] += coeff @ z[idx]
        grad[idx] += np.outer(coeff, z[i])
    n_anchors = len(anchors)
    return LossOutput(value / n_anchors, grad / n_anchors)


def old_npairs_step(batch, rng):
    """The trainer's n-pairs call before pairs: a sub-batch of two members
    per class, its gradient scattered back into the full batch."""
    members = old_select_npairs_members(batch.labels, rng)
    if members.size < 2:
        return zero_output(batch)
    sub = EmbeddingBatch(batch.embeddings[members], batch.labels[members], batch.num_classes)
    out = old_npairs_loss(sub)
    grad = np.zeros_like(batch.embeddings)
    grad[members] = out.grad_embeddings
    return LossOutput(out.value, grad)


@SETTINGS
@given(
    batch=labelled_batches(max_rows=40, max_dim=40),
    seed=st.integers(0, 2**32),
    layout=st.sampled_from(["c", "fortran"]),
)
def test_npairs_step_matches_the_sub_batch(batch, seed, layout):
    if layout == "fortran":
        batch.embeddings = np.asfortranarray(batch.embeddings)
    new_rng, old_rng = Rng(seed), Rng(seed)
    new = dml_loss(batch, LossConfig("npairs"), None, new_rng)
    old = old_npairs_step(batch, old_rng)
    assert same_bits(new.value, old.value)
    assert same_bits(new.grad_embeddings, old.grad_embeddings)
    assert new_rng.counter == old_rng.counter


# ---------------------------------------------------------------------------
# supervised contrastive and proxy-NCA: the stacked passes against the
# per-anchor loops, on the 1-D log-sum-exp they called


def old_log_sum_exp(xs):
    x = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DimensionError("vector contains NaN or Inf")
    if x.size == 0:
        raise DimensionError("log_sum_exp of empty vector")
    m = float(np.max(x))
    if x.size == 1:
        return m
    return m + float(np.log(np.sum(np.exp(x - m))))


def old_supcon_loss(batch, tau):
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


def old_proxynca_loss(batch, bank, scale):
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


def assert_same_outcome(new, old):
    """new() raises what old() raised, of the same type and message, or
    both return outputs with the same bits. Returns the error type or None."""
    try:
        expected = old()
    except Exception as exc:
        with pytest.raises(Exception) as got:
            new()
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return type(exc)
    out = new()
    assert same_bits(out.value, expected.value)
    assert same_bits(out.grad_embeddings, expected.grad_embeddings)
    assert (out.grad_proxies is None) == (expected.grad_proxies is None)
    if out.grad_proxies is not None:
        assert same_bits(out.grad_proxies, expected.grad_proxies)
    return None


@st.composite
def wide_batches(draw):
    """Batches of 2-70 rows (often the benchmark's 64), d 1-64, 2-11
    classes (singletons among them), at scales where the exponentials
    saturate, in C or Fortran order."""
    rows = draw(st.just(64) | st.integers(2, 70))
    classes = draw(st.integers(2, 11))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    dim = draw(st.sampled_from([16, 32, 64]) | st.integers(1, 64))
    scale = draw(st.sampled_from([0.01, 1.0, 10.0]))
    z = Rng(draw(st.integers(0, 2**32))).normal(rows * dim).reshape(rows, dim) * scale
    batch = EmbeddingBatch(z, np.array(labels), classes)
    if draw(st.booleans()):
        batch.embeddings = np.asfortranarray(batch.embeddings)
    return batch


@given(xs=st.lists(st.floats(-700, 700) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=80))
@SETTINGS
def test_log_sum_exp_keeps_the_bits_of_the_1d_code(xs):
    expected = np.float64(old_log_sum_exp(xs))
    assert same_bits(log_sum_exp_rows([xs])[0], expected)
    assert same_bits(log_sum_exp_rows([xs, xs])[1], expected)


@SETTINGS
@given(batch=wide_batches(), tau=st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9, 2.0]))
def test_supcon_loss_matches_per_anchor_loop(batch, tau):
    assert_same_outcome(lambda: supcon_loss(batch, tau), lambda: old_supcon_loss(batch, tau))


@SETTINGS
@given(
    batch=wide_batches(),
    extra_classes=st.integers(0, 3),
    seed=st.integers(0, 2**32),
    touching=st.lists(st.integers(0, 69), max_size=4),
    scale=st.sampled_from([0.4, 1.0, 2.0, 5.0, 30.0]),
)
def test_proxynca_loss_matches_per_row_loop(batch, extra_classes, seed, touching, scale):
    classes = min(batch.num_classes + extra_classes, 11)
    dim = batch.embeddings.shape[1]
    proxies = Rng(seed).normal(classes * dim).reshape(classes, dim)
    for row in touching:  # rows at zero distance from their own or another proxy
        row %= batch.size
        proxies[(batch.labels[row] + row % 2) % classes] = batch.embeddings[row]
    bank = ProxyBank(proxies, classes, 1)
    assert_same_outcome(
        lambda: proxynca_loss(batch, bank, scale),
        lambda: old_proxynca_loss(batch, bank, scale),
    )


def test_proxy_bank_holds_its_matrix_c_ordered():
    # a bank reads any layout in C order, so a Fortran-ordered matrix gives
    # the bits of its C-ordered copy
    batch = EmbeddingBatch(Rng(6).normal(40 * 24).reshape(40, 24), np.arange(40) % 5, 5)
    proxies = Rng(7).normal(5 * 24).reshape(5, 24)
    expected = old_proxynca_loss(batch, ProxyBank(proxies, 5, 1), 1.7)
    for matrix in (proxies, np.asfortranarray(proxies)):
        bank = ProxyBank(matrix, 5, 1)
        assert bank.matrix.flags.c_contiguous
        for out in (proxynca_loss(batch, bank, 1.7), old_proxynca_loss(batch, bank, 1.7)):
            assert same_bits(out.value, expected.value)
            assert same_bits(out.grad_embeddings, expected.grad_embeddings)
            assert same_bits(out.grad_proxies, expected.grad_proxies)


def normalized_loss(loss, z, seed):
    labels = np.arange(len(z)) % 3
    per_class = 2 if loss == "softtriple" else 1
    proxies = l2_normalize_rows(Rng(seed + 1).normal(3 * per_class * 24).reshape(-1, 24))
    bank = ProxyBank(proxies, 3, per_class)
    batch = EmbeddingBatch(z, labels, 3)
    if loss == "proxynca":
        return proxynca_loss(batch, bank, 3.0)
    if loss == "softtriple":
        return softtriple_loss(batch, bank, 10.0, 0.1, 0.2)
    return proxyanchor_loss(batch, bank, 32.0, 0.1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", ["fortran", "transposed"])
@pytest.mark.parametrize("loss", ["proxynca", "softtriple", "proxyanchor"])
def test_normalized_losses_keep_the_bits_for_any_memory_layout(loss, layout, seed):
    # l2_normalize_rows reads its rows C-ordered: a strided row sum would
    # add its 24 squares in another order than the contiguous one
    z = Rng(seed).normal(12 * 24).reshape(12, 24)
    other = np.asfortranarray(z) if layout == "fortran" else np.ascontiguousarray(z.T).T
    assert not other.flags.c_contiguous
    expected, out = normalized_loss(loss, z, seed), normalized_loss(loss, other, seed)
    assert same_bits(out.value, expected.value)
    assert same_bits(out.grad_embeddings, expected.grad_embeddings)
    assert same_bits(out.grad_proxies, expected.grad_proxies)


@SETTINGS
@given(
    batch=wide_batches(),
    stack_rows=st.sampled_from([1, 2, 3, 7, 16]),
    tau=st.sampled_from([0.1, 0.5]),
    scale=st.sampled_from([1.0, 5.0]),
)
def test_stacked_losses_keep_the_bits_across_blocks(batch, stack_rows, tau, scale):
    # the running gradient sum enters each block first, so no block size
    # moves a bit
    bank = ProxyBank(Rng(8).normal(batch.num_classes * batch.embeddings.shape[1]).reshape(
        batch.num_classes, -1), batch.num_classes, 1)
    with mock.patch.object(losses, "STACK_ROWS", stack_rows):
        assert_same_outcome(lambda: supcon_loss(batch, tau), lambda: old_supcon_loss(batch, tau))
        assert_same_outcome(
            lambda: proxynca_loss(batch, bank, scale),
            lambda: old_proxynca_loss(batch, bank, scale),
        )


def test_supcon_loss_memory_grows_with_the_block_not_the_batch_squared():
    # beyond the (L, L) similarities, a pass holds about two (STACK_ROWS+1,
    # L, d) arrays, where one (A, L, d) array for all anchors would be 128 MiB
    length, dim = 1024, 16
    batch = EmbeddingBatch(Rng(9).normal(length * dim).reshape(length, dim), np.arange(length) % 50, 50)
    tracemalloc.start()
    try:
        supcon_loss(batch, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (length * length + 3 * (losses.STACK_ROWS + 1) * length * dim)


@st.composite
def overflowing_batches(draw):
    """Small batches with some rows near 1e150-1e300, whose products or
    distances overflow to Inf."""
    rows = draw(st.integers(2, 10))
    classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    dim = draw(st.integers(1, 5))
    z = Rng(draw(st.integers(0, 2**32))).normal(rows * dim).reshape(rows, dim)
    huge = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))
    z[huge] *= draw(st.sampled_from([1e150, 1e155, 1e200, 1e300]))
    return EmbeddingBatch(z, np.array(labels), classes)


@SETTINGS
@given(batch=overflowing_batches(), tau=st.sampled_from([0.1, 1.0]))
def test_supcon_loss_raises_what_the_loop_raised(batch, tau):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_outcome(lambda: supcon_loss(batch, tau), lambda: old_supcon_loss(batch, tau))


@SETTINGS
@given(
    batch=overflowing_batches(),
    big_proxy=st.sampled_from([1.0, 1e200]),
    # a scaled distance between unit rows overflows only at a huge scale
    scale=st.sampled_from([1.0, 5.0, 1e308]),
)
def test_proxynca_loss_raises_what_the_loop_raised(batch, big_proxy, scale):
    proxies = Rng(3).normal(batch.num_classes * batch.embeddings.shape[1])
    proxies = proxies.reshape(batch.num_classes, -1)
    proxies[0] *= big_proxy
    bank = ProxyBank(proxies, batch.num_classes, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_outcome(
            lambda: proxynca_loss(batch, bank, scale),
            lambda: old_proxynca_loss(batch, bank, scale),
        )


@pytest.mark.parametrize(
    "rows, labels, raised",
    [
        # anchors 0 and 1: their similarity overflows, and the loop raised
        ([[1e200, 0.0], [1e200, 0.0], [1.0, 1.0]], [0, 0, 1], DimensionError),
        # row 0 is no anchor: its own similarity overflows, but no anchor's row
        # holds it and the loop never raised
        ([[1e160, 0.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1], None),
    ],
)
def test_supcon_loss_reads_only_anchor_rows_for_overflow(rows, labels, raised):
    batch = EmbeddingBatch(np.array(rows), labels, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        got = assert_same_outcome(lambda: supcon_loss(batch, 0.5), lambda: old_supcon_loss(batch, 0.5))
    assert got is raised


def test_proxynca_loss_raises_on_an_overflowing_distance():
    # row 1 lies 2 from its non-target proxy: scaled by 1e308, that
    # distance overflows
    batch = EmbeddingBatch(np.array([[0.0, 1.0], [1.0, 0.0]]), [0, 1], 2)
    bank = ProxyBank(np.array([[-1.0, 0.0], [0.0, 1.0]]), 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = assert_same_outcome(
            lambda: proxynca_loss(batch, bank, 1e308),
            lambda: old_proxynca_loss(batch, bank, 1e308),
        )
    assert got is DimensionError


# ---------------------------------------------------------------------------
# n-pairs and proxy-anchor: the stacked passes against the per-pair and
# per-class loops, on the 1-D log-sum-exp they called


def old_npairs_pairs_loss(batch, pairs):
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


def old_proxyanchor_loss(batch, bank, alpha, delta):
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


@st.composite
def uneven_batches(draw, max_rows=40):
    """Batches of 1-40 rows whose classes differ in size: a class may have
    one member or none, and a batch may hold one class only. d 1-40, at
    scales where the exponentials saturate, in C or Fortran order."""
    classes = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 4), min_size=classes, max_size=classes))
    if not any(weights):
        weights[draw(st.integers(0, classes - 1))] = 1
    pool = [c for c, w in enumerate(weights) for _ in range(w)]
    rows = draw(st.integers(1, max_rows))
    labels = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
    dim = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([0.01, 1.0, 10.0]))
    z = Rng(draw(st.integers(0, 2**32))).normal(rows * dim).reshape(rows, dim) * scale
    batch = EmbeddingBatch(z, np.array(labels), classes)
    if draw(st.booleans()):
        batch.embeddings = np.asfortranarray(batch.embeddings)
    return batch


@st.composite
def hand_built_pairs(draw, batch):
    """Any valid (P, 2) pair array for the batch, in any order: each row of
    a class with two or more members may be an anchor, once, with any
    other member as its positive. Classes with different numbers of
    members among the pairs give the pairs different row counts, which the
    miner never does."""
    labels = batch.labels
    pairs = []
    for i, label in enumerate(labels.tolist()):
        mates = np.flatnonzero(labels == label)
        mates = mates[mates != i]
        if mates.size and draw(st.booleans()):
            pairs.append((i, int(mates[draw(st.integers(0, mates.size - 1))])))
    return np.array(draw(st.permutations(pairs)), dtype=np.int64).reshape(-1, 2)


@SETTINGS
@given(
    data=st.data(),
    batch=uneven_batches(),
    mined=st.booleans(),
    stack_rows=st.sampled_from([1, 2, 3, 64]),
)
def test_npairs_loss_matches_per_pair_loop(data, batch, mined, stack_rows):
    pairs = select_npairs_pairs(batch.labels) if mined else data.draw(hand_built_pairs(batch))
    if len(pairs) == 0:
        return
    with mock.patch.object(losses, "STACK_ROWS", stack_rows):
        assert_same_outcome(lambda: npairs_loss(batch, pairs), lambda: old_npairs_pairs_loss(batch, pairs))


def test_npairs_loss_with_pairs_of_different_row_counts():
    # (0, 1), (1, 2), (2, 0) in a class of three next to a two-member class
    # and a singleton: the cycle's pairs have 1 + 2 rows, the pair class's
    # 1 + 3; pairs taken out of order, across blocks of 2
    labels = np.array([0, 0, 0, 1, 1, 2])
    batch = EmbeddingBatch(Rng(11).normal(6 * 5).reshape(6, 5), labels, 3)
    pairs = np.array([[3, 4], [0, 1], [1, 2], [4, 3], [2, 0]])
    for stack_rows in (1, 2, 64):
        with mock.patch.object(losses, "STACK_ROWS", stack_rows):
            assert_same_outcome(lambda: npairs_loss(batch, pairs), lambda: old_npairs_pairs_loss(batch, pairs))


def test_npairs_loss_over_more_pairs_than_one_block():
    # 150 anchors of 7 classes of different sizes, each paired with the
    # next member of its class: three blocks, several row counts in each
    labels = np.array([(i * i) % 7 for i in range(150)])
    pairs = []
    for cls in range(7):
        members = np.flatnonzero(labels == cls)
        if members.size > 1:
            pairs += zip(members.tolist(), np.roll(members, -1).tolist())
    pairs = np.array(sorted(pairs))
    assert len(pairs) > 2 * losses.STACK_ROWS
    assert np.unique(np.bincount(labels[pairs[:, 0]])).size > 1
    z = Rng(12).normal(150 * 24).reshape(150, 24)
    for embeddings in (z, np.asfortranarray(z)):
        batch = EmbeddingBatch(embeddings, labels, 7)
        assert_same_outcome(lambda: npairs_loss(batch, pairs), lambda: old_npairs_pairs_loss(batch, pairs))


@SETTINGS
@given(
    batch=uneven_batches(),
    extra_classes=st.integers(0, 3),
    seed=st.integers(0, 2**32),
    alpha=st.sampled_from([0.5, 1.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    delta=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
)
def test_proxyanchor_loss_matches_per_class_loop(batch, extra_classes, seed, alpha, delta):
    classes = batch.num_classes + extra_classes  # proxies of classes absent from the batch
    proxies = Rng(seed).normal(classes * batch.embeddings.shape[1]).reshape(classes, -1)
    bank = ProxyBank(proxies, classes, 1)
    assert_same_outcome(
        lambda: proxyanchor_loss(batch, bank, alpha, delta),
        lambda: old_proxyanchor_loss(batch, bank, alpha, delta),
    )


def test_proxyanchor_loss_at_training_shapes():
    label_sets = [
        np.arange(64) % 2,  # the training shape: two classes of equal size
        (np.arange(64) % 5 == 0).astype(np.int64),  # two classes of unequal size
        np.zeros(64, dtype=np.int64),  # one class: the push side skips it
        np.array([0, 1, 1, 2, 2, 2]),  # a singleton: rows of one entry
    ]
    for labels in label_sets:
        for classes in (int(labels.max()) + 1, int(labels.max()) + 2):  # and a class absent
            batch = EmbeddingBatch(Rng(13).normal(labels.size * 16).reshape(-1, 16), labels, classes)
            bank = ProxyBank(Rng(14).normal(classes * 16).reshape(classes, 16), classes, 1)
            for alpha, delta in ((32.0, 0.1), (128.0, 0.0), (1e4, 0.9)):
                assert_same_outcome(
                    lambda: proxyanchor_loss(batch, bank, alpha, delta),
                    lambda: old_proxyanchor_loss(batch, bank, alpha, delta),
                )


@SETTINGS
@given(
    batch=overflowing_batches(),
    alpha=st.sampled_from([8.0, 1e306, 1.7e308]),
    delta=st.sampled_from([0.1, 0.9]),
)
def test_npairs_and_proxyanchor_raise_what_the_loops_raised(batch, alpha, delta):
    # n-pairs' scores overflow on the huge rows; proxy-anchor normalizes, so
    # only an alpha near the float64 maximum overflows its exponents
    pairs = select_npairs_pairs(batch.labels)
    bank = ProxyBank(Rng(15).normal(batch.num_classes * batch.embeddings.shape[1]).reshape(
        batch.num_classes, -1), batch.num_classes, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if len(pairs):
            assert_same_outcome(lambda: npairs_loss(batch, pairs), lambda: old_npairs_pairs_loss(batch, pairs))
        assert_same_outcome(
            lambda: proxyanchor_loss(batch, bank, alpha, delta),
            lambda: old_proxyanchor_loss(batch, bank, alpha, delta),
        )


def test_npairs_and_proxyanchor_raise_on_an_overflowing_exponent():
    # n-pairs: rows 0 and 1 score inf against each other; proxy-anchor:
    # row 2's push exponent against proxy 0 is 1.7e308 * (0.707 + 0.9)
    labels = [0, 0, 1, 1]
    huge = EmbeddingBatch(np.array([[1e200, 0.0], [1e200, 0.0], [1.0, 1.0], [0.0, 1.0]]), labels, 2)
    pairs = select_npairs_pairs(labels)
    batch = EmbeddingBatch(np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 1.0], [0.0, 1.0]]), labels, 2)
    bank = ProxyBank(np.eye(2), 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = assert_same_outcome(
            lambda: npairs_loss(huge, pairs), lambda: old_npairs_pairs_loss(huge, pairs)
        )
        assert got is DimensionError
        got = assert_same_outcome(
            lambda: proxyanchor_loss(batch, bank, 1.7e308, 0.9),
            lambda: old_proxyanchor_loss(batch, bank, 1.7e308, 0.9),
        )
        assert got is DimensionError


# ---------------------------------------------------------------------------
# encoder pooling and scatter


@st.composite
def token_batches(draw):
    vocab = draw(st.integers(1, 40))
    embed = draw(st.integers(2, 12))
    out = draw(st.integers(1, 6))
    texts = draw(
        st.lists(
            st.lists(st.integers(0, vocab - 1), min_size=1, max_size=20),
            min_size=1,
            max_size=12,
        )
    )
    seed = draw(st.integers(0, 2**32))
    params = init_encoder(3, vocab, embed, out, Rng(seed))
    if draw(st.booleans()):
        # signed zeros and a wide range of magnitudes in the table
        table = params.embedding_table
        table[::3] *= 1e6
        table[1::5] = -0.0
    return params, texts, seed


@SETTINGS
@given(case=token_batches())
def test_forward_and_backward_match_per_text_loops(case):
    params, texts, seed = case
    z, cache = forward_batch(params, pack_tokens(texts))
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    assert same_bits(cache.pooled, pooled_old)
    rng = Rng(seed + 1)
    grad_z = rng.normal(z.size).reshape(z.shape)
    new = backward_into_zeros(params, cache, grad_z)
    old = old_backward_batch(params, texts, pooled_old, z_old, grad_z)
    assert list(new) == list(old)
    for name in old:
        assert same_bits(new[name], old[name]), name


@pytest.mark.parametrize(
    "texts",
    [
        [[3]],  # one single-token text
        [[1], [2], [1]],  # single-token texts sharing a token
        [[2, 2, 2, 5], [5, 2], [7]],  # repeats within and across texts
        [[4] * 30, [4, 0], [0] * 9],  # lengths above numpy's pairwise block
    ],
)
def test_encoder_fixed_cases(texts):
    params = init_encoder(2, 8, 4, 3, Rng(17))
    z, cache = forward_batch(params, pack_tokens(texts))
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    grad_z = Rng(18).normal(z.size).reshape(z.shape)
    new = backward_into_zeros(params, cache, grad_z)
    old = old_backward_batch(params, texts, pooled_old, z_old, grad_z)
    for name in old:
        assert same_bits(new[name], old[name]), name


def test_encoder_fortran_ordered_params():
    params = init_encoder(2, 8, 4, 3, Rng(17))
    for name, arr in params.blocks():
        if arr.ndim == 2:
            setattr(params, name, np.asfortranarray(arr))
    assert not params.embedding_table.flags.c_contiguous
    texts = [[2, 2, 2, 5], [5, 2], [7], [1] * 12]
    z, cache = forward_batch(params, pack_tokens(texts))
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    grad_z = Rng(18).normal(z.size).reshape(z.shape)
    new = backward_into_zeros(params, cache, grad_z)
    old = old_backward_batch(params, texts, pooled_old, z_old, grad_z)
    assert np.any(new["embedding_table"] != 0.0)
    for name in old:
        assert same_bits(new[name], old[name]), name


def test_embed_dim_one_pools_in_token_order():
    # With one column numpy's mean of a text over 8 tokens sums pairwise;
    # forward_batch sums in token order, as it does for every embed_dim.
    # Values chosen so the two orders round differently.
    params = init_encoder(2, 10, 1, 3, Rng(17))
    params.embedding_table[:, 0] = [1e16] + [1.0] * 9
    long_text, short_text = list(range(10)), [0, 1, 2]
    _, cache = forward_batch(params, pack_tokens([long_text, short_text]))
    for row, text in zip(cache.pooled, [long_text, short_text]):
        total = 0.0
        for i in text:
            total += params.embedding_table[i, 0]
        assert same_bits(row, np.array([total / len(text)]))
    pairwise = params.embedding_table[long_text].mean(axis=0)
    assert not same_bits(cache.pooled[0], pairwise)  # the known deviation
    assert same_bits(cache.pooled[1], params.embedding_table[short_text].mean(axis=0))


@SETTINGS
@given(
    vocab=st.integers(1, 40),
    texts=st.lists(
        st.lists(st.integers(0, 39), min_size=1, max_size=30), min_size=1, max_size=80
    ),
    data=st.data(),
)
def test_take_matches_the_list_based_encoder(vocab, texts, data):
    # texts of mixed lengths with repeated tokens, packed once; batches of
    # 1 to 70 of them, in any order and with repeats, taken from the pack
    texts = [[i % vocab for i in text] for text in texts]
    params = init_encoder(3, vocab, data.draw(st.integers(1, 9)), 4, Rng(vocab))
    packed = pack_tokens(texts)
    chosen = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=70))
    batch = packed.take(chosen)
    lists = [texts[i] for i in chosen]
    assert same_bits(batch.ids, np.concatenate(lists).astype(np.int64))
    z, cache = forward_batch(params, batch)
    z_list, cache_list = list_forward_batch(params, lists)
    assert same_bits(z, z_list)
    assert same_bits(cache.pooled, cache_list[2])
    grad_z = Rng(len(chosen)).normal(z.size).reshape(z.shape)
    new = backward_into_zeros(params, cache, grad_z)
    old = list_backward_batch(params, cache_list, grad_z, z_list)
    assert list(new) == list(old)
    for name in old:
        assert same_bits(new[name], old[name]), name


@st.composite
def ragged_token_lists(draw):
    """Texts of 1 to 20 tokens from a small vocabulary, so tokens repeat,
    with blank texts (tokenize maps them to [0]) among them."""
    vocab = draw(st.integers(1, 30))
    text = st.one_of(
        st.lists(st.integers(0, vocab - 1), min_size=1, max_size=20),
        st.sampled_from(["", "  ", "?!"]).map(lambda blank: tokenize(blank, vocab)),
    )
    return vocab, draw(st.lists(text, min_size=1, max_size=60))


@SETTINGS
@given(case=ragged_token_lists(), data=st.data())
def test_view_matches_take_on_ragged_packs(case, data):
    # a run of consecutive texts viewed in a pack of mixed lengths holds
    # what take gathers for it, and the encoder gives the take's bits on it
    vocab, texts = case
    packed = pack_tokens(texts)
    first = data.draw(st.integers(0, len(texts) - 1))
    stop = data.draw(st.integers(first + 1, len(texts)))
    view, taken = packed.view(first, stop), packed.take(np.arange(first, stop))
    for name in ("ids", "lengths", "rows", "counts", "widths"):
        assert same_bits(getattr(view, name), getattr(taken, name)), name
        assert np.shares_memory(getattr(view, name), getattr(packed, name)), name
    params = init_encoder(3, vocab, data.draw(st.integers(1, 9)), 4, Rng(vocab))
    z, cache = forward_batch(params, view)
    z_taken, cache_taken = forward_batch(params, taken)
    assert same_bits(z, z_taken)
    assert same_bits(cache.pooled, cache_taken.pooled)
    grad_z = Rng(stop).normal(z.size).reshape(z.shape)
    new, old = backward_into_zeros(params, cache, grad_z), backward_into_zeros(params, cache_taken, grad_z)
    for name in old:
        assert same_bits(new[name], old[name]), name


def full_table(params, way):
    """The whole table, read through one of the paths that settle it all."""
    if way == "embedding_table":
        return params.embedding_table
    if way == "blocks":
        return dict(params.blocks())["embedding_table"]
    if way == "table_for":
        every = np.arange(params.vocab_size)
        return params.table_for(every)[every]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "enc.bin"
        save_encoder(params, path)
        return path.read_bytes()


@SETTINGS
@given(
    seed=st.integers(0, 2**32),
    vocab=st.integers(1, 64),
    embed=st.integers(1, 9),
    data=st.data(),
)
def test_lazy_rows_match_the_eager_init(seed, vocab, embed, data):
    rng, eager_rng = Rng(seed), Rng(seed)
    lazy = init_encoder(3, vocab, embed, 2, rng)
    eager = eager_init_encoder(3, vocab, embed, 2, eager_rng)
    # the stream ends where the eager draw left it, and the later blocks
    # have their bits
    assert rng.counter == eager_rng.counter
    for name in ("projection", "projection_bias", "classifier", "classifier_bias"):
        assert same_bits(getattr(lazy, name), getattr(eager, name)), name
    read = st.lists(st.lists(st.integers(0, vocab - 1), max_size=2 * vocab), max_size=4)
    for ids in data.draw(read):  # random subsets in random order
        ids = np.array(ids, dtype=np.int64)
        assert same_bits(lazy.table_for(ids)[ids], eager.embedding_table[ids])
    if data.draw(st.booleans()):
        fresh = np.array(sorted(data.draw(st.sets(st.integers(0, vocab - 1)))), dtype=np.int64)
        lrs = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5]), min_size=1, max_size=4))
        weight_decay = data.draw(st.sampled_from([0.0, 0.01, 0.3]))
        undrawn = lazy._undrawn.copy()
        lazy.defer_decay(fresh, lrs, weight_decay)
        eager.defer_decay(fresh, lrs, weight_decay)
        assert same_bits(lazy._undrawn, undrawn)  # the deferral drew no row
        for ids in data.draw(read):
            ids = np.array(ids, dtype=np.int64)
            assert same_bits(lazy.table_for(ids)[ids], eager.table_for(ids)[ids])
    way = data.draw(st.sampled_from(["embedding_table", "blocks", "table_for", "save_encoder"]))
    assert same_bits(full_table(lazy, way), full_table(eager, way))
    if way != "table_for":
        assert lazy._undrawn is None and lazy._stale is None


def decayed_eagerly(table, fresh, lrs, weight_decay):
    """Every row of `table` outside `fresh` after one AdamW step of zero
    gradient per entry of `lrs`, in order, applied now."""
    stale = np.setdiff1d(np.arange(len(table)), fresh)
    flat = table[stale].ravel()
    opt = AdamW(flat, [("rows", flat)], clip_norm=1.0)
    for lr in lrs:
        opt.step(np.zeros_like(flat), lr, weight_decay)
    table[stale] = flat.reshape(-1, table.shape[1])


@SETTINGS
@given(seed=st.integers(0, 2**32), vocab=st.integers(1, 30), embed=st.integers(1, 5), data=st.data())
def test_a_second_deferral_settles_the_first(seed, vocab, embed, data):
    # a model that owes one deferral's decay steps defers again: the rows
    # still stale from the first settle before the second is recorded, so
    # each row ends with the bits of an eager table that took every step
    lazy = init_encoder(2, vocab, embed, 2, Rng(seed))
    eager = eager_init_encoder(2, vocab, embed, 2, Rng(seed)).embedding_table.copy()
    rows = st.lists(st.integers(0, vocab - 1), max_size=2 * vocab)
    zeros = np.array(data.draw(rows), dtype=np.int64)  # rows of +0.0 and -0.0
    signs = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=zeros.size,
                                        max_size=zeros.size)))
    lazy.table_for(zeros)[zeros] = signs[:, None]
    eager[zeros] = signs[:, None]
    for deferral in range(2):
        fresh = np.array(sorted(data.draw(st.sets(st.integers(0, vocab - 1)))), dtype=np.int64)
        trained = Rng(derive_seed(seed, deferral)).normal(fresh.size * embed).reshape(-1, embed)
        lazy.table_for(fresh)[fresh] = trained  # as train writes its rows back
        eager[fresh] = trained
        lrs = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5]), min_size=1, max_size=4))
        weight_decay = data.draw(st.sampled_from([0.01, 0.3]))
        lazy.defer_decay(fresh, lrs, weight_decay)
        decayed_eagerly(eager, fresh, lrs, weight_decay)
        read = np.array(data.draw(rows), dtype=np.int64)  # settles these rows only
        assert same_bits(lazy.table_for(read)[read], eager[read])
    assert same_bits(lazy.embedding_table, eager)


def test_rows_drawn_first_keep_their_bits_in_a_full_settle():
    # rows drawn one by one and the whole draw give the same bits, and the
    # rng draws no more than the eager init did
    lazy = init_encoder(2, 50, 7, 3, Rng(11))
    lazy.table_for(np.array([3, 49, 0]))
    reference = Rng(11).normal(50 * 7, scale=0.1).reshape(50, 7)
    assert same_bits(lazy.embedding_table, reference)
    assert lazy.embedding_table.flags.c_contiguous


# ---------------------------------------------------------------------------
# AdamW


@SETTINGS
@given(
    seed=st.integers(0, 2**32),
    steps=st.integers(1, 6),
    clip=st.sampled_from([1e-3, 1.0, 5.0, 1e9]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
)
def test_adamw_matches_temporaries(seed, steps, clip, weight_decay):
    rng = Rng(seed)
    shapes = {"table": (7, 3), "bias": (3,), "head": (3, 2)}
    start = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
    flat, new_params = flat_copy(list(start.items()))
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(flat, list(new_params.items()), clip)
    old = OldAdamW(list(old_params.items()), clip)
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        lr = 0.0 if step == 0 else 1e-2 / step
        new.step(flat_grad(grads, shapes), lr, weight_decay)
        old.step(grads, lr, weight_decay)
        for name in shapes:
            assert same_bits(new_params[name], old_params[name])
            assert same_bits(new.m[name], old.m[name])
            assert same_bits(new.v[name], old.v[name])


def settled(table, live, lrs, weight_decay):
    """The table after its rows outside `live` have replayed one decay step
    per entry of `lrs`, through EncoderParams' settle on read."""
    dim = table.shape[1]
    params = EncoderParams(table, np.zeros((dim, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    params.defer_decay(live, lrs, weight_decay)
    return params.embedding_table


@SETTINGS
@given(
    seed=st.integers(0, 2**32),
    vocab=st.integers(1, 40),
    dim=st.integers(1, 4),
    live_frac=st.floats(0.0, 1.0),
    steps=st.integers(1, 6),
    clip=st.sampled_from([1e-3, 1.0, 1e9]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
    lr=st.sampled_from([0.0, 1e-2, 0.5]),
)
def test_live_row_adamw_matches_dense(seed, vocab, dim, live_frac, steps, clip, weight_decay, lr):
    # AdamW over the live rows of a table, the other rows decayed on read,
    # against OldAdamW over the whole table
    rng = Rng(seed)
    live = np.sort(rng.choice(vocab, int(live_frac * vocab)))
    dead = np.setdiff1d(np.arange(vocab), live)
    shapes = {"table": (vocab, dim), "bias": (dim,), "head": (dim, 2)}
    start = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
    # signed zeros in half the rows that are not live: the decay keeps each sign
    zero_rows = dead[: dead.size // 2]
    negative = rng.random(zero_rows.size * dim).reshape(-1, dim) < 0.5
    start["table"][zero_rows] = np.where(negative, -0.0, 0.0)
    flat, new_params = flat_copy([("table", start["table"][live]), ("bias", start["bias"]), ("head", start["head"])])
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(flat, list(new_params.items()), clip, sparse={"table": (live, vocab)})
    old = OldAdamW(list(old_params.items()), clip)
    assert same_bits(new.sparse["table"][0], live)
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        # rows that are not live get +0.0 or -0.0; some live rows get all zeros
        dead_negative = rng.random(dead.size * dim).reshape(-1, dim) < 0.5
        grads["table"][dead] = np.where(dead_negative, -0.0, 0.0)
        grads["table"][live[rng.random(live.size) < 0.3]] = 0.0
        new.step(flat_grad({**grads, "table": grads["table"][live]}, shapes), lr, weight_decay)
        old.step(grads, lr, weight_decay)
        table = start["table"].copy()
        table[live] = new_params["table"]
        assert same_bits(settled(table, live, [lr] * (step + 1), weight_decay), old_params["table"])
        for name in ("bias", "head"):
            assert same_bits(new_params[name], old_params[name])
            assert same_bits(new.m[name], old.m[name])
            assert same_bits(new.v[name], old.v[name])
        assert same_bits(new.m["table"], old.m["table"][live])
        assert same_bits(new.v["table"], old.v["table"][live])
        assert same_bits(old.m["table"][dead], np.zeros((dead.size, dim)))
        assert same_bits(old.v["table"][dead], np.zeros((dead.size, dim)))


def dense_train(texts, labels, num_classes, config):
    """The training loop before the compact table: the whole table goes
    through forward, backward and OldAdamW, and every row decays at every
    step. Returns (params, bank, loss trace, the gradient norm of each step)."""
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
            z, cache = forward_batch(params, pack_tokens([tokenized[i] for i in chosen]))
            metric = ce = None
            if loss_cfg.is_metric:
                metric = dml_loss(EmbeddingBatch(z, yb, num_classes), loss_cfg, bank, mining_rng)
            if w > 0.0:
                c_out = cce_loss(softmax_rows(classify_logits(params, z)), yb)
                grad_logits = w * c_out.grad_embeddings
                ce = LossOutput(c_out.value, c_out.grad_embeddings @ params.classifier.T)
            out = metric if ce is None else ce if metric is None else combined_loss(ce, metric, w)
            log.append((step, out.value))
            grads = allocating_backward_batch(params, cache, out.grad_embeddings)
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


def assert_same_training(model, reference):
    params, bank, log, _ = reference
    for (name, a), (_, b) in zip(model.params.blocks(), params.blocks()):
        assert same_bits(a, b), name
    if bank is not None:
        assert same_bits(model.bank.matrix, bank.matrix)
    assert model.steps == log


@pytest.mark.parametrize("variant", ["cce", "triplet", "proxyanchor"])
def test_training_with_live_rows_matches_dense_adamw(variant):
    data = synth_dataset(2, 40, seed=5)
    config = TrainConfig(loss=LossConfig(variant, beta=0.5), epochs=2, batch_size=16, seed=3)
    reference = dense_train(data.texts, data.labels, data.num_classes, config)
    assert_same_training(train(data.texts, data.labels, data.num_classes, config), reference)


@SETTINGS
@given(
    variant=st.sampled_from(VARIANTS),
    texts=st.integers(6, 24),
    vocab=st.integers(16, 400),
    weight_decay=st.sampled_from([0.0, 0.01]),
    signed_zeros=st.booleans(),
    clip_ulps=st.sampled_from([None, -1, 0, 1]),
    seed=st.integers(0, 2**16),
)
def test_compact_training_matches_dense_training(
    variant, texts, vocab, weight_decay, signed_zeros, clip_ulps, seed
):
    # the vocab sizes put the share of rows the texts use on both sides of
    # one half; clip_ulps puts clip_norm at the first step's dense gradient
    # norm or one ulp either side of it, where only the dense sum of squares
    # decides whether clipping fires
    data = synth_dataset(2, texts, seed=seed)
    config = TrainConfig(
        loss=LossConfig(variant, beta=0.5), epochs=2, batch_size=8, seed=seed,
        vocab_size=vocab, weight_decay=weight_decay,
    )
    init = trainer.init_encoder

    def init_with_signed_zeros(*args):
        params = init(*args)
        if signed_zeros:
            rows = params.embedding_table[::3]
            rows[:] = np.where(Rng(seed).random(rows.size).reshape(rows.shape) < 0.5, -0.0, 0.0)
        return params

    with mock.patch.object(trainer, "init_encoder", init_with_signed_zeros):
        if clip_ulps is not None:
            norm = dense_train(data.texts, data.labels, data.num_classes, config)[3][0]
            clip = norm if clip_ulps == 0 else np.nextafter(norm, np.inf * clip_ulps)
            config = dataclasses.replace(config, clip_norm=float(clip))
        reference = dense_train(data.texts, data.labels, data.num_classes, config)
        model = train(data.texts, data.labels, data.num_classes, config)
    assert_same_training(model, reference)


def test_unused_rows_settle_on_read():
    # rows no training text uses owe their init draw and their decay until
    # read; forward_batch settles the rows it gathers and only those
    data = synth_dataset(2, 40, seed=5)
    config = TrainConfig(loss=LossConfig("triplet", beta=0.5), epochs=2, batch_size=16, seed=3)
    ref_params = dense_train(data.texts, data.labels, data.num_classes, config)[0]
    used = {i for text in data.texts for i in tokenize(text, config.vocab_size)}
    unused = [i for i in range(config.vocab_size) if i not in used][:5]
    params = train(data.texts, data.labels, data.num_classes, config).params
    # only the rows the training texts use were drawn
    assert np.flatnonzero(~params._undrawn).tolist() == sorted(used)
    # forward_batch reads one unused row: that row settles, the others wait
    stale_before = int(params._stale.sum())
    one = pack_tokens([[unused[0]]])
    assert same_bits(forward_batch(params, one)[0], forward_batch(ref_params, one)[0])
    assert int(params._stale.sum()) == stale_before - 1
    assert not params._stale[unused[0]] and params._stale[unused[1:]].all()
    assert not params._undrawn[unused[0]] and params._undrawn[unused[1:]].all()
    # texts of unused rows only, and of used and unused rows
    batch = pack_tokens([unused[1:3], [unused[3], sorted(used)[0], unused[3]], [unused[4]]])
    assert same_bits(forward_batch(params, batch)[0], forward_batch(ref_params, batch)[0])
    # reading the table settles every row
    assert same_bits(params.embedding_table, ref_params.embedding_table)
    assert params._stale is None and params._undrawn is None


@pytest.mark.parametrize("seed", range(8))
def test_live_row_clip_at_the_dense_norm(seed):
    # clip_norm set next to the dense gradient norm: the live rows' own sum
    # of squares (another order) cannot decide whether clipping fires there
    rng = Rng(seed)
    live = np.sort(rng.choice(64, 30))
    grad = np.zeros((64, 4))
    grad[live] = rng.normal(live.size * 4).reshape(-1, 4)
    dense = math.sqrt(float(np.square(grad).sum()))
    gathered = math.sqrt(float(np.square(grad[live]).sum()))
    for clip in (dense, np.nextafter(dense, 0.0), np.nextafter(dense, np.inf), gathered,
                 dense * (1.0 - 1e-7), dense * (1.0 + 1e-7)):
        start = rng.normal(64 * 4).reshape(64, 4)
        new_table, old_table = start.copy(), start.copy()
        flat, compact = flat_copy([("table", start[live])])
        compact = compact["table"]
        AdamW(flat, [("table", compact)], clip, sparse={"table": (live, 64)}).step(
            grad[live].ravel(), 0.1, 0.01
        )
        new_table[live] = compact
        new_table = settled(new_table, live, [0.1], 0.01)
        OldAdamW([("table", old_table)], clip).step({"table": grad}, 0.1, 0.01)
        assert same_bits(new_table, old_table), clip


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_live_row_nonfinite_norm(bad):
    # an overflowing or NaN sum of squares takes the dense path, as it must
    live = np.array([1, 5])
    grad = np.zeros((12, 3))
    grad[live] = 0.5
    grad[5, 2] = bad
    start = Rng(3).normal(36).reshape(12, 3)
    new_table, old_table = start.copy(), start.copy()
    flat, compact = flat_copy([("table", start[live])])
    compact = compact["table"]
    with np.errstate(all="ignore"):
        AdamW(flat, [("table", compact)], 1.0, sparse={"table": (live, 12)}).step(
            grad[live].ravel(), 0.1, 0.01
        )
        new_table[live] = compact
        new_table = settled(new_table, live, [0.1], 0.01)
        OldAdamW([("table", old_table)], 1.0).step({"table": grad}, 0.1, 0.01)
    assert same_bits(new_table, old_table)


# ---------------------------------------------------------------------------
# the flat step: AdamW over one vector, backward into views of one gradient,
# pooling by text length


@st.composite
def flat_adamw_cases(draw):
    """The blocks train steps: a compact table of live rows of a larger
    vocabulary, projection, bias, head, and for a proxy loss a bank."""
    vocab = draw(st.integers(1, 40))
    live = np.array(sorted(draw(st.sets(st.integers(0, vocab - 1), min_size=1))), dtype=np.int64)
    embed, out, classes = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shapes = [("embedding_table", (live.size, embed))] + list(
        zip(BLOCK_NAMES[1:], block_shapes(vocab, embed, out, classes)[1:])
    )
    if draw(st.booleans()):
        shapes.append(("proxies", (draw(st.integers(1, 6)), out)))
    return vocab, live, shapes


@SETTINGS
@given(
    case=flat_adamw_cases(),
    seed=st.integers(0, 2**32),
    steps=st.integers(1, 5),
    clip=st.sampled_from([1e-3, 0.5, 5.0, 1e9]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
    bad=st.sampled_from([None, np.inf, -np.inf, np.nan, 1e200]),
)
def test_flat_adamw_matches_block_adamw(case, seed, steps, clip, weight_decay, bad):
    # clipped and unclipped steps, a sparse table, and now and then a
    # gradient entry that makes the norm overflow or NaN
    vocab, live, shapes = case
    rng = Rng(seed)
    start = [(name, rng.normal(math.prod(s)).reshape(s)) for name, s in shapes]
    flat, new_params = flat_copy(start)
    old_params = {name: arr.copy() for name, arr in start}
    sparse = {"embedding_table": (live, vocab)}
    new = AdamW(flat, list(new_params.items()), clip, sparse=sparse)
    old = BlockAdamW(list(old_params.items()), clip, sparse=sparse)
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes}
        if bad is not None and step == steps - 1:
            name, _ = shapes[rng.randint(len(shapes))]
            grads[name].reshape(-1)[rng.randint(grads[name].size)] = bad
        grad = flat_grad(grads, [name for name, _ in shapes])
        lr = 0.0 if step == 0 else 1e-2 / step
        with np.errstate(all="ignore"):
            new.step(grad, lr, weight_decay)
            old.step(grads, lr, weight_decay)
        for name, _ in shapes:
            assert same_bits(new_params[name], old_params[name]), name
            assert same_bits(new.m[name], old.m[name]), name
            assert same_bits(new.v[name], old.v[name]), name


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_adamw_near_the_clip_and_the_no_clip_bound(seed, sparse):
    # the no-clip shortcut (one dot product) against the block sums: norms
    # within 1e-12 relative of clip_norm, and of the bound below which
    # the block sums take scale 1, on both sides; a norm well below takes
    # the shortcut and never sums blocks, and a step that misses it sums
    # them once, densely
    vocab, live = 40, np.array([2, 3, 17, 30])
    shapes = [("embedding_table", (live.size, 6))] + list(
        zip(BLOCK_NAMES[1:], block_shapes(vocab, 6, 4, 3)[1:])
    ) + [("proxies", (3, 4))]
    rng = Rng(seed)
    start = [(name, rng.normal(math.prod(s)).reshape(s)) for name, s in shapes]
    grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes}
    grad = flat_grad(grads, [name for name, _ in shapes])
    norm = math.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
    sparse_rows = {"embedding_table": (live, vocab)} if sparse else None
    for ratio in (1.0, 1.0 - 1e-9, 0.25):  # clip at the norm, at the bound, twice the norm
        for rel in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12):
            clip = norm * (1.0 + rel) / math.sqrt(ratio)
            flat, new_params = flat_copy(start)
            old_params = {name: arr.copy() for name, arr in start}
            new = AdamW(flat, list(new_params.items()), clip, sparse=sparse_rows)
            old = BlockAdamW(list(old_params.items()), clip, sparse=sparse_rows)
            with mock.patch.object(AdamW, "_sum_of_squares", autospec=True,
                                   side_effect=AdamW._sum_of_squares) as summed:
                for lr in (0.1, 0.05):
                    new.step(grad, lr, 0.01)
                    old.step(grads, lr, 0.01)
            misses = not float(np.dot(grad, grad)) < new._dot_below
            assert summed.call_count == 2 * misses, (ratio, rel)
            if ratio != 1.0 - 1e-9:  # next to the bound either path may run
                assert misses == (ratio != 0.25), (ratio, rel)
            for name, _ in shapes:
                assert same_bits(new_params[name], old_params[name]), (ratio, rel, name)
                assert same_bits(new.m[name], old.m[name]), (ratio, rel, name)
                assert same_bits(new.v[name], old.v[name]), (ratio, rel, name)


def test_flat_adamw_rejects_blocks_that_do_not_fill_the_vector():
    with pytest.raises(DimensionError):
        AdamW(np.zeros(5), [("a", np.zeros((2, 2)))], 1.0)


@SETTINGS
@given(case=token_batches(), data=st.data())
def test_backward_into_views_matches_allocating_backward(case, data):
    # the gradient blocks are views of one vector that holds NaN from
    # before: the encoder blocks are overwritten, the classifier's kept
    params, texts, seed = case
    z, cache = forward_batch(params, pack_tokens(texts))
    grad_z = Rng(seed + 1).normal(z.size).reshape(z.shape)
    extra = [("proxies", (2, params.out_dim))] if data.draw(st.booleans()) else []
    grad = np.full(sum(arr.size for _, arr in params.blocks()) + 2 * params.out_dim * len(extra), np.nan)
    grads = block_views(grad, [(name, arr.shape) for name, arr in params.blocks()] + extra)
    backward_batch(params, cache, grad_z, grads)
    old = allocating_backward_batch(params, cache, grad_z)
    for name in BLOCK_NAMES[:3]:
        assert same_bits(grads[name], old[name]), name
    for name in BLOCK_NAMES[3:] + tuple(name for name, _ in extra):
        assert np.isnan(grads[name]).all(), name


@st.composite
def pooling_batches(draw):
    """A packed batch of 1 to 70 texts of mixed lengths, some long, over a
    table with signed zeros and a wide range of magnitudes."""
    vocab = draw(st.integers(1, 50))
    embed = draw(st.integers(1, 32))
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 12), st.integers(1, 300)), min_size=1, max_size=70
    ))
    if draw(st.booleans()):  # one length: up to 70 texts share a gather
        lengths = [lengths[0]] * len(lengths)
    rng = Rng(draw(st.integers(0, 2**32)))
    texts = [(rng.random(n) * vocab).astype(np.int64).tolist() for n in lengths]
    params = init_encoder(2, vocab, embed, 3, rng)
    if draw(st.booleans()):
        table = params.embedding_table
        table[::3] *= 1e6
        table[1::5] = -0.0
        table[2::7] = -table[2::7] * 1e16  # cancellations next to small entries
    return params, pack_tokens(texts)


@SETTINGS
@given(case=pooling_batches())
def test_pooling_by_length_matches_per_position_pooling(case):
    params, batch = case
    z, cache = forward_batch(params, batch)
    z_old, pooled_old = position_forward_batch(params, batch)
    assert same_bits(cache.pooled, pooled_old)
    assert same_bits(z, z_old)


@pytest.mark.parametrize("texts", [64, 65, 70, 129])
@pytest.mark.parametrize("embed", [1, 32])
def test_pooling_splits_many_texts_of_one_length(texts, embed):
    # more texts of one length than one gather takes: the last gather holds
    # the rest, down to a single text
    params = init_encoder(2, 50, embed, 3, Rng(texts))
    rng = Rng(embed)
    batch = pack_tokens([(rng.random(9) * 50).astype(np.int64).tolist() for _ in range(texts)])
    z, cache = forward_batch(params, batch)
    z_old, pooled_old = position_forward_batch(params, batch)
    assert same_bits(cache.pooled, pooled_old)
    assert same_bits(z, z_old)


@pytest.mark.parametrize("lengths", [[8] * 2000, [8, 9] * 1000])
def test_pooling_memory_stays_near_the_pooled_arrays(lengths):
    # a whole test split goes through forward_batch at once: its gathers
    # take at most _POOL_TEXTS texts, so the peak stays within four (L, E)
    # arrays, 2 MB here (the per-position loop peaked near 1.6 MB; one
    # gather per length, of every text of that length, at 5.3 and 3.2 MB)
    params = init_encoder(2, 4096, 32, 16, Rng(2))
    rng = Rng(3)
    batch = pack_tokens([(rng.random(n) * 4096).astype(np.int64).tolist() for n in lengths])
    forward_batch(params, batch)  # draws the rows, and numpy's first-call allocations
    tracemalloc.start()
    forward_batch(params, batch)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * len(lengths) * params.embed_dim * 8, peak


@pytest.mark.parametrize("length", [9, 17, 300])
def test_pooling_one_long_text_at_embed_dim_one(length):
    # E = 1 and one text: without the spare text the summed axis would be
    # the contiguous one, and numpy would add more than 8 rows pairwise.
    # Values chosen so the two orders round differently.
    params = init_encoder(2, length, 1, 3, Rng(17))
    params.embedding_table[:, 0] = [1e16] + [1.0] * (length - 1)
    batch = pack_tokens([list(range(length))])
    _, cache = forward_batch(params, batch)
    assert same_bits(cache.pooled, position_forward_batch(params, batch)[1])
    total = 0.0
    for i in range(length):
        total += params.embedding_table[i, 0]
    assert same_bits(cache.pooled, np.array([[total / length]]))
    pairwise = params.embedding_table[:, 0].sum() / length
    assert total / length != pairwise  # the order the spare text avoids


# ---------------------------------------------------------------------------
# normalize_backward


def old_normalize_backward(raw, grad_unit):
    r = float(np.linalg.norm(raw))
    u = raw / r
    return (grad_unit - (grad_unit @ u) * u) / r


@given(
    seed=st.integers(0, 2**32),
    rows=st.integers(1, 129),
    dim=st.integers(1, 64),
    zeros=st.floats(0.0, 0.5),
)
@SETTINGS
def test_normalize_backward_matches_per_row(seed, rows, dim, zeros):
    gen = np.random.default_rng(seed)
    raw = gen.normal(size=(rows, dim)) * 10.0 ** gen.integers(-3, 4, size=(rows, 1))
    grad = gen.normal(size=(rows, dim))
    # signed zeros in both inputs; every row of raw keeps a non-zero entry
    grad[gen.random((rows, dim)) < zeros] = -0.0
    raw[gen.random((rows, dim)) < zeros] = 0.0
    raw[:, 0] = np.where(raw[:, 0] == 0.0, 1.5, raw[:, 0])
    expected = np.vstack([old_normalize_backward(raw[i], grad[i]) for i in range(rows)])
    assert same_bits(normalize_backward(raw, grad), expected)
    # the per-row code rounded strided rows differently; the batched one
    # gives the C-ordered result for any layout
    fortran = normalize_backward(np.asfortranarray(raw), np.asfortranarray(grad))
    assert same_bits(fortran, expected)


# ---------------------------------------------------------------------------
# synth_dataset


def old_synth(num_classes, size, signal_tokens, noise, seed, tokens_per_text):
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


@given(
    num_classes=st.integers(2, 7),
    extra=st.integers(0, 40),
    signal_tokens=st.integers(1, 20),
    noise=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    tokens_per_text=st.integers(1, 12),
)
@SETTINGS
def test_synth_dataset_matches_per_token_draws(
    num_classes, extra, signal_tokens, noise, seed, tokens_per_text
):
    args = (num_classes, num_classes + extra, signal_tokens, noise, seed, tokens_per_text)
    ds = synth_dataset(*args)
    texts, labels = old_synth(*args)
    assert ds.texts == texts
    assert ds.labels.tolist() == labels
