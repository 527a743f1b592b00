"""The vectorised training-step kernels against the per-element code they
replaced, bit for bit.

The reference implementations below are the earlier loops, kept here and
nowhere else: `Rng.permutation` / `Rng.choice` with one draw per call,
`mine_triplets` as a triple loop, `triplet_loss` one triplet at a time,
n-pairs on a sub-batch of two members per class scattered back,
per-text pooling and scatter in the encoder, AdamW with fresh
temporaries and dense moments over every row, `normalize_backward` one row
at a time, and `synth_dataset` with two draws per token. Hypothesis varies the sizes;
every comparison is on the raw bytes of the results, so a difference in the
last bit or in the sign of a zero fails.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlbench import trainer
from dmlbench.encoder import (
    EncoderParams,
    backward_batch,
    classify_logits,
    forward_batch,
    init_encoder,
    tokenize,
)
from dmlbench.errors import ConfigError, InvalidTripletError, PairingError
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
    triplet_loss,
    zero_output,
)
from dmlbench.numeric import (
    Rng,
    add_rows_at,
    derive_seed,
    l2_normalize_rows,
    log_sum_exp,
    normalize_backward,
    softmax_rows,
)
from dmlbench.proxies import init_proxies
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
        lse = log_sum_exp(scores)
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
    z, cache = forward_batch(params, texts)
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    assert same_bits(cache.pooled, pooled_old)
    rng = Rng(seed + 1)
    grad_z = rng.normal(z.size).reshape(z.shape)
    new = backward_batch(params, cache, grad_z)
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
    z, cache = forward_batch(params, texts)
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    grad_z = Rng(18).normal(z.size).reshape(z.shape)
    new = backward_batch(params, cache, grad_z)
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
    z, cache = forward_batch(params, texts)
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    grad_z = Rng(18).normal(z.size).reshape(z.shape)
    new = backward_batch(params, cache, grad_z)
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
    _, cache = forward_batch(params, [long_text, short_text])
    for row, text in zip(cache.pooled, [long_text, short_text]):
        total = 0.0
        for i in text:
            total += params.embedding_table[i, 0]
        assert same_bits(row, np.array([total / len(text)]))
    pairwise = params.embedding_table[long_text].mean(axis=0)
    assert not same_bits(cache.pooled[0], pairwise)  # the known deviation
    assert same_bits(cache.pooled[1], params.embedding_table[short_text].mean(axis=0))


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
    new_params = {name: arr.copy() for name, arr in start.items()}
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(list(new_params.items()), clip)
    old = OldAdamW(list(old_params.items()), clip)
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        lr = 0.0 if step == 0 else 1e-2 / step
        new.step(grads, lr, weight_decay)
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
    new_params = {name: arr.copy() for name, arr in start.items()}
    new_params["table"] = start["table"][live]
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(list(new_params.items()), clip, sparse={"table": (live, vocab)})
    old = OldAdamW(list(old_params.items()), clip)
    assert same_bits(new.sparse["table"][0], live)
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        # rows that are not live get +0.0 or -0.0; some live rows get all zeros
        dead_negative = rng.random(dead.size * dim).reshape(-1, dim) < 0.5
        grads["table"][dead] = np.where(dead_negative, -0.0, 0.0)
        grads["table"][live[rng.random(live.size) < 0.3]] = 0.0
        new.step({**grads, "table": grads["table"][live]}, lr, weight_decay)
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
            z, cache = forward_batch(params, [tokenized[i] for i in chosen])
            metric = ce = None
            if loss_cfg.is_metric:
                metric = dml_loss(EmbeddingBatch(z, yb, num_classes), loss_cfg, bank, mining_rng)
            if w > 0.0:
                c_out = cce_loss(softmax_rows(classify_logits(params, z)), yb)
                grad_logits = w * c_out.grad_embeddings
                ce = LossOutput(c_out.value, c_out.grad_embeddings @ params.classifier.T)
            out = metric if ce is None else ce if metric is None else combined_loss(ce, metric, w)
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
    # rows no training text uses owe their decay until read; forward_batch
    # settles the rows it gathers and only those
    data = synth_dataset(2, 40, seed=5)
    config = TrainConfig(loss=LossConfig("triplet", beta=0.5), epochs=2, batch_size=16, seed=3)
    ref_params = dense_train(data.texts, data.labels, data.num_classes, config)[0]
    start = trainer.init_encoder(2, config.vocab_size, config.embed_dim, config.out_dim,
                                 Rng(derive_seed(config.seed, "init"))).embedding_table
    used = {i for text in data.texts for i in tokenize(text, config.vocab_size)}
    unused = [i for i in range(config.vocab_size) if i not in used][:5]
    params = train(data.texts, data.labels, data.num_classes, config).params
    # forward_batch reads one unused row: that row settles, the others wait
    stale_before = int(params._stale.sum())
    assert same_bits(
        forward_batch(params, [[unused[0]]])[0], forward_batch(ref_params, [[unused[0]]])[0]
    )
    assert int(params._stale.sum()) == stale_before - 1
    assert not params._stale[unused[0]] and params._stale[unused[1:]].all()
    assert same_bits(params._table[unused[1:]], start[unused[1:]])
    # texts of unused rows only, and of used and unused rows
    batch = [unused[1:3], [unused[3], sorted(used)[0], unused[3]], [unused[4]]]
    assert same_bits(forward_batch(params, batch)[0], forward_batch(ref_params, batch)[0])
    # reading the table settles every row
    assert same_bits(params.embedding_table, ref_params.embedding_table)
    assert params._stale is None


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
        compact = start[live]
        AdamW([("table", compact)], clip, sparse={"table": (live, 64)}).step(
            {"table": grad[live]}, 0.1, 0.01
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
    compact = start[live]
    with np.errstate(all="ignore"):
        AdamW([("table", compact)], 1.0, sparse={"table": (live, 12)}).step(
            {"table": grad[live]}, 0.1, 0.01
        )
        new_table[live] = compact
        new_table = settled(new_table, live, [0.1], 0.01)
        OldAdamW([("table", old_table)], 1.0).step({"table": grad}, 0.1, 0.01)
    assert same_bits(new_table, old_table)


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
