"""The vectorised training-step kernels against the per-element code they
replaced, bit for bit.

The reference implementations below are the earlier loops, kept here and
nowhere else: `Rng.permutation` / `Rng.choice` with one draw per call,
`mine_triplets` as a triple loop, `triplet_loss` one triplet at a time,
per-text pooling and scatter in the encoder, and AdamW with fresh
temporaries and dense moments over every row. Hypothesis varies the sizes;
every comparison is on the raw bytes of the results, so a difference in the
last bit or in the sign of a zero fails.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlbench.encoder import backward_batch, forward_batch, init_encoder
from dmlbench.errors import ConfigError, InvalidTripletError
from dmlbench.harness import synth_dataset
from dmlbench.losses import EmbeddingBatch, LossConfig, TripletSpec, mine_triplets, triplet_loss
from dmlbench.numeric import Rng, add_rows_at
from dmlbench.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamW, TrainConfig, train

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


def old_mine_triplets(batch, margin, rng=None, cap=512):
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
    return [TripletSpec(a, p, n, margin) for a, p, n in triples]


def old_check_triplet(spec, labels):
    a, p, n = spec.anchor, spec.positive, spec.negative
    if len({a, p, n}) != 3:
        raise InvalidTripletError(f"indices must be distinct, got ({a}, {p}, {n})")
    if labels[a] != labels[p]:
        raise InvalidTripletError(f"anchor {a} and positive {p} differ in class")
    if labels[a] == labels[n]:
        raise InvalidTripletError(f"anchor {a} and negative {n} share a class")
    if spec.margin < 0.0:
        raise InvalidTripletError("margin must be >= 0")


def old_triplet_loss(batch, triplets):
    triplets = list(triplets)
    if not triplets:
        raise InvalidTripletError("need at least one triplet")
    z = batch.embeddings
    grad = np.zeros_like(z)
    value = 0.0
    for spec in triplets:
        old_check_triplet(spec, batch.labels)
        ap = z[spec.anchor] - z[spec.positive]
        an = z[spec.anchor] - z[spec.negative]
        slack = float(ap @ ap - an @ an) + spec.margin
        if slack > 0.0:
            value += slack
            grad[spec.anchor] += 2.0 * (ap - an)
            grad[spec.positive] -= 2.0 * ap
            grad[spec.negative] += 2.0 * an
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

    def step(self, grads, lr, weight_decay):
        sq = 0.0
        for name, _ in self.blocks:
            g = grads[name]
            sq += float((g * g).sum())
        norm = math.sqrt(sq)
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


def as_tuples(specs):
    return [(s.anchor, s.positive, s.negative, s.margin) for s in specs]


@SETTINGS
@given(batch=labelled_batches(), cap=st.integers(0, 600), seed=st.integers(0, 2**32))
def test_mine_triplets_same_order_with_and_without_cap(batch, cap, seed):
    new_rng, old_rng = Rng(seed), Rng(seed)
    new = mine_triplets(batch, 0.7, new_rng, cap)
    old = old_mine_triplets(batch, 0.7, old_rng, cap)
    assert as_tuples(new) == as_tuples(old)
    assert all(type(x) is int for s in new for x in (s.anchor, s.positive, s.negative))
    assert new_rng.counter == old_rng.counter
    uncapped = mine_triplets(batch, 0.7, None, 10**9)
    assert as_tuples(uncapped) == as_tuples(old_mine_triplets(batch, 0.7, None, 10**9))


def test_mine_triplets_full_batch_of_two_classes():
    # the benchmark's shape: 64 rows, two classes, 63488 triples capped at 512
    labels = np.array([i % 2 for i in range(64)])
    batch = EmbeddingBatch(Rng(3).normal(64 * 4).reshape(64, 4), labels, 2)
    new_rng, old_rng = Rng(9), Rng(9)
    assert as_tuples(mine_triplets(batch, 1.0, new_rng)) == as_tuples(
        old_mine_triplets(batch, 1.0, old_rng)
    )
    assert new_rng.counter == old_rng.counter == 512


@SETTINGS
@given(
    batch=labelled_batches(max_dim=40),
    margin=st.sampled_from([0.0, 0.05, 1.0, 50.0]),
    seed=st.integers(0, 2**32),
)
def test_triplet_loss_matches_per_triplet_loop(batch, margin, seed):
    specs = mine_triplets(batch, margin, Rng(seed), cap=200)
    if not specs:
        return
    out = triplet_loss(batch, specs)
    value, grad = old_triplet_loss(batch, specs)
    assert same_bits(out.value, value)
    assert same_bits(out.grad_embeddings, grad)


@SETTINGS
@given(
    batch=labelled_batches(max_rows=8),
    raw=st.lists(
        st.tuples(
            st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
            st.sampled_from([1.0, 0.0, -0.5]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_triplet_loss_raises_what_the_loop_raised(batch, raw):
    specs = [TripletSpec(a, p, n, m) for a, p, n, m in raw]
    try:
        expected = old_triplet_loss(batch, specs)
    except Exception as exc:  # the same type and message, or no error at all
        with pytest.raises(type(exc)) as got:
            triplet_loss(batch, specs)
        assert str(got.value) == str(exc)
        return
    out = triplet_loss(batch, specs)
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
    specs = mine_triplets(batch, 5.0, Rng(2), cap=40)
    out = triplet_loss(batch, specs)
    value, grad = old_triplet_loss(batch, specs)
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
        triplet_loss(batch, [])


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


@SETTINGS
@given(
    seed=st.integers(0, 2**32),
    vocab=st.integers(1, 40),
    dim=st.integers(1, 4),
    live_frac=st.floats(0.0, 0.5),
    steps=st.integers(1, 6),
    clip=st.sampled_from([1e-3, 1.0, 1e9]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
    lr=st.sampled_from([0.0, 1e-2, 0.5]),
)
def test_live_row_adamw_matches_dense(seed, vocab, dim, live_frac, steps, clip, weight_decay, lr):
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
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(list(new_params.items()), clip, live_rows={"table": live})
    old = OldAdamW(list(old_params.items()), clip)
    assert same_bits(new.live["table"], live)
    for _ in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        # rows that are not live get +0.0 or -0.0; some live rows get all zeros
        dead_negative = rng.random(dead.size * dim).reshape(-1, dim) < 0.5
        grads["table"][dead] = np.where(dead_negative, -0.0, 0.0)
        grads["table"][live[rng.random(live.size) < 0.3]] = 0.0
        new.step(grads, lr, weight_decay)
        old.step(grads, lr, weight_decay)
        for name in shapes:
            assert same_bits(new_params[name], old_params[name])
        for name in ("bias", "head"):
            assert same_bits(new.m[name], old.m[name])
            assert same_bits(new.v[name], old.v[name])
        assert same_bits(new.m["table"], old.m["table"][live])
        assert same_bits(new.v["table"], old.v["table"][live])
        assert same_bits(old.m["table"][dead], np.zeros((dead.size, dim)))
        assert same_bits(old.v["table"][dead], np.zeros((dead.size, dim)))


class DenseAdamW(OldAdamW):
    """The reference optimizer behind the trainer's signature."""

    def __init__(self, blocks, clip_norm=5.0, live_rows=None):
        super().__init__(blocks, clip_norm)


@pytest.mark.parametrize("variant", ["cce", "triplet", "proxyanchor"])
def test_training_with_live_rows_matches_dense_adamw(variant, monkeypatch):
    data = synth_dataset(2, 40, seed=5)
    config = TrainConfig(loss=LossConfig(variant, beta=0.5), epochs=2, batch_size=16, seed=3)
    live = train(data.texts, data.labels, data.num_classes, config)
    monkeypatch.setattr("dmlbench.trainer.AdamW", DenseAdamW)
    dense = train(data.texts, data.labels, data.num_classes, config)
    for (name, a), (_, b) in zip(live.params.blocks(), dense.params.blocks()):
        assert same_bits(a, b), name
    if live.bank is not None:
        assert same_bits(live.bank.matrix, dense.bank.matrix)
    assert live.steps == dense.steps


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
        AdamW([("table", new_table)], clip, live_rows={"table": live}).step(
            {"table": grad}, 0.1, 0.01
        )
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
    with np.errstate(all="ignore"):
        AdamW([("table", new_table)], 1.0, live_rows={"table": live}).step({"table": grad}, 0.1, 0.01)
        OldAdamW([("table", old_table)], 1.0).step({"table": grad}, 0.1, 0.01)
    assert same_bits(new_table, old_table)
