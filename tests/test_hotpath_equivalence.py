"""The package's hot-path functions against their references in
`tests/reference.py`, bit for bit.

Each function has one reference, the plainest loop that gives its bits:

- `Rng.permutation` and `Rng.choice`: `old_permutation`, `old_choice`;
- `mine_triplets` and `triplet_loss`: `old_mine_triplets`,
  `old_triplet_loss`;
- `npairs_loss`: `old_npairs_pairs_loss`, and the trainer's n-pairs step
  (`dml_loss`, which mines with `select_npairs_pairs`): `old_npairs_step`;
- `supcon_loss`, `proxynca_loss` and `proxyanchor_loss`:
  `old_supcon_loss`, `old_proxynca_loss`, `old_proxyanchor_loss`;
- `log_sum_exp_rows`: `old_log_sum_exp`; `l2_normalize_rows`:
  `old_l2_normalize_rows`; `normalize_backward`: `old_normalize_backward`;
- `init_encoder`: `eager_init_encoder`; `forward_batch`:
  `old_forward_batch`; `backward_batch`: `old_backward_batch`;
  `EncoderParams.defer_decay`: `decayed_eagerly`;
- `AdamW`: `OldAdamW`, over the dense table where `AdamW` holds live rows;
  `train`: `dense_train`;
- `synth_dataset`: `old_synth`.

Hypothesis varies the sizes; every comparison is on the raw bytes of the
results, so a difference in the last bit or in the sign of a zero fails.
"""

import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import (
    OldAdamW,
    dense_train,
    eager_init_encoder,
    decayed_eagerly,
    old_backward_batch,
    old_choice,
    old_forward_batch,
    old_l2_normalize_rows,
    old_log_sum_exp,
    old_mine_triplets,
    old_normalize_backward,
    old_npairs_pairs_loss,
    old_npairs_step,
    old_permutation,
    old_proxyanchor_loss,
    old_proxynca_loss,
    old_supcon_loss,
    old_synth,
    old_triplet_loss,
)

from dmlbench import losses, trainer
from dmlbench.encoder import (
    BLOCK_NAMES,
    EncoderParams,
    TokenBatch,
    backward_batch,
    block_shapes,
    forward_batch,
    init_encoder,
    pack_tokens,
    save_encoder,
    tokenize,
)
from dmlbench.errors import DegenerateVectorError, DimensionError, InvalidTripletError
from dmlbench.harness import synth_dataset
from dmlbench.losses import (
    VARIANTS,
    EmbeddingBatch,
    LossConfig,
    dml_loss,
    mine_triplets,
    npairs_loss,
    proxyanchor_loss,
    proxynca_loss,
    select_npairs_pairs,
    softtriple_loss,
    supcon_loss,
    triplet_loss,
)
from dmlbench.numeric import (
    Rng,
    add_rows_at,
    block_views,
    derive_seed,
    l2_normalize_rows,
    log_sum_exp_rows,
    normalize_backward,
)
from dmlbench.proxies import ProxyBank
from dmlbench.trainer import AdamW, TrainConfig, train

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# helpers


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
# n-pairs: the trainer's step, which mines two rows per class, against
# the same pairs taken by hand


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


def assert_same_outcome(new, old):
    """new() raises what old() raised, of the same type and message (a
    non-finite gradient when it is read), or both return outputs with the
    same bits. Returns the error type or None."""
    try:
        expected = old()
    except Exception as exc:
        with pytest.raises(Exception) as got:
            new().gradients()
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


@pytest.mark.parametrize("tau", [0.1, 0.9])
@pytest.mark.parametrize("singleton", [False, True])
@pytest.mark.parametrize("length", [64, 65])
def test_supcon_loss_matches_per_anchor_loop_at_training_shapes(length, singleton, tau):
    # at L = 64 with every row an anchor, the one block reads its
    # similarities and writes its spread through the off-diagonal view; a
    # singleton class leaves its row out of the block, and L = 65 takes
    # two blocks
    labels = np.arange(length) % 3
    if singleton:
        labels[length // 2] = 3
    z = np.tanh(Rng(length).normal(length * 16).reshape(length, 16))
    batch = EmbeddingBatch(z, labels, 4)
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
# plans: a loss handed its own plan gives the bits of a call without one


# per metric loss: its hyperparameters, valid and not, in parameter order
PLAN_SETTINGS = {
    "triplet": st.tuples(st.sampled_from([0.0, 1.0, 50.0, -0.5])),
    "npairs": st.just(()),
    "supcon": st.tuples(st.sampled_from([0.1, 0.9, 0.0])),
    "proxynca": st.tuples(st.sampled_from([1.0, 5.0, 1e308, 0.0])),
    "softtriple": st.tuples(
        st.sampled_from([1.0, 10.0, 0.0]), st.sampled_from([0.05, 0.1, 0.0]), st.sampled_from([0.1, 0.9])
    ),
    "proxyanchor": st.tuples(st.sampled_from([8.0, 32.0, 1.7e308, 0.0]), st.sampled_from([0.0, 0.1, -0.1])),
}


@settings(SETTINGS, max_examples=240)
@given(
    data=st.data(),
    variant=st.sampled_from(list(PLAN_SETTINGS)),
    batch=uneven_batches(max_rows=12) | overflowing_batches(),
    seed=st.integers(0, 2**32),
    extra_classes=st.integers(-1, 2),
    per_class=st.integers(1, 2),
)
def test_a_loss_given_its_own_plan_keeps_the_bits(data, variant, batch, seed, extra_classes, per_class):
    settings = data.draw(PLAN_SETTINGS[variant])
    build, loss = getattr(losses, f"{variant}_plan"), getattr(losses, f"{variant}_loss")
    if variant == "triplet":
        head = (mine_triplets(batch, rng=Rng(seed), cap=40),)
        if not len(head[0]):
            head = (np.array(data.draw(st.lists(st.tuples(*[st.integers(-1, 12)] * 3), max_size=4))),)
    elif variant == "npairs":
        head = (data.draw(hand_built_pairs(batch)),)
    elif variant == "supcon":
        head = ()
    else:
        classes = max(batch.num_classes + extra_classes, 1)
        proxies = Rng(seed).normal(classes * per_class * batch.embeddings.shape[1])
        head = (ProxyBank(proxies.reshape(classes * per_class, -1), classes, per_class),)

    def planned():
        return loss(batch, *head, *settings, _plan=build(batch, *head, *settings))

    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome_bits(planned) == outcome_bits(lambda: loss(batch, *head, *settings))


def outcome_bits(call):
    """The raw bytes of call()'s value and gradients, or the type and
    message of what it raised, building the output or reading them."""
    try:
        out = call()
        return tuple(None if x is None else np.asarray(x).tobytes() for x in (out.value, *out.gradients()))
    except Exception as exc:
        return type(exc), str(exc)


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


def assert_same_encoder(params, batch, texts, grad_seed):
    """forward_batch and backward_batch on `batch`, a pack of the token
    lists `texts`, give the bits of old_forward_batch and old_backward_batch
    on the lists, for an upstream gradient drawn from Rng(grad_seed).
    Returns backward_batch's gradients."""
    z, cache = forward_batch(params, batch)
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(z, z_old)
    assert same_bits(cache.pooled, pooled_old)
    grad_z = Rng(grad_seed).normal(z.size).reshape(z.shape)
    new = backward_into_zeros(params, cache, grad_z)
    old = old_backward_batch(params, texts, pooled_old, z_old, grad_z)
    assert list(new) == list(old)
    for name in old:
        assert same_bits(new[name], old[name]), name
    return new


@SETTINGS
@given(case=token_batches())
def test_forward_and_backward_match_per_text_loops(case):
    params, texts, seed = case
    assert_same_encoder(params, pack_tokens(texts), texts, seed + 1)


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
    assert_same_encoder(params, pack_tokens(texts), texts, 18)


def test_encoder_fortran_ordered_params():
    params = init_encoder(2, 8, 4, 3, Rng(17))
    for name, arr in params.blocks():
        if arr.ndim == 2:
            setattr(params, name, np.asfortranarray(arr))
    assert not params.embedding_table.flags.c_contiguous
    texts = [[2, 2, 2, 5], [5, 2], [7], [1] * 12]
    new = assert_same_encoder(params, pack_tokens(texts), texts, 18)
    assert np.any(new["embedding_table"] != 0.0)


def test_embed_dim_one_pools_in_token_order():
    # With one column numpy's mean of a text over 8 tokens sums pairwise;
    # forward_batch sums in token order, as it does for every embed_dim.
    # Values chosen so the two orders round differently.
    params = init_encoder(2, 10, 1, 3, Rng(17))
    params.embedding_table[:, 0] = [1e16] + [1.0] * 9
    texts = [list(range(10)), [0, 1, 2]]
    _, cache = forward_batch(params, pack_tokens(texts))
    assert same_bits(cache.pooled, old_forward_batch(params, texts)[1])
    pairwise = params.embedding_table[texts[0]].mean(axis=0)
    assert not same_bits(cache.pooled[0], pairwise)  # the known deviation
    assert same_bits(cache.pooled[1], params.embedding_table[texts[1]].mean(axis=0))


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
    assert_same_encoder(params, batch, lists, len(chosen))


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


def assert_split_matches_take(packed, size, params, grad_seed):
    """Every batch of `packed.split(size)` holds what take gathers for its
    run of texts, as views of the pack's arrays, and the encoder gives the
    take's bits on it."""
    parts = packed.split(size)
    cuts = list(range(0, len(packed), size)) + [len(packed)]
    assert len(parts) == len(cuts) - 1
    for part, first, stop in zip(parts, cuts, cuts[1:]):
        taken = packed.take(np.arange(first, stop))
        for name in ("ids", "lengths", "rows", "counts", "widths"):
            assert same_bits(getattr(part, name), getattr(taken, name)), name
            assert np.shares_memory(getattr(part, name), getattr(packed, name)), name
        z, cache = forward_batch(params, part)
        z_taken, cache_taken = forward_batch(params, taken)
        assert same_bits(z, z_taken)
        assert same_bits(cache.pooled, cache_taken.pooled)
        grad_z = Rng(grad_seed + first).normal(z.size).reshape(z.shape)
        new = backward_into_zeros(params, cache, grad_z)
        old = backward_into_zeros(params, cache_taken, grad_z)
        for name in old:
            assert same_bits(new[name], old[name]), name


@SETTINGS
@given(case=ragged_token_lists(), data=st.data())
def test_split_matches_take_on_ragged_packs(case, data):
    # every batch of a pack of mixed lengths split into runs, the last
    # one short or not, holds what take gathers for its texts
    vocab, texts = case
    size = data.draw(st.integers(1, len(texts)))
    params = init_encoder(3, vocab, data.draw(st.integers(1, 9)), 4, Rng(vocab))
    assert_split_matches_take(pack_tokens(texts), size, params, size)


@pytest.mark.parametrize("size", [1, 4, 7, 10, 11])
def test_split_of_an_epoch_with_a_blank_text_and_a_short_last_batch(size):
    # 31 texts of 1 to 5 tokens, a blank one (tokenize maps it to [0])
    # among them, shuffled as an epoch is: 31 % size texts in the last batch
    texts = [[(i * 5 + j) % 9 for j in range(1 + i % 5)] for i in range(31)]
    texts[12] = tokenize("  ?! ", 9)
    epoch = pack_tokens(texts).take(Rng(3).permutation(len(texts)))
    assert_split_matches_take(epoch, size, init_encoder(3, 9, 5, 4, Rng(4)), size)


def test_each_pack_builds_its_step_layouts_once():
    # an epoch pack builds its gathers and shares once; the batches it
    # splits into slice them, and forward_batch and backward_batch only
    # read them. 150 texts of 1 to 5 tokens, three in four of them 3, so
    # the 3-token run of a long batch spans more than one of
    # forward_batch's gathers of 64 texts
    texts = [[i % 7, i * 3 % 7, 2] if i % 4 else [i % 7] * (1 + i % 5) for i in range(150)]
    params = init_encoder(3, 7, 4, 5, Rng(23))
    epoch = pack_tokens(texts).take(Rng(24).permutation(len(texts)))
    order = Rng(24).permutation(len(texts))
    built = []
    build = TokenBatch._build_layouts

    def counted(batch):
        built.append(batch)
        return build(batch)

    with mock.patch.object(TokenBatch, "_build_layouts", counted):
        for size in (100, 149, 150, 64):
            for first, part in zip(range(0, len(texts), size), epoch.split(size)):
                lists = [texts[i] for i in order[first : first + size]]
                for _ in range(2):
                    assert_same_encoder(params, part, lists, first)
    assert len(built) == 1 and built[0] is epoch

    # train's epochs are one pack each, with 3 steps apiece
    built.clear()
    data = synth_dataset(2, 20, seed=5)
    config = TrainConfig(loss=LossConfig("triplet"), epochs=2, batch_size=8, seed=5)
    with mock.patch.object(TokenBatch, "_build_layouts", counted):
        train(data.texts, data.labels, data.num_classes, config)
    assert len(built) == 2 and built[0] is not built[1]


@pytest.mark.parametrize("count", [5, 64, 150])
def test_pooling_one_length_matches_the_pooling_of_several(count):
    # a batch whose texts share one length pools them straight into its
    # means and divides by that length; in a batch of several lengths the
    # same texts take the scatter by length, with the same bits
    texts = [[(i * 7 + j * 3) % 11 for j in range(4)] for i in range(count)]
    others = [[(i + j) % 11 for j in range(1 + i % 6)] for i in range(40)]
    params = init_encoder(3, 11, 6, 4, Rng(count))
    table = params.embedding_table
    table[::3] *= 1e6
    table[1::5] = -0.0
    mixed = pack_tokens(others + texts)
    assert len(mixed._layouts()[0]) > 1
    one = mixed.take(np.arange(len(others), len(others) + count))
    assert len(one._layouts()[0]) == 1
    assert_same_encoder(params, one, texts, count)
    pooled_one = forward_batch(params, one)[1].pooled
    pooled_mixed = forward_batch(params, mixed)[1].pooled
    assert same_bits(pooled_one, pooled_mixed[len(others) :])


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


@pytest.mark.parametrize("clip", [1e9, 0.5])
def test_adamw_at_scale_one_and_on_a_clipped_step(clip):
    # at scale 1.0 the step reads the gradient itself, with no pass to
    # scale it; a clipped step scales it into a work vector first. Either
    # way the caller's gradient is left as it was
    rng = Rng(8)
    shapes = {"table": (7, 3), "bias": (3,), "head": (3, 2)}
    start = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
    flat, new_params = flat_copy(list(start.items()))
    old_params = {name: arr.copy() for name, arr in start.items()}
    new = AdamW(flat, list(new_params.items()), clip)
    old = OldAdamW(list(old_params.items()), clip)
    for _ in range(3):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes.items()}
        grads["bias"][0] = -0.0
        grad = flat_grad(grads, shapes)
        given = grad.copy()
        new.step(grad, 1e-2, 0.01)
        old.step(grads, 1e-2, 0.01)
        assert same_bits(grad, given)
        assert (old.norms[-1] > clip) is (clip == 0.5)
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


def dense_blocks(start, sparse, seed):
    """OldAdamW's blocks for AdamW's blocks `start`: each sparse block
    (`sparse`: name -> (rows, total)) at its rows of a (total, E) table
    whose other rows are drawn from Rng(seed)."""
    blocks = dict(start)
    for name, (rows, total) in sparse.items():
        table = Rng(seed).normal(total * blocks[name].shape[1]).reshape(total, -1)
        table[rows] = blocks[name]
        blocks[name] = table
    return blocks


def dense_grads(grads, sparse):
    """The gradients with each sparse block spread at its rows over zeros."""
    spread = dict(grads)
    for name, (rows, total) in sparse.items():
        spread[name] = np.zeros((total,) + grads[name].shape[1:])
        spread[name][rows] = grads[name]
    return spread


def assert_same_adamw(new, new_params, old, old_params, first, lrs, weight_decay):
    """AdamW `new` and OldAdamW `old` over dense tables hold the same bits
    after steps at `lrs`: every block and its moments, where a sparse
    block's table, whose other rows started as in `first`, is compared once
    those rows have replayed their decay (`settled`)."""
    for name, arr in new_params.items():
        rows = slice(None)
        if name in new.sparse:
            rows, table = new.sparse[name][0], first[name].copy()
            table[rows] = arr
            arr = settled(table, rows, lrs, weight_decay)
        assert same_bits(arr, old_params[name]), name
        assert same_bits(new.m[name], old.m[name][rows]), name
        assert same_bits(new.v[name], old.v[name][rows]), name


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
        assert_same_adamw(new, new_params, old, old_params, start, [lr] * (step + 1), weight_decay)
        assert same_bits(old.m["table"][dead], np.zeros((dead.size, dim)))
        assert same_bits(old.v["table"][dead], np.zeros((dead.size, dim)))


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


@st.composite
def ragged_texts(draw):
    """6 to 24 texts, no multiple of 8 of them, each 1 to 20 words from a
    small pool, so words repeat, and at least one blank text (tokenize
    maps it to [0]); labelled 0, 1, 0, ... in order."""
    word = st.sampled_from(["red", "green", "blue", "cyan", "gold", "grey"])
    blank = st.sampled_from(["", "  ", "?!"])
    n = draw(st.integers(6, 24).filter(lambda n: n % 8))
    text = st.one_of(st.lists(word, min_size=1, max_size=20).map(" ".join), blank)
    texts = draw(st.lists(text, min_size=n - 1, max_size=n - 1))
    texts.insert(draw(st.integers(0, n - 1)), draw(blank))
    return texts, [i % 2 for i in range(n)]


@SETTINGS
@given(
    variant=st.sampled_from(VARIANTS),
    texts=st.one_of(st.integers(6, 24), ragged_texts()),
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
    # decides whether clipping fires. `texts` is a number of synthetic
    # 8-token texts, or ragged texts with their labels, which the last,
    # short batch of each epoch and the texts' mixed lengths split unevenly
    if isinstance(texts, int):
        data = synth_dataset(2, texts, seed=seed)
        texts, labels = data.texts, data.labels
    else:
        texts, labels = texts
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
            norm = dense_train(texts, labels, 2, config)[3][0]
            clip = norm if clip_ulps == 0 else np.nextafter(norm, np.inf * clip_ulps)
            config = dataclasses.replace(config, clip_norm=float(clip))
        reference = dense_train(texts, labels, 2, config)
        model = train(texts, labels, 2, config)
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
def test_flat_adamw_matches_dense_adamw(case, seed, steps, clip, weight_decay, bad):
    # clipped and unclipped steps, a sparse table against the whole one,
    # and now and then a gradient entry that makes the norm overflow or NaN
    vocab, live, shapes = case
    rng = Rng(seed)
    start = [(name, rng.normal(math.prod(s)).reshape(s)) for name, s in shapes]
    flat, new_params = flat_copy(start)
    sparse = {"embedding_table": (live, vocab)}
    first = dense_blocks(start, sparse, seed + 1)
    old_params = {name: arr.copy() for name, arr in first.items()}
    new = AdamW(flat, list(new_params.items()), clip, sparse=sparse)
    old = OldAdamW(list(old_params.items()), clip)
    lrs = []
    for step in range(steps):
        grads = {name: rng.normal(math.prod(s)).reshape(s) for name, s in shapes}
        if bad is not None and step == steps - 1:
            name, _ = shapes[rng.randint(len(shapes))]
            grads[name].reshape(-1)[rng.randint(grads[name].size)] = bad
        grad = flat_grad(grads, [name for name, _ in shapes])
        lrs.append(0.0 if step == 0 else 1e-2 / step)
        with np.errstate(all="ignore"):
            new.step(grad, lrs[-1], weight_decay)
            old.step(dense_grads(grads, sparse), lrs[-1], weight_decay)
        assert_same_adamw(new, new_params, old, old_params, first, lrs, weight_decay)


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
    sparse_rows = {"embedding_table": (live, vocab)} if sparse else {}
    for ratio in (1.0, 1.0 - 1e-9, 0.25):  # clip at the norm, at the bound, twice the norm
        for rel in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12):
            clip = norm * (1.0 + rel) / math.sqrt(ratio)
            flat, new_params = flat_copy(start)
            first = dense_blocks(start, sparse_rows, seed + 1)
            old_params = {name: arr.copy() for name, arr in first.items()}
            new = AdamW(flat, list(new_params.items()), clip, sparse=sparse_rows)
            old = OldAdamW(list(old_params.items()), clip)
            with mock.patch.object(AdamW, "_sum_of_squares", autospec=True,
                                   side_effect=AdamW._sum_of_squares) as summed:
                for lr in (0.1, 0.05):
                    new.step(grad, lr, 0.01)
                    old.step(dense_grads(grads, sparse_rows), lr, 0.01)
            misses = not float(np.dot(grad, grad)) < new._dot_below
            assert summed.call_count == 2 * misses, (ratio, rel)
            if ratio != 1.0 - 1e-9:  # next to the bound either path may run
                assert misses == (ratio != 0.25), (ratio, rel)
            assert_same_adamw(new, new_params, old, old_params, first, [0.1, 0.05], 0.01)


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
    old = old_backward_batch(params, texts, cache.pooled, z, grad_z)
    for name in BLOCK_NAMES[:3]:
        assert same_bits(grads[name], old[name]), name
    for name in BLOCK_NAMES[3:] + tuple(name for name, _ in extra):
        assert np.isnan(grads[name]).all(), name


@st.composite
def pooling_batches(draw):
    """1 to 70 token lists of mixed lengths, some long, over a table with
    signed zeros and a wide range of magnitudes."""
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
    return params, texts


@SETTINGS
@given(case=pooling_batches())
def test_pooling_by_length_matches_per_text_pooling(case):
    params, texts = case
    z, cache = forward_batch(params, pack_tokens(texts))
    z_old, pooled_old = old_forward_batch(params, texts)
    assert same_bits(cache.pooled, pooled_old)
    assert same_bits(z, z_old)


@pytest.mark.parametrize("texts", [64, 65, 70, 129])
@pytest.mark.parametrize("embed", [1, 32])
def test_pooling_splits_many_texts_of_one_length(texts, embed):
    # more texts of one length than one gather takes: the last gather holds
    # the rest, down to a single text
    params = init_encoder(2, 50, embed, 3, Rng(texts))
    rng = Rng(embed)
    lists = [(rng.random(9) * 50).astype(np.int64).tolist() for _ in range(texts)]
    z, cache = forward_batch(params, pack_tokens(lists))
    z_old, pooled_old = old_forward_batch(params, lists)
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
    texts = [list(range(length))]
    _, cache = forward_batch(params, pack_tokens(texts))
    assert same_bits(cache.pooled, old_forward_batch(params, texts)[1])
    pairwise = params.embedding_table[:, 0].sum() / length
    assert cache.pooled[0, 0] != pairwise  # the order the spare text avoids


# ---------------------------------------------------------------------------
# normalize_backward


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


@given(
    seed=st.integers(0, 2**32),
    rows=st.integers(1, 70),
    dim=st.integers(1, 64),
    layout=st.sampled_from(["c", "fortran", "transposed"]),
    bad=st.sampled_from([None, 0.0, 1e160, 1e300]),
)
@SETTINGS
def test_l2_normalize_rows_matches_the_linalg_norm(seed, rows, dim, layout, bad):
    # a row of zeros raises, and so does one whose squares overflow
    gen = np.random.default_rng(seed)
    m = gen.normal(size=(rows, dim)) * 10.0 ** gen.integers(-3, 4, size=(rows, 1))
    if bad is not None:
        m[gen.integers(rows)] = bad
    if layout == "fortran":
        m = np.asfortranarray(m)
    elif layout == "transposed":
        m = np.ascontiguousarray(m.T).T
    with np.errstate(over="ignore"):
        try:
            expected = old_l2_normalize_rows(m)
        except DegenerateVectorError as exc:
            with pytest.raises(DegenerateVectorError) as got:
                l2_normalize_rows(m)
            assert str(got.value) == str(exc)
            assert bad is not None
            return
        assert same_bits(l2_normalize_rows(m), expected)


# ---------------------------------------------------------------------------
# synth_dataset


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
