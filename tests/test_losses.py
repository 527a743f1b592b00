import math
from unittest import mock

import numpy as np
import pytest

from dmlbench import losses
from dmlbench.errors import (
    ConfigError,
    DegenerateBatchError,
    DegenerateVectorError,
    DimensionError,
    InvalidTripletError,
    LabelError,
    PairingError,
    TrainingDivergedError,
)
from dmlbench.losses import (
    LOSSES,
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
from dmlbench.numeric import Rng, fd_gradient, l2_normalize_rows, softmax_rows
from dmlbench.proxies import ProxyBank, init_proxies

LABELS6 = np.array([0, 0, 1, 1, 2, 2])


def random_batch(rng, n=6, d=5, labels=LABELS6, num_classes=3):
    z = rng.normal(n * d).reshape(n, d)
    return EmbeddingBatch(z, labels, num_classes)


def fd_check(f, x0, analytic, atol=1e-8, rtol=1e-4):
    fd = fd_gradient(f, x0)
    for i in range(x0.size):
        if abs(fd[i]) < 1e-6:
            assert abs(analytic[i] - fd[i]) < atol, f"coordinate {i}"
        else:
            assert abs(analytic[i] - fd[i]) / abs(fd[i]) < rtol, f"coordinate {i}"


class TestCce:
    def test_hand_value_uniform(self):
        out = cce_loss(np.array([[0.5, 0.5]]), [0])
        assert math.isclose(out.value, math.log(2.0), rel_tol=1e-12)

    def test_hand_gradient(self):
        # (probs - onehot) / n, worked by hand for two rows
        out = cce_loss(np.array([[0.25, 0.75], [0.5, 0.5]]), [1, 0])
        assert np.allclose(out.grad_embeddings, np.array([[0.125, -0.125], [-0.25, 0.25]]))

    def test_probability_floor(self):
        out = cce_loss(np.array([[0.0, 1.0]]), [0])
        assert math.isclose(out.value, -math.log(1e-12))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            cce_loss(np.array([[0.6, 0.6]]), [0])

    def test_label_range(self):
        with pytest.raises(LabelError):
            cce_loss(np.array([[0.5, 0.5]]), [2])
        with pytest.raises(LabelError):
            cce_loss(np.array([[0.5, 0.5], [0.5, 0.5]]), [1, -1])

    def test_zero_rows(self):
        # an empty batch, as EmbeddingBatch refuses one
        with pytest.raises(DimensionError, match="at least one"):
            cce_loss(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_gradient_matches_fd(self):
        rng = Rng(100)
        labels = np.array([0, 2, 1, 0])
        for _ in range(5):
            logits = rng.normal(12).reshape(4, 3)
            out = cce_loss(softmax_rows(logits), labels)

            def f(flat):
                return cce_loss(softmax_rows(flat.reshape(4, 3)), labels).value

            fd_check(f, logits.ravel(), out.grad_embeddings.ravel())


class TestEmbeddingBatch:
    def test_labels_in_range(self):
        z = np.zeros((3, 2))
        for labels in ([0, 1, 3], [-1, 0, 1]):
            with pytest.raises(LabelError):
                EmbeddingBatch(z, labels, 3)
        with pytest.raises(DimensionError, match="at least one row"):
            EmbeddingBatch(np.zeros((0, 2)), [], 3)

    def test_with_embeddings_keeps_the_labels_and_checks_the_embeddings(self):
        batch = random_batch(Rng(4))
        z = Rng(5).normal(batch.embeddings.size).reshape(batch.embeddings.shape)
        moved = batch.with_embeddings(z)
        assert np.array_equal(moved.embeddings, z) and moved.labels is batch.labels
        assert moved.num_classes == batch.num_classes
        assert np.array_equal(batch.embeddings, random_batch(Rng(4)).embeddings)
        with pytest.raises(DimensionError, match="shape"):
            batch.with_embeddings(z[:-1])
        z[2, 1] = np.inf
        with pytest.raises(DimensionError, match="NaN or Inf"):
            batch.with_embeddings(z)


class TestTriplet:
    def test_hand_values(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        batch = EmbeddingBatch(z, [0, 0, 1], 2)
        # d2(a,p)=1, d2(a,n)=4: slack = 1 - 4 + margin
        assert triplet_loss(batch, [(0, 1, 2)], 4.0).value == 1.0
        assert triplet_loss(batch, [(0, 1, 2)], 2.0).value == 0.0

    def test_inactive_triplet_zero_gradient(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        batch = EmbeddingBatch(z, [0, 0, 1], 2)
        out = triplet_loss(batch, [(0, 1, 2)], 2.0)
        assert np.all(out.grad_embeddings == 0.0)

    def test_sum_not_mean(self):
        rng = Rng(4)
        batch = random_batch(rng)
        specs = mine_triplets(batch)
        single = [triplet_loss(batch, [s], 50.0).value for s in specs]  # margin large: all active
        total = triplet_loss(batch, specs, 50.0).value
        assert math.isclose(total, sum(single), rel_tol=1e-12)

    def test_validation(self):
        batch = random_batch(Rng(5))
        with pytest.raises(InvalidTripletError):
            triplet_loss(batch, [(0, 0, 2)], 1.0)  # repeated index
        with pytest.raises(InvalidTripletError):
            triplet_loss(batch, [(0, 2, 3)], 1.0)  # positive differs
        with pytest.raises(InvalidTripletError):
            triplet_loss(batch, [(0, 1, 1)], 1.0)
        with pytest.raises(InvalidTripletError):
            triplet_loss(batch, [(0, 1, 2)], -0.5)  # negative margin
        with pytest.raises(InvalidTripletError):
            triplet_loss(batch, [], 1.0)

    @pytest.mark.parametrize("triplet", [(5, -1, 0), (0, 1, 6), (0, 1, -7)])
    def test_indices_outside_the_batch_are_invalid(self, triplet):
        # -1 would read row 5, making anchor and positive one row; 6 and -7
        # would index past the end
        batch = EmbeddingBatch(Rng(5).normal(6 * 5).reshape(6, 5), [0, 0, 0, 1, 1, 1], 2)
        valid = (0, 1, 3)
        with pytest.raises(InvalidTripletError, match=r"must lie in \[0, 6\), got \({}, {}, {}\)".format(*triplet)):
            triplet_loss(batch, [valid, triplet], 1.0)

    @pytest.mark.parametrize(
        "triplets",
        [[0, 1, 2], [[0, 1, 2, 3]], np.zeros((2, 3, 1), dtype=np.int64), [[0.5, 1, 3]], [[True, False, True]]],
    )
    def test_triplets_must_be_integers_of_shape_t_by_3(self, triplets):
        batch = random_batch(Rng(5))
        with pytest.raises(DimensionError, match=r"shape \(T, 3\)"):
            triplet_loss(batch, triplets, 1.0)

    def test_gradient_matches_fd(self):
        rng = Rng(6)
        for _ in range(5):
            batch = random_batch(rng)
            specs = mine_triplets(batch)
            out = triplet_loss(batch, specs, 1.0)

            def f(flat):
                b = EmbeddingBatch(flat.reshape(6, 5), LABELS6, 3)
                return triplet_loss(b, specs, 1.0).value

            fd_check(f, batch.embeddings.ravel(), out.grad_embeddings.ravel())

    def test_mining_enumerates_all(self):
        batch = random_batch(Rng(7))
        specs = mine_triplets(batch)
        # 6 anchors x 1 positive x 4 negatives
        assert specs.shape == (24, 3) and specs.dtype == np.int64
        assert len({tuple(t) for t in specs.tolist()}) == 24

    def test_mining_cap(self):
        batch = random_batch(Rng(8))
        capped = mine_triplets(batch, rng=Rng(1), cap=10)
        assert len(capped) == 10
        with pytest.raises(ConfigError):
            mine_triplets(batch, rng=None, cap=10)

    def test_mining_takes_rng_and_cap_by_keyword_only(self):
        # the old second parameter was the margin; a positional value there
        # must not be read as the rng
        with pytest.raises(TypeError):
            mine_triplets(random_batch(Rng(8)), 1.0)


class TestNPairs:
    def test_no_negatives_is_zero(self):
        z = np.array([[1.0, 2.0], [0.5, -1.0]])
        out = npairs_loss(EmbeddingBatch(z, [0, 0], 1), [[0, 1], [1, 0]])
        assert out.value == 0.0

    def test_equal_scores_give_log_of_the_row_count(self):
        # each anchor scores its positive and the other class's two rows
        z = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = npairs_loss(EmbeddingBatch(z, [0, 0, 1, 1], 2), [[0, 1], [2, 3]])
        assert math.isclose(out.value, math.log(3.0), rel_tol=1e-12)

    def test_negatives_are_the_other_classes_among_the_pairs(self):
        # row 4 is in no pair, so it is nobody's negative and gets no gradient
        z = Rng(12).normal(5 * 3).reshape(5, 3)
        pairs = [[0, 1], [1, 0], [2, 3]]
        out = npairs_loss(EmbeddingBatch(z, [0, 0, 1, 1, 1], 2), pairs)
        rows = {0: [1, 2, 3], 1: [0, 2, 3], 2: [3, 0, 1]}  # positive first
        terms = [np.log(np.exp(z[r] @ z[a]).sum()) - z[r[0]] @ z[a] for a, r in rows.items()]
        assert math.isclose(out.value, sum(terms) / 3, rel_tol=1e-12)
        assert not np.any(out.grad_embeddings[4])

    def test_multiple_positives_rejected(self):
        with pytest.raises(PairingError, match="more than one pair"):
            npairs_loss(random_batch(Rng(9)), [[0, 1], [1, 0], [0, 1]])

    def test_all_singletons_rejected(self):
        labels = np.array([0, 1, 2])
        pairs = select_npairs_pairs(labels, Rng(10))
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)
        with pytest.raises(PairingError, match="at least one"):
            npairs_loss(EmbeddingBatch(Rng(10).normal(6).reshape(3, 2), labels, 3), pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "at least one"),
            ([[0, 6]], r"lie in \[0, 6\)"),
            ([[-1, 0]], r"lie in \[0, 6\)"),
            ([[0, 0]], "its own positive"),
            ([[0, 2]], "differ in class"),
        ],
    )
    def test_bad_pairs_rejected(self, pairs, message):
        with pytest.raises(PairingError, match=message):
            npairs_loss(random_batch(Rng(9)), pairs)

    @pytest.mark.parametrize(
        "pairs",
        [[0, 1], [[0, 1, 2]], np.array([[0.0, 1.0]]), np.array([[[0, 1]]])],
    )
    def test_pair_array_shape_and_dtype(self, pairs):
        with pytest.raises(DimensionError, match=r"\(P, 2\)"):
            npairs_loss(random_batch(Rng(10)), pairs)

    def test_gradient_matches_fd(self):
        rng = Rng(11)
        pairs = select_npairs_pairs(LABELS6)
        for _ in range(5):
            batch = random_batch(rng)
            out = npairs_loss(batch, pairs)

            def f(flat):
                return npairs_loss(EmbeddingBatch(flat.reshape(6, 5), LABELS6, 3), pairs).value

            fd_check(f, batch.embeddings.ravel(), out.grad_embeddings.ravel())

    def test_select_pairs_two_per_class(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        pairs = select_npairs_pairs(labels, Rng(1))
        assert pairs.dtype == np.int64 and pairs.shape == (4, 2)  # class 2 is a singleton
        assert pairs[:, 0].tolist() == sorted(pairs[:, 0].tolist())
        assert np.array_equal(labels[pairs[:, 0]], labels[pairs[:, 1]])
        assert sorted(labels[pairs[:, 0]].tolist()) == [0, 0, 1, 1]
        assert sorted(map(tuple, pairs.tolist())) == sorted((b, a) for a, b in pairs.tolist())

    def test_select_pairs_deterministic_without_rng(self):
        labels = np.array([1, 0, 1, 0, 1])
        assert select_npairs_pairs(labels, None).tolist() == [[0, 2], [1, 3], [2, 0], [3, 1]]


class TestSupCon:
    def test_two_same_class_rows_zero(self):
        z = np.array([[1.0, 2.0], [3.0, -1.0]])
        out = supcon_loss(EmbeddingBatch(z, [0, 0], 1), 0.5)
        assert abs(out.value) < 1e-12

    def test_non_negative(self):
        rng = Rng(12)
        for _ in range(20):
            batch = random_batch(rng)
            assert supcon_loss(batch, 0.4).value >= 0.0

    def test_anchors_without_positive_skipped(self):
        rng = Rng(13)
        z = rng.normal(20).reshape(4, 5)
        full = supcon_loss(EmbeddingBatch(z, [0, 0, 1, 2], 3), 0.7)
        assert np.isfinite(full.value)
        # the singleton rows still matter as contrast members
        sub = supcon_loss(EmbeddingBatch(z[:2], [0, 0], 1), 0.7)
        assert full.value != pytest.approx(sub.value)

    def test_all_singletons_degenerate(self):
        rng = Rng(14)
        z = rng.normal(15).reshape(3, 5)
        with pytest.raises(DegenerateBatchError):
            supcon_loss(EmbeddingBatch(z, [0, 1, 2], 3), 0.5)

    def test_tau_positive(self):
        with pytest.raises(ConfigError):
            supcon_loss(random_batch(Rng(15)), 0.0)

    def test_gradient_matches_fd(self):
        rng = Rng(16)
        for tau in (0.2, 1.0):
            batch = random_batch(rng)
            out = supcon_loss(batch, tau)

            def f(flat, tau=tau):
                return supcon_loss(EmbeddingBatch(flat.reshape(6, 5), LABELS6, 3), tau).value

            fd_check(f, batch.embeddings.ravel(), out.grad_embeddings.ravel())


class TestProxyNca:
    # z = (3, 0) normalizes onto its own proxy (2, 0) and lies sqrt(2) from
    # the other, (0, 5)
    HAND_BANK = ProxyBank(np.array([[2.0, 0.0], [0.0, 5.0]]), 2, 1)
    HAND_BATCH = EmbeddingBatch(np.array([[3.0, 0.0]]), [0], 2)

    def test_hand_value(self):
        out = proxynca_loss(self.HAND_BATCH, self.HAND_BANK, 1.0)
        assert math.isclose(out.value, -math.sqrt(2.0), abs_tol=1e-9)
        # scale multiplies both distances
        out2 = proxynca_loss(self.HAND_BATCH, self.HAND_BANK, 2.0)
        assert math.isclose(out2.value, -2.0 * math.sqrt(2.0), abs_tol=1e-9)

    def test_value_can_be_negative(self):
        # documented: the denominator has no positive-proxy term
        assert proxynca_loss(self.HAND_BATCH, self.HAND_BANK, 1.0).value < 0.0

    def test_normalize_matches_manual(self):
        rng = Rng(17)
        batch = random_batch(rng)
        bank = init_proxies(3, 1, 5, rng)
        a = proxynca_loss(batch, bank, 1.5)
        manual = EmbeddingBatch(l2_normalize_rows(batch.embeddings), LABELS6, 3)
        b = proxynca_loss(manual, bank, 1.5)
        assert math.isclose(a.value, b.value, rel_tol=1e-12)
        # the rows' lengths do not enter: the gradient has no radial part
        radial = np.einsum("ij,ij->i", a.grad_embeddings, batch.embeddings)
        assert np.allclose(radial, 0.0, atol=1e-12)

    def test_requires_single_proxy_per_class(self):
        rng = Rng(18)
        bank = init_proxies(3, 2, 5, rng)
        with pytest.raises(ConfigError):
            proxynca_loss(random_batch(rng), bank, 1.0)

    def test_scale_positive(self):
        rng = Rng(19)
        bank = init_proxies(3, 1, 5, rng)
        with pytest.raises(ConfigError):
            proxynca_loss(random_batch(rng), bank, 0.0)

    def test_gradient_matches_fd(self):
        rng = Rng(20)
        for _ in range(2):
            batch = random_batch(rng)
            bank = init_proxies(3, 1, 5, rng)
            out = proxynca_loss(batch, bank, 1.3)
            n_emb = batch.embeddings.size

            def f(flat, shape=bank.matrix.shape):
                b = EmbeddingBatch(flat[:n_emb].reshape(6, 5), LABELS6, 3)
                pk = ProxyBank(flat[n_emb:].reshape(shape), 3, 1)
                return proxynca_loss(b, pk, 1.3).value

            x0 = np.concatenate([batch.embeddings.ravel(), bank.matrix.ravel()])
            analytic = np.concatenate([out.grad_embeddings.ravel(), out.grad_proxies.ravel()])
            fd_check(f, x0, analytic)


class TestSoftTriple:
    def test_hand_value_single_proxy(self):
        bank = ProxyBank(np.array([[1.0, 0.0], [0.0, 1.0]]), 2, 1)
        batch = EmbeddingBatch(np.array([[1.0, 0.0]]), [0], 2)
        out = softtriple_loss(batch, bank, scale=1.0, gamma=0.1, delta=0.0)
        assert math.isclose(out.value, math.log(1.0 + math.exp(-1.0)), abs_tol=1e-6)

    def test_delta_raises_loss(self):
        # subtracting a margin from the true logit cannot lower the loss
        rng = Rng(21)
        batch = random_batch(rng)
        bank = init_proxies(3, 2, 5, rng)
        a = softtriple_loss(batch, bank, 8.0, 0.05, 0.0).value
        b = softtriple_loss(batch, bank, 8.0, 0.05, 0.4).value
        assert b > a

    def test_non_negative(self):
        rng = Rng(22)
        for _ in range(10):
            batch = random_batch(rng)
            bank = init_proxies(3, 2, 5, rng)
            assert softtriple_loss(batch, bank, 4.0, 0.1, 0.2).value >= 0.0

    def test_parameter_validation(self):
        rng = Rng(23)
        batch = random_batch(rng)
        bank = init_proxies(3, 2, 5, rng)
        with pytest.raises(ConfigError):
            softtriple_loss(batch, bank, 4.0, 0.0, 0.2)
        with pytest.raises(ConfigError):
            softtriple_loss(batch, bank, 0.0, 0.1, 0.2)

    def test_gradient_matches_fd(self):
        rng = Rng(24)
        for per_class in (1, 2):
            batch = random_batch(rng)
            bank = init_proxies(3, per_class, 5, rng)
            out = softtriple_loss(batch, bank, 4.0, 0.1, 0.3)
            n_emb = batch.embeddings.size

            def f(flat, per_class=per_class, shape=bank.matrix.shape):
                b = EmbeddingBatch(flat[:n_emb].reshape(6, 5), LABELS6, 3)
                pk = ProxyBank(flat[n_emb:].reshape(shape), 3, per_class)
                return softtriple_loss(b, pk, 4.0, 0.1, 0.3).value

            x0 = np.concatenate([batch.embeddings.ravel(), bank.matrix.ravel()])
            analytic = np.concatenate([out.grad_embeddings.ravel(), out.grad_proxies.ravel()])
            fd_check(f, x0, analytic)


class TestProxyAnchor:
    def test_embedding_on_proxy_is_tiny(self):
        bank = ProxyBank(np.array([[1.0, 0.0]]), 1, 1)
        batch = EmbeddingBatch(np.array([[1.0, 0.0]]), [0], 1)
        out = proxyanchor_loss(batch, bank, 32.0, 0.1)
        assert 0.0 <= out.value < 1e-10

    def test_non_negative(self):
        rng = Rng(25)
        for _ in range(10):
            batch = random_batch(rng)
            bank = init_proxies(3, 1, 5, rng)
            assert proxyanchor_loss(batch, bank, 16.0, 0.1).value >= 0.0

    def test_absent_class_contributes_push_only(self):
        rng = Rng(26)
        z = rng.normal(10).reshape(2, 5)
        bank = init_proxies(3, 1, 5, rng)
        # class 2 absent from the batch: its proxy should still repel
        out = proxyanchor_loss(EmbeddingBatch(z, [0, 1], 3), bank, 8.0, 0.1)
        assert np.any(out.grad_proxies[2] != 0.0)

    def test_large_alpha_stays_finite(self):
        rng = Rng(27)
        batch = random_batch(rng)
        bank = init_proxies(3, 1, 5, rng)
        out = proxyanchor_loss(batch, bank, 128.0, 0.9)
        assert np.isfinite(out.value)
        assert np.all(np.isfinite(out.grad_embeddings))

    def test_parameter_validation(self):
        rng = Rng(28)
        batch = random_batch(rng)
        bank = init_proxies(3, 1, 5, rng)
        with pytest.raises(ConfigError):
            proxyanchor_loss(batch, bank, 0.0, 0.1)
        with pytest.raises(ConfigError):
            proxyanchor_loss(batch, bank, 8.0, -0.1)
        with pytest.raises(ConfigError):
            proxyanchor_loss(batch, init_proxies(3, 2, 5, rng), 8.0, 0.1)

    def test_labels_must_fit_bank(self):
        rng = Rng(29)
        bank = init_proxies(2, 1, 5, rng)
        with pytest.raises(LabelError):
            proxyanchor_loss(random_batch(rng), bank, 8.0, 0.1)

    def test_gradient_matches_fd(self):
        rng = Rng(30)
        for alpha in (4.0, 32.0):
            batch = random_batch(rng)
            bank = init_proxies(3, 1, 5, rng)
            out = proxyanchor_loss(batch, bank, alpha, 0.1)
            n_emb = batch.embeddings.size

            def f(flat, alpha=alpha, shape=bank.matrix.shape):
                b = EmbeddingBatch(flat[:n_emb].reshape(6, 5), LABELS6, 3)
                pk = ProxyBank(flat[n_emb:].reshape(shape), 3, 1)
                return proxyanchor_loss(b, pk, alpha, 0.1).value

            x0 = np.concatenate([batch.embeddings.ravel(), bank.matrix.ravel()])
            analytic = np.concatenate([out.grad_embeddings.ravel(), out.grad_proxies.ravel()])
            fd_check(f, x0, analytic)


class TestPermutationInvariance:
    def test_all_losses(self):
        rng = Rng(31)
        batch = random_batch(rng)
        bank = init_proxies(3, 2, 5, rng)
        bank1 = ProxyBank(bank.matrix[::2].copy(), 3, 1)
        perm = Rng(32).permutation(6)
        inv = np.argsort(perm)
        permuted = EmbeddingBatch(batch.embeddings[perm], LABELS6[perm], 3)

        cases = [
            ("npairs", lambda b: npairs_loss(b, select_npairs_pairs(b.labels))),
            ("supcon", lambda b: supcon_loss(b, 0.4)),
            ("proxynca", lambda b: proxynca_loss(b, bank1, 1.2)),
            ("softtriple", lambda b: softtriple_loss(b, bank, 5.0, 0.1, 0.2)),
            ("proxyanchor", lambda b: proxyanchor_loss(b, bank1, 16.0, 0.1)),
        ]
        for name, fn in cases:
            a = fn(batch)
            b = fn(permuted)
            assert abs(a.value - b.value) < 1e-10, name
            assert np.allclose(a.grad_embeddings, b.grad_embeddings[inv], atol=1e-10), name

    def test_triplet_with_remapped_indices(self):
        rng = Rng(33)
        batch = random_batch(rng)
        specs = mine_triplets(batch)
        perm = Rng(34).permutation(6)
        inv = np.argsort(perm)
        permuted = EmbeddingBatch(batch.embeddings[perm], LABELS6[perm], 3)
        remapped = inv[specs]
        a = triplet_loss(batch, specs, 1.0)
        b = triplet_loss(permuted, remapped, 1.0)
        assert abs(a.value - b.value) < 1e-10
        assert np.allclose(a.grad_embeddings, b.grad_embeddings[inv], atol=1e-10)


class TestCombined:
    def make_outputs(self):
        rng = Rng(35)
        a = LossOutput(1.5, rng.normal(10).reshape(2, 5))
        b = LossOutput(0.7, rng.normal(10).reshape(2, 5), rng.normal(15).reshape(3, 5))
        return a, b

    def test_affine_value_and_gradients(self):
        a, b = self.make_outputs()
        out = combined_loss(a, b, 0.25)
        assert math.isclose(out.value, 0.25 * 1.5 + 0.75 * 0.7, rel_tol=1e-15)
        assert np.allclose(out.grad_embeddings, 0.25 * a.grad_embeddings + 0.75 * b.grad_embeddings)
        assert np.allclose(out.grad_proxies, 0.75 * b.grad_proxies)

    def test_beta_one_copies_cce_exactly(self):
        a, b = self.make_outputs()
        out = combined_loss(a, b, 1.0)
        assert out.value == a.value
        assert np.array_equal(out.grad_embeddings, a.grad_embeddings)
        assert np.all(out.grad_proxies == 0.0)  # proxies frozen, exact zeros

    def test_beta_zero_copies_dml_exactly(self):
        a, b = self.make_outputs()
        out = combined_loss(a, b, 0.0)
        assert out.value == b.value
        assert np.array_equal(out.grad_embeddings, b.grad_embeddings)
        assert np.array_equal(out.grad_proxies, b.grad_proxies)

    def test_beta_range(self):
        a, b = self.make_outputs()
        for beta in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                combined_loss(a, b, beta)

    def test_shape_mismatch(self):
        a, _ = self.make_outputs()
        c = LossOutput(0.1, np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            combined_loss(a, c, 0.5)

    def test_cce_side_carries_no_proxy_gradient(self):
        a, b = self.make_outputs()
        with_proxies = LossOutput(a.value, a.grad_embeddings, np.zeros_like(b.grad_proxies))
        for beta in (0.0, 0.5, 1.0):
            with pytest.raises(DimensionError):
                combined_loss(with_proxies, b, beta)


class TestDispatch:
    def test_proxy_variants_require_bank(self):
        batch = random_batch(Rng(36))
        for variant in ("proxynca", "softtriple", "proxyanchor"):
            with pytest.raises(ConfigError):
                dml_loss(batch, LossConfig(variant), bank=None)

    def test_cce_is_not_dispatchable(self):
        with pytest.raises(ConfigError):
            dml_loss(random_batch(Rng(37)), LossConfig("cce"))

    def test_singleton_batch_degrades_to_zero(self):
        rng = Rng(38)
        z = rng.normal(15).reshape(3, 5)
        batch = EmbeddingBatch(z, [0, 1, 2], 3)
        for variant in ("triplet", "npairs", "supcon"):
            out = dml_loss(batch, LossConfig(variant), rng=Rng(1))
            assert out.value == 0.0
            assert np.all(out.grad_embeddings == 0.0)

    def test_npairs_subbatch_scatters_gradient(self):
        rng = Rng(39)
        labels = np.array([0, 0, 0, 1, 1, 2])
        z = rng.normal(30).reshape(6, 5)
        batch = EmbeddingBatch(z, labels, 3)
        out = dml_loss(batch, LossConfig("npairs"), rng=Rng(2))
        assert out.value > 0.0
        # exactly two members per pairable class receive gradient
        touched = np.nonzero(np.any(out.grad_embeddings != 0.0, axis=1))[0]
        assert labels[touched].tolist().count(0) == 2
        assert labels[touched].tolist().count(1) == 2

    def test_zero_output_helper(self):
        batch = random_batch(Rng(40))
        out = zero_output(batch)
        assert out.value == 0.0 and out.grad_proxies is None
        assert out.grad_embeddings.shape == batch.embeddings.shape
        assert not np.any(out.grad_embeddings)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LossConfig("nope")
        with pytest.raises(ConfigError):
            LossConfig("cce", beta=1.5)
        with pytest.raises(ConfigError):
            LossConfig("supcon", tau=0.0)
        with pytest.raises(ConfigError):
            LossConfig("softtriple", st_k=0)

    @pytest.mark.parametrize(
        "fields, message",
        [({"margin": -1.0}, "margin must be >= 0"), ({"st_lambda": 0.0}, "st_lambda must be positive")],
    )
    def test_config_refuses_what_the_loss_would_refuse_at_step_0(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            LossConfig("triplet", **fields)

    def test_config_keeps_zero_margin_and_negative_delta(self):
        # --delta sets both deltas, and softtriple trains with a negative one
        LossConfig("triplet", margin=0.0)
        LossConfig("softtriple", st_delta=-2.0, pa_delta=-2.0)


class TestDeferredGradients:
    """A metric loss's output holds its value at once and its gradients as a
    backward pass that runs when they are first read."""

    def test_value_is_checked_when_built(self):
        never = []
        with pytest.raises(TrainingDivergedError, match="loss value is not finite"):
            LossOutput(float("nan"), backward=lambda: never.append(1))
        assert never == []

    @pytest.mark.parametrize(
        "grads, message",
        [
            ((np.array([[np.nan, 1.0]]), None), "embedding gradient contains NaN or Inf"),
            ((np.zeros((1, 2)), np.array([[np.inf, 0.0]])), "proxy gradient contains NaN or Inf"),
        ],
    )
    def test_a_non_finite_gradient_raises_when_read(self, grads, message):
        out = LossOutput(0.5, backward=lambda: grads)  # builds: the value is finite
        with pytest.raises(TrainingDivergedError, match=message):
            out.grad_embeddings

    def test_backward_runs_once(self):
        runs = []

        def backward():
            runs.append(1)
            return np.ones((2, 3)), np.zeros((4, 3))

        out = LossOutput(0.5, backward=backward)
        assert runs == []
        first = out.grad_embeddings
        assert out.grad_embeddings is first and out.grad_proxies.shape == (4, 3)
        assert runs == [1]

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if LOSSES[v].call is not None])
    def test_dml_loss_gradients_outlive_their_inputs(self, variant):
        # dml_loss reads the gradients before it returns, so overwriting the
        # batch embeddings and the bank in place afterwards, as a training
        # step does, changes none of their bits
        config = LossConfig(variant)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        z = Rng(41).normal(8 * 5).reshape(8, 5)
        rows = 3 * config.proxies_per_class()
        proxies = l2_normalize_rows(Rng(42).normal(rows * 5).reshape(rows, 5))

        def call():
            batch = EmbeddingBatch(z.copy(), labels, 3)
            bank = ProxyBank(proxies.copy(), 3, config.proxies_per_class())
            return batch, bank, dml_loss(batch, config, bank if config.is_proxy_based else None, Rng(43))

        _, _, expected = call()
        batch, bank, out = call()
        batch.embeddings[...] = 7.0
        bank.matrix[...] = 0.5
        assert out.grad_embeddings.tobytes() == expected.grad_embeddings.tobytes()
        assert (out.grad_proxies is None) == (expected.grad_proxies is None)
        if out.grad_proxies is not None:
            assert out.grad_proxies.tobytes() == expected.grad_proxies.tobytes()


METRIC = [v for v in VARIANTS if LOSSES[v].call is not None]


def planned_call(variant):
    """A batch, bank and structure for the variant, and a call of its row
    handed, as `_plan`, the plan built from them under the default config;
    the batch may be replaced by another with its labels, the config by
    another of the variant, and the plan by None."""
    config = LossConfig(variant)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    batch = EmbeddingBatch(Rng(51).normal(8 * 5).reshape(8, 5), labels, 3)
    rows = 3 * config.proxies_per_class()
    proxies = l2_normalize_rows(Rng(52).normal(rows * 5).reshape(rows, 5))
    bank = ProxyBank(proxies, 3, config.proxies_per_class()) if config.is_proxy_based else None
    spec = LOSSES[variant]
    structure = spec.mine(batch, None) if spec.mine is not None else None
    plan = spec.plan(batch, config, bank, structure)

    def call(batch=batch, config=config, plan=plan):
        return spec.call(batch, config, bank, structure, _plan=plan)

    return batch, call


class TestPlans:
    """A metric loss handed its plan as `_plan` runs only the checks that
    read embedding or proxy values."""

    @pytest.mark.parametrize("variant", METRIC)
    def test_a_call_with_a_plan_runs_no_plan_side_check(self, variant):
        _, call = planned_call(variant)
        expected = call()
        with mock.patch.object(losses, f"{variant}_plan", side_effect=AssertionError("plan built again")):
            out = call()
        assert out.value == expected.value
        assert out.grad_embeddings.tobytes() == expected.grad_embeddings.tobytes()

    @pytest.mark.parametrize("variant", ["proxynca", "softtriple", "proxyanchor"])
    def test_a_call_with_a_plan_checks_the_values(self, variant):
        batch, call = planned_call(variant)
        z = Rng(55).normal(8 * 5).reshape(8, 5)
        z[3] = 0.0  # a zero row has no direction to normalize
        with pytest.raises(DegenerateVectorError, match="zero-norm row"):
            call(batch=EmbeddingBatch(z, batch.labels, 3))

    @pytest.mark.parametrize(
        "variant, field, value",
        [
            ("triplet", "margin", 2.0),
            ("supcon", "tau", 0.2),
            ("proxynca", "softmax_scale", 2.0),
            ("softtriple", "st_lambda", 2.0),
            ("softtriple", "st_gamma", 0.2),
            ("softtriple", "st_delta", 0.4),
            ("proxyanchor", "pa_alpha", 16.0),
            ("proxyanchor", "pa_delta", 0.4),
        ],
    )
    def test_a_plan_built_under_another_hyperparameter_keeps_its_bits(self, variant, field, value):
        # a plan checks the hyperparameters but holds none of their values:
        # the forward reads them from the call
        _, call = planned_call(variant)
        other = LossConfig(variant, **{field: value})
        out = call(config=other)
        expected = call(config=other, plan=None)
        assert out.value == expected.value != call().value
        assert out.grad_embeddings.tobytes() == expected.grad_embeddings.tobytes()
        assert (out.grad_proxies is None) == (expected.grad_proxies is None)
        if out.grad_proxies is not None:
            assert out.grad_proxies.tobytes() == expected.grad_proxies.tobytes()


def direct_calls(variant):
    """For the variant, embeddings that fail its value-side check, that
    check's error, and calls of `<variant>_loss` on them with a sound plan
    side and with a faulty one, with the error the faulty one's plan
    raises."""
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    z = Rng(56).normal(8 * 5).reshape(8, 5)
    bank = ProxyBank(l2_normalize_rows(Rng(57).normal(3 * 5).reshape(3, 5)), 3, 1)
    if variant == "triplet":
        z[0], z[1], z[2] = 1e200, -1e200, 1e200  # d²(0, 1) overflows, d²(0, 2) is 0
        value_error = (TrainingDivergedError, "loss value is not finite")
    elif variant in ("npairs", "supcon"):
        z[0], z[1] = 1e200, 1e200  # the score of the pair (0, 1) overflows
        value_error = (DimensionError, "NaN or Inf")
    else:
        z[3] = 0.0  # a zero row has no direction to normalize
        value_error = (DegenerateVectorError, "zero-norm row")
    batch = EmbeddingBatch(z, labels, 3)
    pairs = select_npairs_pairs(labels)
    sound, faulty, plan_error = {
        "triplet": (
            lambda: triplet_loss(batch, np.array([[0, 1, 2]]), 1.0),
            lambda: triplet_loss(batch, np.array([[0, 1, 6]]), 1.0),
            (InvalidTripletError, "share a class"),
        ),
        "npairs": (
            lambda: npairs_loss(batch, pairs),
            lambda: npairs_loss(batch, pairs[:, [0, 0]]),
            (PairingError, "its own positive"),
        ),
        "supcon": (
            lambda: supcon_loss(batch, 0.1),
            lambda: supcon_loss(batch, 0.0),
            (ConfigError, "tau must be positive"),
        ),
        "proxynca": (
            lambda: proxynca_loss(batch, bank, 1.0),
            lambda: proxynca_loss(batch, bank, 0.0),
            (ConfigError, "scale must be positive"),
        ),
        "softtriple": (
            lambda: softtriple_loss(batch, bank, 1.0, 0.1, 0.1),
            lambda: softtriple_loss(batch, bank, 1.0, 0.0, 0.1),
            (ConfigError, "gamma must be positive"),
        ),
        "proxyanchor": (
            lambda: proxyanchor_loss(batch, bank, 32.0, 0.1),
            lambda: proxyanchor_loss(batch, bank, 32.0, -0.1),
            (ConfigError, "delta must be >= 0"),
        ),
    }[variant]
    return value_error, sound, faulty, plan_error


@pytest.mark.parametrize("variant", METRIC)
def test_a_direct_call_makes_its_plan_side_checks_before_it_reads_a_value(variant):
    (error, message), sound, faulty, (plan_error, plan_message) = direct_calls(variant)
    with np.errstate(over="ignore"), pytest.raises(error, match=message):
        sound()
    with pytest.raises(plan_error, match=plan_message):
        faulty()
