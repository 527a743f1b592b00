import numpy as np
import pytest
import scipy.special
import scipy.stats

from dmlbench.encoder import classify_logits, forward_batch, init_encoder, pack_tokens, tokenize
from dmlbench.errors import ConfigError, DegenerateVectorError, DimensionError
from dmlbench.evaluation import (
    EvalResult,
    blended_scores,
    macro_f1,
    paired_significance,
    predict,
    regularized_incomplete_beta,
)
from dmlbench.numeric import Rng, l2_normalize_rows, softmax_rows
from dmlbench.proxies import ProxyBank, init_proxies


def tiny_model(seed=0, classes=3, per_class=1):
    rng = Rng(seed)
    params = init_encoder(classes, 50, 6, 4, rng)
    bank = init_proxies(classes, per_class, 4, rng)
    z, _ = forward_batch(params, pack_tokens([tokenize(f"text {i}", 50) for i in range(5)]))
    return params, bank, z


class TestBlendedScores:
    def test_beta_one_is_softmax(self):
        params, bank, z = tiny_model()
        scores = blended_scores(params, z, bank, 1.0)
        assert np.allclose(scores.sum(axis=1), 1.0)
        # no bank needed at all
        assert np.array_equal(scores, blended_scores(params, z, None, 1.0))

    def test_beta_zero_is_cosine(self):
        # one proxy per class: the max over it gives the cosine bit for bit
        params, bank, z = tiny_model()
        scores = blended_scores(params, z, bank, 0.0)
        manual = l2_normalize_rows(z) @ l2_normalize_rows(bank.matrix).T
        assert np.array_equal(scores, manual)
        assert scores.min() >= -1.0 and scores.max() <= 1.0

    def test_midpoint_is_affine_mix(self):
        params, bank, z = tiny_model()
        probs = blended_scores(params, z, bank, 1.0)
        cos = blended_scores(params, z, bank, 0.0)
        mixed = blended_scores(params, z, bank, 0.3)
        assert np.allclose(mixed, 0.3 * probs + 0.7 * cos)

    def test_scores_within_band(self):
        params, bank, z = tiny_model(1)
        scores = blended_scores(params, z, bank, 0.5)
        assert scores.min() >= -1.0 and scores.max() <= 2.0

    def test_overflowing_proxy_norms_raise(self):
        # a PXB1 bank of finite entries near 1e200 loads, but its row norms
        # overflow: the cosines would all read 0 instead of failing
        params, bank, z = tiny_model()
        huge = ProxyBank(np.full_like(bank.matrix, 1e200), bank.classes, 1)
        with np.errstate(over="ignore"), pytest.raises(DegenerateVectorError):
            blended_scores(params, z, huge, 0.5)

    def test_max_cosine_takes_best_proxy(self):
        params, bank, z = tiny_model(2, per_class=3)
        full = l2_normalize_rows(z) @ l2_normalize_rows(bank.matrix).T
        best = full.reshape(5, 3, 3).max(axis=2)
        assert np.array_equal(blended_scores(params, z, bank, 0.0), best)
        probs = softmax_rows(classify_logits(params, z))
        mixed = blended_scores(params, z, bank, 0.5)
        assert np.array_equal(mixed, 0.5 * probs + 0.5 * best)

    def test_missing_bank_rejected(self):
        params, _, z = tiny_model(4)
        with pytest.raises(ConfigError):
            blended_scores(params, z, None, 0.5)

    def test_beta_inf_range(self):
        params, bank, z = tiny_model(5)
        for bad in (-0.01, 1.01):
            with pytest.raises(ConfigError):
                blended_scores(params, z, bank, bad)

    # the encoder has 3 classes and out_dim 4
    @pytest.mark.parametrize("classes, dim", [(4, 4), (3, 5)], ids=["classes", "dim"])
    @pytest.mark.parametrize("beta_inf", [0.0, 0.5])
    def test_class_count_mismatch(self, classes, dim, beta_inf):
        params, _, z = tiny_model(6, classes=3)
        other = init_proxies(classes, 1, dim, Rng(7))
        with pytest.raises(DimensionError, match=f"{classes} classes in dimension {dim}"):
            blended_scores(params, z, other, beta_inf)

    def test_predict_breaks_ties_low(self):
        scores = np.array([[0.5, 0.5, 0.1], [0.1, 0.2, 0.2]])
        assert predict(scores).tolist() == [0, 1]


class TestMacroF1:
    def test_perfect_predictions(self):
        res = macro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert res.macro_f1 == 1.0
        assert res.per_class_f1 == [1.0, 1.0, 1.0]

    def test_hand_confusion(self):
        # true:  0 0 1 1 1  pred: 0 1 1 1 0
        res = macro_f1([0, 1, 1, 1, 0], [0, 0, 1, 1, 1], 2)
        # class 0: tp=1 fp=1 fn=1 -> f1=0.5; class 1: tp=2 fp=1 fn=1 -> 2/3
        assert res.per_class_f1 == pytest.approx([0.5, 2 / 3])
        assert res.macro_f1 == pytest.approx((0.5 + 2 / 3) / 2)
        assert res.confusion.tolist() == [[1, 1], [1, 2]]
        assert res.n_test == 5

    def test_absent_class_not_averaged(self):
        # class 2 appears in neither labels nor predictions
        res = macro_f1([0, 1, 0, 1], [0, 1, 1, 0], 3)
        assert res.per_class_f1[2] == 0.0
        assert res.macro_f1 == pytest.approx(np.mean(res.per_class_f1[:2]))

    def test_predicted_only_class_counts(self):
        # class 2 never occurs but gets predicted: f1 0 and it is included
        res = macro_f1([0, 2], [0, 1], 3)
        assert res.per_class_f1[2] == 0.0
        assert res.macro_f1 == pytest.approx(np.mean([1.0, 0.0, 0.0]))

    def test_to_dict_keys(self):
        res = macro_f1([0, 1], [0, 1], 2)
        d = res.to_dict()
        assert set(d) == {"macro_f1", "per_class_f1", "confusion", "n_test"}
        assert isinstance(d["confusion"], list)

    def test_validation(self):
        with pytest.raises(DimensionError):
            macro_f1([0, 1], [0], 2)
        with pytest.raises(ConfigError):
            macro_f1([], [], 2)
        with pytest.raises(ConfigError):
            macro_f1([0, 2], [0, 1], 2)

    def test_matches_sklearn_style_oracle(self):
        # scipy has no macro-F1; build one from the confusion matrix directly
        rng = Rng(50)
        for _ in range(20):
            c = 2 + rng.randint(4)
            n = 10 + rng.randint(40)
            labels = np.array([rng.randint(c) for _ in range(n)])
            preds = np.array([rng.randint(c) for _ in range(n)])
            res = macro_f1(preds, labels, c)
            expected = []
            for k in range(c):
                tp = int(np.sum((preds == k) & (labels == k)))
                fp = int(np.sum((preds == k) & (labels != k)))
                fn = int(np.sum((preds != k) & (labels == k)))
                if tp + fp + fn == 0:
                    continue
                expected.append(2 * tp / (2 * tp + fp + fn))
            assert res.macro_f1 == pytest.approx(float(np.mean(expected)))


class TestIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        for a in (0.5, 1.0, 2.5, 19.5, 40.0):
            for b in (0.5, 1.0, 3.0, 12.0):
                for x in (0.001, 0.1, 0.37, 0.5, 0.82, 0.999):
                    ours = regularized_incomplete_beta(a, b, x)
                    ref = float(scipy.special.betainc(a, b, x))
                    assert ours == pytest.approx(ref, abs=1e-12, rel=1e-10), (a, b, x)

    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            regularized_incomplete_beta(1.0, -1.0, 0.5)


class TestPairedSignificance:
    def test_identical_vectors_give_one(self):
        scores = np.array([0.8, 0.9, 0.85, 0.7])
        assert paired_significance(scores, scores.copy()) == 1.0

    def test_constant_shift_gives_zero(self):
        a = np.array([0.5, 0.6, 0.7])
        assert paired_significance(a, a + 0.1) == 0.0

    def test_matches_scipy_ttest(self):
        rng = Rng(60)
        for _ in range(25):
            n = 5 + rng.randint(30)
            a = rng.normal(n)
            b = a + 0.3 * rng.normal(n) + 0.05
            ours = paired_significance(a, b)
            ref = float(scipy.stats.ttest_rel(a, b).pvalue)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_symmetry(self):
        rng = Rng(61)
        a, b = rng.normal(12), rng.normal(12)
        assert paired_significance(a, b) == pytest.approx(paired_significance(b, a))

    def test_validation(self):
        with pytest.raises(DimensionError):
            paired_significance([1.0, 2.0], [1.0])
        with pytest.raises(ConfigError):
            paired_significance([1.0], [2.0])
        with pytest.raises(ConfigError):
            paired_significance([1.0, float("nan")], [1.0, 2.0])


class TestEvalResultShape:
    def test_dataclass_fields(self):
        res = EvalResult(0.5, [0.5], np.zeros((1, 1), dtype=np.int64), 3)
        assert res.n_test == 3
