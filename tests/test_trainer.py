import math
from unittest import mock

import numpy as np
import pytest

from dmlbench import trainer
from dmlbench.encoder import EncoderParams, pack_tokens, tokenize
from dmlbench.errors import ConfigError, DegenerateVectorError, ScheduleError, TrainingDivergedError
from dmlbench.losses import VARIANTS, LossConfig
from dmlbench.numeric import Rng
from dmlbench.trainer import AdamW, TrainConfig, lr_schedule, train


def toy_data(n=24, seed=0):
    """Tiny separable two-class corpus: class c texts reuse tokens wc0..wc2."""
    rng = Rng(seed)
    texts, labels = [], []
    for i in range(n):
        c = i % 2
        words = [f"w{c}{rng.randint(3)}" for _ in range(4)]
        texts.append(" ".join(words))
        labels.append(c)
    return texts, np.array(labels)


def small_config(loss=None, **kw):
    defaults = dict(
        epochs=3,
        batch_size=8,
        lr=1e-2,
        vocab_size=64,
        embed_dim=8,
        out_dim=4,
        seed=11,
    )
    defaults.update(kw)
    return TrainConfig(loss=loss if loss is not None else LossConfig(), **defaults)


class TestSchedule:
    def test_warmup_ramp(self):
        # 6 warmup steps out of 100
        assert lr_schedule(0, 100, 2.0, 0.06) == 0.0
        assert lr_schedule(3, 100, 2.0, 0.06) == 1.0
        assert lr_schedule(6, 100, 2.0, 0.06) == 2.0

    def test_linear_decay(self):
        assert lr_schedule(53, 100, 2.0, 0.06) == pytest.approx(2.0 * 47 / 94)
        assert lr_schedule(99, 100, 2.0, 0.06) == pytest.approx(2.0 / 94)
        assert lr_schedule(99, 100, 2.0, 0.06) > 0.0

    def test_no_warmup(self):
        assert lr_schedule(0, 10, 1.0, 0.0) == 1.0

    def test_monotone_after_warmup(self):
        values = [lr_schedule(s, 50, 1.0, 0.1) for s in range(5, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_errors(self):
        with pytest.raises(ScheduleError):
            lr_schedule(0, 0, 1.0, 0.1)
        with pytest.raises(ScheduleError):
            lr_schedule(-1, 10, 1.0, 0.1)
        with pytest.raises(ScheduleError):
            lr_schedule(10, 10, 1.0, 0.1)
        with pytest.raises(ScheduleError):
            lr_schedule(0, 10, 1.0, 1.5)


class TestAdamW:
    def test_single_step_by_hand(self):
        w = np.array([1.0])
        opt = AdamW(w, [("w", w)], clip_norm=5.0)
        opt.step(np.array([0.5]), lr=0.1, weight_decay=0.0)
        # bias-corrected m=0.5, v=0.25 on step 1: update = 0.5/(0.5+eps)
        expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8))
        assert w[0] == pytest.approx(expected, abs=1e-12)

    def test_first_step_magnitude_is_lr(self):
        # Adam's first unclipped step is lr regardless of gradient size
        for g in (1e-4, 1.0):
            w = np.array([0.0])
            AdamW(w, [("w", w)], clip_norm=100.0).step(
                np.array([g]), lr=0.05, weight_decay=0.0
            )
            assert w[0] == pytest.approx(-0.05, rel=1e-3)

    def test_zero_lr_freezes_exactly(self):
        w = np.array([1.234, -0.5])
        before = w.copy()
        opt = AdamW(w, [("w", w)], clip_norm=5.0)
        for _ in range(3):
            opt.step(np.array([3.0, -2.0]), lr=0.0, weight_decay=0.5)
        assert np.array_equal(w, before)

    def test_weight_decay_shrinks_without_gradient(self):
        w = np.array([2.0, -4.0])
        AdamW(w, [("w", w)], clip_norm=5.0).step(np.zeros(2), lr=0.1, weight_decay=0.5)
        assert np.allclose(w, np.array([2.0, -4.0]) * (1.0 - 0.1 * 0.5))

    def test_global_clip_across_blocks(self):
        p1, p2 = np.zeros(4), np.zeros(4)
        a1, b1 = p1[:2], p1[2:]
        a2, b2 = p2[:2], p2[2:]
        ga = np.array([6.0, 0.0])
        gb = np.array([0.0, 8.0])  # joint norm 10, clip 5 halves both
        AdamW(p1, [("a", a1), ("b", b1)], clip_norm=5.0).step(
            np.concatenate([ga, gb]), lr=0.1, weight_decay=0.0
        )
        AdamW(p2, [("a", a2), ("b", b2)], clip_norm=100.0).step(
            np.concatenate([ga / 2, gb / 2]), lr=0.1, weight_decay=0.0
        )
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_no_clip_below_threshold(self):
        a1 = np.zeros(2)
        a2 = np.zeros(2)
        g = np.array([0.3, 0.4])
        AdamW(a1, [("a", a1)], clip_norm=5.0).step(g, 0.1, 0.0)
        AdamW(a2, [("a", a2)], clip_norm=0.5001).step(g, 0.1, 0.0)
        assert np.array_equal(a1, a2)

    def test_updates_in_place(self):
        w = np.ones(3)
        opt = AdamW(w, [("w", w)], clip_norm=5.0)
        opt.step(np.ones(3), 0.1, 0.0)
        assert opt.blocks[0][1] is w

    def test_live_rows_keep_compact_moments(self):
        flat = np.ones(7)
        table, head = flat[:4].reshape(2, 2), flat[4:]
        opt = AdamW(
            flat, [("table", table), ("head", head)], clip_norm=5.0, sparse={"table": ([1, 5], 8)}
        )
        assert opt.sparse["table"][0].tolist() == [1, 5]
        assert opt.m["table"].shape == opt.v["table"].shape == (2, 2)
        assert opt.m["head"].shape == (3,)

    def test_live_rows_out_of_range_rejected(self):
        for rows in ([8], [-1]):
            with pytest.raises(ConfigError):
                AdamW(np.ones(2), [("table", np.ones((1, 2)))], clip_norm=5.0, sparse={"table": (rows, 8)})
        # rows must be increasing and one per row of the block
        for rows in ([5, 1], [1, 1], [1]):
            with pytest.raises(ConfigError):
                AdamW(np.ones(4), [("table", np.ones((2, 2)))], clip_norm=5.0, sparse={"table": (rows, 8)})

    def test_rows_outside_live_only_decay(self):
        table = np.full((8, 2), 2.0)
        table[6] = -0.0
        grad = np.zeros((8, 2))
        grad[1] = 1.0
        flat = table[[1]].ravel()
        compact = flat.reshape(1, 2)
        AdamW(flat, [("table", compact)], clip_norm=5.0, sparse={"table": ([1], 8)}).step(
            grad[[1]].ravel(), lr=0.1, weight_decay=0.5
        )
        table[[1]] = compact
        params = EncoderParams(table, np.zeros((2, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        params.defer_decay([1], [0.1], 0.5)
        table = params.embedding_table
        assert np.array_equal(table[[0, 7]], np.full((2, 2), 2.0 - 0.1 * (2.0 * 0.5)))
        assert np.signbit(table[6]).all()
        assert (table[1] < 2.0 - 0.1).all()


class TestTrain:
    def test_bit_identical_reruns(self):
        texts, labels = toy_data()
        a = train(texts, labels, 2, small_config(LossConfig("supcon", beta=0.5)))
        b = train(texts, labels, 2, small_config(LossConfig("supcon", beta=0.5)))
        for (name, xa), (_, xb) in zip(a.params.blocks(), b.params.blocks()):
            assert np.array_equal(xa, xb), name
        assert a.steps == b.steps

    def test_blend_one_matches_plain_cce(self):
        texts, labels = toy_data()
        cce = train(texts, labels, 2, small_config(LossConfig("cce")))
        pa = train(
            texts, labels, 2, small_config(LossConfig("proxyanchor", beta=1.0))
        )
        for (name, xa), (_, xb) in zip(cce.params.blocks(), pa.params.blocks()):
            assert xa.tobytes() == xb.tobytes(), name
        assert [v for _, v in cce.steps] == [v for _, v in pa.steps]

    @pytest.mark.parametrize(
        "beta, other_side",
        [(0.0, ("cce_loss", "classify_logits")), (1.0, ("dml_loss",))],
        ids=["beta0", "beta1"],
    )
    def test_blend_endpoint_never_runs_the_other_side(self, monkeypatch, beta, other_side):
        texts, labels = toy_data()
        config = small_config(LossConfig("proxyanchor", beta=beta))
        plain = train(texts, labels, 2, config)

        def refuse(*args):
            raise AssertionError(f"the side of weight 0 ran at blend weight {beta}")

        for name in other_side:
            monkeypatch.setattr(trainer, name, refuse)
        patched = train(texts, labels, 2, config)
        assert patched.steps == plain.steps
        for (name, xa), (_, xb) in zip(patched.params.blocks(), plain.params.blocks()):
            assert xa.tobytes() == xb.tobytes(), name
        assert patched.bank.matrix.tobytes() == plain.bank.matrix.tobytes()

    def test_seed_changes_model(self):
        texts, labels = toy_data()
        a = train(texts, labels, 2, small_config(seed=1))
        b = train(texts, labels, 2, small_config(seed=2))
        assert not np.array_equal(a.params.projection, b.params.projection)

    def test_loss_decreases(self):
        texts, labels = toy_data(n=32)
        model = train(texts, labels, 2, small_config(epochs=12))
        first = model.steps[0][1]
        last = model.steps[-1][1]
        assert last < first

    def test_step_count(self):
        texts, labels = toy_data(n=10)
        model = train(texts, labels, 2, small_config(epochs=3, batch_size=4))
        assert len(model.steps) == 3 * math.ceil(10 / 4)
        assert [s for s, _ in model.steps] == list(range(9))

    def test_proxy_rows_stay_unit(self):
        texts, labels = toy_data()
        model = train(
            texts, labels, 2, small_config(LossConfig("proxyanchor", beta=0.5))
        )
        norms = np.linalg.norm(model.bank.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_cce_has_no_bank(self):
        texts, labels = toy_data()
        model = train(texts, labels, 2, small_config())
        assert model.bank is None

    def test_nonproxy_variant_has_no_bank(self):
        texts, labels = toy_data()
        model = train(texts, labels, 2, small_config(LossConfig("npairs", beta=0.5)))
        assert model.bank is None

    def test_log_dict_shape(self):
        texts, labels = toy_data(n=8)
        model = train(texts, labels, 2, small_config(epochs=2, batch_size=8))
        log = model.log_dict()
        assert len(log["steps"]) == 2
        assert set(log["steps"][0]) == {"step", "loss"}
        assert log["config"]["loss"]["variant"] == "cce"
        assert log["config"]["epochs"] == 2

    def test_input_validation(self):
        texts, labels = toy_data()
        with pytest.raises(ConfigError):
            train([], np.array([]), 2, small_config())
        with pytest.raises(ConfigError):
            train(texts, labels[:-1], 2, small_config())
        with pytest.raises(ConfigError):
            train(texts, labels, 1, small_config())  # labels exceed range

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(epochs=0)
        with pytest.raises(ConfigError):
            small_config(lr=-1.0)

    @pytest.mark.parametrize(
        "variant, metric_only",
        [(v, False) for v in VARIANTS] + [(v, True) for v in VARIANTS if v != "cce"],
    )
    def test_overflow_raises_diverged(self, variant, metric_only):
        # parameters overflow: the embeddings turn NaN or the proxy norms
        # overflow, and the cell must fail as diverged, not raise the
        # DimensionError or DegenerateVectorError that would abort a grid;
        # metric_only trains at blend weight 0, without the classifier loss
        texts, labels = toy_data()
        beta = 0.0 if metric_only else 0.5
        config = small_config(LossConfig(variant, beta=beta), lr=1e300, clip_norm=1e300)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(texts, labels, 2, config)


@pytest.mark.parametrize(
    "rows, error",
    [
        ({0: 0.0}, DegenerateVectorError),
        ({1: 1e200}, TrainingDivergedError),
        ({1: np.nan}, TrainingDivergedError),
        ({0: 0.0, 1: 1e200}, TrainingDivergedError),
    ],
)
def test_renorm_reports_an_overflowing_norm_as_a_divergence(rows, error):
    # after a step's update, a zero proxy row is a degenerate row and a
    # row whose norm overflows a divergence, also in a bank that has both
    step = AdamW.step

    def step_then_set(optimizer, *args):
        step(optimizer, *args)
        proxies = dict(optimizer.blocks)["proxies"]
        for row, value in rows.items():
            proxies[row] = value

    texts, labels = toy_data()
    with mock.patch.object(AdamW, "step", step_then_set), np.errstate(over="ignore"):
        with pytest.raises(error) as raised:
            train(texts, labels, 2, small_config(LossConfig("proxynca", beta=0.5)))
    if error is TrainingDivergedError:
        assert str(raised.value) == "step 0: proxy norms not finite"


def ragged_data():
    """toy_data with texts of 1 to 4 tokens, a blank one among them."""
    texts, labels = toy_data(n=30, seed=4)
    texts = [" ".join(t.split()[: 1 + i % 4]) for i, t in enumerate(texts)]
    texts[7] = "  ?! "
    return texts, labels


@pytest.mark.parametrize("variant", VARIANTS)
def test_pack_trains_as_the_texts_do(variant):
    # a take of a pack made at the run's vocabulary trains to the bits of
    # the list of those texts: parameters, bank and step log
    texts, labels = ragged_data()
    config = small_config(LossConfig(variant, beta=0.5), vocab_size=97, batch_size=7)
    pack = pack_tokens([tokenize(t, 97) for t in texts])
    idx = Rng(2).permutation(len(texts))[:23]
    from_pack = train(pack.take(idx), labels[idx], 2, config)
    from_texts = train([texts[i] for i in idx], labels[idx], 2, config)
    assert from_pack.steps == from_texts.steps
    for (name, a), (_, b) in zip(from_pack.params.blocks(), from_texts.params.blocks()):
        assert a.tobytes() == b.tobytes(), name
    assert (from_pack.bank is None) == (from_texts.bank is None)
    if from_pack.bank is not None:
        assert from_pack.bank.matrix.tobytes() == from_texts.bank.matrix.tobytes()


def test_pack_beyond_the_vocabulary_is_refused_before_any_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(trainer, "forward_batch", no_step)
    with pytest.raises(ConfigError, match="vocab_size 97"):
        train(pack_tokens([[5], [97, 3]]), np.array([0, 1]), 2, small_config(vocab_size=97))
    with pytest.raises(AssertionError, match="a step ran"):
        train(pack_tokens([[5], [96, 3]]), np.array([0, 1]), 2, small_config(vocab_size=97))
