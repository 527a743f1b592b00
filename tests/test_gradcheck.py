import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlbench.gradcheck import (
    PROBE_SETTINGS,
    CheckResult,
    compare_gradients,
    draw_probe,
    probe,
    run_gradcheck,
)
from dmlbench.losses import LOSSES, VARIANTS, EmbeddingBatch, LossConfig
from dmlbench.numeric import Rng, derive_seed, fd_gradient, l2_normalize_rows
from dmlbench.proxies import ProxyBank


class TestCompareGradients:
    def test_exact_match_passes(self):
        g = np.array([0.5, -2.0, 0.0])
        ok, worst_abs, worst_rel = compare_gradients(g, g.copy())
        assert ok and worst_abs == 0.0 and worst_rel == 0.0

    def test_absolute_rule_near_zero(self):
        fd = np.array([1e-9])
        ok, worst_abs, _ = compare_gradients(np.array([1e-9 + 5e-9]), fd)
        assert ok and worst_abs == 5e-9
        ok, worst_abs, _ = compare_gradients(np.array([1e-9 + 2e-8]), fd)
        assert not ok

    def test_relative_rule_elsewhere(self):
        fd = np.array([2.0])
        ok, _, worst_rel = compare_gradients(np.array([2.0 + 1e-4]), fd)
        assert ok and worst_rel == pytest.approx(5e-5, rel=1e-6)
        ok, _, worst_rel = compare_gradients(np.array([2.0 + 4e-4]), fd)
        assert not ok

    def test_mixed_coordinates(self):
        fd = np.array([0.0, 3.0])
        analytic = np.array([5e-9, 3.0 * (1 + 5e-5)])
        ok, worst_abs, worst_rel = compare_gradients(analytic, fd)
        assert ok
        assert worst_abs > 0.0 and worst_rel > 0.0


class TestRunGradcheck:
    def test_covers_every_variant(self):
        results = run_gradcheck(instances=2, seed=17)
        assert [r.variant for r in results] == list(VARIANTS)
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.instances == 2 for r in results)

    def test_small_run_passes_cleanly(self):
        for r in run_gradcheck(instances=3, seed=17):
            assert r.passed, r
            assert r.failures == 0
            assert r.worst_rel < 1e-4
            assert r.worst_abs < 1e-8

    def test_deterministic(self):
        a = run_gradcheck(instances=2, seed=5)
        b = run_gradcheck(instances=2, seed=5)
        assert [(r.variant, r.worst_abs, r.worst_rel) for r in a] == [
            (r.variant, r.worst_abs, r.worst_rel) for r in b
        ]

    def test_seed_changes_instances(self):
        a = run_gradcheck(instances=2, seed=5)
        b = run_gradcheck(instances=2, seed=6)
        assert any(
            ra.worst_rel != rb.worst_rel for ra, rb in zip(a, b)
        )


def five_point(f, x, h):
    """Fourth-order central difference: (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h."""
    x = x.copy()
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        vals = []
        for step in (2 * h, h, -h, -2 * h):
            x[i] = orig + step
            vals.append(f(x))
        x[i] = orig
        grad[i] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)
    return grad


@pytest.mark.parametrize("call", [11, 37])
def test_supcon_probes_failing_the_oracle_have_correct_gradients(call):
    # run_gradcheck(1, seed) fails supcon at these calls of the benchmark's
    # gradcheck workload (worst_rel 1.56e-4 and 2.12e-4 against 1e-4). The
    # loss is 28 and 74 there and the worst coordinates have |fd| near
    # 1.5e-6, so the central difference's rounding error at h = 1e-5, about
    # eps * |f| / h, exceeds the tolerance (at h = 1e-4 both pass). A
    # five-point stencil at h = 1e-3 agrees with the analytic gradient.
    seed = derive_seed(211, "gradcheck", call)
    config = LossConfig("supcon", **PROBE_SETTINGS["supcon"])
    f, x0, analytic = draw_probe(config, Rng(derive_seed(seed, "gradcheck", "supcon")))
    supcon = next(r for r in run_gradcheck(1, seed) if r.variant == "supcon")
    assert supcon.worst_rel == compare_gradients(analytic, fd_gradient(f, x0))[2]
    ok, worst_abs, worst_rel = compare_gradients(analytic, five_point(f, x0, 1e-3))
    assert ok, (worst_abs, worst_rel)


@pytest.mark.parametrize("seed", [8, 45, 146])
def test_proxyanchor_at_alpha_32_fails_only_the_central_stencil(seed):
    # proxyanchor at the training default alpha 32 on random shapes (L 2-8,
    # d 2-6, C 2-4, delta 0.1): 8 of numpy seeds 0-149 fail the central
    # difference at h = 1e-5, worst_rel up to 1.8e-4. The loss is 22 to 48
    # there, so the stencil's rounding error, about eps * |f| / h, is what
    # fails: at h = 1e-6 it grows to 1e-3, while a five-point stencil at
    # h = 1e-3 agrees with the analytic gradient to 4e-6.
    g = np.random.default_rng(seed)
    rows, dim, classes = g.integers(2, 9), g.integers(2, 7), g.integers(2, 5)
    labels = g.integers(0, classes, size=rows)
    z = g.normal(size=(rows, dim))
    w = l2_normalize_rows(g.normal(size=(classes, dim)))
    config = LossConfig("proxyanchor", pa_alpha=32.0, pa_delta=0.1)
    f, x0, analytic = probe(config, EmbeddingBatch(z, labels, classes), ProxyBank(w, classes, 1), None)
    assert not compare_gradients(analytic, fd_gradient(f, x0))[0]
    ok, worst_abs, worst_rel = compare_gradients(analytic, five_point(f, x0, 1e-3))
    assert ok, (worst_abs, worst_rel)


@st.composite
def softtriple_instances(draw):
    # random labels over C classes, so absent and singleton classes occur
    rows = draw(st.integers(2, 8))
    dim = draw(st.integers(2, 6))
    classes = draw(st.integers(2, 4))
    per_class = draw(st.sampled_from([3, 4, 5]))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows)))
    rng = Rng(draw(st.integers(0, 2**32)))
    z = rng.normal(rows * dim).reshape(rows, dim)
    w = l2_normalize_rows(rng.normal(classes * per_class * dim).reshape(classes * per_class, dim))
    return z, w, labels, classes, per_class


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=softtriple_instances())
def test_softtriple_gradient_with_more_than_two_proxies_per_class(instance):
    # the oracle's probe alternates K = 1 and K = 2 on one 6x8x3 shape; this
    # checks K = 3..5 over other shapes at the oracle's settings and tolerances
    z, w, labels, classes, per_class = instance
    config = LossConfig("softtriple", st_k=per_class, **PROBE_SETTINGS["softtriple"])
    batch = EmbeddingBatch(z, labels, classes)
    f, x0, analytic = probe(config, batch, ProxyBank(w, classes, per_class), None)
    ok, worst_abs, worst_rel = compare_gradients(analytic, fd_gradient(f, x0))
    assert ok, (worst_abs, worst_rel)


@st.composite
def probe_shapes(draw):
    # random labels over C classes, so absent and singleton classes occur
    rows = draw(st.integers(2, 8))
    dim = draw(st.integers(2, 6))
    classes = draw(st.integers(2, 4))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows)))
    return labels, classes, dim, Rng(draw(st.integers(0, 2**32)))


@pytest.mark.parametrize("variant", [v for v in VARIANTS if LOSSES[v].call is not None])
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=probe_shapes(), st_k=st.integers(1, 2))
def test_every_metric_row_over_random_shapes(variant, shape, st_k):
    # each row as training calls it, with the structure its own miner
    # picks, at the oracle's settings and tolerances; where the central
    # difference misses, a five-point stencil at h = 1e-3 is the arbiter,
    # as for the supcon and proxyanchor probes above
    labels, classes, dim, rng = shape
    fields = dict(PROBE_SETTINGS[variant], **({"st_k": st_k} if variant == "softtriple" else {}))
    drawn = draw_probe(LossConfig(variant, **fields), rng, labels, classes, dim)
    if drawn is None:  # no structure in these labels: training takes a zero step
        return
    f, x0, analytic = drawn
    ok, worst_abs, worst_rel = compare_gradients(analytic, fd_gradient(f, x0))
    if not ok:
        ok, worst_abs, worst_rel = compare_gradients(analytic, five_point(f, x0, 1e-3))
    assert ok, (worst_abs, worst_rel)
