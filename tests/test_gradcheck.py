import contextlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlbench import gradcheck, losses
from dmlbench.gradcheck import (
    ABS_TOL,
    NEAR_ZERO,
    PROBE_SETTINGS,
    REL_TOL,
    CheckResult,
    _instance,
    check_gradient,
    compare_gradients,
    draw_probe,
    probe,
    run_gradcheck,
)
from dmlbench.losses import LOSSES, VARIANTS, EmbeddingBatch, LossConfig, LossOutput
from dmlbench.numeric import Rng, derive_seed, fd_gradient, five_point, l2_normalize_rows
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


def test_probes_form_no_gradient():
    # each instance's analytic gradient is read once, in `probe`; the
    # central differences read only values. Every output that forms a
    # gradient, from its backward or from the arrays it was built with, is
    # counted under the function that built it
    formed = Counter()

    class Counted(LossOutput):
        def __init__(self, value, *grads, backward=None):
            builder = sys._getframe(1).f_code.co_name
            if backward is None:
                formed[builder] += 1
                super().__init__(value, *grads)
                return

            def counted():
                formed[builder] += 1
                return backward()

            super().__init__(value, backward=counted)

    with mock.patch.object(losses, "LossOutput", Counted):
        run_gradcheck(instances=2, seed=31)
    metric = [f"{v}_loss" for v in VARIANTS if LOSSES[v].call is not None]
    assert {name: formed[name] for name in metric} == dict.fromkeys(metric, 2)


def test_each_instance_builds_its_plan_once():
    # every call of an instance, the analytic one and each probe, is
    # handed the plan `probe` built
    built = Counter()

    def counting(variant):
        build = getattr(losses, f"{variant}_plan")

        def counted(*args):
            built[variant] += 1
            return build(*args)

        return counted

    metric = [v for v in VARIANTS if LOSSES[v].call is not None]
    with contextlib.ExitStack() as stack:
        for variant in metric:
            stack.enter_context(mock.patch.object(losses, f"{variant}_plan", counting(variant)))
        run_gradcheck(instances=2, seed=31)
    assert built == dict.fromkeys(metric, 2)


@pytest.mark.parametrize("call", [11, 37])
def test_supcon_probes_failing_the_oracle_have_correct_gradients(call):
    # the central difference alone fails supcon at these calls of the
    # benchmark's gradcheck workload (worst_rel 1.56e-4 and 2.12e-4 against
    # 1e-4). The loss is 28 and 74 there and the worst coordinates have |fd| near
    # 1.5e-6, so the central difference's rounding error at h = 1e-5, about
    # eps * |f| / h, exceeds the tolerance (at h = 1e-4 both pass). A
    # five-point stencil at h = 1e-3 agrees with the analytic gradient, and
    # the oracle, which takes the failing coordinates again with it, passes.
    seed = derive_seed(211, "gradcheck", call)
    config = LossConfig("supcon", **PROBE_SETTINGS["supcon"])
    f, x0, analytic = draw_probe(config, Rng(derive_seed(seed, "gradcheck", "supcon")))
    supcon = next(r for r in run_gradcheck(1, seed) if r.variant == "supcon")
    assert not compare_gradients(analytic, fd_gradient(f, x0))[0]
    assert supcon.passed, supcon
    ok, worst_abs, worst_rel = compare_gradients(analytic, five_point(f, x0, 1e-3, range(x0.size)))
    assert ok, (worst_abs, worst_rel)


def proxyanchor_at_alpha_32(seed):
    """(f, x0, analytic) of proxyanchor at alpha 32 on a random shape."""
    g = np.random.default_rng(seed)
    rows, dim, classes = g.integers(2, 9), g.integers(2, 7), g.integers(2, 5)
    labels = g.integers(0, classes, size=rows)
    z = g.normal(size=(rows, dim))
    w = l2_normalize_rows(g.normal(size=(classes, dim)))
    config = LossConfig("proxyanchor", pa_alpha=32.0, pa_delta=0.1)
    return probe(config, EmbeddingBatch(z, labels, classes), ProxyBank(w, classes, 1), None)


@pytest.mark.parametrize("seed", [8, 45, 146])
def test_proxyanchor_at_alpha_32_fails_only_the_central_stencil(seed):
    # proxyanchor at the training default alpha 32 on random shapes (L 2-8,
    # d 2-6, C 2-4, delta 0.1): 8 of numpy seeds 0-149 fail the central
    # difference at h = 1e-5, worst_rel up to 1.8e-4. The loss is 22 to 48
    # there, so the stencil's rounding error, about eps * |f| / h, is what
    # fails: at h = 1e-6 it grows to 1e-3, while a five-point stencil at
    # h = 1e-3 agrees with the analytic gradient to 4e-6, and the oracle,
    # which takes the failing coordinates again with it, passes.
    f, x0, analytic = proxyanchor_at_alpha_32(seed)
    assert not compare_gradients(analytic, fd_gradient(f, x0))[0]
    ok, worst_abs, worst_rel = compare_gradients(analytic, five_point(f, x0, 1e-3, range(x0.size)))
    assert ok, (worst_abs, worst_rel)
    assert check_gradient(f, x0, analytic)[0]


@contextlib.contextmanager
def oracle_calls():
    """`five_point` and `compare_gradients` as `check_gradient` calls them,
    wrapped to count their calls."""
    with mock.patch.object(gradcheck, "five_point", wraps=five_point) as recomputed, \
            mock.patch.object(gradcheck, "compare_gradients", wraps=compare_gradients) as judged:
        yield recomputed, judged


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_passing_instance_takes_no_five_point_estimate(variant):
    f, x0, analytic = _instance(variant, Rng(derive_seed(31, "gradcheck", variant)))
    assert compare_gradients(analytic, fd_gradient(f, x0))[0]
    with oracle_calls() as (recomputed, judged):
        assert check_gradient(f, x0, analytic)[0]
    assert (recomputed.call_count, judged.call_count) == (0, 1)


@pytest.mark.parametrize("seed", [8, 45, 146])
def test_the_oracle_takes_exactly_the_failing_coordinates_again_once(seed):
    # the coordinates that break the rule at the central difference, found
    # here from the rule's own words: |error| < 1e-8 where |fd| < 1e-6, and
    # |error| < 1e-4 |fd| elsewhere
    f, x0, analytic = proxyanchor_at_alpha_32(seed)
    fd = fd_gradient(f, x0)
    error = np.abs(analytic - fd)
    near = np.abs(fd) < NEAR_ZERO
    breaks = np.flatnonzero(np.where(near, error >= ABS_TOL, error >= REL_TOL * np.abs(fd)))
    assert breaks.size
    with oracle_calls() as (recomputed, judged):
        assert check_gradient(f, x0, analytic)[0]
    assert (recomputed.call_count, judged.call_count) == (1, 1)
    assert np.asarray(recomputed.call_args.args[3]).tolist() == breaks.tolist()


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_wrong_gradient_takes_one_five_point_estimate_and_fails(variant):
    f, x0, analytic = _instance(variant, Rng(derive_seed(31, "gradcheck", variant)))
    wrong = analytic.copy()
    wrong[np.argmax(np.abs(analytic))] *= 1.0 + 1e-3
    with oracle_calls() as (recomputed, judged):
        assert not check_gradient(f, x0, wrong)[0]
    assert (recomputed.call_count, judged.call_count) == (1, 1)


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
    # difference misses, the oracle takes the failing coordinates again with
    # a five-point stencil at h = 1e-3, as for the supcon and proxyanchor
    # probes above
    labels, classes, dim, rng = shape
    fields = dict(PROBE_SETTINGS[variant], **({"st_k": st_k} if variant == "softtriple" else {}))
    drawn = draw_probe(LossConfig(variant, **fields), rng, labels, classes, dim)
    if drawn is None:  # no structure in these labels: training takes a zero step
        return
    ok, worst_abs, worst_rel = check_gradient(*drawn)
    assert ok, (worst_abs, worst_rel)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [31, 211])
def test_a_wrong_gradient_still_fails_after_the_recompute(variant, seed):
    # the five-point recompute forgives rounding, not a wrong gradient: a
    # relative error of 1e-3 on the largest coordinate, or an error of 1e-7
    # on a near-zero one, fails every variant's instance. These probes have
    # no coordinate with |fd| < NEAR_ZERO, so the near-zero one is appended:
    # f does not read it, and its derivative is exactly 0.
    f, x0, analytic = _instance(variant, Rng(derive_seed(seed, "gradcheck", variant)))
    assert check_gradient(f, x0, analytic)[0]
    wrong = analytic.copy()
    wrong[np.argmax(np.abs(fd_gradient(f, x0)))] *= 1.0 + 1e-3
    assert not check_gradient(f, x0, wrong)[0]
    wider, with_zero = np.append(x0, 0.5), np.append(analytic, 0.0)
    assert check_gradient(lambda x: f(x[:-1]), wider, with_zero)[0]
    with_zero[-1] = 1e-7
    assert abs(fd_gradient(lambda x: f(x[:-1]), wider)[-1]) < NEAR_ZERO
    assert not check_gradient(lambda x: f(x[:-1]), wider, with_zero)[0]
