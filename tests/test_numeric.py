import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_lse

from dmlbench.errors import DegenerateVectorError, DimensionError, OracleFailureError
from dmlbench.numeric import (
    Rng,
    derive_seed,
    fd_gradient,
    fnv1a_64,
    l2_normalize_rows,
    log_sum_exp,
    normalize_backward,
    sigmoid,
    softmax_rows,
    softplus,
)

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64_reference(x):
    # independent pure-integer SplitMix64 finalizer, straight from the
    # published constants
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return (x ^ (x >> 31)) & MASK


class TestRng:
    def test_matches_pure_python_reference(self):
        seed = 987654321
        rng = Rng(seed)
        got = rng.random(6)
        for i, value in enumerate(got):
            raw = mix64_reference((seed + (i + 1) * GOLDEN) & MASK)
            assert value == (raw >> 11) / 2.0**53

    def test_uniform_exactness_and_range(self):
        rng = Rng(3)
        u = rng.random(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        # every draw is a dyadic rational with 53-bit numerator
        assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))

    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert np.array_equal(a.random(100), b.random(100))
        assert np.array_equal(a.normal(51), b.normal(51))

    def test_counter_advances_consistently(self):
        a = Rng(7)
        first = a.random(5)
        b = Rng(7)
        b.random(2)
        assert np.array_equal(first[2:], b.random(3))

    def test_uniform_moments(self):
        u = Rng(11).random(200_000)
        assert abs(u.mean() - 0.5) < 2e-3
        assert abs(u.var() - 1.0 / 12.0) < 1e-3

    def test_normal_moments(self):
        z = Rng(13).normal(200_000)
        assert abs(z.mean()) < 1e-2
        assert abs(z.std() - 1.0) < 1e-2
        z5 = Rng(13).normal(200_000, scale=0.5)
        assert abs(z5.std() - 0.5) < 1e-2

    def test_permutation_is_bijection(self):
        for n in (1, 2, 17, 100):
            p = Rng(n).permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    def test_permutation_uniformity_smoke(self):
        # position of element 0 should be roughly uniform
        rng = Rng(5)
        counts = np.zeros(4)
        for _ in range(4000):
            counts[np.nonzero(rng.permutation(4) == 0)[0][0]] += 1
        assert counts.min() > 800

    def test_choice_distinct_and_in_range(self):
        rng = Rng(9)
        for _ in range(50):
            k = rng.choice(20, 7)
            assert len(set(k.tolist())) == 7
            assert k.min() >= 0 and k.max() < 20

    def test_randint_bounds(self):
        rng = Rng(21)
        draws = [rng.randint(3) for _ in range(300)]
        assert set(draws) == {0, 1, 2}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "fold", 3) == derive_seed(1, "fold", 3)

    def test_parts_matter(self):
        seen = {
            derive_seed(1),
            derive_seed(2),
            derive_seed(1, "fold"),
            derive_seed(1, "shuffle"),
            derive_seed(1, "fold", 0),
            derive_seed(1, "fold", 1),
            derive_seed(1, 0, "fold"),
        }
        assert len(seen) == 7

    def test_streams_are_unrelated(self):
        # derived streams should not be shifted copies of each other
        a = Rng(derive_seed(99, "init")).random(1000)
        b = Rng(derive_seed(99, "shuffle")).random(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestFnv:
    def test_published_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8


class TestScalarHelpers:
    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(3, 7)) * rng.uniform(0.1, 30)
            mine = softmax_rows(x)
            ref = np.exp(x - scipy_lse(x, axis=1, keepdims=True))
            assert np.allclose(mine, ref, atol=1e-12)
            assert np.all(np.abs(mine.sum(axis=1) - 1.0) < 1e-12)

    def test_softmax_rows(self):
        # each row on its own: shifting one row leaves every row's softmax
        x = np.random.default_rng(1).normal(size=(5, 4))
        shifted = x + np.array([[0.0], [50.0], [-50.0], [0.0], [700.0]])
        assert np.allclose(softmax_rows(shifted), softmax_rows(x), atol=1e-12)

    def test_log_sum_exp_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=6) * 100
            assert math.isclose(log_sum_exp(x), float(scipy_lse(x)), rel_tol=1e-12)

    def test_log_sum_exp_singleton_exact(self):
        assert log_sum_exp(np.array([3.7])) == 3.7

    def test_log_sum_exp_extreme(self):
        assert math.isclose(log_sum_exp(np.array([1000.0, 1000.0])), 1000.0 + math.log(2))

    def test_softplus_sigmoid(self):
        for t in (-700.0, -5.0, 0.0, 5.0, 700.0):
            assert math.isclose(sigmoid(t), 1.0 / (1.0 + math.exp(-min(max(t, -500), 500))), abs_tol=1e-15)
            assert softplus(t) >= 0.0
        assert math.isclose(softplus(0.0), math.log(2.0))
        assert math.isclose(softplus(800.0), 800.0)
        assert softplus(-800.0) == 0.0  # underflows cleanly, never NaN

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            log_sum_exp(np.ones((2, 2)))
        with pytest.raises(DimensionError):
            softmax_rows(np.array([1.0, 2.0]))


class TestNormalization:
    def test_rows(self):
        m = l2_normalize_rows(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0)
        with pytest.raises(DegenerateVectorError):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [1e154, 1e200, np.inf, np.nan])
    def test_rows_reject_a_non_finite_norm(self, entry):
        # finite entries this large overflow the sum of squares; dividing by
        # the inf norm would return a zero row instead of a direction
        with np.errstate(over="ignore"), pytest.raises(DegenerateVectorError):
            l2_normalize_rows(np.array([[1.0, 2.0], [entry, entry]]))

    def test_normalize_backward_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=5)
            g = rng.normal(size=5)

            def f(v):
                return float(g @ (v / np.linalg.norm(v)))

            fd = fd_gradient(f, x)
            assert np.allclose(normalize_backward(x, g), fd, atol=1e-7)


class TestFdGradient:
    def test_quadratic_exact(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return float(x @ a @ x)

        x0 = np.array([1.0, -2.0])
        assert np.allclose(fd_gradient(f, x0), 2 * a @ x0, atol=1e-8)

    def test_reports_bad_coordinate(self):
        def f(x):
            return float("nan") if x[1] > 0.5 else float(x.sum())

        with pytest.raises(OracleFailureError, match="coordinate 1"):
            fd_gradient(f, np.array([0.0, 0.5]))
