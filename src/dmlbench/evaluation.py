"""Inference-time scoring and evaluation metrics.

Prediction blends two views of a trained model: the classifier head's
softmax probabilities and the cosine similarity of the embedding to each
class proxy, mixed as beta * prob + (1 - beta) * cosine. A bank with K
proxies per class scores each class by its best proxy (max cosine). The
blend is not renormalized (entries live in [-1, 1]); argmax breaks ties
toward the lowest class index. Significance between per-fold score
vectors uses a two-sided paired t-test whose CDF is computed here directly
from the regularized incomplete beta function, keeping the runtime
dependency surface to numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, classify_logits
from .errors import ConfigError, DimensionError
from .numeric import as_matrix, l2_normalize_rows, softmax_rows
from .proxies import ProxyBank


def blended_scores(
    params: EncoderParams,
    embeddings: np.ndarray,
    bank: ProxyBank | None,
    beta_inf: float,
) -> np.ndarray:
    """Per-class scores beta * softmax(logits) + (1 - beta) * cos(z, proxy).

    At beta_inf 1.0 the probabilities are returned as-is (no proxy bank
    needed); at 0.0 only the cosines are. A bank with K proxies per class
    scores each class by its best proxy (max cosine); for K = 1 that is
    the proxy's cosine itself. The bank must have the head's classes and
    the encoder's output dimension, or DimensionError is raised.
    """
    if not 0.0 <= beta_inf <= 1.0:
        raise ConfigError("beta_inf must lie in [0, 1]")
    z = as_matrix(embeddings)
    if beta_inf == 1.0:
        return softmax_rows(classify_logits(params, z))
    if bank is None:
        raise ConfigError("beta_inf < 1 requires a proxy bank")
    if (bank.classes, bank.dim) != (params.num_classes, params.out_dim):
        raise DimensionError(
            f"a proxy bank of {bank.classes} classes in dimension {bank.dim} does not fit "
            f"an encoder of {params.num_classes} classes in dimension {params.out_dim}"
        )
    cos = l2_normalize_rows(z) @ l2_normalize_rows(bank.matrix).T  # (L, C*K)
    cos = cos.reshape(z.shape[0], bank.classes, bank.proxies_per_class).max(axis=2)
    if beta_inf == 0.0:
        return cos
    probs = softmax_rows(classify_logits(params, z))
    return beta_inf * probs + (1.0 - beta_inf) * cos


def predict(scores: np.ndarray) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest class index."""
    return np.argmax(as_matrix(scores), axis=1)


@dataclass
class EvalResult:
    macro_f1: float
    per_class_f1: list[float]
    confusion: np.ndarray  # (C, C), rows true, columns predicted
    n_test: int

    def to_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "per_class_f1": self.per_class_f1,
            "confusion": self.confusion.tolist(),
            "n_test": self.n_test,
        }


def macro_f1(predictions, labels, num_classes: int) -> EvalResult:
    """Macro-averaged F1 over the classes that occur in the labels or the
    predictions; absent classes get F1 0 in per_class_f1 but do not drag
    the macro average down."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise DimensionError("predictions and labels must be aligned vectors")
    if labels.size == 0:
        raise ConfigError("cannot evaluate an empty test set")
    if num_classes < 1:
        raise ConfigError("num_classes must be >= 1")
    for arr, what in ((predictions, "prediction"), (labels, "label")):
        if np.any(arr < 0) or np.any(arr >= num_classes):
            raise ConfigError(f"{what} outside [0, {num_classes})")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    per_class = []
    included = []
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        f1 = float(2 * tp / denom) if denom > 0 else 0.0
        per_class.append(f1)
        if tp + fn > 0 or tp + fp > 0:
            included.append(f1)
    return EvalResult(
        macro_f1=float(np.mean(included)),
        per_class_f1=per_class,
        confusion=confusion,
        n_test=int(labels.size),
    )


# ---------------------------------------------------------------------------
# paired t-test, CDF via the regularized incomplete beta function

_BETA_EPS = 1e-12
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete-beta continued fraction
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ConfigError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def paired_significance(scores_a, scores_b) -> float:
    """Two-sided paired t-test p-value for two aligned score vectors.

    Identical vectors give p exactly 1; a constant nonzero difference has
    no variance to test against and gives p exactly 0.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("score vectors must be aligned 1-d arrays")
    if a.size < 2:
        raise ConfigError("need at least two paired scores")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConfigError("scores must be finite")
    diff = a - b
    if np.all(diff == 0.0):
        return 1.0
    sd = float(diff.std(ddof=1))
    mean = float(diff.mean())
    if sd == 0.0:
        return 0.0
    n = diff.size
    t = mean / (sd / math.sqrt(n))
    nu = n - 1
    return regularized_incomplete_beta(nu / 2.0, 0.5, nu / (nu + t * t))
