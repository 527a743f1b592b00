"""Finite-difference verification of every analytic gradient.

Each metric loss is checked through its own `LOSSES` row, so the oracle
checks what training calls: `draw_probe` draws a batch (and, for a proxy
loss, a bank of unit rows), lets the row's `mine` pick the structure once
per instance, and `probe` builds the row's `plan` once at that fixed
structure and wraps the row's `call`, handed that plan, as a scalar
function of one flat vector (embeddings, then proxies). So the checks and
index arrays that read only the labels, the structure and the
hyperparameters are made once per instance, and those that read the
embedding and proxy values on every call. The analytic gradient is read
once per instance, at x0; the probes of the finite differences read only
the value, so a metric loss's backward pass never runs for them
(cross-entropy computes its gradient regardless). Each
variant checks at the `LossConfig` fields in `PROBE_SETTINGS`. The
cross-entropy head is probed through its logits. The analytic gradient is
compared coordinate by coordinate with the central-difference estimate. A
coordinate passes when the absolute error is below 1e-8 for near-zero
derivatives (|fd| < 1e-6) and the relative error is below 1e-4 otherwise.
`check_gradient` judges an instance once: the coordinates that fail the
central difference are estimated again with the five-point stencil at
h = 1e-3, and the rule judges the instance on those values. The central
difference's rounding error, about eps * |f| / h at h = 1e-5, can exceed
1e-4 of a small derivative when the loss is large (supcon and proxyanchor
at a loss of 20 to 80); the five-point stencil's is a hundred times
smaller, and its truncation error is O(h^4). A wrong gradient fails both.

`run_gradcheck`'s instances are random but structured: six embeddings in
eight dimensions, three classes with two members each, so every loss sees
valid pairs, triplets, and positives. Hinge and distance kinks are
resampled away so the finite differences never straddle a non-smooth
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LOSSES, VARIANTS, EmbeddingBatch, LossConfig, cce_loss

# unused here, but bench/layers.py patches the name on this module too
# (ROADMAP item 14 lets the package time itself instead)
from .losses import mine_triplets  # noqa: F401
from .numeric import Rng, derive_seed, fd_gradient, five_point, l2_normalize_rows, softmax_rows
from .proxies import ProxyBank

ABS_TOL = 1e-8
REL_TOL = 1e-4
NEAR_ZERO = 1e-6

BATCH_SIZE = 6
DIM = 8
CLASSES = 3
LABELS = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
TRIES = 50  # draws per instance before a kink-free one is given up on

# the LossConfig fields each metric variant is checked at; softtriple also
# draws st_k, 1 or 2, per instance
PROBE_SETTINGS = {
    "triplet": {"margin": 1.0},
    "npairs": {},
    "supcon": {"tau": 0.3},
    "proxynca": {"softmax_scale": 1.3},
    "softtriple": {"st_lambda": 4.0, "st_gamma": 0.1, "st_delta": 0.3},
    "proxyanchor": {"pa_alpha": 8.0, "pa_delta": 0.1},
}


@dataclass
class CheckResult:
    variant: str
    instances: int
    failures: int
    worst_abs: float  # worst absolute error among near-zero coordinates
    worst_rel: float  # worst relative error among the rest

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _errors(analytic: np.ndarray, fd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate: whether the derivative is near zero, and the error
    the rule judges it by, absolute there and relative elsewhere."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    fd = np.asarray(fd, dtype=np.float64).ravel()
    near = np.abs(fd) < NEAR_ZERO
    abs_err = np.abs(analytic - fd)
    with np.errstate(divide="ignore", invalid="ignore"):
        return near, np.where(near, abs_err, abs_err / np.abs(fd))


def compare_gradients(analytic: np.ndarray, fd: np.ndarray) -> tuple[bool, float, float]:
    """Apply the mixed tolerance rule; returns (ok, worst_abs, worst_rel)."""
    near, err = _errors(analytic, fd)
    worst_abs = float(err[near].max()) if near.any() else 0.0
    worst_rel = float(err[~near].max()) if (~near).any() else 0.0
    return worst_abs < ABS_TOL and worst_rel < REL_TOL, worst_abs, worst_rel


def check_gradient(f, x0: np.ndarray, analytic: np.ndarray) -> tuple[bool, float, float]:
    """`compare_gradients` against the central difference of f at x0, with
    each coordinate that fails the rule there taken again by `five_point`
    at h = 1e-3 (no call when none fails)."""
    fd = fd_gradient(f, x0)
    near, err = _errors(analytic, fd)
    failing = np.flatnonzero(~np.where(near, err < ABS_TOL, err < REL_TOL))
    if failing.size:
        fd[failing] = five_point(f, x0, 1e-3, failing)
    return compare_gradients(analytic, fd)


def probe(config: LossConfig, batch: EmbeddingBatch, bank: ProxyBank | None, structure):
    """(f, x0, analytic) for the variant's `LOSSES` row at a fixed
    structure. The row's `plan` is built once, here, and every call below
    is handed it: f calls the row's `call` on a new batch (and bank) at
    the flat embeddings (then the proxies) x, with the plan's labels and
    structure, and reads only its value, so it forms no gradient; x0 is
    that vector for `batch` and `bank`, and analytic is the call's
    gradient there, read at once. Every call still runs the loss's checks
    on the embedding and proxy values."""
    spec = LOSSES[config.variant]
    plan = spec.plan(batch, config, bank, structure)
    shape, classes = batch.embeddings.shape, batch.num_classes
    n_emb = batch.embeddings.size

    def loss(embeddings, at):
        b = EmbeddingBatch(embeddings, plan.labels, classes)
        return spec.call(b, config, at, plan.structure, plan=plan)

    def f(flat):
        if bank is None:
            return loss(flat[:n_emb].reshape(shape), None).value
        at = ProxyBank(flat[n_emb:].reshape(bank.matrix.shape), bank.classes, bank.proxies_per_class)
        return loss(flat[:n_emb].reshape(shape), at).value

    grad_embeddings, grad_proxies = loss(batch.embeddings, bank).gradients()
    if bank is None:
        return f, batch.embeddings.ravel(), grad_embeddings.ravel()
    x0 = np.concatenate([batch.embeddings.ravel(), bank.matrix.ravel()])
    return f, x0, np.concatenate([grad_embeddings.ravel(), grad_proxies.ravel()])


def _clear_of_kinks(config: LossConfig, batch: EmbeddingBatch, bank: ProxyBank | None, structure) -> bool:
    """Whether every triplet hinge, and every embedding-to-proxy distance,
    is comfortably away from its kink, so that centered differences stay
    on one side of it."""
    z = batch.embeddings
    if config.variant == "triplet":
        ap = z[structure[:, 0]] - z[structure[:, 1]]
        an = z[structure[:, 0]] - z[structure[:, 2]]
        slack = ap[:, None, :] @ ap[:, :, None] - an[:, None, :] @ an[:, :, None] + config.margin
        return np.abs(slack).min() > 1e-3
    if bank is not None:
        dists = np.linalg.norm(l2_normalize_rows(z)[:, None, :] - bank.matrix[None, :, :], axis=2)
        return dists.min() > 1e-2
    return True


def draw_probe(config: LossConfig, rng: Rng, labels=LABELS, classes: int = CLASSES, dim: int = DIM):
    """`probe` at a random batch with these labels: draw the embeddings
    (and a bank of unit rows for a proxy loss), mine the row's structure
    without an rng, and draw again until the instance is clear of kinks.
    None when the labels give the loss no structure, where training takes
    a zero step."""
    spec = LOSSES[config.variant]
    rows = len(labels)
    for _ in range(TRIES):
        z = rng.normal(rows * dim).reshape(rows, dim)
        bank = None
        if spec.proxies is not None:
            per_class = config.proxies_per_class()
            proxies = rng.normal(classes * per_class * dim).reshape(classes * per_class, dim)
            bank = ProxyBank(l2_normalize_rows(proxies), classes, per_class)
        batch = EmbeddingBatch(z, labels, classes)
        structure = spec.mine(batch, None) if spec.mine is not None else None
        if structure is not None and len(structure) == 0:
            return None
        if _clear_of_kinks(config, batch, bank, structure):
            return probe(config, batch, bank, structure)
    raise RuntimeError(f"could not sample a kink-free {config.variant} instance")


def _cce_instance(rng: Rng):
    # the analytic gradient is w.r.t. the logits (fused softmax form), so
    # the probe perturbs logits and re-applies the softmax
    logits = rng.normal(BATCH_SIZE * CLASSES).reshape(BATCH_SIZE, CLASSES)
    out = cce_loss(softmax_rows(logits), LABELS)

    def f(flat):
        return cce_loss(softmax_rows(flat.reshape(BATCH_SIZE, CLASSES)), LABELS).value

    return f, logits.ravel(), out.grad_embeddings.ravel()


def _instance(variant: str, rng: Rng):
    if variant == "cce":
        return _cce_instance(rng)
    settings = PROBE_SETTINGS[variant]
    if variant == "softtriple":
        settings = {**settings, "st_k": 1 + rng.randint(2)}  # alternate K = 1 and K = 2
    return draw_probe(LossConfig(variant, **settings), rng)


def run_gradcheck(instances: int = 50, seed: int = 17) -> list[CheckResult]:
    results = []
    for variant in VARIANTS:
        rng = Rng(derive_seed(seed, "gradcheck", variant))
        failures = 0
        worst_abs = 0.0
        worst_rel = 0.0
        for _ in range(instances):
            f, x0, analytic = _instance(variant, rng)
            ok, wa, wr = check_gradient(f, x0, analytic)
            worst_abs = max(worst_abs, wa)
            worst_rel = max(worst_rel, wr)
            if not ok:
                failures += 1
        results.append(CheckResult(variant, instances, failures, worst_abs, worst_rel))
    return results
