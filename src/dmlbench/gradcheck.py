"""Finite-difference verification of every analytic gradient.

Each loss is wrapped as a scalar function of one flat parameter vector
(embeddings, plus proxies where applicable, plus logits for the
cross-entropy head) and compared coordinate by coordinate against the
central-difference estimate. A coordinate passes when the absolute error
is below 1e-8 for near-zero derivatives (|fd| < 1e-6) and the relative
error is below 1e-4 otherwise.

Instances are random but structured: six embeddings in eight dimensions,
three classes with two members each, so every loss sees valid pairs,
triplets, and positives. Hinge and distance kinks are resampled away so
the finite differences never straddle a non-smooth point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (
    VARIANTS,
    EmbeddingBatch,
    TripletSpec,
    cce_loss,
    mine_triplets,
    npairs_loss,
    proxyanchor_loss,
    proxynca_loss,
    softtriple_loss,
    supcon_loss,
    triplet_loss,
)
from .numeric import Rng, derive_seed, fd_gradient, l2_normalize_rows, softmax_rows
from .proxies import ProxyBank

ABS_TOL = 1e-8
REL_TOL = 1e-4
NEAR_ZERO = 1e-6

BATCH_SIZE = 6
DIM = 8
CLASSES = 3
LABELS = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)


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


def compare_gradients(analytic: np.ndarray, fd: np.ndarray) -> tuple[bool, float, float]:
    """Apply the mixed tolerance rule; returns (ok, worst_abs, worst_rel)."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    fd = np.asarray(fd, dtype=np.float64).ravel()
    near = np.abs(fd) < NEAR_ZERO
    abs_err = np.abs(analytic - fd)
    worst_abs = float(abs_err[near].max()) if near.any() else 0.0
    rel_err = abs_err[~near] / np.abs(fd[~near]) if (~near).any() else np.zeros(1)
    worst_rel = float(rel_err.max()) if (~near).any() else 0.0
    return worst_abs < ABS_TOL and worst_rel < REL_TOL, worst_abs, worst_rel


def _random_embeddings(rng: Rng) -> np.ndarray:
    return rng.normal(BATCH_SIZE * DIM).reshape(BATCH_SIZE, DIM)


def _random_bank(rng: Rng, per_class: int) -> ProxyBank:
    rows = rng.normal(CLASSES * per_class * DIM).reshape(CLASSES * per_class, DIM)
    return ProxyBank(l2_normalize_rows(rows), CLASSES, per_class)


def _triplet_instance(rng: Rng):
    # resample until every hinge is comfortably away from its kink, so the
    # centered differences stay on one side of it
    margin = 1.0
    for _ in range(50):
        z = _random_embeddings(rng)
        batch = EmbeddingBatch(z, LABELS, CLASSES)
        triplets = mine_triplets(batch, margin)
        slacks = []
        for t in triplets:
            ap = z[t.anchor] - z[t.positive]
            an = z[t.anchor] - z[t.negative]
            slacks.append(float(ap @ ap - an @ an) + margin)
        if min(abs(s) for s in slacks) > 1e-3:
            specs = [TripletSpec(t.anchor, t.positive, t.negative, margin) for t in triplets]

            def f(flat, specs=specs):
                b = EmbeddingBatch(flat.reshape(BATCH_SIZE, DIM), LABELS, CLASSES)
                return triplet_loss(b, specs).value

            out = triplet_loss(batch, specs)
            return f, z.ravel(), out.grad_embeddings.ravel()
    raise RuntimeError("could not sample a kink-free triplet instance")


def _make_embedding_only(loss_fn):
    def build(rng: Rng):
        z = _random_embeddings(rng)
        batch = EmbeddingBatch(z, LABELS, CLASSES)
        out = loss_fn(batch)

        def f(flat):
            return loss_fn(EmbeddingBatch(flat.reshape(BATCH_SIZE, DIM), LABELS, CLASSES)).value

        return f, z.ravel(), out.grad_embeddings.ravel()

    return build


def _make_proxy_loss(loss_fn, per_class_of):
    def build(rng: Rng):
        per_class = per_class_of(rng)
        while True:
            z = _random_embeddings(rng)
            bank = _random_bank(rng, per_class)
            batch = EmbeddingBatch(z, LABELS, CLASSES)
            dists = np.linalg.norm(
                l2_normalize_rows(z)[:, None, :] - bank.matrix[None, :, :], axis=2
            )
            if dists.min() > 1e-2:  # keep sqrt kinks away from the fd stencil
                break
        n_emb = z.size
        out = loss_fn(batch, bank)

        def f(flat):
            zz = flat[:n_emb].reshape(BATCH_SIZE, DIM)
            pp = flat[n_emb:].reshape(bank.matrix.shape)
            b = ProxyBank(pp, CLASSES, per_class)
            return loss_fn(EmbeddingBatch(zz, LABELS, CLASSES), b).value

        x0 = np.concatenate([z.ravel(), bank.matrix.ravel()])
        grad = np.concatenate([out.grad_embeddings.ravel(), out.grad_proxies.ravel()])
        return f, x0, grad

    return build


def _cce_instance(rng: Rng):
    # the analytic gradient is w.r.t. the logits (fused softmax form), so
    # the probe perturbs logits and re-applies the softmax
    logits = rng.normal(BATCH_SIZE * CLASSES).reshape(BATCH_SIZE, CLASSES)
    out = cce_loss(softmax_rows(logits), LABELS)

    def f(flat):
        return cce_loss(softmax_rows(flat.reshape(BATCH_SIZE, CLASSES)), LABELS).value

    return f, logits.ravel(), out.grad_embeddings.ravel()


def _builders():
    """The probe of every variant, with the loss settings it checks at."""
    return {
        "cce": _cce_instance,
        "triplet": _triplet_instance,
        "npairs": _make_embedding_only(npairs_loss),
        "supcon": _make_embedding_only(lambda b: supcon_loss(b, tau=0.3)),
        "proxynca": _make_proxy_loss(
            lambda b, bank: proxynca_loss(b, bank, scale=1.3), lambda rng: 1
        ),
        "softtriple": _make_proxy_loss(
            lambda b, bank: softtriple_loss(b, bank, scale=4.0, gamma=0.1, delta=0.3),
            lambda rng: 1 + rng.randint(2),  # alternate K = 1 and K = 2
        ),
        "proxyanchor": _make_proxy_loss(
            lambda b, bank: proxyanchor_loss(b, bank, alpha=8.0, delta=0.1),
            lambda rng: 1,
        ),
    }


def run_gradcheck(instances: int = 50, seed: int = 17, h: float = 1e-5) -> list[CheckResult]:
    builders = _builders()
    results = []
    for variant in VARIANTS:
        build = builders[variant]
        rng = Rng(derive_seed(seed, "gradcheck", variant))
        failures = 0
        worst_abs = 0.0
        worst_rel = 0.0
        for _ in range(instances):
            f, x0, analytic = build(rng)
            fd = fd_gradient(f, x0, h=h)
            ok, wa, wr = compare_gradients(analytic, fd)
            worst_abs = max(worst_abs, wa)
            worst_rel = max(worst_rel, wr)
            if not ok:
                failures += 1
        results.append(CheckResult(variant, instances, failures, worst_abs, worst_rel))
    return results
