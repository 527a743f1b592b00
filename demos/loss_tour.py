# A tour of the loss zoo on one hand-built batch.
#
# Six embeddings, three classes, two members each. Every loss sees the
# same geometry, so the printed numbers are directly comparable: lower
# means the batch already looks the way that loss wants it to look.

import numpy as np

from dmlbench import (
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    Rng,
    cce_loss,
    combined_loss,
    init_proxies,
    mine_triplets,
    npairs_loss,
    proxyanchor_loss,
    proxynca_loss,
    select_npairs_pairs,
    softmax_rows,
    softtriple_loss,
    supcon_loss,
    triplet_loss,
)

rng = Rng(42)
labels = np.array([0, 0, 1, 1, 2, 2])
z = rng.normal(6 * 8).reshape(6, 8)
batch = EmbeddingBatch(z, labels, 3)
bank = init_proxies(3, 1, 8, rng)

print("batch: 6 embeddings in 8 dims, labels", labels.tolist())
print()

# --- triplet: squared-distance hinge over every (anchor, positive, negative)
triplets = mine_triplets(batch)
out = triplet_loss(batch, triplets, margin=1.0)
print(f"triplet      {out.value:10.4f}   ({len(triplets)} mined triplets)")

# --- n-pairs: one positive per anchor, softmax over the other pairs' rows
out = npairs_loss(batch, select_npairs_pairs(labels))
print(f"npairs       {out.value:10.4f}")

# --- supcon: all positives count, temperature sharpens the contrast
for tau in (1.0, 0.1):
    out = supcon_loss(batch, tau=tau)
    print(f"supcon       {out.value:10.4f}   (tau={tau})")

# --- proxy losses score embeddings against learnable class anchors
out = proxynca_loss(batch, bank, scale=1.0)
print(f"proxynca     {out.value:10.4f}   (can go negative: the positive")
print(f"{'':24}proxy is excluded from the denominator)")

out = softtriple_loss(batch, bank, scale=8.0, gamma=0.05, delta=0.1)
print(f"softtriple   {out.value:10.4f}")

out = proxyanchor_loss(batch, bank, alpha=32.0, delta=0.1)
print(f"proxyanchor  {out.value:10.4f}")
print()

# Every output carries analytic gradients; no autograd anywhere.
print("gradient shapes:", out.grad_embeddings.shape, out.grad_proxies.shape)
print("embedding gradient norm:", float(np.linalg.norm(out.grad_embeddings)))
print()

# --- blending with the classification loss
# The combined objective mixes a cross-entropy term (through a classifier
# head) with any metric loss above: beta * cce + (1 - beta) * dml. The
# head is a linear map W, so the cce gradient pulls back to the
# embeddings as grad_logits @ W.T.
W = rng.normal(8 * 3).reshape(8, 3) * 0.1
head = cce_loss(softmax_rows(z @ W), labels)
cce_on_z = LossOutput(head.value, head.grad_embeddings @ W.T)
dml = proxyanchor_loss(batch, bank, alpha=32.0, delta=0.1)

print("beta sweep of the combined objective:")
for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
    mix = combined_loss(cce_on_z, dml, beta)
    print(f"  beta={beta:4.2f}  loss={mix.value:8.4f}")

# At the endpoints the formula gives one side's values: the other side's
# finite values add as zeros, so only a zero's sign may differ, and a
# beta=1.0 training run keeps the bits of a plain cross-entropy run.
lo = combined_loss(cce_on_z, dml, 0.0)
hi = combined_loss(cce_on_z, dml, 1.0)
print()
print("beta=0 copies the metric side exactly:", lo.value == dml.value)
print("beta=1 copies the cce side exactly:   ", hi.value == cce_on_z.value)

# LossConfig bundles the same knobs for the trainer
cfg = LossConfig("proxyanchor", beta=0.5, pa_alpha=32.0, pa_delta=0.1)
print()
print("as a config:", cfg)
