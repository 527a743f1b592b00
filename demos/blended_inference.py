# Two readouts of one model, and what mixing them buys.
#
# A model trained with the combined objective has two opinions about a
# text: the classifier head's softmax, and the cosine of its embedding
# to each class proxy. Inference can blend them:
#
#     score = beta_inf * softmax + (1 - beta_inf) * cosine
#
# This demo trains briefly, on purpose. An undertrained classifier head
# is exactly where the proxy side earns its keep.

import numpy as np

from dmlbench import (
    LossConfig,
    TrainConfig,
    blended_scores,
    forward_batch,
    macro_f1,
    pack_tokens,
    predict,
    synth_dataset,
    tokenize,
    train,
)

# the generator emits class 0's texts first, then class 1's, so a
# stratified few-shot split takes the head of each block
ds = synth_dataset(num_classes=2, size=400, noise=0.35, seed=5)
train_idx = np.concatenate([np.arange(0, 20), np.arange(200, 220)])
test_idx = np.setdiff1d(np.arange(400), train_idx)

cfg = TrainConfig(
    loss=LossConfig("proxyanchor", beta=0.5, pa_alpha=32.0, pa_delta=0.1),
    epochs=16,
    seed=5,
)
model = train(
    [ds.texts[i] for i in train_idx], ds.labels[train_idx], ds.num_classes, cfg
)
print(f"trained {len(model.steps)} steps, final loss {model.steps[-1][1]:.4f}")
print()

tokens = pack_tokens([tokenize(ds.texts[i], cfg.vocab_size) for i in test_idx])
z, _ = forward_batch(model.params, tokens)
y = ds.labels[test_idx]

# sweep the inference blend from pure proxies to pure classifier
print("beta_inf   macro-F1   (0 = proxies only, 1 = classifier only)")
for beta_inf in (0.0, 0.25, 0.5, 0.75, 1.0):
    scores = blended_scores(model.params, z, model.bank, beta_inf)
    f1 = macro_f1(predict(scores), y, ds.num_classes).macro_f1
    print(f"  {beta_inf:4.2f}     {f1:7.4f}")

print()
print("After 16 epochs the classifier head has barely moved, but the")
print("proxies were pulled onto their classes almost immediately, so")
print("every blend that leans on them beats the classifier alone. Train")
print("longer and the two readouts converge until the sweep flattens.")

# the proxies themselves are unit rows, one per class
print()
print("proxy bank:", model.bank.matrix.shape, "row norms",
      np.round(np.linalg.norm(model.bank.matrix, axis=1), 6).tolist())
