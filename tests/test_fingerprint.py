"""Bit-identity gate: the trajectory fingerprint of one small training run
per loss variant is pinned.

The fingerprint is sha256 over the final parameter blocks, the proxy bank
(if any) and the loss trace, with the recipe of `bench/run.py:fingerprint`
(48 synthetic texts, 2 epochs, batch 16, beta 0.5). A change meant to be
bit-identical must leave every hash as it is; a change that moves floats on
purpose updates the pins and says so in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dmlbench.encoder import DEFAULT_VOCAB, tokenize
from dmlbench.harness import synth_dataset
from dmlbench.losses import VARIANTS, LossConfig
from dmlbench.numeric import derive_seed
from dmlbench.trainer import TrainConfig, train

SEED = 0
PINNED = {
    "cce": "97012869f6c40b6e26e69279efdf98c89d9b3d942d37629f2b9fd31a80318f30",
    "triplet": "8788161b05fedc5b0c75cf96a69646ecf0ccb9860d68f892d577b24d394272f1",
    "npairs": "f73bc1bff7412f29a2f506f6958bb4304d276a0b87ff6eff4e5cc21d56f30927",
    "supcon": "7c5a44fa7f27529ef265025a43c0cfd9756e1bf99bba0d16b3a76826154ae5ab",
    "proxynca": "f817e4a46655f9ab5f2899ca54a994a04d82cdcc49122e60ed12aacde2dfb462",
    "softtriple": "1652e01d2b9660de271756d7c998e5db269cc8f15fee37b19ed8b06ddfc85549",
    "proxyanchor": "fb5fa92d8aedee7810f2bdc278e604d7963151369e3bcbebfec1c445d692cce9",
}
# the same recipe over a 16-row table, every row of which the texts use, so
# AdamW keeps dense moments over the whole table (the default table of 4096
# rows has few live rows and takes AdamW's live-row path)
ALL_LIVE_VARIANT = "proxyanchor"
ALL_LIVE_VOCAB = 16
ALL_LIVE_PINNED = "71bcd5b3958d476bd4bad38f4109df1d793ba57dcb0e5636a7bcff25b150c9fb"
# the same recipe at other blend weights: 0.5 is a power of two, so only a
# weight like 0.3 shows a change in how the classifier gradient is scaled;
# 0.0 is the metric-only endpoint, which dml_only must reproduce
BLEND_PINNED = {
    (0.3, "triplet"): "de973e8f33778e013ad5cc875c5297e5bc03663113bf9739f2402251f6c618a1",
    (0.3, "npairs"): "2eced130d2ec927ace7b2ed70d9275e1eb94cde14c48b4b89bcbea0ad43690fe",
    (0.3, "supcon"): "da367f68c153749809218b4ae84d853ca015a24db15977d67e5f403e2c328712",
    (0.3, "proxynca"): "d4d8ce47a472975afeab39740614f1d11c40fa955a249bc76a9c251af8fdbf22",
    (0.3, "softtriple"): "404adcb4883b33fb0dc3c3677954eacec599ad0fc96526af16e3860abb177165",
    (0.3, "proxyanchor"): "b2c0f96061a419cee6095f74e5407df0842469d66a18c9e836510587ee6b44d9",
    (0.0, "triplet"): "e3eebe0ca5c4eac0cf8b8a5d208968ab03f7e330f966940e8a28ef3f93f639ad",
    (0.0, "proxyanchor"): "3db989437b5ad8695dd926df9afce82ae8b6133201ad645580216cb5e864409b",
}
BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def fingerprint_data(seed: int = SEED):
    return synth_dataset(2, 48, seed=derive_seed(seed, "fingerprint"))


def fingerprint(
    variant: str,
    seed: int = SEED,
    vocab_size: int = DEFAULT_VOCAB,
    beta: float = 0.5,
    dml_only: bool = False,
) -> str:
    data = fingerprint_data(seed)
    config = TrainConfig(
        loss=LossConfig(variant, beta=beta),
        epochs=2,
        batch_size=16,
        seed=derive_seed(seed, "fingerprint", variant),
        vocab_size=vocab_size,
        dml_only=dml_only,
    )
    model = train(data.texts, data.labels, data.num_classes, config)
    h = hashlib.sha256()
    blocks = model.params.blocks()
    if model.bank is not None:
        blocks = blocks + [("proxies", model.bank.matrix)]
    for name, arr in blocks:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(json.dumps(model.steps).encode())
    return h.hexdigest()


def test_every_variant_is_pinned():
    assert sorted(PINNED) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fingerprint_is_pinned(variant):
    assert fingerprint(variant) == PINNED[variant]


def test_all_live_fingerprint_is_pinned():
    used = {i for text in fingerprint_data().texts for i in tokenize(text, ALL_LIVE_VOCAB)}
    assert used == set(range(ALL_LIVE_VOCAB))
    assert fingerprint(ALL_LIVE_VARIANT, vocab_size=ALL_LIVE_VOCAB) == ALL_LIVE_PINNED


@pytest.mark.parametrize("beta, variant", list(BLEND_PINNED))
def test_blend_weight_fingerprint_is_pinned(beta, variant):
    assert fingerprint(variant, beta=beta) == BLEND_PINNED[beta, variant]


def test_dml_only_fingerprint_is_blend_weight_zero():
    assert fingerprint("proxyanchor", beta=0.0, dml_only=True) == BLEND_PINNED[0.0, "proxyanchor"]


def test_benchmark_recipe_matches_pins():
    # the benchmark reports the same hashes, so its recipe and this gate agree
    spec = importlib.util.spec_from_file_location("dmlbench_bench_run", BENCH_RUN)
    bench_run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench_run  # dataclasses look their module up
    try:
        spec.loader.exec_module(bench_run)
        assert bench_run.fingerprint(SEED) == PINNED
    finally:
        del sys.modules[spec.name]
