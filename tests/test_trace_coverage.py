"""The benchmark's per-layer tracer still sees every layer of a training run.

`bench/layers.py` measures a layer by replacing the name its caller looks
up (``trainer.dml_loss``, ``losses.proxynca_loss``, ...). Code that binds a
function object once, at import, calls around such a patch, and that
layer's metrics would read zero without any error. This test installs the
tracer unchanged, trains every variant briefly and checks each layer's call
count.
"""

import importlib.util
import sys
from pathlib import Path

from dmlbench.harness import synth_dataset
from dmlbench.losses import VARIANTS, LossConfig
from dmlbench.trainer import TrainConfig, train

BENCH_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# two steps per variant: 24 texts in batches of 12, one epoch
EXPECTED_CALLS = {
    "encoder.backward_batch": 14,
    "encoder.forward_batch": 14,
    "encoder.tokenize": 168,
    "losses.cce": 14,
    "losses.dml_loss": 12,
    "losses.mine_triplets": 2,
    **{f"losses.{v}": 2 for v in VARIANTS if v != "cce"},
    "numeric.rng": 11,
    "proxies.renorm": 6,
    "trainer.adamw_step": 14,
}


def load_layers():
    spec = importlib.util.spec_from_file_location("dmlbench_bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    return layers


def test_tracer_counts_every_layer_of_training():
    tracer = load_layers().Tracer()
    data = synth_dataset(2, 24, seed=1)
    tracer.install()
    try:
        for variant in VARIANTS:
            config = TrainConfig(loss=LossConfig(variant), epochs=1, batch_size=12)
            train(data.texts, data.labels, data.num_classes, config)
    finally:
        tracer.restore()
    calls = {name: entry["calls"] for name, entry in tracer.aggregate().items()}
    assert calls == EXPECTED_CALLS
