"""The benchmark's per-layer tracer still sees every layer of a training run.

`bench/layers.py` measures a layer by replacing the name its caller looks
up (``trainer.dml_loss``, ``losses.proxynca_loss``, ...). Code that binds a
function object once, at import, calls around such a patch, and that
layer's metrics would read zero without any error. These tests install the
tracer unchanged, then train every variant briefly or run the gradient
oracle once, and check each layer's call count. A grid is traced too:
it tokenizes its dataset once, and each cell hands `train` a pack.
"""

import importlib.util
import sys
from pathlib import Path

from dmlbench import harness
from dmlbench.gradcheck import run_gradcheck
from dmlbench.harness import make_fold_plans, run_grid, synth_dataset
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

# one oracle instance per variant at seed 5: triplet mines its 24 triplets
# once, and every probe calls its loss once for the analytic gradient and
# twice per coordinate for the central differences
EXPECTED_ORACLE_CALLS = {
    "gradcheck.fd_gradient": 7,
    "losses.cce": 37,
    "losses.mine_triplets": 1,
    "losses.triplet": 97,
    "losses.npairs": 97,
    "losses.supcon": 97,
    "losses.proxynca": 145,
    "losses.proxyanchor": 145,
    "losses.softtriple": 193,
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


def test_tracer_counts_every_layer_of_the_gradient_oracle():
    tracer = load_layers().Tracer()
    tracer.install()
    try:
        run_gradcheck(instances=1, seed=5)
    finally:
        tracer.restore()
    calls = {name: entry["calls"] for name, entry in tracer.aggregate().items()}
    assert calls == EXPECTED_ORACLE_CALLS
    assert tracer.counts["losses.mine_triplets.built"] == 24
    assert tracer.counts["losses.mine_triplets.kept"] == 24


def test_tracer_sees_a_grid_tokenize_its_dataset_once():
    # the benchmark's patch points: harness.tokenize, reached from
    # run_grid once per dataset text per call, and harness.train, called
    # once per cell with four positional arguments, the first as long as
    # the fold's few-shot subset
    tracer = load_layers().Tracer()
    data = synth_dataset(2, 40, seed=1)
    plans = make_fold_plans(data.labels, 2, 20, 1)
    grid = tracer.wrap("harness.run_grid", run_grid)
    calls = []
    tracer.install()
    traced_train = harness.train

    def recording_train(*args, **kwargs):
        calls.append((args, kwargs))
        return traced_train(*args, **kwargs)

    harness.train = recording_train
    try:
        for _ in range(2):
            grid(data, plans, [{"variant": "triplet", "beta": 0.5}], 1, 20,
                 train_overrides={"epochs": 1, "batch_size": 12})
    finally:
        tracer.restore()
    agg = tracer.aggregate()
    names = [span[0] for span in tracer.spans]
    tokenize_parents = {names[span[3]] for span in tracer.spans if span[0] == "encoder.tokenize"}
    assert agg["encoder.tokenize"]["calls"] == 2 * data.size
    assert tokenize_parents == {"harness.run_grid"}
    cells = 2 * 2 * len(plans)  # two grid calls of one point and the baseline, on each fold
    assert agg["trainer.train"]["calls"] == len(calls) == cells
    assert [len(args) for args, _ in calls] == [4] * cells
    assert [kwargs for _, kwargs in calls] == [{}] * cells
    assert [len(args[0]) for args, _ in calls] == [len(p.fewshot_indices) for p in plans] * 4
    assert tracer.counts["harness.baseline_cells"] == 2 * len(plans)
