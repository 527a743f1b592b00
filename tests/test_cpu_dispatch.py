"""Results do not depend on the AVX-512 kernels of numpy or OpenBLAS.

numpy picks its float loops by CPU feature at run time, and OpenBLAS picks
its kernels by core type. A subprocess runs a small `grid` and `report`
once as the machine allows and once with numpy held to AVX2
(``NPY_DISABLE_CPU_FEATURES``) and OpenBLAS to its Haswell kernels
(``OPENBLAS_CORETYPE``); the JSON reports, per-fold macro-F1 and
p-values included, must be equal. On a machine without AVX-512 both runs
take the same kernels and the test shows nothing.

Each subprocess also checks the condition that table rows drawn on first
read rely on: numpy's elementwise loops give an element the same bits
whatever the array's length and the element's place in it, so a row drawn
alone equals its entries of one contiguous `Rng.normal` draw, byte for
byte, under either set of kernels. And it runs the equivalence tests of
`tests/test_hotpath_equivalence.py` named in `EQUIVALENCE_TESTS`, with
`tests/` on its path for their references in `tests/reference.py`: AdamW
over one vector against `OldAdamW` over the dense table, backward into
views of one gradient against `old_backward_batch`, pooling by text
length against `old_forward_batch`, and the stacked n-pairs and
proxy-anchor passes against `old_npairs_pairs_loss` and
`old_proxyanchor_loss`, under either set of kernels.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HOTPATH = TESTS / "test_hotpath_equivalence.py"
EQUIVALENCE_TESTS = (
    "test_flat_adamw_matches_dense_adamw",
    "test_backward_into_views_matches_allocating_backward",
    "test_pooling_by_length_matches_per_text_pooling",
    "test_npairs_loss_matches_per_pair_loop",
    "test_npairs_loss_with_pairs_of_different_row_counts",
    "test_npairs_loss_over_more_pairs_than_one_block",
    "test_proxyanchor_loss_matches_per_class_loop",
    "test_proxyanchor_loss_at_training_shapes",
    "test_npairs_and_proxyanchor_raise_what_the_loops_raised",
)
AVX2_ONLY = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Haswell",
}

SCRIPT = r"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path

import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from dmlbench.cli import main
from dmlbench.encoder import init_encoder
from dmlbench.numeric import Rng

tmp, hotpath, tests = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
data, report = tmp / "data.tsv", tmp / "report.json"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "--classes", "3", "--size", "90", "--noise", "0.3",
                 "--seed", "4", "--out", str(data)]) == 0
    assert main(["grid", "--data", str(data), "--loss", "proxyanchor", "--folds", "2",
                 "--shots", "20", "--epochs", "2", "--seed", "8", "--out", str(report)]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["report", "--report", str(report), "--format", "json"]) == 0

lazy_equal = True
for vocab, embed, seed in ((4096, 32, 1), (61, 7, 2), (5, 1, 3), (33, 9, 4)):
    params = init_encoder(2, vocab, embed, 3, Rng(seed))
    eager = Rng(seed).normal(vocab * embed, scale=0.1).reshape(vocab, embed)
    picks = Rng(seed + 100).choice(vocab, min(vocab, 97))
    for ids in (picks[:1], picks[1:8], picks[8:]):
        lazy_equal &= params.table_for(ids)[ids].tobytes() == eager[ids].tobytes()
    lazy_equal &= params.embedding_table.tobytes() == eager.tobytes()

# hypothesis runs each test's examples when it is called directly
spec = importlib.util.spec_from_file_location("hotpath_equivalence", hotpath)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
for name in tests:
    getattr(module, name)()

print(json.dumps({
    "report": json.loads(out.getvalue()),
    "lazy_equal": bool(lazy_equal),
    "equivalence_tests": tests,
    "x86_v4": bool(__cpu_features__.get("X86_V4", False)),
}))
"""


def run(tmp_path, name, extra_env):
    work = tmp_path / name
    work.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in AVX2_ONLY}
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(work), str(HOTPATH), *EQUIVALENCE_TESTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_avx2_kernels_give_the_same_f1_and_lazy_rows(tmp_path):
    default = run(tmp_path, "default", {})
    avx2 = run(tmp_path, "avx2", AVX2_ONLY)
    assert not avx2["x86_v4"]  # numpy took the AVX2 loops
    assert default["lazy_equal"] and avx2["lazy_equal"]
    # the subprocess exits non-zero if any of these fails
    assert default["equivalence_tests"] == avx2["equivalence_tests"] == list(EQUIVALENCE_TESTS)
    assert [row["name"] for row in default["report"]["rows"]] == [
        "cce", "proxyanchor", "proxyanchor+inf"
    ]
    assert avx2["report"] == default["report"]
