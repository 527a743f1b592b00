"""Output pins for the demos: each `demos/*.py` runs in a fresh interpreter
with `PYTHONPATH=src`, and the sha256 of its stdout must not change. A
change meant to be bit-identical leaves every hash as it is."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import kernels

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "blended_inference": "ead35162f0e4948e60f67d676b53c47b0c281140deba9eebce38884ee64ac859",
    "fewshot_mini": "1ae25a6a396ec86b7fd6c2c6df0b0197c514bfcd304f3bc4d3b4e18cc4d3b8b7",
    "gradient_oracle": "8cf2328607be73520d6f23b2291c242af0317bd5889bbf96da086e889f366cb7",
    "loss_tour": "77773ee5fb1527a69ac4a5149791ecca4d094ffcedd0d489195908afc9495e05",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_pinned(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED[name], kernels()
