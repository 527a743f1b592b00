"""Smoke test of the benchmark itself: every workload at its smallest size.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_run"] = module
    sys.path.insert(0, str(BENCH))  # run.py imports layers.py from here
    spec.loader.exec_module(module)
    return module


run = _load_runner()
WORKLOADS = sorted(run.load_workloads())


def _smoke(capsys, workload: str, trace: int, seed: int = 3, status: int = 0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv, size=run.SMOKE) == status
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines, name):
    """The value and unit printed on the line "<name> = <value> <unit> ..."."""
    for line in lines:
        if line.startswith(f"{name} = "):
            value, unit = line.split(" = ", 1)[1].split()[:2]
            return float(value), unit
    raise AssertionError(f"{name} is not printed")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines, summary = _smoke(capsys, workload, trace)
    assert summary["correct"] is True
    assert 1 <= summary["attempted"] and 0 <= summary["failed"] <= summary["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = summary["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float) and math.isfinite(reported["value"])
        value, unit = _printed(lines, metric["name"])
        assert unit == metric["unit"]
        assert value == pytest.approx(reported["value"], rel=1e-5, abs=1e-12)
    _printed(lines, "ops_failed_frac")


def test_raising_softtriple_grid_counts_as_failed(capsys):
    lines, summary = _smoke(capsys, "fewshot-1000", 0)
    # one pass is six single-point grids of 2 * folds cells; softtriple's raises
    assert summary["failed"] * 6 == summary["attempted"]
    assert summary["attempted"] == run.MIN_PASSES * 6 * 2 * run.FOLDS  # an untraced run makes MIN_PASSES passes
    frac, _ = _printed(lines, "ops_failed_frac")
    assert frac == pytest.approx(1 / 6, rel=1e-5)
    assert any("softtriple" in line and "proxies per class" in line for line in lines)


def test_same_seed_gives_same_result_sha(capsys):
    def sha(seed):
        lines, _ = _smoke(capsys, "fewshot-1000", 0, seed)
        return next(line.split(" = ")[1] for line in lines if line.startswith("result_sha = "))

    first = sha(3)
    assert sha(3) == first
    assert sha(4) != first


def test_incorrect_output_fails_the_run(capsys, monkeypatch):
    run._load_package()
    from dmlbench import gradcheck

    real = gradcheck.run_gradcheck
    monkeypatch.setattr(gradcheck, "run_gradcheck", lambda **kwargs: real(**kwargs)[:-1])
    lines, summary = _smoke(capsys, "gradcheck", 0, status=1)
    assert summary["correct"] is False
    assert any(line.startswith("INCORRECT: run_gradcheck did not check each loss once") for line in lines)


def test_harrell_davis_tail_estimate():
    assert run.harrell_davis(list(range(1, 10)), 0.5) == pytest.approx(5.0)
    assert run.harrell_davis([2.5] * 7, 0.76) == pytest.approx(2.5)
    assert run.harrell_davis([3.0, 1.0, 2.0], 0.0) == 1.0
    # two groups of cost: the estimate lies between them, not on either
    estimate = run.harrell_davis([1.0] * 30 + [1.6] * 8 + [6.0] * 4, 0.76)
    assert 1.0 < estimate < 1.6
