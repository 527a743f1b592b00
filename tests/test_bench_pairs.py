"""`tools/bench_pairs.py` builds each BENCH entry from its runs alone."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "ops_per_kref", "better": "higher"}, {"name": "setup_s", "better": "lower"}]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("dmlbench_tools_bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(ops, setup, failed, attempted=100, result="r1", fingerprint="f1"):
    run = {
        "exit": 0,
        "summary": {
            "attempted": attempted,
            "failed": failed,
            "metrics": {"ops_per_kref": {"value": ops}, "setup_s": {"value": setup}},
        },
    }
    if result is not None:
        run["result_sha"] = result
    if fingerprint is not None:
        run["fingerprint_sha"] = fingerprint
    return run


def fake_runs(**work_kwargs):
    return {
        "base": [fake_run(20.0, 1.0, 2), fake_run(22.0, 1.2, 2), fake_run(21.0, 1.1, 4)],
        "work": [fake_run(23.0, 1.1, 2), fake_run(21.0, 1.0, 2), fake_run(24.0, 1.3, 2, **work_kwargs)],
    }


def test_entry_keeps_the_base_sha_beside_the_base_runs():
    runs = fake_runs()
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", runs, METRICS)
    assert got["base_sha"] == "abc123"
    assert got["base"] == runs["base"] and got["work"] == runs["work"]
    assert (got["workload"], got["seed"], got["seconds"]) == ("gradcheck", 31, 20)


def test_entry_totals_and_compares_each_side():
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", fake_runs(), METRICS)
    assert got["totals"] == {
        "base": {"failed": 8, "attempted": 300},
        "work": {"failed": 6, "attempted": 300},
    }
    ops = got["metrics"]["ops_per_kref"]
    assert ops["median"] == {"base": 21.0, "work": 23.0}
    assert ops["change"] == pytest.approx(23.0 / 21.0 - 1)
    assert ops["work_wins"] == 2
    assert got["metrics"]["setup_s"]["work_wins"] == 1
    assert got["same_hashes"] is True


@pytest.mark.parametrize(
    "work_kwargs",
    [{"result": "r2"}, {"fingerprint": "f2"}, {"result": None}, {"fingerprint": None}],
)
def test_entry_flags_any_run_whose_hashes_differ_or_are_missing(work_kwargs):
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", fake_runs(**work_kwargs), METRICS)
    assert got["same_hashes"] is False
