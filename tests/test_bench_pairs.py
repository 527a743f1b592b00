"""`tools/bench_pairs.py` builds each BENCH entry from its runs alone."""

import importlib.util
import json
import subprocess
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


def fake_traced(supcon_s):
    run = fake_run(20.0, 1.0, 2)
    run["summary"]["metrics"] = {"losses.supcon.s": {"value": supcon_s, "unit": "s"}}
    return run


TRACED = {"base": fake_traced(0.9), "work": fake_traced(0.2)}


def test_entry_keeps_the_base_sha_beside_the_base_runs():
    runs = fake_runs()
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", runs, METRICS, TRACED)
    assert got["base_sha"] == "abc123"
    assert got["base"] == runs["base"] and got["work"] == runs["work"]
    assert (got["workload"], got["seed"], got["seconds"]) == ("gradcheck", 31, 20)


def test_entry_totals_and_compares_each_side():
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", fake_runs(), METRICS, TRACED)
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
    assert got["failed_share"] == {"base": 8 / 300, "work": 6 / 300}


@pytest.mark.parametrize(
    "work_kwargs",
    [{"result": "r2"}, {"fingerprint": "f2"}, {"result": None}, {"fingerprint": None}],
)
def test_entry_flags_any_run_whose_hashes_differ_or_are_missing(work_kwargs):
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", fake_runs(**work_kwargs), METRICS, TRACED)
    assert got["same_hashes"] is False


def test_entry_keeps_traced_runs_out_of_the_comparison():
    bench_pairs = load_bench_pairs()
    runs = fake_runs()
    got = bench_pairs.entry("fewshot-1000", 31, 20, "abc123", runs, METRICS, TRACED)
    assert got["per_layer"] == {"losses.supcon.s": {"base": 0.9, "work": 0.2}}
    other = {"base": fake_traced(5.0), "work": fake_traced(0.1)}
    again = bench_pairs.entry("fewshot-1000", 31, 20, "abc123", runs, METRICS, other)
    assert {k: v for k, v in again.items() if k != "per_layer"} == {
        k: v for k, v in got.items() if k != "per_layer"
    }


def test_entry_lists_a_layer_only_one_side_traced():
    traced = {"base": fake_traced(0.9), "work": fake_run(20.0, 1.0, 2)}
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", fake_runs(), METRICS, traced)
    assert got["per_layer"] == {
        "losses.supcon.s": {"base": 0.9, "work": None},
        "ops_per_kref": {"base": None, "work": 20.0},
        "setup_s": {"base": None, "work": 1.0},
    }


def test_more_failures_names_a_larger_failed_share_of_the_working_tree():
    bench_pairs = load_bench_pairs()
    fewer = bench_pairs.entry("gradcheck", 31, 20, "abc123", fake_runs(), METRICS, TRACED)
    assert bench_pairs.more_failures(fewer) is None
    runs = fake_runs()
    runs["work"][0]["summary"]["failed"] = 5  # 9 of 300 against the base's 8
    more = bench_pairs.entry("gradcheck", 31, 20, "abc123", runs, METRICS, TRACED)
    line = bench_pairs.more_failures(more)
    assert line.startswith("MORE FAILURES gradcheck seed 31:")
    assert "3.00%" in line and "2.67%" in line
    runs["work"][0]["summary"]["failed"] = 4  # 8 of 300: equal shares
    same = bench_pairs.entry("gradcheck", 31, 20, "abc123", runs, METRICS, TRACED)
    assert bench_pairs.more_failures(same) is None


def test_failed_share_of_a_side_with_no_operations_is_zero():
    runs = {side: [fake_run(20.0, 1.0, 0, attempted=0)] for side in ("base", "work")}
    got = load_bench_pairs().entry("gradcheck", 31, 20, "abc123", runs, METRICS, TRACED)
    assert got["failed_share"] == {"base": 0.0, "work": 0.0}


def ten_pairs(base, work, name="ops_per_kref"):
    """Runs of one metric, side by side: base[i] and work[i] form pair i."""
    return {
        side: [{"summary": {"metrics": {name: {"value": v}}}} for v in values]
        for side, values in (("base", base), ("work", work))
    }


BASE = [68.0, 69.0, 70.0, 69.5, 68.5, 70.5, 69.0, 68.0, 71.0, 70.0]


@pytest.mark.parametrize(
    "work, gain",
    [
        ([v + 20.0 for v in BASE], True),  # wins all ten by far more than the quartile distance
        ([v + 20.0 for v in BASE[:9]] + [BASE[9] - 1.0], True),  # 9 of 10
        ([v + 20.0 for v in BASE[:8]] + [v - 1.0 for v in BASE[8:]], False),  # 8 of 10
        ([v + 0.5 for v in BASE], False),  # wins all ten, by less than the quartile distance
    ],
)
def test_the_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_quartiles(work, gain):
    got = load_bench_pairs().compare(ten_pairs(BASE, work), [{"name": "ops_per_kref", "better": "higher"}])
    assert got["ops_per_kref"]["gain"] is gain


def test_the_gain_rule_reads_the_metric_direction():
    bench_pairs = load_bench_pairs()
    lower = [{"name": "op_ref.p50", "better": "lower", "bound": 0.25}]
    faster = bench_pairs.compare(ten_pairs(BASE, [v - 20.0 for v in BASE], "op_ref.p50"), lower)
    slower = bench_pairs.compare(ten_pairs(BASE, [v + 20.0 for v in BASE], "op_ref.p50"), lower)
    assert faster["op_ref.p50"]["gain"] is True and slower["op_ref.p50"]["gain"] is False


def test_a_single_pair_claims_no_gain():
    got = load_bench_pairs().compare(ten_pairs([1.0], [9.0]), [{"name": "ops_per_kref", "better": "higher"}])
    assert got["ops_per_kref"]["gain"] is False


@pytest.mark.parametrize(
    "better, factor, within",
    [
        ("higher", 0.80, True),  # 20% lower, bound 25%
        ("higher", 0.70, False),
        ("higher", 1.50, True),
        ("lower", 1.20, True),
        ("lower", 1.30, False),
        ("lower", 0.50, True),
    ],
)
def test_within_bound_compares_the_medians_with_the_declared_bound(better, factor, within):
    metric = [{"name": "setup_s", "better": better, "bound": 0.25}]
    got = load_bench_pairs().compare(ten_pairs(BASE, [v * factor for v in BASE], "setup_s"), metric)
    assert got["setup_s"]["within_bound"] is within


def test_verdicts_print_one_line_per_metric():
    bench_pairs = load_bench_pairs()
    metrics = METRICS[:1] + [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    record = bench_pairs.entry("gradcheck", 31, 20, "abc123", fake_runs(), metrics, TRACED)
    lines = bench_pairs.verdicts(record)
    assert lines == [
        "gradcheck seed 31 ops_per_kref: base 21, work 23 (+9.5%), won 2/3; gain does not hold; no bound",
        "gradcheck seed 31 setup_s: base 1.1, work 1.1 (+0.0%), won 1/3; gain does not hold; within bound",
    ]


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                   capture_output=True)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository with a committed, a changed, a deleted, an
    untracked and an ignored file, as the tool's root."""
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "src" / "kept.py").write_text("committed\n")
    (root / "src" / "changed.py").write_text("committed\n")
    (root / "gone.py").write_text("committed\n")
    (root / ".gitignore").write_text("out/\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "ops_per_kref", "better": "higher", "bound": 0.25}]}
    ))
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    (root / "src" / "changed.py").write_text("on disk\n")
    (root / "gone.py").unlink()
    (root / "src" / "new.py").write_text("untracked\n")
    (root / "out").mkdir()
    (root / "out" / "ignored.txt").write_text("ignored\n")
    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    return bench_pairs, root


def files_under(path):
    return {str(p.relative_to(path)): p.read_text() for p in path.rglob("*") if p.is_file()}


def test_the_work_checkout_is_every_file_git_would_commit_as_on_disk(repo, tmp_path):
    bench_pairs, root = repo
    bench_pairs.copy_work_tree(tmp_path / "work")
    assert files_under(tmp_path / "work") == {
        ".gitignore": "out/\n",
        "BENCHMARK.json": (root / "BENCHMARK.json").read_text(),
        "src/kept.py": "committed\n",
        "src/changed.py": "on disk\n",
        "src/new.py": "untracked\n",
    }


def test_both_sides_run_from_sibling_checkouts_of_equal_path_length(repo, monkeypatch, capsys):
    bench_pairs, root = repo
    seen = []

    def fake_bench(checkout, workload, seed, seconds, trace=False):
        seen.append((checkout, files_under(checkout)))
        return fake_run(20.0 + len(seen), 1.0, 0)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_bench)
    bench_pairs.main(["--base", "HEAD", "--label", "t", "--workload", "gradcheck", "--pairs", "2",
                      "--seed", "3"])
    checkouts = {path.name: (path, files) for path, files in seen}
    assert set(checkouts) == {"base", "work"}
    (base, base_files), (work, work_files) = checkouts["base"], checkouts["work"]
    assert base.parent == work.parent and len(str(base)) == len(str(work))
    assert base_files["src/changed.py"] == "committed\n" and "gone.py" in base_files
    assert work_files["src/changed.py"] == "on disk\n" and "gone.py" not in work_files
    assert "src/new.py" in work_files and "src/new.py" not in base_files
    report = json.loads((root / "BENCH_t.json").read_text())
    assert set(report["runs"]["gradcheck seed 3"]["metrics"]["ops_per_kref"]) >= {"gain", "within_bound"}
    assert "gradcheck seed 3 ops_per_kref: base" in capsys.readouterr().out
