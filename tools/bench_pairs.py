"""Before-and-after numbers for a performance change, from one command.

    python3 tools/bench_pairs.py --base HEAD~1 --label live_rows \
        --workload fewshot-1000 --workload gradcheck --pairs 10 --seed 31

Extracts the committed files of ``--base`` into a temporary directory with
``git archive`` and runs ``python3 bench/run.py`` there and in this working
tree in turn, ``--pairs`` times per workload (base first in even pairs, the
working tree first in odd ones, so a drift in the machine's speed reaches
both sides alike). Writes ``BENCH_<label>.json`` at the repository root:
the base commit's sha, every run's last-line JSON, its ``result_sha`` and
``fingerprint_sha``, whether those two are the same in every run, each
side's failed and attempted operations, the median and quartiles of each
end-to-end metric on each side, how many pairs the working tree won on it,
and the numpy version and CPU count of the machine. Entries are keyed by workload and seed, and the file is written
after each workload; running the command again for another workload or seed
adds to it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "work")


def extract(rev: str, dest: Path) -> str:
    """The committed files of rev, written under dest; returns its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its summary line and its two hashes."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} printed no summary:\n{done.stderr}")
    run = {"exit": done.returncode, "summary": json.loads(lines[-1])}
    for line in lines:
        for key in ("result_sha", "fingerprint_sha"):
            if line.startswith(f"{key} = "):
                run[key] = line.split(" = ", 1)[1]
    return run


def compare(runs: dict, metrics: list) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the
    relative change of the median, and the pairs the working tree won
    (strictly better in the metric's direction; ties count for neither)."""
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [r["summary"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        median = {side: statistics.median(values[side]) for side in SIDES}
        out[name] = {
            "median": median,
            "quartiles": {
                side: statistics.quantiles(values[side], n=4)[::2] if len(values[side]) > 1 else None
                for side in SIDES
            },
            "change": median["work"] / median["base"] - 1 if median["base"] else None,
            "work_wins": sum(sign * (w - b) > 0 for b, w in zip(values["base"], values["work"])),
        }
    return out


def entry(workload: str, seed: int, seconds: float, base_sha: str, runs: dict, metrics: list) -> dict:
    """The BENCH file's record of one workload and seed: the settings, the
    base commit, `compare`'s table, each side's failed and attempted
    operations, whether every run on both sides gave one `result_sha` and
    one `fingerprint_sha`, and the runs themselves under "base" and "work"."""
    hashes = {(run.get("result_sha"), run.get("fingerprint_sha")) for side in SIDES for run in runs[side]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "base_sha": base_sha,
        "metrics": compare(runs, metrics),
        "totals": {
            side: {key: sum(run["summary"][key] for run in runs[side]) for key in ("failed", "attempted")}
            for side in SIDES
        },
        "same_hashes": len(hashes) == 1 and None not in next(iter(hashes)),
        **runs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree against")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="per run; default: BENCHMARK.json's run_seconds")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    out_path = ROOT / f"BENCH_{args.label}.json"
    report = json.loads(out_path.read_text()) if out_path.exists() else {"runs": {}}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_sha = extract(args.base, Path(tmp))
        checkouts = {"base": Path(tmp), "work": ROOT}
        for workload in args.workload:
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_bench(checkouts[side], workload, args.seed, seconds))
                    ops = runs[side][-1]["summary"]["metrics"]["ops_per_kref"]["value"]
                    print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs} {side}: "
                          f"ops_per_kref {ops:.4g}", flush=True)
            report["runs"][f"{workload} seed {args.seed}"] = entry(
                workload, args.seed, seconds, base_sha, runs, declared["end_to_end"]
            )
            report.update(label=args.label, numpy=np.__version__, nproc=len(os.sched_getaffinity(0)))
            out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
            print(f"wrote {out_path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
