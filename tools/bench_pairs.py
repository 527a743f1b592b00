"""Before-and-after numbers for a performance change, from one command.

    python3 tools/bench_pairs.py --base HEAD~1 --label live_rows \
        --workload fewshot-1000 --workload gradcheck --pairs 10 --seed 31

Both sides run from sibling temporary checkouts whose paths have the same
length, ``<tmp>/base`` and ``<tmp>/work``, so neither runs from a directory
the other does not share: ``--base``'s committed files come from ``git
archive``, and the working tree's are every file git would commit (tracked,
or untracked and not ignored) as it is on disk. ``python3 bench/run.py``
runs in each in turn, ``--pairs`` times per workload (base first in even
pairs, the working tree first in odd ones, so a drift in the machine's
speed reaches both sides alike). Writes ``BENCH_<label>.json`` at the
repository root: the base commit's sha, every run's last-line JSON, its
``result_sha`` and ``fingerprint_sha``, whether those two are the same in
every run, each side's failed and attempted operations, the median and
quartiles of each end-to-end metric on each side, how many pairs the
working tree won on it, the two verdicts of `compare` on it, each side's
failed share of its operations, and the numpy version and CPU count of
the machine. The verdicts are printed per workload and metric. When the
working tree fails a larger share of its
operations than the base on a workload and seed, a line that begins
``MORE FAILURES`` says so: the benchmark counts that as a regression
whatever the metrics show. When the runs did not all give one
``result_sha`` and one ``fingerprint_sha``, a line that begins ``HASHES
DIFFER`` names each side's distinct pairs of them. One more run per side
and workload, with ``--trace 1``, follows the pairs; its per-layer metrics
are stored in the entry side by side, and the untraced runs stay the only
ones compared. The LAYER_LINES of them that changed most, base to work,
are printed one per line. Entries are keyed by workload and seed, and the
file is written after each workload; running the command again for
another workload or seed adds to it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "work")  # also the checkouts' directory names, of equal length
GAIN_SHARE = 0.9  # a gain needs the working tree to win this share of the pairs
LAYER_LINES = 10  # per-layer metrics printed, those that changed most
HASH_CHARS = 16  # of each hash in a HASHES DIFFER line


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


def copy_work_tree(dest: Path) -> None:
    """Every file git would commit in the working tree, tracked or
    untracked and not ignored, copied as it is on disk to the same path
    under dest; a tracked file deleted on disk is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One benchmark run, traced if `trace`: its summary line and its two
    hashes."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
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
    relative change of the median, the pairs the working tree won
    (strictly better in the metric's direction; ties count for neither),
    and two verdicts:

    * "gain": the working tree won at least GAIN_SHARE of the pairs, and
      its median is better than the base's by more than the distance
      between the base's quartiles (False with fewer than two pairs);
    * "within_bound": the working tree's median is not worse than the
      base's by more than the metric's relative "bound" (None when the
      metric declares none).
    """
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [r["summary"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        median = {side: statistics.median(values[side]) for side in SIDES}
        quartiles = {
            side: statistics.quantiles(values[side], n=4)[::2] if len(values[side]) > 1 else None
            for side in SIDES
        }
        wins = sum(sign * (w - b) > 0 for b, w in zip(values["base"], values["work"]))
        spread = quartiles["base"][1] - quartiles["base"][0] if quartiles["base"] else None
        bound = m.get("bound")
        out[name] = {
            "median": median,
            "quartiles": quartiles,
            "change": median["work"] / median["base"] - 1 if median["base"] else None,
            "work_wins": wins,
            "gain": spread is not None
            and wins >= GAIN_SHARE * len(values["base"])
            and sign * (median["work"] - median["base"]) > spread,
            "within_bound": None
            if bound is None
            else sign * (median["work"] - median["base"]) >= -bound * abs(median["base"]),
        }
    return out


def verdicts(record: dict) -> list[str]:
    """One printed line per end-to-end metric of an `entry`: both medians,
    the pairs won, and `compare`'s two verdicts."""
    lines = []
    pairs = len(record["base"])
    for name, m in record["metrics"].items():
        change = f" ({m['change']:+.1%})" if m["change"] is not None else ""
        bound = {None: "no bound", True: "within bound", False: "OUTSIDE BOUND"}[m["within_bound"]]
        lines.append(
            f"{record['workload']} seed {record['seed']} {name}: base {m['median']['base']:.4g}, "
            f"work {m['median']['work']:.4g}{change}, won {m['work_wins']}/{pairs}; "
            f"gain {'holds' if m['gain'] else 'does not hold'}; {bound}"
        )
    return lines


def entry(
    workload: str, seed: int, seconds: float, base_sha: str, runs: dict, metrics: list, traced: dict
) -> dict:
    """The BENCH file's record of one workload and seed: the settings, the
    base commit, `compare`'s table, each side's failed and attempted
    operations, whether every run on both sides gave one `result_sha` and
    one `fingerprint_sha`, the runs themselves under "base" and "work", and
    under "per_layer" each metric of `traced`, one traced run per side, side
    by side. The traced runs enter no comparison or total."""
    layers = {side: traced[side]["summary"]["metrics"] for side in SIDES}
    hashes = {(run.get("result_sha"), run.get("fingerprint_sha")) for side in SIDES for run in runs[side]}
    totals = {
        side: {key: sum(run["summary"][key] for run in runs[side]) for key in ("failed", "attempted")}
        for side in SIDES
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "base_sha": base_sha,
        "metrics": compare(runs, metrics),
        "totals": totals,
        "failed_share": {
            side: totals[side]["failed"] / totals[side]["attempted"] if totals[side]["attempted"] else 0.0
            for side in SIDES
        },
        "same_hashes": len(hashes) == 1 and None not in next(iter(hashes)),
        "per_layer": {
            name: {side: layers[side].get(name, {}).get("value") for side in SIDES}
            for name in sorted(layers["base"].keys() | layers["work"].keys())
        },
        **runs,
    }


def more_failures(record: dict) -> str | None:
    """The line to print when the working tree failed a larger share of its
    operations than the base in this `entry`, else None."""
    share = record["failed_share"]
    if share["work"] <= share["base"]:
        return None
    return (f"MORE FAILURES {record['workload']} seed {record['seed']}: the working tree failed "
            f"{share['work']:.2%} of its operations, the base {share['base']:.2%}")


def hashes_differ(record: dict) -> str | None:
    """The line to print when the runs of this `entry` did not all give one
    `result_sha` and one `fingerprint_sha`: each side's distinct pairs of
    them ("none" for a missing hash), else None."""
    if record["same_hashes"]:
        return None

    def pair(run):
        return "/".join(
            "none" if run.get(key) is None else run[key][:HASH_CHARS] for key in ("result_sha", "fingerprint_sha")
        )

    seen = {side: ", ".join(sorted({pair(run) for run in record[side]})) for side in SIDES}
    return (f"HASHES DIFFER {record['workload']} seed {record['seed']}: result_sha/fingerprint_sha "
            f"base {seen['base']}; work {seen['work']}")


def layer_changes(record: dict) -> list[str]:
    """One line for each of the LAYER_LINES per-layer metrics of an `entry`
    whose value changed most, base to work, relative to the base's: a
    metric that only one side traced, or that is 0 on the base, comes
    first, and ties keep the metrics' order by name."""

    def change(values):
        base, work = values["base"], values["work"]
        if base is None or work is None or (base == 0 and work != 0):
            return math.inf
        return abs(work / base - 1) if base else 0.0

    ranked = sorted(record["per_layer"].items(), key=lambda item: -change(item[1]))
    lines = []
    for name, values in ranked[:LAYER_LINES]:
        base, work = (values[side] for side in SIDES)
        shown = {side: "none" if v is None else f"{v:.4g}" for side, v in values.items()}
        rel = f" ({work / base - 1:+.1%})" if base and work is not None else ""
        lines.append(f"{record['workload']} seed {record['seed']} layer {name}: "
                     f"base {shown['base']} -> work {shown['work']}{rel}")
    return lines


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
        checkouts = {side: Path(tmp) / side for side in SIDES}
        base_sha = extract(args.base, checkouts["base"])
        copy_work_tree(checkouts["work"])
        for workload in args.workload:
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_bench(checkouts[side], workload, args.seed, seconds))
                    ops = runs[side][-1]["summary"]["metrics"]["ops_per_kref"]["value"]
                    print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs} {side}: "
                          f"ops_per_kref {ops:.4g}", flush=True)
            traced = {side: run_bench(checkouts[side], workload, args.seed, seconds, trace=True) for side in SIDES}
            print(f"{workload} seed {args.seed}: one traced run per side", flush=True)
            record = entry(workload, args.seed, seconds, base_sha, runs, declared["end_to_end"], traced)
            report["runs"][f"{workload} seed {args.seed}"] = record
            for line in verdicts(record):
                print(line, flush=True)
            for line in [more_failures(record), hashes_differ(record), *layer_changes(record)]:
                if line is not None:
                    print(line, flush=True)
            report.update(label=args.label, numpy=np.__version__, nproc=len(os.sched_getaffinity(0)))
            out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
            print(f"wrote {out_path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
