"""dmlbench benchmark: grid throughput at 1000 shots and the gradient
oracle, with per-module timings in a separate traced run.

Run from the repository root; it imports the package from ``src/``:

    python3 bench/run.py --workload fewshot-1000 --seed 1 --seconds 20 --trace 0

Each workload is a closed loop in one process: serial, one operation after
another, BLAS pinned to one thread. A run repeats whole passes of its
workload until ``--seconds`` have elapsed, and makes at least MIN_PASSES
of them, so every run measures the same mix of operations. With
``--trace 0`` it prints the end-to-end metrics, whose timings are in units
of the reference work timed before every operation (see reference()), and
the same timings in seconds; with ``--trace 1`` it runs
at least one pass untraced and one traced and prints the per-layer metrics
(see layers.py) with the tracing overhead. The last line of standard output
is one JSON object:

    {"correct": true, "attempted": 48, "failed": 8, "metrics": {...}}

The full record of a run (machine, per-cell times, failure reasons,
hashes) is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_THREADS = 1  # the loop is serial; one BLAS thread keeps threads <= nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9  # set-up is repeated and the median of each of its parts reported
MIN_PASSES = 2  # an untraced run makes at least this many passes, whatever --seconds says
METRIC_LOSSES = ("triplet", "npairs", "supcon", "proxynca", "softtriple", "proxyanchor")
BETA = 0.5
FOLDS = 2  # run_grid needs two folds for its paired test
TAIL_BEYOND = 10  # the tail percentile leaves this many operations of MIN_PASSES passes above it
FINGERPRINT_TEXTS = 48
REF_ROUNDS = 160  # rounds of the reference work: about 5 ms on a 2-core VM
REF_REPEATS = 3  # the reference time is the median of this many runs of it
clock = time.perf_counter


# the shot of each workload in BENCHMARK.json, which gives its reason; None: the gradient oracle, no grid
SHOTS = {"fewshot-1000": 1000, "gradcheck": None}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shot: int | None


def load_workloads() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    return {w["name"]: Workload(w["name"], w["why"], SHOTS[w["name"]]) for w in declared}


@dataclass(frozen=True)
class Size:
    """How big one pass is. FULL is the benchmark; SMOKE is for its test."""

    texts: int = 2000
    epochs: int | None = None  # None: the harness default for the shot
    gradcheck_calls: int = 50  # run_gradcheck calls in one pass


FULL = Size()
SMOKE = Size(texts=120, epochs=1, gradcheck_calls=3)


# ---------------------------------------------------------------------------
# environment


def _load_package():
    """Import dmlbench from this checkout's src/ and nowhere else."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import dmlbench
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dmlbench from {SRC}: {exc}")
    if not Path(dmlbench.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: dmlbench came from {dmlbench.__file__}, not {SRC}")


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir("/proc/self/task")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _time_import() -> float:
    """Seconds to import dmlbench in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dmlbench; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout.strip())


def reference() -> float:
    """Seconds taken by a fixed piece of Python and numpy work of the kinds
    the program does in its steps: small matrix products and reductions,
    argsort and np.unique, and a nested Python loop over index pairs. It
    allocates no containers, so the garbage collector and the size of the
    heap do not change its time. It runs REF_REPEATS times and the median
    is returned, which drops a run that an interrupt cut into. The
    benchmark runs it just before every untraced operation and gives the
    end-to-end timings in units of its mean, so that the shared machine's
    changes of speed, which reach both alike, cancel out."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((16, 32))
    times = []
    for _ in range(REF_REPEATS):
        total = 0
        start = clock()
        for r in range(REF_ROUNDS):
            order = np.argsort(np.exp(-(x @ x.T)).sum(axis=1))
            for a in range(16):
                for n in range(0, 16, 2):
                    if a != n:
                        total += (a * n + r) % 7
            total += np.unique(order % 5).size
        times.append(clock() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Inputs:
    dataset: object = None
    plans: list | None = None
    import_s: float = 0.0
    build_s: float = 0.0  # dataset synthesis and fold plans
    make_fold_plans_s: float = 0.0
    identical: bool = True  # every set-up repetition built the same inputs

    @property
    def setup_s(self) -> float:
        return self.import_s + self.build_s


def set_up(workload: Workload, seed: int, size: Size) -> Inputs:
    """Import, dataset synthesis and fold plans, SETUP_REPS times. The
    import and the build are timed apart, so the noise of starting an
    interpreter does not mix into the build's median."""
    from dmlbench import harness

    import_times, build_times, plan_times, fingerprints = [], [], [], []
    inputs = Inputs()
    for _ in range(SETUP_REPS):
        import_times.append(_time_import())
        if workload.shot is None:
            continue
        start = clock()
        inputs.dataset = harness.synth_dataset(2, size.texts, noise=0.35, seed=seed)
        plans_start = clock()
        inputs.plans = harness.make_fold_plans(inputs.dataset.labels, FOLDS, workload.shot, seed)
        end = clock()
        build_times.append(end - start)
        plan_times.append(end - plans_start)
        fingerprints.append((inputs.dataset.texts, harness.fold_plans_to_json(inputs.plans, workload.shot, seed)))
    inputs.import_s = statistics.median(import_times)
    inputs.build_s = statistics.median(build_times) if build_times else 0.0
    inputs.make_fold_plans_s = statistics.median(plan_times) if plan_times else 0.0
    inputs.identical = all(f == fingerprints[0] for f in fingerprints)
    return inputs


# ---------------------------------------------------------------------------
# operations


@dataclass
class GridRun:
    """One run_grid call: its cells' wall times and its result or error."""

    variant: str
    cells: list  # (label, seconds); label is the variant, "cce" for baseline cells
    result: object
    error: str | None
    trace: str | None


@dataclass
class Loop:
    """One measured loop: what each pass returned, every operation's time
    and, untraced, the time of the reference work just before it."""

    passes: list
    op_s: list
    ref_s: list
    wall_s: float
    ops_per_pass: int

    @property
    def ops_per_s(self) -> float:
        return len(self.op_s) / sum(self.op_s)


def _stamped(fn, marks: list, refs: list, variants: list, tracer):
    """harness.train that, as each cell starts, times the reference work
    (untraced only) and then takes one timestamp."""

    def stamped(texts, labels, num_classes, config):
        before = clock()
        if tracer is None:
            refs.append(reference())
        else:
            tracer.op += 1
        marks.append((before, clock()))
        variants.append(config.loss.variant)
        return fn(texts, labels, num_classes, config)

    return stamped


def grid_loop(
    inputs: Inputs, workload: Workload, seed: int, size: Size, seconds: float, min_passes: int, tracer=None
) -> Loop:
    """The mini-grid: one run_grid call per metric loss, repeated whole."""
    from dmlbench import harness

    run_grid = harness.run_grid if tracer is None else tracer.wrap("harness.run_grid", harness.run_grid)
    overrides = {} if size.epochs is None else {"epochs": size.epochs}
    marks, refs, variants = [], [], []
    original = harness.train
    harness.train = _stamped(original, marks, refs, variants, tracer)
    passes, op_s = [], []
    try:
        start = clock()
        while len(passes) < min_passes or clock() - start < seconds:
            runs = []
            for variant in METRIC_LOSSES:
                first = len(marks)
                result = error = trace = None
                try:
                    point = {"variant": variant, "beta": BETA}
                    result = run_grid(
                        inputs.dataset, inputs.plans, [point], seed, workload.shot,
                        workers=1, train_overrides=overrides,
                    )
                except Exception as exc:  # a raising grid is a failed operation; the loop goes on
                    error = "".join(traceback.format_exception_only(exc)).strip()
                    trace = traceback.format_exc()
                end = clock()
                # a cell runs from its timestamp to the start of the next cell's reference work
                edges = marks[first:] + [(end, end)]
                cells = [(v, b[0] - a[1]) for v, a, b in zip(variants[first:], edges, edges[1:])]
                op_s.extend(s for _, s in cells)
                runs.append(GridRun(variant, cells, result, error, trace))
            passes.append(runs)
            if tracer is not None:
                tracer.next_pass()
        wall = clock() - start
    finally:
        harness.train = original
    return Loop(passes, op_s, refs, wall, sum(len(r.cells) for r in passes[0]))


def gradcheck_loop(seed: int, size: Size, seconds: float, min_passes: int, tracer=None) -> Loop:
    """Repeated run_gradcheck(instances=1) calls, each with its own seed;
    every pass makes the same calls."""
    from dmlbench import gradcheck
    from dmlbench.numeric import derive_seed

    run = gradcheck.run_gradcheck if tracer is None else tracer.wrap("gradcheck.run_gradcheck", gradcheck.run_gradcheck)
    passes, op_s, refs = [], [], []
    start = clock()
    while len(passes) < min_passes or clock() - start < seconds:
        calls = []
        for i in range(size.gradcheck_calls):
            if tracer is None:
                refs.append(reference())
            else:
                tracer.op += 1
            t = clock()
            try:
                calls.append(run(instances=1, seed=derive_seed(seed, "gradcheck", i)))
            except Exception as exc:  # a raising call is a failed operation; the loop goes on
                calls.append("".join(traceback.format_exception_only(exc)).strip())
            op_s.append(clock() - t)
        passes.append(calls)
    return Loop(passes, op_s, refs, clock() - start, size.gradcheck_calls)


# ---------------------------------------------------------------------------
# outcomes, correctness and identity


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)  # failure reason -> failed operations
    problems: list = field(default_factory=list)  # correctness violations

    def fail(self, count: int, reason: str):
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count


def _bad_f1(scores):
    """Mask of cells whose F1 is NaN or outside [0, 1]."""
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    return ~(np.isfinite(scores) & (scores >= 0.0) & (scores <= 1.0))


def judge_grids(loop: Loop, outcome: Outcome, n_folds: int) -> list:
    """Count attempted and failed cells and check every grid. Returns one
    (key, record) per pass; every pass of the mini-grid must give the same
    record, the reports of its grids or their errors."""
    from dmlbench import harness
    from dmlbench.losses import PROXY_VARIANTS

    records = []
    for runs in loop.passes:
        this_pass = []
        baselines = set()
        for run in runs:
            n_cells = 2 * n_folds  # one pinned point and the baseline, on every fold
            outcome.attempted += n_cells
            if run.result is None:
                outcome.fail(n_cells, f"{run.variant}: {run.error}")
                this_pass.append({"variant": run.variant, "error": run.error})
                continue
            res = run.result
            bad = _bad_f1(res.fold_scores)
            if run.variant in PROXY_VARIANTS:
                bad |= _bad_f1(res.blended_fold_scores)
            if bad.any():
                outcome.fail(int(bad.sum()), f"{run.variant}: NaN or out-of-range F1")
            if _bad_f1(res.baseline_scores).any():
                outcome.problems.append(f"{run.variant}: baseline F1 outside [0, 1]")
            baselines.add(tuple(res.baseline_scores.tolist()))
            this_pass.append({"variant": run.variant, "report": harness.result_to_report(res)})
        if len(baselines) > 1:
            outcome.problems.append("the cce baseline differs between grids on the same folds")
        records.append((0, this_pass))
    return records


def judge_gradcheck(loop: Loop, outcome: Outcome) -> list:
    """Count failed oracle calls. Returns one (key, record) per pass; every
    pass makes the same calls, so it must give the same record."""
    from dmlbench.losses import VARIANTS

    records = []
    for calls in loop.passes:
        this_pass = []
        for results in calls:
            outcome.attempted += 1
            if isinstance(results, str):
                outcome.fail(1, f"run_gradcheck raised {results}")
                this_pass.append(results)
                continue
            if [r.variant for r in results] != list(VARIANTS) or any(r.instances != 1 for r in results):
                outcome.problems.append("run_gradcheck did not check each loss once")
            failing = [r.variant for r in results if not r.passed]
            if failing:
                outcome.fail(1, "gradient check failed: " + ", ".join(failing))
            this_pass.append([[r.variant, r.failures, r.worst_abs, r.worst_rel] for r in results])
        records.append((0, this_pass))
    return records


def fingerprint(seed: int) -> dict:
    """sha256 of the final params, proxy bank and loss trace of one small
    training run per loss variant."""
    import numpy as np

    from dmlbench import harness
    from dmlbench.losses import VARIANTS, LossConfig
    from dmlbench.numeric import derive_seed
    from dmlbench.trainer import TrainConfig, train

    data = harness.synth_dataset(2, FINGERPRINT_TEXTS, seed=derive_seed(seed, "fingerprint"))
    digests = {}
    for variant in VARIANTS:
        config = TrainConfig(
            loss=LossConfig(variant, beta=BETA), epochs=2, batch_size=16,
            seed=derive_seed(seed, "fingerprint", variant),
        )
        model = train(data.texts, data.labels, data.num_classes, config)
        h = hashlib.sha256()
        blocks = model.params.blocks() + ([("proxies", model.bank.matrix)] if model.bank is not None else [])
        for name, arr in blocks:
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h.update(json.dumps(model.steps).encode())
        digests[variant] = h.hexdigest()
    return digests


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def harrell_davis(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) distribution. Where
    the operations fall into groups of different cost, it moves smoothly
    as the groups shift; a nearest-rank value would jump between them."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=np.float64))
    if q <= 0.0:
        return float(x[0])
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    points = np.linspace(0.0, 1.0, 100_001)
    mid = (points[:-1] + points[1:]) / 2
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, points, cdf / cdf[-1]))
    return float(weights @ x)


def tail(op_s: list, ops_per_pass: int) -> tuple[int, float]:
    """The highest whole percentile that leaves TAIL_BEYOND operations of
    MIN_PASSES passes above it, and its Harrell-Davis estimate over all
    operations. Fixing the percentile by the shortest run keeps it the same
    when a faster commit fits more passes into a run. On fewshot-1000 it
    falls at the edge between the 30 quicker cells of two passes and the 8
    proxynca and supcon cells, where a nearest-rank value jumps."""
    least = MIN_PASSES * ops_per_pass
    pct = max(0, 100 * (least - TAIL_BEYOND) // least)
    return pct, harrell_davis(op_s, pct / 100)


def end_to_end(loop: Loop, inputs: Inputs) -> tuple[dict, int]:
    """The gated metrics: operation times in units of the run's mean
    reference time ("ref"), set-up time and memory. The machine's speed
    switches within a second, so a single reference time says little about
    the operation after it; their mean over the run gives the machine's
    mean speed while the operations ran."""
    ref = statistics.mean(loop.ref_s)
    pct, tail_s = tail(loop.op_s, loop.ops_per_pass)
    return {
        "ops_per_kref": (1000 * ref * loop.ops_per_s, "1/kref"),
        "op_ref.p50": (statistics.median(loop.op_s) / ref, "ref"),
        "op_ref.tail": (tail_s / ref, "ref"),
        "setup_s": (inputs.setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, pct


def wall_clock(loop: Loop) -> dict:
    """The same timings in seconds, and the mean reference time. They are
    printed, not gated: on a shared machine they follow its speed."""
    _, tail_s = tail(loop.op_s, loop.ops_per_pass)
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_s.p50": (statistics.median(loop.op_s), "s"),
        "op_s.tail": (tail_s, "s"),
        "ref_s.mean": (statistics.mean(loop.ref_s), "s"),
    }


def cell_medians(loop: Loop) -> dict:
    by_label = {}
    for runs in loop.passes:
        for run in runs:
            for label, s in run.cells:
                by_label.setdefault(label, []).append(s)
    return {label: statistics.median(v) for label, v in sorted(by_label.items())}


# ---------------------------------------------------------------------------
# main


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, size: Size = FULL) -> int:
    workloads = load_workloads()
    args = parse_args(argv, workloads)
    _load_package()
    workload = workloads[args.workload]
    machine = machine_record(args.seed)
    inputs = set_up(workload, args.seed, size)

    # the fingerprint's small training runs of every variant also warm up the code before timing
    prints = fingerprint(args.seed)
    if workload.shot is None:
        def loop(seconds, min_passes, tracer=None):
            return gradcheck_loop(args.seed, size, seconds, min_passes, tracer)

        judge = judge_gradcheck
    else:
        def loop(seconds, min_passes, tracer=None):
            return grid_loop(inputs, workload, args.seed, size, seconds, min_passes, tracer)

        def judge(measured, outcome):
            return judge_grids(measured, outcome, len(inputs.plans))

    tracer = None
    if args.trace:
        import layers

        # the same passes untraced, then traced: their ops_per_s differ by the tracing overhead
        loops = [loop(args.seconds / 2, 1)]
        tracer = layers.Tracer()
        tracer.install()
        try:
            loops.append(loop(args.seconds / 2, 1, tracer))
        finally:
            tracer.restore()
    else:
        loops = [loop(args.seconds, MIN_PASSES)]

    outcome = Outcome()
    records = {}
    for measured in loops:
        for key, record in judge(measured, outcome):
            text = json.dumps(record, sort_keys=True)
            if records.setdefault(key, text) != text:
                outcome.problems.append(f"pass {key} gave different results when repeated")
    if not inputs.identical:
        outcome.problems.append("set-up repetitions built different inputs")
    result_sha = sha256_json({"results": records[0], "fingerprint": prints})
    failed_frac = outcome.failed / outcome.attempted
    measured = loops[-1]

    lines = [
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: {workload.why}",
        "machine " + " ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    pct, printed = None, {}
    if args.trace:
        untraced, traced = loops[0].ops_per_s, loops[1].ops_per_s
        metrics = layers.per_layer_metrics(
            tracer,
            len(measured.passes),
            {
                "make_fold_plans_s": inputs.make_fold_plans_s,
                "ops_failed_frac": failed_frac,
                "untraced_ops_per_s": untraced,
                "traced_ops_per_s": traced,
            },
        )
        lines.append(
            f"tracing overhead {metrics['trace.overhead_frac'][0]:.2%} of ops_per_s "
            f"(untraced {untraced:.4g}/s, traced {traced:.4g}/s); per-layer sums are per pass"
        )
    else:
        metrics, pct = end_to_end(measured, inputs)
        printed = wall_clock(measured)
    for name, (value, unit) in {**metrics, **printed}.items():
        note = ""
        if name == "ops_per_kref":
            note = f"  ({len(measured.op_s)} ops in {measured.wall_s:.2f} s, {len(measured.passes)} pass(es))"
        elif name.endswith(".tail"):
            note = f"  (p{pct} of {len(measured.op_s)} ops)"
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    if "ops_failed_frac" not in metrics:
        lines.append(f"ops_failed_frac = {failed_frac:.6g} ratio")
    lines.append(f"  {outcome.failed} of {outcome.attempted} ops failed")
    for reason, count in outcome.reasons.items():
        lines.append(f"  {count} failed: {reason}")
    if workload.shot is not None:
        lines.append("cell_s.p50 " + " ".join(f"{k}={v:.4g}" for k, v in cell_medians(measured).items()))
    lines.append(f"result_sha = {result_sha}")
    lines.append(f"fingerprint_sha = {sha256_json(prints)}")
    for problem in outcome.problems:
        lines.append(f"INCORRECT: {problem}")
    print("\n".join(lines))

    correct = not outcome.problems
    summary = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        summary,
        workload=workload.name,
        why=workload.why,
        machine=machine,
        seconds=args.seconds,
        trace=args.trace,
        ops_failed_frac=failed_frac,
        failure_reasons=outcome.reasons,
        problems=outcome.problems,
        setup_import_s=inputs.import_s,
        setup_build_s=inputs.build_s,
        tail_percentile=pct,
        passes=len(measured.passes),
        wall_clock={k: v for k, (v, _) in printed.items()},
        op_s=measured.op_s,
        ref_s=measured.ref_s,
        result_sha=result_sha,
        fingerprint=prints,
        results=json.loads(records[0]),
    )
    if workload.shot is not None:
        record["cell_s_p50"] = cell_medians(measured)
        record["grid_tracebacks"] = sorted({r.trace for r in measured.passes[0] if r.trace})
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
