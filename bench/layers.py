"""Per-layer tracing for the benchmark, installed from the outside.

The traced run replaces the names that each calling module looks up (for
example ``dmlbench.trainer.forward_batch`` or ``AdamW.step``) with wrappers
that record one span per call: name, start, end, parent span and the
operation it belongs to. Nothing under ``src/`` changes, and the untraced
run installs none of this. ``Rng.randint`` is never wrapped: a 1000-shot
triplet cell calls it about 73k times, so a span there would dwarf the
work it measures.

Spans stay in memory and are written out when the run ends. Per-layer
metrics are totals for one pass of the workload; ``.s`` is inclusive time,
``.self_s`` is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

from dmlbench import gradcheck, harness, losses, numeric, trainer

# (name, unit) of every per-layer metric, in print order
PER_LAYER = [
    ("numeric.rng.calls", "count"),
    ("numeric.rng.draws", "count"),
    ("numeric.rng.s", "s"),
    ("encoder.tokenize.calls", "count"),
    ("encoder.tokenize.s", "s"),
    ("encoder.forward_batch.rows", "count"),
    ("encoder.forward_batch.s", "s"),
    ("encoder.backward_batch.rows", "count"),
    ("encoder.backward_batch.s", "s"),
    ("losses.mine_triplets.s", "s"),
    ("losses.mine_triplets.built", "count"),
    ("losses.mine_triplets.kept", "count"),
    ("losses.mine_triplets.kept_ratio", "ratio"),
    *[(f"losses.{v}.{field}", unit) for v in losses.VARIANTS for field, unit in (("calls", "count"), ("s", "s"))],
    ("losses.dml_loss.self_s", "s"),
    ("losses.zero_steps", "count"),
    ("losses.zero_step_ratio", "ratio"),
    ("trainer.adamw_step.calls", "count"),
    ("trainer.adamw_step.s", "s"),
    ("trainer.train.self_s", "s"),
    ("proxies.renorm.s", "s"),
    ("evaluation.blended_scores.s", "s"),
    ("evaluation.macro_f1.s", "s"),
    ("evaluation.paired_significance.s", "s"),
    ("harness.make_fold_plans.s", "s"),
    ("harness.run_grid.self_s", "s"),
    ("harness.baseline_cells", "count"),
    ("harness.baseline_unique_ratio", "ratio"),
    ("gradcheck.fd_gradient.calls", "count"),
    ("gradcheck.fd_gradient.s", "s"),
    ("gradcheck.fd_gradient.self_s", "s"),
    ("gradcheck.self_s", "s"),
    ("ops_failed_frac", "ratio"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """In-memory spans and counters, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op = -1  # operation the current spans belong to
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._baseline_keys: set = set()

    def wrap(self, name, fn, count=None):
        """fn with a span around every call; count(counts, args, out) runs
        after a successful call, outside the span."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def patch(self, owner, attr, name, count=None, inner=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        fn = original if inner is None else inner(original)
        setattr(owner, attr, self.wrap(name, fn, count))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def next_pass(self):
        """Baseline uniqueness is judged within one pass of the workload."""
        self.counts["harness.baseline_unique"] += len(self._baseline_keys)
        self._baseline_keys.clear()

    def install(self):
        """Wrap every layer boundary of the package."""
        p = self.patch
        for attr in ("permutation", "choice"):
            p(numeric.Rng, attr, "numeric.rng", inner=self._count_draws)
        for module in (trainer, harness):
            p(module, "tokenize", "encoder.tokenize")
            p(module, "forward_batch", "encoder.forward_batch", count=_forward_rows)
        p(trainer, "backward_batch", "encoder.backward_batch", count=_backward_rows)
        for module in (losses, gradcheck):
            p(module, "mine_triplets", "losses.mine_triplets", count=_mined)
        for variant in losses.VARIANTS:
            fn_name = f"{variant}_loss"
            for module in (trainer, losses, gradcheck):
                if hasattr(module, fn_name):
                    p(module, fn_name, f"losses.{variant}")
        p(trainer, "dml_loss", "losses.dml_loss", count=_zero_step)
        p(trainer.AdamW, "step", "trainer.adamw_step")
        p(trainer, "l2_normalize_rows", "proxies.renorm")
        p(harness, "train", "trainer.train", count=self._baseline_cell)
        for fn_name in ("blended_scores", "macro_f1", "paired_significance"):
            p(harness, fn_name, f"evaluation.{fn_name}")
        p(gradcheck, "fd_gradient", "gradcheck.fd_gradient")

    def _count_draws(self, method):
        counts = self.counts

        def counted(rng, *args, **kwargs):
            before = rng.counter
            out = method(rng, *args, **kwargs)
            counts["numeric.rng.draws"] += rng.counter - before
            return out

        return counted

    def _baseline_cell(self, counts, args, out):
        config = args[3]
        if config.loss.variant == "cce":
            counts["harness.baseline_cells"] += 1
            # the cell seed is derived from (master seed, fold), so equal
            # seeds on equal data mean the same cell was trained again
            self._baseline_keys.add((config.seed, config.epochs, len(args[0])))

    def aggregate(self) -> dict:
        """calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = agg[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return agg

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _forward_rows(counts, args, out):
    counts["encoder.forward_batch.rows"] += out[0].shape[0]


def _backward_rows(counts, args, out):
    counts["encoder.backward_batch.rows"] += np.shape(args[2])[0]


def _mined(counts, args, out):
    per_class = np.bincount(args[0].labels)
    size = int(per_class.sum())
    counts["losses.mine_triplets.built"] += int((per_class * (per_class - 1) * (size - per_class)).sum())
    counts["losses.mine_triplets.kept"] += len(out)


def _zero_step(counts, args, out):
    counts["losses.dml_loss.calls"] += 1
    if (
        out.value == 0.0
        and not np.any(out.grad_embeddings)
        and (out.grad_proxies is None or not np.any(out.grad_proxies))
    ):
        counts["losses.zero_steps"] += 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, passes: int, extra: dict) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)}; sums are per pass.

    extra supplies what the benchmark measures itself: make_fold_plans
    time at set-up, the failed fraction and both ops_per_s figures.
    """
    agg = tracer.aggregate()
    counts = tracer.counts

    def span(name, field):
        return agg[name][field] / passes if name in agg else 0.0

    values = {
        "numeric.rng.calls": span("numeric.rng", "calls"),
        "numeric.rng.draws": counts["numeric.rng.draws"] / passes,
        "numeric.rng.s": span("numeric.rng", "s"),
        "encoder.tokenize.calls": span("encoder.tokenize", "calls"),
        "encoder.tokenize.s": span("encoder.tokenize", "s"),
        "encoder.forward_batch.rows": counts["encoder.forward_batch.rows"] / passes,
        "encoder.forward_batch.s": span("encoder.forward_batch", "s"),
        "encoder.backward_batch.rows": counts["encoder.backward_batch.rows"] / passes,
        "encoder.backward_batch.s": span("encoder.backward_batch", "s"),
        "losses.mine_triplets.s": span("losses.mine_triplets", "s"),
        "losses.mine_triplets.built": counts["losses.mine_triplets.built"] / passes,
        "losses.mine_triplets.kept": counts["losses.mine_triplets.kept"] / passes,
        "losses.mine_triplets.kept_ratio": _ratio(
            counts["losses.mine_triplets.kept"], counts["losses.mine_triplets.built"]
        ),
        "losses.dml_loss.self_s": span("losses.dml_loss", "self_s"),
        "losses.zero_steps": counts["losses.zero_steps"] / passes,
        "losses.zero_step_ratio": _ratio(counts["losses.zero_steps"], counts["losses.dml_loss.calls"]),
        "trainer.adamw_step.calls": span("trainer.adamw_step", "calls"),
        "trainer.adamw_step.s": span("trainer.adamw_step", "s"),
        "trainer.train.self_s": span("trainer.train", "self_s"),
        "proxies.renorm.s": span("proxies.renorm", "s"),
        "evaluation.blended_scores.s": span("evaluation.blended_scores", "s"),
        "evaluation.macro_f1.s": span("evaluation.macro_f1", "s"),
        "evaluation.paired_significance.s": span("evaluation.paired_significance", "s"),
        "harness.make_fold_plans.s": extra["make_fold_plans_s"],
        "harness.run_grid.self_s": span("harness.run_grid", "self_s"),
        "harness.baseline_cells": counts["harness.baseline_cells"] / passes,
        "harness.baseline_unique_ratio": _ratio(
            counts["harness.baseline_unique"], counts["harness.baseline_cells"]
        ),
        "gradcheck.fd_gradient.calls": span("gradcheck.fd_gradient", "calls"),
        "gradcheck.fd_gradient.s": span("gradcheck.fd_gradient", "s"),
        "gradcheck.fd_gradient.self_s": span("gradcheck.fd_gradient", "self_s"),
        "gradcheck.self_s": span("gradcheck.run_gradcheck", "self_s"),
        "ops_failed_frac": extra["ops_failed_frac"],
        "trace.untraced_ops_per_s": extra["untraced_ops_per_s"],
        "trace.traced_ops_per_s": extra["traced_ops_per_s"],
        "trace.overhead_frac": 1.0 - _ratio(extra["traced_ops_per_s"], extra["untraced_ops_per_s"]),
    }
    for variant in losses.VARIANTS:
        values[f"losses.{variant}.calls"] = span(f"losses.{variant}", "calls")
        values[f"losses.{variant}.s"] = span(f"losses.{variant}", "s")
    return {name: (values[name], unit) for name, unit in PER_LAYER}
