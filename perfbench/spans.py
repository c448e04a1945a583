"""Spans around the calls into each layer of ``seedseg``, recorded from outside.

Tracing replaces the layer functions that the pipeline glue looks up in
``seedseg.cli`` (and ``fit_segmentation`` in ``seedseg.select``, which
``select_by_ic`` calls) with wrappers that record one span per call:
name, layer, start, end, parent and the op it belongs to.  Spans stay in
memory until the run ends.  A few wrappers also derive counts from the
arrays going in and out; nothing inside the package is changed.

A layer's self time is the sum over its spans of duration minus the
duration of their direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _interval_counts(args, result):
    lengths = result.rights - result.lefts
    return {"intervals.count": len(lengths), "intervals.total_length": int(lengths.sum())}


def _evaluate_counts(args, result):
    lengths = np.asarray(args["rights"]) - np.asarray(args["lefts"])
    return {
        "gain.splits_scored": int((lengths - 1).sum()),
        "gain.length_groups": len(np.unique(lengths)),
    }


def _visit_position(gains: np.ndarray, j: int) -> int:
    """0-based position of candidate j in the stable decreasing-gain order."""
    g = gains[j]
    return int(np.count_nonzero(gains > g) + np.count_nonzero(gains[:j] == g))


def _greedy_counts(args, result):
    gains = np.asarray(args["gains"])
    limit = args.get("max_accept")
    if limit is not None and len(result) >= limit:
        scanned = _visit_position(gains, result[-1]) + 1
    else:
        scanned = int(np.count_nonzero(gains > args["kappa"]))
    return {"select.scanned": scanned, "select.accepted": len(result)}


def _greedy_path_counts(args, result):
    gains = np.asarray(args["gains"])
    limit = args.get("max_breaks")
    accepted = len(result.thresholds)
    if limit is not None and accepted >= limit:
        # the accepted candidate is the first one carrying its (gain, split)
        last = np.nonzero(
            (gains == result.thresholds[-1]) & (np.asarray(args["splits"]) == result.increments[-1])
        )[0][0]
        scanned = _visit_position(gains, int(last)) + 1
    else:
        scanned = int(np.count_nonzero(gains > 0.0))
    return {"select.scanned": scanned, "select.accepted": accepted}


def _not_counts(args, result):
    gains = np.asarray(args["gains"])
    kappa = args["kappa"]
    qualifying = gains >= kappa if args.get("inclusive") else gains > kappa
    return {"select.scanned": int(np.count_nonzero(qualifying)), "select.accepted": len(result)}


def _not_path_counts(args, result):
    # the full-rescan path visits every qualifying candidate once per distinct gain
    positive = np.sort(np.asarray(args["gains"])[np.asarray(args["gains"]) > 0.0])
    distinct = np.unique(positive)
    return {"select.not_visits": int((len(positive) - np.searchsorted(positive, distinct)).sum())}


def _detect_timing(args, result):
    return {"timed_ms": result["timing_ms"]["evaluate"] + result["timing_ms"]["select"]}


# (module, function, layer metric, counts hook)
WRAPPED = [
    ("seedseg.cli", "run_detect", "cli", _detect_timing),
    ("seedseg.cli", "run_bench", "cli", None),
    ("seedseg.cli", "seeded_interval_arrays", "intervals.ms", _interval_counts),
    ("seedseg.cli", "random_interval_arrays", "intervals.ms", _interval_counts),
    ("seedseg.cli", "prefix_sums", "gain.prefix_ms", None),
    ("seedseg.cli", "best_splits_arrays", "gain.evaluate_ms", _evaluate_counts),
    ("seedseg.cli", "estimate_noise_sd", "select.sigma_ms", None),
    ("seedseg.cli", "greedy_path_arrays", "select.path_ms", _greedy_path_counts),
    ("seedseg.cli", "not_path_arrays", "select.path_ms", _not_path_counts),
    ("seedseg.cli", "select_by_ic", "select.ic_ms", None),
    ("seedseg.cli", "ic_score", "select.ic_ms", None),
    ("seedseg.cli", "greedy_select_arrays", "select.threshold_ms", _greedy_counts),
    ("seedseg.cli", "not_select_arrays", "select.threshold_ms", _not_counts),
    ("seedseg.select", "fit_segmentation", "select.fit_ms", None),
    ("seedseg.cli", "render_signal", "signals.simulate_ms", None),
    ("seedseg.cli", "simulate_rep", "signals.simulate_ms", None),
    ("seedseg.cli", "mse", "metrics.score_ms", None),
    ("seedseg.cli", "hausdorff", "metrics.score_ms", None),
    ("seedseg.cli", "v_measure", "metrics.score_ms", None),
    ("seedseg.cli", "count_error", "metrics.score_ms", None),
]

LAYER_MS = sorted({layer for _, _, layer, _ in WRAPPED if layer != "cli"})
COUNTS = [
    "intervals.count",
    "intervals.total_length",
    "gain.splits_scored",
    "gain.length_groups",
    "select.scanned",
    "select.accepted",
    "select.not_visits",
]


class Tracer:
    """Installs the wrappers for one op at a time and keeps every span."""

    def __init__(self, modules: dict):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op = -1
        self._originals = []
        self.missing: set[str] = set()
        self._wrappers = []
        for module_name, attr, layer, hook in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(attr)
                continue
            self._originals.append((module, attr, fn))
            self._wrappers.append((module, attr, self._wrap(fn, attr, layer, hook)))

    def _wrap(self, fn, attr, layer, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "id": len(self.spans), "op": self._op, "name": attr, "layer": layer,
                "parent": parent["id"] if parent else None, "children_ns": 0,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent["children_ns"] += span["end_ns"] - span["start_ns"]
            if hook is not None:
                # counted after the op, so the counting is not timed
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["pending"] = (hook, bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def op(self, index: int):
        """Trace the calls made inside the block as op ``index``."""
        self._op = index
        first = len(self.spans)
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn in self._originals:
                setattr(module, attr, fn)
            self._op = -1
        for span in self.spans[first:]:
            if "pending" in span:
                hook, arguments, result = span.pop("pending")
                span["counts"] = hook(arguments, result)


def op_summary(spans: list[dict]) -> dict:
    """Per-layer self time (ms) and counts of one op's spans."""
    out = {name: 0.0 for name in LAYER_MS}
    out.update({"cli.detect_ms": 0.0, "cli.self_ms": 0.0, "cli.untimed_ms": 0.0})
    counts = {name: 0 for name in COUNTS}
    names = set()
    for span in spans:
        names.add(span["name"])
        total = (span["end_ns"] - span["start_ns"]) / 1e6
        own = total - span["children_ns"] / 1e6
        if span["layer"] == "cli":
            out["cli.self_ms"] += own
            if span["parent"] is None:
                out["cli.detect_ms"] += total
            if "counts" in span:
                out["cli.untimed_ms"] += total - span["counts"]["timed_ms"]
        else:
            out[span["layer"]] += own
            for key, value in span.get("counts", {}).items():
                counts[key] += value
    out.update(counts)
    out["names"] = names
    return out


def layer_metrics(tracer: Tracer, expected: dict, traced_ops: list[int]) -> dict:
    """Per-layer metrics of a traced run: medians over ops, counts of the first op.

    ``expected`` maps each per-layer time this workload runs to the wrapped
    functions it is made of.  One of those functions gone from the package,
    or never called, makes the metric (and counts derived from it)
    ``None``: missing, never 0.  A layer not in ``expected`` is one the
    workload does not run, and reads 0.
    """
    by_op: dict[int, list] = {i: [] for i in traced_ops}
    for span in tracer.spans:
        by_op[span["op"]].append(span)
    per_op = [op_summary(by_op[i]) for i in traced_ops]
    called = set().union(*(s["names"] for s in per_op))
    out: dict = {}
    for name in LAYER_MS + ["cli.detect_ms", "cli.self_ms", "cli.untimed_ms"]:
        out[name] = statistics.median(s[name] for s in per_op)
    for name in COUNTS:
        out[name] = per_op[0][name]
    splits = [s["gain.splits_scored"] for s in per_op]
    out["gain.ns_per_split"] = statistics.median(
        s["gain.evaluate_ms"] * 1e6 / n for s, n in zip(per_op, splits) if n
    ) if any(splits) else 0.0
    scanned = out["select.scanned"]
    out["select.accept_ratio"] = out["select.accepted"] / scanned if scanned else 0.0
    scan = ["select.scanned", "select.accepted", "select.accept_ratio"]
    derived = {
        "intervals.ms": ["intervals.count", "intervals.total_length"],
        "gain.evaluate_ms": ["gain.splits_scored", "gain.length_groups", "gain.ns_per_split"],
        "select.path_ms": ["select.not_visits", *scan],
        "select.threshold_ms": scan,
    }
    for metric, functions in expected.items():
        if any(f in tracer.missing or f not in called for f in functions):
            out[metric] = None
            for extra in derived.get(metric, []):
                out[extra] = None
    return out
