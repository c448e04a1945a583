"""The four benchmark workloads: inputs, the timed operation, and its checks.

Each op gets a fresh series from ``numpy.random.default_rng([seed, op])``
and the program sees only that array (or, for the bench workload, the
integer seed its ``run_bench`` rep draws the noise and intervals from).

Every output is checked twice: structurally (sorted change points inside
(0, T), one gain per change point, finite numbers) and against
``reference.py``.  Change points, counts and lengths must match exactly;
gains, threshold, noise estimate, ic score and the bench row's MSE and
V-measure within ``REL_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference

REL_TOL = 1e-9

# Fixed inputs for the accuracy metrics and the golden comparison; their
# outputs at the benchmark's base commit are stored in golden.json.
PANEL_SEED = 20200217


def alternating_steps(T: int, changes: int, jump: float) -> tuple[np.ndarray, list[int]]:
    """Equally spaced change points, levels alternating 0 / jump."""
    cps = [(j + 1) * T // (changes + 1) for j in range(changes)]
    levels = (np.arange(changes + 1) % 2) * jump
    return np.repeat(levels, np.diff([0] + cps + [T])), cps


class Mismatch(Exception):
    """An output that is malformed or differs from the reference."""


def _close(name: str, got, want) -> None:
    if want is None and got is None:
        return
    if got is None or want is None or not (
        got == want or math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    ):
        raise Mismatch(f"{name}: got {got!r}, want {want!r}")


def _exact(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, want {want!r}")


def check_structure(result: dict, T: int) -> None:
    """Shape of a ``run_detect`` result, independent of any reference."""
    cps = result.get("changepoints")
    gains = result.get("gains")
    if not isinstance(cps, list) or not isinstance(gains, list):
        raise Mismatch("changepoints and gains must be lists")
    if len(cps) != len(gains):
        raise Mismatch(f"{len(cps)} change points but {len(gains)} gains")
    if any(not isinstance(c, int) or not 0 < c < T for c in cps):
        raise Mismatch("change points must be ints inside (0, T)")
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise Mismatch("change points must be strictly increasing")
    if not all(isinstance(g, float) and g >= 0.0 and math.isfinite(g) for g in gains):
        raise Mismatch("gains must be finite, non-negative floats")
    for key in ("threshold", "sigma_hat"):
        if not math.isfinite(result.get(key, math.nan)):
            raise Mismatch(f"{key} must be finite")


def check_detect(result: dict, want: dict) -> None:
    """A ``run_detect`` summary against the reference (or a golden entry)."""
    _exact("changepoints", result["changepoints"], want["changepoints"])
    if "gains" in want:
        for got, ref in zip(result["gains"], want["gains"]):
            _close("gain", got, ref)
    _close("threshold", result["threshold"], want["threshold"])
    _close("sigma_hat", result["sigma_hat"], want["sigma_hat"])
    _close("ic score", result["score"], want["score"])
    _exact("total_length", result["total_length"], want["total_length"])


BENCH_FIELDS = ("mse", "hausdorff", "v_measure", "count_error", "total_length")


def bench_summary(rows: list) -> dict:
    """Checked fields of the single row one ``run_bench`` rep returns."""
    if len(rows) != 1:
        raise Mismatch(f"expected one bench row, got {len(rows)}")
    row = rows[0]
    _exact("method", (row["method"], row["param"], row["rep"]), ("random", "5000", 0))
    report = row["report"]
    if not (math.isfinite(report.time_ms) and report.time_ms >= 0):
        raise Mismatch("time_ms must be finite and non-negative")
    return {name: getattr(report, name) for name in BENCH_FIELDS}


def check_bench(summary: dict, want: dict) -> None:
    for name in ("mse", "v_measure"):
        _close(name, summary[name], want[name])
    for name in ("hausdorff", "count_error", "total_length"):
        _exact(name, summary[name], want[name])


@dataclass
class Workload:
    """One named workload: how to make op ``i``'s input, run it and check it."""

    name: str
    panel_size: int
    make_input: Callable          # (seed, i) -> program input
    run: Callable                 # program input -> raw output
    summarize: Callable           # raw output -> checked summary (dict)
    expect: Callable              # (seed, i) -> reference summary
    check: Callable               # (summary, expected) -> None, raises Mismatch
    quality: Callable             # (seed, i, summary) -> (mse, hausdorff)
    layers: dict                  # per-layer metric -> wrapped functions it expects


def _detect_workload(name, T, truth, cps, sigma, config, ref_kwargs, panel_size, layers):
    import seedseg.cli as cli

    def make_input(seed, i):
        return truth + sigma * np.random.default_rng([seed, i]).standard_normal(T)

    def summarize(result):
        check_structure(result, T)
        return {
            "changepoints": result["changepoints"],
            "gains": result["gains"],
            "threshold": result["threshold"],
            "sigma_hat": result["sigma_hat"],
            "score": result["ic"]["score"] if result["ic"] is not None else None,
            "total_length": result["total_length"],
        }

    def quality(seed, i, summary):
        x = make_input(seed, i)
        return (
            reference.mse(summary["changepoints"], x, truth),
            reference.hausdorff(summary["changepoints"], cps, T),
        )

    return Workload(
        name=name,
        panel_size=panel_size,
        make_input=make_input,
        run=lambda x: cli.run_detect(x, config),
        summarize=summarize,
        expect=lambda seed, i: reference.detect(make_input(seed, i), **ref_kwargs),
        check=check_detect,
        quality=quality,
        layers=layers,
    )


def _bench_workload(spec, sigma, panel_size, layers):
    import seedseg.cli as cli

    truth, truth_cps = _render(spec)
    methods = [cli.BenchMethod("random", 5000)]

    def make_input(seed, i):
        return int(np.random.default_rng([seed, i]).integers(2**31))

    return Workload(
        name="wbs_blocks_bench",
        panel_size=panel_size,
        make_input=make_input,
        run=lambda rep_seed: cli.run_bench(spec, methods, reps=1, seed=rep_seed, sigma=sigma, jobs=1),
        summarize=bench_summary,
        expect=lambda seed, i: reference.bench_rep(
            truth, truth_cps, sigma, make_input(seed, i), 5000
        ),
        check=check_bench,
        quality=lambda seed, i, summary: (summary["mse"], summary["hausdorff"]),
        layers=layers,
    )


def _render(spec) -> tuple[np.ndarray, list[int]]:
    """Truth of a signal spec and its change points, without the package's code."""
    bounds = [0, *spec.changepoints, spec.length]
    truth = np.tile(np.repeat(np.asarray(spec.levels, float), np.diff(bounds)), spec.repeat)
    return truth, (np.nonzero(np.diff(truth))[0] + 1).tolist()


# Wrapped functions each per-layer time is built from, per workload.  A
# layer listed here that records no span in a traced run is reported as
# missing; a layer left out is one the workload does not run.
_DETECT = {
    "intervals.ms": ["seeded_interval_arrays"],
    "gain.prefix_ms": ["prefix_sums"],
    "gain.evaluate_ms": ["best_splits_arrays"],
    "select.sigma_ms": ["estimate_noise_sd"],
}
_IC = {"select.ic_ms": ["select_by_ic", "ic_score"], "select.fit_ms": ["fit_segmentation"]}


def build(name: str) -> Workload:
    from seedseg.cli import DetectConfig
    from seedseg.signals import load_bundled_signal

    if name == "seeded_ssic_dense":
        # T=2^13 (~0.25 s/op, 60-75 ops a run), so that the tail percentile
        # has ten ops beyond it and still lies above p80.
        T = 2**13
        truth, cps = alternating_steps(T, T // 100, 3.0)
        return _detect_workload(
            name, T, truth, cps, 1.0, DetectConfig(), {}, 1,
            {**_DETECT, **_IC, "select.path_ms": ["greedy_path_arrays"]},
        )
    if name == "seeded_threshold_sparse":
        # T=2^16 (~0.25 s/op); at 2^18 (~1 s/op) a run timed ~16 ops.
        T = 2**16
        truth, cps = alternating_steps(T, 16, 1.0)
        return _detect_workload(
            name, T, truth, cps, 1.0, DetectConfig(ic="none"), {"ic": "none"}, 2,
            {**_DETECT, "select.threshold_ms": ["greedy_select_arrays"]},
        )
    if name == "wbs_blocks_bench":
        # Two copies (T=4096, ~0.35 s/op); at five a run timed ~23 ops.
        spec = replace(load_bundled_signal("blocks"), repeat=2)
        return _bench_workload(
            spec, 10.0, 4,
            {**_DETECT, **_IC, "intervals.ms": ["random_interval_arrays"],
             "select.path_ms": ["greedy_path_arrays"],
             "signals.simulate_ms": ["render_signal", "simulate_rep"],
             "metrics.score_ms": ["mse", "hausdorff", "v_measure", "count_error"]},
        )
    if name == "not_ssic_stairs":
        # The first ten steps of stairs10 (T=100, ~0.25 s/op): the full
        # signal (T=150) takes ~0.6 s/op, two copies ~2 s.
        spec = load_bundled_signal("stairs10")
        spec = replace(spec, length=100, changepoints=spec.changepoints[:9],
                       levels=spec.levels[:10])
        truth, cps = _render(spec)
        return _detect_workload(
            name, len(truth), truth, cps, 0.3,
            DetectConfig(selection="not"), {"selection": "not"}, 2,
            {**_DETECT, **_IC, "select.path_ms": ["not_path_arrays"],
             "select.threshold_ms": ["not_select_arrays"]},
        )
    raise KeyError(name)


NAMES = ("seeded_ssic_dense", "seeded_threshold_sparse", "wbs_blocks_bench", "not_ssic_stairs")
