"""Seeded binary segmentation for univariate change-in-mean detection.

Quick start::

    import numpy as np
    import seedseg

    x = np.concatenate([np.zeros(100), np.full(100, 3.0)]) + np.random.default_rng(0).standard_normal(200)
    ps = seedseg.prefix_sums(x)
    iv = seedseg.seeded_interval_arrays(seedseg.SeededParams(len(x)))
    splits, gains = seedseg.best_splits_arrays(ps, iv.lefts, iv.rights)
    path = seedseg.greedy_path_arrays(gains, splits, iv.lefts, iv.rights)
    seg = seedseg.select_by_ic(path, ps, seedseg.Penalty.ssic())
    print(seg.changepoints)
"""

from seedseg.gain import PrefixSums, best_splits_arrays, cusum, prefix_sums
from seedseg.intervals import (
    DEFAULT_DECAY,
    IntervalArrays,
    SeededParams,
    random_interval_arrays,
    seeded_interval_arrays,
    total_interval_length,
)
from seedseg.metrics import EvalReport, count_error, hausdorff, mse, v_measure
from seedseg.select import (
    Penalty,
    Segmentation,
    SolutionPath,
    auto_threshold,
    estimate_noise_sd,
    fit_segmentation,
    greedy_path_arrays,
    greedy_select_arrays,
    ic_score,
    not_path_arrays,
    not_select_arrays,
    penalty_value,
    select_by_ic,
)
from seedseg.signals import (
    NoiseModel,
    SignalSpec,
    load_bundled_signal,
    load_signal_spec,
    render_signal,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DECAY",
    "EvalReport",
    "IntervalArrays",
    "NoiseModel",
    "Penalty",
    "PrefixSums",
    "SeededParams",
    "Segmentation",
    "SignalSpec",
    "SolutionPath",
    "auto_threshold",
    "best_splits_arrays",
    "count_error",
    "cusum",
    "estimate_noise_sd",
    "fit_segmentation",
    "greedy_path_arrays",
    "greedy_select_arrays",
    "hausdorff",
    "ic_score",
    "load_bundled_signal",
    "load_signal_spec",
    "mse",
    "not_path_arrays",
    "not_select_arrays",
    "penalty_value",
    "prefix_sums",
    "random_interval_arrays",
    "render_signal",
    "seeded_interval_arrays",
    "select_by_ic",
    "simulate",
    "total_interval_length",
    "v_measure",
    "__version__",
]
