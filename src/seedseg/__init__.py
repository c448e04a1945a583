"""Seeded binary segmentation for univariate change-in-mean detection.

Quick start::

    import numpy as np
    import seedseg

    x = np.concatenate([np.zeros(100), np.full(100, 3.0)]) + np.random.default_rng(0).standard_normal(200)
    ps = seedseg.prefix_sums(x)
    candidates = seedseg.evaluate_all(ps, seedseg.seeded_intervals(seedseg.SeededParams(len(x))))
    path = seedseg.greedy_solution_path(candidates)
    seg = seedseg.select_by_ic(path, ps, seedseg.Penalty.ssic())
    print(seg.changepoints)
"""

from seedseg.gain import (
    Candidate,
    CusumGainEvaluator,
    GainEvaluator,
    PrefixSums,
    best_split,
    cusum,
    evaluate_all,
    prefix_sums,
)
from seedseg.intervals import (
    DEFAULT_DECAY,
    Interval,
    SeededParams,
    random_intervals,
    seeded_intervals,
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
    greedy_select,
    greedy_solution_path,
    ic_score,
    not_select,
    not_solution_path,
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
    "Candidate",
    "CusumGainEvaluator",
    "DEFAULT_DECAY",
    "EvalReport",
    "GainEvaluator",
    "Interval",
    "NoiseModel",
    "Penalty",
    "PrefixSums",
    "SeededParams",
    "Segmentation",
    "SignalSpec",
    "SolutionPath",
    "auto_threshold",
    "best_split",
    "count_error",
    "cusum",
    "estimate_noise_sd",
    "evaluate_all",
    "fit_segmentation",
    "greedy_select",
    "greedy_solution_path",
    "hausdorff",
    "ic_score",
    "load_bundled_signal",
    "load_signal_spec",
    "mse",
    "not_select",
    "not_solution_path",
    "penalty_value",
    "prefix_sums",
    "random_intervals",
    "render_signal",
    "seeded_intervals",
    "select_by_ic",
    "simulate",
    "total_interval_length",
    "v_measure",
    "__version__",
]
