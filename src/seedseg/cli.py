"""Command line interface and benchmark harness.

Subcommands: ``intervals`` dumps a search-interval system as CSV;
``detect`` estimates change points on a numeric series; ``simulate``
writes noisy replicates of a signal spec; ``bench`` runs the accuracy /
cost comparison across interval systems and emits plot-ready CSV.

Exit codes: 0 on success, 2 on usage or data errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from seedseg.gain import PrefixSums, best_splits_arrays, prefix_sums
from seedseg.intervals import (
    DEFAULT_DECAY,
    IntervalArrays,
    SeededParams,
    random_interval_arrays,
    seeded_interval_arrays,
    total_interval_length,
)
from seedseg.metrics import EVAL_CSV_HEADER, EvalReport, count_error, hausdorff, mse, v_measure
from seedseg.select import (
    Penalty,
    Segmentation,
    SolutionPath,
    auto_threshold,
    estimate_noise_sd,
    greedy_path_arrays,
    greedy_select_arrays,
    ic_score,
    not_path_arrays,
    not_select_arrays,
    select_by_ic,
)
from seedseg.signals import (
    NoiseModel,
    SignalSpec,
    SignalSpecError,
    bundled_signal_names,
    bundled_signal_path,
    load_signal_spec,
    render_signal,
    serialize_signal_spec,
    simulate,
    simulate_rep,
)

__all__ = [
    "BenchMethod",
    "DetectConfig",
    "bench_rows_to_csv",
    "build_parser",
    "main",
    "parse_methods",
    "run_bench",
    "run_detect",
    "summarize_bench",
]

RESULT_CSV_HEADER = "method,param,rep," + EVAL_CSV_HEADER


@dataclass(frozen=True)
class DetectConfig:
    """Full configuration of one detection run."""

    decay: float = DEFAULT_DECAY
    min_length: int = 2
    interval_mode: str = "seeded"      # "seeded" | "random"
    random_count: int = 5000
    interval_seed: object = 0          # int seed or entropy sequence
    selection: str = "greedy"          # "greedy" | "not"
    threshold: Optional[float] = None  # fixed kappa; None -> auto / ic
    threshold_scale: float = 1.3       # C in C * sigma * sqrt(2 log T)
    ic: str = "ssic"                   # "none" | "constant" | "bic" | "ssic"
    alpha: float = 1.0
    theta: float = 1.01
    sigma: Optional[float] = None      # fixed noise sd; None -> estimate

    def to_json(self) -> dict:
        return {
            "decay": self.decay,
            "min_length": self.min_length,
            "intervals": self.interval_mode,
            "random_count": self.random_count if self.interval_mode == "random" else None,
            "interval_seed": self.interval_seed if self.interval_mode == "random" else None,
            "selection": self.selection,
            "threshold": self.threshold,
            "threshold_scale": (
                self.threshold_scale if self.ic == "none" and self.threshold is None else None
            ),
            "ic": self.ic,
            "alpha": self.alpha if self.ic == "constant" else None,
            "theta": self.theta if self.ic == "ssic" else None,
            "sigma": self.sigma,
        }


def _build_intervals(config: DetectConfig, length: int) -> IntervalArrays:
    if config.interval_mode == "seeded":
        return seeded_interval_arrays(SeededParams(length, config.decay, config.min_length))
    return random_interval_arrays(
        length, config.random_count, config.min_length, config.interval_seed
    )


def _penalty(config: DetectConfig, sigma_hat: float) -> Penalty:
    if config.ic == "constant":
        return Penalty.constant(config.alpha)
    if config.ic == "bic":
        return Penalty.bic(sigma_hat**2)
    if config.ic == "ssic":
        return Penalty.ssic(config.theta)
    raise ValueError(f"no penalty for ic={config.ic!r}")


def _select_by_ic_indexed(
    path: SolutionPath, ps: PrefixSums, penalty: Penalty
) -> tuple[int, float]:
    """(entry index, score) of the IC winner; index -1 is the empty model."""
    seg = select_by_ic(path, ps, penalty)
    with warnings.catch_warnings():
        # select_by_ic has already warned about a degenerate ssic winner
        warnings.filterwarnings("ignore", "ssic is degenerate", RuntimeWarning)
        score = ic_score(ps, seg, penalty)
    if len(seg) == 0:
        return -1, score
    if path.nested:
        return len(seg) - 1, score
    for i in range(len(path)):
        if path.changepoints_at(i) == seg.changepoints:
            return i, score
    raise RuntimeError("selected segmentation not found on the path")


def run_detect(series: Sequence[float], config: DetectConfig) -> dict:
    """Run the full detection pipeline; returns the JSON-ready result."""
    x = np.asarray(series, dtype=float)
    if len(x) < 2:
        raise ValueError(f"need at least 2 observations, got {len(x)}")
    # every numeric knob is checked, used by this run or not
    for name, op, low in (
        ("threshold", ">=", 0),
        ("sigma", ">=", 0),
        ("threshold_scale", ">", 0),
        ("alpha", ">=", 0),
        ("theta", ">", 1),
        ("random_count", ">=", 1),
    ):
        value = getattr(config, name)
        if value is None:
            continue
        if not (math.isfinite(value) and (value >= low if op == ">=" else value > low)):
            raise ValueError(f"{name} must be finite and {op} {low}, got {value}")
    for name, allowed in (
        ("interval_mode", ("seeded", "random")),
        ("selection", ("greedy", "not")),
        ("ic", ("none", "constant", "bic", "ssic")),
    ):
        if getattr(config, name) not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {getattr(config, name)!r}")
    if not 0.5 <= config.decay < 1.0:
        raise ValueError(f"decay must lie in [1/2, 1), got {config.decay}")
    if config.threshold is not None and config.ic != "none":
        raise ValueError(f"a fixed threshold needs ic='none', got ic={config.ic!r}")
    sigma_hat = config.sigma if config.sigma is not None else estimate_noise_sd(x)
    if config.ic == "none" and config.threshold is None and sigma_hat == 0:
        raise ValueError(
            "noise scale is 0, so the automatic threshold would accept rounding noise;"
            " give a threshold or a positive sigma"
        )
    intervals = _build_intervals(config, len(x))
    ps = prefix_sums(x)

    t0 = time.perf_counter()
    splits, gains = best_splits_arrays(ps, intervals.lefts, intervals.rights)
    t_eval = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    ic_info: Optional[dict] = None
    if config.ic == "none":
        kappa = (
            config.threshold
            if config.threshold is not None
            else auto_threshold(len(x), sigma_hat, config.threshold_scale)
        )
        scan = greedy_select_arrays if config.selection == "greedy" else not_select_arrays
        accepted = scan(gains, splits, intervals.lefts, intervals.rights, kappa)
        pairs = sorted((int(splits[j]), float(gains[j])) for j in accepted)
        threshold = float(kappa)
    else:
        if config.selection == "greedy":
            # under ssic, entries beyond the ceil(T/2) model cap cannot win
            cap = (len(x) + 1) // 2 if config.ic == "ssic" else None
            path = greedy_path_arrays(
                gains, splits, intervals.lefts, intervals.rights, max_breaks=cap
            )
        else:
            path = not_path_arrays(gains, splits, intervals.lefts, intervals.rights)
        penalty = _penalty(config, sigma_hat)
        index, score = _select_by_ic_indexed(path, ps, penalty)
        ic_info = {"kind": config.ic, "score": score}
        if index < 0:
            pairs = []
            threshold = float(gains.max()) if len(gains) else 0.0
        else:
            threshold = float(path.thresholds[index])
            if path.nested:
                pairs = sorted(
                    (int(s), float(g))
                    for s, g in zip(path.increments[: index + 1], path.thresholds[: index + 1])
                )
            else:
                accepted = not_select_arrays(
                    gains, splits, intervals.lefts, intervals.rights, threshold, inclusive=True
                )
                pairs = sorted((int(splits[j]), float(gains[j])) for j in accepted)
    t_select = (time.perf_counter() - t0) * 1e3

    return {
        "changepoints": [p for p, _ in pairs],
        "gains": [g for _, g in pairs],
        "threshold": threshold,
        "sigma_hat": float(sigma_hat),
        "ic": ic_info,
        "config": config.to_json(),
        "timing_ms": {"evaluate": t_eval, "select": t_select},
        "total_length": total_interval_length(intervals),
    }


# ---------------------------------------------------------------------------
# bench harness


@dataclass(frozen=True)
class BenchMethod:
    kind: str    # "seeded" | "random" | "oracle"
    param: float

    @property
    def label(self) -> str:
        if self.kind == "seeded":
            return f"{self.param:g}"
        return f"{int(self.param)}"


def parse_methods(spec: str) -> list[BenchMethod]:
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kind, raw = token.split(":")
        except ValueError:
            raise ValueError(f"bad method token {token!r}; expected kind:param") from None
        if kind == "seeded":
            out.append(BenchMethod("seeded", float(raw)))
        elif kind == "random":
            count = int(raw)
            if count < 1:
                raise ValueError(f"random interval count must be >= 1 in {token!r}")
            out.append(BenchMethod("random", count))
        else:
            raise ValueError(f"unknown method kind {kind!r} in {token!r}")
    if not out:
        raise ValueError("empty method list")
    return out


def _bench_one_rep(args: tuple) -> list[dict]:
    (spec, methods, rep, seed, sigma, base_config, use_oracle, min_seg) = args
    truth_f = render_signal(spec)
    truth_cps = spec.rendered_changepoints()
    x = simulate_rep(spec, NoiseModel(sd=sigma, seed=seed), rep)
    results = []
    for method in methods:
        if method.kind == "seeded":
            config = replace(base_config, interval_mode="seeded", decay=method.param)
        else:
            # one independent, reproducible interval draw per (seed, rep, M)
            config = replace(
                base_config,
                interval_mode="random",
                random_count=int(method.param),
                interval_seed=[seed, rep, int(method.param)],
            )
        results.append((method, run_detect(x, config)))
    if use_oracle:
        # every method shares sigma_hat, so one penalty scores every row
        ps = prefix_sums(x)
        penalty = _penalty(base_config, results[-1][1]["sigma_hat"])

    def row(kind: str, param: str, est: tuple, total_length: int, time_ms: float) -> dict:
        report = EvalReport(
            mse=mse(est, x, truth_f),
            hausdorff=hausdorff(est, truth_cps, len(x)),
            v_measure=v_measure(est, truth_cps, len(x)),
            count_error=count_error(est, truth_cps),
            total_length=total_length,
            time_ms=time_ms,
        )
        out = {"method": kind, "param": param, "rep": rep, "report": report}
        if use_oracle:
            out["ic_score"] = ic_score(ps, Segmentation(est), penalty)
        return out

    rows = []
    for method, result in results:
        est = tuple(result["changepoints"])
        time_ms = result["timing_ms"]["evaluate"] + result["timing_ms"]["select"]
        rows.append(row(method.kind, method.label, est, result["total_length"], time_ms))
    if use_oracle:
        # the O(T^2) solver stays out of the module import graph unless used
        from seedseg.oracle import dp_exact

        t0 = time.perf_counter()
        seg = dp_exact(ps, penalty, min_seg=min_seg, max_length=len(x))
        rows.append(row("oracle", "dp", seg.changepoints, 0, (time.perf_counter() - t0) * 1e3))
    return rows


def run_bench(
    spec: SignalSpec,
    methods: Sequence[BenchMethod],
    reps: int,
    seed: int,
    sigma: float,
    config: Optional[DetectConfig] = None,
    use_oracle: bool = False,
    min_seg: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """Per-(method, rep) benchmark rows, deterministic given flags + seed."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    config = config or DetectConfig()
    if use_oracle and config.ic not in ("constant", "bic"):
        raise ValueError("--oracle requires an additive criterion (--ic constant or bic)")
    tasks = [
        (spec, tuple(methods), rep, seed, sigma, config, use_oracle, min_seg)
        for rep in range(reps)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_rep = list(pool.map(_bench_one_rep, tasks))
    else:
        per_rep = [_bench_one_rep(t) for t in tasks]
    rows: list[dict] = []
    for chunk in per_rep:  # rep order, then method order: serialized sink
        rows.extend(chunk)
    return rows


def bench_rows_to_csv(rows: Sequence[dict], with_ic: bool) -> str:
    buf = io.StringIO()
    header = RESULT_CSV_HEADER + (",ic_score" if with_ic else "")
    print(header, file=buf)
    for row in rows:
        r: EvalReport = row["report"]
        line = f"{row['method']},{row['param']},{row['rep']},{r.to_csv_row()}"
        if with_ic:
            line += f",{row['ic_score']:.6g}"
        print(line, file=buf)
    return buf.getvalue()


def summarize_bench(rows: Sequence[dict]) -> str:
    """Per-method means and standard deviations of the benchmark metrics."""
    groups: dict[tuple[str, str], list[EvalReport]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["param"]), []).append(row["report"])
    buf = io.StringIO()
    print(
        "method,param,n,mse_mean,mse_sd,hausdorff_mean,hausdorff_sd,"
        "vmeasure_mean,vmeasure_sd,count_error_mean,count_error_sd,"
        "total_length_mean,time_ms_mean",
        file=buf,
    )
    def ms(vals):
        mean = statistics.fmean(vals)
        sd = statistics.stdev(vals) if len(vals) > 1 else 0.0
        return f"{mean:.6g},{sd:.6g}"

    for (method, param), reports in groups.items():
        print(
            f"{method},{param},{len(reports)},"
            f"{ms([r.mse for r in reports])},"
            f"{ms([r.hausdorff for r in reports])},"
            f"{ms([r.v_measure for r in reports])},"
            f"{ms([float(r.count_error) for r in reports])},"
            f"{statistics.fmean([r.total_length for r in reports]):.6g},"
            f"{statistics.fmean([r.time_ms for r in reports]):.6g}",
            file=buf,
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input parsing


def _read_series(source: str, column: Optional[str]) -> np.ndarray:
    if source == "-":
        text = sys.stdin.read()
    else:
        text = Path(source).read_text()
    if column is not None:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ValueError(f"column {column!r} not found in input header")
        values = [row[column] for row in reader]
    else:
        values = [line.strip() for line in text.splitlines() if line.strip()]
        # tolerate a single non-numeric header line
        if values:
            try:
                float(values[0].split(",")[0])
            except ValueError:
                values = values[1:]
        values = [v.split(",")[0] for v in values]
    try:
        x = np.array([float(v) for v in values])
    except ValueError as exc:
        raise ValueError(f"non-numeric input: {exc}") from exc
    if len(x) == 0 or not np.all(np.isfinite(x)):
        raise ValueError("input must be a non-empty finite numeric series")
    return x


def _load_spec_arg(raw: str) -> SignalSpec:
    if raw in bundled_signal_names():
        return load_signal_spec(bundled_signal_path(raw))
    return load_signal_spec(raw)


def _finite_or_none(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# subcommands


def _cmd_intervals(args: argparse.Namespace, out) -> int:
    config = DetectConfig(
        decay=args.decay,
        min_length=args.min_length,
        interval_mode=args.mode,
        random_count=args.count,
        interval_seed=args.seed,
    )
    arrays = _build_intervals(config, args.length)
    print("layer,left,right", file=out)
    for layer, left, right in zip(arrays.layers, arrays.lefts, arrays.rights):
        print(f"{'random' if layer < 0 else layer},{left},{right}", file=out)
    print(f"# total_length={total_interval_length(arrays)}", file=out)
    return 0


def _cmd_detect(args: argparse.Namespace, out) -> int:
    x = _read_series(args.input, args.column)
    ic = args.ic
    if ic is None:
        # a fixed threshold implies direct thresholded selection by default
        ic = "none" if args.threshold is not None else "ssic"
    config = DetectConfig(
        decay=args.decay,
        min_length=args.min_length,
        interval_mode=args.intervals,
        random_count=args.random_count,
        interval_seed=args.seed,
        selection=args.selection,
        threshold=args.threshold,
        threshold_scale=args.threshold_scale,
        ic=ic,
        alpha=args.alpha,
        theta=args.theta,
        sigma=None if args.sigma == "auto" else float(args.sigma),
    )
    result = run_detect(x, config)
    if result["ic"] is not None:
        result["ic"]["score"] = _finite_or_none(result["ic"]["score"])
    result.pop("total_length")
    print(json.dumps(result), file=out)
    return 0


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    spec = _load_spec_arg(args.spec)
    if args.repeat is not None:
        spec = replace(spec, repeat=args.repeat)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = simulate(spec, NoiseModel(sd=args.sigma, seed=args.seed), reps=args.reps)
    for i, x in enumerate(series):
        path = out_dir / f"rep_{i}.csv"
        path.write_text("\n".join(repr(v) for v in x.tolist()) + "\n")
    truth = {
        "spec": serialize_signal_spec(spec),
        "T": spec.rendered_length,
        "changepoints": list(spec.rendered_changepoints()),
        "levels": list(spec.rendered_levels()),
        "sigma": args.sigma,
        "seed": args.seed,
        "reps": args.reps,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2) + "\n")
    print(f"wrote {args.reps} replicate(s) to {out_dir}", file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    spec = _load_spec_arg(args.spec)
    if args.repeat is not None:
        spec = replace(spec, repeat=args.repeat)
    methods = parse_methods(args.methods)
    config = DetectConfig(
        min_length=args.min_length,
        selection=args.selection,
        ic=args.ic,
        alpha=args.alpha,
        theta=args.theta,
    )
    rows = run_bench(
        spec,
        methods,
        reps=args.reps,
        seed=args.seed,
        sigma=args.sigma,
        config=config,
        use_oracle=args.oracle,
        min_seg=args.min_length if args.oracle else 1,
        jobs=args.jobs,
    )
    detail = bench_rows_to_csv(rows, with_ic=args.oracle)
    if args.out is not None:
        Path(args.out).write_text(detail)
    else:
        out.write(detail)
    if args.summary:
        out.write(summarize_bench(rows))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_decay(p: argparse.ArgumentParser):
    p.add_argument(
        "--decay",
        type=float,
        default=DEFAULT_DECAY,
        help="seeded layer decay a in [1/2, 1) (default 1/sqrt(2))",
    )
    p.add_argument(
        "--min-length", type=int, default=2, help="minimal covered observations per interval"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedseg",
        description="Seeded binary segmentation change point detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="dump a search interval system as CSV")
    p.add_argument("--length", "-T", type=int, required=True, help="series length T")
    _add_decay(p)
    p.add_argument("--mode", choices=("seeded", "random"), default="seeded")
    p.add_argument("--count", type=int, default=100, help="random interval count M")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("detect", help="detect change points in a numeric series")
    p.add_argument("--input", default="-", help="CSV file or - for standard input")
    p.add_argument("--column", default=None, help="column name for CSV input with a header")
    _add_decay(p)
    p.add_argument("--intervals", choices=("seeded", "random"), default="seeded")
    p.add_argument("--random-count", type=int, default=5000, help="M for --intervals random")
    p.add_argument("--seed", type=int, default=0, help="seed for --intervals random")
    p.add_argument("--selection", choices=("greedy", "not"), default="greedy")
    p.add_argument("--threshold", type=float, default=None, help="fixed threshold kappa")
    p.add_argument(
        "--threshold-scale",
        type=float,
        default=1.3,
        help="C in the automatic threshold C*sigma*sqrt(2 log T)",
    )
    p.add_argument(
        "--ic",
        choices=("none", "constant", "bic", "ssic"),
        default=None,
        help="model selection criterion (default: ssic, or none with --threshold)",
    )
    p.add_argument("--alpha", type=float, default=1.0, help="per-break penalty for --ic constant")
    p.add_argument("--theta", type=float, default=1.01, help="exponent for --ic ssic")
    p.add_argument("--sigma", default="auto", help="noise sd, or 'auto' to estimate")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="write noisy replicates of a signal spec")
    p.add_argument("--spec", required=True, help="signal spec path or bundled name")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--repeat", type=int, default=None, help="override the spec repeat factor")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="benchmark interval systems on a signal spec")
    p.add_argument("--spec", required=True, help="signal spec path or bundled name")
    p.add_argument(
        "--methods",
        default="seeded:0.70710678,random:5000",
        help="comma list like seeded:0.5,seeded:0.7071,random:100,random:5000",
    )
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--repeat", type=int, default=None, help="override the spec repeat factor")
    p.add_argument("--min-length", type=int, default=2)
    p.add_argument("--selection", choices=("greedy", "not"), default="greedy")
    p.add_argument("--ic", choices=("constant", "bic", "ssic"), default="ssic")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.01)
    p.add_argument("--summary", action="store_true", help="also print per-method means and sds")
    p.add_argument("--oracle", action="store_true", help="add exact-DP rows (additive --ic only)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes for reps")
    p.add_argument("--out", default=None, help="write per-rep rows to this file instead of stdout")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "decay", None) is not None and not 0.5 <= args.decay < 1.0:
        parser.error(f"--decay must lie in [1/2, 1), got {args.decay}")
    try:
        return args.func(args, sys.stdout)
    except (ValueError, SignalSpecError, OSError) as exc:
        print(f"seedseg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
