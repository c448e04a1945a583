import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seedseg
from seedseg.cli import (
    DetectConfig,
    BenchMethod,
    bench_rows_to_csv,
    main,
    parse_methods,
    run_bench,
    run_detect,
    summarize_bench,
)
from seedseg.select import estimate_noise_sd
from seedseg.signals import SignalSpec, save_signal_spec


@pytest.fixture
def toy_spec_path(tmp_path):
    spec = SignalSpec("step", 60, (30,), (0.0, 4.0), 1)
    path = tmp_path / "step.json"
    save_signal_spec(spec, path)
    return path


def run_main(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestIntervalsCommand:
    def test_csv_and_total(self, capsys):
        rc, out, _ = run_main(["intervals", "--length", "10", "--decay", "0.5"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer,left,right"
        assert lines[1] == "1,0,10"
        assert lines[-1] == "# total_length=66"
        assert len(lines) == 2 + 20  # header + 20 intervals + trailer

    def test_decay_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["intervals", "--length", "10", "--decay", "0.4"])
        assert exc.value.code == 2

    def test_random_mode(self, capsys):
        rc, out, _ = run_main(
            ["intervals", "--length", "50", "--mode", "random", "--count", "7", "--seed", "3"],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert all(line.startswith("random,") for line in lines[1:-1])

    def test_table_value_at_2048(self, capsys):
        rc, out, _ = run_main(
            ["intervals", "--length", "2048", "--decay", "0.70710678"], capsys
        )
        assert rc == 0
        total = int(out.strip().splitlines()[-1].split("=")[1])
        assert abs(total / 95_300 - 1) <= 0.02

    @pytest.mark.parametrize("mode", ["seeded", "random"])
    def test_min_length_above_length_exit_2(self, capsys, mode):
        rc, out, err = run_main(
            ["intervals", "--length", "8", "--min-length", "50", "--mode", mode], capsys
        )
        assert rc == 2
        assert out == ""
        assert "min_length must lie in [2, 8], got 50" in err


class TestDetectCommand:
    def test_fixed_threshold_step(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("0\n0\n1\n1\n")
        rc, out, _ = run_main(
            ["detect", "--input", str(data), "--threshold", "0.5"], capsys
        )
        assert rc == 0
        result = json.loads(out)
        assert result["changepoints"] == [2]
        assert result["gains"] == [pytest.approx(1.0)]
        assert result["threshold"] == 0.5
        assert result["ic"] is None
        assert set(result["timing_ms"]) == {"evaluate", "select"}

    def test_constant_input_auto(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("5\n" * 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, _ = run_main(["detect", "--input", str(data)], capsys)
        assert rc == 0
        result = json.loads(out)
        assert result["changepoints"] == []
        assert result["sigma_hat"] == 0.0
        # the degenerate ssic fit is reported once per run
        degenerate = [w for w in caught if "ssic is degenerate" in str(w.message)]
        assert [w.category for w in degenerate] == [RuntimeWarning]

    def test_column_selection(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        rows = ["t,value", *(f"{i},{v}" for i, v in enumerate([0, 0, 0, 5, 5, 5]))]
        data.write_text("\n".join(rows) + "\n")
        rc, out, _ = run_main(
            ["detect", "--input", str(data), "--column", "value", "--threshold", "1.0"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["changepoints"] == [3]

    def test_missing_column_errors(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("t,value\n1,2\n")
        rc, _, err = run_main(
            ["detect", "--input", str(data), "--column", "nope"], capsys
        )
        assert rc == 2
        assert "nope" in err

    def test_non_numeric_exit_2(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("header\nfoo\nbar\n")
        rc, _, err = run_main(["detect", "--input", str(data)], capsys)
        assert rc == 2
        assert "seedseg: error" in err

    def test_too_short_exit_2(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("1.5\n")
        rc, _, err = run_main(["detect", "--input", str(data)], capsys)
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "-1"],
            ["--threshold", "nan"],
            ["--threshold", "inf"],
            ["--sigma", "-3", "--ic", "bic"],
            ["--sigma", "nan", "--ic", "bic"],
            ["--sigma", "inf", "--threshold-scale", "1.3", "--ic", "none"],
        ],
    )
    def test_bad_threshold_or_sigma_exit_2(self, tmp_path, capsys, flags):
        data = tmp_path / "x.csv"
        data.write_text("3\n" * 8)
        rc, out, err = run_main(["detect", "--input", str(data), *flags], capsys)
        assert rc == 2
        assert out == ""
        assert "must be finite and >= 0" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold-scale", "nan"],  # unused under the default ssic
            ["--threshold-scale", "nan", "--ic", "none"],
            ["--threshold-scale", "0", "--ic", "none"],
            ["--threshold-scale", "-1"],
            ["--threshold-scale", "inf", "--ic", "none"],
            ["--ic", "constant", "--alpha", "-5"],
            ["--ic", "constant", "--alpha", "nan"],
            ["--alpha", "inf"],
            ["--theta", "nan"],
            ["--theta", "1"],
            ["--theta", "inf", "--ic", "bic"],
        ],
    )
    def test_bad_scale_alpha_or_theta_exit_2(self, tmp_path, capsys, flags):
        data = tmp_path / "x.csv"
        data.write_text("".join(f"{i}\n" for i in range(1, 9)))
        rc, out, err = run_main(["detect", "--input", str(data), *flags], capsys)
        assert rc == 2
        assert out == ""
        assert "must be finite and" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"selection": "gredy"},
            {"interval_mode": "seded"},
            {"ic": "BIC"},
            {"ic": None},
            {"decay": float("nan"), "interval_mode": "random"},
            {"decay": 5.0, "interval_mode": "random"},
            {"decay": float("inf")},
            {"decay": 0.49},
            {"decay": 1.0},
            {"random_count": 0, "interval_mode": "random"},
            {"random_count": 0},  # unused under seeded intervals
            {"min_length": 41},
            {"min_length": 41, "interval_mode": "random"},
        ],
    )
    def test_run_detect_rejects_unknown_mode_or_bad_decay(self, fields):
        with pytest.raises(ValueError):
            run_detect(np.repeat([0.0, 2.0], 20), DetectConfig(**fields))

    @pytest.mark.parametrize("decay", [0.5, 0.99])
    def test_run_detect_accepts_every_cli_choice(self, decay):
        x = np.repeat([0.0, 3.0], 20) + np.random.default_rng(2).normal(size=40)
        for mode in ("seeded", "random"):
            for selection in ("greedy", "not"):
                for ic in ("none", "constant", "bic", "ssic"):
                    config = DetectConfig(
                        decay=decay, interval_mode=mode, random_count=50, selection=selection, ic=ic
                    )
                    assert run_detect(x, config)["config"]["selection"] == selection

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--min-length", "9"], "min_length must lie in [2, 8], got 9"),
            (["--min-length", "9", "--intervals", "random"], "min_length must lie in [2, 8]"),
            (["--intervals", "random", "--random-count", "0"], "random_count must be"),
            (["--intervals", "random", "--random-count", "-2"], "random_count must be"),
            (["--random-count", "0"], "random_count must be finite and >= 1"),  # unused if seeded
        ],
    )
    def test_bad_interval_system_exit_2(self, tmp_path, capsys, flags, message):
        data = tmp_path / "x.csv"
        data.write_text("0\n" * 4 + "5\n" * 4)
        rc, out, err = run_main(["detect", "--input", str(data), *flags], capsys)
        assert rc == 2
        assert out == ""
        assert message in err

    def test_zero_threshold_and_sigma_accepted(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("0\n" * 4 + "5\n" * 4)
        rc, out, _ = run_main(
            ["detect", "--input", str(data), "--threshold", "0", "--sigma", "0"], capsys
        )
        assert rc == 0
        result = json.loads(out)
        assert result["threshold"] == 0.0
        assert result["sigma_hat"] == 0.0
        assert 4 in result["changepoints"]

    @pytest.mark.parametrize("values", [[0.0] * 50 + [1.0] * 50 + [3.0] * 50, [3.0] * 8])
    @pytest.mark.parametrize("flags", [["--ic", "none"], ["--ic", "none", "--sigma", "0"]])
    def test_auto_threshold_with_zero_noise_scale_exit_2(self, tmp_path, capsys, values, flags):
        # an automatic threshold of 0 would accept CUSUM rounding noise
        data = tmp_path / "x.csv"
        data.write_text("".join(f"{v}\n" for v in values))
        rc, out, err = run_main(["detect", "--input", str(data), *flags], capsys)
        assert rc == 2
        assert out == ""
        assert "noise scale is 0" in err
        assert "give a threshold or a positive sigma" in err

    @pytest.mark.filterwarnings("ignore:ssic is degenerate")
    def test_auto_threshold_with_zero_noise_scale_library(self):
        x = np.repeat([0.0, 1.0, 3.0], 50)
        with pytest.raises(ValueError, match="noise scale is 0"):
            run_detect(x, DetectConfig(ic="none"))
        with pytest.raises(ValueError, match="noise scale is 0"):
            run_detect(x, DetectConfig(ic="none", sigma=0.0, selection="not"))
        assert run_detect(x, DetectConfig(ic="none", sigma=0.1))["changepoints"] == [50, 100]
        assert run_detect(x, DetectConfig(ic="none", threshold=1.0))["changepoints"] == [50, 100]
        for ic in ("constant", "bic", "ssic"):
            assert run_detect(x, DetectConfig(ic=ic))["changepoints"] == [50, 100]

    @pytest.mark.parametrize("ic", ["constant", "bic", "ssic"])
    def test_threshold_under_ic_exit_2(self, tmp_path, capsys, ic):
        data = tmp_path / "x.csv"
        data.write_text("".join(f"{i}\n" for i in range(1, 9)))
        rc, out, err = run_main(
            ["detect", "--input", str(data), "--threshold", "2.5", "--ic", ic], capsys
        )
        assert rc == 2
        assert out == ""
        assert "a fixed threshold needs ic='none'" in err

    def test_threshold_under_ic_library(self):
        x = np.repeat([0.0, 2.0, -1.0], 120) + np.random.default_rng(0).standard_normal(360)
        for config in (
            DetectConfig(threshold=50.0),  # ic defaults to ssic
            DetectConfig(threshold=1.0, ic="bic", selection="not"),
            DetectConfig(threshold=0.0, ic="constant"),
        ):
            with pytest.raises(ValueError, match="a fixed threshold needs ic='none'"):
                run_detect(x, config)
        result = run_detect(x, DetectConfig(threshold=50.0, ic="none"))
        assert result["changepoints"] == []
        assert result["threshold"] == 50.0

    def test_stdin(self):
        # the child process imports the same seedseg as this one
        path = [str(Path(seedseg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "seedseg.cli", "detect", "--threshold", "0.5"],
            input="0\n0\n1\n1\n",
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["changepoints"] == [2]

    def test_random_intervals_mode(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(size=50), rng.normal(loc=5, size=50)])
        data.write_text("\n".join(map(str, x)) + "\n")
        rc, out, _ = run_main(
            [
                "detect", "--input", str(data), "--intervals", "random",
                "--random-count", "200", "--seed", "7",
            ],
            capsys,
        )
        assert rc == 0
        result = json.loads(out)
        assert any(abs(c - 50) <= 2 for c in result["changepoints"])
        assert result["ic"]["kind"] == "ssic"

    def test_not_selection_with_ic(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        x = [0.0] * 30 + [6.0] * 30
        data.write_text("\n".join(map(str, x)) + "\n")
        rc, out, _ = run_main(
            ["detect", "--input", str(data), "--selection", "not", "--ic", "bic"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["changepoints"] == [30]

    def test_detect_never_reports_out_of_range_or_duplicates(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = tmp_path / "x.csv"
        x = rng.normal(size=300) + np.repeat([0.0, 3.0, -2.0], 100)
        data.write_text("\n".join(map(str, x)) + "\n")
        rc, out, _ = run_main(["detect", "--input", str(data)], capsys)
        cps = json.loads(out)["changepoints"]
        assert rc == 0
        assert cps == sorted(set(cps))
        assert all(1 <= c <= 299 for c in cps)


# multiples of 2^-10 in +-10^6: scaling them by 2^p, p in -3..5, is exact
DYADIC = st.integers(-(10**6) * 2**10, 10**6 * 2**10).map(lambda k: k * 2.0**-10)
ALL_CONFIGS = [
    DetectConfig(interval_mode=mode, random_count=20, selection=selection, ic=ic)
    for mode, selection, ic in itertools.product(
        ("seeded", "random"), ("greedy", "not"), ("none", "constant", "bic", "ssic")
    )
]


def _detect_or_none(x, config):
    """run_detect's result, or None when it refuses a zero noise scale."""
    try:
        return run_detect(x, config)
    except ValueError as exc:
        assert "noise scale is 0" in str(exc)
        return None


class TestDetectProperties:
    @pytest.mark.parametrize("selection,max_length", [("greedy", 200), ("not", 100)])
    @pytest.mark.parametrize("mode", ["auto", "fixed", "bic"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_power_of_two_scaling_is_exact(self, selection, max_length, mode, data):
        length = data.draw(st.integers(2, max_length))
        x = np.array(data.draw(st.lists(DYADIC, min_size=length, max_size=length)))
        scale = 2.0 ** data.draw(st.integers(-3, 5))
        config = DetectConfig(selection=selection, ic="bic" if mode == "bic" else "none")
        scaled = config
        if mode == "fixed":
            config = replace(config, threshold=abs(data.draw(DYADIC)))
            scaled = replace(config, threshold=config.threshold * scale)
        a = _detect_or_none(x, config)
        b = _detect_or_none(x * scale, scaled)
        assert (a is None) == (b is None)
        if a is None:
            return
        assert b["changepoints"] == a["changepoints"]
        assert b["gains"] == [g * scale for g in a["gains"]]
        assert b["threshold"] == a["threshold"] * scale
        assert b["sigma_hat"] == a["sigma_hat"] * scale
        if mode == "bic":
            assert b["ic"]["score"] == a["ic"]["score"] * scale**2

    @pytest.mark.parametrize("selection,length", [("greedy", 200), ("not", 100)])
    def test_power_of_two_scaling_keeps_ssic_changepoints(self, selection, length):
        # ssic's log term is not exact under scaling, so only fixed inputs
        config = DetectConfig(selection=selection)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            mean = np.repeat(rng.normal(scale=3.0, size=5), length // 5)
            x = np.round((mean + rng.standard_normal(length)) * 2**10) * 2.0**-10
            want = run_detect(x, config)["changepoints"]
            for p in (-3, -1, 2, 5):
                assert run_detect(x * 2.0**p, config)["changepoints"] == want

    @pytest.mark.filterwarnings("ignore:ssic is degenerate")
    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=4))
    def test_tiny_inputs_give_a_valid_result_or_the_noise_scale_error(self, x):
        sigma_hat = estimate_noise_sd(x)
        for config in ALL_CONFIGS:
            result = _detect_or_none(x, config)
            assert (result is None) == (config.ic == "none" and sigma_hat == 0)
            if result is None:
                continue
            cps = result["changepoints"]
            assert cps == sorted(set(cps))
            assert all(1 <= c < len(x) for c in cps)
            assert len(result["gains"]) == len(cps)
            assert all(math.isfinite(g) and g >= 0 for g in result["gains"])
            assert math.isfinite(result["threshold"]) and result["threshold"] >= 0
            assert result["sigma_hat"] == sigma_hat
            assert (result["ic"] is None) == (config.ic == "none")


class TestSimulateCommand:
    def test_zero_noise_equals_signal(self, toy_spec_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc, _, _ = run_main(
            [
                "simulate", "--spec", str(toy_spec_path), "--sigma", "0",
                "--reps", "1", "--seed", "4", "--out", str(out_dir),
            ],
            capsys,
        )
        assert rc == 0
        values = [float(v) for v in (out_dir / "rep_0.csv").read_text().split()]
        assert values == [0.0] * 30 + [4.0] * 30
        truth = json.loads((out_dir / "truth.json").read_text())
        assert truth["changepoints"] == [30]
        assert truth["T"] == 60

    def test_deterministic(self, toy_spec_path, tmp_path, capsys):
        dirs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            rc, _, _ = run_main(
                [
                    "simulate", "--spec", str(toy_spec_path), "--sigma", "1.0",
                    "--reps", "3", "--seed", "11", "--out", str(out_dir),
                ],
                capsys,
            )
            assert rc == 0
            dirs.append(out_dir)
        for i in range(3):
            assert (dirs[0] / f"rep_{i}.csv").read_text() == (dirs[1] / f"rep_{i}.csv").read_text()
        assert sorted(p.name for p in dirs[0].iterdir()) == [
            "rep_0.csv", "rep_1.csv", "rep_2.csv", "truth.json",
        ]

    def test_bundled_name_and_repeat(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        rc, _, _ = run_main(
            [
                "simulate", "--spec", "blocks", "--sigma", "0", "--reps", "1",
                "--repeat", "5", "--out", str(out_dir),
            ],
            capsys,
        )
        assert rc == 0
        truth = json.loads((out_dir / "truth.json").read_text())
        assert truth["T"] == 10_240
        assert len(truth["changepoints"]) == 55

    def test_unknown_spec_path(self, tmp_path, capsys):
        rc, _, err = run_main(
            ["simulate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert rc == 2


class TestBenchCommand:
    def test_method_parsing(self):
        methods = parse_methods("seeded:0.5,seeded:0.7071,random:100")
        assert methods == [
            BenchMethod("seeded", 0.5),
            BenchMethod("seeded", 0.7071),
            BenchMethod("random", 100),
        ]

    @pytest.mark.parametrize("bad", ["wild:3", "seeded", "random:0", ""])
    def test_bad_method_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_methods(bad)

    def test_csv_schema_and_determinism(self, toy_spec_path, tmp_path, capsys):
        args = [
            "bench", "--spec", str(toy_spec_path),
            "--methods", "seeded:0.5,random:50",
            "--reps", "3", "--seed", "2", "--sigma", "1.0",
            "--out", str(tmp_path / "r.csv"),
        ]
        rc, _, _ = run_main(args, capsys)
        assert rc == 0
        first = (tmp_path / "r.csv").read_text()
        lines = first.strip().splitlines()
        assert lines[0] == "method,param,rep,mse,hausdorff,vmeasure,count_error,total_length,time_ms"
        assert len(lines) == 1 + 2 * 3
        rc, _, _ = run_main(args, capsys)
        second = (tmp_path / "r.csv").read_text()

        def strip_time(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_time(first) == strip_time(second)

    def test_noiseless_strong_signal_exact(self, toy_spec_path, capsys):
        rc, out, _ = run_main(
            [
                "bench", "--spec", str(toy_spec_path),
                "--methods", "seeded:0.5,seeded:0.70710678,random:100",
                "--reps", "1", "--sigma", "0", "--ic", "constant", "--alpha", "1.0",
            ],
            capsys,
        )
        assert rc == 0
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[3]) == 0.0  # mse
            assert int(fields[6]) == 0      # count_error

    def test_summary_shape(self, toy_spec_path, capsys):
        rc, out, _ = run_main(
            [
                "bench", "--spec", str(toy_spec_path), "--methods", "seeded:0.5",
                "--reps", "4", "--sigma", "0.5", "--summary",
                "--out", "/dev/null",
            ],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,param,n,mse_mean,mse_sd")
        assert lines[1].startswith("seeded,0.5,4,")

    def test_equal_adjacent_levels_spec_exit_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(
            json.dumps(
                {"name": "x", "T": 30, "changepoints": [10, 20],
                 "levels": [0.0, 0.0, 1.0], "repeat": 1}
            )
        )
        rc, out, err = run_main(["bench", "--spec", str(path), "--reps", "1"], capsys)
        assert rc == 2
        assert out == ""
        assert "adjacent levels must differ" in err

    def test_oracle_requires_additive_ic(self, toy_spec_path, capsys):
        rc, _, err = run_main(
            [
                "bench", "--spec", str(toy_spec_path), "--methods", "seeded:0.5",
                "--reps", "1", "--oracle",
            ],
            capsys,
        )
        assert rc == 2
        assert "additive" in err

    def test_oracle_rows(self, toy_spec_path, capsys):
        rc, out, _ = run_main(
            [
                "bench", "--spec", str(toy_spec_path), "--methods", "seeded:0.5",
                "--reps", "2", "--sigma", "0.5", "--ic", "bic", "--oracle",
            ],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith(",ic_score")
        oracle_lines = [l for l in lines[1:] if l.startswith("oracle,dp,")]
        assert len(oracle_lines) == 2
        # oracle criterion score is a lower bound per rep
        for rep in (0, 1):
            scores = {
                l.split(",")[0]: float(l.split(",")[-1])
                for l in lines[1:]
                if int(l.split(",")[2]) == rep
            }
            assert scores["oracle"] <= scores["seeded"] + 1e-9

    def test_parallel_jobs_same_rows(self, toy_spec_path, tmp_path, capsys):
        outs = []
        for jobs, name in (("1", "a.csv"), ("2", "b.csv")):
            rc, _, _ = run_main(
                [
                    "bench", "--spec", str(toy_spec_path), "--methods", "seeded:0.5",
                    "--reps", "4", "--sigma", "1.0", "--jobs", jobs,
                    "--out", str(tmp_path / name),
                ],
                capsys,
            )
            assert rc == 0
            outs.append((tmp_path / name).read_text())

        def strip_time(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_time(outs[0]) == strip_time(outs[1])


class TestRunDetectApi:
    def test_detect_config_defaults(self):
        cfg = DetectConfig()
        assert cfg.decay == pytest.approx(2 ** -0.5)
        assert cfg.min_length == 2
        assert cfg.selection == "greedy"
        assert cfg.ic == "ssic"

    @pytest.mark.parametrize(
        "fields,used",
        [
            ({"ic": "ssic"}, False),
            ({"ic": "bic"}, False),
            ({"ic": "constant"}, False),
            ({"ic": "none", "threshold": 2.0}, False),
            ({"ic": "none"}, True),  # the automatic threshold
        ],
    )
    def test_threshold_scale_echoed_only_when_used(self, fields, used):
        x = np.repeat([0.0, 3.0], 20) + np.random.default_rng(2).normal(size=40)
        echo = run_detect(x, DetectConfig(threshold_scale=2.0, **fields))["config"]
        assert echo["threshold_scale"] == (2.0 if used else None)

    def test_run_detect_short_series(self):
        with pytest.raises(ValueError):
            run_detect([1.0], DetectConfig())

    def test_run_bench_rows(self):
        spec = SignalSpec("step", 40, (20,), (0.0, 5.0), 1)
        rows = run_bench(
            spec, parse_methods("seeded:0.5"), reps=2, seed=1, sigma=0.5,
        )
        assert [(r["method"], r["rep"]) for r in rows] == [("seeded", 0), ("seeded", 1)]
        csv_text = bench_rows_to_csv(rows, with_ic=False)
        assert csv_text.splitlines()[0].count(",") == 8
        summary = summarize_bench(rows)
        assert summary.splitlines()[1].startswith("seeded,0.5,2,")

    def test_run_detect_deterministic_modulo_timing(self):
        rng = np.random.default_rng(5)
        x = np.repeat([0.0, 4.0], 60) + rng.standard_normal(120)
        a = run_detect(x, DetectConfig())
        b = run_detect(x, DetectConfig())
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b
