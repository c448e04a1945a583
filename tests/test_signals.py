import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedseg.signals import (
    NoiseModel,
    REFERENCE_NOISE_SD,
    SignalSpec,
    SignalSpecError,
    bundled_signal_names,
    load_bundled_signal,
    load_signal_spec,
    render_signal,
    save_signal_spec,
    serialize_signal_spec,
    simulate,
    simulate_rep,
)


def toy(repeat=1):
    return SignalSpec("toy", 4, (2,), (0.0, 1.0), repeat)


LEVELS = (-2.0, -0.5, 0.0, 1.0, 2.5)


@st.composite
def valid_specs(draw):
    """Specs of 1-6 segments of length 1-5, adjacent levels distinct, repeat 1-4."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    levels = [draw(st.sampled_from(LEVELS))]
    for _ in lengths[1:]:
        levels.append(draw(st.sampled_from([v for v in LEVELS if v != levels[-1]])))
    cps = tuple(np.cumsum(lengths)[:-1].tolist())
    return SignalSpec("h", sum(lengths), cps, tuple(levels), draw(st.integers(1, 4)))


def junction_reference(spec):
    """Rendered (change points, levels) by the copy-junction rule.

    A copy contributes its shifted change points; the junction before it is
    a change point, and its first level a new segment, exactly when the last
    and first levels differ.
    """
    cps, levels = [], list(spec.levels)
    for copy in range(spec.repeat):
        offset = copy * spec.length
        if copy > 0 and spec.levels[-1] != spec.levels[0]:
            cps.append(offset)
            levels.extend(spec.levels)
        elif copy > 0:
            levels.extend(spec.levels[1:])
        cps.extend(offset + c for c in spec.changepoints)
    return tuple(cps), tuple(levels)


class TestSignalSpec:
    def test_render_basic(self):
        assert render_signal(toy()).tolist() == [0, 0, 1, 1]

    def test_render_repeat_and_junction(self):
        spec = toy(repeat=2)
        assert render_signal(spec).tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
        assert spec.rendered_changepoints() == (2, 4, 6)
        assert spec.rendered_levels() == (0.0, 1.0, 0.0, 1.0)

    def test_equal_junction_merges(self):
        spec = SignalSpec("flat-ends", 4, (1, 3), (0.0, 2.0, 0.0), repeat=2)
        assert spec.rendered_changepoints() == (1, 3, 5, 7)
        assert spec.rendered_levels() == (0.0, 2.0, 0.0, 2.0, 0.0)

    def test_validation_errors(self):
        with pytest.raises(SignalSpecError):
            SignalSpec("bad", 4, (2, 2), (0.0, 1.0, 2.0), 1)
        with pytest.raises(SignalSpecError):
            SignalSpec("bad", 4, (2,), (0.0, 1.0, 2.0), 1)
        with pytest.raises(SignalSpecError):
            SignalSpec("bad", 4, (4,), (0.0, 1.0), 1)
        with pytest.raises(SignalSpecError):
            SignalSpec("bad", 4, (2,), (0.0, 1.0), 0)

    def test_equal_adjacent_levels_rejected(self):
        # the mean shifts only at 20, so (10, 20) cannot be its truth
        with pytest.raises(SignalSpecError, match="adjacent levels must differ"):
            SignalSpec("x", 30, (10, 20), (0.0, 0.0, 1.0))
        with pytest.raises(SignalSpecError, match="adjacent levels must differ"):
            SignalSpec("x", 4, (2,), (0.0, -0.0))

    def test_derived_quantities_match_brute_force(self):
        spec = SignalSpec("z", 10, (3, 7), (0.0, 2.5, 1.0), repeat=3)
        f = render_signal(spec)
        cps = [t for t in range(1, len(f)) if f[t] != f[t - 1]]
        assert list(spec.rendered_changepoints()) == cps
        jumps = [abs(f[t] - f[t - 1]) for t in cps]
        assert list(spec.jumps()) == pytest.approx(jumps)
        assert spec.min_jump == pytest.approx(min(jumps))
        bounds = [0] + cps + [len(f)]
        assert spec.min_segment_length == min(np.diff(bounds))

    @settings(max_examples=200, deadline=None)
    @given(spec=valid_specs())
    def test_derived_quantities_match_brute_force_and_junction_rule(self, spec):
        f = render_signal(spec)
        cps = [t for t in range(1, len(f)) if f[t] != f[t - 1]]
        ref_cps, ref_levels = junction_reference(spec)
        assert spec.rendered_changepoints() == tuple(cps) == ref_cps
        assert spec.rendered_levels() == tuple(f[[0, *cps]].tolist()) == ref_levels
        assert spec.jumps() == tuple(abs(f[t] - f[t - 1]) for t in cps)
        assert spec.min_segment_length == min(np.diff([0, *cps, len(f)]))

    def test_no_changes(self):
        spec = SignalSpec("flat", 5, (), (1.5,), 1)
        assert spec.min_jump == float("inf")
        assert spec.min_segment_length == 5
        assert render_signal(spec).tolist() == [1.5] * 5


class TestSimulate:
    def test_zero_noise_is_exact(self):
        x = simulate(toy(), NoiseModel(sd=0.0, seed=9), reps=1)[0]
        assert np.array_equal(x, render_signal(toy()))

    def test_bit_identical_reruns(self):
        a = simulate(toy(), NoiseModel(sd=1.0, seed=5), reps=3)
        b = simulate(toy(), NoiseModel(sd=1.0, seed=5), reps=3)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_reps_independent(self):
        a, b = simulate(toy(), NoiseModel(sd=1.0, seed=5), reps=2)
        assert not np.array_equal(a, b)

    def test_simulate_rep_indexes_into_simulate(self):
        noise = NoiseModel(sd=2.0, seed=77)
        all_reps = simulate(toy(), noise, reps=4)
        for r in range(4):
            assert np.array_equal(simulate_rep(toy(), noise, r), all_reps[r])

    def test_sample_sd_monte_carlo(self):
        spec = SignalSpec("flat", 10_000, (), (0.0,), 1)
        ok = 0
        for r in range(100):
            x = simulate_rep(spec, NoiseModel(sd=1.0, seed=123), r)
            if 0.97 <= float(np.std(x)) <= 1.03:
                ok += 1
        assert ok >= 95

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoiseModel(sd=-1.0)
        with pytest.raises(ValueError):
            simulate(toy(), NoiseModel(), reps=0)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = SignalSpec("rt", 12, (3, 9), (0.0, 1.0, -1.0), repeat=2)
        path = tmp_path / "rt.json"
        save_signal_spec(spec, path)
        assert load_signal_spec(path) == spec
        assert render_signal(load_signal_spec(path)).tolist() == render_signal(spec).tolist()

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "T": }')
        with pytest.raises(SignalSpecError, match=r":2:"):
            load_signal_spec(path)

    def test_validation_error_mentions_file(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = serialize_signal_spec(toy())
        payload["changepoints"] = [3, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(SignalSpecError, match="bad.json"):
            load_signal_spec(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(SignalSpecError, match="missing"):
            load_signal_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SignalSpecError):
            load_signal_spec(tmp_path / "nope.json")


class TestBundledSignals:
    def test_names(self):
        assert set(bundled_signal_names()) == {"blocks", "fms", "mix", "teeth10", "stairs10"}
        assert set(REFERENCE_NOISE_SD) == set(bundled_signal_names())

    def test_blocks_has_eleven_changepoints(self):
        blocks = load_bundled_signal("blocks")
        assert blocks.length == 2048
        assert len(blocks.changepoints) == 11
        assert len(blocks.levels) == 12
        assert blocks.min_segment_length == 40

    @pytest.mark.parametrize("repeat", [1, 5])
    def test_rendered_truth_matches_junction_rule(self, repeat):
        for name in bundled_signal_names():
            spec = replace(load_bundled_signal(name), repeat=repeat)
            assert (spec.rendered_changepoints(), spec.rendered_levels()) == junction_reference(spec)

    def test_blocks_repeated_five_times(self):
        blocks5 = replace(load_bundled_signal("blocks"), repeat=5)
        assert blocks5.rendered_length == 10_240
        assert len(blocks5.rendered_changepoints()) == 55

    @pytest.mark.parametrize(
        "name,length,n_cps",
        [("fms", 497, 6), ("mix", 560, 13), ("teeth10", 140, 13), ("stairs10", 150, 14)],
    )
    def test_other_signals(self, name, length, n_cps):
        spec = load_bundled_signal(name)
        assert spec.length == length
        assert len(spec.changepoints) == n_cps
        assert len(spec.levels) == n_cps + 1
