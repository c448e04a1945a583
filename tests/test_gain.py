import math

import numpy as np
import pytest

from seedseg.gain import (
    Candidate,
    CusumGainEvaluator,
    best_split,
    best_split_bounds,
    best_splits_arrays,
    cusum,
    evaluate_all,
    prefix_sums,
)
from seedseg.intervals import Interval, SeededParams, seeded_interval_arrays, seeded_intervals


class TestPrefixSums:
    def test_basic(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert ps.sums.tolist() == [0, 0, 0, 1, 2]
        assert ps.sq_sums.tolist() == [0, 0, 0, 1, 2]
        assert ps.length == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prefix_sums([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            prefix_sums([1.0, np.nan])
        with pytest.raises(ValueError):
            prefix_sums([1.0, np.inf])

    def test_total_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(1, 200)))
            ps = prefix_sums(x)
            assert ps.sums[-1] == pytest.approx(float(np.sum(x)), rel=1e-12)

    def test_compensated_agrees(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500) * 1e6
        a = prefix_sums(x)
        b = prefix_sums(x, compensated=True)
        np.testing.assert_allclose(a.sums, b.sums, rtol=1e-9, atol=1e-3)

    def test_arrays_read_only(self):
        ps = prefix_sums([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.sums[0] = 5.0


class TestCusum:
    def test_constant_series_zero(self):
        ps = prefix_sums([2.5] * 8)
        for s in range(1, 8):
            assert cusum(ps, 0, 8, s) == pytest.approx(0.0, abs=1e-12)

    def test_step_example(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert cusum(ps, 0, 4, 2) == pytest.approx(-1.0)

    def test_uneven_example(self):
        ps = prefix_sums([1, 1, 1, 5])
        assert cusum(ps, 0, 4, 3) == pytest.approx(-2 * math.sqrt(3))

    def test_split_range_errors(self):
        ps = prefix_sums([0, 0, 1, 1])
        with pytest.raises(ValueError):
            cusum(ps, 0, 4, 0)
        with pytest.raises(ValueError):
            cusum(ps, 0, 4, 4)
        with pytest.raises(ValueError):
            cusum(ps, 2, 3, 2)  # length-1 interval

    def test_antisymmetric_under_negation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        a, b = prefix_sums(x), prefix_sums(-x)
        for _ in range(50):
            l = int(rng.integers(0, 50))
            r = int(rng.integers(l + 2, 61))
            s = int(rng.integers(l + 1, r))
            assert cusum(b, l, r, s) == pytest.approx(-cusum(a, l, r, s), rel=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        for shift in (1.0, -17.5, 1e6):
            a, b = prefix_sums(x), prefix_sums(x + shift)
            for _ in range(30):
                l = int(rng.integers(0, 50))
                r = int(rng.integers(l + 2, 61))
                s = int(rng.integers(l + 1, r))
                assert cusum(b, l, r, s) == pytest.approx(
                    cusum(a, l, r, s), rel=1e-6, abs=1e-6
                )

    def test_gain_rss_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        ps = prefix_sums(x)
        for _ in range(300):
            l = int(rng.integers(0, 90))
            r = int(rng.integers(l + 2, 101))
            s = int(rng.integers(l + 1, r))
            value = cusum(ps, l, r, s)
            reduction = ps.segment_rss(l, r) - ps.segment_rss(l, s) - ps.segment_rss(s, r)
            assert value * value == pytest.approx(reduction, rel=1e-9, abs=1e-9)

    def test_vectorised_splits(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        ps = prefix_sums(x)
        splits = np.arange(3, 20)
        vals = cusum(ps, 2, 25, splits)
        for s, v in zip(splits, vals):
            assert v == pytest.approx(cusum(ps, 2, 25, int(s)))


class TestBestSplit:
    def test_step(self):
        ps = prefix_sums([0, 0, 1, 1])
        cand = best_split(ps, Interval(0, 4, 1))
        assert (cand.split, cand.gain) == (2, pytest.approx(1.0))

    def test_constant_tie_break_smallest(self):
        ps = prefix_sums([3.0] * 6)
        cand = best_split(ps, Interval(0, 4, 1))
        assert cand.split == 1
        assert cand.gain == 0.0

    def test_uneven(self):
        ps = prefix_sums([1, 1, 1, 5])
        cand = best_split(ps, Interval(0, 4, 1))
        assert cand.split == 3
        assert cand.gain == pytest.approx(2 * math.sqrt(3))

    def test_noiseless_single_step_recovered_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            T = int(rng.integers(6, 80))
            eta = int(rng.integers(2, T - 1))
            x = np.where(np.arange(T) < eta, 0.0, 3.0)
            ps = prefix_sums(x)
            split, gain = best_split_bounds(ps, 0, T)
            assert split == eta
            assert gain > 0

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            Candidate(interval=Interval(0, 4, 1), split=4, gain=1.0)
        with pytest.raises(ValueError):
            Candidate(interval=Interval(0, 4, 1), split=2, gain=-0.5)


class TestEvaluateAll:
    def test_empty(self):
        ps = prefix_sums([1.0, 2.0])
        assert evaluate_all(ps, []) == []

    def test_single(self):
        ps = prefix_sums([0, 0, 1, 1])
        iv = Interval(0, 4, 1)
        assert evaluate_all(ps, [iv]) == [best_split(ps, iv)]

    def test_matches_sequential_oracle_on_seeded(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=64)
        ps = prefix_sums(x)
        ivs = seeded_intervals(SeededParams(64, 0.5, 2))
        got = evaluate_all(ps, ivs)
        assert [c.interval for c in got] == ivs  # input order preserved
        for cand in got:
            split, gain = best_split_bounds(ps, cand.interval.left, cand.interval.right)
            assert cand.split == split
            assert cand.gain == pytest.approx(gain, rel=1e-12)

    def test_grouped_arrays_equal_per_interval(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        ps = prefix_sums(x)
        arr = seeded_interval_arrays(SeededParams(300, 0.7, 2))
        splits, gains = best_splits_arrays(ps, arr.lefts, arr.rights)
        for l, r, s, g in zip(arr.lefts, arr.rights, splits, gains):
            s2, g2 = best_split_bounds(ps, int(l), int(r))
            assert s == s2
            assert g == pytest.approx(g2, rel=1e-12)

    def test_custom_evaluator_contract(self):
        class MidpointEvaluator:
            def best_split(self, left, right):
                return (left + right) // 2 if right - left > 1 else left + 1, float(right - left)

        ps = prefix_sums([0.0] * 10)
        ivs = [Interval(0, 4, 1), Interval(2, 9, 1)]
        cands = evaluate_all(ps, ivs, evaluator=MidpointEvaluator())
        assert [(c.split, c.gain) for c in cands] == [(2, 4.0), (5, 7.0)]

    def test_cusum_evaluator_matches_default(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=50)
        ps = prefix_sums(x)
        ivs = seeded_intervals(SeededParams(50, 0.5, 2))
        via_protocol = evaluate_all(ps, ivs, evaluator=CusumGainEvaluator(ps))
        assert via_protocol == evaluate_all(ps, ivs)
