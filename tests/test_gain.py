import math

import numpy as np
import pytest

from seedseg.gain import best_splits_arrays, cusum, prefix_sums
from seedseg.intervals import SeededParams, random_interval_arrays, seeded_interval_arrays


def reference_best_split(ps, left, right):
    """Per-interval reference: argmax |cusum| over the interior, smallest split on ties."""
    splits = np.arange(left + 1, right)
    values = np.abs(cusum(ps, left, right, splits))
    return int(splits[np.argmax(values)]), float(values.max())


def best_split(ps, left, right):
    splits, gains = best_splits_arrays(ps, [left], [right])
    return int(splits[0]), float(gains[0])


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

    def test_arrays_read_only(self):
        ps = prefix_sums([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.sums[0] = 5.0

    @pytest.mark.parametrize("x", [np.random.default_rng(1).normal(size=40), [2.3] * 40])
    def test_segment_rss_array_form_matches_scalar(self, x):
        ps = prefix_sums(x)
        lo, hi = np.triu_indices(41, k=1)  # every segment, length-1 ones included
        got = ps.segment_rss(lo, hi)
        assert got.tolist() == [ps.segment_rss(int(a), int(b)) for a, b in zip(lo, hi)]
        assert isinstance(ps.segment_rss(0, 40), float)
        s, q = ps.sums[hi] - ps.sums[lo], ps.sq_sums[hi] - ps.sq_sums[lo]
        below = q - s * s / (hi - lo) < 0.0  # cancellation below zero
        assert got.min() >= 0.0 and not got[below].any()
        if len(set(x)) == 1:
            assert below.any()


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
        assert best_split(ps, 0, 4) == (2, pytest.approx(1.0))

    def test_constant_tie_break_smallest(self):
        ps = prefix_sums([3.0] * 6)
        assert best_split(ps, 0, 4) == (1, 0.0)

    def test_uneven(self):
        ps = prefix_sums([1, 1, 1, 5])
        assert best_split(ps, 0, 4) == (3, pytest.approx(2 * math.sqrt(3)))

    def test_noiseless_single_step_recovered_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            T = int(rng.integers(6, 80))
            eta = int(rng.integers(2, T - 1))
            x = np.where(np.arange(T) < eta, 0.0, 3.0)
            ps = prefix_sums(x)
            split, gain = best_split(ps, 0, T)
            assert split == eta
            assert gain > 0


class TestEvaluateAll:
    """``best_splits_arrays`` over whole interval collections."""

    def test_empty(self):
        ps = prefix_sums([1.0, 2.0])
        splits, gains = best_splits_arrays(ps, [], [])
        assert splits.tolist() == [] and gains.tolist() == []

    def test_single(self):
        ps = prefix_sums([0, 0, 1, 1])
        splits, gains = best_splits_arrays(ps, [0], [4])
        assert (splits.tolist(), gains.tolist()) == ([2], [reference_best_split(ps, 0, 4)[1]])

    def test_matches_sequential_oracle_on_seeded(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=64)
        ps = prefix_sums(x)
        iv = seeded_interval_arrays(SeededParams(64, 0.5, 2))
        splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
        assert len(splits) == len(gains) == len(iv)
        for l, r, s, g in zip(iv.lefts, iv.rights, splits, gains):
            assert (s, g) == reference_best_split(ps, int(l), int(r))

    def test_grouped_arrays_equal_per_interval(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        ps = prefix_sums(x)
        for iv in (
            seeded_interval_arrays(SeededParams(300, 0.7, 2)),
            random_interval_arrays(300, 200, 2, seed=9),  # unsorted, mixed lengths
        ):
            splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
            for l, r, s, g in zip(iv.lefts, iv.rights, splits, gains):
                assert (s, g) == reference_best_split(ps, int(l), int(r))
