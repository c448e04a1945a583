import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seedseg.gain as gain_module
from seedseg.gain import best_splits_arrays, cusum, prefix_sums
from seedseg.intervals import (
    DEFAULT_DECAY,
    SeededParams,
    random_interval_arrays,
    seeded_interval_arrays,
)
from seedseg.oracle import naive_cusum


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


class TestBlocking:
    """Row blocks bound the temporaries and never change a split or a gain."""

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.integers(2, 300),
        a=st.floats(0.5, 0.99),
        count=st.integers(1, 200),
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_matches_reference_and_default(self, T, a, count, tied, seed):
        rng = np.random.default_rng(seed)
        # small integers give exact ties, which must still go to the smallest split
        x = rng.integers(-2, 3, size=T).astype(float) if tied else rng.normal(size=T)
        ps = prefix_sums(x)
        for iv in (
            seeded_interval_arrays(SeededParams(T, a, 2)),
            random_interval_arrays(T, count, 2, seed=seed),
        ):
            splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
            want = [reference_best_split(ps, l, r) for l, r in zip(iv.lefts.tolist(), iv.rights.tolist())]
            assert np.array_equal(splits, [s for s, _ in want])
            assert np.array_equal(gains, [g for _, g in want])
            for block in (1, 2, 3, 7):
                with mock.patch.object(gain_module, "_BLOCK", block):
                    blocked = best_splits_arrays(ps, iv.lefts, iv.rights)
                assert np.array_equal(blocked[0], splits)
                assert np.array_equal(blocked[1], gains)

    def test_group_spanning_blocks(self):
        # 2,901 intervals of length 100: 330 rows per block at the default
        # size, so eight full blocks and a partial ninth
        n, count = 100, 2901
        rows = gain_module._BLOCK // (n - 1)
        assert count > rows and count % rows != 0
        x = np.random.default_rng(11).normal(size=3000)
        ps = prefix_sums(x)
        lefts = np.arange(count)
        splits, gains = best_splits_arrays(ps, lefts, lefts + n)
        for l, s, g in zip(lefts.tolist(), splits.tolist(), gains.tolist()):
            assert (s, g) == reference_best_split(ps, l, l + n)


class TestColumns:
    def test_not_1d_rejected(self):
        ps = prefix_sums(np.arange(10.0))
        with pytest.raises(ValueError, match="1-d"):
            best_splits_arrays(ps, [[0, 1]], [[5, 6]])
        with pytest.raises(ValueError, match="1-d"):
            best_splits_arrays(ps, 0, 5)

    def test_unequal_lengths_rejected(self):
        # neither broadcast to three candidates nor an IndexError
        ps = prefix_sums(np.arange(10.0))
        with pytest.raises(ValueError, match="equal length"):
            best_splits_arrays(ps, [0, 1, 2], [5])
        with pytest.raises(ValueError, match="equal length"):
            best_splits_arrays(ps, [0], [5, 6, 7])

    def test_bounds_checked_in_every_slice(self):
        ps = prefix_sums(np.arange(10.0))
        with mock.patch.object(gain_module, "_SLICE", 2):
            with pytest.raises(ValueError, match="invalid interval bounds"):
                best_splits_arrays(ps, [0, 0, 0, 3, 0], [5, 5, 5, 4, 5])


def naive_best_split(x, left, right):
    """Argmax of |cusum| by direct summation; smallest split on ties."""
    values = [abs(naive_cusum(x, left, right, s)) for s in range(left + 1, right)]
    j = int(np.argmax(values))
    return left + 1 + j, values[j]


class TestFixedWorkingSet:
    """Slices and column blocks shrunk to single digits against the direct-summation oracle."""

    @staticmethod
    def check(x, lefts, rights, block, slice_):
        ps = prefix_sums(x)
        with mock.patch.object(gain_module, "_BLOCK", block), mock.patch.object(
            gain_module, "_SLICE", slice_
        ):
            splits, gains = best_splits_arrays(ps, lefts, rights)
        default = best_splits_arrays(ps, lefts, rights)
        assert np.array_equal(splits, default[0]) and np.array_equal(gains, default[1])
        # integer data sums exactly, so the oracle's values are the same doubles
        exact = np.array_equal(x, np.round(x))
        for l, r, s, g in zip(lefts, rights, splits.tolist(), gains.tolist()):
            want_s, want_g = naive_best_split(x, int(l), int(r))
            assert s == want_s
            assert g == want_g if exact else g == pytest.approx(want_g, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(2, 120),
        a=st.floats(0.5, 0.99),
        data=st.sampled_from(["normal", "tied", "constant"]),
        block=st.integers(1, 9),
        slice_=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seeded_and_random(self, T, a, data, block, slice_, seed):
        rng = np.random.default_rng(seed)
        x = {
            "normal": lambda: rng.normal(size=T),
            "tied": lambda: rng.integers(-2, 3, size=T).astype(float),
            "constant": lambda: np.full(T, 3.0),
        }[data]()
        for iv in (
            seeded_interval_arrays(SeededParams(T, a, 2)),
            random_interval_arrays(T, 30, 2, seed=seed),
        ):
            self.check(x, iv.lefts, iv.rights, block, slice_)

    def test_group_spanning_slices(self):
        # one length-6 group cut into four slices of three, between other lengths
        lefts = np.array([0, 1, 2, 0, 3, 4, 0, 5, 6, 1, 7, 2], dtype=np.int64)
        rights = lefts + np.array([6, 6, 6, 9, 6, 6, 13, 6, 6, 4, 6, 2])
        x = np.random.default_rng(12).normal(size=13)
        self.check(x, lefts, rights, block=2, slice_=3)

    def test_tie_across_column_blocks_goes_to_smallest_split(self):
        # mirror-symmetric: |cusum| peaks exactly at splits 1 and 7, which
        # fall in the first and the third column block of three
        x = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0])
        values = [abs(naive_cusum(x, 0, 8, s)) for s in range(1, 8)]
        assert values[0] == values[6] == max(values) and values.count(max(values)) == 2
        self.check(x, np.array([0]), np.array([8]), block=3, slice_=1)
        with mock.patch.object(gain_module, "_BLOCK", 3):
            assert best_split(prefix_sums(x), 0, 8) == (1, values[0])


class TestWorkingSetMemory:
    """Above its inputs and outputs, evaluation holds a fixed few MB."""

    @pytest.mark.parametrize("T", [2**14, 2**16])
    @pytest.mark.parametrize("a", [DEFAULT_DECAY, 0.99])
    def test_evaluate_temporaries_fixed(self, T, a):
        ps = prefix_sums(np.random.default_rng(13).normal(size=T))
        iv = seeded_interval_arrays(SeededParams(T, a, 2))
        tracemalloc.start()
        try:
            splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - splits.nbytes - gains.nbytes <= 5_000_000
