import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedseg.gain import best_splits_arrays, prefix_sums
from seedseg.intervals import (
    DEFAULT_DECAY,
    IntervalArrays,
    SeededParams,
    num_layers,
    random_interval_arrays,
    seeded_interval_arrays,
    total_interval_length,
)


def by_layer(arrays):
    out = {}
    for layer, left, right in zip(arrays.layers.tolist(), arrays.lefts.tolist(), arrays.rights.tolist()):
        out.setdefault(layer, []).append((left, right))
    return out


def global_unique_reference(params):
    """Every layer materialised first, then one global first-occurrence dedup."""
    T, a, m = params.length, params.decay, params.min_length
    lefts_parts, rights_parts, layer_parts = [], [], []
    for k in range(1, num_layers(T, a) + 1):
        count = 2 * math.ceil((1.0 / a) ** (k - 1)) - 1
        nominal = T * a ** (k - 1)
        shift = (T - nominal) / (count - 1) if count > 1 else 0.0
        if math.ceil(nominal) + 1 < m:
            break
        starts = np.arange(count) * shift
        lefts = np.floor(starts).astype(np.int64)
        rights = np.minimum(np.ceil(starts + nominal).astype(np.int64), T)
        keep = rights - lefts >= m
        lefts_parts.append(lefts[keep])
        rights_parts.append(rights[keep])
        layer_parts.append(np.full(int(keep.sum()), k, dtype=np.int64))
    lefts = np.concatenate(lefts_parts)
    rights = np.concatenate(rights_parts)
    layers = np.concatenate(layer_parts)
    _, first = np.unique(lefts * np.int64(T + 1) + rights, return_index=True)
    first.sort()
    return IntervalArrays(lefts[first], rights[first], layers[first])


def interval_arrays(*pairs):
    lefts = np.array([l for l, _ in pairs], dtype=np.int64)
    rights = np.array([r for _, r in pairs], dtype=np.int64)
    return IntervalArrays(lefts, rights, np.ones(len(pairs), dtype=np.int64))


class TestIntervalType:
    """An interval ``(left, right]`` is checked where it is evaluated."""

    def test_valid(self):
        iv = interval_arrays((0, 10))
        assert len(iv) == 1
        assert total_interval_length(iv) == 10
        splits, _ = best_splits_arrays(prefix_sums(np.arange(10.0)), iv.lefts, iv.rights)
        assert 0 < splits[0] < 10

    @pytest.mark.parametrize("left,right", [(5, 5), (5, 3), (-1, 4), (3, 4), (0, 11)])
    def test_invalid(self, left, right):
        iv = interval_arrays((0, 10), (left, right))
        with pytest.raises(ValueError):
            best_splits_arrays(prefix_sums(np.zeros(10)), iv.lefts, iv.rights)


class TestSeededParams:
    @pytest.mark.parametrize("kwargs", [
        dict(length=1), dict(length=10, decay=0.4), dict(length=10, decay=1.0),
        dict(length=10, min_length=1), dict(length=10, min_length=11),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SeededParams(**kwargs)


class TestSeededIntervals:
    def test_layers_one_two(self):
        layers = by_layer(seeded_interval_arrays(SeededParams(10, 0.5, 2)))
        assert layers[1] == [(0, 10)]
        assert layers[2] == [(0, 5), (2, 8), (5, 10)]

    def test_layer_three(self):
        layers = by_layer(seeded_interval_arrays(SeededParams(10, 0.5, 2)))
        assert layers[3] == [(0, 3), (1, 4), (2, 5), (3, 7), (5, 8), (6, 9), (7, 10)]

    def test_layer_four_survivors(self):
        layers = by_layer(seeded_interval_arrays(SeededParams(10, 0.5, 2)))
        assert layers[4] == [
            (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10)
        ]

    def test_no_duplicates_and_sorted(self):
        iv = seeded_interval_arrays(SeededParams(300, 0.8, 2))
        pairs = list(zip(iv.lefts.tolist(), iv.rights.tolist()))
        assert len(pairs) == len(set(pairs))
        keys = list(zip(iv.layers.tolist(), iv.lefts.tolist(), iv.rights.tolist()))
        assert keys == sorted(keys)

    def test_min_length_filter(self):
        iv = seeded_interval_arrays(SeededParams(100, 0.5, 7))
        assert np.all(iv.rights - iv.lefts >= 7)

    def test_determinism(self):
        p = SeededParams(523, 0.77, 3)
        a, b = seeded_interval_arrays(p), seeded_interval_arrays(p)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_table_total_length_sqrt_half(self):
        tot = total_interval_length(seeded_interval_arrays(SeededParams(2048, DEFAULT_DECAY, 2)))
        assert abs(tot / 95_300 - 1) <= 0.02

    def test_near_linear_bound_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            T = int(rng.integers(2, 20_001))
            a = float(rng.uniform(0.5, 0.95))
            arr = seeded_interval_arrays(SeededParams(T, a, 2))
            assert total_interval_length(arr) <= 6 * T * num_layers(T, a)

    def test_lowest_layer_count_order_T(self):
        # the finest scale is searched at order T places: at least T/4
        # intervals of length <= 3
        for T in (16, 50, 181, 700):
            for a in (0.5, DEFAULT_DECAY, 0.85, 0.94):
                iv = seeded_interval_arrays(SeededParams(T, a, 2))
                assert np.sum(iv.rights - iv.lefts <= 3) >= T / 4

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(2, 3000),
        a=st.floats(0.5, 0.999),
        m=st.integers(2, 9),
    )
    def test_matches_the_paper_layout(self, T, a, m):
        m = min(m, T)
        # layer k: n_k intervals (floor(i s_k), ceil(i s_k + l_k)] clipped to
        # T, those covering at least m observations kept, repeats dropped
        want, seen = [], set()
        for k in range(1, num_layers(T, a) + 1):
            n_k = 2 * math.ceil((1 / a) ** (k - 1)) - 1
            l_k = T * a ** (k - 1)
            s_k = (T - l_k) / (n_k - 1) if n_k > 1 else 0.0
            for i in range(n_k):
                left = math.floor(i * s_k)
                right = min(math.ceil(i * s_k + l_k), T)
                if right - left >= m and (left, right) not in seen:
                    seen.add((left, right))
                    want.append((k, left, right))
        iv = seeded_interval_arrays(SeededParams(T, a, m))
        assert all(col.dtype == np.int64 for col in iv)
        assert list(zip(iv.layers.tolist(), iv.lefts.tolist(), iv.rights.tolist())) == want

    @pytest.mark.parametrize("a", [0.5, DEFAULT_DECAY, 2 ** -0.125, 0.9, 0.99])
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_matches_global_unique_reference(self, a, m):
        lengths = [*range(m, 70), 100, 181, 257, 1000, 1025, 4095, 2**12, 2**13, 2**14]
        for T in lengths:
            got = seeded_interval_arrays(SeededParams(T, a, m))
            want = global_unique_reference(SeededParams(T, a, m))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (T, a, m)

    @pytest.mark.parametrize("T,a", [(2**15, 0.99), (2**16, DEFAULT_DECAY)])
    def test_peak_memory_bounded_by_output(self, T, a):
        tracemalloc.start()
        try:
            iv = seeded_interval_arrays(SeededParams(T, a, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(col.nbytes for col in iv)

    def test_coverage_of_single_change_windows(self):
        # every window (c - lam, c + lam], lam >= 2, contains a seeded
        # interval of length >= a^2 lam whose center is within
        # (1 + a^2)/2 half-lengths of c (rounding makes lam = 1 impossible:
        # at T=7, a=1/2 no layer produces (1, 3])
        for T in (16, 37, 128):
            for a in (0.5, DEFAULT_DECAY, 0.9):
                arr = seeded_interval_arrays(SeededParams(T, a, 2))
                lens = arr.rights - arr.lefts
                mids = (arr.lefts + arr.rights) / 2.0
                for lam in range(2, T // 2 + 1):
                    for c in range(lam, T - lam + 1):
                        inside = (arr.lefts >= c - lam) & (arr.rights <= c + lam)
                        ok = (
                            inside
                            & (lens >= a * a * lam)
                            & (np.abs(mids - c) <= (1 + a * a) / 2 * lens / 2)
                        )
                        assert ok.any(), (T, a, c, lam)


class TestRandomIntervals:
    def test_empty(self):
        assert len(random_interval_arrays(10, 0)) == 0

    def test_contract(self):
        iv = random_interval_arrays(10, 5, 2, seed=1)
        assert len(iv) == 5
        assert np.all(iv.rights - iv.lefts >= 2)
        assert np.all((0 <= iv.lefts) & (iv.rights <= 10))
        assert iv.layers.tolist() == [-1] * 5

    def test_reproducible(self):
        a = random_interval_arrays(500, 100, 2, seed=42)
        b = random_interval_arrays(500, 100, 2, seed=42)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        c = random_interval_arrays(500, 100, 2, seed=43)
        assert not np.array_equal(a.lefts, c.lefts)

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            random_interval_arrays(10, 5, 11)

    def test_expected_total_length_table_value(self):
        # 5000 intervals on T=2048 average about 3.42e6 total length
        for seed in (1, 2, 3):
            tot = total_interval_length(random_interval_arrays(2048, 5000, 2, seed))
            assert abs(tot / 3.42e6 - 1) <= 0.03


class TestTotalLength:
    def test_empty(self):
        assert total_interval_length(interval_arrays()) == 0

    def test_single(self):
        assert total_interval_length(interval_arrays((0, 10))) == 10

    def test_seeded_sum_matches_enumeration(self):
        iv = seeded_interval_arrays(SeededParams(10, 0.5, 2))
        total = sum(r - l for l, r in zip(iv.lefts.tolist(), iv.rights.tolist()))
        assert total_interval_length(iv) == total == 66
