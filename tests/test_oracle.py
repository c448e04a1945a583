import itertools

import numpy as np
import pytest

from seedseg.gain import cusum, prefix_sums
from seedseg.oracle import dp_exact, naive_cusum
from seedseg.select import Penalty, Segmentation, ic_score


class TestNaiveCusum:
    def test_constant(self):
        assert naive_cusum([2.0] * 6, 0, 6, 3) == pytest.approx(0.0)

    def test_step(self):
        assert naive_cusum([0, 0, 1, 1], 0, 4, 2) == pytest.approx(-1.0)

    def test_matches_prefix_sum_version(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=80)
        ps = prefix_sums(x)
        for _ in range(300):
            l = int(rng.integers(0, 70))
            r = int(rng.integers(l + 2, 81))
            s = int(rng.integers(l + 1, r))
            assert naive_cusum(x, l, r, s) == pytest.approx(
                cusum(ps, l, r, s), rel=1e-9, abs=1e-12
            )

    def test_range_errors(self):
        with pytest.raises(ValueError):
            naive_cusum([1, 2, 3], 0, 3, 0)
        with pytest.raises(ValueError):
            naive_cusum([1, 2, 3], 2, 3, 2)


def enumerate_best(x, penalty, min_seg=1):
    """Exhaustive minimiser over all segmentations; tie rule (score, count, cps)."""
    ps = prefix_sums(x)
    T = len(x)
    best = None
    for k in range(T):
        for cps in itertools.combinations(range(1, T), k):
            bounds = (0,) + cps + (T,)
            if any(b - a < min_seg for a, b in zip(bounds[:-1], bounds[1:])):
                continue
            score = ic_score(ps, Segmentation(cps), penalty)
            key = (score, len(cps), cps)
            if best is None or key < best:
                best = key
    return best[2]


class TestDpExact:
    def test_constant_series_no_breaks(self):
        ps = prefix_sums([1.0] * 10)
        assert dp_exact(ps, Penalty.constant(0.5)).changepoints == ()

    def test_cheap_break_taken(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert dp_exact(ps, Penalty.constant(0.3), min_seg=1).changepoints == (2,)

    def test_expensive_break_refused(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert dp_exact(ps, Penalty.constant(2.0), min_seg=1).changepoints == ()

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            T = int(rng.integers(2, 13))
            x = np.round(rng.normal(size=T), 2)
            if trial % 3 == 0:
                x = np.round(x)  # integer values provoke exact ties
            penalty = Penalty.constant(float(rng.choice([0.0, 0.25, 1.0, 4.0])))
            min_seg = int(rng.integers(1, 3))
            expected = enumerate_best(x, penalty, min_seg)
            got = dp_exact(prefix_sums(x), penalty, min_seg=min_seg)
            assert got.changepoints == expected, (x.tolist(), penalty.alpha, min_seg)

    def test_lexicographic_tie(self):
        # symmetric series: {1} and {2} tie; lexicographically smaller wins
        ps = prefix_sums([0.0, 1.0, 0.0])
        seg = dp_exact(ps, Penalty.constant(0.4), min_seg=1)
        assert seg.changepoints == enumerate_best(np.array([0.0, 1.0, 0.0]), Penalty.constant(0.4))

    def test_min_seg_respected(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=30)
        seg = dp_exact(prefix_sums(x), Penalty.constant(0.01), min_seg=5)
        bounds = (0,) + seg.changepoints + (30,)
        assert min(b - a for a, b in zip(bounds[:-1], bounds[1:])) >= 5

    def test_ssic_unsupported(self):
        ps = prefix_sums([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            dp_exact(ps, Penalty.ssic())

    def test_length_cap(self):
        ps = prefix_sums(np.zeros(20))
        with pytest.raises(ValueError):
            dp_exact(ps, Penalty.constant(1.0), max_length=10)

    def test_idempotent_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=60)
        ps = prefix_sums(x)
        a = dp_exact(ps, Penalty.bic(1.0))
        b = dp_exact(ps, Penalty.bic(1.0))
        assert a == b

    def test_lower_bound_for_selection_pipeline(self):
        from seedseg.gain import best_splits_arrays
        from seedseg.intervals import SeededParams, seeded_interval_arrays
        from seedseg.select import greedy_path_arrays, select_by_ic

        rng = np.random.default_rng(24)
        for _ in range(10):
            T = int(rng.integers(30, 120))
            x = np.concatenate(
                [rng.normal(size=T // 2), rng.normal(loc=2.5, size=T - T // 2)]
            )
            ps = prefix_sums(x)
            pen = Penalty.bic(1.0)
            iv = seeded_interval_arrays(SeededParams(T, 0.5, 2))
            splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
            path = greedy_path_arrays(gains, splits, iv.lefts, iv.rights)
            seg = select_by_ic(path, ps, pen)
            dp = dp_exact(ps, pen)
            assert ic_score(ps, dp, pen) <= ic_score(ps, seg, pen) + 1e-9
