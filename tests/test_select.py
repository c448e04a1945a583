import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seedseg.select as select_module
from seedseg.gain import best_splits_arrays, prefix_sums
from seedseg.intervals import SeededParams, seeded_interval_arrays
from seedseg.oracle import naive_greedy, naive_not
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
    select_by_ic,
)


def columns(*rows):
    """(gains, splits, lefts, rights) from (left, right, split, gain) rows."""
    lefts, rights, splits, gains = (list(c) for c in zip(*rows)) if rows else ([],) * 4
    return (
        np.array(gains, dtype=float),
        *(np.array(c, dtype=np.int64) for c in (splits, lefts, rights)),
    )


def entries(path):
    """(threshold, change points) of every path entry, in path order."""
    return [(float(t), path.changepoints_at(i)) for i, t in enumerate(path.thresholds)]


def selected(select, cands, kappa):
    """Sorted change points that ``select`` accepts at ``kappa``."""
    return tuple(sorted(cands[1][select(*cands, kappa)].tolist()))


def seeded_candidates(x, decay=0.5):
    ps = prefix_sums(x)
    iv = seeded_interval_arrays(SeededParams(len(x), decay, 2))
    splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
    return ps, (gains, splits, iv.lefts, iv.rights)


@st.composite
def candidate_arrays(draw):
    """(gains, splits, lefts, rights) with repeats and, often, integer (tied) gains."""
    T = draw(st.integers(2, 24))
    gain = st.integers(0, 4).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        left = draw(st.integers(0, T - 2))
        right = draw(st.integers(left + 2, T))
        rows.append((draw(gain), draw(st.integers(left + 1, right - 1)), left, right))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    cols = list(zip(*rows)) or [(), (), (), ()]
    return (
        np.array(cols[0], dtype=float),
        *(np.array(c, dtype=np.int64) for c in cols[1:]),
    )


# chunk sizes small enough that a scan crosses many chunk boundaries
chunk_sizes = st.sampled_from([1, 2, 3, 7, select_module._CHUNK])
thresholds = st.integers(0, 5).map(float) | st.floats(0.0, 5.0)

# integer data fits constant segments exactly (RSS = 0) and ties scores
integer_series = st.lists(st.integers(-3, 3), min_size=2, max_size=40).map(
    lambda v: np.array(v, dtype=float)
)
gaussian_series = st.tuples(st.integers(2, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0)).map(
    lambda a: np.where(np.arange(a[0]) >= a[0] // 2, a[2], 0.0)
    + np.random.default_rng(a[1]).normal(size=a[0])
)
penalties = st.sampled_from(
    [Penalty.constant(0.0), Penalty.constant(1.5), Penalty.bic(1.0), Penalty.ssic()]
)


class TestEliminationScan:
    """The four selection functions against literal pick-and-eliminate loops."""

    @settings(max_examples=300, deadline=None)
    @given(candidate_arrays(), thresholds, st.none() | st.integers(0, 12), chunk_sizes)
    def test_greedy_select_matches_pick_max(self, cands, kappa, max_accept, chunk):
        with mock.patch.object(select_module, "_CHUNK", chunk):
            got = greedy_select_arrays(*cands, kappa, max_accept=max_accept)
        assert got == naive_greedy(*cands, kappa, max_accept)

    @settings(max_examples=300, deadline=None)
    @given(candidate_arrays(), st.none() | st.integers(0, 12), chunk_sizes)
    def test_greedy_path_matches_pick_max(self, cands, max_breaks, chunk):
        gains, splits = cands[:2]
        with mock.patch.object(select_module, "_CHUNK", chunk):
            path = greedy_path_arrays(*cands, max_breaks=max_breaks)
        want = naive_greedy(*cands, 0.0, max_breaks)
        assert path.thresholds.tolist() == gains[want].tolist()
        assert path.increments.tolist() == splits[want].tolist()

    @settings(max_examples=300, deadline=None)
    @given(candidate_arrays(), thresholds, st.booleans(), chunk_sizes)
    def test_not_select_matches_narrowest_first(self, cands, kappa, inclusive, chunk):
        with mock.patch.object(select_module, "_CHUNK", chunk):
            got = not_select_arrays(*cands, kappa, inclusive=inclusive)
        assert got == naive_not(*cands, kappa, inclusive)

    @settings(max_examples=200, deadline=None)
    @given(candidate_arrays(), chunk_sizes)
    def test_not_path_matches_narrowest_first(self, cands, chunk):
        gains, splits = cands[:2]
        with mock.patch.object(select_module, "_CHUNK", chunk):
            path = not_path_arrays(*cands)
        want: list[tuple[float, tuple[int, ...]]] = []
        for g in sorted(set(gains[gains > 0.0].tolist()), reverse=True):
            seg = tuple(sorted(splits[naive_not(*cands, g, inclusive=True)].tolist()))
            if not want or seg != want[-1][1]:
                want.append((g, seg))
        assert entries(path) == want

    def test_real_candidates_beyond_one_chunk(self):
        rng = np.random.default_rng(20)
        T = 1024
        x = np.repeat(rng.normal(scale=3.0, size=16), T // 16) + rng.normal(size=T)
        ps = prefix_sums(x)
        iv = seeded_interval_arrays(SeededParams(T))
        splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
        cands = (gains, splits, iv.lefts, iv.rights)
        assert len(gains) > select_module._CHUNK
        kappa = auto_threshold(T, estimate_noise_sd(x))
        assert greedy_select_arrays(*cands, kappa) == naive_greedy(*cands, kappa)
        assert not_select_arrays(*cands, kappa) == naive_not(*cands, kappa)
        path = greedy_path_arrays(*cands, max_breaks=60)
        assert path.increments.tolist() == splits[naive_greedy(*cands, 0.0, 60)].tolist()


class TestGreedySelect:
    def test_all_below_threshold(self):
        assert selected(greedy_select_arrays, columns((0, 4, 2, 0.4)), 0.5) == ()

    def test_single(self):
        assert selected(greedy_select_arrays, columns((0, 4, 2, 1.0)), 0.5) == (2,)

    def test_elimination_trace(self):
        cs = columns((0, 4, 2, 3.0), (2, 8, 5, 2.0), (0, 8, 2, 2.5))
        assert greedy_select_arrays(*cs, 1.0) == [0, 1]
        assert selected(greedy_select_arrays, cs, 1.0) == (2, 5)

    def test_strictly_above_threshold(self):
        assert selected(greedy_select_arrays, columns((0, 4, 2, 1.0)), 1.0) == ()

    def test_fitted_when_prefix_sums_given(self):
        ps = prefix_sums([0, 0, 1, 1])
        seg = fit_segmentation(ps, selected(greedy_select_arrays, columns((0, 4, 2, 1.0)), 0.5))
        assert seg.changepoints == (2,)
        assert seg.means == (0.0, 1.0)
        assert seg.rss == pytest.approx(0.0)

    @pytest.mark.parametrize("select", [greedy_select_arrays, not_select_arrays])
    @pytest.mark.parametrize("kappa", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_threshold_rejected(self, select, kappa):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            select(*columns((0, 4, 2, 1.0)), kappa)


class TestNotSelect:
    def test_all_below(self):
        assert selected(not_select_arrays, columns((0, 8, 4, 0.5)), 1.0) == ()

    def test_narrowest_first(self):
        cs = columns((0, 8, 4, 5.0), (2, 6, 4, 3.0))
        assert not_select_arrays(*cs, 1.0) == [1]
        assert selected(not_select_arrays, cs, 1.0) == (4,)

    def test_high_threshold_leaves_wide(self):
        cs = columns((0, 8, 4, 5.0), (2, 6, 4, 3.0))
        assert not_select_arrays(*cs, 4.0) == [0]
        assert selected(not_select_arrays, cs, 4.0) == (4,)

    def test_mutual_elimination_consistency_by_replay(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            rows = []
            for _ in range(60):
                l = int(rng.integers(0, 90))
                r = int(rng.integers(l + 2, 101))
                s = int(rng.integers(l + 1, r))
                rows.append((l, r, s, float(rng.uniform(0, 5))))
            cps = selected(not_select_arrays, columns(*rows), 1.0)
            # replay the narrowest-first scan with a brute-force containment
            order = sorted((row for row in rows if row[3] > 1.0), key=lambda c: (c[1] - c[0], c[0], c[2]))
            accepted = []
            for l, r, s, _ in order:
                if not any(l < p < r for _, _, p in accepted):
                    accepted.append((l, r, s))
            assert tuple(sorted(s for _, _, s in accepted)) == cps
            # no later accepted interval contains an earlier accepted split
            for i, (_, _, s) in enumerate(accepted):
                for l, r, _ in accepted[i + 1 :]:
                    assert not l < s < r


class TestSolutionPaths:
    def test_greedy_empty(self):
        assert len(greedy_path_arrays(*columns())) == 0

    def test_greedy_single(self):
        path = greedy_path_arrays(*columns((0, 4, 2, 1.5)))
        assert entries(path) == [(1.5, (2,))]

    def test_greedy_three_candidate_trace(self):
        cs = columns((0, 4, 2, 3.0), (2, 8, 5, 2.0), (0, 8, 2, 2.5))
        path = greedy_path_arrays(*cs)
        assert entries(path) == [(3.0, (2,)), (2.0, (2, 5))]

    def test_greedy_nested_and_decreasing(self):
        rng = np.random.default_rng(13)
        _, cands = seeded_candidates(rng.normal(size=200))
        path = greedy_path_arrays(*cands)
        assert len(path) > 0
        thr = path.thresholds
        assert all(thr[i] >= thr[i + 1] for i in range(len(thr) - 1))
        assert all(thr[i] > thr[i + 1] for i in range(len(thr) - 1))  # continuous data: strict
        prev: tuple[int, ...] = ()
        for _, cps in entries(path):
            assert set(prev) <= set(cps)
            assert len(cps) == len(prev) + 1
            prev = cps

    def test_greedy_select_is_path_prefix(self):
        rng = np.random.default_rng(14)
        _, cands = seeded_candidates(rng.normal(size=150))
        path = greedy_path_arrays(*cands)
        for kappa in (0.5, 1.0, 2.0, 3.5):
            keep = [i for i, t in enumerate(path.thresholds) if t > kappa]
            expected = path.changepoints_at(keep[-1]) if keep else ()
            assert selected(greedy_select_arrays, cands, kappa) == expected

    def test_not_path_empty_and_single(self):
        assert len(not_path_arrays(*columns())) == 0
        path = not_path_arrays(*columns((0, 4, 2, 1.5)))
        assert entries(path) == [(1.5, (2,))]

    def test_not_path_collapses_duplicates(self):
        path = not_path_arrays(*columns((0, 8, 4, 5.0), (2, 6, 4, 3.0)))
        assert entries(path) == [(5.0, (4,))]

    def test_path_validation(self):
        with pytest.raises(ValueError):
            SolutionPath([1.0], increments=[2], segmentations=[(2,)])
        with pytest.raises(ValueError):
            SolutionPath([1.0, 0.5], increments=[2])


class TestPenalty:
    def test_constant(self):
        assert 3 * Penalty.constant(2.0).per_break(100) == pytest.approx(6.0)

    def test_zero_breaks(self):
        ps = prefix_sums([0.0, 1.0, 3.0, 2.0])
        for p in (Penalty.constant(2.0), Penalty.bic(1.0)):
            assert ic_score(ps, Segmentation(()), p) == ps.segment_rss(0, 4)

    def test_bic(self):
        T = 1000
        assert Penalty.bic(1.0).per_break(T) == pytest.approx(2 * math.log(T))
        assert 3 * Penalty.bic(2.5).per_break(T) == pytest.approx(3 * 2 * 2.5 * math.log(T))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Penalty(kind="aic")

    def test_ssic_theta_validation(self):
        with pytest.raises(ValueError):
            Penalty.ssic(theta=1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Penalty.ssic(math.nan),
            lambda: Penalty.ssic(math.inf),
            lambda: Penalty.ssic(0.5),
            lambda: Penalty.constant(-1.0),
            lambda: Penalty.constant(math.nan),
            lambda: Penalty.constant(math.inf),
            lambda: Penalty.bic(-1.0),
            lambda: Penalty.bic(math.nan),
            lambda: Penalty.bic(math.inf),
            lambda: Penalty(kind="constant", alpha=1.0, theta=math.nan),
        ],
    )
    def test_non_finite_or_out_of_range_knobs_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_boundary_knobs_accepted(self):
        assert Penalty.constant(0.0).per_break(100) == 0.0
        assert Penalty.bic(0.0).per_break(100) == 0.0
        assert Penalty.ssic(1.0 + 1e-9).per_break(100) > 0.0

    def test_incremental_is_constant_per_break(self):
        # one more break on the same RSS raises the score by per_break(T)
        ps = prefix_sums([0.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        for p in (Penalty.constant(1.7), Penalty.bic(2.0), Penalty.ssic(1.05)):
            base = ic_score(ps, Segmentation((1, 4)), p)
            finer = ic_score(ps, Segmentation((1, 2, 4)), p)  # splits a constant segment
            assert finer - base == pytest.approx(p.per_break(6))


class TestIcScore:
    def test_constant_zero_series(self):
        ps = prefix_sums([0.0, 0.0, 0.0])
        assert ic_score(ps, Segmentation(()), Penalty.constant(0.0)) == pytest.approx(0.0)

    def test_global_mean_rss(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert ic_score(ps, Segmentation(()), Penalty.constant(0.7)) == pytest.approx(1.0)

    def test_split_rss_zero(self):
        ps = prefix_sums([0, 0, 1, 1])
        assert ic_score(ps, Segmentation((2,)), Penalty.constant(0.3)) == pytest.approx(0.3)

    def test_ssic_formula(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=50)
        ps = prefix_sums(x)
        seg = fit_segmentation(ps, (20,))
        T = 50
        rss = ps.segment_rss(0, 20) + ps.segment_rss(20, 50)
        expected = 0.5 * T * math.log(rss / T) + 1 * math.log(T) ** 1.01
        assert ic_score(ps, seg, Penalty.ssic(1.01)) == pytest.approx(expected)

    def test_ssic_degenerate_rss_warns(self):
        ps = prefix_sums([0, 0, 1, 1])
        with pytest.warns(RuntimeWarning):
            score = ic_score(ps, Segmentation((2,)), Penalty.ssic())
        assert score == -math.inf


class TestSelectByIc:
    def test_empty_path(self):
        ps = prefix_sums([0, 0, 1, 1])
        path = SolutionPath([], increments=[])
        assert select_by_ic(path, ps, Penalty.constant(1.0)).changepoints == ()

    def test_accept_when_cheap(self):
        ps = prefix_sums([0, 0, 1, 1])
        path = SolutionPath([1.0], increments=[2])
        assert select_by_ic(path, ps, Penalty.constant(0.3)).changepoints == (2,)

    def test_reject_when_expensive(self):
        ps = prefix_sums([0, 0, 1, 1])
        path = SolutionPath([1.0], increments=[2])
        assert select_by_ic(path, ps, Penalty.constant(2.0)).changepoints == ()

    def test_incremental_matches_direct_scoring(self):
        rng = np.random.default_rng(16)
        x = np.concatenate([rng.normal(size=60), rng.normal(loc=3.0, size=60)])
        ps, cands = seeded_candidates(x)
        path = greedy_path_arrays(*cands)
        for pen in (Penalty.constant(5.0), Penalty.bic(1.0), Penalty.ssic(1.01)):
            seg = select_by_ic(path, ps, pen)
            cap = (120 + 1) // 2 if pen.kind == "ssic" else len(path)
            scores = [ic_score(ps, Segmentation(()), pen)] + [
                ic_score(ps, Segmentation(path.changepoints_at(i)), pen)
                for i in range(min(len(path), cap))
            ]
            best = min(scores)
            assert ic_score(ps, seg, pen) == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_tie_prefers_fewer_changepoints(self):
        # two path entries with identical segmentations scored equally
        ps = prefix_sums([0, 0, 1, 1, 0, 0])
        path = SolutionPath([2.0, 1.0], segmentations=[(2,), (2, 4)])
        pen = Penalty.constant(0.5)
        s1 = ic_score(ps, Segmentation((2,)), pen)
        s2 = ic_score(ps, Segmentation((2, 4)), pen)
        if s1 == s2:  # by construction RSS difference equals the penalty step
            assert select_by_ic(path, ps, pen).changepoints == (2,)

    @pytest.mark.parametrize("pen", [Penalty.constant(0.0), Penalty.ssic()])
    def test_general_path_exact_tie_prefers_fewer_changepoints(self, pen):
        # both entries fit exactly (RSS = 0): equal scores, 0.0 or -inf
        ps = prefix_sums([0, 0, 1, 1, 1, 1])
        path = SolutionPath([2.0, 1.0, 0.5], segmentations=[(2, 4), (2,), (2, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert select_by_ic(path, ps, pen).changepoints == (2,)

    def test_ssic_cap_excludes_saturated_model(self):
        rng = np.random.default_rng(17)
        ps, cands = seeded_candidates(rng.normal(size=40))
        path = greedy_path_arrays(*cands)
        seg = select_by_ic(path, ps, Penalty.ssic())
        assert len(seg.changepoints) <= (40 + 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(integer_series | gaussian_series, penalties, st.booleans())
    def test_walk_matches_direct_scoring_of_every_entry(self, x, pen, nested):
        T = len(x)
        ps = prefix_sums(x)
        iv = seeded_interval_arrays(SeededParams(T, 0.5, 2))
        splits, gains = best_splits_arrays(ps, iv.lefts, iv.rights)
        build = greedy_path_arrays if nested else not_path_arrays
        path = build(gains, splits, iv.lefts, iv.rights)
        cap = (T + 1) // 2 if pen.kind == "ssic" else T
        models = [()] + [
            path.changepoints_at(i)
            for i in range(len(path))
            if len(path.changepoints_at(i)) <= cap
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            seg = select_by_ic(path, ps, pen)
            scores = np.array([ic_score(ps, Segmentation(m), pen) for m in models])
        k = models.index(seg.changepoints)
        # lowest score, then fewest change points, then the earliest entry
        first = int(np.lexsort(([len(m) for m in models], scores))[0])
        best = scores[first]
        tol = 1e-9 * (1.0 + abs(best)) if np.isfinite(best) else 0.0
        assert scores[k] <= best + tol
        if np.delete(scores, first).min(initial=np.inf) > best + tol:
            assert k == first

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(-1000, 1000), st.data(), penalties)
    def test_constant_input_keeps_empty_model_with_one_warning(self, T, level, data, pen):
        ps = prefix_sums(np.full(T, float(level)))
        points = data.draw(st.permutations(range(1, T)))
        points = points[: data.draw(st.integers(0, len(points)))]
        path = SolutionPath(np.ones(len(points)), increments=points)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seg = select_by_ic(path, ps, pen)
        assert seg.changepoints == ()
        assert [w.category for w in caught] == ([RuntimeWarning] if pen.kind == "ssic" else [])


class TestThresholdAndNoise:
    def test_auto_threshold_zero_sigma(self):
        assert auto_threshold(100, 0.0, 1.3) == 0.0

    def test_auto_threshold_validation(self):
        with pytest.raises(ValueError):
            auto_threshold(100, 1.0, 0.0)
        for scale in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                auto_threshold(100, 1.0, scale)
        with pytest.raises(ValueError):
            auto_threshold(1, 1.0, 1.0)

    def test_auto_threshold_value(self):
        assert auto_threshold(2048, 1.0, 1.3) == pytest.approx(5.076, abs=1e-3)

    def test_noise_constant(self):
        assert estimate_noise_sd([5.0] * 10) == 0.0

    def test_noise_alternating(self):
        assert estimate_noise_sd([0, 2] * 50) == pytest.approx(2.097, abs=1e-3)

    def test_noise_gaussian_monte_carlo(self):
        rng = np.random.default_rng(18)
        estimates = [
            estimate_noise_sd(rng.standard_normal(10_000)) for _ in range(50)
        ]
        assert abs(np.mean(estimates) - 1.0) <= 0.05

    def test_noise_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_noise_sd([1.0])


class TestMemoryScaling:
    def test_peak_allocations_roughly_linear_in_T(self):
        import tracemalloc

        from seedseg.cli import DetectConfig, run_detect

        rng = np.random.default_rng(19)

        def peak_bytes(T):
            x = rng.standard_normal(T)
            tracemalloc.start()
            run_detect(x, DetectConfig())
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small = peak_bytes(2**13)
        large = peak_bytes(2**15)
        # linear scaling predicts 4x; allow slack for constant overheads
        assert large / small <= 6.0


class TestSegmentation:
    def test_sorted_unique_enforced(self):
        with pytest.raises(ValueError):
            Segmentation((3, 3))
        with pytest.raises(ValueError):
            Segmentation((5, 2))

    def test_fit(self):
        ps = prefix_sums([1.0, 1.0, 4.0, 4.0])
        seg = fit_segmentation(ps, (2,))
        assert seg.means == (1.0, 4.0)
        assert seg.rss == pytest.approx(0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_and_score_match_direct_slices(self, data):
        T = data.draw(st.integers(1, 200))
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=T)
        cps = data.draw(st.lists(st.integers(1, T - 1), unique=True).map(sorted)) if T > 1 else []
        ps = prefix_sums(x)
        seg = fit_segmentation(ps, cps)
        pieces = np.split(x, cps)
        means = [np.mean(p) for p in pieces]
        rss = sum(float(np.sum((p - m) ** 2)) for p, m in zip(pieces, means))
        assert seg.means == pytest.approx(means, rel=1e-9, abs=1e-12)
        assert seg.rss == pytest.approx(rss, rel=1e-9, abs=1e-12)
        assert ic_score(ps, seg, Penalty.constant(0.5)) == pytest.approx(
            rss + 0.5 * len(cps), rel=1e-9, abs=1e-12
        )

    def test_fit_rejects_out_of_range(self):
        ps = prefix_sums([1.0, 1.0])
        with pytest.raises(ValueError):
            fit_segmentation(ps, (2,))
        ps = prefix_sums([1.0, 1.0, 2.0, 2.0])
        for cps in [(0,), (1, 1), (3, 1)]:  # repeated or unsorted points too
            with pytest.raises(ValueError):
                fit_segmentation(ps, cps)
