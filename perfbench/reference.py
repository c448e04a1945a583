"""Frozen reference of the pipeline's documented outputs.

An independent re-implementation of what ``seedseg.cli.run_detect`` and
one rep of ``seedseg.cli.run_bench`` return at the commit this benchmark
was written against.  It imports nothing from ``seedseg``, so a change to
the package cannot change the answers it is checked against.  Selection
uses the plain pick-max/eliminate loop over a sorted Python list instead
of the package's balanced tree; arithmetic on gains and residual sums
follows the package's operation order, so the numbers agree to the last
bit in practice (checks still allow ``REL_TOL``).

``golden.json`` holds outputs of the package itself on a fixed panel;
``selftest.py`` confirms that this module reproduces them.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

DECAY = 1.0 / math.sqrt(2.0)
MAD_SCALE = 0.6745


# ---------------------------------------------------------------------------
# intervals


def seeded_intervals(T: int, decay: float = DECAY, m: int = 2):
    """(lefts, rights) of the deduplicated seeded system, generation order."""
    layers = 0
    scale = float(T)
    while scale > 1.0:
        scale *= decay
        layers += 1
    lefts_parts, rights_parts = [], []
    for k in range(1, max(layers, 1) + 1):
        count = 2 * math.ceil((1.0 / decay) ** (k - 1)) - 1
        nominal = T * decay ** (k - 1)
        shift = (T - nominal) / (count - 1) if count > 1 else 0.0
        if math.ceil(nominal) + 1 < m:
            break
        starts = np.arange(count) * shift
        lefts = np.floor(starts).astype(np.int64)
        rights = np.minimum(np.ceil(starts + nominal).astype(np.int64), T)
        keep = rights - lefts >= m
        lefts_parts.append(lefts[keep])
        rights_parts.append(rights[keep])
    lefts = np.concatenate(lefts_parts)
    rights = np.concatenate(rights_parts)
    _, first = np.unique(lefts * np.int64(T + 1) + rights, return_index=True)
    first.sort()
    return lefts[first], rights[first]


def random_intervals(T: int, count: int, m: int, seed):
    """Endpoint pairs drawn uniformly on {0..T}, redrawn until >= m apart."""
    rng = np.random.default_rng(seed)
    lefts = np.empty(count, dtype=np.int64)
    rights = np.empty(count, dtype=np.int64)
    for i in range(count):
        while True:
            left = int(rng.integers(0, T + 1))
            right = int(rng.integers(0, T + 1))
            if right - left >= m:
                break
        lefts[i] = left
        rights[i] = right
    return lefts, rights


# ---------------------------------------------------------------------------
# CUSUM gains


def best_splits(sums: np.ndarray, lefts: np.ndarray, rights: np.ndarray):
    """Maximal |CUSUM| split per interval (ties -> smallest split)."""
    splits = np.empty(len(lefts), dtype=np.int64)
    gains = np.empty(len(lefts))
    lengths = rights - lefts
    for n in np.unique(lengths):
        rows = np.nonzero(lengths == n)[0]
        l = lefts[rows]
        offs = np.arange(1, n)
        left_n = offs.astype(float)
        right_n = (n - offs).astype(float)
        w_left = np.sqrt(right_n / (n * left_n))
        w_right = np.sqrt(left_n / (n * right_n))
        at = l[:, None] + offs[None, :]
        values = np.abs(
            w_left[None, :] * (sums[at] - sums[l, None])
            - w_right[None, :] * (sums[l + n, None] - sums[at])
        )
        j = np.argmax(values, axis=1)
        splits[rows] = l + 1 + j
        gains[rows] = values[np.arange(len(rows)), j]
    return splits, gains


# ---------------------------------------------------------------------------
# selection


def _scan(order, splits, lefts, rights, limit=None):
    """Visit ``order``; accept each candidate whose open interior holds no
    accepted split, until ``limit`` are accepted."""
    points: list[int] = []
    accepted: list[int] = []
    limit = len(order) if limit is None else limit
    visits = zip(order.tolist(), splits[order].tolist(), lefts[order].tolist(), rights[order].tolist())
    for j, s, l, r in visits:
        if len(accepted) >= limit:
            break
        i = bisect.bisect_right(points, l)
        if i == len(points) or points[i] >= r:
            points.insert(i, s)
            accepted.append(j)
    return accepted


def greedy(gains, splits, lefts, rights, kappa, max_accept=None):
    """Indices accepted by greedy selection, in acceptance order."""
    above = np.nonzero(gains > kappa)[0]
    order = above[np.argsort(-gains[above], kind="stable")]
    return _scan(order, splits, lefts, rights, max_accept)


def _not_order(qualifying, splits, lefts, rights):
    idx = np.nonzero(qualifying)[0]
    return idx[np.lexsort((splits[idx], lefts[idx], rights[idx] - lefts[idx]))]


def narrowest(gains, splits, lefts, rights, kappa, inclusive=False):
    """Indices accepted by narrowest-over-threshold selection."""
    qualifying = gains >= kappa if inclusive else gains > kappa
    return _scan(_not_order(qualifying, splits, lefts, rights), splits, lefts, rights)


def narrowest_path(gains, splits, lefts, rights):
    """(thresholds, segmentations) of the NOT path; full rescan per gain."""
    thresholds: list[float] = []
    segs: list[tuple[int, ...]] = []
    everything = _not_order(np.ones(len(gains), bool), splits, lefts, rights)
    ordered = gains[everything]
    for g in np.unique(gains[gains > 0.0])[::-1]:
        acc = _scan(everything[ordered >= g], splits, lefts, rights)
        seg = tuple(sorted(int(splits[j]) for j in acc))
        if not segs or seg != segs[-1]:
            thresholds.append(float(g))
            segs.append(seg)
    return thresholds, segs


# ---------------------------------------------------------------------------
# information criterion


class Sums:
    """Prefix sums of a series and of its squares, as Python floats."""

    def __init__(self, x: np.ndarray):
        self.array = np.concatenate(([0.0], np.cumsum(x)))
        self.S = self.array.tolist()
        self.Q = np.concatenate(([0.0], np.cumsum(x * x))).tolist()
        self.T = len(x)

    def rss(self, a: int, b: int) -> float:
        s = self.S[b] - self.S[a]
        return max(self.Q[b] - self.Q[a] - s * s / (b - a), 0.0)

    def rss_of(self, cps) -> float:
        bounds = (0,) + tuple(cps) + (self.T,)
        return sum(self.rss(a, b) for a, b in zip(bounds[:-1], bounds[1:]))


def ssic(rss: float, k: int, T: int, theta: float) -> float:
    if rss <= 0.0:
        return -math.inf
    return 0.5 * T * math.log(rss / T) + k * math.log(T) ** theta


def best_nested(ps: Sums, increments, theta: float) -> int:
    """Number of leading path points the ssic keeps (0 = empty model)."""
    T = ps.T
    rss = ps.rss(0, T)
    best_k, best = 0, ssic(rss, 0, T, theta)
    points: list[int] = []
    for i, p in enumerate(increments[: (T + 1) // 2]):
        at = bisect.bisect_left(points, p)
        lo = points[at - 1] if at > 0 else 0
        hi = points[at] if at < len(points) else T
        rss += ps.rss(lo, p) + ps.rss(p, hi) - ps.rss(lo, hi)
        points.insert(at, p)
        score = ssic(max(rss, 0.0), i + 1, T, theta)
        if score < best:
            best_k, best = i + 1, score
    return best_k


def best_general(ps: Sums, segs, theta: float) -> int:
    """Index of the ssic-best path entry, -1 for the empty model."""
    T = ps.T
    best_i, best = -1, ssic(ps.rss(0, T), 0, T, theta)
    for i, cps in enumerate(segs):
        if len(cps) > (T + 1) // 2:
            continue
        score = ssic(ps.rss_of(cps), len(cps), T, theta)
        if score < best or (
            score == best and best_i >= 0 and len(cps) < len(segs[best_i])
        ):
            best_i, best = i, score
    return best_i


# ---------------------------------------------------------------------------
# pipeline


def detect(x: np.ndarray, selection: str = "greedy", ic: str = "ssic",
           threshold_scale: float = 1.3, theta: float = 1.01,
           intervals=None) -> dict:
    """The fields of ``run_detect``'s result that the benchmark checks
    (``ic`` is ``"ssic"`` or ``"none"``)."""
    x = np.asarray(x, dtype=float)
    T = len(x)
    sigma = float(np.median(np.abs(np.diff(x)))) / (math.sqrt(2.0) * MAD_SCALE)
    lefts, rights = intervals if intervals is not None else seeded_intervals(T)
    ps = Sums(x)
    splits, gains = best_splits(ps.array, lefts, rights)
    if ic == "none":
        kappa = threshold_scale * sigma * math.sqrt(2.0 * math.log(T))
        scan = greedy if selection == "greedy" else narrowest
        chosen = scan(gains, splits, lefts, rights, kappa)
        threshold = float(kappa)
    elif selection == "greedy":
        path = greedy(gains, splits, lefts, rights, 0.0, max_accept=(T + 1) // 2)
        k = best_nested(ps, [int(splits[j]) for j in path], theta)
        chosen = path[:k]
        threshold = float(gains[path[k - 1]]) if k else float(gains.max())
    else:
        thresholds, segs = narrowest_path(gains, splits, lefts, rights)
        i = best_general(ps, segs, theta)
        if i < 0:
            chosen, threshold = [], float(gains.max())
        else:
            threshold = thresholds[segs.index(segs[i])]
            chosen = narrowest(gains, splits, lefts, rights, threshold, inclusive=True)
    pairs = sorted((int(splits[j]), float(gains[j])) for j in chosen)
    cps = [p for p, _ in pairs]
    return {
        "changepoints": cps,
        "gains": [g for _, g in pairs],
        "threshold": threshold,
        "sigma_hat": sigma,
        "score": None if ic == "none" else ssic(ps.rss_of(cps), len(cps), T, theta),
        "total_length": int(np.sum(rights - lefts)),
    }


# ---------------------------------------------------------------------------
# evaluation metrics


def mse(cps, x: np.ndarray, truth: np.ndarray) -> float:
    bounds = np.array([0] + list(cps) + [len(x)])
    lengths = np.diff(bounds)
    fitted = np.repeat(np.add.reduceat(x, bounds[:-1]) / lengths, lengths)
    return float(np.mean((fitted - truth) ** 2))


def hausdorff(est, truth, T: int) -> float:
    a = sorted({0, T, *est})
    b = sorted({0, T, *truth})

    def directed(u, v):
        return max(
            min(abs(p - v[max(i - 1, 0)]), abs(p - v[min(i, len(v) - 1)]))
            for p, i in ((p, bisect.bisect_left(v, p)) for p in u)
        )

    return float(max(directed(a, b), directed(b, a)))


def v_measure(est, truth, T: int) -> float:
    def entropy(counts):
        p = counts[counts > 0] / T
        return float(-np.sum(p * np.log(p)))

    tb = np.array([0] + list(truth) + [T])
    eb = np.array([0] + list(est) + [T])
    classes = np.repeat(np.arange(len(tb) - 1), np.diff(tb))
    clusters = np.repeat(np.arange(len(eb) - 1), np.diff(eb))
    joint = np.unique(classes * np.int64(len(eb)) + clusters, return_counts=True)[1]
    h_c, h_k, h_joint = entropy(np.diff(tb)), entropy(np.diff(eb)), entropy(joint)
    h = 1.0 if h_c == 0 else 1.0 - (h_joint - h_k) / h_c
    c = 1.0 if h_k == 0 else 1.0 - (h_joint - h_c) / h_k
    return 0.0 if h + c == 0 else 2.0 * h * c / (h + c)


def bench_rep(truth: np.ndarray, truth_cps, sigma: float, seed: int, count: int) -> dict:
    """Row fields of one ``run_bench`` rep with ``random:<count>`` intervals."""
    T = len(truth)
    x = truth + sigma * np.random.default_rng([seed, 0]).standard_normal(T)
    intervals = random_intervals(T, count, 2, [seed, 0, count])
    cps = detect(x, intervals=intervals)["changepoints"]
    return {
        "mse": mse(cps, x, truth),
        "hausdorff": hausdorff(cps, truth_cps, T),
        "v_measure": v_measure(cps, truth_cps, T),
        "count_error": len(truth_cps) - len(cps),
        "total_length": int(np.sum(intervals[1] - intervals[0])),
    }
