"""Turning candidate splits into change point estimates.

Greedy selection repeatedly accepts the surviving candidate with maximal
gain; narrowest-over-threshold accepts the shortest qualifying interval.
Both visit candidates in a fixed order and eliminate every interval whose
open interior contains an accepted point.  One array scan serves both:
candidates are taken in chunks, a single ``np.searchsorted`` against the
sorted accepted splits drops the members blocked by earlier chunks, and
only the survivors are settled one by one.  Solution paths record the
segmentations swept out by all thresholds, and an information criterion
picks the final model.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from seedseg.gain import PrefixSums

__all__ = [
    "Penalty",
    "Segmentation",
    "SolutionPath",
    "auto_threshold",
    "estimate_noise_sd",
    "fit_segmentation",
    "greedy_path_arrays",
    "greedy_select_arrays",
    "ic_score",
    "not_path_arrays",
    "not_select_arrays",
    "select_by_ic",
]

_MAD_SCALE = 0.6745  # third-quartile point of the standard normal
_CHUNK = 2048  # candidates checked against earlier acceptances per searchsorted
_NO_SPLIT = np.iinfo(np.int64).max  # sentinel above every accepted split


def _eliminate(
    order: np.ndarray,
    splits: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    limit: Optional[int] = None,
) -> list[int]:
    """Candidates of ``order`` accepted by a scan in that order.

    A candidate is accepted iff no split accepted before it lies strictly
    inside ``(left, right)``.  Returns candidate indices in acceptance
    order, at most ``limit`` of them.
    """
    limit = len(order) if limit is None else limit
    taken = np.array([_NO_SPLIT], dtype=np.int64)  # sorted accepted splits
    accepted: list[int] = []
    for start in range(0, len(order), _CHUNK):
        if len(accepted) >= limit:
            break
        chunk = order[start : start + _CHUNK]
        lo, hi = lefts[chunk], rights[chunk]
        # the first split above ``left`` must not lie below ``right``
        free = taken[np.searchsorted(taken, lo, side="right")] >= hi
        chunk = chunk[free]
        new: list[int] = []  # sorted splits accepted from this chunk
        for j, l, r, s in zip(
            chunk.tolist(), lo[free].tolist(), hi[free].tolist(), splits[chunk].tolist()
        ):
            i = bisect.bisect_right(new, l)
            if i < len(new) and new[i] < r:
                continue
            bisect.insort(new, s)
            accepted.append(j)
            if len(accepted) >= limit:
                break
        taken = np.insert(taken, np.searchsorted(taken, new), new)
    return accepted


@dataclass(frozen=True)
class Segmentation:
    """Sorted change point locations with, when fitted, segment means and RSS."""

    changepoints: tuple[int, ...]
    means: Optional[tuple[float, ...]] = None
    rss: Optional[float] = None

    def __post_init__(self):
        cps = self.changepoints
        if any(cps[i] >= cps[i + 1] for i in range(len(cps) - 1)):
            raise ValueError("change points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.changepoints)


def fit_segmentation(ps: PrefixSums, changepoints: Sequence[int]) -> Segmentation:
    """Segmentation with per-segment sample means and total RSS."""
    cps = tuple(int(c) for c in changepoints)
    T = ps.length
    bounds = np.array((0, *cps, T))
    lo, hi = bounds[:-1], bounds[1:]
    if np.any(hi <= lo):
        raise ValueError(f"change points must be strictly increasing in 1..{T - 1}")
    means = (ps.sums[hi] - ps.sums[lo]) / (hi - lo)
    return Segmentation(changepoints=cps, means=tuple(means.tolist()), rss=_rss(ps, cps))


def _by_decreasing_gain(gains: np.ndarray, kappa: float) -> np.ndarray:
    """Indices of the gains above ``kappa`` by decreasing gain, ties in index order.

    When every gain qualifies (a full path) the gains are sorted directly;
    otherwise the qualifying gains are gathered, sorted and freed before
    their order is mapped back to indices.  Every other temporary is
    freed on return, before the elimination scan starts.
    """
    if len(gains) and gains.min() > kappa:
        return np.argsort(-gains, kind="stable")
    idx = np.flatnonzero(gains > kappa)
    neg = gains[idx]
    np.negative(neg, out=neg)
    perm = np.argsort(neg, kind="stable")
    del neg
    return idx[perm]


def greedy_select_arrays(
    gains: np.ndarray,
    splits: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    kappa: float,
    max_accept: Optional[int] = None,
) -> list[int]:
    """Candidate indices accepted by greedy selection, in acceptance order.

    Candidates are visited by decreasing gain (ties keep input order); a
    candidate is accepted iff its gain exceeds ``kappa`` and its interval's
    interior contains no previously accepted point.  This one-pass scan is
    exactly the iterative pick-max / eliminate loop.  ``max_accept`` stops
    after that many acceptances (the accepted prefix is unaffected).
    """
    if not kappa >= 0:
        raise ValueError(f"threshold must be >= 0, got {kappa}")
    return _eliminate(_by_decreasing_gain(gains, kappa), splits, lefts, rights, max_accept)


def not_select_arrays(
    gains: np.ndarray,
    splits: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    kappa: float,
    inclusive: bool = False,
) -> list[int]:
    """Candidate indices accepted by narrowest-over-threshold selection.

    Qualifying candidates (gain > kappa, or >= kappa when ``inclusive``) are
    visited by (length, left, split); the same elimination rule as greedy
    applies.
    """
    if not kappa >= 0:
        raise ValueError(f"threshold must be >= 0, got {kappa}")
    qual = gains >= kappa if inclusive else gains > kappa
    idx = np.nonzero(qual)[0]
    lengths = rights[idx] - lefts[idx]
    order = idx[np.lexsort((splits[idx], lefts[idx], lengths))]
    return _eliminate(order, splits, lefts, rights)


class SolutionPath:
    """Ordered (threshold, segmentation) pairs for decreasing thresholds.

    Greedy paths are nested and stored incrementally (one added point per
    entry), so a full path over O(T) candidates needs O(T) memory; general
    paths store explicit segmentations.
    """

    def __init__(
        self,
        thresholds: Sequence[float],
        *,
        increments: Optional[Sequence[int]] = None,
        segmentations: Optional[Sequence[tuple[int, ...]]] = None,
    ):
        if (increments is None) == (segmentations is None):
            raise ValueError("provide exactly one of increments / segmentations")
        self.thresholds = np.asarray(thresholds, dtype=float)
        self._increments = (
            np.asarray(increments, dtype=np.int64) if increments is not None else None
        )
        self._segmentations = list(segmentations) if segmentations is not None else None
        n = len(self.thresholds)
        stored = len(self._increments) if self._increments is not None else len(self._segmentations)
        if n != stored:
            raise ValueError("thresholds and segmentations disagree in length")

    @property
    def nested(self) -> bool:
        return self._increments is not None

    @property
    def increments(self) -> np.ndarray:
        if self._increments is None:
            raise ValueError("not a nested path")
        return self._increments

    def __len__(self) -> int:
        return len(self.thresholds)

    def changepoints_at(self, i: int) -> tuple[int, ...]:
        """Change points of the ``i``-th path entry (0-based)."""
        if self._increments is not None:
            return tuple(sorted(int(s) for s in self._increments[: i + 1]))
        return self._segmentations[i]


def greedy_path_arrays(
    gains: np.ndarray,
    splits: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    max_breaks: Optional[int] = None,
) -> SolutionPath:
    """Full greedy solution path (threshold 0), nested by construction.

    Entry i holds the model after the (i+1)-th acceptance, with the
    accepted gain as its threshold.  ``max_breaks`` truncates the path
    after that many acceptances; the retained prefix is identical to the
    untruncated path's.
    """
    acc = greedy_select_arrays(gains, splits, lefts, rights, 0.0, max_accept=max_breaks)
    return SolutionPath(thresholds=gains[acc], increments=splits[acc])


def not_path_arrays(
    gains: np.ndarray,
    splits: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
) -> SolutionPath:
    """Narrowest-over-threshold path over all distinct candidate gains.

    Entry with threshold g is the selection for any kappa just below g;
    adjacent duplicate segmentations are collapsed (first threshold kept).
    Every distinct gain costs one elimination scan, so the work is quadratic
    in the number of candidates; the path need not be nested.
    """
    distinct = np.unique(gains[gains > 0.0])[::-1]
    # one shared (length, left, split) order; each threshold scan filters it
    lengths = rights - lefts
    order = np.lexsort((splits, lefts, lengths))
    gains_ordered = gains[order]
    thresholds: list[float] = []
    segs: list[tuple[int, ...]] = []
    for g in distinct:
        accepted = _eliminate(order[gains_ordered >= g], splits, lefts, rights)
        seg = tuple(sorted(splits[accepted].tolist()))
        if not segs or seg != segs[-1]:
            thresholds.append(float(g))
            segs.append(seg)
    return SolutionPath(thresholds=thresholds, segmentations=segs)


@dataclass(frozen=True)
class Penalty:
    """Model-size penalty; PEN(S + one point) - PEN(S) is O(1) for all kinds.

    Kinds: ``constant`` charges alpha per break; ``bic`` charges
    2 * sigma_sq * log(T) per break; ``ssic`` charges (log T)**theta per
    break on top of the Gaussian log-RSS data term (handled in
    :func:`ic_score`).
    """

    kind: str
    alpha: float = 1.0
    theta: float = 1.01
    sigma_sq: float = 1.0

    _KINDS = ("constant", "bic", "ssic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}, expected one of {self._KINDS}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.theta) and self.theta > 1):
            raise ValueError(f"ssic exponent theta must be finite and > 1, got {self.theta}")
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq >= 0):
            raise ValueError(f"sigma_sq must be finite and >= 0, got {self.sigma_sq}")

    @classmethod
    def constant(cls, alpha: float) -> "Penalty":
        return cls(kind="constant", alpha=alpha)

    @classmethod
    def bic(cls, sigma_sq: float) -> "Penalty":
        return cls(kind="bic", sigma_sq=sigma_sq)

    @classmethod
    def ssic(cls, theta: float = 1.01) -> "Penalty":
        return cls(kind="ssic", theta=theta)

    @property
    def additive(self) -> bool:
        """True when the criterion is RSS + PEN (usable by the exact solver)."""
        return self.kind in ("constant", "bic")

    def per_break(self, length: int) -> float:
        if self.kind == "constant":
            return self.alpha
        if self.kind == "bic":
            return 2.0 * self.sigma_sq * math.log(length)
        return math.log(length) ** self.theta


def _scores(penalty: Penalty, rss: np.ndarray, sizes: np.ndarray, T: int) -> np.ndarray:
    """Criterion values of models with the given RSS and change point counts.

    ``ssic`` is degenerate on a perfect fit (RSS = 0): such models score
    -inf, with one warning however many there are.
    """
    pen = sizes * penalty.per_break(T)
    if penalty.kind != "ssic":
        return rss + pen
    fitted = rss > 0.0
    if not fitted.all():
        warnings.warn(
            "ssic is degenerate on a perfectly fitted segmentation (RSS = 0);"
            " returning -inf",
            RuntimeWarning,
            stacklevel=3,
        )
    with np.errstate(divide="ignore"):
        return np.where(fitted, 0.5 * T * np.log(rss / T) + pen, -math.inf)


def _rss(ps: PrefixSums, changepoints: Sequence[int]) -> float:
    """Total RSS of a segmentation, its segments summed left to right."""
    bounds = np.array((0, *changepoints, ps.length))
    return sum(ps.segment_rss(bounds[:-1], bounds[1:]).tolist())


def ic_score(ps: PrefixSums, seg: Segmentation, penalty: Penalty) -> float:
    """Information criterion value of a segmentation.

    Additive kinds score RSS + PEN; ``ssic`` scores
    (T/2) log(RSS/T) + |S| (log T)**theta.
    """
    rss = np.array([_rss(ps, seg.changepoints)])
    return float(_scores(penalty, rss, np.array([len(seg)]), ps.length)[0])


def _insertion_neighbours(points: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of the distinct ``points``, its nearest earlier points below
    and above (0 and ``T`` where there is none).

    One reverse pass unlinks the points from a sorted linked list; when a
    point is unlinked, the list holds exactly the points before it.
    """
    n = len(points)
    order = np.argsort(points)
    values = np.concatenate(([0], points[order], [T]))
    slot = np.empty(n, dtype=np.int64)
    slot[order] = np.arange(1, n + 1)  # list node of each point
    prev = list(range(-1, n + 1))
    succ = list(range(1, n + 3))
    lo = [0] * n
    hi = [0] * n
    for i, k in zip(range(n - 1, -1, -1), slot[::-1].tolist()):
        p, q = prev[k], succ[k]
        lo[i], hi[i] = p, q
        succ[p], prev[q] = q, p
    return values[lo], values[hi]


def select_by_ic(path: SolutionPath, ps: PrefixSums, penalty: Penalty) -> Segmentation:
    """Best path entry (or the empty segmentation) under the criterion.

    Ties pick the model with fewer change points, then the earlier entry.
    Nested paths are scored in one pass: each increment's neighbours at
    the moment it was added give its O(1) RSS change, and the RSS of every
    entry is the cumulative sum of those changes.  General paths are
    scored entry by entry.

    For ``ssic`` the comparison is restricted to models with at most
    ceil(T/2) change points: the log-RSS data term diverges to -inf on
    saturated fits, so an unrestricted minimum degenerates to the largest
    model on the path.  Additive criteria are unrestricted.
    """
    T = ps.length
    cap = (T + 1) // 2 if penalty.kind == "ssic" else T
    rss0 = ps.segment_rss(0, T)
    if path.nested:
        points = path.increments[:cap]
        lo, hi = _insertion_neighbours(points, T)
        deltas = (
            ps.segment_rss(lo, points) + ps.segment_rss(points, hi) - ps.segment_rss(lo, hi)
        )
        rss = np.maximum(np.cumsum(np.concatenate(([rss0], deltas))), 0.0)
        sizes = np.arange(len(points) + 1)
        entries = range(len(points))
    else:
        entries = [i for i in range(len(path)) if len(path.changepoints_at(i)) <= cap]
        models = [path.changepoints_at(i) for i in entries]
        rss = np.array([rss0] + [_rss(ps, cps) for cps in models])
        sizes = np.array([0] + [len(cps) for cps in models])
    best = int(np.lexsort((sizes, _scores(penalty, rss, sizes, T)))[0])
    return fit_segmentation(ps, path.changepoints_at(entries[best - 1]) if best else ())


def auto_threshold(length: int, sigma_hat: float, scale: float = 1.3) -> float:
    """Detection threshold ``scale * sigma_hat * sqrt(2 log T)``."""
    if length < 2:
        raise ValueError("series length must be >= 2")
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be >= 0")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    return scale * sigma_hat * math.sqrt(2.0 * math.log(length))


def estimate_noise_sd(series: Sequence[float]) -> float:
    """Robust noise scale: median |first difference| / (sqrt(2) * 0.6745).

    Insensitive to a small number of mean shifts since each contributes a
    single outlying difference.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two observations")
    return float(np.median(np.abs(np.diff(x)))) / (math.sqrt(2.0) * _MAD_SCALE)
