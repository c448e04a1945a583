"""Prefix-sum precomputation and CUSUM gain evaluation over intervals.

The CUSUM statistic at split ``s`` inside ``(left, right]`` with ``n = right
- left`` is::

    sqrt((right-s) / (n*(s-left)))  * sum(x[left:s])
  - sqrt((s-left) / (n*(right-s))) * sum(x[s:right])

so its square equals the reduction in residual sum of squares obtained by
fitting separate means left and right of the split.  With prefix sums each
evaluation is O(1).  A pluggable :class:`GainEvaluator` hook allows other
statistics (different model fits) to be substituted without touching the
search or selection machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Union

import numpy as np

from seedseg.intervals import Interval, IntervalArrays

__all__ = [
    "Candidate",
    "CusumGainEvaluator",
    "GainEvaluator",
    "PrefixSums",
    "best_split",
    "best_split_bounds",
    "best_splits_arrays",
    "cusum",
    "evaluate_all",
    "prefix_sums",
]


@dataclass(frozen=True)
class PrefixSums:
    """Cumulative sums S and squared sums Q of a series; S[0] = Q[0] = 0."""

    sums: np.ndarray
    sq_sums: np.ndarray

    @property
    def length(self) -> int:
        return len(self.sums) - 1

    def segment_sum(self, left: int, right: int) -> float:
        return float(self.sums[right] - self.sums[left])

    def segment_rss(self, left: int, right: int) -> float:
        """Residual sum of squares of the single-mean fit on (left, right]."""
        n = right - left
        s = self.sums[right] - self.sums[left]
        q = self.sq_sums[right] - self.sq_sums[left]
        return max(float(q - s * s / n), 0.0)


def _compensated_cumsum(values: np.ndarray) -> np.ndarray:
    # Neumaier running compensation; the plain float64 cumsum is accurate
    # enough for the documented use, this path is opt-in.
    out = np.empty(len(values) + 1)
    out[0] = 0.0
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values, 1):
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out


def prefix_sums(series: Sequence[float], compensated: bool = False) -> PrefixSums:
    """Precompute prefix sums of a series and of its squares.

    Raises ``ValueError`` on empty or non-finite input.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("series must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    if compensated:
        sums = _compensated_cumsum(x)
        sq_sums = _compensated_cumsum(x * x)
    else:
        sums = np.concatenate(([0.0], np.cumsum(x)))
        sq_sums = np.concatenate(([0.0], np.cumsum(x * x)))
    sums.setflags(write=False)
    sq_sums.setflags(write=False)
    return PrefixSums(sums=sums, sq_sums=sq_sums)


def cusum(ps: PrefixSums, left: int, right: int, split):
    """CUSUM statistic at ``split`` (scalar or array) inside ``(left, right]``.

    ``cusum**2`` equals the RSS reduction of splitting there exactly.
    """
    T = ps.length
    if not (0 <= left < right <= T) or right - left < 2:
        raise ValueError(f"invalid interval ({left}, {right}] for series of length {T}")
    s = np.asarray(split)
    if np.any((s <= left) | (s >= right)):
        raise ValueError(f"split must lie strictly inside ({left}, {right})")
    n = right - left
    left_n = (s - left).astype(float)
    right_n = (right - s).astype(float)
    sum_left = ps.sums[s] - ps.sums[left]
    sum_right = ps.sums[right] - ps.sums[s]
    value = np.sqrt(right_n / (n * left_n)) * sum_left - np.sqrt(left_n / (n * right_n)) * sum_right
    return value if value.ndim else float(value)


@dataclass(frozen=True, slots=True)
class Candidate:
    """An interval together with its best split and maximal absolute gain."""

    interval: Interval
    split: int
    gain: float

    def __post_init__(self):
        if not self.interval.left < self.split < self.interval.right:
            raise ValueError(
                f"split {self.split} outside interval "
                f"({self.interval.left}, {self.interval.right}]"
            )
        if not self.gain >= 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")


class GainEvaluator(Protocol):
    """Contract for pluggable per-interval scoring.

    ``best_split(left, right)`` returns the strictly interior split with the
    maximal non-negative gain for the interval ``(left, right]``, breaking
    ties deterministically.
    """

    def best_split(self, left: int, right: int) -> tuple[int, float]: ...


def best_split_bounds(ps: PrefixSums, left: int, right: int) -> tuple[int, float]:
    """(split, gain) maximising |cusum| over interior splits; ties -> smallest split."""
    splits = np.arange(left + 1, right)
    values = np.abs(cusum(ps, left, right, splits))
    j = int(np.argmax(values))
    return int(splits[j]), float(values[j])


@dataclass(frozen=True)
class CusumGainEvaluator:
    """Default CUSUM-based :class:`GainEvaluator`."""

    ps: PrefixSums

    def best_split(self, left: int, right: int) -> tuple[int, float]:
        return best_split_bounds(self.ps, left, right)


def best_split(ps: PrefixSums, interval: Interval) -> Candidate:
    """Best-split candidate of one interval."""
    split, gain = best_split_bounds(ps, interval.left, interval.right)
    return Candidate(interval=interval, split=split, gain=gain)


def best_splits_arrays(
    ps: PrefixSums, lefts: np.ndarray, rights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised best splits for many intervals; returns (splits, gains).

    Intervals are processed in groups of equal length so the total work is
    proportional to the total interval length, with one numpy pass per
    group instead of one per interval.  Results are independent of the
    grouping and match :func:`best_split_bounds` exactly.
    """
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    T = ps.length
    if len(lefts) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if lefts.min() < 0 or rights.max() > T or (rights - lefts).min() < 2:
        raise ValueError("invalid interval bounds for this series")
    splits = np.empty(len(lefts), dtype=np.int64)
    gains = np.empty(len(lefts))
    lengths = rights - lefts
    S = ps.sums
    for n in np.unique(lengths):
        sel = np.nonzero(lengths == n)[0]
        l = lefts[sel]
        offs = np.arange(1, n)
        left_n = offs.astype(float)
        right_n = (n - offs).astype(float)
        w_left = np.sqrt(right_n / (n * left_n))
        w_right = np.sqrt(left_n / (n * right_n))
        s_idx = l[:, None] + offs[None, :]
        sum_left = S[s_idx] - S[l, None]
        sum_right = S[l + n, None] - S[s_idx]
        values = np.abs(w_left[None, :] * sum_left - w_right[None, :] * sum_right)
        j = np.argmax(values, axis=1)
        splits[sel] = l + 1 + j
        gains[sel] = values[np.arange(len(sel)), j]
    return splits, gains


def evaluate_all(
    ps: PrefixSums,
    intervals: Union[Sequence[Interval], IntervalArrays],
    evaluator: Optional[GainEvaluator] = None,
) -> list[Candidate]:
    """One best-split candidate per interval, in input order.

    With ``evaluator`` given, every interval is scored through the generic
    :class:`GainEvaluator` contract; otherwise the vectorised CUSUM path is
    used.
    """
    if isinstance(intervals, IntervalArrays):
        objs = [
            Interval(int(l), int(r), int(k) if k >= 0 else "random")
            for l, r, k in zip(intervals.lefts, intervals.rights, intervals.layers)
        ]
        lefts, rights = intervals.lefts, intervals.rights
    else:
        objs = list(intervals)
        lefts = np.fromiter((iv.left for iv in objs), dtype=np.int64, count=len(objs))
        rights = np.fromiter((iv.right for iv in objs), dtype=np.int64, count=len(objs))
    if evaluator is not None:
        out = []
        for iv in objs:
            split, gain = evaluator.best_split(iv.left, iv.right)
            out.append(Candidate(interval=iv, split=split, gain=gain))
        return out
    splits, gains = best_splits_arrays(ps, lefts, rights)
    return [
        Candidate(interval=iv, split=int(s), gain=float(g))
        for iv, s, g in zip(objs, splits, gains)
    ]
