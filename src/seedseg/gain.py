"""Prefix-sum precomputation and CUSUM gain evaluation over intervals.

The CUSUM statistic at split ``s`` inside ``(left, right]`` with ``n = right
- left`` is::

    sqrt((right-s) / (n*(s-left)))  * sum(x[left:s])
  - sqrt((s-left) / (n*(right-s))) * sum(x[s:right])

so its square equals the reduction in residual sum of squares obtained by
fitting separate means left and right of the split.  With prefix sums each
evaluation is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["PrefixSums", "best_splits_arrays", "cusum", "prefix_sums"]

# Splits evaluated per numpy pass of ``best_splits_arrays``: large enough
# to amortise the pass, small enough that its temporaries stay a few MB.
_BLOCK = 32_768
# Intervals checked and grouped by length at a time, so the grouping's
# temporaries stay a few MB however many intervals there are.
_SLICE = 65_536


@dataclass(frozen=True)
class PrefixSums:
    """Cumulative sums S and squared sums Q of a series; S[0] = Q[0] = 0."""

    sums: np.ndarray
    sq_sums: np.ndarray

    @property
    def length(self) -> int:
        return len(self.sums) - 1

    def segment_rss(self, left, right):
        """Residual sum of squares of the single-mean fit on (left, right].

        Bounds are ints (returns a float) or equal-length integer arrays
        (returns an array, element ``i`` for ``(left[i], right[i]]``); both
        forms do the same floating-point operations, so they agree exactly.
        Cancellation below zero is clipped to 0.
        """
        s = self.sums[right] - self.sums[left]
        q = self.sq_sums[right] - self.sq_sums[left]
        rss = np.maximum(q - s * s / (right - left), 0.0)
        return rss if rss.ndim else float(rss)


def prefix_sums(series: Sequence[float]) -> PrefixSums:
    """Precompute prefix sums of a series and of its squares.

    Raises ``ValueError`` on empty or non-finite input.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("series must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
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


def _length_groups(
    lefts: np.ndarray, rights: np.ndarray, T: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(n, indices) of every run of equal-length intervals, slice by slice.

    Each slice of ``_SLICE`` intervals is checked and grouped on its own:
    one stable argsort of its lengths, cut where the sorted length
    changes.  Indices are into the whole columns, ascending in a group.
    """
    for first in range(0, len(lefts), _SLICE):
        lo, hi = lefts[first : first + _SLICE], rights[first : first + _SLICE]
        lengths = hi - lo
        if lo.min() < 0 or hi.max() > T or lengths.min() < 2:
            raise ValueError("invalid interval bounds for this series")
        order = np.argsort(lengths, kind="stable")
        lengths = lengths[order]
        order += first
        cuts = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, len(order)]):
            yield int(lengths[start]), order[start:stop]


def best_splits_arrays(
    ps: PrefixSums, lefts: np.ndarray, rights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best split of each interval ``(lefts[i], rights[i]]``; returns (splits, gains).

    ``splits[i]`` maximises ``|cusum|`` over the interval's interior splits
    (ties go to the smallest split) and ``gains[i]`` is that maximum.
    Raises ``ValueError`` unless ``lefts`` and ``rights`` are 1-d and of
    equal length and every interval has ``0 <= left``, ``right <= T`` and
    at least one interior split (``right - left >= 2``).

    Intervals are taken in slices of ``_SLICE`` and, within a slice, in
    groups of equal length, so the total work is proportional to the total
    interval length, with one numpy pass per block of at most ``_BLOCK``
    splits: several rows of a group, or one column block of an interval
    with more than ``_BLOCK`` splits, whose running maximum is replaced
    only by a strictly greater one.  All blocks share three
    ``_BLOCK``-sized buffers, so above its inputs and outputs the
    evaluation holds a working set of fixed size (about 4 MB with the
    default sizes), whatever the number of intervals or the series length.
    Results are independent of the slicing and the blocking.
    """
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    if lefts.ndim != 1 or rights.ndim != 1 or len(lefts) != len(rights):
        raise ValueError("lefts and rights must be 1-d arrays of equal length")
    splits = np.empty(len(lefts), dtype=np.int64)
    gains = np.empty(len(lefts))
    S = ps.sums
    # Every block works in these three buffers.  Fresh block-sized
    # temporaries would be handed back to the OS and page-faulted in again
    # on every block.
    idx_buf = np.empty(_BLOCK, dtype=np.int64)
    left_buf, right_buf = np.empty(_BLOCK), np.empty(_BLOCK)
    for n, group in _length_groups(lefts, rights, ps.length):
        cols = min(n - 1, _BLOCK)
        rows = _BLOCK // cols
        for first in range(1, n, cols):
            offs = np.arange(first, min(first + cols, n))
            left_n = offs.astype(float)
            right_n = (n - offs).astype(float)
            w_left = np.sqrt(right_n / (n * left_n))
            w_right = np.sqrt(left_n / (n * right_n))
            for start in range(0, len(group), rows):
                sel = group[start : start + rows]
                l = lefts[sel]
                shape = (len(sel), len(offs))
                cells = shape[0] * shape[1]
                s_idx = np.add(l[:, None], offs[None, :], out=idx_buf[:cells].reshape(shape))
                # mode="clip" lets take fill ``out`` directly; s_idx is in range
                sum_left = np.take(S, s_idx, out=left_buf[:cells].reshape(shape), mode="clip")
                sum_left -= S[l, None]
                sum_right = np.take(S, s_idx, out=right_buf[:cells].reshape(shape), mode="clip")
                np.subtract(S[l + n, None], sum_right, out=sum_right)
                sum_left *= w_left
                sum_right *= w_right
                sum_left -= sum_right
                values = np.abs(sum_left, out=sum_left)
                j = np.argmax(values, axis=1)
                best = values[np.arange(len(sel)), j]
                # a later column block (of a single row) replaces the running
                # maximum only where one argmax over the whole row would:
                # strictly greater, and NaN counts as the largest
                if first == 1 or np.argmax((gains[sel[0]], best[0])):
                    splits[sel] = l + first + j
                    gains[sel] = best
    return splits, gains
