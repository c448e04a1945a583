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
from typing import Sequence

import numpy as np

__all__ = ["PrefixSums", "best_splits_arrays", "cusum", "prefix_sums"]

# Splits evaluated per numpy pass of ``best_splits_arrays``: large enough
# to amortise the pass, small enough that its temporaries stay a few MB.
_BLOCK = 32_768


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


def best_splits_arrays(
    ps: PrefixSums, lefts: np.ndarray, rights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best split of each interval ``(lefts[i], rights[i]]``; returns (splits, gains).

    ``splits[i]`` maximises ``|cusum|`` over the interval's interior splits
    (ties go to the smallest split) and ``gains[i]`` is that maximum.
    Raises ``ValueError`` unless every interval has ``0 <= left``,
    ``right <= T`` and at least one interior split (``right - left >= 2``).

    Intervals are processed in groups of equal length so the total work is
    proportional to the total interval length, with one numpy pass per
    row block of a group instead of one per interval.  A block holds about
    ``_BLOCK`` splits (one row if an interval has more), and all blocks
    share three buffers, so the temporaries stay near
    ``max(_BLOCK, longest interval)`` splits whatever the system's size.
    Results are independent of the grouping and the blocking.
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
    distinct = np.unique(lengths).tolist()
    # Every block works in these three buffers.  Fresh block-sized
    # temporaries would be handed back to the OS and page-faulted in again
    # on every block.
    size = max(_BLOCK, distinct[-1] - 1)
    idx_buf, left_buf, right_buf = np.empty(size, dtype=np.int64), np.empty(size), np.empty(size)
    for n in distinct:
        group = np.nonzero(lengths == n)[0]
        offs = np.arange(1, n)
        left_n = offs.astype(float)
        right_n = (n - offs).astype(float)
        w_left = np.sqrt(right_n / (n * left_n))
        w_right = np.sqrt(left_n / (n * right_n))
        rows = max(1, _BLOCK // (n - 1))
        for start in range(0, len(group), rows):
            sel = group[start:start + rows]
            l = lefts[sel]
            cells = len(sel) * (n - 1)
            s_idx = np.add(l[:, None], offs[None, :], out=idx_buf[:cells].reshape(-1, n - 1))
            # mode="clip" lets take fill ``out`` directly; s_idx is in range
            sum_left = np.take(S, s_idx, out=left_buf[:cells].reshape(-1, n - 1), mode="clip")
            sum_left -= S[l, None]
            sum_right = np.take(S, s_idx, out=right_buf[:cells].reshape(-1, n - 1), mode="clip")
            np.subtract(S[l + n, None], sum_right, out=sum_right)
            sum_left *= w_left
            sum_right *= w_right
            sum_left -= sum_right
            values = np.abs(sum_left, out=sum_left)
            j = np.argmax(values, axis=1)
            splits[sel] = l + 1 + j
            gains[sel] = values[np.arange(len(sel)), j]
    return splits, gains
