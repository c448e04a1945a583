"""Slow reference implementations for tests and benchmark cross-checks.

Kept out of the main pipeline so the library itself carries no O(T^2)
code path; imported only by the test suite and the ``bench --oracle``
mode.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from seedseg.gain import PrefixSums
from seedseg.select import Penalty, Segmentation, fit_segmentation

__all__ = ["dp_exact", "naive_cusum", "naive_greedy", "naive_not"]


def naive_cusum(series: Sequence[float], left: int, right: int, split: int) -> float:
    """CUSUM by direct summation; independent of the prefix-sum path."""
    x = np.asarray(series, dtype=float)
    if not (0 <= left < right <= len(x)) or right - left < 2:
        raise ValueError(f"invalid interval ({left}, {right}]")
    if not left < split < right:
        raise ValueError(f"split {split} outside open range ({left}, {right})")
    n = right - left
    left_n = split - left
    right_n = right - split
    sum_left = float(np.sum(x[left:split]))
    sum_right = float(np.sum(x[split:right]))
    return math.sqrt(right_n / (n * left_n)) * sum_left - math.sqrt(
        left_n / (n * right_n)
    ) * sum_right


def _pick_and_eliminate(
    alive: list[int], key: Callable, splits, lefts, rights, limit: Optional[int] = None
) -> list[int]:
    # accept the key-minimal survivor, drop every survivor whose open
    # interior holds its split, repeat
    accepted: list[int] = []
    while alive and (limit is None or len(accepted) < limit):
        j = min(alive, key=key)
        accepted.append(j)
        s = splits[j]
        alive = [i for i in alive if i != j and not lefts[i] < s < rights[i]]
    return accepted


def naive_greedy(
    gains, splits, lefts, rights, kappa: float, max_accept: Optional[int] = None
) -> list[int]:
    """Greedy selection by literal pick-max / eliminate, O(n^2).

    Takes the surviving candidate of largest gain above ``kappa`` (lowest
    index among equal gains) until none is left or ``max_accept`` are taken;
    returns candidate indices in acceptance order.
    """
    alive = [j for j, g in enumerate(gains) if g > kappa]
    return _pick_and_eliminate(alive, lambda j: (-gains[j], j), splits, lefts, rights, max_accept)


def naive_not(gains, splits, lefts, rights, kappa: float, inclusive: bool = False) -> list[int]:
    """Narrowest-over-threshold selection by literal narrowest-first pick, O(n^2).

    Qualifying candidates have gain > ``kappa`` (>= when ``inclusive``); the
    narrowest survivor is taken first, then the leftmost, the smallest
    split and the lowest index.
    """
    alive = [j for j, g in enumerate(gains) if (g >= kappa if inclusive else g > kappa)]
    return _pick_and_eliminate(
        alive, lambda j: (rights[j] - lefts[j], lefts[j], splits[j], j), splits, lefts, rights
    )


def dp_exact(
    ps: PrefixSums,
    penalty: Penalty,
    min_seg: int = 1,
    max_length: int = 5000,
) -> Segmentation:
    """Global minimiser of RSS + PEN over all segmentations, by O(T^2) DP.

    Only additive penalties are supported (``constant``, ``bic``); ``ssic``
    has a non-additive data term.  Ties prefer fewer change points, then
    the lexicographically smallest change point sequence: a first break is
    taken only when strictly cheaper than none.  Segments must contain at
    least ``min_seg`` observations, and all segment RSS comes from
    :meth:`PrefixSums.segment_rss`.
    """
    if not penalty.additive:
        raise ValueError(f"dp_exact supports additive penalties only, not {penalty.kind!r}")
    T = ps.length
    if T > max_length:
        raise ValueError(f"series length {T} exceeds the dp_exact cap {max_length}")
    if not 1 <= min_seg <= T:
        raise ValueError(f"min_seg must lie in 1..{T}")
    beta = penalty.per_break(T)
    # Suffix DP: best[i] = minimal penalized cost of segmenting (i, T],
    # counting beta per break strictly inside (i, T].  Ties minimise the
    # break count; choice[i] records the smallest optimal first break (or
    # -1 for none), which makes front-to-back reconstruction produce the
    # lexicographically smallest optimal change point sequence.
    best = np.full(T + 1, np.inf)
    counts = np.zeros(T + 1, dtype=np.int64)
    choice = np.full(T + 1, -1, dtype=np.int64)
    for i in range(T - min_seg, -1, -1):
        js = np.arange(i + min_seg, T + 1)  # admissible ends of the first segment
        seg_rss = ps.segment_rss(i, js)
        best[i] = seg_rss[-1]  # no break
        inner = js[:-1]
        if len(inner):
            # best[j] stays inf where (j, T] is shorter than min_seg
            cand = seg_rss[:-1] + beta + best[inner]
            smin = cand.min()
            if smin < best[i]:
                tie = np.nonzero(cand == smin)[0]
                k = tie[np.argmin(counts[inner[tie]])]  # argmin returns the first, smallest break
                best[i] = smin
                counts[i] = counts[inner[k]] + 1
                choice[i] = inner[k]
    cps = []
    i = 0
    while choice[i] != -1:
        i = int(choice[i])
        cps.append(i)
    return fit_segmentation(ps, cps)
