"""Deterministic seeded search intervals and the random-interval baseline.

Seeded intervals form a multiscale system of background intervals: layer k
holds ``n_k = 2*ceil((1/a)**(k-1)) - 1`` intervals of nominal length
``l_k = T * a**(k-1)``, evenly shifted by ``s_k = (T - l_k) / (n_k - 1)``.
The decay ``a`` in [1/2, 1) trades total search length (computational cost)
against interval density (statistical precision).  Random intervals with
uniformly drawn endpoints are provided as the classical baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_DECAY",
    "IntervalArrays",
    "SeededParams",
    "num_layers",
    "random_interval_arrays",
    "seeded_interval_arrays",
    "total_interval_length",
]

# Recommended decay: a compromise between the dyadic system (a = 1/2) and
# denser layerings; each scale is visited twice as often as with a = 1/2.
# Layer counts and endpoints are rounded directly on the double-precision
# values (no epsilon snapping), so the layout is sensitive to the last ulp
# of the decay; this quotient (one ulp below the correctly rounded
# 2**-0.5, and platform-stable since IEEE sqrt and division are exactly
# rounded) is the value the customary total-length accounting assumes.
DEFAULT_DECAY = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, slots=True)
class SeededParams:
    """Parameters of a seeded interval collection."""

    length: int                    # series length T
    decay: float = DEFAULT_DECAY   # a in [1/2, 1)
    min_length: int = 2            # minimal covered observations m

    def __post_init__(self):
        if self.length < 2:
            raise ValueError(f"series length must be >= 2, got {self.length}")
        if not 0.5 <= self.decay < 1.0:
            raise ValueError(f"decay must lie in [1/2, 1), got {self.decay}")
        if not 2 <= self.min_length <= self.length:
            raise ValueError(f"min_length must lie in [2, {self.length}], got {self.min_length}")


class IntervalArrays(NamedTuple):
    """Columnar interval collection: interval i is ``(lefts[i], rights[i]]``.

    ``layers[i]`` is the 1-based seeded layer that generated it, or -1 for
    a random interval.
    """

    lefts: np.ndarray
    rights: np.ndarray
    layers: np.ndarray

    def __len__(self) -> int:
        return len(self.lefts)


def num_layers(length: int, decay: float) -> int:
    """Number of seeded layers, ``ceil(log_{1/a}(T))``.

    Computed by repeated multiplication: the smallest k with
    T * a**k <= 1 in double precision.
    """
    if length < 2:
        raise ValueError(f"series length must be >= 2, got {length}")
    if not 0.5 <= decay < 1.0:
        raise ValueError(f"decay must lie in [1/2, 1), got {decay}")
    k = 0
    scale = float(length)
    while scale > 1.0:
        scale *= decay
        k += 1
    return max(k, 1)


def seeded_interval_arrays(params: SeededParams) -> IntervalArrays:
    """Deduplicated seeded intervals, sorted by (layer, left).

    Intervals covering fewer than ``params.min_length`` observations are
    discarded; exact duplicates keep their lowest-layer occurrence.

    Duplicates are dropped layer by layer, so the pre-deduplication system
    (about 2T/(1-a) intervals, mostly repeats in the finest layers) is
    never held: peak memory is one layer's temporaries plus under twice
    the bytes of the returned arrays.
    """
    T = params.length
    a = params.decay
    m = params.min_length
    # Kept endpoints are held narrow and widened to int64 once at the end.
    narrow = np.int32 if T < np.iinfo(np.int32).max else np.int64
    lefts_parts, rights_parts, counts = [], [], []
    # length -> sorted lefts kept so far at that length.  A repeat of an
    # earlier layer's interval has its length, so only that entry is searched.
    seen: dict[int, np.ndarray] = {}
    for k in range(1, num_layers(T, a) + 1):
        count = 2 * math.ceil((1.0 / a) ** (k - 1)) - 1     # n_k
        nominal = T * a ** (k - 1)                          # l_k
        shift = (T - nominal) / (count - 1) if count > 1 else 0.0  # s_k
        # Rounded lengths never exceed ceil(l_k) + 1; once that is below m
        # the layer (and every later, shorter one) contributes nothing.
        bound = math.ceil(nominal) + 1
        if bound < m:
            break
        # Longer kept intervals cannot recur in this or any later layer.
        for length in [n for n in seen if n > bound]:
            del seen[length]
        starts = np.arange(count) * shift
        lefts = np.floor(starts).astype(narrow)
        rights = np.minimum(np.ceil(starts + nominal).astype(narrow), T)
        del starts
        lengths = rights - lefts
        keep = lengths >= m
        # Lefts and rights never decrease within a layer, so a repeat inside
        # the layer is adjacent to its first occurrence.
        keep[1:] &= (lefts[1:] != lefts[:-1]) | (rights[1:] != rights[:-1])
        # A layer's lengths span a few values, so bincount finds them in
        # linear time.
        low = int(lengths.min())
        for length in (np.flatnonzero(np.bincount(lengths - low)) + low).tolist():
            pos = np.flatnonzero(keep & (lengths == length))
            if len(pos) == 0:
                continue
            new = lefts[pos]
            kept = seen.get(length)
            if kept is None:
                seen[length] = new
                continue
            at = np.searchsorted(kept, new)
            repeat = kept[np.minimum(at, len(kept) - 1)] == new
            keep[pos[repeat]] = False
            fresh = ~repeat
            seen[length] = np.insert(kept, at[fresh], new[fresh])
        lefts_parts.append(lefts[keep])
        rights_parts.append(rights[keep])
        counts.append(len(lefts_parts[-1]))
    # Layer 1 is (0, T], which min_length <= T keeps, so no part list is empty.
    return IntervalArrays(
        np.concatenate(lefts_parts, dtype=np.int64),
        np.concatenate(rights_parts, dtype=np.int64),
        np.repeat(np.arange(1, len(counts) + 1, dtype=np.int64), counts),
    )


def random_interval_arrays(
    length: int, count: int, min_length: int = 2, seed: int = 0
) -> IntervalArrays:
    """``count`` random intervals with endpoints uniform on {0, ..., T}.

    Reproducible bit-exactly for a fixed seed (PCG64 generator).
    """
    if length < 2:
        raise ValueError(f"series length must be >= 2, got {length}")
    if count < 0:
        raise ValueError(f"interval count must be >= 0, got {count}")
    if not 2 <= min_length <= length:
        raise ValueError(f"min_length must lie in [2, {length}], got {min_length}")
    rng = np.random.default_rng(seed)
    lefts = np.empty(count, dtype=np.int64)
    rights = np.empty(count, dtype=np.int64)
    for i in range(count):
        # Endpoints uniform on {0, ..., T}; the pair is redrawn as a whole
        # until it covers at least min_length observations.
        while True:
            left = int(rng.integers(0, length + 1))
            right = int(rng.integers(0, length + 1))
            if right - left >= min_length:
                break
        lefts[i] = left
        rights[i] = right
    layers = np.full(count, -1, dtype=np.int64)
    return IntervalArrays(lefts, rights, layers)


def total_interval_length(intervals: IntervalArrays) -> int:
    """Sum of interval lengths, the driver of search cost."""
    return int(intervals.rights.sum()) - int(intervals.lefts.sum())
