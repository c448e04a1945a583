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
    """
    T = params.length
    a = params.decay
    m = params.min_length
    lefts_parts, rights_parts, layer_parts = [], [], []
    for k in range(1, num_layers(T, a) + 1):
        count = 2 * math.ceil((1.0 / a) ** (k - 1)) - 1     # n_k
        nominal = T * a ** (k - 1)                          # l_k
        shift = (T - nominal) / (count - 1) if count > 1 else 0.0  # s_k
        # Rounded lengths never exceed ceil(l_k) + 1; once that is below m
        # the layer (and every later, shorter one) contributes nothing.
        if math.ceil(nominal) + 1 < m:
            break
        starts = np.arange(count) * shift
        lefts = np.floor(starts).astype(np.int64)
        rights = np.minimum(np.ceil(starts + nominal).astype(np.int64), T)
        keep = rights - lefts >= m
        lefts_parts.append(lefts[keep])
        rights_parts.append(rights[keep])
        layer_parts.append(np.full(int(keep.sum()), k, dtype=np.int64))
    # Layer 1 is (0, T], which min_length <= T keeps, so no part list is empty.
    lefts = np.concatenate(lefts_parts)
    rights = np.concatenate(rights_parts)
    layers = np.concatenate(layer_parts)
    # Drop exact duplicates, keeping the first (lowest-layer) occurrence.
    # Generation order is (layer, left, right)-sorted already, so keeping
    # the sorted first-occurrence indices preserves the required ordering.
    codes = lefts * np.int64(T + 1) + rights
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return IntervalArrays(lefts[first], rights[first], layers[first])


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
    return int(np.sum(intervals.rights - intervals.lefts))
