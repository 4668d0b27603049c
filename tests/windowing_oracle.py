"""Whole-array threshold and window counts, the reference for the chunked code.

``resolve_threshold`` is ``np.percentile`` over every sample at once and
``extract_counts`` takes one cumulative sum of edges over the whole signal.
The chunked implementations in ``aeburst.windowing`` must reproduce both
exactly, so the tests compare them with ``==``.  ``count_crossings`` counts
one segment's crossings on its own, the reference for each window's count
and for an event's ringdown count.  ``entries`` pairs each window start
with its count, and ``per_sample`` and ``probability_of`` read a
probability field's per-cell values back onto the sample axis.
"""

import numpy as np

from aeburst.windowing import ThresholdPolicy, WindowedCounts, WindowSpec


def resolve_threshold(samples: np.ndarray, policy: ThresholdPolicy) -> float:
    if policy.kind == "fixed":
        return float(policy.value)
    values = np.abs(samples) if policy.rectify else samples.copy()
    return float(np.percentile(values, policy.value, overwrite_input=True))


def extract_counts(
    samples: np.ndarray, policy: ThresholdPolicy, spec: WindowSpec
) -> WindowedCounts:
    threshold = resolve_threshold(samples, policy)
    starts = spec.window_starts(samples.size)
    above = (np.abs(samples) if policy.rectify else samples) > threshold
    # Global upward edges; window-local index 0 is special-cased below.
    edges = np.empty(above.size, dtype=bool)
    edges[0] = above[0]
    np.greater(above[1:], above[:-1], out=edges[1:])
    cum = np.zeros(above.size + 1, dtype=np.int64)
    np.cumsum(edges, out=cum[1:])
    n = spec.length_n
    counts = (cum[starts + n] - cum[starts + 1]) + above[starts]
    return WindowedCounts(
        starts=starts, counts=counts.astype(np.int64), spec=spec, threshold=threshold
    )


def entries(windowed: WindowedCounts) -> list[tuple[int, int]]:
    """``(start, count)`` of every window, in window order."""
    return list(zip(windowed.starts.tolist(), windowed.counts.tolist()))


def per_sample(field, cell_values: np.ndarray) -> np.ndarray:
    """Per-cell values of a ``SampleProbabilityField`` repeated over each cell's samples."""
    return np.repeat(cell_values, np.diff(field.edges))


def probability_of(field, key) -> np.ndarray:
    """Per-sample probability of ``key`` in the field (zero for an absent key)."""
    return per_sample(field, field.probabilities.get(key, np.zeros(field.edges.size - 1)))


def count_crossings(segment: np.ndarray, threshold: float, rectify: bool = True) -> int:
    """Number of upward threshold crossings in a segment.

    A crossing is an index ``i > 0`` with ``v[i] > threshold`` and
    ``v[i-1] <= threshold``; a segment that starts above threshold
    contributes one crossing at index 0.
    """
    v = np.asarray(segment, dtype=np.float64)
    if v.size == 0:
        return 0
    if rectify:
        v = np.abs(v)
    above = v > threshold
    edges = int(np.count_nonzero(above[1:] & ~above[:-1]))
    return edges + int(above[0])
