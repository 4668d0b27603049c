"""Window-cell assignment probabilities, event boundaries, and AE features.

Window-level assignment probabilities are projected back onto the raw
time axis by averaging, per sample, the probability vectors of every
window covering it.  Window edges cut the axis into cells whose samples
share their windows, so the average is held once per cell and memory
follows the window count, not the recording length.  Maximal runs where
the non-noise probability clears a minimum become events, and each event
slice yields the classic AE features: ringdown count, peak amplitude,
rise time, duration, and energy.  Features are computed for a block of
equal-length rows at once, along axis 1; one event is the one-row block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dppmm import NOISE
from .windowing import Recording, WindowSpec, _stored_bound, _widened, runs

__all__ = [
    "SampleProbabilityField",
    "WaveformFeatures",
    "EventRecord",
    "average_probabilities",
    "segment_events",
    "block_features",
    "extract_features",
    "build_event_records",
]

# Cells per gather in ``average_probabilities``: with 64 keys, 2 MiB of rows.
_CELL_BLOCK = 4096


@dataclass(frozen=True)
class SampleProbabilityField:
    """Cluster probabilities over a waveform, one value per window cell.

    Cell ``j`` spans samples ``[edges[j], edges[j + 1])``; ``edges`` runs
    from 0 to the signal length.  ``coverage`` counts the windows covering
    each cell, and ``probabilities`` maps each cluster key (stable id, or
    ``None`` for the fresh-component route) to a float array over cells.
    Where coverage is zero every entry is zero; elsewhere each cell's
    vector sums to one.
    """

    edges: np.ndarray
    coverage: np.ndarray
    probabilities: dict[int | None, np.ndarray]

    def __len__(self) -> int:
        return int(self.edges[-1])


@dataclass(frozen=True)
class WaveformFeatures:
    """Classic per-event AE features, SI units throughout."""

    count: int
    peak_amplitude: float
    rise_time: float
    duration: float
    energy: float


@dataclass(frozen=True)
class EventRecord:
    """A segmented AE event on the raw time axis."""

    start_index: int
    end_index: int
    label: int
    mean_probability: float
    features: WaveformFeatures | None = None


def average_probabilities(
    table: np.ndarray,
    spec: WindowSpec,
    signal_len: int,
    columns: Sequence[int | None],
    index: np.ndarray,
) -> SampleProbabilityField:
    """Arithmetic mean of window probability vectors at every sample.

    Window ``w``'s vector is row ``index[w]`` of ``table``, whose columns
    are the keys of ``columns`` in the order the field keeps (``FitResult``'s
    ``table``, ``index`` and ``columns``: each window's row is the posterior
    predictive assignment of its count).  Window ``i`` covers samples
    ``[i*step, i*step + n)``.  Each covered sample averages the vectors of
    all windows containing it and is renormalised against accumulated
    rounding; coverage is recorded.  The windows covering a cell are
    consecutive, so pass ``k`` of a loop over coverage depth gathers each
    cell's ``k``-th covering window's row: sums run over windows in index
    order, and the total over keys in ``columns`` order, so each cell holds
    exactly the value a per-sample accumulation would give its samples.

    Raises:
        ValueError: if ``index`` has not one row per window or ``table`` one column per key.
    """
    expected = spec.n_windows(signal_len)
    if index.shape != (expected,) or table.shape[1:] != (len(columns),):
        raise ValueError(
            f"got {index.shape} window rows of a {table.shape} table for {len(columns)} "
            f"keys, but spec places {expected} windows over {signal_len} samples"
        )
    starts = spec.window_starts(signal_len)
    ends = starts + spec.length_n
    # Sorted and deduped by hand: ``np.unique`` imports ``numpy.ma``.
    edges = np.sort(np.concatenate(([0, signal_len], starts, ends)))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    # Window w covers cell j iff starts[w] <= edges[j] < ends[w]; both ascend.
    first = np.searchsorted(ends, edges[:-1], side="right")
    coverage = np.searchsorted(starts, edges[:-1], side="right") - first
    sums = np.zeros((edges.size - 1, len(columns)))
    for depth in range(coverage.max(initial=0)):
        cells = np.flatnonzero(coverage > depth)
        # Rows are gathered a block of cells at a time, so the gathered
        # temporary stays small beside ``sums``.
        for start in range(0, cells.size, _CELL_BLOCK):
            block = cells[start : start + _CELL_BLOCK]
            sums[block] += table[index[first[block] + depth]]
    covered = coverage > 0
    total = np.zeros(edges.size - 1)
    for acc in sums.T:
        total += acc
    # Dividing by the per-cell vector sum both averages and renormalises; in
    # place, so each key's field is a column view of ``sums``.
    sums /= np.where(covered & (total > 0), total, 1.0)[:, None]
    sums[~covered] = 0.0
    return SampleProbabilityField(
        edges=edges, coverage=coverage, probabilities=dict(zip(columns, sums.T))
    )


def segment_events(
    field: SampleProbabilityField,
    min_probability: float = 0.5,
    min_length: int = 1,
) -> list[EventRecord]:
    """Maximal runs where the non-noise probability clears ``min_probability``.

    Each run is labelled with the non-noise cluster holding the highest
    mean probability over the run, ties going to the first key of the field:
    from ``FitResult.columns``, the lowest id.  The noise is the field's
    ``dppmm.NOISE`` key, which ``fit``'s table gives the per-sweep largest
    cluster.  Runs shorter than ``min_length`` samples are discarded.
    ``mean_probability`` is the mean non-noise probability over the run,
    hence never below the minimum; a sample's probabilities are those of
    the windows covering it, each the predictive assignment of the
    window's count averaged over the post-burn-in states.  Runs are found
    on cells; means are taken over a run's samples.
    """
    if NOISE not in field.probabilities:
        raise ValueError(f"noise key {NOISE} not present in field")
    if not 0.0 < min_probability <= 1.0:
        raise ValueError(f"min_probability must lie in (0, 1], got {min_probability}")
    keys = [key for key in field.probabilities if key != NOISE and key is not None]
    if not keys:
        return []  # only fresh-component mass can beat the noise; nothing to label
    event_prob = 1.0 - field.probabilities[NOISE]
    active = (event_prob >= min_probability) & (field.coverage > 0)
    events: list[EventRecord] = []
    edges = field.edges
    firsts, ends = runs(active)
    for first, end_cell in zip(firsts.tolist(), ends.tolist()):
        start, end = int(edges[first]), int(edges[end_cell])
        if end - start < min_length:
            continue
        widths = np.diff(edges[first : end_cell + 1])
        # One key's per-sample array at a time: a run can span the recording.
        means = [
            np.repeat(field.probabilities[key][first:end_cell], widths).mean()
            for key in keys
        ]
        events.append(
            EventRecord(
                start_index=start,
                end_index=end,
                label=keys[int(np.argmax(means))],
                mean_probability=float(
                    np.repeat(event_prob[first:end_cell], widths).mean()
                ),
            )
        )
    return events


def block_features(
    rows: np.ndarray, sample_rate: float, threshold: float, rectify: bool = True
) -> list[WaveformFeatures]:
    """AE features of every row of a 2-D block, computed along axis 1.

    Count is the number of upward threshold crossings, a row that opens
    above threshold counting one; duration spans the first to the last
    above-threshold sample; rise time runs from the first above-threshold
    sample to the absolute peak (the first, if tied); energy is the sum of
    squared voltages divided by the sample rate.  A row that never crosses
    the threshold reports count 0 with zero rise time and duration, but
    energy is still computed.  Rows of float32 or int16 are read at their
    stored width and give, bit for bit, the features of their float64 copy.
    """
    rows = _widened(rows)
    magnitude = np.abs(rows)
    bound = _stored_bound(threshold, rows.dtype)
    above = (magnitude if rectify else rows) > bound
    counts = np.count_nonzero(above[:, 1:] & ~above[:, :-1], axis=1) + above[:, 0]
    crossed = counts > 0
    first = above.argmax(axis=1)
    last = rows.shape[1] - 1 - above[:, ::-1].argmax(axis=1)
    rise = np.where(crossed, magnitude.argmax(axis=1) - first, 0) / sample_rate
    duration = np.where(crossed, last - first, 0) / sample_rate
    # The same float64 squares in the same pairwise sum as on a float64 copy.
    energy = np.sum(np.square(rows, dtype=np.float64), axis=1) / sample_rate
    return [
        WaveformFeatures(*row)
        for row in zip(
            counts.tolist(),
            magnitude.max(axis=1).astype(np.float64).tolist(),
            rise.tolist(),
            duration.tolist(),
            energy.tolist(),
        )
    ]


def extract_features(
    waveform: Recording,
    event: tuple[int, int],
    threshold: float,
    rectify: bool = True,
) -> WaveformFeatures:
    """AE features of one event slice: ``block_features`` of one row.

    Only the event's samples are read from the recording.
    """
    start, end = event
    if not 0 <= start < end <= len(waveform):
        raise ValueError(f"event ({start}, {end}) outside waveform of {len(waveform)}")
    (features,) = block_features(
        waveform.span(start, end)[None, :], waveform.sample_rate, threshold, rectify
    )
    return features


def build_event_records(
    waveform: Recording,
    field: SampleProbabilityField,
    threshold: float,
    min_probability: float = 0.5,
    min_length: int = 1,
    rectify: bool = True,
) -> list[EventRecord]:
    """Segment events and attach extracted features in one pass."""
    events = segment_events(field, min_probability, min_length)
    return [
        replace(
            e,
            features=extract_features(
                waveform, (e.start_index, e.end_index), threshold, rectify
            ),
        )
        for e in events
    ]
