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

from .dppmm import MixtureState, posterior_mean_rate
from .windowing import Recording, WindowSpec, runs

__all__ = [
    "SampleProbabilityField",
    "WaveformFeatures",
    "EventRecord",
    "average_probabilities",
    "segment_events",
    "block_features",
    "extract_features",
    "noise_cluster_id",
    "build_event_records",
]

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
    window_probs: np.ndarray,
    spec: WindowSpec,
    signal_len: int,
    columns: Sequence[int | None],
) -> SampleProbabilityField:
    """Arithmetic mean of window probability vectors at every sample.

    ``window_probs`` is ``(n_windows, C)``, one row per window and one
    column per key of ``columns`` (``FitResult.table[FitResult.index]`` and
    ``.columns``: each window's row is the posterior predictive assignment
    of its count), whose order the field's keys keep.
    Window ``i`` covers samples ``[i*step, i*step + n)``.  Each covered
    sample averages the vectors of all windows containing it and is
    renormalised against accumulated rounding; coverage is recorded.  The
    windows covering a cell are consecutive, so pass ``k`` of a loop over
    coverage depth adds each cell's ``k``-th covering window: sums run over
    windows in index order, and the total over keys in ``columns`` order,
    so each cell holds exactly the value a per-sample accumulation would
    give its samples.

    Raises:
        ValueError: if the array's shape does not match the window count the
            spec produces over ``signal_len`` and the number of columns.
    """
    expected = spec.n_windows(signal_len)
    if window_probs.shape != (expected, len(columns)):
        raise ValueError(
            f"got {window_probs.shape} window probabilities for {len(columns)} keys, "
            f"but spec places {expected} windows over {signal_len} samples"
        )
    starts = spec.window_starts(signal_len)
    ends = starts + spec.length_n
    edges = np.unique(np.concatenate(([0, signal_len], starts, ends)))
    # Window w covers cell j iff starts[w] <= edges[j] < ends[w]; both ascend.
    first = np.searchsorted(ends, edges[:-1], side="right")
    coverage = np.searchsorted(starts, edges[:-1], side="right") - first
    sums = np.zeros((edges.size - 1, len(columns)))
    for depth in range(coverage.max(initial=0)):
        cells = np.flatnonzero(coverage > depth)
        sums[cells] += window_probs[first[cells] + depth]
    covered = coverage > 0
    total = np.zeros(edges.size - 1)
    for acc in sums.T:
        total += acc
    # Dividing by the per-cell vector sum both averages and renormalises.
    averaged = sums.T / np.where(covered & (total > 0), total, 1.0)
    averaged[:, ~covered] = 0.0
    return SampleProbabilityField(
        edges=edges, coverage=coverage, probabilities=dict(zip(columns, averaged))
    )


def segment_events(
    field: SampleProbabilityField,
    noise_cluster: int,
    min_probability: float = 0.5,
    min_length: int = 1,
) -> list[EventRecord]:
    """Maximal runs where the non-noise probability clears ``min_probability``.

    Each run is labelled with the non-noise cluster holding the highest
    mean probability over the run, ties going to the first key of the field:
    from ``FitResult.columns``, the lowest id, as in ``noise_cluster_id``.
    Runs shorter than ``min_length`` samples are discarded.
    ``mean_probability`` is the mean non-noise probability over the run,
    hence never below the minimum; a sample's probabilities are those of
    the windows covering it, each the predictive assignment of the
    window's count averaged over the post-burn-in states.  Runs are found
    on cells; means are taken over a run's samples.
    """
    if noise_cluster not in field.probabilities:
        raise ValueError(f"noise cluster {noise_cluster} not present in field")
    if not 0.0 < min_probability <= 1.0:
        raise ValueError(f"min_probability must lie in (0, 1], got {min_probability}")
    event_prob = 1.0 - field.probabilities[noise_cluster]
    active = (event_prob >= min_probability) & (field.coverage > 0)
    events: list[EventRecord] = []
    edges = field.edges
    firsts, ends = runs(active)
    for first, end_cell in zip(firsts.tolist(), ends.tolist()):
        start, end = int(edges[first]), int(edges[end_cell])
        if end - start < min_length:
            continue
        widths = np.diff(edges[first : end_cell + 1])
        label = None
        best = -1.0
        for key, probs in field.probabilities.items():
            if key == noise_cluster or key is None:
                continue
            mean_p = float(np.repeat(probs[first:end_cell], widths).mean())
            if mean_p > best:
                best, label = mean_p, key
        if label is None:
            continue  # only fresh-component mass beat the noise; nothing to label
        events.append(
            EventRecord(
                start_index=start,
                end_index=end,
                label=label,
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
    energy is still computed.
    """
    magnitude = np.abs(rows)
    above = (magnitude if rectify else rows) > threshold
    counts = np.count_nonzero(above[:, 1:] & ~above[:, :-1], axis=1) + above[:, 0]
    crossed = counts > 0
    first = above.argmax(axis=1)
    last = rows.shape[1] - 1 - above[:, ::-1].argmax(axis=1)
    rise = np.where(crossed, magnitude.argmax(axis=1) - first, 0) / sample_rate
    duration = np.where(crossed, last - first, 0) / sample_rate
    energy = np.sum(rows * rows, axis=1) / sample_rate
    return [
        WaveformFeatures(*row)
        for row in zip(
            counts.tolist(),
            magnitude.max(axis=1).tolist(),
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


def noise_cluster_id(state: MixtureState) -> int:
    """Cluster representing background noise: the lowest posterior-mean rate.

    Background has the lowest count rate by construction; ties break
    toward the lowest id.
    """
    if not state.clusters:
        raise ValueError("state has no clusters")
    base = state.hyper.base
    return min(
        state.clusters.values(), key=lambda c: (posterior_mean_rate(c, base), c.id)
    ).id


def build_event_records(
    waveform: Recording,
    field: SampleProbabilityField,
    noise_cluster: int,
    threshold: float,
    min_probability: float = 0.5,
    min_length: int = 1,
    rectify: bool = True,
) -> list[EventRecord]:
    """Segment events and attach extracted features in one pass."""
    events = segment_events(field, noise_cluster, min_probability, min_length)
    return [
        replace(
            e,
            features=extract_features(
                waveform, (e.start_index, e.end_index), threshold, rectify
            ),
        )
        for e in events
    ]
