"""Sliding-window ringdown-count extraction from raw waveforms.

A waveform is reduced to one count per window position: the number of
upward threshold crossings (the ringdown count) inside each window.  The
threshold is either a fixed voltage or a percentile of the (optionally
rectified) signal, and windows may overlap; the window slides in steps of
``round(length * (1 - overlap))`` samples.

Both steps read a ``Recording`` one chunk at a time: an in-memory
``Waveform`` is a single chunk, and a raw file (``aeburst.io``) is decoded
in fixed-size chunks.  The percentile is exact, equal to ``np.percentile``'s
linear method: a radix select over the float64 bit patterns finds the two
order statistics it interpolates, holding a histogram and at most one
chunk's worth of candidate values.  Window counts carry only a running edge
count and one sample's state across a chunk boundary, so memory is set by
the chunk size and the window count, not by the recording length.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Recording",
    "Waveform",
    "ThresholdPolicy",
    "WindowSpec",
    "WindowedCounts",
    "resolve_threshold",
    "count_crossings",
    "extract_counts",
    "runs",
]


class Recording(Protocol):
    """A uniformly sampled signal read in consecutive float64 chunks.

    ``chunks`` yields non-empty arrays that together cover samples
    ``[0, len)`` in order; ``span`` returns samples ``[start, end)``.
    Every sample either returns is finite: a recording that is not checked
    when it is made raises ``ValueError`` when it reads a non-finite one.
    """

    @property
    def sample_rate(self) -> float: ...

    def __len__(self) -> int: ...

    def chunks(self) -> Iterator[np.ndarray]: ...

    def span(self, start: int, end: int) -> np.ndarray: ...


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled voltage series.

    Attributes:
        samples: 1-D float array of voltages.
        sample_rate: sampling frequency in Hz.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def chunks(self) -> Iterator[np.ndarray]:
        """The samples, as one chunk."""
        yield self.samples

    def span(self, start: int, end: int) -> np.ndarray:
        return self.samples[start:end]


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the crossing threshold is derived from a waveform.

    ``kind`` is ``"percentile"`` (value is a percentile in (0, 100) of the
    signal) or ``"fixed"`` (value is an absolute voltage).  ``rectify``
    selects whether thresholding applies to ``|v|`` or to the raw signal;
    amplitude-magnitude thresholding is the default, matching how AE
    acquisition hardware triggers.
    """

    kind: str
    value: float
    rectify: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("percentile", "fixed"):
            raise ValueError(f"kind must be 'percentile' or 'fixed', got {self.kind!r}")
        if self.kind == "percentile" and not 0.0 < self.value < 100.0:
            raise ValueError(f"percentile must lie in (0, 100), got {self.value}")

    @classmethod
    def percentile(cls, value: float = 99.0, rectify: bool = True) -> "ThresholdPolicy":
        return cls("percentile", value, rectify)

    @classmethod
    def fixed(cls, volts: float, rectify: bool = True) -> "ThresholdPolicy":
        return cls("fixed", volts, rectify)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: window length and overlap fraction.

    The step between consecutive window starts is
    ``round(length_n * (1 - overlap_fraction))`` and must be at least one
    sample.
    """

    length_n: int
    overlap_fraction: float = 0.0

    def __post_init__(self) -> None:
        if (
            not math.isfinite(self.length_n)
            or self.length_n != int(self.length_n)
            or self.length_n < 1
        ):
            raise ValueError(f"length_n must be a positive integer, got {self.length_n}")
        object.__setattr__(self, "length_n", int(self.length_n))
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError(
                f"overlap_fraction must lie in [0, 1), got {self.overlap_fraction}"
            )
        if self.step < 1:
            raise ValueError(
                f"overlap_fraction {self.overlap_fraction} rounds the step of "
                f"{self.length_n}-sample windows to zero"
            )

    @property
    def step(self) -> int:
        return int(round(self.length_n * (1.0 - self.overlap_fraction)))

    def window_starts(self, signal_len: int) -> np.ndarray:
        """Start indices of every window fully inside a signal of given length.

        Trailing samples that do not fill a whole window are dropped.
        """
        end = self.n_windows(signal_len) * self.step
        return np.arange(0, end, self.step, dtype=np.int64)

    def n_windows(self, signal_len: int) -> int:
        """Number of windows ``window_starts`` places; raises like it."""
        if self.length_n > signal_len:
            raise ValueError(
                f"window length {self.length_n} exceeds signal length {signal_len}"
            )
        return (signal_len - self.length_n) // self.step + 1


@dataclass(frozen=True)
class WindowedCounts:
    """Ringdown counts per window position, plus the resolved threshold."""

    starts: np.ndarray
    counts: np.ndarray
    spec: WindowSpec
    threshold: float

    @property
    def entries(self) -> list[tuple[int, int]]:
        return list(zip(self.starts.tolist(), self.counts.tolist()))

    def __len__(self) -> int:
        return self.starts.size


_SIGN = 1 << 63
_RADIX_BITS = 16


def _sort_keys(values: np.ndarray, rectify: bool) -> np.ndarray:
    """uint64 keys that order like ``|values|`` (or ``values``) as floats.

    Non-negative floats already order like their bit patterns.  Signed
    values flip every bit of a negative value and only the sign bit of the
    rest, so negatives come first, in reverse magnitude.
    """
    if rectify:
        return np.abs(values).view(np.uint64)
    bits = values.view(np.uint64)
    return bits ^ ((bits.view(np.int64) >> 63).view(np.uint64) | np.uint64(_SIGN))


def _key_value(key: int, rectify: bool) -> float:
    """The float a key of ``_sort_keys`` stands for."""
    if not rectify:
        key = key ^ _SIGN if key & _SIGN else key ^ (2 * _SIGN - 1)
    return float(np.array([key], dtype=np.uint64).view(np.float64)[0])


def _order_statistics(
    recording: Recording, rectify: bool, low: int, high: int
) -> tuple[float, float]:
    """The values of ranks ``low`` and ``high = low`` or ``low + 1``, ascending.

    A radix select over the keys of ``_sort_keys``: each pass reads every
    chunk and histograms the next 16 bits of the keys inside the bucket
    that holds the ranks, whose base is ``base`` and whose width is
    ``2 ** (shift + 16)``.  The select stops when the bucket holds one
    distinct key, or no more keys than the largest chunk, which are then
    collected and partitioned.
    """
    base, below, shift = 0, 0, 64 - _RADIX_BITS
    while True:
        top = base + (1 << (shift + _RADIX_BITS)) - 1
        hist = np.zeros(1 << _RADIX_BITS, dtype=np.int64)
        limit = 0
        for chunk in recording.chunks():
            limit = max(limit, chunk.size)
            keys = _sort_keys(chunk, rectify)
            if shift + _RADIX_BITS < 64:
                keys = keys[(keys >= base) & (keys <= top)] - np.uint64(base)
            # Digits fit in 16 bits, so the int64 view is the same numbers.
            digits = (keys >> np.uint64(shift)).view(np.int64).astype(np.intp, copy=False)
            hist += np.bincount(digits, minlength=hist.size)
        cum = np.cumsum(hist)
        b_low, b_high = np.searchsorted(cum, [low - below, high - below], side="right")
        if b_low != b_high:
            # Rare: the ranks straddle two buckets, so select each alone.
            return (
                _order_statistics(recording, rectify, low, low)[0],
                _order_statistics(recording, rectify, high, high)[0],
            )
        below += int(cum[b_low - 1]) if b_low else 0
        base += int(b_low) << shift
        if shift == 0:
            value = _key_value(base, rectify)
            return value, value
        if hist[b_low] <= limit:
            top = base + (1 << shift) - 1
            found = []
            for chunk in recording.chunks():
                keys = _sort_keys(chunk, rectify)
                found.append(keys[(keys >= base) & (keys <= top)])
            found = np.concatenate(found)
            ranks = (low - below, high - below)
            found.partition(ranks)
            return _key_value(int(found[ranks[0]]), rectify), _key_value(
                int(found[ranks[1]]), rectify
            )
        shift -= _RADIX_BITS


def resolve_threshold(recording: Recording, policy: ThresholdPolicy) -> float:
    """Resolve a threshold policy against a recording, in volts.

    Percentile thresholds use linear interpolation between closest order
    statistics of ``|v|`` (or of ``v`` when ``rectify`` is off), bit for bit
    as ``np.percentile`` computes it; fixed thresholds pass through
    unchanged.
    """
    if policy.kind == "fixed":
        return float(policy.value)
    n = len(recording)
    index = (n - 1) * (policy.value / 100)
    if index >= n - 1:
        return _order_statistics(recording, policy.rectify, n - 1, n - 1)[1]
    below = math.floor(index)
    a, b = _order_statistics(recording, policy.rectify, below, below + 1)
    # np.percentile's lerp, including the form it takes from the upper end.
    t = index - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


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


def extract_counts(
    recording: Recording, policy: ThresholdPolicy, spec: WindowSpec
) -> WindowedCounts:
    """Slide a window over the recording and count crossings in each position.

    Window positions start at 0 and advance by ``spec.step``; trailing
    samples that do not fill a window are dropped, never zero-padded.
    """
    starts = spec.window_starts(len(recording))
    threshold = resolve_threshold(recording, policy)
    ends = starts + spec.length_n
    # With cum[j] the upward edges in samples [0, j), sample 0 counting as an
    # edge when above, window s counts the edges strictly inside it plus one
    # if it opens above threshold: cum[s + n] - (cum[s + 1] - above[s]).
    opens = np.empty(starts.size, dtype=np.int64)
    closes = np.empty(starts.size, dtype=np.int64)
    offset, edges_before, was_above = 0, 0, False
    for chunk in recording.chunks():
        above = (np.abs(chunk) if policy.rectify else chunk) > threshold
        edges = np.empty(above.size, dtype=bool)
        edges[0] = above[0] and not was_above
        np.greater(above[1:], above[:-1], out=edges[1:])
        # cum[offset + j] - edges_before is the number of this chunk's edges
        # before local index j, found by a search of their positions.
        at = np.flatnonzero(edges)
        first, last = np.searchsorted(starts, [offset, offset + chunk.size])
        local = starts[first:last] - offset
        opens[first:last] = edges_before + np.searchsorted(at, local + 1) - above[local]
        first, last = np.searchsorted(ends, [offset + 1, offset + chunk.size + 1])
        closes[first:last] = edges_before + np.searchsorted(at, ends[first:last] - offset)
        offset += chunk.size
        edges_before += at.size
        was_above = bool(above[-1])
    return WindowedCounts(
        starts=starts, counts=closes - opens, spec=spec, threshold=threshold
    )


def runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and exclusive ends of the maximal runs of True in a 1-D mask."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    steps = np.diff(padded.astype(np.int8))
    return np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
