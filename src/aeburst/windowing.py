"""Sliding-window ringdown-count extraction from raw waveforms.

A waveform is reduced to one count per window position: the number of
upward threshold crossings (the ringdown count) inside each window.  The
threshold is either a fixed voltage or a percentile of the (optionally
rectified) signal, and windows may overlap; the window slides in steps of
``round(length * (1 - overlap))`` samples.

Both steps read a ``Recording`` one chunk at a time, at its stored width:
an in-memory ``Waveform`` is one float64 chunk, and a raw file
(``aeburst.io``) yields fixed-size float32 or int16 chunks.  The percentile
is exact, equal to ``np.percentile``'s linear method on the samples as
float64, from two order statistics of keys as wide as the samples.  If the
upper tail down to them fits in the first chunk, one read keeps that many
of the largest keys; else a radix select holds a histogram and at most one
chunk of candidate keys.  Window counts compare each sample with the
threshold rounded down into its dtype and carry only a running edge count
and one sample's state across a chunk boundary, so memory is set by the
chunk size and the window count, not by the recording length.
"""

from __future__ import annotations

import itertools
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
    "extract_counts",
    "runs",
]


class Recording(Protocol):
    """A uniformly sampled signal read in consecutive chunks.

    ``chunks`` yields non-empty arrays that together cover samples
    ``[0, len)`` in order, in the dtype the recording stores: float64,
    float32 or int16.  A chunk may be overwritten by the next one, so a
    reader copies what it keeps.  ``span`` returns samples ``[start, end)``
    in the same stored dtype.  Every sample either returns is finite: a
    recording that is not checked when it is made raises ``ValueError`` when
    it reads a non-finite one.
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
        """The float64 samples, as one chunk."""
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

    def __len__(self) -> int:
        return self.starts.size


_RADIX_BITS = 16


def _widened(values: np.ndarray) -> np.ndarray:
    """Float samples as they are; integer samples as int32, where ``|-32768|`` fits."""
    return values.astype(np.int32) if values.dtype.kind == "i" else values


def _sort_keys(values: np.ndarray, rectify: bool) -> np.ndarray:
    """Unsigned keys that order like ``|values|`` (or ``values``) as numbers.

    Keys are as wide as ``_widened(values)``.  Non-negative numbers already
    order like their bit patterns.  Signed floats flip every bit of a
    negative value and only the sign bit of the rest, so negatives come
    first, in reverse magnitude; two's-complement integers flip the sign bit.
    """
    values = _widened(values)
    if rectify:
        return np.abs(values).view(f"u{values.itemsize}")
    width = 8 * values.itemsize
    bits = values.view(f"u{values.itemsize}")
    sign = bits.dtype.type(1 << (width - 1))
    if values.dtype.kind == "i":
        return bits ^ sign
    negative = (values.view(f"i{values.itemsize}") >> (width - 1)).view(bits.dtype)
    return bits ^ (negative | sign)


def _key_value(key: int, rectify: bool, dtype: np.dtype) -> float:
    """The number a key of ``_sort_keys`` stands for; ``dtype`` is the widened samples'."""
    sign = 1 << (8 * dtype.itemsize - 1)
    if not rectify:
        key ^= sign if dtype.kind == "i" or key & sign else 2 * sign - 1
    return float(np.array([key], dtype=f"u{dtype.itemsize}").view(dtype)[0])


def _keys(chunks: Iterator[np.ndarray], rectify: bool) -> Iterator[np.ndarray]:
    return (_sort_keys(chunk, rectify) for chunk in chunks)


def _fold(kept: np.ndarray, pending: list[np.ndarray], m: int) -> np.ndarray:
    """The ``m`` largest keys of ``kept`` and ``pending``, the smallest of them first."""
    merged = np.concatenate([kept, *pending])  # a new array: never recording memory
    merged.partition(merged.size - m)
    return merged[merged.size - m :]


def _largest(first: np.ndarray, rest: Iterator[np.ndarray], m: int) -> np.ndarray:
    """The ``m <= first.size`` largest keys of ``first`` and of every array of ``rest``.

    Later arrays add only keys above the running ``m``-th largest, folded in
    once they reach ``m``: at most ``m`` kept, ``m`` pending and one array.
    """
    kept, pending, waiting = _fold(first, [], m), [], 0
    for keys in rest:
        above = np.compress(keys > kept[0], keys)  # faster than a boolean index
        if above.size:  # an empty array a chunk would grow with the recording
            pending.append(above)
            waiting += above.size
        if waiting >= m:
            kept, pending, waiting = _fold(kept, pending, m), [], 0
    return _fold(kept, pending, m)


def _order_statistics(
    recording: Recording, rectify: bool, low: int, high: int
) -> tuple[float, float]:
    """The values of ranks ``low`` and ``high = low`` or ``low + 1``, ascending.

    Selects over the keys of ``_sort_keys``, whose width the first chunk
    sets.  When the upper tail of ``m = len(recording) - low`` keys fits in
    that chunk, ``_largest`` keeps it in one read and the ranks are its two
    smallest keys.  A larger tail takes a radix select, whose first pass
    goes on from that chunk: each pass reads every chunk and histograms the
    next 16 bits of the keys inside the bucket that holds the ranks, whose
    base is ``base`` and whose width is ``2 ** (shift + 16)``.  It stops
    when the bucket holds one distinct key, or no more keys than the largest
    chunk, which are then collected and partitioned: 32-bit keys take at
    most two reads, unless the ranks straddle two buckets.
    """
    chunks = recording.chunks()
    first = next(chunks)
    keys = _sort_keys(first, rectify)
    dtype = np.dtype(f"{first.dtype.kind}{keys.itemsize}")
    m = len(recording) - low
    if m <= keys.size:
        found, ranks = _largest(keys, _keys(chunks, rectify), m), (0, high - low)
        found.partition(ranks)
        return tuple(_key_value(int(found[r]), rectify, dtype) for r in ranks)
    base, below, shift, top = 0, 0, 8 * keys.itemsize - _RADIX_BITS, 0
    source = itertools.chain([keys], _keys(chunks, rectify))
    while True:
        hist = np.zeros(1 << _RADIX_BITS, dtype=np.int64)
        limit = 0
        for keys in source:
            limit = max(limit, keys.size)
            if shift + _RADIX_BITS < 8 * keys.itemsize:
                keys = keys[(keys >= base) & (keys <= top)] - keys.dtype.type(base)
            # Digits fit in 16 bits, so the signed view is the same numbers.
            digits = (keys >> keys.dtype.type(shift)).view(f"i{keys.itemsize}")
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
        top = base + (1 << shift) - 1
        if shift == 0:
            value = _key_value(base, rectify, dtype)
            return value, value
        if hist[b_low] <= limit:
            found = np.concatenate(
                [k[(k >= base) & (k <= top)] for k in _keys(recording.chunks(), rectify)]
            )
            ranks = (low - below, high - below)
            found.partition(ranks)
            return tuple(_key_value(int(found[r]), rectify, dtype) for r in ranks)
        shift -= _RADIX_BITS
        source = _keys(recording.chunks(), rectify)


def resolve_threshold(recording: Recording, policy: ThresholdPolicy) -> float:
    """Resolve a threshold policy against a recording, in volts.

    Percentile thresholds use linear interpolation between closest order
    statistics of ``|v|`` (or of ``v`` when ``rectify`` is off), equal to
    ``np.percentile`` on the samples as float64 (which may pick the other
    zero of a -0.0/0.0 tie); fixed thresholds pass through unchanged.  One
    read suffices if the tail from the lower statistic up fits the first
    chunk (at the 99th percentile, to ~26M samples of 2^18-sample chunks).
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


def _stored_bound(threshold: float, dtype: np.dtype) -> float | int:
    """A bound such that ``v > bound`` exactly when ``float(v) > threshold``.

    ``v`` is a sample of ``dtype``.  For floats the bound is the largest
    value of the dtype not above the threshold, so none lies between them.
    For integers it is the floor (the threshold itself past ``2 ** 16`` or
    for NaN, where every int16 falls on one side of both).
    """
    if dtype.kind == "i":
        return math.floor(threshold) if abs(threshold) < 1 << 16 else threshold
    with np.errstate(over="ignore"):  # past float32's range the bound may be +-inf
        bound = dtype.type(threshold)  # the nearest value; one step down if above
        # Compared as Python floats: against a numpy float32, the threshold is rounded.
        if float(bound) > threshold:
            bound = np.nextafter(bound, dtype.type(-np.inf))
    return bound


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
    # Both masks of a chunk share one buffer kept for the whole pass: two new
    # arrays per chunk fault in fresh pages for every chunk.
    flags = np.empty(0, dtype=bool)
    for chunk in recording.chunks():
        chunk = _widened(chunk)
        if flags.size < 2 * chunk.size:
            flags = np.empty(2 * chunk.size, dtype=bool)
        above, edges = flags[: chunk.size], flags[chunk.size : 2 * chunk.size]
        bound = _stored_bound(threshold, chunk.dtype)  # exact at the stored width
        np.greater(np.abs(chunk) if policy.rectify else chunk, bound, out=above)
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
