"""Sliding-window ringdown-count extraction from raw waveforms.

A waveform is reduced to one count per window position: the number of
upward threshold crossings (the ringdown count) inside each window.  The
threshold is either a fixed voltage or a percentile of the (optionally
rectified) signal, and windows may overlap; the window slides in steps of
``round(length * (1 - overlap))`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Waveform",
    "ThresholdPolicy",
    "WindowSpec",
    "WindowedCounts",
    "resolve_threshold",
    "count_crossings",
    "extract_counts",
]


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

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return self.samples.size / self.sample_rate


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
        if self.length_n != int(self.length_n) or self.length_n < 1:
            raise ValueError(f"length_n must be a positive integer, got {self.length_n}")
        object.__setattr__(self, "length_n", int(self.length_n))
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError(
                f"overlap_fraction must lie in [0, 1), got {self.overlap_fraction}"
            )
        if self.step < 1:
            raise ValueError("window step rounds to zero; reduce overlap_fraction")

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


def resolve_threshold(waveform: Waveform, policy: ThresholdPolicy) -> float:
    """Resolve a threshold policy against a waveform, in volts.

    Percentile thresholds use linear interpolation between closest order
    statistics of ``|v|`` (or of ``v`` when ``rectify`` is off); fixed
    thresholds pass through unchanged.
    """
    if policy.kind == "fixed":
        return float(policy.value)
    values = np.abs(waveform.samples) if policy.rectify else waveform.samples
    # Only a fresh |v| may be partitioned in place; raw samples must not be.
    return float(np.percentile(values, policy.value, overwrite_input=policy.rectify))


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
    waveform: Waveform, policy: ThresholdPolicy, spec: WindowSpec
) -> WindowedCounts:
    """Slide a window over the waveform and count crossings in each position.

    Window positions start at 0 and advance by ``spec.step``; trailing
    samples that do not fill a window are dropped, never zero-padded.
    """
    threshold = resolve_threshold(waveform, policy)
    starts = spec.window_starts(len(waveform))
    v = waveform.samples
    above = (np.abs(v) if policy.rectify else v) > threshold
    # Global upward edges; window-local index 0 is special-cased below.
    edges = np.empty(above.size, dtype=bool)
    edges[0] = above[0]
    np.greater(above[1:], above[:-1], out=edges[1:])
    cum = np.zeros(above.size + 1, dtype=np.int64)
    np.cumsum(edges, out=cum[1:])
    n = spec.length_n
    # Edges strictly inside the window, plus one if the window opens above
    # threshold (the slice-local "starts above" rule).
    counts = (cum[starts + n] - cum[starts + 1]) + above[starts]
    return WindowedCounts(
        starts=starts, counts=counts.astype(np.int64), spec=spec, threshold=threshold
    )
