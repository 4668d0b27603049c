"""Waveform and hit-record file formats.

Waveforms travel as CSV (one sample per line, or ``time,value`` pairs
with uniform spacing) or headerless little-endian raw arrays
(``raw_f32_le``, ``raw_i16_le``); the sample rate always comes from
metadata supplied by the caller, never from sniffing.  CSV is read whole
into a ``Waveform``.  A raw file is opened as a ``RawRecording``: its
length comes from the file size, and its samples are read in their stored
dtype (float32 or int16), each checked finite as it is read: ``chunks``
fills one ``CHUNK_SAMPLES`` buffer that every chunk reuses, and ``span``
returns one requested range, so reading it holds one chunk, not the
recording.

Hit files use a self-describing container: a single UTF-8 JSON header
line

    {"format": "ae-hits", "version": 1, "sample_rate": ..., "record_length": ...,
     "pretrigger": ..., "channel": ..., "trigger_times": [...]}

terminated by a newline, followed by the concatenated ``raw_f32_le``
records.  The payload must be an exact multiple of
``4 * record_length`` bytes; ``trigger_times``, when present, must be
finite and match the record count (when absent, the record ordinal stands
in).  ``read_hits`` reads and checks only the header and opens the payload
as a ``RawRecording`` past it.  ``HitFile.blocks`` decodes the records at
given indices, in order, ``HIT_BLOCK_SAMPLES // record_length`` records (at
least one) per block through one open handle, into one reused float32
buffer checked finite once per block.  Reading any number of records thus
holds 4 bytes per block sample (64 KiB: 8 records of 2,048 samples), and
computing their features a block at a time about 350 KiB in all; skipped
records cost nothing.  Indexing reads a one-record block and returns it as
a ``HitRecord``, a ``Waveform`` with its trigger time, pretrigger and
channel.
Every writer goes through ``write_atomic``, so a failed write leaves the
target as it was.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .windowing import Recording, Waveform

__all__ = [
    "CHUNK_SAMPLES",
    "DataFormatError",
    "HIT_BLOCK_SAMPLES",
    "HitRecord",
    "HitFile",
    "RawRecording",
    "WAVEFORM_FORMATS",
    "read_waveform",
    "write_waveform",
    "read_hits",
    "write_hits",
    "write_atomic",
]

WAVEFORM_FORMATS = ("csv", "raw_f32_le", "raw_i16_le")

_RAW_DTYPES = {"raw_f32_le": np.dtype("<f4"), "raw_i16_le": np.dtype("<i2")}

# Samples a RawRecording decodes per read: with the window count, this sets
# the memory of thresholding and counting a raw recording.
CHUNK_SAMPLES = 1 << 18

# Samples HitFile.blocks decodes per block: its buffers and the block
# feature pass take memory in proportion, whatever the stream's length.
HIT_BLOCK_SAMPLES = 1 << 14

_HIT_FORMAT = "ae-hits"


class DataFormatError(ValueError):
    """A file's contents do not match its declared format.

    ``sample`` is the index of the sample at fault, when one sample is.
    """

    def __init__(self, message: str, sample: int | None = None) -> None:
        super().__init__(message)
        self.sample = sample


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a sibling temp file, then ``os.replace`` it onto ``path``.

    A reader of ``path`` sees the old file or the complete new one.  If
    writing fails, including while ``chunks`` is being produced, the temp
    file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class HitRecord(Waveform):
    """One fixed-length triggered waveform snippet.

    ``pretrigger`` samples at the head of ``samples`` precede the trigger
    instant ``trigger_time`` (seconds).
    """

    trigger_time: float
    pretrigger: int
    channel: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.pretrigger < self.samples.size:
            raise ValueError(
                f"pretrigger {self.pretrigger} must be less than the record "
                f"length {self.samples.size}"
            )


@dataclass(frozen=True)
class RawRecording:
    """A raw recording on disk, read a chunk or a span at a time.

    The samples start ``offset`` bytes into the file and are read in the
    stored ``dtype``.  ``chunks`` yields ``CHUNK_SAMPLES`` samples per read
    into one buffer, so each chunk is overwritten by the next; ``span``
    returns one range in a new array.  A read that comes up short, or a
    sample that is not finite, raises ``DataFormatError``.
    """

    path: Path
    dtype: np.dtype
    n_samples: int
    sample_rate: float
    offset: int = 0

    def __len__(self) -> int:
        return self.n_samples

    def chunks(self) -> Iterator[np.ndarray]:
        size = CHUNK_SAMPLES
        buffer = np.empty(min(size, self.n_samples), self.dtype)
        with self.path.open("rb") as handle:
            for start in range(0, self.n_samples, size):
                yield self._fill(handle, start, buffer[: self.n_samples - start])

    def span(self, start: int, end: int) -> np.ndarray:
        if not 0 <= start <= end <= self.n_samples:
            raise ValueError(f"span ({start}, {end}) outside {self.n_samples} samples")
        with self.path.open("rb") as handle:
            return self._fill(handle, start, np.empty(end - start, self.dtype))

    def _fill(self, handle: BinaryIO, start: int, out: np.ndarray) -> np.ndarray:
        _, error = self._read_rows(handle, [start], out[None, :])
        if error is not None:
            raise error
        return out

    def _read_rows(
        self, handle: BinaryIO, starts: list[int], out: np.ndarray
    ) -> tuple[int, DataFormatError | None]:
        """Read row ``r`` of the 2-D ``out`` from sample ``starts[r]`` on.

        Returns the number of rows read whole and finite before the first
        fault, and the error naming that fault: a row cut short or the
        first non-finite sample.
        """
        width = out.shape[1]
        filled, error = 0, None
        for start in starts:
            handle.seek(self.offset + start * self.dtype.itemsize)
            if handle.readinto(out[filled]) != width * self.dtype.itemsize:
                error = DataFormatError(
                    f"{self.path}: file ends inside samples [{start}, {start + width})"
                )
                break
            filled += 1
        if self.dtype.kind == "f":
            finite = np.isfinite(out[:filled])
            if not finite.all():
                filled, j = divmod(int(np.argmin(finite)), width)
                bad = starts[filled] + j
                error = DataFormatError(f"{self.path}: sample {bad} is not finite", bad)
        return filled, error


def read_waveform(
    path: str | Path, fmt: str, sample_rate: float | None = None
) -> Recording:
    """Read a waveform in a declared format.

    CSV accepts one value per line or ``time,value`` pairs; pair
    timestamps must be uniformly spaced within 1e-6 relative, and when a
    ``sample_rate`` is also supplied it must agree with the timestamps to
    the same tolerance; it is read whole into a ``Waveform``.  Raw formats
    require ``sample_rate`` and open as a ``RawRecording``, whose size is
    checked here and whose samples are decoded when read.
    """
    path = Path(path)
    if fmt not in WAVEFORM_FORMATS:
        raise DataFormatError(f"unknown waveform format {fmt!r}")
    if fmt == "csv":
        return _read_waveform_csv(path, sample_rate)
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
    dtype = _RAW_DTYPES[fmt]
    if size == 0 or size % dtype.itemsize != 0:
        raise DataFormatError(
            f"{path}: {size} bytes is not a whole number of "
            f"{dtype.itemsize}-byte samples"
        )
    if sample_rate is None:
        raise DataFormatError(f"{fmt} requires an explicit sample rate")
    if not 0 < sample_rate < float("inf"):
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    return RawRecording(path, dtype, size // dtype.itemsize, float(sample_rate))


def _read_waveform_csv(path: Path, sample_rate: float | None) -> Waveform:
    try:
        table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: could not parse CSV: {exc}") from exc
    if table.size == 0:
        raise DataFormatError(f"{path}: empty CSV")
    if table.shape[1] == 1:
        if sample_rate is None:
            raise DataFormatError("single-column CSV requires an explicit sample rate")
        return Waveform(samples=table[:, 0], sample_rate=sample_rate)
    if table.shape[1] != 2:
        raise DataFormatError(
            f"{path}: expected 1 or 2 columns, found {table.shape[1]}"
        )
    times, values = table[:, 0], table[:, 1]
    if len(times) < 2:
        if sample_rate is None:
            raise DataFormatError("cannot infer a rate from a single (time, value) row")
        return Waveform(samples=values, sample_rate=sample_rate)
    steps = np.diff(times)
    mean_step = float(steps.mean())
    if mean_step <= 0 or np.any(np.abs(steps - mean_step) > 1e-6 * abs(mean_step)):
        raise DataFormatError(f"{path}: timestamps are not uniformly spaced")
    inferred = 1.0 / mean_step
    if sample_rate is not None and abs(inferred - sample_rate) > 1e-6 * sample_rate:
        raise DataFormatError(
            f"{path}: timestamps imply {inferred:.6g} Hz but {sample_rate:.6g} Hz "
            "was declared"
        )
    return Waveform(samples=values, sample_rate=inferred)


def write_waveform(path: str | Path, waveform: Waveform, fmt: str) -> None:
    """Write a waveform in a declared format.

    ``raw_f32_le`` round-trips bit-exactly for float32-valued data;
    ``raw_i16_le`` requires integral samples within the int16 range.
    """
    if fmt == "csv":
        lines = "\n".join(repr(v) for v in waveform.samples.tolist())
        write_atomic(path, [(lines + "\n").encode("ascii")])
    elif fmt == "raw_f32_le":
        write_atomic(path, [waveform.samples.astype("<f4").tobytes()])
    elif fmt == "raw_i16_le":
        values = waveform.samples
        if np.any(values != np.round(values)) or np.any((values < -32768) | (values > 32767)):
            raise DataFormatError("raw_i16_le requires integral samples in int16 range")
        write_atomic(path, [values.astype("<i2").tobytes()])
    else:
        raise DataFormatError(f"unknown waveform format {fmt!r}")


@dataclass(frozen=True, eq=False)
class HitFile(Sequence[HitRecord]):
    """The records of a hit container, decoded a block of records at a time."""

    payload: RawRecording
    record_length: int
    trigger_times: Sequence[float]
    pretrigger: int
    channel: int

    @property
    def sample_rate(self) -> float:
        return self.payload.sample_rate

    def __len__(self) -> int:
        return len(self.trigger_times)

    def __getitem__(self, index: int) -> HitRecord:
        i = range(len(self))[index]
        with closing(self.blocks([i])) as blocks:
            (samples,) = next(blocks)
        return HitRecord(
            samples=samples,
            sample_rate=self.sample_rate,
            trigger_time=float(self.trigger_times[i]),
            pretrigger=self.pretrigger,
            channel=self.channel,
        )

    def blocks(self, indices: Iterable[int]) -> Iterator[np.ndarray]:
        """The records at ``indices``, in order, as rows of float32 blocks.

        A block holds up to ``HIT_BLOCK_SAMPLES // record_length`` records
        (at least one) and is overwritten by the next.  A record that is
        cut short or holds a non-finite sample raises ``DataFormatError``
        naming the record, after the records before it have been yielded.
        """
        length = self.record_length
        size = max(1, HIT_BLOCK_SAMPLES // length)
        indices = iter(indices)
        batch = list(islice(indices, size))
        rows = np.empty((len(batch), length), self.payload.dtype)
        with self.payload.path.open("rb") as handle:
            while batch:
                for i in batch:
                    if not 0 <= i < len(self):
                        raise IndexError(f"record {i} outside {len(self)} records")
                filled, error = self.payload._read_rows(handle, [i * length for i in batch], rows)
                if filled:
                    yield rows[:filled]
                if error is not None:
                    i, bad = batch[filled], error.sample
                    at = f"record {i}" if bad is None else f"record {i}, sample {bad - i * length}"
                    raise DataFormatError(f"{error} ({at})", bad)
                batch = list(islice(indices, size))


def read_hits(path: str | Path) -> HitFile:
    """Open a hit container; its records are decoded when read or indexed.

    Only the header line is read and validated here; the file's length
    gives the payload size, which must be a whole number of records.
    """
    path = Path(path)
    with path.open("rb") as handle:
        line = handle.readline()
        payload_bytes = os.fstat(handle.fileno()).st_size - len(line)
    if not line.endswith(b"\n"):
        raise DataFormatError(f"{path}: missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _HIT_FORMAT:
        raise DataFormatError(f"{path}: not an {_HIT_FORMAT} container")
    # type() rather than isinstance(): JSON true/false decode to bool.
    record_length = header.get("record_length")
    if type(record_length) is not int or record_length < 1:
        raise DataFormatError(f"{path}: bad record_length {record_length!r}")
    sample_rate = header.get("sample_rate")
    if type(sample_rate) not in (int, float) or not 0 < sample_rate < float("inf"):
        raise DataFormatError(f"{path}: bad sample_rate {sample_rate!r}")
    pretrigger = header.get("pretrigger")
    if type(pretrigger) is not int or not 0 <= pretrigger < record_length:
        raise DataFormatError(f"{path}: bad pretrigger {pretrigger!r}")
    channel = header.get("channel", 0)
    if type(channel) is not int:
        raise DataFormatError(f"{path}: bad channel {channel!r}")
    dtype = _RAW_DTYPES["raw_f32_le"]
    record_bytes = dtype.itemsize * record_length
    if payload_bytes % record_bytes != 0:
        raise DataFormatError(
            f"{path}: payload of {payload_bytes} bytes is not a whole number of "
            f"{record_bytes}-byte records"
        )
    n_records = payload_bytes // record_bytes
    times = header.get("trigger_times")
    if times is None:
        times = range(n_records)
    # json.loads reads NaN and Infinity as floats.
    elif type(times) is not list or not all(
        type(t) in (int, float) and math.isfinite(t) for t in times
    ):
        raise DataFormatError(f"{path}: trigger_times must be a list of finite numbers")
    if len(times) != n_records:
        raise DataFormatError(
            f"{path}: header lists {len(times)} trigger times for "
            f"{n_records} records"
        )
    payload = RawRecording(
        path, dtype, n_records * record_length, float(sample_rate), len(line)
    )
    return HitFile(payload, record_length, times, pretrigger, channel)


def write_hits(path: str | Path, hits: Iterable[HitRecord]) -> None:
    """Write records into a hit container, one record in memory at a time.

    Records must agree on length, pretrigger, channel and sample rate;
    those become the container header.  Record bodies stream to a temp
    file beside ``path`` while the trigger times are collected; the header
    and the bodies then replace ``path`` in one ``write_atomic``.
    """
    path = Path(path)
    body_path = path.with_name(f".{path.name}.{os.getpid()}.body")
    first = None
    times: list[float] = []
    try:
        with open(body_path, "w+b") as body:
            for hit in hits:
                if first is None:
                    first = hit
                if (
                    hit.samples.size != first.samples.size
                    or hit.pretrigger != first.pretrigger
                    or hit.channel != first.channel
                    or hit.sample_rate != first.sample_rate
                ):
                    raise DataFormatError("hit records disagree on container metadata")
                times.append(hit.trigger_time)
                body.write(hit.samples.astype("<f4").tobytes())
            if first is None:
                raise DataFormatError("cannot write an empty hit container")
            header = {
                "format": _HIT_FORMAT,
                "version": 1,
                "sample_rate": first.sample_rate,
                "record_length": first.samples.size,
                "pretrigger": first.pretrigger,
                "channel": first.channel,
                "trigger_times": times,
            }
            header_line = json.dumps(header, sort_keys=True, allow_nan=False)
            header_line = header_line.encode("utf-8") + b"\n"
            body.seek(0)
            write_atomic(path, chain([header_line], iter(lambda: body.read(1 << 20), b"")))
    finally:
        body_path.unlink(missing_ok=True)
