"""Chunked reading of raw recordings: exact thresholds, window counts and
event features equal to the whole-array code, in memory set by the chunk."""

import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeburst.io as aeio
from aeburst.io import read_waveform
from aeburst.segmentation import block_features, extract_features
from aeburst.windowing import (
    ThresholdPolicy,
    Waveform,
    WindowSpec,
    extract_counts,
    resolve_threshold,
)

import windowing_oracle as oracle

# Over 2,357 samples these hit an order statistic exactly (25), interpolate
# from below (99, 99.9) and from the upper end (0.5, 62.5).
PERCENTILES = (0.5, 25.0, 62.5, 99.0, 99.9)
# Chunk sizes that cut windows, and one that holds the whole recording.
CHUNKS = (5, 64, 1000, 1 << 18)
SPECS = (WindowSpec(3, 0.0), WindowSpec(50, 0.5), WindowSpec(300, 0.875))


@dataclass(frozen=True)
class ChunkedWaveform:
    """In-memory float64 samples served ``size`` at a time."""

    samples: np.ndarray
    sample_rate: float
    size: int

    def __len__(self) -> int:
        return self.samples.size

    def chunks(self):
        for start in range(0, self.samples.size, self.size):
            yield self.samples[start : start + self.size]

    def span(self, start: int, end: int) -> np.ndarray:
        return self.samples[start:end]


def _recording(tmp_path, monkeypatch, source, values, chunk):
    """A recording of ``values`` read in ``chunk``-sample chunks, and its samples."""
    if source == "float64":
        return ChunkedWaveform(values, 1e6, chunk), values
    monkeypatch.setattr(aeio, "CHUNK_SAMPLES", chunk)
    dtype = "<f4" if source == "raw_f32_le" else "<i2"
    path = tmp_path / "wave.raw"
    values.astype(dtype).tofile(path)
    return read_waveform(path, source, 1e6), values.astype(dtype).astype(np.float64)


def _signal(source, rng, n):
    if source == "raw_i16_le":
        return rng.integers(-300, 301, size=n).astype(np.float64)
    return rng.normal(0.0, 0.1, size=n) * rng.choice([1.0, 1e-3, 50.0], size=n)


def _assert_matches_oracle(recording, samples, policies, specs=SPECS):
    for policy in policies:
        want = oracle.resolve_threshold(samples, policy)
        assert resolve_threshold(recording, policy) == want
        for spec in specs:
            got = extract_counts(recording, policy, spec)
            expected = oracle.extract_counts(samples, policy, spec)
            assert got.threshold == expected.threshold
            assert got.starts.tolist() == expected.starts.tolist()
            assert got.counts.tolist() == expected.counts.tolist()


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("rectify", [True, False])
@pytest.mark.parametrize("source", ["float64", "raw_f32_le", "raw_i16_le"])
def test_threshold_and_counts_equal_oracle(tmp_path, monkeypatch, source, rectify, chunk):
    rng = np.random.default_rng([CHUNKS.index(chunk), rectify])
    values = _signal(source, rng, 2_357)
    recording, samples = _recording(tmp_path, monkeypatch, source, values, chunk)
    policies = [ThresholdPolicy.percentile(q, rectify) for q in PERCENTILES]
    _assert_matches_oracle(recording, samples, policies)


@pytest.mark.parametrize("rectify", [True, False])
@pytest.mark.parametrize(
    "source, values",
    [
        ("raw_f32_le", np.full(3_000, -0.25)),
        ("raw_i16_le", np.full(3_000, 7.0)),
        ("raw_i16_le", np.resize([-2.0, 0.0, 1.0, 2.0, 2.0, -1.0], 3_000)),
        ("float64", np.resize([-0.0, 0.0, 5e-324, -5e-324, 1.0], 3_000)),
    ],
    ids=["constant f32", "constant i16", "few i16 values", "zeros and denormals"],
)
def test_few_distinct_values_equal_oracle(tmp_path, monkeypatch, source, values, rectify):
    # Every bucket holds far more than one 16-sample chunk, so the select
    # has to refine down to a single key.
    recording, samples = _recording(tmp_path, monkeypatch, source, values, 16)
    policies = [ThresholdPolicy.percentile(q, rectify) for q in PERCENTILES]
    _assert_matches_oracle(recording, samples, policies, specs=(WindowSpec(40, 0.5),))


def test_one_sample_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    recording, samples = _recording(
        tmp_path, monkeypatch, "raw_f32_le", rng.normal(size=201), 1
    )
    policies = [ThresholdPolicy.percentile(q, r) for q in (10.0, 99.0) for r in (True, False)]
    _assert_matches_oracle(recording, samples, policies, specs=(WindowSpec(4, 0.5),))


def test_windows_longer_than_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    recording, samples = _recording(
        tmp_path, monkeypatch, "raw_f32_le", rng.normal(size=5_000), 5
    )
    specs = (WindowSpec(1_234, 0.0), WindowSpec(4_999, 0.0), WindowSpec(5_000, 0.5))
    policies = [ThresholdPolicy.percentile(95.0), ThresholdPolicy.fixed(0.5, False)]
    _assert_matches_oracle(recording, samples, policies, specs)


def test_event_features_from_span_reads_equal_eager(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    recording, samples = _recording(
        tmp_path, monkeypatch, "raw_f32_le", rng.normal(0.0, 0.1, 4_000), 64
    )
    eager = Waveform(samples, 1e6)
    for start, end in [(0, 4_000), (0, 1), (63, 65), (100, 1_900), (3_999, 4_000)]:
        for rectify in (True, False):
            assert extract_features(recording, (start, end), 0.12, rectify) == (
                extract_features(eager, (start, end), 0.12, rectify)
            )


@pytest.mark.parametrize("kind", ["noise", "constant"])
def test_count_memory_is_set_by_the_chunk(tmp_path, monkeypatch, kind):
    # A large window keeps the per-window arrays a few entries long, so only
    # the recording length changes between the two runs of each select path.
    # At 4,096-sample chunks the 99.9th percentile's upper tail fits a chunk
    # at both lengths (67 and 526 samples) and the 50th's does not at either.
    monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 1 << 12)
    reads = []
    chunks = aeio.RawRecording.chunks
    monkeypatch.setattr(
        aeio.RawRecording, "chunks", lambda self: reads.append(self) or chunks(self)
    )
    rng = np.random.default_rng(8)
    peaks = {}
    for n in (1 << 16, 1 << 19):
        path = tmp_path / f"{n}.f32"
        values = rng.normal(size=n) if kind == "noise" else np.full(n, 0.25)
        values.astype("<f4").tofile(path)
        recording = read_waveform(path, "raw_f32_le", 1e6)
        for path_name, q in (("tail", 99.9), ("radix", 50.0)):
            reads.clear()
            tracemalloc.start()
            try:
                extract_counts(recording, ThresholdPolicy.percentile(q), WindowSpec(1 << 14))
                peaks[path_name, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # One read to count, and one to select on the tail path.
            assert (len(reads) == 2) == (path_name == "tail")
    for path_name in ("tail", "radix"):
        # Holding the longer recording whole would add at least 4 MiB of float64.
        assert peaks[path_name, 1 << 19] < 1.1 * peaks[path_name, 1 << 16]
    for n in (1 << 16, 1 << 19):
        assert peaks["tail", n] <= peaks["radix", n]


# Stored-width reading: float32 and int16 chunks are thresholded and counted
# as stored, and must give what the float64 code gives on the same samples,
# bit for bit.
F32 = np.float32
F32_SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.1, -0.1,
    float(np.finfo(F32).smallest_subnormal), -float(np.finfo(F32).smallest_subnormal),
    float(np.finfo(F32).smallest_normal), float(np.finfo(F32).max), float(np.finfo(F32).min),
]
I16_SPECIAL = [-32768, 32767, -32767, 0, 1, -1]


def _samples(fmt):
    if fmt == "raw_f32_le":
        element = st.one_of(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            st.sampled_from(F32_SPECIAL),
        )
    else:
        element = st.one_of(st.integers(-32768, 32767), st.sampled_from(I16_SPECIAL))
    return st.lists(element, min_size=1, max_size=200)


def _fixed_thresholds(values):
    """Thresholds at, just off and between neighbours of a sample, and beyond any."""
    v = float(values[0])
    with np.errstate(over="ignore"):
        up = float(np.nextafter(F32(v), F32(np.inf)))
    return [
        v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf), (v + up) / 2,
        v + 0.5, v - 0.5, 1e300, -1e300, 3.5e38, -3.5e38, 32767.5, -32768.5,
    ]


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("fmt", ["raw_f32_le", "raw_i16_le"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stored_width_equals_float64(tmp_path_factory, fmt, data):
    values = data.draw(_samples(fmt), label="values")
    chunk = data.draw(st.integers(1, 64), label="chunk")
    rectify = data.draw(st.booleans(), label="rectify")
    q = data.draw(
        st.one_of(
            st.sampled_from([1e-9, 0.001, 0.5, 50.0, 99.5, 99.999, 100 - 1e-9]),
            st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
        ),
        label="percentile",
    )
    length = data.draw(st.integers(1, len(values)), label="window")
    overlap = data.draw(st.sampled_from([0.0, 0.5, 0.75]), label="overlap")
    spec = WindowSpec(length, overlap if length >= 4 else 0.0)

    path = tmp_path_factory.getbasetemp() / f"stored.{fmt}"
    stored = np.array(values, dtype="<f4" if fmt == "raw_f32_le" else "<i2")
    stored.tofile(path)
    samples = stored.astype(np.float64)
    eager = Waveform(samples, 1e6)
    policies = [ThresholdPolicy.percentile(q, rectify)] + [
        ThresholdPolicy.fixed(t, rectify) for t in _fixed_thresholds(values)
    ]
    with mock.patch.object(aeio, "CHUNK_SAMPLES", chunk):
        recording = read_waveform(path, fmt, 1e6)
        for policy in policies:
            threshold = resolve_threshold(recording, policy)
            assert _bits(threshold) == _bits(resolve_threshold(eager, policy))
            # np.percentile's partition may pick either zero of a -0.0/0.0
            # tie, so against it the sign of a zero is not compared.
            assert threshold == oracle.resolve_threshold(samples, policy)
            got = extract_counts(recording, policy, spec)
            want = oracle.extract_counts(samples, policy, spec)
            assert got.counts.tolist() == want.counts.tolist()
            assert got.counts.tolist() == extract_counts(eager, policy, spec).counts.tolist()
            assert got.starts.tolist() == want.starts.tolist()


@pytest.mark.parametrize("fmt", ["raw_f32_le", "raw_i16_le"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stored_width_features_equal_float64(tmp_path_factory, fmt, data):
    values = data.draw(_samples(fmt), label="values")
    width = data.draw(st.integers(1, len(values)), label="width")
    rectify = data.draw(st.booleans(), label="rectify")
    stored = np.array(values, dtype="<f4" if fmt == "raw_f32_le" else "<i2")
    rows = stored[: len(values) // width * width].reshape(-1, width)
    path = tmp_path_factory.getbasetemp() / f"features.{fmt}"
    stored.tofile(path)
    recording = read_waveform(path, fmt, 1e6)
    assert recording.span(0, len(values)).dtype == stored.dtype
    for threshold in _fixed_thresholds(values):
        got = block_features(rows, 1e6, threshold, rectify)
        want = block_features(rows.astype(np.float64), 1e6, threshold, rectify)
        got.append(extract_features(recording, (0, len(values)), threshold, rectify))
        want.append(
            extract_features(Waveform(stored.astype(np.float64), 1e6), (0, len(values)),
                             threshold, rectify)
        )
        for g, w in zip(got, want, strict=True):
            assert type(g.count) is int and g.count == w.count
            assert type(g.peak_amplitude) is float
            for field in ("peak_amplitude", "rise_time", "duration", "energy"):
                assert _bits(getattr(g, field)) == _bits(getattr(w, field)), field


@dataclass
class CountedReads:
    """A recording that counts the reads of its samples."""

    recording: object
    reads: int = 0

    def __len__(self) -> int:
        return len(self.recording)

    def chunks(self):
        self.reads += 1
        return self.recording.chunks()


# Over 1,201 samples the upper tail from the lower order statistic holds
# 601, 13, 3 and 2 samples.  No percentile below 100 leaves one sample in it
# unless the recording has one sample: (n - 1) * (q / 100) rounds below n - 1.
PATH_PERCENTILES = (50.0, 99.0, 99.9, 99.99999)
SPECIAL = {"raw_f32_le": F32_SPECIAL, "raw_i16_le": I16_SPECIAL, "float64": F32_SPECIAL}


def _upper_tail(n, q):
    index = (n - 1) * (q / 100)
    return 1 if index >= n - 1 else n - int(index)


def _path_signal(source, kind, rng, n):
    if kind == "noise":
        return _signal(source, rng, n)
    if kind == "constant":
        return np.full(n, -3.0)
    if kind == "special":
        return rng.permutation(np.resize(np.array(SPECIAL[source], dtype=np.float64), n))
    ramp = np.linspace(0.5, 300.0, n)  # the top keys come last, or first
    return ramp if kind == "ascending" else ramp[::-1].copy()


@pytest.mark.parametrize("rectify", [True, False])
@pytest.mark.parametrize("kind", ["noise", "constant", "special", "ascending", "descending"])
@pytest.mark.parametrize("source", ["float64", "raw_f32_le", "raw_i16_le"])
def test_both_select_paths_equal_percentile(tmp_path, monkeypatch, source, kind, rectify):
    # A chunk of exactly the upper tail keeps it in one read; a chunk one
    # sample shorter takes the radix select, which reads at least twice.
    rng = np.random.default_rng([len(kind), rectify])
    values = _path_signal(source, kind, rng, 1_201)
    for q in PATH_PERCENTILES:
        policy = ThresholdPolicy.percentile(q, rectify)
        m = _upper_tail(values.size, q)
        for chunk in (m, m - 1):
            if chunk == 0:
                continue
            recording, samples = _recording(tmp_path, monkeypatch, source, values, chunk)
            counted = CountedReads(recording)
            threshold = resolve_threshold(counted, policy)
            assert threshold == oracle.resolve_threshold(samples, policy)
            assert (counted.reads == 1) == (chunk == m)
        if source == "float64":
            # One chunk holds the whole recording; the select partitions a
            # copy of its keys, never the samples themselves.
            waveform = Waveform(values, 1e6)
            before = waveform.samples.tobytes()
            counted = CountedReads(waveform)
            assert resolve_threshold(counted, policy) == oracle.resolve_threshold(values, policy)
            assert counted.reads == 1
            assert waveform.samples.tobytes() == before


@pytest.mark.parametrize("rectify", [True, False])
@pytest.mark.parametrize("source", ["float64", "raw_f32_le", "raw_i16_le"])
def test_one_sample_is_its_own_upper_tail(tmp_path, monkeypatch, source, rectify):
    recording, samples = _recording(tmp_path, monkeypatch, source, np.array([-7.0]), 1)
    for q in (0.5, 99.99999):
        policy = ThresholdPolicy.percentile(q, rectify)
        counted = CountedReads(recording)
        assert resolve_threshold(counted, policy) == oracle.resolve_threshold(samples, policy)
        assert counted.reads == 1


@pytest.mark.parametrize("fmt, dtype", [("raw_f32_le", "<f4"), ("raw_i16_le", "<i2")])
def test_upper_tail_select_reads_once(tmp_path, monkeypatch, fmt, dtype):
    monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 256)
    rng = np.random.default_rng(11)
    path = tmp_path / "wave.raw"
    rng.normal(0.0, 1_000.0, size=50_000).astype(dtype).tofile(path)
    recording = read_waveform(path, fmt, 1e6)
    samples = np.fromfile(path, dtype=dtype).astype(np.float64)
    counted = CountedReads(recording)
    policy = ThresholdPolicy.percentile(99.9)  # an upper tail of 51 samples
    assert resolve_threshold(counted, policy) == oracle.resolve_threshold(samples, policy)
    assert counted.reads == 1


def test_raw_chunks_share_one_buffer(tmp_path, monkeypatch):
    monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 256)
    values = np.arange(1000, dtype="<f4")
    values.tofile(tmp_path / "wave.f32")
    chunks = read_waveform(tmp_path / "wave.f32", "raw_f32_le", 1e6).chunks()
    first = next(chunks)
    assert first.tolist() == values[:256].tolist()
    for start in (256, 512, 768):
        chunk = next(chunks)
        assert np.shares_memory(chunk, first)
        assert chunk.tolist() == values[start : start + 256].tolist()
    # The next chunk overwrote the first.
    assert first[:232].tolist() == values[768:].tolist()
    assert next(chunks, None) is None


def test_raw_chunks_keep_the_stored_dtype_and_the_select_reads_twice(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 256)
    rng = np.random.default_rng(10)
    f32, i16 = tmp_path / "wave.f32", tmp_path / "wave.i16"
    rng.normal(size=50_000).astype("<f4").tofile(f32)
    rng.integers(-32768, 32768, size=50_000).astype("<i2").tofile(i16)
    recording = read_waveform(f32, "raw_f32_le", 1e6)
    assert {c.dtype for c in recording.chunks()} == {np.dtype(np.float32)}
    assert {c.dtype for c in read_waveform(i16, "raw_i16_le", 1e6).chunks()} == {
        np.dtype(np.int16)
    }
    assert recording.span(0, 10).dtype == np.float32

    reads = []
    chunks = aeio.RawRecording.chunks
    monkeypatch.setattr(
        aeio.RawRecording, "chunks", lambda self: reads.append(self) or chunks(self)
    )
    # Near these ranks a top-16-bit bucket of float64 keys holds more than one
    # 256-sample chunk, so 64-bit keys would need a third read; 32-bit need two.
    for q in (50.0, 99.0):
        reads.clear()
        resolve_threshold(recording, ThresholdPolicy.percentile(q))
        assert len(reads) == 2
