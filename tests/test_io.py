"""File formats: waveform CSV/raw codecs and the hit container."""

import json
from dataclasses import replace

import numpy as np
import pytest

from aeburst.io import (
    DataFormatError,
    HitRecord,
    read_hits,
    read_waveform,
    write_hits,
    write_waveform,
)
from aeburst.windowing import Waveform


class TestWaveformCsv:
    def test_one_sample_per_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0\n1.0\n0.0\n")
        w = read_waveform(path, "csv", sample_rate=10.0)
        assert len(w) == 3
        assert w.sample_rate == 10.0
        np.testing.assert_array_equal(w.samples, [0.0, 1.0, 0.0])

    def test_time_value_pairs_infer_rate(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        w = read_waveform(path, "csv")
        assert w.sample_rate == pytest.approx(10.0)
        np.testing.assert_array_equal(w.samples, [1.0, 2.0, 3.0])

    def test_nonuniform_timestamps_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0,1.0\n0.1,2.0\n0.35,3.0\n")
        with pytest.raises(DataFormatError):
            read_waveform(path, "csv")

    def test_declared_rate_must_match_timestamps(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        with pytest.raises(DataFormatError):
            read_waveform(path, "csv", sample_rate=11.0)

    def test_single_column_requires_rate(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(DataFormatError):
            read_waveform(path, "csv")

    def test_csv_round_trip(self, tmp_path):
        w = Waveform(np.array([0.5, -1.25, 3.0]), 100.0)
        path = tmp_path / "w.csv"
        write_waveform(path, w, "csv")
        back = read_waveform(path, "csv", sample_rate=100.0)
        np.testing.assert_array_equal(back.samples, w.samples)


class TestWaveformRaw:
    def test_f32_byte_count(self, tmp_path):
        path = tmp_path / "w.f32"
        path.write_bytes(np.zeros(1024, dtype="<f4").tobytes())
        assert path.stat().st_size == 4096
        w = read_waveform(path, "raw_f32_le", sample_rate=1e6)
        assert len(w) == 1024

    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=500).astype("<f4").astype(np.float64)
        w = Waveform(samples, 2e6)
        path = tmp_path / "w.f32"
        write_waveform(path, w, "raw_f32_le")
        back = read_waveform(path, "raw_f32_le", sample_rate=2e6)
        stored = back.span(0, len(back))
        assert stored.dtype == np.float32
        assert stored.astype(np.float64).tobytes() == w.samples.tobytes()

    def test_truncated_raw_rejected(self, tmp_path):
        path = tmp_path / "w.f32"
        path.write_bytes(b"\x00" * 10)  # not a multiple of 4
        with pytest.raises(DataFormatError):
            read_waveform(path, "raw_f32_le", sample_rate=1.0)

    def test_i16_round_trip(self, tmp_path):
        w = Waveform(np.array([-32768.0, -5.0, 0.0, 1000.0, 32767.0]), 10.0)
        path = tmp_path / "w.i16"
        write_waveform(path, w, "raw_i16_le")
        back = read_waveform(path, "raw_i16_le", sample_rate=10.0)
        np.testing.assert_array_equal(back.span(0, len(back)), w.samples)

    @pytest.mark.parametrize("value", [-32769.0, 32768.0, 0.5])
    def test_i16_write_refuses_values_outside_int16(self, tmp_path, value):
        path = tmp_path / "w.i16"
        with pytest.raises(DataFormatError, match="int16 range"):
            write_waveform(path, Waveform(np.array([0.0, value]), 10.0), "raw_i16_le")
        assert not path.exists()

    def test_file_shortened_after_open_is_data_error(self, tmp_path):
        path = tmp_path / "w.f32"
        np.zeros(100, dtype="<f4").tofile(path)
        recording = read_waveform(path, "raw_f32_le", sample_rate=1.0)
        np.zeros(60, dtype="<f4").tofile(path)
        with pytest.raises(DataFormatError, match="file ends inside"):
            list(recording.chunks())
        with pytest.raises(DataFormatError, match="file ends inside"):
            recording.span(50, 80)
        assert recording.span(10, 20).tolist() == [0.0] * 10

    def test_rate_required(self, tmp_path):
        path = tmp_path / "w.f32"
        path.write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(DataFormatError):
            read_waveform(path, "raw_f32_le")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_waveform(tmp_path / "x", "raw_f64_le", sample_rate=1.0)


def make_hits(n, record_length=2048, pretrigger=500):
    rng = np.random.default_rng(1)
    return [
        HitRecord(
            trigger_time=0.26 * i,
            samples=rng.normal(size=record_length).astype("<f4").astype(np.float64),
            pretrigger=pretrigger,
            channel=5,
            sample_rate=2e6,
        )
        for i in range(n)
    ]


class TestHitContainer:
    def test_three_records_round_trip(self, tmp_path):
        hits = make_hits(3)
        path = tmp_path / "hits.bin"
        write_hits(path, hits)
        back = read_hits(path)
        assert len(back) == 3
        for original, restored in zip(hits, back):
            assert restored.samples.size == 2048
            assert restored.pretrigger == 500
            assert restored.channel == 5
            assert restored.trigger_time == original.trigger_time
            assert restored.samples.tobytes() == original.samples.tobytes()

    def test_zero_records(self, tmp_path):
        path = tmp_path / "hits.bin"
        header = {
            "format": "ae-hits",
            "version": 1,
            "sample_rate": 2e6,
            "record_length": 2048,
            "pretrigger": 500,
            "channel": 5,
        }
        path.write_bytes(json.dumps(header).encode() + b"\n")
        assert list(read_hits(path)) == []
        assert len(read_hits(path)) == 0

    def test_payload_size_mismatch_rejected(self, tmp_path):
        hits = make_hits(2)
        path = tmp_path / "hits.bin"
        write_hits(path, hits)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # chop the payload mid-record
        with pytest.raises(DataFormatError):
            read_hits(path)

    def test_trigger_time_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(2))
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["trigger_times"] = [0.0]
        path.write_bytes(json.dumps(header).encode() + b"\n" + raw[newline + 1 :])
        with pytest.raises(DataFormatError):
            read_hits(path)

    def test_missing_times_fall_back_to_ordinals(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(2))
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        del header["trigger_times"]
        path.write_bytes(json.dumps(header).encode() + b"\n" + raw[newline + 1 :])
        back = read_hits(path)
        assert [h.trigger_time for h in back] == [0.0, 1.0]

    def test_indexing_matches_eager_decode(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(4, record_length=64, pretrigger=8))
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        times = json.loads(raw[:newline])["trigger_times"]
        flat = np.frombuffer(raw[newline + 1 :], dtype="<f4").astype(np.float64)
        hits = read_hits(path)
        assert len(hits) == 4
        for i in [0, 1, 2, 3, -1, -4]:
            hit = hits[i]
            j = i % 4
            assert hit.samples.dtype == np.float64
            assert hit.samples.tobytes() == flat[64 * j : 64 * (j + 1)].tobytes()
            assert hit.trigger_time == float(times[j])
            assert (hit.pretrigger, hit.channel, hit.sample_rate) == (8, 5, 2e6)
        for bad in [4, -5]:
            with pytest.raises(IndexError):
                hits[bad]

    def test_record_lost_after_open_rejected(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(3, record_length=64, pretrigger=8))
        hits = read_hits(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        assert hits[1].samples.size == 64
        with pytest.raises(DataFormatError):
            hits[2]
        with pytest.raises(DataFormatError):
            hits[-1]

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(4, record_length=64, pretrigger=8))
        raw = bytearray(path.read_bytes())
        at = raw.find(b"\n") + 1 + 4 * (2 * 64 + 5)
        raw[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        hits = read_hits(path)
        assert hits[1].samples.size == 64
        with pytest.raises(DataFormatError, match=f"sample {2 * 64 + 5} is not finite"):
            hits[2]

    def test_non_finite_sample_names_its_record(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(4, record_length=64, pretrigger=8))
        raw = bytearray(path.read_bytes())
        at = raw.find(b"\n") + 1 + 4 * (2 * 64 + 5)
        raw[at : at + 4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"\(record 2, sample 5\)$") as caught:
            read_hits(path)[2]
        assert caught.value.sample == 2 * 64 + 5

    def test_empty_container_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_hits(tmp_path / "hits.bin", iter([]))
        assert list(tmp_path.iterdir()) == []

    def test_pretrigger_must_fit(self):
        with pytest.raises(ValueError):
            HitRecord(
                trigger_time=0.0,
                samples=np.zeros(100),
                pretrigger=100,
                channel=0,
                sample_rate=1.0,
            )


def eager_write_hits(path, hits):
    """The all-in-memory writer: one header, then every body joined."""
    header = {
        "format": "ae-hits",
        "version": 1,
        "sample_rate": hits[0].sample_rate,
        "record_length": hits[0].samples.size,
        "pretrigger": hits[0].pretrigger,
        "channel": hits[0].channel,
        "trigger_times": [hit.trigger_time for hit in hits],
    }
    body = b"".join(hit.samples.astype("<f4").tobytes() for hit in hits)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)


class TestStreamingWriteHits:
    def test_bytes_match_eager_writer(self, tmp_path):
        # 300 records of 8 KiB span several of the writer's 1 MiB copy chunks.
        hits = make_hits(300)
        write_hits(tmp_path / "streamed.bin", hits)
        eager_write_hits(tmp_path / "eager.bin", hits)
        streamed = (tmp_path / "streamed.bin").read_bytes()
        assert streamed == (tmp_path / "eager.bin").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eager.bin", "streamed.bin"]

    def test_generator_input(self, tmp_path):
        hits = make_hits(5, record_length=64, pretrigger=8)
        write_hits(tmp_path / "hits.bin", (hit for hit in hits))
        eager_write_hits(tmp_path / "eager.bin", hits)
        assert (tmp_path / "hits.bin").read_bytes() == (tmp_path / "eager.bin").read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [("channel", 6), ("pretrigger", 9), ("sample_rate", 1e6), ("samples", np.zeros(65))],
    )
    def test_mismatch_mid_stream_leaves_no_file(self, tmp_path, field, value):
        hits = make_hits(6, record_length=64, pretrigger=8)
        hits[3] = replace(hits[3], **{field: value})
        consumed = []

        def stream():
            for hit in hits:
                consumed.append(hit)
                yield hit

        with pytest.raises(DataFormatError):
            write_hits(tmp_path / "hits.bin", stream())
        assert len(consumed) == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_trigger_time_is_not_written(self, tmp_path, time):
        # read_hits refuses such a header, so the writer must not make one.
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(2, record_length=64, pretrigger=8))
        before = path.read_bytes()
        bad = make_hits(3, record_length=64, pretrigger=8)
        bad[1] = replace(bad[1], trigger_time=time)
        with pytest.raises(ValueError):
            write_hits(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["hits.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "hits.bin"
        write_hits(path, make_hits(2, record_length=64, pretrigger=8))
        before = path.read_bytes()
        bad = make_hits(3, record_length=64, pretrigger=8)
        bad[2] = replace(bad[2], channel=9)
        with pytest.raises(DataFormatError):
            write_hits(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["hits.bin"]
