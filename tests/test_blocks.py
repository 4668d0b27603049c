"""Hit records decoded and featurised a block at a time, against the
per-record references in ``tests/monitor_oracle.py``."""

import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import aeburst.cli as cli_module
import aeburst.io as aeio
from aeburst.cli import cli
from aeburst.config import PipelineConfig
from aeburst.io import DataFormatError, HitRecord, read_hits, write_hits
from aeburst.monitor import decimate
from aeburst.segmentation import block_features, extract_features
from aeburst.synth import HitStreamSpec, synthesize_hit_stream
from aeburst.windowing import Waveform
from monitor_oracle import reference_features, reference_monitor, reference_records

RATE = 2e6


def assert_rows_match(rows, threshold, rectify):
    got = block_features(rows, RATE, threshold, rectify)
    assert len(got) == len(rows)
    for row, features in zip(rows, got):
        want = reference_features(row, RATE, threshold, rectify)
        # astuple compares every field with ==, and their types too.
        assert astuple(features) == astuple(want)
        assert [type(x) for x in astuple(features)] == [type(x) for x in astuple(want)]
        assert features == extract_features(Waveform(row, RATE), (0, row.size), threshold, rectify)


class TestBlockFeatures:
    @pytest.mark.parametrize("rectify", [True, False])
    def test_every_row_length_to_300(self, rectify):
        rng = np.random.default_rng(0)
        for length in range(1, 301):
            # Quarter steps make exact ties, and samples equal to the threshold.
            rows = np.round(rng.normal(0.0, 0.5, size=(5, length)) * 4) / 4
            assert_rows_match(rows, 0.5, rectify)

    @pytest.mark.parametrize("rectify", [True, False])
    def test_hit_length_rows(self, rectify):
        rng = np.random.default_rng(1)
        rows = rng.normal(0.0, 0.01, size=(9, 2048))
        rows[:, 500:] += 0.25 * np.exp(-np.arange(1548) / 400) * np.sin(np.arange(1548) * 0.47)
        rows[3] *= 100.0
        for threshold in [0.0, 0.05, 1.0, 100.0]:
            assert_rows_match(rows, threshold, rectify)

    @pytest.mark.parametrize("rectify", [True, False])
    def test_edge_rows(self, rectify):
        rows = np.array(
            [
                [0.1, 0.2, -0.3, 0.2, 0.1],  # no crossing at threshold 0.5
                [0.9, 0.8, 0.1, 0.7, 0.1],  # opens above threshold
                [0.1, 0.9, 0.1, 0.9, 0.1],  # tied maxima: the first is the peak
                [0.1, -0.9, 0.6, 0.9, 0.1],  # tied magnitudes of opposite sign
                [0.5, 0.5, 0.5, 0.5, 0.5],  # at threshold is not above
                [0.6, 0.6, 0.6, 0.6, 0.6],  # above throughout
                [-0.9, -0.1, -0.9, -0.1, -0.6],  # only negative excursions
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert_rows_match(rows, 0.5, rectify)
        features = block_features(rows, RATE, 0.5, rectify)
        assert features[0].count == 0 and features[0].duration == 0.0
        assert features[1].count == 2 and features[1].rise_time == 0.0
        assert features[2].rise_time == 0.0 and features[2].duration == 2 / RATE

    def test_long_event_row(self):
        # Longer than numpy's summation block, so the pairwise order matters.
        row = np.random.default_rng(2).normal(0.0, 1.0, size=200_003)
        assert_rows_match(row[None, :], 1.5, True)


def write_stream(path, n_hits, record_length=2048, seed=0, **spec):
    hits = HitStreamSpec(
        n_hits=n_hits, record_length=record_length, pretrigger=record_length // 4, **spec
    )
    write_hits(path, synthesize_hit_stream(hits, rng_seed=seed))
    return read_hits(path)


def poke(path, record, sample, value, record_length=2048):
    raw = bytearray(path.read_bytes())
    at = raw.find(b"\n") + 1 + 4 * (record * record_length + sample)
    raw[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))


BLOCK = aeio.HIT_BLOCK_SAMPLES // 2048


class TestHitBlocks:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_block_fills(self, tmp_path, n):
        hits = write_stream(tmp_path / "hits.bin", n)
        blocks = [block.copy() for block in hits.blocks(range(n))]
        assert [len(block) for block in blocks] == [BLOCK] * (n // BLOCK) + (
            [n % BLOCK] if n % BLOCK else []
        )
        rows = np.concatenate(blocks)
        want = list(reference_records(hits, range(n)))
        assert rows.dtype == np.float32
        assert rows.astype(np.float64).tobytes() == np.array(want).tobytes()
        got = [f for block in hits.blocks(range(n)) for f in block_features(block, RATE, 0.05)]
        assert got == [reference_features(v, RATE, 0.05) for v in want]

    @pytest.mark.parametrize("ratio", [1.0, 0.35, 0.1])
    def test_kept_indices(self, tmp_path, ratio):
        hits = write_stream(tmp_path / "hits.bin", 60, record_length=256)
        kept = list(decimate(range(60), ratio))
        rows = np.concatenate([block.copy() for block in hits.blocks(kept)])
        want = np.array(list(reference_records(hits, kept)))
        assert rows.astype(np.float64).tobytes() == want.tobytes()

    def test_records_longer_than_a_block(self, tmp_path, monkeypatch):
        hits = write_stream(tmp_path / "hits.bin", 3, record_length=512)
        monkeypatch.setattr(aeio, "HIT_BLOCK_SAMPLES", 100)
        blocks = [block.copy() for block in hits.blocks([2, 0])]
        assert [block.shape for block in blocks] == [(1, 512), (1, 512)]
        want = next(reference_records(hits, [0]))
        assert blocks[1][0].astype(np.float64).tobytes() == want.tobytes()

    def test_indexing_is_a_one_record_block(self, tmp_path):
        hits = write_stream(tmp_path / "hits.bin", BLOCK + 3)
        hit = hits[BLOCK + 1]
        assert isinstance(hit, HitRecord)
        (want,) = reference_records(hits, [BLOCK + 1])
        assert hit.samples.tobytes() == want.tobytes()
        with pytest.raises(IndexError):
            next(hits.blocks([BLOCK + 3]))

    def test_bad_record_ends_the_blocks_after_the_good_ones(self, tmp_path):
        path = tmp_path / "hits.bin"
        hits = write_stream(path, 3 * BLOCK)
        bad = BLOCK + BLOCK // 2
        poke(path, bad, 17, np.nan)
        seen = []
        with pytest.raises(DataFormatError) as caught:
            for block in hits.blocks(range(3 * BLOCK)):
                seen.extend(block.copy())
        assert len(seen) == bad
        assert str(caught.value).endswith(f"(record {bad}, sample 17)")
        assert caught.value.sample == bad * 2048 + 17
        with pytest.raises(DataFormatError) as oracle:
            list(reference_records(hits, range(3 * BLOCK)))
        assert str(caught.value) == str(oracle.value)


def run_monitor(tmp_path, hits_path, ratio, snapshot_every=None, config=None):
    out = tmp_path / f"out_{ratio}"
    out.mkdir(exist_ok=True)
    argv = [
        "monitor",
        "--hits", str(hits_path),
        "--keep-ratio", str(ratio),
        "--threshold-volts", "0.05",
        "--seed", "3",
        "--alarms-out", str(out / "alarms.jsonl"),
        "--tracks-out", str(out / "tracks.csv"),
        "--state-out", str(out / "state.json"),
    ]
    if snapshot_every:
        argv += ["--snapshot-every", str(snapshot_every)]
    if config:
        argv += ["--config", str(config)]
    return cli(argv), out


@pytest.fixture
def state_writes(monkeypatch):
    """Every state document ``aeburst monitor`` writes, as bytes, in order."""
    written = []
    real = cli_module._write_json

    def recording(path, doc):
        real(path, doc)
        written.append(Path(path).read_bytes())

    monkeypatch.setattr(cli_module, "_write_json", recording)
    return written


class TestMonitorMatchesPerHitLoop:
    @pytest.mark.parametrize("ratio", [1.0, 0.35, 0.1])
    def test_outputs_byte_identical(self, tmp_path, state_writes, ratio):
        hits_path = tmp_path / "hits.bin"
        write_stream(
            hits_path, 1500, record_length=512, seed=4, damage_start_hit=900,
            damage_fraction=0.5,
        )
        code, out = run_monitor(tmp_path, hits_path, ratio, snapshot_every=7)
        assert code == 0
        want_writes = []
        config = PipelineConfig(seed=3, keep_ratio=ratio)
        alarms, tracks = reference_monitor(read_hits(hits_path), config, 0.05, 7, want_writes)
        assert (out / "alarms.jsonl").read_bytes() == alarms
        assert (out / "tracks.csv").read_bytes() == tracks
        assert (out / "state.json").read_bytes() == want_writes[-1]
        assert state_writes == want_writes
        assert len(want_writes) == len(list(decimate(range(1500), ratio))) // 7 + 1
        assert alarms  # the damage is seen, so alarm lines are compared too

    def test_unrectified_config(self, tmp_path, state_writes):
        hits_path = tmp_path / "hits.bin"
        write_stream(hits_path, 200, record_length=512, seed=5, damage_start_hit=100)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"rectify": false}')
        code, out = run_monitor(tmp_path, hits_path, 0.5, config=config_path)
        assert code == 0
        want_writes = []
        config = PipelineConfig(seed=3, keep_ratio=0.5, rectify=False)
        alarms, tracks = reference_monitor(read_hits(hits_path), config, 0.05, None, want_writes)
        assert (out / "alarms.jsonl").read_bytes() == alarms
        assert (out / "tracks.csv").read_bytes() == tracks
        assert state_writes == want_writes


class TestMonitorFaults:
    def expect_oracle_fault(self, hits, ratio, capsys, state_writes):
        want_writes = []
        with pytest.raises(DataFormatError) as oracle:
            reference_monitor(hits, PipelineConfig(seed=3, keep_ratio=ratio), 0.05, 1, want_writes)
        err = capsys.readouterr().err
        assert err == f"data error: {oracle.value}\n"
        assert state_writes == want_writes
        return want_writes, err

    @pytest.mark.parametrize("ratio", [1.0, 0.35])
    def test_non_finite_sample_mid_block(self, tmp_path, capsys, state_writes, ratio):
        hits_path = tmp_path / "hits.bin"
        write_stream(hits_path, 6 * BLOCK, seed=6)
        kept = list(decimate(range(6 * BLOCK), ratio))
        bad = kept[BLOCK + BLOCK // 2]
        poke(hits_path, bad, 1000, np.inf)
        code, out = run_monitor(tmp_path, hits_path, ratio, snapshot_every=1)
        assert code == 2
        writes, err = self.expect_oracle_fault(read_hits(hits_path), ratio, capsys, state_writes)
        assert err.endswith(f"is not finite (record {bad}, sample 1000)\n")
        assert len(writes) == BLOCK + BLOCK // 2
        assert sorted(p.name for p in out.iterdir()) == ["state.json"]
        assert (out / "state.json").read_bytes() == writes[-1]

    def test_payload_truncated_after_open(self, tmp_path, capsys, state_writes, monkeypatch):
        hits_path = tmp_path / "hits.bin"
        write_stream(hits_path, 6 * BLOCK, seed=7)
        cut = (2 * BLOCK + 3) * 2048 * 4 + 100
        header_bytes = hits_path.read_bytes().find(b"\n") + 1
        opened = []

        def read_then_truncate(path):
            opened.append(read_hits(path))
            with open(path, "r+b") as handle:
                handle.truncate(header_bytes + cut)
            return opened[-1]

        monkeypatch.setattr(cli_module, "read_hits", read_then_truncate)
        code, out = run_monitor(tmp_path, hits_path, 1.0, snapshot_every=1)
        assert code == 2
        # The reference reads the truncated file through the same opened hits.
        writes, err = self.expect_oracle_fault(opened[0], 1.0, capsys, state_writes)
        bad = 2 * BLOCK + 3
        assert err.endswith(f"file ends inside samples [{bad * 2048}, {(bad + 1) * 2048}) "
                            f"(record {bad})\n")
        assert len(writes) == bad
        assert (out / "state.json").read_bytes() == writes[-1]


def peak_bytes(hits, n_kept, features=True):
    tracemalloc.start()
    try:
        for block in hits.blocks(decimate(range(n_kept), 1.0)):
            if features:
                block_features(block, hits.sample_rate, 0.05)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_set_by_the_block(tmp_path):
    hits = write_stream(tmp_path / "hits.bin", 4000, record_length=256)
    small, large = peak_bytes(hits, 500), peak_bytes(hits, 4000)
    # Less than one block's float32 buffer.
    assert abs(large - small) < aeio.HIT_BLOCK_SAMPLES * 4
    # Reading alone holds that buffer, its finite mask and the open handle.
    assert peak_bytes(hits, 4000, features=False) < aeio.HIT_BLOCK_SAMPLES * 5 + 32 * 1024
