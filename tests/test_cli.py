"""End-to-end CLI behaviour: subcommands, exit codes, file outputs."""

import json
from dataclasses import replace

import pytest

from aeburst.cli import cli
from aeburst.config import PipelineConfig
from aeburst.detector import score, train_background
from aeburst.io import read_hits, read_waveform, write_hits
from aeburst.synth import HitStreamSpec, synthesize_hit_stream
from aeburst.windowing import extract_counts


@pytest.fixture
def lead_break_files(tmp_path):
    """A small synthetic recording with two bursts, via the CLI itself."""
    wave = tmp_path / "wave.f32"
    ann = tmp_path / "ann.json"
    code = cli(
        [
            "synth",
            "--out", str(wave),
            "--annotations-out", str(ann),
            "--duration", "0.032768",
            "--sample-rate", "1e6",
            "--noise-sigma", "0.01",
            "--burst", "0.008192,0.2,0.0004551,120000,0",
            "--burst", "0.020480,0.2,0.0004551,120000,0",
            "--seed", "3",
        ]
    )
    assert code == 0
    return wave, ann


class TestSynth:
    def test_writes_waveform_and_annotations(self, lead_break_files):
        wave, ann = lead_break_files
        waveform = read_waveform(wave, "raw_f32_le", sample_rate=1e6)
        assert len(waveform) == 32768
        doc = json.loads(ann.read_text())
        assert len(doc["bursts"]) == 2
        assert doc["bursts"][0]["start_index"] == 8192

    def test_hits_mode(self, tmp_path):
        out = tmp_path / "hits.bin"
        code = cli(
            [
                "synth",
                "--mode", "hits",
                "--out", str(out),
                "--n-hits", "12",
                "--sample-rate", "2e6",
                "--seed", "1",
            ]
        )
        assert code == 0
        hits = read_hits(out)
        assert len(hits) == 12
        assert hits[0].samples.size == 2048


class TestDetect:
    def test_emits_trace_and_intervals(self, lead_break_files, tmp_path):
        wave, ann = lead_break_files
        nll_out = tmp_path / "trace.csv"
        events_out = tmp_path / "flags.json"
        code = cli(
            [
                "detect",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--window", "4096",
                "--overlap", "0",
                "--train-count", "5",
                "--nll-out", str(nll_out),
                "--events-out", str(events_out),
            ]
        )
        assert code == 0
        lines = nll_out.read_text().strip().splitlines()
        assert lines[0] == "start_index,count,nll"
        assert len(lines) == 9  # 8 windows
        doc = json.loads(events_out.read_text())
        # Every NLL cell is a plain float literal equal to the model's score.
        config = replace(PipelineConfig(), window_length=4096, overlap=0.0)
        windowed = extract_counts(
            read_waveform(wave, "raw_f32_le", sample_rate=1e6),
            config.threshold_policy(),
            config.window_spec(),
        )
        counts = windowed.counts.tolist()
        model = train_background(
            config.prior(), [counts[i] for i in doc["training_windows"]]
        )
        trace = score(model, windowed, margin=config.flag_margin)
        rows = [line.split(",") for line in lines[1:]]
        assert [float(nll) for _, _, nll in rows] == trace.nlls.tolist()
        assert [int(count) for _, count, _ in rows] == counts
        truth = json.loads(ann.read_text())["bursts"]
        for burst in truth:
            assert any(
                e["start_index"] < burst["end_index"]
                and e["end_index"] > burst["start_index"]
                for e in doc["events"]
            )

    def test_explicit_training_range(self, lead_break_files, tmp_path):
        wave, _ = lead_break_files
        code = cli(
            [
                "detect",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--window", "4096",
                "--overlap", "0",
                "--train-windows", "0:2",
                "--nll-out", str(tmp_path / "t.csv"),
                "--events-out", str(tmp_path / "e.json"),
            ]
        )
        assert code == 0

    def test_bad_training_range_is_data_error(self, lead_break_files, tmp_path):
        wave, _ = lead_break_files
        code = cli(
            [
                "detect",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--window", "4096",
                "--overlap", "0",
                "--train-windows", "0:999",
                "--nll-out", str(tmp_path / "t.csv"),
                "--events-out", str(tmp_path / "e.json"),
            ]
        )
        assert code == 2


class TestCluster:
    def test_emits_events_and_state(self, lead_break_files, tmp_path):
        wave, ann = lead_break_files
        events_out = tmp_path / "events.jsonl"
        state_out = tmp_path / "state.json"
        code = cli(
            [
                "cluster",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--window", "1024",
                "--overlap", "0.875",
                "--alpha", "1",
                "--sweeps", "40",
                "--burn-in", "20",
                "--seed", "0",
                "--events-out", str(events_out),
                "--state-out", str(state_out),
            ]
        )
        assert code == 0
        state = json.loads(state_out.read_text())
        assert state["format"] == "dp-poisson-mixture-state"
        assert sum(c["n_members"] for c in state["clusters"]) == state["n_data"]
        # A noise group plus an event group, at least.
        big = [c for c in state["clusters"] if c["n_members"] >= 0.05 * state["n_data"]]
        assert len(big) >= 2
        records = [
            json.loads(line) for line in events_out.read_text().splitlines()
        ]
        truth = json.loads(ann.read_text())["bursts"]
        # Both bursts recovered as events (possibly with extras from noise).
        for burst in truth:
            assert any(
                r["start_index"] < burst["end_index"]
                and r["end_index"] > burst["start_index"]
                for r in records
            )
        for record in records:
            assert set(record["features"]) == {
                "count", "peak_amplitude", "rise_time", "duration", "energy",
            }


class TestMonitor:
    def test_stream_to_alarms_and_tracks(self, tmp_path):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(
            n_hits=300,
            record_length=512,
            pretrigger=100,
            damage_start_hit=200,
            damage_fraction=0.5,
        )
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=2)))
        alarms_out = tmp_path / "alarms.jsonl"
        tracks_out = tmp_path / "tracks.csv"
        state_out = tmp_path / "state.json"
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--keep-ratio", "1.0",
                "--threshold-volts", "0.05",
                "--seed", "0",
                "--alarms-out", str(alarms_out),
                "--tracks-out", str(tracks_out),
                "--state-out", str(state_out),
            ]
        )
        assert code == 0
        header, *rows = tracks_out.read_text().strip().splitlines()
        assert header == "time,cluster,cumulative_events,cumulative_counts,cumulative_energy"
        assert len(rows) == 300
        alarms = [json.loads(line) for line in alarms_out.read_text().splitlines()]
        assert any(a["kind"] in ("new_cluster", "growth_step") for a in alarms)
        assert all(a["time"] >= 190 for a in alarms)

    def test_periodic_snapshots(self, tmp_path):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=40, record_length=256, pretrigger=50)
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=1)))
        state_out = tmp_path / "state.json"
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--keep-ratio", "1.0",
                "--threshold-volts", "0.05",
                "--alarms-out", str(tmp_path / "a.jsonl"),
                "--tracks-out", str(tmp_path / "t.csv"),
                "--state-out", str(state_out),
                "--snapshot-every", "10",
            ]
        )
        assert code == 0
        doc = json.loads(state_out.read_text())
        assert doc["n_data"] == 40
        # Gate draws for every observation after the founding one.
        assert doc["rng_draws"] >= 39

    def test_snapshot_without_state_out_is_usage_error(self, tmp_path):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=0)))
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--threshold-volts", "0.05",
                "--alarms-out", str(tmp_path / "a.jsonl"),
                "--tracks-out", str(tmp_path / "t.csv"),
                "--snapshot-every", "2",
            ]
        )
        assert code == 1

    def test_percentile_threshold_is_usage_error(self, tmp_path):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=0)))
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--alarms-out", str(tmp_path / "a.jsonl"),
                "--tracks-out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1


class TestFeatures:
    def test_features_for_annotated_events(self, lead_break_files, tmp_path):
        wave, ann = lead_break_files
        out = tmp_path / "features.jsonl"
        code = cli(
            [
                "features",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--events", str(ann),
                "--threshold-volts", "0.03",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert row["count"] > 0
            assert row["peak_amplitude"] > 0.1
            assert row["rise_time"] <= row["duration"]
            assert row["energy"] > 0


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert cli(["detect", "--no-such-flag"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert cli(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code = cli(
            [
                "detect",
                "--input", str(tmp_path / "missing.f32"),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--nll-out", str(tmp_path / "t.csv"),
                "--events-out", str(tmp_path / "e.json"),
            ]
        )
        assert code == 2

    def test_config_file_round_trip(self, tmp_path):
        from aeburst.config import PipelineConfig

        config = PipelineConfig(alpha=3.5, sweeps=12, burn_in=3, seed=11)
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        loaded = PipelineConfig.from_json_file(path)
        assert loaded == config
        assert loaded.to_json() == config.to_json()
