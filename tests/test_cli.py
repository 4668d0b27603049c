"""End-to-end CLI behaviour: subcommands, exit codes, file outputs."""

import argparse
import hashlib
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeburst
from aeburst.cli import _flag, _nll_csv, _write_json, build_parser, cli
from aeburst.config import PipelineConfig
from aeburst.detector import NllTrace, score, train_background
from aeburst.distributions import GammaParams
from aeburst.dppmm import Hyperparams, MixtureState, state_to_json_dict
import aeburst.io as aeio
from aeburst.io import read_hits, read_waveform, write_hits
from aeburst.monitor import observe
from aeburst.synth import BurstSpec, HitStreamSpec, SynthSpec, synthesize, synthesize_hit_stream
from aeburst.windowing import WindowedCounts, WindowSpec, extract_counts


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

    @pytest.mark.parametrize(
        "burst",
        [
            "a,b,c,d",
            "0.01,0.2,0.001",
            "0.01,0.2,0.001,1e5,0,0",
            "0.01,0.2,0.001,1e5,x",
            "0.01,inf,0.001,1000",
            "0.01,0.2,inf,1000",
            "0.01,nan,0.001,1000",
            "0.01,0.2,0.001,nan",
            "0.01,0.2,0.001,inf",
            "5,0.2,0.001,1000",
            "nan,0.2,0.001,1000",
            "-0.01,0.2,0.001,1000",
        ],
    )
    def test_malformed_burst_is_usage_error(self, tmp_path, capsys, burst):
        out = tmp_path / "wave.f32"
        code = cli(["synth", "--out", str(out), "--burst", burst])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: argument --burst: ")
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags",
        [
            ["--sample-rate", "0"],
            ["--sample-rate", "-1e6"],
            ["--sample-rate", "inf"],
            ["--duration", "nan"],
            ["--duration", "0"],
            ["--mode", "hits", "--n-hits", "5", "--sample-rate", "0"],
            ["--mode", "hits", "--n-hits", "5", "--sample-rate", "nan"],
            ["--noise-sigma", "nan"],
            ["--noise-sigma", "-1"],
            ["--mode", "hits", "--noise-sigma", "nan"],
            ["--mode", "hits", "--n-hits", "-1"],
            ["--mode", "hits", "--n-hits", "0"],
            ["--mode", "hits", "--damage-start-hit", "0", "--damage-fraction", "1.5"],
            ["--mode", "hits", "--damage-start-hit", "0", "--damage-energy-factor", "-1"],
            ["--mode", "hits", "--n-hits", "5", "--damage-start-hit", "-3"],
            ["--duration", "1e-9"],
            ["--sample-rate", "100", "--duration", "0.001"],
            ["--duration", "inf"],
            ["--noise-sigma", "inf"],
            ["--mode", "hits", "--noise-sigma", "inf"],
            ["--mode", "hits", "--damage-energy-factor", "inf"],
        ],
        ids=" ".join,
    )
    def test_bad_rate_or_duration_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out.bin"
        code = cli(["synth", "--out", str(out), *flags])
        assert code == 1
        flag = flags[-2]
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "hits", "--burst", "0.01,0.2,0.001,1000"],
            ["--mode", "hits", "--duration", "5"],
            ["--n-hits", "5"],
            ["--damage-start-hit", "3"],
            ["--damage-fraction", "0.5"],
            ["--damage-energy-factor", "2"],
        ],
        ids=" ".join,
    )
    def test_flag_of_the_other_mode_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out.bin"
        code = cli(["synth", "--out", str(out), *flags])
        assert code == 1
        flag = flags[-2]
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: not used")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [["--annotations-out", "truth.json"], ["--out-format", "csv"]],
        ids=" ".join,
    )
    def test_waveform_output_flag_in_hits_mode_is_usage_error(self, tmp_path, capsys, flags):
        # Hits mode writes a hit container and no annotations, so both
        # waveform output flags are refused, and nothing is written.
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "h.bin"
        code = cli(["synth", "--mode", "hits", "--n-hits", "3", "--out", str(out), *flags])
        assert code == 1
        flag = flags[-2]
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: not used by --mode hits")
        assert list(tmp_path.iterdir()) == []

    def test_readme_hit_container_is_the_benchmarks(self, tmp_path):
        # The README's monitor input, made by the CLI at the spec's defaults,
        # is the container perfbench builds from HitStreamSpec directly.
        by_cli, by_spec = tmp_path / "cli.bin", tmp_path / "spec.bin"
        argv = ["--mode", "hits", "--n-hits", "50", "--damage-start-hit", "30", "--seed", "0"]
        assert cli(["synth", "--out", str(by_cli), *argv]) == 0
        spec = HitStreamSpec(n_hits=50, damage_start_hit=30)
        write_hits(by_spec, synthesize_hit_stream(spec, 0))
        assert by_cli.read_bytes() == by_spec.read_bytes()


def _readme_cli_commands() -> list[list[str]]:
    """Each ``aeburst ...`` command of the README's CLI block, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("aeburst ")]


def test_readme_cli_examples_parse():
    commands = _readme_cli_commands()
    assert sorted({argv[1] for argv in commands}) == sorted(
        ["synth", "detect", "cluster", "monitor", "features"]
    )
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_readme_names_every_flag():
    # Config fields' flags are covered by the README's naming rule.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    by_rule = {_flag(f.name) for f in fields(PipelineConfig)}
    flags = {
        flag
        for sub in _subparsers().values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    missing = [
        flag
        for flag in sorted(flags - by_rule)
        if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    ]
    assert missing == []


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
                "--train-windows", "0:2",
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

    def test_raw_recording_is_read_twice(self, lead_break_files, tmp_path, monkeypatch):
        # The 99th percentile's upper tail fits the one 2^18-sample chunk, so
        # the threshold takes one read and the window counts the other.
        wave, _ = lead_break_files
        reads = []
        chunks = aeio.RawRecording.chunks
        monkeypatch.setattr(
            aeio.RawRecording, "chunks", lambda self: reads.append(self) or chunks(self)
        )
        code = cli(
            [
                "detect", "--input", str(wave), "--format", "raw_f32_le",
                "--sample-rate", "1e6", "--window", "256", "--train-windows", "0:20",
                "--nll-out", str(tmp_path / "trace.csv"),
                "--events-out", str(tmp_path / "flags.json"),
            ]
        )
        assert code == 0
        assert len(reads) == 2

    def test_nll_csv_blocks_join_to_one_document(self):
        counts = np.random.default_rng(0).poisson(2.0, 23)
        windowed = WindowedCounts(
            starts=np.arange(23) * 10, counts=counts, spec=WindowSpec(10), threshold=1.0
        )
        trace = score(train_background(PipelineConfig().prior(), [0, 1]), windowed)
        lines = ["start_index,count,nll"] + [
            f"{s},{c},{v!r}"
            for s, c, v in zip(windowed.starts.tolist(), counts.tolist(), trace.nlls.tolist())
        ]
        whole = ("\n".join(lines) + "\n").encode("ascii")
        for block in (1, 5, 23, 4096):
            assert b"".join(_nll_csv(trace, block)) == whole

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 11, 4096])
    def test_nll_csv_rows_follow_the_row_rule(self, block):
        # Count 3 with two NLLs, NLL 1.5 on counts 3 and 5, both zeros, inf:
        # each row's tail must come from its own (count, NLL) pair.
        counts = np.array([3, 3, 0, 5, 0, 0, 7, 7, 3, 5, 12])
        nlls = np.array(
            [1.5, 2.25, 0.0, 1.5, -0.0, 0.0, math.inf, math.inf, 1.5, 0.1 + 0.2, -0.0]
        )
        starts = np.arange(counts.size) * 256 + 17
        trace = NllTrace(starts, counts, nlls, flag_threshold=1.0, spec=WindowSpec(256))
        rows = zip(starts.tolist(), counts.tolist(), nlls.tolist())
        want = "start_index,count,nll\n" + "".join(f"{s},{c},{v!r}\n" for s, c, v in rows)
        assert b"".join(_nll_csv(trace, block)) == want.encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([0.0, -0.0, 1.5, 2.0, 1e-300, math.inf, 7.25]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 8),
    )
    def test_nll_csv_equals_row_by_row_for_any_pairs(self, pairs, block):
        counts = np.array([c for c, _ in pairs])
        nlls = np.array([v for _, v in pairs])
        starts = np.arange(len(pairs)) * 3
        trace = NllTrace(starts, counts, nlls, flag_threshold=0.0, spec=WindowSpec(3))
        rows = zip(starts.tolist(), counts.tolist(), nlls.tolist())
        want = "start_index,count,nll\n" + "".join(f"{s},{c},{v!r}\n" for s, c, v in rows)
        assert b"".join(_nll_csv(trace, block)) == want.encode("ascii")

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
    def test_run_leaves_numpy_ma_unimported(self, lead_break_files, tmp_path):
        # ``np.unique`` without index outputs imports ``numpy.ma``, which
        # costs a fresh ``cluster`` process 9-18 ms; the field dedupes its
        # edges without it.
        wave, _ = lead_break_files
        script = (
            "import sys\n"
            "from aeburst.cli import cli\n"
            "assert cli(sys.argv[1:]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        argv = [
            "cluster", "--input", str(wave), "--format", "raw_f32_le",
            "--sample-rate", "1e6", "--window", "1024", "--overlap", "0.875",
            "--sweeps", "20", "--burn-in", "10", "--seed", "0",
            "--events-out", str(tmp_path / "events.jsonl"),
            "--state-out", str(tmp_path / "state.json"),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(aeburst.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert run.stdout == "False\n"

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

    def test_boundaries_the_benchmark_trace_reads(self, lead_break_files, tmp_path, monkeypatch):
        # perfbench/tracing.py replaces the layer functions that aeburst.cli
        # imports, by attribute, and reads fit's .sweeps_run and .state,
        # average_probabilities' third positional argument as the signal
        # length, and the field's keys as the ids seen.  The field gathers
        # each window's row of fit's table itself, which takes no draws.
        import aeburst.cli as cli_module

        calls = {}

        def spy(name):
            real = getattr(cli_module, name)
            assert inspect.isfunction(real)

            def wrapper(*args, **kwargs):
                calls[name] = (args, real(*args, **kwargs))
                return calls[name][1]

            return wrapper

        for name in ("read_waveform", "fit", "average_probabilities"):
            monkeypatch.setattr(cli_module, name, spy(name))
        wave, _ = lead_break_files
        argv = [
            "cluster", "--input", str(wave), "--format", "raw_f32_le",
            "--sample-rate", "1e6", "--window", "1024", "--overlap", "0.875",
            "--sweeps", "20", "--burn-in", "10", "--seed", "0",
            "--events-out", str(tmp_path / "events.jsonl"),
            "--state-out", str(tmp_path / "state.json"),
        ]
        assert cli(argv) == 0
        result = calls["fit"][1]
        assert result.sweeps_run == 20
        assert result.state.rng.draws == result.sweeps_run * len(result.state.data)
        doc = json.loads((tmp_path / "state.json").read_text())
        assert doc["rng_draws"] == 20 * len(result.index) == 20 * len(doc["assignments"])
        args, field = calls["average_probabilities"]
        assert args[0] is result.table and args[4] is result.index
        assert args[2] == len(calls["read_waveform"][1]) == len(field)
        assert list(field.probabilities) == result.columns
        assert len(set(result.columns)) == len(result.columns) > result.state.n_clusters


def readme_recording(path, seed):
    """The README's ``cluster`` input: 131,072 samples at 1 MHz, three
    0.2 V bursts in 0.01 V noise.  Returns the burst spans."""
    onsets = (16_384, 49_152, 90_112)
    spec = SynthSpec(
        duration=131_072 / 1e6,
        sample_rate=1e6,
        noise_sigma=0.01,
        bursts=tuple(
            BurstSpec(onset=s / 1e6, amplitude=0.2, decay_tau=1.37e-3, carrier_freq=120e3)
            for s in onsets
        ),
    )
    waveform, annotations = synthesize(spec, rng_seed=seed)
    aeio.write_waveform(path, waveform, "raw_f32_le")
    return [(a.start_index, a.end_index) for a in annotations]


class TestZeroWindows:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_cluster_holds_the_zeros(self, seed, tmp_path):
        # The README run's 1,041 windows are mostly zero counts.  Gibbs sweeps
        # alone left them split between twin clusters at seeds 1, 4 and 9
        # (527 + 462, 491 + 295 + 197 and 630 + 358); the merge-split move
        # after each sweep joins them, and the run then finds every burst as
        # one of three events.
        wave = tmp_path / "wave.f32"
        bursts = readme_recording(wave, seed)
        argv = [
            "cluster", "--input", str(wave), "--format", "raw_f32_le",
            "--sample-rate", "1e6", "--window", "1000", "--overlap", "0.875",
            "--alpha", "1", "--sweeps", "100", "--burn-in", "50", "--seed", str(seed),
            "--events-out", str(tmp_path / "events.jsonl"),
            "--state-out", str(tmp_path / "model.json"),
        ]
        assert cli(argv) == 0
        config = PipelineConfig(seed=seed)
        counts = extract_counts(
            read_waveform(wave, "raw_f32_le", 1e6), config.threshold_policy(), config.window_spec()
        ).counts
        assignments = np.array(json.loads((tmp_path / "model.json").read_text())["assignments"])
        assert counts.size == assignments.size == 1_041
        zero_ids = assignments[counts == 0]
        assert np.bincount(zero_ids).max() >= 0.95 * zero_ids.size
        events = [
            (e["start_index"], e["end_index"])
            for e in map(json.loads, (tmp_path / "events.jsonl").read_text().splitlines())
        ]
        assert len(events) == 3
        assert all(any(s < b_end and e > b_start for s, e in events) for b_start, b_end in bursts)
        overlap = sum(
            max(0, min(e, b_end) - max(s, b_start)) for s, e in events for b_start, b_end in bursts
        )
        print(f"seed {seed}: event precision {overlap / sum(e - s for s, e in events):.3f}")


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

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_snapshot_every_below_one_is_usage_error(self, tmp_path, capsys, every):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=0)))
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--keep-ratio", "1.0",
                "--threshold-volts", "0.05",
                "--alarms-out", str(tmp_path / "a.jsonl"),
                "--tracks-out", str(tmp_path / "t.csv"),
                "--state-out", str(tmp_path / "state.json"),
                "--snapshot-every", every,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: --snapshot-every")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hits.bin"]

    def test_non_finite_hit_sample_is_data_error(self, tmp_path, capsys):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)
        write_hits(hits_path, synthesize_hit_stream(spec, rng_seed=0))
        raw = bytearray(hits_path.read_bytes())
        at = raw.find(b"\n") + 1 + 4 * (3 * 128 + 40)
        raw[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        hits_path.write_bytes(bytes(raw))
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--keep-ratio", "1.0",
                "--threshold-volts", "0.05",
                "--alarms-out", str(tmp_path / "a.jsonl"),
                "--tracks-out", str(tmp_path / "t.csv"),
                "--state-out", str(tmp_path / "state.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hits.bin"]

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


def _without(key):
    def mutate(header):
        del header[key]
        return header

    return mutate


def _with(key, value):
    return lambda header: {**header, key: value}


MALFORMED_HEADERS = {
    "record_length missing": _without("record_length"),
    "record_length zero": _with("record_length", 0),
    "record_length text": _with("record_length", "128"),
    "header is a list": lambda header: [header],
    "sample_rate missing": _without("sample_rate"),
    "sample_rate zero": _with("sample_rate", 0.0),
    "sample_rate infinite": _with("sample_rate", float("inf")),
    "sample_rate nan": _with("sample_rate", float("nan")),
    "pretrigger missing": _without("pretrigger"),
    "pretrigger negative": _with("pretrigger", -1),
    "pretrigger at record_length": _with("pretrigger", 128),
    "channel a list": _with("channel", [5]),
    "trigger_times a number": _with("trigger_times", 5),
    "trigger_times with text": _with("trigger_times", ["0.0"] * 5),
    "trigger_times with nan": _with("trigger_times", [0.0, float("nan"), 2.0, 3.0, 4.0]),
    "trigger_times infinite": _with("trigger_times", [0.0, 1.0, 2.0, 3.0, float("-inf")]),
}


class TestMalformedHitHeader:
    @pytest.mark.parametrize("mutate", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_exits_with_data_error(self, tmp_path, capsys, mutate):
        hits_path = tmp_path / "hits.bin"
        spec = HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)
        write_hits(hits_path, list(synthesize_hit_stream(spec, rng_seed=0)))
        raw = hits_path.read_bytes()
        newline = raw.find(b"\n")
        header = mutate(json.loads(raw[:newline]))
        hits_path.write_bytes(json.dumps(header).encode() + raw[newline:])
        alarms_out, tracks_out = tmp_path / "a.jsonl", tmp_path / "t.csv"
        code = cli(
            [
                "monitor",
                "--hits", str(hits_path),
                "--threshold-volts", "0.05",
                "--alarms-out", str(alarms_out),
                "--tracks-out", str(tracks_out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not alarms_out.exists() and not tracks_out.exists()


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


    def test_config_rectify_matches_cluster(self, lead_break_files, tmp_path):
        # Raw-signal crossings count differently from |v| crossings, so the
        # features of cluster's events agree only if both honour rectify.
        wave, _ = lead_break_files
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"rectify": False, "threshold_kind": "fixed", "threshold_value": 0.03})
        )
        source = ["--input", str(wave), "--format", "raw_f32_le", "--sample-rate", "1e6"]
        events_out = tmp_path / "events.jsonl"
        code = cli(
            ["cluster", *source, "--config", str(config),
             "--window", "1024", "--overlap", "0.875", "--sweeps", "40", "--burn-in", "20",
             "--events-out", str(events_out), "--state-out", str(tmp_path / "state.json")]
        )
        assert code == 0
        records = [json.loads(line) for line in events_out.read_text().splitlines()]
        assert records
        spans = tmp_path / "spans.json"
        spans.write_text(json.dumps({"events": records}))
        out = tmp_path / "features.jsonl"
        code = cli(
            ["features", *source, "--config", str(config), "--events", str(spans),
             "--threshold-volts", "0.03", "--out", str(out)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [
            {"start_index": r["start_index"], "end_index": r["end_index"], **r["features"]}
            for r in records
        ] == rows

    def test_failure_leaves_no_partial_output(self, tmp_path):
        wave = tmp_path / "wave.f32"
        np.random.default_rng(0).normal(0.0, 0.1, 1_000).astype("<f4").tofile(wave)
        events = tmp_path / "events.json"
        # The second span runs past the 1,000-sample waveform.
        events.write_text(
            json.dumps(
                {"events": [{"start_index": 10, "end_index": 100},
                            {"start_index": 900, "end_index": 1_100}]}
            )
        )
        out = tmp_path / "features.jsonl"
        code = cli(
            [
                "features",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--events", str(events),
                "--threshold-volts", "0.03",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.json", "wave.f32"]

    @pytest.mark.parametrize(
        "events",
        ['{"bursts": [{"start": 1}]}', "5", '{"bursts": 5}', "[[1, 2]]", "{}"]
        # Span indices must be JSON integers.
        + [
            f'[{{"start_index": 0, "end_index": {v}}}]'
            for v in ("1e400", "Infinity", "1.5", "true")
        ],
    )
    def test_malformed_events_file_is_data_error(self, tmp_path, capsys, events):
        wave = tmp_path / "wave.f32"
        np.zeros(1_000, dtype="<f4").tofile(wave)
        events_path = tmp_path / "events.json"
        events_path.write_text(events)
        out = tmp_path / "features.jsonl"
        code = cli(
            [
                "features",
                "--input", str(wave),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--events", str(events_path),
                "--threshold-volts", "0.03",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()


def _raw_f32(path, values):
    np.asarray(values, dtype="<f4").tofile(path)
    return path


class TestMalformedRaw:
    """Raw recordings are read in chunks; a fault anywhere still writes nothing."""

    def _run(self, tmp_path, capsys, command, wave, fmt="raw_f32_le", spans=None):
        before = sorted(p.name for p in tmp_path.iterdir())
        source = ["--input", str(wave), "--format", fmt, "--sample-rate", "1e6"]
        if command == "detect":
            argv = [
                "detect", *source, "--window", "50", "--train-windows", "0:2",
                "--nll-out", str(tmp_path / "t.csv"), "--events-out", str(tmp_path / "e.json"),
            ]
        elif command == "cluster":
            argv = [
                "cluster", *source, "--window", "50", "--sweeps", "2", "--burn-in", "1",
                "--events-out", str(tmp_path / "e.jsonl"), "--state-out", str(tmp_path / "s.json"),
            ]
        else:
            events = tmp_path / "spans.json"
            events.write_text(json.dumps({"events": spans}))
            before.append(events.name)
            argv = [
                "features", *source, "--events", str(events),
                "--threshold-volts", "0.03", "--out", str(tmp_path / "f.jsonl"),
            ]
        code = cli(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    @pytest.mark.parametrize("command", ["detect", "cluster"])
    def test_nan_in_last_partial_chunk(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 64)
        values = np.random.default_rng(0).normal(0.0, 0.01, 64 * 5 + 17)
        values[-3] = np.nan
        self._run(tmp_path, capsys, command, _raw_f32(tmp_path / "w.f32", values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outside_every_span(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setattr(aeio, "CHUNK_SAMPLES", 64)
        values = np.random.default_rng(1).normal(0.0, 0.01, 1_000)
        values[700] = bad
        wave = _raw_f32(tmp_path / "w.f32", values)
        spans = [{"start_index": 10, "end_index": 200}, {"start_index": 800, "end_index": 900}]
        self._run(tmp_path, capsys, "features", wave, spans=spans)

    def test_odd_length_i16(self, tmp_path, capsys):
        wave = tmp_path / "w.i16"
        wave.write_bytes(np.arange(500, dtype="<i2").tobytes() + b"\x01")
        self._run(tmp_path, capsys, "detect", wave, fmt="raw_i16_le")

    @pytest.mark.parametrize("fmt", ["raw_f32_le", "raw_i16_le"])
    def test_empty_file(self, tmp_path, capsys, fmt):
        wave = tmp_path / "w.raw"
        wave.write_bytes(b"")
        self._run(tmp_path, capsys, "detect", wave, fmt=fmt)


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
                "--train-windows", "0:2",
                "--nll-out", str(tmp_path / "t.csv"),
                "--events-out", str(tmp_path / "e.json"),
            ]
        )
        assert code == 2

    def test_config_file_round_trip(self, tmp_path):
        config = PipelineConfig(alpha=3.5, sweeps=12, burn_in=3, seed=11)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(config)))
        assert PipelineConfig.from_json_file(path) == config

    def test_json_outputs_refuse_nan(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(str(tmp_path / "e.json"), {"flag_threshold": float("nan")})
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_config_that_is_not_an_object_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            PipelineConfig.from_json_file(path)
        code = cli(
            [
                "detect",
                "--input", str(tmp_path / "unread.f32"),
                "--format", "raw_f32_le",
                "--sample-rate", "1e6",
                "--train-windows", "0:2",
                "--config", str(path),
                "--nll-out", str(tmp_path / "t.csv"),
                "--events-out", str(tmp_path / "e.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: config must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# Each subcommand's options as (option strings, type, choices, default,
# required), written out literally so that a change to how the flags are
# declared cannot change what they accept.  argparse keeps an untyped
# option's text as it is, so ``type=str`` is listed as no type.
PARSER_SNAPSHOT = {
    "synth": [
        (("--config",), None, None, None, False),
        (("--seed",), "int", None, None, False),
        (("--mode",), None, ("waveform", "hits"), "waveform", False),
        (("--out",), None, None, None, True),
        (("--duration",), "float", None, None, False),
        (("--sample-rate",), "float", None, None, False),
        (("--noise-sigma",), "float", None, None, False),
        (("--burst",), "_parse_burst", None, None, False),
        (("--annotations-out",), None, None, None, False),
        (("--out-format",), None, ("csv", "raw_f32_le"), None, False),
        (("--n-hits",), "int", None, None, False),
        (("--damage-start-hit",), "int", None, None, False),
        (("--damage-energy-factor",), "float", None, None, False),
        (("--damage-fraction",), "float", None, None, False),
    ],
    "detect": [
        (("--config",), None, None, None, False),
        (("--seed",), "int", None, None, False),
        (("--input",), None, None, None, True),
        (("--format",), None, ("csv", "raw_f32_le", "raw_i16_le"), "raw_f32_le", False),
        (("--sample-rate",), "_positive_float", None, None, False),
        (("--window",), "int", None, None, False),
        (("--overlap",), "float", None, None, False),
        (("--threshold-kind",), None, ("percentile", "fixed"), None, False),
        (("--threshold-value",), "float", None, None, False),
        (("--prior-shape",), "float", None, None, False),
        (("--prior-rate",), "float", None, None, False),
        (("--train-windows",), "_window_range", None, None, True),
        (("--nll-out",), None, None, None, True),
        (("--events-out",), None, None, None, True),
    ],
    "cluster": [
        (("--config",), None, None, None, False),
        (("--seed",), "int", None, None, False),
        (("--input",), None, None, None, True),
        (("--format",), None, ("csv", "raw_f32_le", "raw_i16_le"), "raw_f32_le", False),
        (("--sample-rate",), "_positive_float", None, None, False),
        (("--window",), "int", None, None, False),
        (("--overlap",), "float", None, None, False),
        (("--threshold-kind",), None, ("percentile", "fixed"), None, False),
        (("--threshold-value",), "float", None, None, False),
        (("--alpha",), "float", None, None, False),
        (("--sweeps",), "int", None, None, False),
        (("--burn-in",), "int", None, None, False),
        (("--prior-shape",), "float", None, None, False),
        (("--prior-rate",), "float", None, None, False),
        (("--min-probability",), "float", None, None, False),
        (("--events-out",), None, None, None, True),
        (("--state-out",), None, None, None, True),
    ],
    "monitor": [
        (("--config",), None, None, None, False),
        (("--seed",), "int", None, None, False),
        (("--hits",), None, None, None, True),
        (("--keep-ratio",), "float", None, None, False),
        (("--alpha",), "float", None, None, False),
        (("--prior-shape",), "float", None, None, False),
        (("--prior-rate",), "float", None, None, False),
        (("--threshold-volts",), "_finite_float", None, None, False),
        (("--alarms-out",), None, None, None, True),
        (("--tracks-out",), None, None, None, True),
        (("--state-out",), None, None, None, False),
        (("--snapshot-every",), "int", None, None, False),
    ],
    "features": [
        (("--config",), None, None, None, False),
        (("--seed",), "int", None, None, False),
        (("--input",), None, None, None, True),
        (("--format",), None, ("csv", "raw_f32_le", "raw_i16_le"), "raw_f32_le", False),
        (("--sample-rate",), "_positive_float", None, None, False),
        (("--events",), None, None, None, True),
        (("--threshold-volts",), "_finite_float", None, None, True),
        (("--out",), None, None, None, True),
    ],
}


def _subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestParserSnapshot:
    def test_subcommands(self):
        assert list(_subparsers()) == list(PARSER_SNAPSHOT)

    @pytest.mark.parametrize("command", PARSER_SNAPSHOT)
    def test_options(self, command):
        options = [
            (
                tuple(action.option_strings),
                None if action.type in (None, str) else action.type.__name__,
                action.choices,
                action.default,
                action.required,
            )
            for action in _subparsers()[command]._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        assert options == PARSER_SNAPSHOT[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--window", "1.5"],
            ["cluster", "--sweeps", "x"],
            ["cluster", "--alpha", "x"],
            ["detect", "--threshold-kind", "median"],
            ["detect", "--seed", "1.5"],
            ["monitor", "--keep-ratio", "x"],
            ["features", "--overlap", "0.5"],
        ],
    )
    def test_bad_flag_value_is_usage_error(self, capsys, argv):
        assert cli(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_out_of_range_flags_are_usage_errors(self, lead_break_files, tmp_path, capsys):
        wave, _ = lead_break_files
        hits_path = tmp_path / "hits.bin"
        write_hits(
            hits_path,
            synthesize_hit_stream(HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)),
        )
        before = sorted(p.name for p in tmp_path.iterdir())
        for argv in [
            ["monitor", "--hits", str(hits_path), "--threshold-volts", "0.05", "--seed", "-1",
             "--alarms-out", str(tmp_path / "a.jsonl"), "--tracks-out", str(tmp_path / "t.csv")],
            # detect picks no noise windows itself: the range is required.
            ["detect", "--input", str(wave), "--sample-rate", "1e6",
             "--nll-out", str(tmp_path / "n.csv"), "--events-out", str(tmp_path / "e.json")],
        ]:
            assert cli(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ")
            assert "seed" in err or "required: --train-windows" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "flags",
        [
            ["detect", "--train-windows", "5:3"],
            ["detect", "--train-windows=-1:3"],
            ["detect", "--sample-rate", "0"],
            ["detect", "--sample-rate", "-1"],
            ["detect", "--sample-rate", "nan"],
            ["detect", "--threshold-kind", "fixed", "--threshold-value", "nan"],
            ["monitor", "--threshold-volts", "nan"],
            ["features", "--threshold-volts", "inf"],
        ],
        ids=" ".join,
    )
    def test_flag_at_fault_is_usage_error(self, lead_break_files, tmp_path, capsys, flags):
        wave, ann = lead_break_files
        hits_path = tmp_path / "hits.bin"
        write_hits(
            hits_path,
            synthesize_hit_stream(HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)),
        )
        before = sorted(p.name for p in tmp_path.iterdir())
        command, *rest = flags
        argv = {
            "detect": ["--input", str(wave), "--sample-rate", "1e6", "--train-windows", "0:2",
                       "--nll-out", str(tmp_path / "n.csv"),
                       "--events-out", str(tmp_path / "e.json")],
            "monitor": ["--hits", str(hits_path), "--threshold-volts", "0.05",
                        "--alarms-out", str(tmp_path / "a.jsonl"),
                        "--tracks-out", str(tmp_path / "t.csv")],
            "features": ["--input", str(wave), "--sample-rate", "1e6", "--events", str(ann),
                         "--threshold-volts", "0.03", "--out", str(tmp_path / "f.jsonl")],
        }[command]
        # The flag under test comes last, so it overrides the default above.
        assert cli([command, *argv, *rest]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_out_of_range_config_flags_are_usage_errors(
        self, lead_break_files, tmp_path, capsys
    ):
        wave, _ = lead_break_files
        hits_path = tmp_path / "hits.bin"
        write_hits(
            hits_path,
            synthesize_hit_stream(HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)),
        )
        before = sorted(p.name for p in tmp_path.iterdir())
        wave_in = ["--input", str(wave), "--sample-rate", "1e6"]
        cluster_out = [
            "--events-out", str(tmp_path / "e.jsonl"), "--state-out", str(tmp_path / "s.json"),
        ]
        for argv, field in [
            (["detect", *wave_in, "--window", "0", "--train-windows", "0:2",
              "--nll-out", str(tmp_path / "n.csv"), "--events-out", str(tmp_path / "e.json")],
             "length_n"),
            (["cluster", *wave_in, "--sweeps", "-3", *cluster_out], "sweeps"),
            (["monitor", "--hits", str(hits_path), "--threshold-volts", "0.05",
              "--keep-ratio", "0", "--alarms-out", str(tmp_path / "a.jsonl"),
              "--tracks-out", str(tmp_path / "t.csv")], "keep_ratio"),
            (["cluster", *wave_in, "--min-probability", "2", *cluster_out], "min_probability"),
        ]:
            assert cli(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ")
            assert field in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--window", "0", "window_length (length_n) must be a positive integer, got 0"),
            ("--overlap", "1.0", "overlap (overlap_fraction) must lie in [0, 1), got 1.0"),
            ("--prior-rate", "-1", "prior_rate (rate) must be a positive finite real, got -1.0"),
            (
                "--threshold-value", "150",
                "threshold_value (percentile) must lie in (0, 100), got 150.0",
            ),
        ],
    )
    def test_builder_checks_name_the_config_field(
        self, lead_break_files, tmp_path, capsys, flag, value, message
    ):
        wave, _ = lead_break_files
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = [
            "detect", "--input", str(wave), "--sample-rate", "1e6", "--train-windows", "0:2",
            flag, value,
            "--nll-out", str(tmp_path / "n.csv"), "--events-out", str(tmp_path / "e.json"),
        ]
        assert cli(argv) == 1
        assert capsys.readouterr().err == f"usage error: config {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


# Each file names a known field with a value of the wrong type or range.
MALFORMED_CONFIGS = [
    ("cluster", {"sweeps": "x"}),
    ("cluster", {"min_probability": "0.5"}),
    ("cluster", {"window_length": 1000.0}),
    ("cluster", {"rectify": "no"}),
    ("cluster", {"seed": 1.5}),
    ("cluster", {"alpha": True}),
    ("monitor", {"keep_ratio": "0.5"}),
    ("monitor", {"seed": -1}),
    ("cluster", {"sweeps": -3}),
    ("monitor", {"alarm_min_history": 0}),
    ("monitor", {"alarm_lag": 5}),
    ("monitor", {"step_factor": 0.0}),
    ("monitor", {"step_factor": float("inf")}),
    ("cluster", {"flag_margin": float("nan")}),
    ("monitor", {"threshold_kind": "fixed", "threshold_value": float("nan")}),
    ("monitor", {"survival_horizon": -5}),
    ("monitor", {"min_survivors": 0}),
    ("monitor", {"min_survivors": -3}),
    ("monitor", {"alarm_warmup": -7}),
]


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "command, doc",
        MALFORMED_CONFIGS,
        ids=[f"{command} {json.dumps(doc)}" for command, doc in MALFORMED_CONFIGS],
    )
    def test_exits_with_data_error(self, lead_break_files, tmp_path, capsys, command, doc):
        wave, _ = lead_break_files
        hits_path = tmp_path / "hits.bin"
        write_hits(
            hits_path,
            synthesize_hit_stream(HitStreamSpec(n_hits=5, record_length=128, pretrigger=10)),
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        before = sorted(p.name for p in tmp_path.iterdir())
        if command == "cluster":
            argv = [
                "cluster", "--input", str(wave), "--format", "raw_f32_le",
                "--sample-rate", "1e6", "--events-out", str(tmp_path / "events.jsonl"),
                "--state-out", str(tmp_path / "state.json"),
            ]
        else:
            argv = [
                "monitor", "--hits", str(hits_path), "--threshold-volts", "0.05",
                "--alarms-out", str(tmp_path / "a.jsonl"), "--tracks-out", str(tmp_path / "t.csv"),
            ]
        code = cli([*argv, "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_builder_check_names_the_config_field(self, lead_break_files, tmp_path, capsys):
        wave, _ = lead_break_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window_length": 8, "overlap": 0.95}))
        argv = [
            "detect", "--input", str(wave), "--sample-rate", "1e6", "--config", str(config),
            "--train-windows", "0:2",
            "--nll-out", str(tmp_path / "n.csv"), "--events-out", str(tmp_path / "e.json"),
        ]
        assert cli(argv) == 2
        assert capsys.readouterr().err == (
            "data error: config overlap (overlap_fraction) 0.95 rounds the step of "
            "8-sample windows to zero\n"
        )
        assert not (tmp_path / "n.csv").exists() and not (tmp_path / "e.json").exists()

    def test_int_stands_for_float(self):
        assert PipelineConfig.from_dict({"alpha": 2}).alpha == 2
        with pytest.raises(ValueError, match="sweeps must be int"):
            PipelineConfig.from_dict({"sweeps": 2.0})
        with pytest.raises(ValueError, match="rectify must be bool"):
            replace(PipelineConfig(), rectify=1)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    """The sampler's outputs, byte for byte, against digests recorded before
    the sweep kept its scan plan and log weights across sweeps.  The oracle
    tests compare the kernel with a reference; these compare what ``cluster``,
    ``monitor`` and ``observe`` write."""

    CLUSTER = {
        0: (
            "564b71becf336b41415c3cd5045b788dec72572af0251b096c072d6b1d111cb1",
            "91b4cda30ea1eb2ebb34629d679329575f8e8bf196691b8e8bc382e73fd34c80",
        ),
        1: (
            "75a4b5191ea735a61ebb7fa9628ba99ba9c8b48f4d970aa78f5ae3f8aab172aa",
            "57399bce8e5d1ae7bc1c41fa05c6ad599d106729b75572bbd4840515fb895553",
        ),
        2: (
            "3ba6a11348f02646d66a00dc5e4c79b56bd835e871d176e5645fdd344ba31615",
            "0ad27b7dd7de911306d5d06ff66eefe521df3320846f9079bba4e8cab85af5cd",
        ),
        3: (
            "4d118e0c7f1836d205313414db96eefa6e598210044e578f3de9da1fba665eec",
            "49b519b9755b209745b54759ba3870fd0104f742120b3ac9837dc49a99270393",
        ),
    }
    OBSERVE = "5621ae2a7db700a808e2415f4b7ce12e8a80dc0b15161f7b47ac0a64bacc6b1a"
    # Alarms, tracks and state by keep ratio, recorded before ``observe``
    # read its weights from the rows the sweep keeps.
    MONITOR = {
        "0.1": (
            "8b681ab6b71bec801f20f784189b792ad28fa5d4a6b623032dd784cc34ae3202",
            "44524619a6b33e0e37bf2b03809b36381a37457b272ae123f4232daad6b14c42",
            "19d25d5124fe418f8bbde45160769a58af153016c981cf7081724700926ac86a",
        ),
        "1": (
            "27b90440a1a5d921965b1f8fe99ee16ed3976a9e08a285fbc3dd17691aa09c88",
            "9b006b3255343b8d97be8dc735b1f784cf0e80a2706cd2ff273ccfd19eec213c",
            "e4e215db1728b70fb5c91baa8e7ac46cde4a868fd049b7cd7765ec0bea2bb138",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(CLUSTER))
    def test_cluster_outputs(self, tmp_path, seed):
        # The README cluster run on a 131,072-sample recording with three
        # bursts, the benchmark's cluster_overlap input.
        wave = tmp_path / "wave.f32"
        bursts = [f"{onset / 1e6},0.2,0.00137,120000" for onset in (16_384, 49_152, 90_112)]
        synth = ["synth", "--out", str(wave), "--duration", "0.131072", "--seed", str(seed)]
        assert cli([*synth, *(f for b in bursts for f in ("--burst", b))]) == 0
        events, model = tmp_path / "events.jsonl", tmp_path / "model.json"
        argv = [
            "cluster", "--input", str(wave), "--sample-rate", "1e6", "--window", "1000",
            "--overlap", "0.875", "--alpha", "1", "--sweeps", "100", "--burn-in", "50",
            "--seed", str(seed), "--events-out", str(events), "--state-out", str(model),
        ]
        assert cli(argv) == 0
        assert (_sha256(events), _sha256(model)) == self.CLUSTER[seed]

    def test_observe_state(self, tmp_path):
        # observe with the gate forced open over Poisson(2) and Poisson(40)
        # counts, the benchmark's online_resample input at seed 0.
        rng = np.random.default_rng(0)
        counts = np.concatenate([rng.poisson(rate, 500) for rate in (2.0, 40.0)])
        counts = counts[rng.permutation(1000)].tolist()
        state = MixtureState.empty(Hyperparams(1.0, GammaParams(1.0, 1.0)), 0)
        for x in counts:
            observe(x, state, eta_override=1.0)
        doc = tmp_path / "state.json"
        doc.write_text(json.dumps(state_to_json_dict(state), sort_keys=True, indent=2) + "\n")
        assert _sha256(doc) == self.OBSERVE

    def test_monitor_outputs(self, tmp_path):
        # The README monitor run, at the README's keep ratio and with every
        # hit kept: K stays 1, so every observe after the first is greedy.
        hits = tmp_path / "hits.bin"
        synth = ["synth", "--mode", "hits", "--out", str(hits), "--n-hits", "10000"]
        assert cli([*synth, "--damage-start-hit", "6000", "--seed", "0"]) == 0
        for keep, digests in self.MONITOR.items():
            alarms, tracks, state = (tmp_path / f"{keep}.{ext}" for ext in ("jsonl", "csv", "json"))
            argv = [
                "monitor", "--hits", str(hits), "--keep-ratio", keep,
                "--threshold-volts", "0.05", "--seed", "0", "--alarms-out", str(alarms),
                "--tracks-out", str(tracks), "--state-out", str(state),
            ]
            assert cli(argv) == 0
            assert (_sha256(alarms), _sha256(tracks), _sha256(state)) == digests, keep
