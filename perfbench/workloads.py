"""The four benchmark workloads: inputs made from the seed, the operation a
child process runs, and the checks applied to what it wrote.

Inputs are built with ``aeburst.synth`` and ``aeburst.io`` before anything
is timed.  Each workload's ``prepare`` makes one input from an instance seed
and returns the job the child runs and the ground truth its ``check`` needs;
``check`` returns the problems found (an empty list means the run passed)
and the quality figures of the run.  ``instances`` is how many inputs an
untraced run rotates over: instance j of seed s has seed ``s * instances + j``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aeburst.config import PipelineConfig
from aeburst.dppmm import state_from_json_dict
from aeburst.io import read_waveform, write_hits, write_waveform
from aeburst.synth import (
    BurstSpec,
    HitStreamSpec,
    SynthSpec,
    synthesize,
    synthesize_hit_stream,
)
from aeburst.windowing import extract_counts

SAMPLE_RATE = 1e6
NOISE_SIGMA = 0.01
BURST = dict(amplitude=0.2, decay_tau=1.37e-3, carrier_freq=120e3)

CLUSTER_SAMPLES = 131_072
CLUSTER_ONSETS = (16_384, 49_152, 90_112)
CLUSTER_WINDOWS = 1_041
CLUSTER_SWEEPS = 100

DETECT_SAMPLES = 1 << 23
DETECT_ONSETS = tuple(100_000 + 400_000 * k for k in range(21))
DETECT_WINDOWS = 32_768

MONITOR_HITS = 10_000
MONITOR_DAMAGE_HIT = 6_000
MONITOR_KEEP = 0.1
# decimate keeps every tenth hit, so stored hit 6,000 is retained hit 600.
MONITOR_INJECTED = 600
MONITOR_KEPT = 1_000

ONLINE_HALF = 500
ONLINE_RATES = (2.0, 40.0)
ONLINE_N = 2 * ONLINE_HALF
# One gate uniform per call after the first, one assignment draw, and one
# draw per datum in the sweep: sum over i = 1..N-1 of (i + 3).
ONLINE_DRAWS = (ONLINE_N - 1) * ONLINE_N // 2 + 3 * (ONLINE_N - 1)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_outputs(outdir: Path) -> str:
    """One SHA-256 over every output file, by name, in name order."""
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + sha256_file(path).encode())
    return digest.hexdigest()


@dataclass
class Prepared:
    """Inputs of one run: the child's job, input digests and ground truth."""

    job: dict
    digests: dict[str, str]
    truth: dict = field(default_factory=dict)


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def _interval_quality(
    events: list[tuple[int, int]], bursts: list[tuple[int, int]]
) -> dict:
    """Share of bursts some event overlaps; share of event samples in bursts."""
    found = sum(any(_overlap(e, b) > 0 for e in events) for b in bursts)
    covered = sum(_overlap(e, b) for e in events for b in bursts)
    length = sum(e[1] - e[0] for e in events)
    return {
        "recall": found / len(bursts),
        "event_precision": covered / length if length else 0.0,
    }


def _write_recording(
    path: Path, n_samples: int, onsets: tuple[int, ...], seed: int
) -> list[tuple[int, int]]:
    spec = SynthSpec(
        duration=n_samples / SAMPLE_RATE,
        sample_rate=SAMPLE_RATE,
        noise_sigma=NOISE_SIGMA,
        bursts=tuple(BurstSpec(onset=s / SAMPLE_RATE, **BURST) for s in onsets),
    )
    waveform, annotations = synthesize(spec, rng_seed=seed)
    write_waveform(path, waveform, "raw_f32_le")
    return [(a.start_index, a.end_index) for a in annotations]


class ClusterOverlap:
    name = "cluster_overlap"
    # The sampler's work follows the number of clusters a recording grows
    # (6 to 10 over seeds 0-9), so an untraced run spreads its children over
    # four recordings, seeds 4s to 4s + 3, to keep one seed from setting it.
    instances = 4

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        wave = workdir / "wave.f32"
        bursts = _write_recording(wave, CLUSTER_SAMPLES, CLUSTER_ONSETS, seed)
        config = PipelineConfig(seed=seed)
        waveform = read_waveform(wave, "raw_f32_le", SAMPLE_RATE)
        counts = extract_counts(
            waveform, config.threshold_policy(), config.window_spec()
        ).counts.tolist()
        argv = [
            "cluster", "--input", str(wave), "--format", "raw_f32_le",
            "--sample-rate", "1e6", "--window", "1000", "--overlap", "0.875",
            "--alpha", "1", "--sweeps", str(CLUSTER_SWEEPS), "--burn-in", "50",
            "--seed", str(seed),
            "--events-out", "{out}/events.jsonl", "--state-out", "{out}/model.json",
        ]
        return Prepared(
            job={"kind": "cli", "argv": argv},
            digests={"wave.f32": sha256_file(wave)},
            truth={"bursts": bursts, "counts": counts},
        )

    def check(self, outdir: Path, truth: dict) -> tuple[list[str], dict]:
        problems = []
        counts = truth["counts"]
        if len(counts) != CLUSTER_WINDOWS:
            problems.append(f"{len(counts)} windows, expected {CLUSTER_WINDOWS}")
        events = [
            json.loads(line)
            for line in (outdir / "events.jsonl").read_text().splitlines()
        ]
        doc = json.loads((outdir / "model.json").read_text())
        # Reloading runs the state's own audit against the counts.
        state = state_from_json_dict(doc, counts)
        if state.rng.draws != CLUSTER_WINDOWS * CLUSTER_SWEEPS:
            problems.append(
                f"rng_draws {state.rng.draws}, expected "
                f"{CLUSTER_WINDOWS * CLUSTER_SWEEPS}"
            )
        spans = [(e["start_index"], e["end_index"]) for e in events]
        return problems, _interval_quality(spans, truth["bursts"])


def _strip_numpy_repr(cell: str) -> str:
    """``x`` from ``np.float64(x)``.

    ``detect`` writes each NLL with ``repr`` of a NumPy scalar, which NumPy 2
    renders as ``np.float64(x)``; the check accepts that known defect of the
    CSV and nothing else.
    """
    if cell.startswith("np.float64(") and cell.endswith(")"):
        return cell[len("np.float64(") : -1]
    return cell


class DetectLong:
    name = "detect_long"
    instances = 1

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        wave = workdir / "wave.f32"
        bursts = _write_recording(wave, DETECT_SAMPLES, DETECT_ONSETS, seed)
        argv = [
            "detect", "--input", str(wave), "--format", "raw_f32_le",
            "--sample-rate", "1e6", "--window", "256", "--overlap", "0",
            "--train-windows", "0:200",
            "--nll-out", "{out}/trace.csv", "--events-out", "{out}/flagged.json",
        ]
        return Prepared(
            job={"kind": "cli", "argv": argv},
            digests={"wave.f32": sha256_file(wave)},
            truth={"bursts": bursts},
        )

    def check(self, outdir: Path, truth: dict) -> tuple[list[str], dict]:
        problems = []
        lines = (outdir / "trace.csv").read_text().splitlines()
        if lines[0] != "start_index,count,nll" or len(lines) != DETECT_WINDOWS + 1:
            problems.append(f"trace.csv has {len(lines)} lines")
        for line in lines[1:]:
            start, count, nll = line.split(",")
            int(start), int(count), float(_strip_numpy_repr(nll))
        doc = json.loads((outdir / "flagged.json").read_text())
        spans = [(e["start_index"], e["end_index"]) for e in doc["events"]]
        return problems, _interval_quality(spans, truth["bursts"])


class MonitorStream:
    name = "monitor_stream"
    instances = 1

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        hits = workdir / "hits.bin"
        spec = HitStreamSpec(n_hits=MONITOR_HITS, damage_start_hit=MONITOR_DAMAGE_HIT)
        write_hits(hits, list(synthesize_hit_stream(spec, rng_seed=seed)))
        argv = [
            "monitor", "--hits", str(hits), "--keep-ratio", str(MONITOR_KEEP),
            "--threshold-volts", "0.05", "--seed", str(seed),
            "--alarms-out", "{out}/alarms.jsonl", "--tracks-out", "{out}/tracks.csv",
        ]
        return Prepared(
            job={"kind": "cli", "argv": argv},
            digests={"hits.bin": sha256_file(hits)},
        )

    def check(self, outdir: Path, truth: dict) -> tuple[list[str], dict]:
        problems = []
        alarms = [
            json.loads(line)
            for line in (outdir / "alarms.jsonl").read_text().splitlines()
        ]
        rows = (outdir / "tracks.csv").read_text().splitlines()
        for row in rows[1:]:
            time, cluster, events, counts, energy = row.split(",")
            int(time), int(cluster), int(events), int(counts), float(energy)
        if len(rows) - 1 != MONITOR_KEPT:
            problems.append(f"tracks hold {len(rows) - 1} hits, expected {MONITOR_KEPT}")
        late = [a["time"] for a in alarms if a["time"] >= MONITOR_INJECTED]
        if not late:
            problems.append("no confirmed alarm after the injection")
        quality = {
            "recall": 1.0 if late else 0.0,
            "alarm_delay_hits": min(late) - MONITOR_INJECTED if late else 0,
            "early_alarms": len(alarms) - len(late),
        }
        return problems, quality


class OnlineResample:
    name = "online_resample"
    # How many clusters the counts sustain during the sweeps sets the work per
    # datum-step (6.3 to 7.8 log-weight evaluations over seeds 0-9, which moved
    # wall_s by a third on a quiet host), so an untraced run spreads its
    # children over four count sequences, seeds 4s to 4s + 3.
    instances = 4

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        rng = np.random.default_rng(seed)
        counts = np.concatenate(
            [rng.poisson(rate, ONLINE_HALF) for rate in ONLINE_RATES]
        )
        sources = np.repeat(np.arange(len(ONLINE_RATES)), ONLINE_HALF)
        order = rng.permutation(ONLINE_N)
        counts, sources = counts[order].tolist(), sources[order].tolist()
        path = workdir / "counts.json"
        path.write_text(json.dumps(counts))
        return Prepared(
            job={"kind": "observe", "counts": str(path), "seed": seed},
            digests={"counts.json": sha256_file(path)},
            truth={"counts": counts, "sources": sources},
        )

    def check(self, outdir: Path, truth: dict) -> tuple[list[str], dict]:
        problems = []
        doc = json.loads((outdir / "state.json").read_text())
        state = state_from_json_dict(doc, truth["counts"])
        if state.rng.draws != ONLINE_DRAWS:
            problems.append(f"rng_draws {state.rng.draws}, expected {ONLINE_DRAWS}")
        labels = np.array(state.assignments)
        sources = np.array(truth["sources"])
        # A source is recovered when most of its counts sit in clusters whose
        # members mostly come from it; one split into several such clusters
        # still counts, one merged into another source's cluster does not.
        recovered = 0
        for source in range(len(ONLINE_RATES)):
            mine = sources == source
            own = sum(
                int((mine & (labels == k)).sum())
                for k in np.unique(labels[mine])
                if (sources[labels == k] == source).mean() > 0.5
            )
            recovered += own > mine.sum() / 2
        return problems, {"recall": recovered / len(ONLINE_RATES)}


WORKLOADS = {
    w.name: w for w in (ClusterOverlap(), DetectLong(), MonitorStream(), OnlineResample())
}
