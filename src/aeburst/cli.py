"""Command-line pipeline: synth, detect, cluster, monitor, features.

Exit codes: 0 success, 1 usage error, 2 data error.  All randomness is
governed by ``--seed`` (or the config file's seed), and every output is
byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig
from .detector import flag_events, pick_noise_training, score, train_background
from .dppmm import MixtureState, fit, state_to_json_dict
from .io import DataFormatError, read_hits, read_waveform, write_hits, write_waveform
from .monitor import StreamMonitor, decimate
from .segmentation import (
    average_probabilities,
    build_event_records,
    extract_features,
    noise_cluster_id,
)
from .synth import BurstSpec, HitStreamSpec, SynthSpec, synthesize, synthesize_hit_stream
from .windowing import Waveform, extract_counts

__all__ = ["cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        PipelineConfig.from_json_file(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    overrides = {}
    for flag, key in (
        ("seed", "seed"),
        ("window", "window_length"),
        ("overlap", "overlap"),
        ("alpha", "alpha"),
        ("sweeps", "sweeps"),
        ("burn_in", "burn_in"),
        ("prior_shape", "prior_shape"),
        ("prior_rate", "prior_rate"),
        ("keep_ratio", "keep_ratio"),
        ("min_probability", "min_probability"),
        ("threshold_kind", "threshold_kind"),
        ("threshold_value", "threshold_value"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return replace(config, **overrides) if overrides else config


def _read_input_waveform(args: argparse.Namespace) -> Waveform:
    return read_waveform(args.input, args.format, args.sample_rate)


def _add_waveform_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input waveform file")
    parser.add_argument(
        "--format",
        default="raw_f32_le",
        choices=("csv", "raw_f32_le", "raw_i16_le"),
        help="waveform file format (declared, never sniffed)",
    )
    parser.add_argument(
        "--sample-rate", dest="sample_rate", type=float, default=None,
        help="sample rate in Hz (required for raw and single-column CSV)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="rng seed")


def _parse_burst(text: str) -> BurstSpec:
    parts = text.split(",")
    if len(parts) not in (4, 5):
        raise UsageError(
            f"--burst expects onset,amplitude,tau,freq[,family], got {text!r}"
        )
    family = int(parts[4]) if len(parts) == 5 else 0
    return BurstSpec(
        onset=float(parts[0]),
        amplitude=float(parts[1]),
        decay_tau=float(parts[2]),
        carrier_freq=float(parts[3]),
        family=family,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aeburst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic recording or hit stream")
    _add_common(p_synth)
    p_synth.add_argument("--mode", choices=("waveform", "hits"), default="waveform")
    p_synth.add_argument("--out", required=True, help="output file")
    p_synth.add_argument("--duration", type=float, default=0.1, help="seconds")
    p_synth.add_argument("--sample-rate", dest="sample_rate", type=float, default=1e6)
    p_synth.add_argument("--noise-sigma", type=float, default=0.01)
    p_synth.add_argument(
        "--burst", action="append", default=[],
        help="onset,amplitude,tau,freq[,family]; repeatable",
    )
    p_synth.add_argument("--annotations-out", default=None, help="ground-truth JSON")
    p_synth.add_argument(
        "--out-format", default="raw_f32_le", choices=("csv", "raw_f32_le"),
    )
    p_synth.add_argument("--n-hits", type=int, default=1000)
    p_synth.add_argument("--damage-start-hit", type=int, default=None)
    p_synth.add_argument("--damage-energy-factor", type=float, default=50.0)
    p_synth.add_argument("--damage-fraction", type=float, default=0.3)

    p_detect = sub.add_parser("detect", help="score windows against a noise background")
    _add_common(p_detect)
    _add_waveform_input(p_detect)
    p_detect.add_argument("--window", type=int, default=None)
    p_detect.add_argument("--overlap", type=float, default=None)
    p_detect.add_argument("--threshold-kind", choices=("percentile", "fixed"), default=None)
    p_detect.add_argument("--threshold-value", type=float, default=None)
    p_detect.add_argument("--prior-shape", type=float, default=None)
    p_detect.add_argument("--prior-rate", type=float, default=None)
    p_detect.add_argument(
        "--train-windows", default=None,
        help="explicit noise window index range START:STOP (e.g. 0:20)",
    )
    p_detect.add_argument(
        "--train-count", type=int, default=20,
        help="auto-pick this many lowest-count windows when no range is given",
    )
    p_detect.add_argument("--nll-out", required=True, help="per-window NLL CSV")
    p_detect.add_argument("--events-out", required=True, help="flagged intervals JSON")

    p_cluster = sub.add_parser("cluster", help="cluster windows and segment events")
    _add_common(p_cluster)
    _add_waveform_input(p_cluster)
    p_cluster.add_argument("--window", type=int, default=None)
    p_cluster.add_argument("--overlap", type=float, default=None)
    p_cluster.add_argument("--threshold-kind", choices=("percentile", "fixed"), default=None)
    p_cluster.add_argument("--threshold-value", type=float, default=None)
    p_cluster.add_argument("--alpha", type=float, default=None)
    p_cluster.add_argument("--sweeps", type=int, default=None)
    p_cluster.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p_cluster.add_argument("--prior-shape", type=float, default=None)
    p_cluster.add_argument("--prior-rate", type=float, default=None)
    p_cluster.add_argument("--min-probability", type=float, default=None)
    p_cluster.add_argument("--events-out", required=True, help="event records JSONL")
    p_cluster.add_argument("--state-out", required=True, help="model state JSON")

    p_monitor = sub.add_parser("monitor", help="stream a hit file through the online model")
    _add_common(p_monitor)
    p_monitor.add_argument("--hits", required=True, help="hit container file")
    p_monitor.add_argument("--keep-ratio", type=float, default=None)
    p_monitor.add_argument("--alpha", type=float, default=None)
    p_monitor.add_argument("--prior-shape", type=float, default=None)
    p_monitor.add_argument("--prior-rate", type=float, default=None)
    p_monitor.add_argument(
        "--threshold-volts", type=float, default=None,
        help="fixed crossing threshold applied to every hit",
    )
    p_monitor.add_argument("--alarms-out", required=True, help="alarms JSONL")
    p_monitor.add_argument("--tracks-out", required=True, help="cumulative tracks CSV")
    p_monitor.add_argument("--state-out", default=None, help="final model state JSON")
    p_monitor.add_argument(
        "--snapshot-every", type=int, default=None,
        help="rewrite the state file every N retained hits (needs --state-out)",
    )

    p_features = sub.add_parser("features", help="extract AE features for annotated events")
    _add_common(p_features)
    _add_waveform_input(p_features)
    p_features.add_argument("--events", required=True, help="events/annotations JSON")
    p_features.add_argument(
        "--threshold-volts", type=float, required=True,
        help="fixed crossing threshold in volts",
    )
    p_features.add_argument("--out", required=True, help="features JSONL")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.mode == "waveform":
        spec = SynthSpec(
            duration=args.duration,
            sample_rate=args.sample_rate,
            noise_sigma=args.noise_sigma,
            bursts=tuple(_parse_burst(text) for text in args.burst),
        )
        waveform, annotations = synthesize(spec, rng_seed=config.seed)
        write_waveform(args.out, waveform, args.out_format)
        if args.annotations_out:
            doc = {
                "sample_rate": waveform.sample_rate,
                "n_samples": len(waveform),
                "bursts": [
                    {
                        "start_index": a.start_index,
                        "end_index": a.end_index,
                        "family": a.family,
                    }
                    for a in annotations
                ],
            }
            Path(args.annotations_out).write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
    else:
        spec = HitStreamSpec(
            n_hits=args.n_hits,
            sample_rate=args.sample_rate,
            noise_sigma=args.noise_sigma,
            damage_start_hit=args.damage_start_hit,
            damage_energy_factor=args.damage_energy_factor,
            damage_fraction=args.damage_fraction,
        )
        write_hits(args.out, list(synthesize_hit_stream(spec, rng_seed=config.seed)))
    return EXIT_OK


def _parse_range(text: str, upper: int) -> list[int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"--train-windows expects START:STOP, got {text!r}") from exc
    if not 0 <= lo < hi <= upper:
        raise DataFormatError(f"training range {text} outside the {upper} windows")
    return list(range(lo, hi))


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args)
    waveform = _read_input_waveform(args)
    windowed = extract_counts(waveform, config.threshold_policy(), config.window_spec())
    counts = windowed.counts.tolist()
    if args.train_windows:
        train_idx = _parse_range(args.train_windows, len(counts))
    else:
        train_idx = pick_noise_training(counts, min(args.train_count, len(counts)))
    model = train_background(config.prior(), [counts[i] for i in train_idx])
    trace = score(model, windowed, margin=config.flag_margin)
    lines = ["start_index,count,nll"]
    for start, count, value in zip(trace.starts, trace.counts, trace.nlls.tolist()):
        lines.append(f"{int(start)},{int(count)},{value!r}")
    Path(args.nll_out).write_text("\n".join(lines) + "\n", encoding="ascii")
    intervals = flag_events(trace)
    doc = {
        "flag_threshold": trace.flag_threshold,
        "training_windows": train_idx,
        "events": [{"start_index": s, "end_index": e} for s, e in intervals],
    }
    Path(args.events_out).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def _cmd_cluster(args: argparse.Namespace) -> int:
    config = _load_config(args)
    waveform = _read_input_waveform(args)
    windowed = extract_counts(waveform, config.threshold_policy(), config.window_spec())
    result = fit(
        windowed.counts.tolist(),
        config.hyperparams(),
        sweeps=config.sweeps,
        burn_in=config.burn_in,
        rng_seed=config.seed,
    )
    records = []
    if result.state.clusters:
        field = average_probabilities(
            result.mean_probabilities, windowed.spec, len(waveform)
        )
        noise = noise_cluster_id(result.state)
        records = build_event_records(
            waveform,
            field,
            noise,
            windowed.threshold,
            min_probability=config.min_probability,
            min_length=config.min_event_length,
            rectify=config.rectify,
        )
    with open(args.events_out, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                _json_line(
                    {
                        "start_index": record.start_index,
                        "end_index": record.end_index,
                        "start_time": record.start_index / waveform.sample_rate,
                        "end_time": record.end_index / waveform.sample_rate,
                        "label": record.label,
                        "mean_probability": record.mean_probability,
                        "features": {
                            "count": record.features.count,
                            "peak_amplitude": record.features.peak_amplitude,
                            "rise_time": record.features.rise_time,
                            "duration": record.features.duration,
                            "energy": record.features.energy,
                        },
                    }
                )
                + "\n"
            )
    Path(args.state_out).write_text(
        json.dumps(state_to_json_dict(result.state), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return EXIT_OK


def _cmd_monitor(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.threshold_volts is not None:
        threshold = args.threshold_volts
    elif config.threshold_kind == "fixed":
        threshold = config.threshold_value
    else:
        raise UsageError(
            "monitor needs a fixed threshold: pass --threshold-volts or configure "
            "threshold_kind=fixed"
        )
    hits = read_hits(args.hits)
    state = MixtureState.empty(config.hyperparams(), rng_seed=config.seed)
    monitor = StreamMonitor(
        state,
        step_factor=config.step_factor,
        lag=config.alarm_lag,
        min_history=config.alarm_min_history,
        survival_horizon=config.survival_horizon,
        min_survivors=config.min_survivors,
        warmup=config.alarm_warmup,
    )
    if args.snapshot_every is not None and not args.state_out:
        raise UsageError("--snapshot-every needs --state-out")

    def write_state() -> None:
        Path(args.state_out).write_text(
            json.dumps(state_to_json_dict(monitor.state), sort_keys=True, indent=2)
            + "\n",
            encoding="utf-8",
        )

    alarm_lines = []
    track_rows = ["time,cluster,cumulative_events,cumulative_counts,cumulative_energy"]
    for hit in decimate(hits, config.keep_ratio):
        waveform = hit.waveform()
        features = extract_features(
            waveform, (0, len(waveform)), threshold, rectify=config.rectify
        )
        alarms = monitor.process(features.count, features.energy)
        for alarm in alarms:
            alarm_lines.append(
                _json_line(
                    {
                        "time": alarm.time,
                        "kind": alarm.kind,
                        "cluster": alarm.cluster_id,
                        "magnitude": alarm.magnitude,
                    }
                )
            )
        if args.snapshot_every and monitor.n_observed % args.snapshot_every == 0:
            write_state()
    for cluster_id in sorted(monitor.tracks):
        track = monitor.tracks[cluster_id]
        for t, ev, ct, en in zip(
            track.times,
            track.cumulative_events,
            track.cumulative_counts,
            track.cumulative_energy,
        ):
            track_rows.append(f"{t},{cluster_id},{ev},{ct},{en!r}")
    Path(args.alarms_out).write_text(
        "\n".join(alarm_lines) + ("\n" if alarm_lines else ""), encoding="utf-8"
    )
    Path(args.tracks_out).write_text("\n".join(track_rows) + "\n", encoding="ascii")
    if args.state_out:
        write_state()
    return EXIT_OK


def _load_event_spans(path: str) -> list[tuple[int, int]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        rows = doc.get("bursts", doc.get("events"))
        if rows is None:
            raise DataFormatError(f"{path}: no 'bursts' or 'events' key")
    else:
        rows = doc
    return [(int(row["start_index"]), int(row["end_index"])) for row in rows]


def _cmd_features(args: argparse.Namespace) -> int:
    waveform = _read_input_waveform(args)
    spans = _load_event_spans(args.events)
    with open(args.out, "w", encoding="utf-8") as handle:
        for start, end in spans:
            feats = extract_features(waveform, (start, end), args.threshold_volts)
            handle.write(
                _json_line(
                    {
                        "start_index": start,
                        "end_index": end,
                        "count": feats.count,
                        "peak_amplitude": feats.peak_amplitude,
                        "rise_time": feats.rise_time,
                        "duration": feats.duration,
                        "energy": feats.energy,
                    }
                )
                + "\n"
            )
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "cluster": _cmd_cluster,
    "monitor": _cmd_monitor,
    "features": _cmd_features,
}


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli())
