"""Command-line pipeline: synth, detect, cluster, monitor, features.

Every subcommand takes ``--config``, a JSON file of ``PipelineConfig``
fields, and flags that override single fields: each such flag is the field
name with dashes (``--window`` for ``window_length``) and has its type.  The
config is loaded and type-checked once, before any command runs.

Exit codes: 0 success, 1 usage error, 2 data error (a malformed input or
config file).  All randomness is governed by ``--seed`` (or the config
file's seed), and every output is byte-deterministic for fixed inputs and
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .detector import NllTrace, flag_events, pick_noise_training, score, train_background
from .dppmm import MixtureState, fit, state_to_json_dict
from .io import (
    DataFormatError,
    read_hits,
    read_waveform,
    write_atomic,
    write_hits,
    write_waveform,
)
from .monitor import StreamMonitor, decimate
from .segmentation import (
    average_probabilities,
    block_features,
    build_event_records,
    extract_features,
    noise_cluster_id,
)
from .synth import BurstSpec, HitStreamSpec, SynthSpec, synthesize, synthesize_hit_stream
from .windowing import extract_counts

__all__ = ["cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _json_line(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, allow_nan=False).encode("utf-8") + b"\n"


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    write_atomic(path, [text.encode("utf-8") + b"\n"])


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_json_file(args.config) if args.config else PipelineConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    try:
        return replace(config, **overrides)
    except ValueError as exc:
        # The file alone passed, so a flag's value is at fault.
        raise UsageError(str(exc)) from exc


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """One flag per named config field, overriding the config file's value."""
    for name in names:
        parser.add_argument(
            "--window" if name == "window_length" else "--" + name.replace("_", "-"),
            dest=name,
            type=type(getattr(PipelineConfig, name)),
            choices=("percentile", "fixed") if name == "threshold_kind" else None,
        )


def _add_waveform_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input waveform file")
    parser.add_argument(
        "--format",
        default="raw_f32_le",
        choices=("csv", "raw_f32_le", "raw_i16_le"),
        help="waveform file format (declared, never sniffed)",
    )
    parser.add_argument(
        "--sample-rate", dest="sample_rate", type=_positive_float, default=None,
        help="sample rate in Hz (required for raw and single-column CSV)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(parser, "seed")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expects a positive number, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects a non-negative number, got {text}")
    return value


def _fraction(text: str) -> float:
    value = _finite_float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"expects a number in [0, 1], got {text}")
    return value


def _window_range(text: str) -> range:
    """START:STOP with 0 <= START < STOP; whether STOP fits the input is a data check."""
    try:
        start, stop = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects START:STOP, got {text!r}") from None
    if not 0 <= start < stop:
        raise argparse.ArgumentTypeError(f"expects 0 <= START < STOP, got {text}")
    return range(start, stop)


def _parse_burst(text: str) -> BurstSpec:
    """The ``--burst`` flag's type: argparse turns its errors into usage errors."""
    parts = text.split(",")
    try:
        if len(parts) not in (4, 5):
            raise ValueError("expects onset,amplitude,tau,freq[,family]")
        family = int(parts[4]) if len(parts) == 5 else 0
        return BurstSpec(*(float(part) for part in parts[:4]), family=family)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aeburst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic recording or hit stream")
    _add_common(p_synth)
    p_synth.add_argument("--mode", choices=("waveform", "hits"), default="waveform")
    p_synth.add_argument("--out", required=True, help="output file")
    p_synth.add_argument("--duration", type=_positive_float, default=0.1, help="seconds")
    p_synth.add_argument(
        "--sample-rate", dest="sample_rate", type=_positive_float, default=1e6
    )
    p_synth.add_argument("--noise-sigma", type=_non_negative_float, default=0.01)
    p_synth.add_argument(
        "--burst", action="append", default=[], type=_parse_burst,
        help="onset,amplitude,tau,freq[,family]; repeatable",
    )
    p_synth.add_argument("--annotations-out", default=None, help="ground-truth JSON")
    p_synth.add_argument(
        "--out-format", default="raw_f32_le", choices=("csv", "raw_f32_le"),
    )
    p_synth.add_argument("--n-hits", type=_positive_int, default=1000)
    p_synth.add_argument("--damage-start-hit", type=_non_negative_int, default=None)
    p_synth.add_argument("--damage-energy-factor", type=_positive_float, default=50.0)
    p_synth.add_argument("--damage-fraction", type=_fraction, default=0.3)

    p_detect = sub.add_parser("detect", help="score windows against a noise background")
    _add_common(p_detect)
    _add_waveform_input(p_detect)
    _add_config_flags(
        p_detect, "window_length", "overlap", "threshold_kind", "threshold_value",
        "prior_shape", "prior_rate",
    )
    p_detect.add_argument(
        "--train-windows", type=_window_range, default=None,
        help="explicit noise window index range START:STOP (e.g. 0:20)",
    )
    p_detect.add_argument(
        "--train-count", type=_positive_int, default=20,
        help="auto-pick this many lowest-count windows when no range is given",
    )
    p_detect.add_argument("--nll-out", required=True, help="per-window NLL CSV")
    p_detect.add_argument("--events-out", required=True, help="flagged intervals JSON")

    p_cluster = sub.add_parser("cluster", help="cluster windows and segment events")
    _add_common(p_cluster)
    _add_waveform_input(p_cluster)
    _add_config_flags(
        p_cluster, "window_length", "overlap", "threshold_kind", "threshold_value",
        "alpha", "sweeps", "burn_in", "prior_shape", "prior_rate", "min_probability",
    )
    p_cluster.add_argument("--events-out", required=True, help="event records JSONL")
    p_cluster.add_argument("--state-out", required=True, help="model state JSON")

    p_monitor = sub.add_parser("monitor", help="stream a hit file through the online model")
    _add_common(p_monitor)
    p_monitor.add_argument("--hits", required=True, help="hit container file")
    _add_config_flags(p_monitor, "keep_ratio", "alpha", "prior_shape", "prior_rate")
    p_monitor.add_argument(
        "--threshold-volts", type=_finite_float, default=None,
        help="fixed crossing threshold applied to every hit",
    )
    p_monitor.add_argument("--alarms-out", required=True, help="alarms JSONL")
    p_monitor.add_argument("--tracks-out", required=True, help="cumulative tracks CSV")
    p_monitor.add_argument("--state-out", default=None, help="final model state JSON")
    p_monitor.add_argument(
        "--snapshot-every", type=int, default=None,
        help="rewrite the state file every N >= 1 retained hits (needs --state-out)",
    )

    p_features = sub.add_parser("features", help="extract AE features for annotated events")
    _add_common(p_features)
    _add_waveform_input(p_features)
    p_features.add_argument("--events", required=True, help="events/annotations JSON")
    p_features.add_argument(
        "--threshold-volts", type=_finite_float, required=True,
        help="fixed crossing threshold in volts",
    )
    p_features.add_argument("--out", required=True, help="features JSONL")
    return parser


def _cmd_synth(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.mode == "waveform":
        spec = SynthSpec(
            duration=args.duration,
            sample_rate=args.sample_rate,
            noise_sigma=args.noise_sigma,
            bursts=tuple(args.burst),
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
            _write_json(args.annotations_out, doc)
    else:
        spec = HitStreamSpec(
            n_hits=args.n_hits,
            sample_rate=args.sample_rate,
            noise_sigma=args.noise_sigma,
            damage_start_hit=args.damage_start_hit,
            damage_energy_factor=args.damage_energy_factor,
            damage_fraction=args.damage_fraction,
        )
        write_hits(args.out, synthesize_hit_stream(spec, rng_seed=config.seed))
    return EXIT_OK


def _nll_csv(trace: NllTrace, block: int = 4096) -> Iterator[bytes]:
    """The per-window NLL CSV, ``block`` rows ``{start},{count},{nll!r}`` at a time.

    Each distinct (count, NLL bit pattern) pair's row tail is formatted once.
    """
    yield b"start_index,count,nll\n"
    _, count_ids = np.unique(trace.counts, return_inverse=True)
    nll_bits, nll_ids = np.unique(trace.nlls.view(np.uint64), return_inverse=True)
    _, first, tail_ids = np.unique(
        count_ids * nll_bits.size + nll_ids, return_index=True, return_inverse=True
    )
    pairs = zip(trace.counts[first].tolist(), trace.nlls[first].tolist())
    tails = [f",{c},{v!r}\n" for c, v in pairs]
    for i in range(0, tail_ids.size, block):
        rows = zip(trace.starts[i : i + block].tolist(), tail_ids[i : i + block].tolist())
        yield "".join([f"{s}{tails[t]}" for s, t in rows]).encode("ascii")


def _cmd_detect(args: argparse.Namespace, config: PipelineConfig) -> int:
    waveform = read_waveform(args.input, args.format, args.sample_rate)
    windowed = extract_counts(waveform, config.threshold_policy(), config.window_spec())
    counts = windowed.counts.tolist()
    if args.train_windows is not None:
        stop = args.train_windows.stop
        if stop > len(counts):
            raise DataFormatError(f"training range stop {stop} exceeds {len(counts)} windows")
        train_idx = list(args.train_windows)
    else:
        train_idx = pick_noise_training(counts, min(args.train_count, len(counts)))
    model = train_background(config.prior(), [counts[i] for i in train_idx])
    trace = score(model, windowed, margin=config.flag_margin)
    write_atomic(args.nll_out, _nll_csv(trace))
    intervals = flag_events(trace)
    doc = {
        "flag_threshold": trace.flag_threshold,
        "training_windows": train_idx,
        "events": [{"start_index": s, "end_index": e} for s, e in intervals],
    }
    _write_json(args.events_out, doc)
    return EXIT_OK


def _cmd_cluster(args: argparse.Namespace, config: PipelineConfig) -> int:
    waveform = read_waveform(args.input, args.format, args.sample_rate)
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
            result.table[result.index], windowed.spec, len(waveform), result.columns
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
    write_atomic(
        args.events_out,
        (
            _json_line(
                {
                    "start_index": record.start_index,
                    "end_index": record.end_index,
                    "start_time": record.start_index / waveform.sample_rate,
                    "end_time": record.end_index / waveform.sample_rate,
                    "label": record.label,
                    "mean_probability": record.mean_probability,
                    "features": asdict(record.features),
                }
            )
            for record in records
        ),
    )
    _write_json(args.state_out, state_to_json_dict(result.state))
    return EXIT_OK


def _cmd_monitor(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.snapshot_every is not None and (args.snapshot_every < 1 or not args.state_out):
        raise UsageError("--snapshot-every needs a count of at least 1 and --state-out")
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

    def write_state() -> None:
        _write_json(args.state_out, state_to_json_dict(monitor.state))

    alarm_lines = []
    track_rows = ["time,cluster,cumulative_events,cumulative_counts,cumulative_energy"]
    for block in hits.blocks(decimate(range(len(hits)), config.keep_ratio)):
        for features in block_features(block, hits.sample_rate, threshold, config.rectify):
            for alarm in monitor.process(features.count, features.energy):
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
        rows = zip(track.times, track.cumulative_counts, track.cumulative_energy)
        for events, (t, ct, en) in enumerate(rows, 1):
            track_rows.append(f"{t},{cluster_id},{events},{ct},{en!r}")
    write_atomic(args.alarms_out, alarm_lines)
    write_atomic(args.tracks_out, [("\n".join(track_rows) + "\n").encode("ascii")])
    if args.state_out:
        write_state()
    return EXIT_OK


def _load_event_spans(path: str) -> list[tuple[int, int]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = doc.get("bursts", doc.get("events")) if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise DataFormatError(f"{path}: no span list, bare or under 'bursts' or 'events'")
    try:
        spans = [(row["start_index"], row["end_index"]) for row in rows]
    except (KeyError, TypeError):
        spans = [(None, None)]  # a row without both keys fails the check below
    # JSON integers only: a float would be truncated or overflow, true read as 1.
    if any(type(index) is not int for span in spans for index in span):
        raise DataFormatError(f"{path}: every span needs integer 'start_index' and 'end_index'")
    return spans


def _cmd_features(args: argparse.Namespace, config: PipelineConfig) -> int:
    waveform = read_waveform(args.input, args.format, args.sample_rate)
    spans = _load_event_spans(args.events)
    # Reading every chunk checks every sample is finite, not only the spans'.
    for _ in waveform.chunks():
        pass

    def lines():
        for start, end in spans:
            feats = extract_features(
                waveform, (start, end), args.threshold_volts, rectify=config.rectify
            )
            yield _json_line({"start_index": start, "end_index": end, **asdict(feats)})

    write_atomic(args.out, lines())
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
        return _COMMANDS[args.command](args, _load_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli())
