"""Per-record AE features and the per-hit monitor loop, the references for
``block_features``, ``HitFile.blocks`` and ``aeburst monitor``.

``reference_features`` computes one record's features with 1-D numpy calls,
one record at a time.  ``reference_records`` decodes each kept record as its
own span of the payload, widened to float64, reporting a bad sample or a short read by record.
``reference_monitor`` feeds them to ``StreamMonitor`` one hit at a time and
renders the alarms, tracks and state documents as ``aeburst monitor`` writes
them.  The block path must reproduce all of these exactly, so the tests
compare them with ``==``.
"""

import json

import numpy as np

from aeburst.config import PipelineConfig
from aeburst.dppmm import MixtureState, state_to_json_dict
from aeburst.io import DataFormatError
from aeburst.monitor import StreamMonitor, decimate
from aeburst.segmentation import WaveformFeatures


def reference_features(
    v: np.ndarray, sample_rate: float, threshold: float, rectify: bool = True
) -> WaveformFeatures:
    """Features of one 1-D record, computed on that record alone."""
    magnitude = np.abs(v)
    observed = magnitude if rectify else v
    above = observed > threshold
    count = int(np.count_nonzero(above[1:] & ~above[:-1])) + int(above[0])
    energy = float(np.sum(v * v)) / sample_rate
    peak = float(magnitude.max())
    where = np.flatnonzero(above)
    if where.size == 0:
        return WaveformFeatures(
            count=0, peak_amplitude=peak, rise_time=0.0, duration=0.0, energy=energy
        )
    first = int(where[0])
    last = int(where[-1])
    peak_index = int(np.argmax(magnitude))
    return WaveformFeatures(
        count=count,
        peak_amplitude=peak,
        rise_time=(peak_index - first) / sample_rate,
        duration=(last - first) / sample_rate,
        energy=energy,
    )


def reference_records(hits, indices):
    """The records at ``indices``, each decoded as its own payload span, as float64."""
    for i in indices:
        start = i * hits.record_length
        try:
            samples = hits.payload.span(start, start + hits.record_length)
        except DataFormatError as exc:
            where = f"record {i}"
            if exc.sample is not None:
                where += f", sample {exc.sample - start}"
            raise DataFormatError(f"{exc} ({where})", exc.sample) from exc
        yield samples.astype(np.float64)


def _json_line(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, allow_nan=False).encode("utf-8") + b"\n"


def _state_bytes(state: MixtureState) -> bytes:
    doc = state_to_json_dict(state)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode("utf-8") + b"\n"


def reference_monitor(
    hits,
    config: PipelineConfig,
    threshold: float,
    snapshot_every: int | None = None,
    state_writes: list | None = None,
) -> tuple[bytes, bytes]:
    """The alarms and tracks files of ``aeburst monitor`` over the opened
    hit file ``hits``, one hit at a time.

    Every state document the command would write (each snapshot, then the
    final state) is appended to ``state_writes``, so a run that raises part
    way leaves there the snapshots written before the fault.
    """
    if state_writes is None:
        state_writes = []
    monitor = StreamMonitor(
        MixtureState.empty(config.hyperparams(), rng_seed=config.seed), config
    )
    alarm_lines = []
    kept = decimate(range(len(hits)), config.keep_ratio)
    for samples in reference_records(hits, kept):
        features = reference_features(samples, hits.sample_rate, threshold, config.rectify)
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
        if snapshot_every and monitor.n_observed % snapshot_every == 0:
            state_writes.append(_state_bytes(monitor.state))
    track_rows = ["time,cluster,cumulative_events,cumulative_counts,cumulative_energy"]
    for cluster_id in sorted(monitor.tracks):
        track = monitor.tracks[cluster_id]
        rows = zip(track.times, track.cumulative_counts, track.cumulative_energy)
        for events, (t, ct, en) in enumerate(rows, 1):
            track_rows.append(f"{t},{cluster_id},{events},{ct},{en!r}")
    state_writes.append(_state_bytes(monitor.state))
    return b"".join(alarm_lines), ("\n".join(track_rows) + "\n").encode("ascii")
