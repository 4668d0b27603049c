"""Layer spans recorded from outside the package, and their summary.

``install`` replaces, by attribute, the public functions that ``aeburst.cli``
imports, ``StreamMonitor.process``, and the ``observe``, ``gibbs_sweep`` and
``update_tracks`` names that ``aeburst.monitor`` calls, with wrappers that
record one span per call: (name, layer, start, end, parent).  The layer is the
module that defines the function.  Spans stay in memory until the child writes
them out at the end.  Counts are taken from arguments and results at the same
boundaries.

``summarize`` turns the spans and counts of one traced run into the per-layer
metrics.  A span's self time is its duration minus the durations of its direct
children, so the layer self times plus ``cli.self_s`` (the traced total minus
every top-level span) add up to the traced total.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
from collections import Counter
from time import perf_counter

LAYERS = ("io", "windowing", "detector", "dppmm", "segmentation", "monitor")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.online_state = None
        self._stack: list[int] = []

    def wrap(self, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(args, result)`` runs
        after the span closes."""
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def export(self) -> dict:
        """Spans, counts and the final state of the observe loop, as JSON."""
        counts = dict(self.counts)
        state = self.online_state
        if state is not None:
            counts["monitor.final_k"] = state.n_clusters
            counts["dppmm.draws"] = counts.get("dppmm.draws", 0) + state.rng.draws
        return {"spans": self.spans, "counts": counts}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import aeburst.cli as cli
    import aeburst.monitor as monitor

    counts = tracer.counts

    def on_fit(args, result):
        counts["dppmm.datum_steps"] += result.sweeps_run * len(result.state.data)
        counts["dppmm.draws"] += result.state.rng.draws
        counts["dppmm.final_k"] = result.state.n_clusters

    def on_sweep(args, result):
        counts["dppmm.datum_steps"] += len(args[0].data)
        counts["dppmm.sweeps"] += 1

    def on_observe(args, outcome):
        counts["monitor.observe_calls"] += 1
        counts["monitor.resamples"] += outcome.resampled
        tracer.online_state = args[1]

    def on_process(args, alarms):
        counts["monitor.hits_kept"] += 1
        for alarm in alarms:
            counts[f"monitor.alarms_{alarm.kind}"] += 1

    def on_field(args, field):
        counts["dppmm.ids_seen"] = len(field.probabilities)
        counts["segmentation.field_bytes"] = len(field.probabilities) * args[2] * 8

    def on_score(args, trace):
        counts["detector.flagged_windows"] += int((trace.nlls > trace.flag_threshold).sum())

    def adds_len(key):
        def hook(args, result):
            counts[key] += len(result)

        return hook

    hooks = {
        "read_hits": adds_len("io.records_decoded"),
        "extract_counts": adds_len("windowing.windows"),
        "score": on_score,
        "fit": on_fit,
        "average_probabilities": on_field,
        "build_event_records": adds_len("segmentation.events"),
    }
    for name, obj in list(vars(cli).items()):
        if inspect.isfunction(obj) and obj.__module__.rsplit(".", 1)[-1] in LAYERS:
            setattr(cli, name, tracer.wrap(obj, hooks.get(name)))
    monitor.StreamMonitor.process = tracer.wrap(monitor.StreamMonitor.process, on_process)
    monitor.observe = tracer.wrap(monitor.observe, on_observe)
    monitor.gibbs_sweep = tracer.wrap(monitor.gibbs_sweep, on_sweep)
    monitor.update_tracks = tracer.wrap(monitor.update_tracks)


def _p99(values: list[float]) -> float:
    """The value with one percent of the sample above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def summarize(spans: list[list], counts: dict, total_s: float) -> dict:
    """Per-layer metrics of one traced run (seconds, counts, micro-seconds)."""
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for _, _, start, end, parent in spans:
        if parent < 0:
            top_level += end - start
        else:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, list[float]] = {}
    smallest = total_s - top_level
    for (name, layer, start, end, _), inner in zip(spans, child_time):
        smallest = min(smallest, end - start - inner)
        self_s[layer] += end - start - inner
        by_name.setdefault(name, []).append(end - start)

    def total(*names: str) -> float:
        return sum(sum(by_name.get(name, ())) for name in names)

    def micro(name: str, stat) -> float:
        durations = by_name.get(name)
        return stat(durations) * 1e6 if durations else 0.0

    def count(key: str) -> float:
        return counts.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    fit_s, sweep_s = total("fit"), total("gibbs_sweep")
    observe_s = total("observe")
    metrics = {
        "trace.total_s": total_s,
        "cli.self_s": total_s - top_level,
        "cli.output_bytes": count("cli.output_bytes"),
        **{f"{layer}.self_s": value for layer, value in self_s.items()},
        "io.decode_s": total("read_waveform"),
        "io.read_hits_s": total("read_hits"),
        "io.records_decoded": count("io.records_decoded"),
        "io.kept_frac": ratio(count("monitor.hits_kept"), count("io.records_decoded")),
        "windowing.extract_s": total("extract_counts"),
        "windowing.windows": count("windowing.windows"),
        "detector.train_s": total("train_background", "pick_noise_training"),
        "detector.score_s": total("score"),
        "detector.flag_s": total("flag_events"),
        "detector.flagged_windows": count("detector.flagged_windows"),
        "dppmm.fit_s": fit_s,
        "dppmm.sweep_s": sweep_s,
        "dppmm.sweeps": count("dppmm.sweeps"),
        "dppmm.datum_steps": count("dppmm.datum_steps"),
        "dppmm.draws": count("dppmm.draws"),
        "dppmm.us_per_datum_step": ratio(fit_s + sweep_s, count("dppmm.datum_steps")) * 1e6,
        "dppmm.final_k": count("dppmm.final_k"),
        "dppmm.ids_seen": count("dppmm.ids_seen"),
        "segmentation.field_s": total("average_probabilities"),
        "segmentation.field_mb": count("segmentation.field_bytes") / 1e6,
        "segmentation.events_s": total("build_event_records"),
        "segmentation.events": count("segmentation.events"),
        "segmentation.features_s": total("extract_features"),
        "monitor.process_s": total("process"),
        "monitor.process_p50_us": micro("process", statistics.median),
        "monitor.process_p99_us": micro("process", _p99),
        "monitor.observe_s": observe_s,
        "monitor.observe_p50_us": micro("observe", statistics.median),
        "monitor.observe_p99_us": micro("observe", _p99),
        "monitor.gate_s": observe_s - sweep_s,
        "monitor.tracks_s": total("update_tracks"),
        "monitor.hits_kept": count("monitor.hits_kept"),
        "monitor.resample_frac": ratio(count("monitor.resamples"), count("monitor.observe_calls")),
        "monitor.final_k": count("monitor.final_k"),
        "monitor.alarms_new_cluster": count("monitor.alarms_new_cluster"),
        "monitor.alarms_growth_step": count("monitor.alarms_growth_step"),
    }
    # Self times partition the total only if every span nests inside its
    # parent and the top-level spans inside the timed operation.
    layer_sum = sum(self_s.values()) + metrics["cli.self_s"]
    if smallest < -1e-9 or not math.isclose(layer_sum, total_s, abs_tol=1e-9):
        raise ValueError(
            f"layer self times add to {layer_sum} of {total_s}, smallest part {smallest}"
        )
    return metrics
