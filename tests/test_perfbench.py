"""The benchmark's own files still import and run against the package.

``perfbench/child.py`` and ``perfbench/workloads.py`` import library names
directly, so a renamed or deleted name fails every benchmark run; loading
both files by path here fails first.  ``perfbench/tracing.py`` wraps the
names ``aeburst.cli`` imports and the monitor's loop, and its summary must
still add up on a traced ``detect``, ``cluster`` and ``monitor``.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from aeburst.dppmm import audit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in ``sys.modules`` while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_observe_loop_state_reloads(tmp_path, monkeypatch):
    child, workloads = load("child", monkeypatch), load("workloads", monkeypatch)
    counts = np.random.default_rng(4).poisson(3.0, 20).tolist() + [30, 2]
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    wall = child._observe_loop({"counts": str(path), "seed": 4}, tmp_path)
    assert wall > 0
    doc = json.loads((tmp_path / "state.json").read_text())
    state = workloads.state_from_json_dict(doc, counts)
    assert audit(state)
    # The gate is forced open: after the first count, each observation draws
    # the gate, the new count's cluster, and one uniform per datum in its sweep.
    n = len(counts)
    assert state.rng.draws == (n - 1) * n // 2 + 3 * (n - 1)


def traced_run(tracing, monkeypatch, argv):
    """``cli(argv)`` under a fresh ``tracing.Tracer``; its per-layer summary.

    The wrappers ``install`` sets go back to the originals when the run ends.
    """
    import aeburst.cli as cli
    from aeburst import monitor

    with monkeypatch.context() as patch:
        for name, obj in list(vars(cli).items()):
            patch.setattr(cli, name, obj)
        for name in ("observe", "gibbs_sweep", "update_tracks"):
            patch.setattr(monitor, name, getattr(monitor, name))
        patch.setattr(monitor.StreamMonitor, "process", monitor.StreamMonitor.process)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        start = time.perf_counter()
        assert cli.cli(argv) == 0
        total_s = time.perf_counter() - start
    return tracing.summarize(tracer.spans, tracer.export()["counts"], total_s)


def test_tracer_wraps_the_cli_layers(tmp_path, monkeypatch):
    # ``install`` wraps the names ``aeburst.cli`` imports; a renamed or
    # deleted name would leave a layer untimed or a hook unrun.
    from aeburst.cli import cli

    tracing = load("tracing", monkeypatch)
    wave = tmp_path / "w.f32"
    assert cli([
        "synth", "--out", str(wave), "--duration", "0.032768", "--seed", "3",
        "--burst", "0.008192,0.2,0.0004551,120000,0",
        "--burst", "0.020480,0.2,0.0004551,120000,0",
    ]) == 0
    source = ["--input", str(wave), "--sample-rate", "1e6"]
    detect = traced_run(tracing, monkeypatch, [
        "detect", *source, "--window", "4096", "--overlap", "0", "--train-windows", "0:2",
        "--nll-out", str(tmp_path / "t.csv"), "--events-out", str(tmp_path / "e.json"),
    ])
    assert detect["detector.train_s"] > 0 and detect["detector.score_s"] > 0
    events = tmp_path / "ev.jsonl"
    cluster = traced_run(tracing, monkeypatch, [
        "cluster", *source, "--window", "512", "--overlap", "0.875", "--sweeps", "20",
        "--burn-in", "10", "--events-out", str(events), "--state-out", str(tmp_path / "s.json"),
    ])
    written = len(events.read_text().splitlines())
    assert written > 0 and cluster["segmentation.events"] == written
    assert cluster["dppmm.fit_s"] > 0 and cluster["segmentation.field_s"] > 0


def test_tracer_wraps_the_monitor_loop(tmp_path, monkeypatch):
    # ``install`` wraps ``StreamMonitor.process`` and the ``update_tracks`` it
    # calls by attribute; both must still run, and be timed, on every hit.
    from aeburst.cli import cli

    tracing = load("tracing", monkeypatch)
    hits = tmp_path / "hits.bin"
    assert cli([
        "synth", "--mode", "hits", "--out", str(hits), "--n-hits", "200",
        "--damage-start-hit", "100", "--seed", "2",
    ]) == 0
    tracks = tmp_path / "tracks.csv"
    metrics = traced_run(tracing, monkeypatch, [
        "monitor", "--hits", str(hits), "--keep-ratio", "1", "--threshold-volts", "0.05",
        "--alarms-out", str(tmp_path / "alarms.jsonl"), "--tracks-out", str(tracks),
    ])
    rows = len(tracks.read_text().splitlines()) - 1
    assert rows == 200 and metrics["monitor.hits_kept"] == rows
    assert metrics["monitor.tracks_s"] > 0 and metrics["monitor.process_s"] > 0
