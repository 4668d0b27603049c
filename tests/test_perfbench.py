"""The benchmark's own files still import and run against the package.

``perfbench/child.py`` and ``perfbench/workloads.py`` import library names
directly, so a renamed or deleted name fails every benchmark run; loading
both files by path here fails first.
"""

import importlib.util
import json
import sys
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
