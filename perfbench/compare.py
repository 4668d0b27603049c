#!/usr/bin/env python3
"""Compare two sets of benchmark records; refuse when their inputs differ.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py`` appends to
``.bench_results/records.jsonl`` (copy that file away after measuring each
commit).  Records are grouped by workload and trace mode.  For every seed
both sides ran, the SHA-256 digests of the generated inputs must agree:
otherwise the inputs themselves changed (for instance through a change to
``aeburst.synth``) and the comparison is refused with exit code 2.  Each
metric then gets both sides' median and quartiles over seeds; an end-to-end
metric whose median got worse by more than its bound in ``BENCHMARK.json``
is marked ``WORSE`` and makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(base_path: str, change_path: str) -> int:
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(base_path), load(change_path)
    refused = False
    for key in sorted(base.keys() & change.keys()):
        inputs = {r["seed"]: r["inputs"] for r in base[key]}
        for record in change[key]:
            if record["seed"] in inputs and inputs[record["seed"]] != record["inputs"]:
                print(f"refused: {key[0]} seed {record['seed']} inputs differ "
                      f"({inputs[record['seed']]} vs {record['inputs']})")
                refused = True
    if refused:
        return 2
    worse = False
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(change[key])} change runs")
        for name, spec in specs.items():
            a = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if spec["better"] == "lower" else -1
            share = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            flag = ""
            if "bound" in spec and share > spec["bound"]:
                flag, worse = "WORSE", True
            print(f"  {name:28s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"worse by {share:+.3f} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
