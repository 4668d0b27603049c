#!/usr/bin/env python3
"""Outside-in benchmark of the aeburst CLI and the online observe loop.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload cluster_overlap --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Inputs are made from ``--seed`` before anything is timed.  Each timed
operation then runs in a fresh child process, one at a time, until
``--seconds`` have been spent; peak RSS is that child's own high-water mark.
With ``--trace 0`` the children run untraced and the result holds the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` traced and
untraced children alternate and the result holds the per-layer metrics.
Every run's outputs are checked; a failed check counts in ``failed``.  The
last line of standard output is the result as one JSON object, and the same
result, with the input digests, is appended to ``.bench_results/records.jsonl``
for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

MIN_ROUNDS = 3
# A run must end within 180 s; no child may run past this point of it.
RUN_DEADLINE_S = 170.0


def spawn(job: dict, workdir: Path, deadline: float) -> int:
    """Run ``child.py`` on a job and reap it; returns its exit code."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    # Set-up is the import an installed package pays: from cached bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    log = str(workdir / "child.log")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, str(HERE / "child.py"), str(job_path)],
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, log, flags, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ],
    )
    try:
        while True:
            reaped, status = os.waitpid(pid, os.WNOHANG)
            if reaped:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() > deadline:
                raise TimeoutError("child still running at the run's deadline")
            time.sleep(0.005)
    except BaseException:
        # Never leave a child behind, whatever stopped the wait.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise


class Run:
    """The children, checks and samples of one workload at one seed."""

    def __init__(self, name: str, seed: int, trace: bool, bench: dict) -> None:
        from workloads import WORKLOADS

        self.name, self.seed, self.trace, self.bench = name, seed, trace, bench
        self.workload = WORKLOADS[name]
        self.start = time.monotonic()
        self.deadline = self.start + RUN_DEADLINE_S
        self.workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.outdir = self.workdir / "out"
        self.result_path = self.workdir / "result.json"
        # metric -> instance -> values
        self.samples: dict[str, dict[int, list[float]]] = {}
        self.counts_seen: dict[str, float] = {}
        self.count_names = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
        self.attempted = self.failed = 0
        self.instances = []
        self.digests: dict[str, str] = {}
        self.references: list[str | None] = []

    def add(self, key: str, value: float, instance: int = 0) -> None:
        self.samples.setdefault(key, {}).setdefault(instance, []).append(value)

    def prepare(self) -> None:
        """Make every input before anything is timed; record its digest."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        # The traced run uses the first instance only, so that its traced and
        # untraced children see the same input.
        n = 1 if self.trace else self.workload.instances
        for j in range(n):
            instance_seed = self.seed * self.workload.instances + j
            inputs = self.workdir / "inputs" / str(j)
            inputs.mkdir(parents=True)
            prepared = self.workload.prepare(inputs, instance_seed)
            for input_name, digest in sorted(prepared.digests.items()):
                self.digests[f"{instance_seed}/{input_name}"] = digest
                print(f"{self.name} seed {self.seed}: instance {instance_seed} "
                      f"input {input_name} sha256 {digest}")
            self.instances.append(prepared)
            self.references.append(None)

    def setup_probe(self) -> None:
        job = {"kind": "setup", "result": str(self.result_path)}
        if spawn(job, self.workdir, self.deadline) == 0:
            self.add("setup_s", json.loads(self.result_path.read_text())["setup_s"])

    def rep(self, index: int, traced: bool) -> None:
        """One child on instance ``index``; its samples count only if every
        check passes."""
        from workloads import digest_outputs

        prepared = self.instances[index]
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir()
        out = str(self.outdir)
        job = dict(prepared.job, trace=traced, outdir=out, result=str(self.result_path))
        if "argv" in job:
            job["argv"] = [a.replace("{out}", out) for a in job["argv"]]
        self.result_path.unlink(missing_ok=True)
        code = spawn(job, self.workdir, self.deadline)
        problems: list[str] = []
        if code != 0:
            log = (self.workdir / "child.log").read_text(errors="replace")
            problems.append(f"child exited with {code}: {log[-2000:]}")
        else:
            result = json.loads(self.result_path.read_text())
            if result["exit_code"] != 0:
                problems.append(f"operation returned exit code {result['exit_code']}")
        if not problems:
            try:
                found, quality = self.workload.check(self.outdir, prepared.truth)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, quality = [f"output check raised {exc!r}"], {}
            problems += found
            digest = digest_outputs(self.outdir)
            if self.references[index] is None:
                self.references[index] = digest
            elif digest != self.references[index]:
                problems.append("outputs differ from the first run on this input")
        if not problems and traced:
            counts = dict(result["counts"])
            counts["cli.output_bytes"] = sum(p.stat().st_size for p in self.outdir.iterdir())
            try:
                layers = tracing.summarize(result["spans"], counts, result["wall_s"])
            except ValueError as exc:
                problems.append(str(exc))
            else:
                for key, value in layers.items():
                    if key in self.count_names and self.counts_seen.setdefault(key, value) != value:
                        problems.append(f"count {key} did not repeat")
        if problems:
            self.failed += 1
            print(f"{self.name} seed {self.seed}: run {self.attempted} failed: "
                  + "; ".join(problems), file=sys.stderr)
            return
        if traced:
            self.add("traced_total_s", result["wall_s"])
            for key, value in layers.items():
                self.add(key, value)
        else:
            self.add("setup_s", result["setup_s"], index)
            self.add("wall_s", result["wall_s"], index)
            self.add("peak_rss_mb", result["peak_rss_kib"] / 1024, index)
        for key, value in quality.items():
            self.add(f"quality.{key}", value, index)

    def measure(self, seconds: int) -> None:
        """Children one at a time until the next round would overrun."""
        # Untraced: an import-only child, so that set-up is sampled at least
        # twice per round across the whole run, then the operation, rotating
        # over the instances.  Traced: a traced child and an untraced one per
        # round, both on the first instance.
        pattern = (True, False) if self.trace else (False,)
        min_rounds = 1 if self.trace else max(MIN_ROUNDS, len(self.instances))
        start = time.monotonic()
        longest = 0.0
        rounds = 0
        while rounds < min_rounds or time.monotonic() - start + longest <= seconds:
            round_start = time.monotonic()
            if not self.trace:
                self.setup_probe()
            for traced in pattern:
                self.rep(rounds % len(self.instances), traced)
            longest = max(longest, time.monotonic() - round_start)
            rounds += 1

    def outcome(self) -> dict:
        # The median over each instance's children, averaged over instances.
        computed = {
            key: statistics.fmean(statistics.median(v) for v in by_instance.values())
            for key, by_instance in self.samples.items()
        }
        if self.trace:
            wanted = self.bench["per_layer"]
            for key in ("event_precision", "alarm_delay_hits", "early_alarms"):
                computed.setdefault(f"quality.{key}", 0.0)
            if "traced_total_s" in computed and "wall_s" in computed:
                computed["trace.overhead_s"] = computed["traced_total_s"] - computed["wall_s"]
        else:
            wanted = self.bench["end_to_end"]
            computed["recall"] = computed.get("quality.recall")
        metrics = {}
        if all(computed.get(m["name"]) is not None for m in wanted):
            metrics = {
                m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted
            }
        return {
            "correct": self.failed == 0 and bool(metrics),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def record(self, outcome: dict) -> None:
        """Append the outcome, input digests and raw samples for compare.py."""
        record = dict(
            outcome,
            workload=self.name,
            seed=self.seed,
            trace=int(self.trace),
            inputs=self.digests,
            outputs=self.references,
            samples=self.samples,
            elapsed_s=time.monotonic() - self.start,
        )
        (ROOT / ".bench_results").mkdir(exist_ok=True)
        with open(ROOT / ".bench_results" / "records.jsonl", "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    run = Run(name, seed, trace, bench)
    try:
        run.prepare()
        run.measure(seconds)
        outcome = run.outcome()
        run.record(outcome)
        return outcome
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


def main() -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "aeburst" / "__init__.py").is_file() or not bench_path.is_file():
        print("run from the root of an aeburst checkout: no src/aeburst or "
              "BENCHMARK.json here", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    sys.path.insert(0, str(SRC))

    chosen = names if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in chosen:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        outcomes[name] = outcome
        print(f"{name} seed {args.seed}: attempted {outcome['attempted']}, "
              f"failed {outcome['failed']}, error_rate "
              f"{outcome['failed'] / outcome['attempted']:.3f}")
        for metric, entry in outcome["metrics"].items():
            print(f"  {metric:28s} {entry['value']:>14.6g} {entry['unit']}")
    final = outcomes[chosen[0]] if len(chosen) == 1 else outcomes
    print(json.dumps(final))
    ok = all(o["metrics"] for o in outcomes.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
