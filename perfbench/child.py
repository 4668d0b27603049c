"""One timed operation in a fresh interpreter: ``python3 child.py JOB.json``.

The job file names the operation (an ``aeburst`` command line, or the
``observe`` loop over a counts file), whether to trace, and where to write
the result.  Set-up time is the import of ``aeburst.cli``; only ``sys`` and
``time`` are imported before it, so the import pays for everything it pulls
in.  The result file holds the set-up time, the operation's wall time, exit
code and peak RSS and, when tracing, the spans and counts.

Peak RSS is ``VmHWM``, the high-water mark of this process's own address
space since it was exec'd.  ``ru_maxrss`` (from ``os.wait4`` or
``RUSAGE_SELF``) will not do: Linux carries the peak of the address space an
exec replaces into it, so a child would report at least the harness's RSS at
the moment it was spawned, which after generating a 350 MB input dwarfs a
small workload.
"""

import sys
import time

_start = time.perf_counter()
import aeburst.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
from pathlib import Path  # noqa: E402


def _observe_loop(job: dict, outdir: Path) -> float:
    from aeburst import monitor
    from aeburst.distributions import GammaParams
    from aeburst.dppmm import Hyperparams, MixtureState, state_to_json_dict

    counts = json.loads(Path(job["counts"]).read_text())
    state = MixtureState.empty(Hyperparams(1.0, GammaParams(1.0, 1.0)), job["seed"])
    observe = monitor.observe
    start = time.perf_counter()
    for x in counts:
        observe(x, state, eta_override=1.0)
    wall = time.perf_counter() - start
    doc = json.dumps(state_to_json_dict(state), sort_keys=True, indent=2)
    (outdir / "state.json").write_text(doc + "\n")
    return wall


def _peak_rss_kib() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    result: dict = {"setup_s": SETUP_S}
    if job["kind"] != "setup":
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        outdir = Path(job["outdir"])
        if job["kind"] == "cli":
            start = time.perf_counter()
            code = aeburst.cli.cli(job["argv"])
            wall = time.perf_counter() - start
        else:
            wall, code = _observe_loop(job, outdir), 0
        result.update(wall_s=wall, exit_code=code, peak_rss_kib=_peak_rss_kib())
        if tracer is not None:
            result.update(tracer.export())
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
