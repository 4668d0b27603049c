"""The C sweep kernel: its ``lgamma`` against ``math.lgamma``, its sweeps
against the step-by-step reference, and how it is built, cached and loaded.

Every comparison is ``==``: the kernel must perform the reference's
floating-point operations exactly, not approximately.
"""

import math
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeburst
from aeburst import dppmm
from aeburst.cli import cli
from aeburst.distributions import GammaParams
from aeburst.dppmm import Hyperparams, MixtureState, gibbs_sweep
from aeburst.io import write_hits
from aeburst.synth import HitStreamSpec, synthesize_hit_stream
from sampler_oracle import (
    assignment_log_weights,
    detach_datum,
    exp_weights,
    reference_sweep,
    scan,
)

SRC = Path(aeburst.__file__).parents[1]


def lgamma_port():
    return dppmm._kernel().aeburst_lgamma


class TestLgammaPort:
    """The port of CPython's ``m_lgamma`` returns ``math.lgamma`` bit for bit."""

    def assert_equal_on(self, values):
        port = lgamma_port()
        wrong = [v for v in values if port(v) != math.lgamma(v)]
        assert wrong == []

    def test_integers_to_two_million(self):
        # Every integer to 20,000, then every 7th to 2 * 10**6: the counts
        # and the ``x + 1`` of ``lgamma(x + 1)``.
        self.assert_equal_on(map(float, [*range(1, 20_000), *range(20_000, 2_000_001, 7)]))

    def test_half_integers(self):
        self.assert_equal_on(n + 0.5 for n in range(100_000))

    @pytest.mark.parametrize("shape", [0.3, 0.5, 1.7, 2.25])
    def test_count_plus_shape_plus_sum(self, shape):
        # ``lgamma(x + r)`` with ``r = shape + s``, rounded in that order.
        self.assert_equal_on(
            x + (shape + s) for s in range(0, 30_000, 3) for x in (0, 1, 2, 7, 40, 123)
        )

    def test_small_and_exact_arguments(self):
        self.assert_equal_on([1e-300, 1e-21, 1e-20, 1e-3, 0.5, 1.0, 2.0, 2.5, 5.0, 4.999999999])

    @settings(max_examples=3000, deadline=None)
    @given(st.floats(1e-3, 1e7))
    def test_floats(self, value):
        assert lgamma_port()(value) == math.lgamma(value)


def cluster_table(state):
    return [(c.id, c.n_members, c.sum_x, c.created_at) for c in state.clusters.values()]


def state_from_groups(data, groups, hyper, seed):
    """A state whose datum ``i`` sits in cluster ``groups[i]``, the clusters
    minted in order of first appearance."""
    state = MixtureState.empty(hyper, seed)
    ids = {}
    for x, group in zip(data, groups):
        ids[group] = state.append_datum(x, ids.get(group))
    return state


class Uniforms:
    """Stands in for ``state.rng``: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values, self.draws = list(values), 0

    def random(self):
        self.draws += 1
        return self.values[self.draws - 1]

    def array(self, n):
        self.draws += n
        return np.array(self.values[self.draws - n : self.draws], dtype=float)


@st.composite
def sweep_cases(draw):
    values = draw(st.lists(st.integers(0, 80), min_size=1, max_size=5))
    data = draw(st.lists(st.sampled_from(values), min_size=1, max_size=40))
    groups = draw(st.lists(st.integers(0, 6), min_size=len(data), max_size=len(data)))
    alpha = draw(st.sampled_from([0.05, 0.5, 1.0, 3.0, 20.0]) | st.floats(0.01, 50.0))
    shape = draw(st.sampled_from([1.0, 0.5, 2.0]) | st.floats(0.05, 20.0))
    rate = draw(st.sampled_from([1.0, 0.25, 4.0]) | st.floats(0.05, 20.0))
    seed = draw(st.integers(0, 2**32 - 1))
    sweeps = draw(st.integers(1, 4))
    return data, groups, Hyperparams(alpha, GammaParams(shape, rate)), seed, sweeps


class TestKernelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(sweep_cases())
    def test_sweeps_equal_the_reference(self, case):
        # Random partitions hold singletons that a sweep empties and
        # deletes; large alpha and small counts give new clusters.
        data, groups, hyper, seed, sweeps = case
        kernel = state_from_groups(data, groups, hyper, seed)
        ref = state_from_groups(data, groups, hyper, seed)
        for _ in range(sweeps):
            diag = {}
            gibbs_sweep(kernel, diagnostics=diag)
            joint, flips = reference_sweep(ref)
            assert kernel.assignments == ref.assignments
            assert cluster_table(kernel) == cluster_table(ref)
            assert kernel.next_cluster_id == ref.next_cluster_id
            assert kernel.rng.draws == ref.rng.draws
            assert (diag["joint_log_weight"], diag["flips"]) == (joint, flips)

    @pytest.mark.parametrize("seed", range(3))
    def test_deaths_and_births_in_long_runs(self, seed):
        # Runs of hundreds of equal counts over several clusters, with
        # singletons that die every sweep and new clusters that open.
        rng = np.random.default_rng(seed)
        data = [0] * 150 + [2] * 120 + rng.poisson(30, 8).tolist() + [0] * 90 + [300, 2]
        groups = rng.integers(0, 5, len(data)).tolist()
        groups[-2] = 9
        hyper = Hyperparams(2.0, GammaParams(0.7, 1.3))
        kernel = state_from_groups(data, groups, hyper, seed)
        ref = state_from_groups(data, groups, hyper, seed)
        births = deaths = 0
        for _ in range(6):
            before = set(ref.clusters)
            next_before = ref.next_cluster_id
            diag = {}
            gibbs_sweep(kernel, diagnostics=diag)
            assert (diag["joint_log_weight"], diag["flips"]) == reference_sweep(ref)
            assert kernel.assignments == ref.assignments
            assert cluster_table(kernel) == cluster_table(ref)
            births += ref.next_cluster_id - next_before
            deaths += len(before - set(ref.clusters))
        assert births > 0 and deaths > 0

    @pytest.mark.parametrize(
        "hyper", [Hyperparams(1.0, GammaParams(1.0, 1.0)), Hyperparams(0.3, GammaParams(2.5, 0.4))]
    )
    @pytest.mark.parametrize("boundary", range(3))
    def test_draw_on_a_cumulative_boundary(self, hyper, boundary):
        # A uniform whose target lands exactly on a cumulative weight must
        # draw the next slot, as the reference's ``target < acc`` does.
        # Random uniforms almost never land there, so script the first one;
        # a last-bit difference in any weight or sum moves the draw too.
        data, groups = [3, 3, 3, 8, 8, 20], [0, 0, 1, 1, 2, 2]
        probe = state_from_groups(data, groups, hyper, 0)
        detach_datum(probe, 0)
        raw, total = exp_weights(assignment_log_weights(3, probe))
        edge = list(accumulate(raw))[boundary]
        u = edge / total
        for _ in range(4):
            if u * total == edge:
                break
            u = math.nextafter(u, math.inf if u * total < edge else -math.inf)
        assert u * total == edge and scan(raw, u * total) == boundary + 1
        kernel = state_from_groups(data, groups, hyper, 0)
        ref = state_from_groups(data, groups, hyper, 0)
        kernel.rng, ref.rng = Uniforms([u, *[0.5] * 5]), Uniforms([u, *[0.5] * 5])
        diag = {}
        gibbs_sweep(kernel, diagnostics=diag)
        assert (diag["joint_log_weight"], diag["flips"]) == reference_sweep(ref)
        assert kernel.assignments == ref.assignments
        assert cluster_table(kernel) == cluster_table(ref)

    def test_empty_state_sweeps_nothing(self):
        state = MixtureState.empty(Hyperparams(1.0, GammaParams(1.0, 1.0)), 0)
        diag = {}
        assert gibbs_sweep(state, diagnostics=diag) is state
        assert diag == {"joint_log_weight": 0.0, "flips": 0}
        assert (state.clusters, state.assignments, state.rng.draws) == ({}, [], 0)

    def test_corrupt_state_is_refused(self):
        # The kernel looks each datum's cluster up among the live ones and
        # reads one assignment per datum; a corrupt state raises instead of
        # reading past the cluster table or the assignments.
        unit = Hyperparams(1.0, GammaParams(1.0, 1.0))
        state = state_from_groups([1, 1, 5], [0, 0, 1], unit, 0)
        state.assignments[2] = 7
        with pytest.raises(ValueError, match="names a cluster the state does not hold"):
            gibbs_sweep(state)
        assert state.assignments == [0, 0, 7]
        assert cluster_table(state) == [(0, 2, 2, 0), (1, 1, 5, 2)]
        del state.assignments[2]
        with pytest.raises(ValueError, match="one assignment per datum"):
            gibbs_sweep(state)


@pytest.fixture
def source(tmp_path):
    """A copy of the kernel source in a folder of its own."""
    path = tmp_path / "pkg" / "_sweep.c"
    path.parent.mkdir()
    path.write_bytes(dppmm._KERNEL_SOURCE.read_bytes())
    return path


def libraries(folder):
    return sorted(p.name for p in folder.iterdir()) if folder.exists() else []


def counting_compile(monkeypatch):
    calls = []
    real = dppmm._compile

    def compile_(source, target):
        calls.append(target)
        real(source, target)

    monkeypatch.setattr(dppmm, "_compile", compile_)
    return calls


class TestLoader:
    def test_second_load_reuses_the_build(self, source, monkeypatch):
        calls = counting_compile(monkeypatch)
        first = dppmm._load_kernel(source)
        assert len(calls) == 1 and calls[0].parent == source.parent / "__pycache__"
        assert first.aeburst_lgamma(3.0) == math.lgamma(3.0)

        def refuse(source, target):
            raise AssertionError("the compiler ran on a cache hit")

        monkeypatch.setattr(dppmm, "_compile", refuse)
        assert dppmm._load_kernel(source).aeburst_lgamma(3.5) == math.lgamma(3.5)
        assert libraries(source.parent / "__pycache__") == [calls[0].name]

    def test_new_process_reuses_the_build_without_subprocess(self, source):
        dppmm._load_kernel(source)
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from aeburst import dppmm\n"
            "def refuse(source, target):\n"
            "    raise AssertionError('the compiler ran on a cache hit')\n"
            "dppmm._compile = refuse\n"
            "lib = dppmm._load_kernel(Path(sys.argv[1]))\n"
            "print(lib.aeburst_lgamma(4.5), 'subprocess' in sys.modules,\n"
            "      'sysconfig' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run(
            [sys.executable, "-c", script, str(source)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert run.stdout == f"{math.lgamma(4.5)!r} False False\n"

    def test_other_source_bytes_are_rebuilt(self, source, monkeypatch):
        calls = counting_compile(monkeypatch)
        dppmm._load_kernel(source)
        source.write_bytes(source.read_bytes() + b"\n/* another version */\n")
        dppmm._load_kernel(source)
        assert len(calls) == 2 and calls[0] != calls[1]
        assert libraries(source.parent / "__pycache__") == sorted(p.name for p in calls)

    def test_failing_compiler_names_the_command_and_leaves_nothing(self, source):
        source.write_text("this is not C\n")
        with pytest.raises(RuntimeError) as caught:
            dppmm._load_kernel(source)
        message = str(caught.value)
        assert " ".join(dppmm._CC) in message and str(source) in message
        assert "error" in message
        assert libraries(source.parent / "__pycache__") == []

    def test_missing_compiler_names_the_command(self, source, monkeypatch):
        monkeypatch.setattr(dppmm, "_CC", ("no-such-compiler-aeburst", "-O2"))
        with pytest.raises(RuntimeError, match="no-such-compiler-aeburst -O2 -o "):
            dppmm._load_kernel(source)
        assert libraries(source.parent / "__pycache__") == []

    def test_unwritable_folder_builds_in_a_user_directory(self, source, tmp_path, monkeypatch):
        cache = source.parent / "__pycache__"
        real_access = os.access
        monkeypatch.setattr(
            dppmm.os, "access", lambda path, mode: Path(path) != cache and real_access(path, mode)
        )
        monkeypatch.setattr("tempfile.gettempdir", lambda: str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        lib = dppmm._load_kernel(source)
        assert lib.aeburst_lgamma(7.0) == math.lgamma(7.0)
        folder = tmp_path / "tmp" / f"aeburst-{os.getuid()}"
        assert len(libraries(folder)) == 1 and libraries(cache) == []
        assert folder.stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize("command", ["cluster", "monitor"])
def test_cli_reports_a_failed_build_in_one_line(command, source, tmp_path, monkeypatch, capsys):
    # Both commands need the kernel; without a compiler they name the
    # command that failed and exit 3, with no traceback and no output.
    wave, hits = tmp_path / "wave.f32", tmp_path / "hits.bin"
    assert cli([
        "synth", "--out", str(wave), "--annotations-out", str(tmp_path / "ann.json"),
        "--duration", "0.032768", "--sample-rate", "1e6", "--seed", "3",
    ]) == 0
    write_hits(hits, list(synthesize_hit_stream(HitStreamSpec(n_hits=20), rng_seed=3)))
    monkeypatch.setattr(dppmm, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(dppmm, "_loaded", None)
    monkeypatch.setattr(dppmm, "_CC", ("no-such-cc-aeburst", "-O2"))
    outputs = [str(tmp_path / name) for name in ("out-a", "out-b")]
    argv = {
        "cluster": [
            "cluster", "--input", str(wave), "--sample-rate", "1e6", "--window", "1000",
            "--events-out", outputs[0], "--state-out", outputs[1],
        ],
        "monitor": [
            "monitor", "--hits", str(hits), "--threshold-volts", "0.05",
            "--alarms-out", outputs[0], "--tracks-out", outputs[1],
        ],
    }[command]
    capsys.readouterr()
    assert cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: building the Gibbs sweep kernel failed: no-such-cc-aeburst -O2 ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not any(Path(path).exists() for path in outputs)


def test_kernel_compiles_as_strict_c99_without_warnings(tmp_path):
    # Every buffer comes from the caller: the data bound the cluster count,
    # so a variable-length array on the stack would be unbounded too.
    strict = ["-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Wvla", "-Werror"]
    assert "-ffp-contract=off" in dppmm._CC
    target, source = tmp_path / "strict.so", dppmm._KERNEL_SOURCE
    command = [*dppmm._CC, *strict, "-o", str(target), str(source), "-lm"]
    built = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    assert built.stderr == ""


def test_detect_and_import_build_nothing(tmp_path):
    # The kernel loads on the first sweep or weight call: importing the CLI
    # and running ``detect`` neither load it nor import what a build needs.
    wave = tmp_path / "wave.f32"
    assert cli([
        "synth", "--out", str(wave), "--annotations-out", str(tmp_path / "ann.json"),
        "--duration", "0.032768", "--sample-rate", "1e6", "--seed", "3",
    ]) == 0
    script = (
        "import sys\n"
        "from aeburst import dppmm\n"
        "from aeburst.cli import cli\n"
        "seen = ['subprocess' in sys.modules, 'sysconfig' in sys.modules]\n"
        "assert cli(sys.argv[1:]) == 0\n"
        "print(seen, 'subprocess' in sys.modules, 'sysconfig' in sys.modules, dppmm._loaded)\n"
    )
    argv = [
        "detect", "--input", str(wave), "--format", "raw_f32_le", "--sample-rate", "1e6",
        "--window", "4096", "--overlap", "0", "--train-windows", "0:2",
        "--nll-out", str(tmp_path / "trace.csv"), "--events-out", str(tmp_path / "flags.json"),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout == "[False, False] False False None\n"
