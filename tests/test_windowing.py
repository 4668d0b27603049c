"""Windowing, thresholding, and crossing counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeburst.synth import BurstSpec, SynthSpec, synthesize
from aeburst.windowing import (
    ThresholdPolicy,
    Waveform,
    WindowSpec,
    extract_counts,
    resolve_threshold,
    runs,
)
from windowing_oracle import count_crossings, entries


def brute_force_crossings(segment, threshold, rectify=True):
    """Reference edge scan, written independently of the library path."""
    v = [abs(s) for s in segment] if rectify else list(segment)
    total = 1 if v and v[0] > threshold else 0
    for i in range(1, len(v)):
        if v[i] > threshold and v[i - 1] <= threshold:
            total += 1
    return total


class TestResolveThreshold:
    def test_constant_signal_percentile_is_zero(self):
        w = Waveform(np.zeros(100), 1000.0)
        assert resolve_threshold(w, ThresholdPolicy.percentile(99)) == 0.0

    def test_order_statistic_interpolation(self):
        # Median of 1..100 by linear interpolation between closest ranks.
        w = Waveform(np.arange(1.0, 101.0), 1.0)
        policy = ThresholdPolicy("percentile", 50.0, rectify=False)
        assert resolve_threshold(w, policy) == pytest.approx(50.5)

    def test_fixed_passthrough(self):
        w = Waveform(np.random.default_rng(0).normal(size=64), 10.0)
        assert resolve_threshold(w, ThresholdPolicy.fixed(0.2)) == 0.2

    def test_rectify_uses_magnitudes(self):
        w = Waveform(np.array([-10.0, 0.0, 1.0, 2.0]), 1.0)
        rectified = resolve_threshold(w, ThresholdPolicy("percentile", 75.0, True))
        raw = resolve_threshold(w, ThresholdPolicy("percentile", 75.0, False))
        assert rectified > raw

    @pytest.mark.parametrize("rectify", [True, False])
    def test_leaves_samples_unchanged(self, rectify):
        samples = np.random.default_rng(2).normal(size=1001)
        w = Waveform(samples.copy(), 1.0)
        threshold = resolve_threshold(w, ThresholdPolicy.percentile(90.0, rectify))
        assert np.array_equal(w.samples, samples)
        values = np.abs(samples) if rectify else samples
        assert threshold == float(np.percentile(values, 90.0))

    def test_percentile_bounds_enforced(self):
        with pytest.raises(ValueError):
            ThresholdPolicy.percentile(0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy.percentile(100.0)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 1.0)


class TestCountCrossings:
    def test_all_zero_segment(self):
        assert count_crossings(np.zeros(50), 0.1) == 0

    def test_two_rising_edges(self):
        assert count_crossings(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), 0.5) == 2

    def test_sine_period_rectified(self):
        t = np.linspace(0.0, 1.0, 1000, endpoint=False)
        segment = np.sin(2 * math.pi * t)
        expected = brute_force_crossings(segment, 0.5, rectify=True)
        assert expected == 2
        assert count_crossings(segment, 0.5, rectify=True) == 2

    def test_starts_above_counts_once(self):
        assert count_crossings(np.array([1.0, 1.0, 0.0]), 0.5) == 1

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=200),
        st.floats(-1.5, 1.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, values, threshold):
        segment = np.array(values)
        assert count_crossings(segment, threshold) == brute_force_crossings(
            values, threshold
        )

    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_rising_edge_bound(self, values):
        # Rising edges cannot exceed half the samples plus one.
        count = count_crossings(np.array(values), 0.0)
        assert count <= math.ceil(len(values) / 2)


class TestExtractCounts:
    def test_zero_signal_partition(self):
        w = Waveform(np.zeros(10_000), 1e6)
        wc = extract_counts(w, ThresholdPolicy.fixed(0.1), WindowSpec(1000, 0.0))
        assert len(wc) == 10
        assert all(c == 0 for c in wc.counts)
        assert list(wc.starts) == list(range(0, 10_000, 1000))

    def test_overlap_produces_73_windows(self):
        # floor((10000 - 1000) / 125) + 1 with step = round(1000 * 0.125).
        w = Waveform(np.zeros(10_000), 1e6)
        spec = WindowSpec(1000, 0.875)
        assert spec.step == 125
        wc = extract_counts(w, ThresholdPolicy.fixed(0.1), spec)
        assert len(wc) == 73

    def test_burst_ground_truth_localisation(self):
        spec = SynthSpec(
            duration=0.065536,
            sample_rate=1e6,
            noise_sigma=0.01,
            bursts=(BurstSpec(0.020, 0.2, 4096 / (1e6 * math.log(20)), 1e5, 0),),
        )
        waveform, annotations = synthesize(spec, rng_seed=3)
        burst = annotations[0]
        assert burst.start_index == 20_000
        wc = extract_counts(
            waveform, ThresholdPolicy.percentile(99), WindowSpec(4096, 0.0)
        )
        for start, count in entries(wc):
            intersects = start < burst.end_index and start + 4096 > burst.start_index
            if intersects:
                assert count > 0
            else:
                assert count <= 1  # stray noise crossings only

    def test_window_longer_than_signal_rejected(self):
        w = Waveform(np.zeros(100), 1.0)
        with pytest.raises(ValueError):
            extract_counts(w, ThresholdPolicy.fixed(0.1), WindowSpec(101, 0.0))

    def test_trailing_partial_window_dropped(self):
        w = Waveform(np.zeros(1050), 1.0)
        wc = extract_counts(w, ThresholdPolicy.fixed(0.1), WindowSpec(1000, 0.0))
        assert len(wc) == 1

    def test_counts_match_slice_counts(self):
        rng = np.random.default_rng(11)
        w = Waveform(rng.normal(size=5000), 1e6)
        policy = ThresholdPolicy.percentile(95)
        spec = WindowSpec(512, 0.5)
        wc = extract_counts(w, policy, spec)
        for start, count in entries(wc):
            assert count == count_crossings(
                w.samples[start : start + 512], wc.threshold
            )

    @pytest.mark.parametrize("rectify", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_slice_counts_at_random(self, rectify, seed):
        rng = np.random.default_rng(seed)
        w = Waveform(rng.normal(size=3000), 1e6)
        policy = ThresholdPolicy.percentile(float(rng.uniform(50.0, 99.0)), rectify)
        spec = WindowSpec(int(rng.integers(8, 300)), float(rng.choice([0.0, 0.5, 0.875])))
        wc = extract_counts(w, policy, spec)
        opens_above = 0
        for start, count in entries(wc):
            segment = w.samples[start : start + spec.length_n]
            assert count == count_crossings(segment, wc.threshold, rectify)
            opens_above += (abs(segment[0]) if rectify else segment[0]) > wc.threshold
        assert opens_above > 0

    def test_scale_invariance_with_percentile_threshold(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=4096)
        policy = ThresholdPolicy.percentile(97)
        spec = WindowSpec(256, 0.0)
        base = extract_counts(Waveform(samples, 1.0), policy, spec)
        scaled = extract_counts(Waveform(samples * 4.0, 1.0), policy, spec)
        assert list(base.counts) == list(scaled.counts)

    def test_overlapping_agrees_with_disjoint_on_shared_positions(self):
        rng = np.random.default_rng(9)
        w = Waveform(rng.normal(size=4096), 1.0)
        policy = ThresholdPolicy.fixed(1.5)
        disjoint = extract_counts(w, policy, WindowSpec(256, 0.0))
        overlapped = extract_counts(w, policy, WindowSpec(256, 0.875))
        by_start = dict(entries(overlapped))
        for start, count in entries(disjoint):
            assert by_start[start] == count

    @pytest.mark.parametrize("length", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValueError, match="length_n must be a positive integer"):
            WindowSpec(length)

    def test_step_rounds_to_zero_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(2, 0.9)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    def test_window_count_agrees_with_starts(self, overlap):
        # Shorter than one window, both raise; otherwise both place the
        # same windows, every one of them inside the signal.
        spec = WindowSpec(10, overlap)
        for signal_len in range(1, 41):
            try:
                starts = spec.window_starts(signal_len)
            except ValueError:
                with pytest.raises(ValueError):
                    spec.n_windows(signal_len)
                continue
            assert spec.n_windows(signal_len) == len(starts)
            assert starts.tolist() == list(range(0, signal_len - 9, spec.step))

    def test_integral_float_length_counts_like_int(self):
        rng = np.random.default_rng(5)
        w = Waveform(rng.normal(size=10_000), 1e6)
        policy = ThresholdPolicy.percentile(95)
        as_float = extract_counts(w, policy, WindowSpec(1000.0, 0.875))
        as_int = extract_counts(w, policy, WindowSpec(1000, 0.875))
        assert type(as_float.spec.length_n) is int
        assert as_float.starts.tolist() == as_int.starts.tolist()
        assert as_float.counts.tolist() == as_int.counts.tolist()


def loop_runs(mask):
    """Reference run scan: (start, exclusive end) of each run of True."""
    found, start = [], None
    for i, value in enumerate(mask):
        if value and start is None:
            start = i
        elif not value and start is not None:
            found.append((start, i))
            start = None
    if start is not None:
        found.append((start, len(mask)))
    return found


class TestRuns:
    @pytest.mark.parametrize(
        "mask",
        [
            [], [True], [False], [True] * 7, [False] * 7,
            [True, False, True], [False, True, False],
        ],
    )
    def test_edge_cases_match_loop(self, mask):
        starts, ends = runs(np.array(mask, dtype=bool))
        assert list(zip(starts.tolist(), ends.tolist())) == loop_runs(mask)

    def test_random_masks_match_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            mask = rng.random(int(rng.integers(0, 60))) < rng.random()
            starts, ends = runs(mask)
            assert list(zip(starts.tolist(), ends.tolist())) == loop_runs(mask.tolist())
