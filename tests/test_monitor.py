"""Entropy gate, online observation, decimation, tracks, and alarms."""

import copy
import math
from collections.abc import Sequence
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeburst import dppmm
from aeburst.config import PipelineConfig
from aeburst.distributions import GammaParams
from aeburst.dppmm import Hyperparams, MixtureState, audit, state_to_json_dict
from aeburst.monitor import (
    StreamMonitor,
    decimate,
    entropy,
    information_efficiency,
    observe,
    update_tracks,
)
from sampler_oracle import (
    assignment_log_weights,
    draw_assignment,
    normalize_log_weights,
    reference_sweep,
)

UNIT = Hyperparams(alpha=1.0, base=GammaParams(1.0, 1.0))
CONFIG = PipelineConfig()


def two_rate_counts(n, seed):
    """``n`` counts, half Poisson(2) and half Poisson(40), shuffled."""
    rng = np.random.default_rng(seed)
    counts = np.concatenate([rng.poisson(rate, n // 2) for rate in (2.0, 40.0)])
    return counts[rng.permutation(len(counts))].tolist()


def snapshot(state):
    """Everything a refused call must leave as it was: the data, the state
    document (draw counts included) and the kept rows with their weights."""
    rows = {key: (terms, dict(weights)) for key, (terms, weights) in state._rows.items()}
    return list(state.data), state_to_json_dict(state), rows


def homogeneous_state(value=8, size=400, seed=0):
    state = MixtureState.empty(UNIT, seed)
    cluster = None
    for _ in range(size):
        cluster = state.append_datum(value, cluster)
    return state


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_four_outcomes(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_direct_evaluation(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(
            1.5 * math.log(2), abs=1e-12
        )

    def test_unnormalised_input_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.25])
        with pytest.raises(ValueError):
            entropy([0.7, 0.4])


class TestInformationEfficiency:
    def test_one_hot_is_zero(self):
        for k in (1, 3, 9):
            probs = [1.0] + [0.0] * k
            assert information_efficiency(probs, k) == 0.0

    def test_uniform_is_one(self):
        for k in (1, 2, 7):
            probs = [1.0 / (k + 1)] * (k + 1)
            assert information_efficiency(probs, k) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        eta = information_efficiency([0.5, 0.25, 0.25], 2)
        assert eta == pytest.approx(1.5 * math.log(2) / math.log(3), abs=1e-9)

    def test_no_clusters_rejected(self):
        with pytest.raises(ValueError):
            information_efficiency([1.0], 0)

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            information_efficiency([0.5, 0.5], 2)

    def test_clamped_to_unit_interval(self):
        probs = [1 / 3, 1 / 3, 1 / 3]
        assert 0.0 <= information_efficiency(probs, 2) <= 1.0

    def test_zero_only_for_degenerate_posteriors(self):
        # Any spread-out posterior has positive efficiency, strictly below
        # one unless uniform.
        eta = information_efficiency([0.9, 0.05, 0.05], 2)
        assert 0.0 < eta < 1.0


class TestObserve:
    def test_first_observation_founds_cluster(self):
        state = MixtureState.empty(UNIT, 0)
        outcome = observe(5, state)
        assert state.n_clusters == 1
        assert outcome.cluster_id in state.clusters
        assert outcome.probabilities == {None: 1.0}
        assert audit(state)

    def test_typical_count_takes_greedy_path(self):
        greedy = 0
        for seed in range(50):
            state = homogeneous_state(seed=seed)
            outcome = observe(8, state)
            if not outcome.resampled:
                greedy += 1
        assert greedy >= 49  # eta is tiny for an unambiguous arrival

    def test_outlier_opens_cluster(self):
        state = homogeneous_state()
        before = state.n_clusters
        outcome = observe(500, state)
        assert state.n_clusters == before + 1
        assert outcome.probabilities[None] > 0.99
        assert audit(state)

    def test_eta_forced_zero_is_pure_accretion(self):
        rng = np.random.default_rng(6)
        state = homogeneous_state(size=100)
        frozen = list(state.assignments)
        for x in rng.poisson(8, 200):
            outcome = observe(int(x), state, eta_override=0.0)
            assert not outcome.resampled
        assert state.assignments[: len(frozen)] == frozen
        assert audit(state)

    def test_eta_forced_one_always_resamples(self):
        state = homogeneous_state(size=30)
        outcome = observe(8, state, eta_override=1.0)
        assert outcome.resampled

    def test_gate_draw_consumed_on_both_paths(self):
        state_a = homogeneous_state(size=50, seed=3)
        observe(8, state_a, eta_override=0.0)
        assert state_a.rng.draws == 1  # gate only
        state_b = homogeneous_state(size=50, seed=3)
        observe(8, state_b, eta_override=1.0)
        # Gate + assignment draw + one sweep over 51 data.
        assert state_b.rng.draws == 1 + 1 + 51

    def test_resample_path_matches_reference(self):
        # The resampling path draws the new count's cluster as the oracle's
        # running-sum scan would, then sweeps as the step-by-step reference.
        counts = np.random.default_rng(12).poisson(6, 60).tolist() + [40, 3, 90, 41, 0]
        state, twin = MixtureState.empty(UNIT, 12), MixtureState.empty(UNIT, 12)
        for x in counts:
            observe(x, state, eta_override=1.0)
            if not twin.clusters:
                twin.append_datum(x, None)
                continue
            twin.rng.random()  # the gate
            choice = draw_assignment(assignment_log_weights(x, twin), twin.rng)[0]
            twin.append_datum(x, choice)
            reference_sweep(twin)
        assert state.assignments == twin.assignments
        assert state.next_cluster_id == twin.next_cluster_id > 1
        assert state.rng.draws == twin.rng.draws

    @pytest.mark.parametrize("size", [0, 40])
    def test_negative_count_refused_before_anything_runs(self, size):
        state = homogeneous_state(size=size, seed=4)
        if size:
            observe(8, state, eta_override=1.0)  # keeps rows on the state
            assert state._rows
        before = snapshot(state)
        with pytest.raises(ValueError, match="^counts must be non-negative, got -1$"):
            observe(-1, state)
        assert snapshot(state) == before

    def test_greedy_call_computes_at_most_one_row(self, monkeypatch):
        # A greedy call reads the rows the last call kept: only the cluster
        # the last count joined needs new terms, and the rows stay one per
        # live cluster plus NEW.
        computed = []
        real = dppmm.predictive_terms

        def recording(prior, n, s, log_c):
            computed.append((n, s))
            return real(prior, n, s, log_c)

        monkeypatch.setattr(dppmm, "predictive_terms", recording)
        state = MixtureState.empty(UNIT, 3)
        counts = two_rate_counts(600, 3)
        for x in counts[:100]:
            observe(x, state, eta_override=1.0)
        for x in counts[100:]:
            start = len(computed)
            observe(x, state, eta_override=0.0)
            assert len(computed) - start <= 1
            assert len(state._rows) <= state.n_clusters + 1

    @pytest.mark.parametrize("eta_override", [None, 0.0, 1.0])
    def test_probabilities_and_eta_are_the_oracles(self, eta_override):
        # The gate reads the kept rows; the oracle computes every weight
        # afresh before the call, and the two agree bit for bit, in key order.
        state = MixtureState.empty(UNIT, 9)
        paths = set()
        for x in two_rate_counts(200, 9):
            k = state.n_clusters
            expected = normalize_log_weights(assignment_log_weights(x, state))
            outcome = observe(x, state, eta_override=eta_override)
            if k:
                assert list(outcome.probabilities.items()) == expected
                eta = information_efficiency([p for _, p in expected], k)
                assert outcome.eta == (eta if eta_override is None else eta_override)
                paths.add(outcome.resampled)
        assert paths == ({False, True} if eta_override is None else {eta_override == 1.0})


class CountingSequence(Sequence):
    """A sequence that records which positions were indexed."""

    def __init__(self, length):
        self.length = length
        self.indexed = []

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        i = range(self.length)[index]
        self.indexed.append(i)
        return 3 * i + 1


class TestDecimate:
    @pytest.mark.parametrize("length", [0, 1, 2, 9, 10, 57, 1000])
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.35, 0.1, 0.003])
    def test_sequence_indexed_only_where_kept(self, length, ratio):
        stream = CountingSequence(length)
        kept = list(decimate(stream, ratio))
        expected = [
            i
            for i in range(length)
            if math.floor(i * ratio) > math.floor((i - 1) * ratio)
        ]
        assert stream.indexed == expected
        assert kept == list(decimate(iter(CountingSequence(length)), ratio))

    def test_identity_ratio(self):
        items = list(range(57))
        assert list(decimate(items, 1.0)) == items

    def test_ten_percent_is_even(self):
        kept = list(decimate(range(1000), 0.1))
        assert len(kept) == 100
        assert kept == list(range(0, 1000, 10))

    def test_matches_recorded_hit_rate_arithmetic(self):
        # 755,193 hits over 200,000 s decimated to 10% leaves roughly one
        # hit every 2.6 seconds.
        n_hits, span = 755_193, 200_000.0
        kept = math.floor(n_hits * 0.1)
        seconds_per_kept = span / kept
        assert seconds_per_kept == pytest.approx(2.648, abs=0.01)

    @given(
        st.integers(min_value=0, max_value=2000),
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_output_count_floor_or_ceil(self, length, ratio):
        kept = list(decimate(range(length), ratio))
        assert len(kept) in {math.floor(length * ratio), math.ceil(length * ratio)}

    def test_order_preserved(self):
        kept = list(decimate("abcdefghij", 0.35))
        assert kept == sorted(kept, key="abcdefghij".index)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            list(decimate([1], 0.0))
        with pytest.raises(ValueError):
            list(decimate([1], 1.5))


class TestUpdateTracks:
    def test_steady_background_never_alarms(self):
        tracks = {}
        alarms = []
        for t in range(10_000):
            alarms += update_tracks(tracks, 0, t, 8, 1.0, CONFIG)
        assert alarms == []
        track = tracks[0]
        assert len(track.times) == 10_000
        assert track.cumulative_counts[-1] == 80_000
        # Only the trailing ``alarm_lag`` increments are kept for the median.
        assert len(track.recent_energy_increments) == CONFIG.alarm_lag

    @staticmethod
    def step_alarms(config, step=50.0):
        tracks = {}
        alarms = []
        for t in range(200):
            energy = step if t == 150 else 1.0
            alarms += update_tracks(tracks, 0, t, 8, energy, config)
        return alarms

    def test_injected_energy_step_alarms_once(self):
        alarms = self.step_alarms(CONFIG)
        assert len(alarms) == 1
        assert alarms[0].time == 150
        assert alarms[0].kind == "growth_step"
        assert alarms[0].magnitude == pytest.approx(50.0)

    def test_step_factor_is_read_from_the_config(self):
        config = PipelineConfig(step_factor=60.0)
        assert self.step_alarms(config) == []
        assert [a.time for a in self.step_alarms(config, step=70.0)] == [150]

    def test_min_history_is_read_from_the_config(self):
        # 150 prior increments are one short of arming the test.
        config = PipelineConfig(alarm_min_history=151, alarm_lag=151)
        assert self.step_alarms(config, step=1000.0) == []

    def test_series_monotone_non_decreasing(self):
        rng = np.random.default_rng(2)
        tracks = {}
        for t in range(500):
            update_tracks(
                tracks,
                int(rng.integers(0, 3)),
                t,
                int(rng.integers(0, 20)),
                float(rng.random()),
                CONFIG,
            )
        for track in tracks.values():
            for series in (track.cumulative_counts, track.cumulative_energy):
                assert all(b >= a for a, b in zip(series, series[1:]))
                assert len(series) == len(track.times)

    @pytest.mark.parametrize("energy", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_energy_rejected(self, energy):
        tracks = {}
        with pytest.raises(ValueError, match="^energy must be finite and non-negative, got"):
            update_tracks(tracks, 0, 0, 8, energy, CONFIG)
        assert tracks == {}

    def test_young_cluster_cannot_alarm(self):
        tracks = {}
        alarms = update_tracks(tracks, 5, 0, 1, 100.0, CONFIG)
        assert alarms == []  # no baseline yet

    @pytest.mark.parametrize("min_history", [0, -1])
    def test_min_history_below_one_rejected(self, min_history):
        # The tracks and the monitor read the config, which refuses the value.
        with pytest.raises(ValueError, match="config alarm_min_history must be >= 1"):
            PipelineConfig(alarm_min_history=min_history)

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            ("alarm_lag", 5, ">= alarm_min_history 10"),
            ("step_factor", 0.0, "finite and > 0"),
            ("step_factor", -1.0, "finite and > 0"),
            ("step_factor", math.nan, "finite and > 0"),
            ("step_factor", math.inf, "finite and > 0"),
            ("survival_horizon", -3, ">= 0"),
            ("min_survivors", 0, ">= 1"),
            ("alarm_warmup", -5, ">= 0"),
        ],
    )
    def test_out_of_range_monitor_settings_rejected(self, name, value, rule):
        with pytest.raises(ValueError, match=f"config {name} must be {rule}, got"):
            PipelineConfig(**{name: value})


class TestStreamMonitor:
    def test_births_ascend_by_id(self, monkeypatch):
        # Every update resamples and every birth confirms at once.  The
        # sweep at the second count mints two clusters that both survive,
        # as does the sixth's; their alarms come lowest id first.
        monkeypatch.setattr("aeburst.monitor.observe", partial(observe, eta_override=1.0))
        config = replace(CONFIG, alarm_warmup=0, survival_horizon=0, min_survivors=1)
        monitor = StreamMonitor(MixtureState.empty(UNIT, 5), config)
        births = [
            [a.cluster_id for a in monitor.process(x, 1.0) if a.kind == "new_cluster"]
            for x in (2, 49, 37, 1, 44, 53)
        ]
        assert births == [[0], [2, 3], [4], [], [6], [7, 8]]

    def test_transient_cluster_never_confirms(self):
        state = homogeneous_state(size=60, seed=1)
        monitor = StreamMonitor(state, replace(CONFIG, survival_horizon=10, alarm_warmup=0))
        # One outlier founds a cluster that then starves.
        confirmed = monitor.process(400, 1.0)
        for _ in range(30):
            confirmed += monitor.process(8, 1.0)
        new_cluster_alarms = [a for a in confirmed if a.kind == "new_cluster"]
        assert new_cluster_alarms == []

    def test_sustained_cluster_confirms_once(self):
        state = homogeneous_state(size=60, seed=2)
        monitor = StreamMonitor(state, replace(CONFIG, survival_horizon=10, alarm_warmup=0))
        confirmed = []
        for _ in range(25):
            confirmed += monitor.process(400, 1.0)
        new_cluster_alarms = [a for a in confirmed if a.kind == "new_cluster"]
        assert len(new_cluster_alarms) == 1

    @pytest.mark.parametrize(
        "horizon, survivors, expected",
        [(10, 10, [(9, 10.0)]), (15, 2, [(14, 15.0)]), (10, 11, [])],
    )
    def test_confirmation_reads_the_config(self, horizon, survivors, expected):
        # The cluster founded by the first 400 gains one member per hit: it
        # settles ``survival_horizon`` hits later and alarms only if it then
        # holds ``min_survivors`` members.
        config = replace(
            CONFIG, survival_horizon=horizon, min_survivors=survivors, alarm_warmup=0
        )
        monitor = StreamMonitor(homogeneous_state(size=60, seed=2), config)
        confirmed = []
        for _ in range(25):
            confirmed += monitor.process(400, 1.0)
        assert [(a.time, a.magnitude) for a in confirmed] == expected

    @pytest.mark.parametrize(
        "count, energy, message",
        [
            (3, -1.0, "energy must be"),
            (3, math.nan, "energy must be"),
            (3, math.inf, "energy must be"),
            (-1, 1.0, "counts must be"),
        ],
    )
    def test_bad_hit_refused_before_anything_changes(self, count, energy, message):
        monitor = StreamMonitor(MixtureState.empty(UNIT, 6), replace(CONFIG, alarm_warmup=0))
        for x in two_rate_counts(60, 6):
            monitor.process(x, 1.0)
        before = monitor.n_observed, snapshot(monitor.state), copy.deepcopy(monitor.tracks)
        with pytest.raises(ValueError, match=f"^{message}"):
            monitor.process(count, energy)
        assert (monitor.n_observed, snapshot(monitor.state), monitor.tracks) == before

    def test_warmup_clusters_never_alarm(self):
        # Clusters born during the learning phase describe normal
        # conditions; only later arrivals may raise confirmed alarms.
        state = MixtureState.empty(UNIT, 5)
        monitor = StreamMonitor(state, replace(CONFIG, survival_horizon=5, alarm_warmup=100))
        confirmed = []
        for i in range(90):
            confirmed += monitor.process(8 if i % 2 else 60, 1.0)
        assert confirmed == []

    def test_mid_stream_snapshot_resumes_exactly(self):
        # Serialize after 150 observations, rebuild, and feed the same
        # remaining counts: assignments and draw counters stay identical.
        from aeburst.dppmm import state_from_json_dict, state_to_json_dict

        rng = np.random.default_rng(21)
        counts = [int(x) for x in rng.poisson(8, 220)]
        counts[180:] = [60] * 40
        state = MixtureState.empty(UNIT, 13)
        for x in counts[:150]:
            observe(x, state)
        snapshot = state_to_json_dict(state)
        resumed = state_from_json_dict(snapshot, counts[:150])
        for x in counts[150:]:
            observe(x, state)
            observe(x, resumed)
        assert resumed.assignments == state.assignments
        assert resumed.rng.draws == state.rng.draws
        assert audit(resumed)

    def test_alarm_stream_deterministic(self):
        def run():
            rng = np.random.default_rng(44)
            state = MixtureState.empty(UNIT, 7)
            monitor = StreamMonitor(state, CONFIG)
            collected = []
            for i in range(300):
                x = 60 if (i > 200 and i % 3 == 0) else int(rng.poisson(8))
                collected += monitor.process(x, float(1.0 + 0.01 * (i % 5)))
            return collected

        assert run() == run()
