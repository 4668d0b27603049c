"""Entropy gate, online observation, decimation, tracks, and alarms."""

import math
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeburst.distributions import GammaParams
from aeburst.dppmm import Hyperparams, MixtureState, audit
from aeburst.monitor import (
    StreamMonitor,
    decimate,
    entropy,
    information_efficiency,
    observe,
    update_tracks,
)

UNIT = Hyperparams(alpha=1.0, base=GammaParams(1.0, 1.0))


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
        assert [a.kind for a in outcome.alarms] == ["new_cluster"]
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
        assert any(a.kind == "new_cluster" for a in outcome.alarms)
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
            alarms += update_tracks(tracks, 0, t, count=8, energy=1.0)
        assert alarms == []
        track = tracks[0]
        assert track.cumulative_events[-1] == 10_000
        assert track.cumulative_counts[-1] == 80_000

    def test_injected_energy_step_alarms_once(self):
        tracks = {}
        alarms = []
        for t in range(200):
            energy = 50.0 if t == 150 else 1.0
            alarms += update_tracks(tracks, 0, t, count=8, energy=energy)
        assert len(alarms) == 1
        assert alarms[0].time == 150
        assert alarms[0].kind == "growth_step"
        assert alarms[0].magnitude == pytest.approx(50.0)

    def test_series_monotone_non_decreasing(self):
        rng = np.random.default_rng(2)
        tracks = {}
        for t in range(500):
            update_tracks(
                tracks,
                int(rng.integers(0, 3)),
                t,
                count=int(rng.integers(0, 20)),
                energy=float(rng.random()),
            )
        for track in tracks.values():
            for series in (
                track.cumulative_events,
                track.cumulative_counts,
                track.cumulative_energy,
            ):
                assert all(b >= a for a, b in zip(series, series[1:]))
                assert len(series) == len(track.times)

    def test_young_cluster_cannot_alarm(self):
        tracks = {}
        alarms = update_tracks(tracks, 5, 0, count=1, energy=100.0)
        assert alarms == []  # no baseline yet


class TestStreamMonitor:
    def test_transient_cluster_never_confirms(self):
        state = homogeneous_state(size=60, seed=1)
        monitor = StreamMonitor(state, survival_horizon=10, min_survivors=2, warmup=0)
        # One outlier founds a cluster that then starves.
        confirmed = monitor.process(400, 1.0)
        for _ in range(30):
            confirmed += monitor.process(8, 1.0)
        new_cluster_alarms = [a for a in confirmed if a.kind == "new_cluster"]
        assert new_cluster_alarms == []

    def test_sustained_cluster_confirms_once(self):
        state = homogeneous_state(size=60, seed=2)
        monitor = StreamMonitor(state, survival_horizon=10, min_survivors=2, warmup=0)
        confirmed = []
        for _ in range(25):
            confirmed += monitor.process(400, 1.0)
        new_cluster_alarms = [a for a in confirmed if a.kind == "new_cluster"]
        assert len(new_cluster_alarms) == 1

    def test_warmup_clusters_never_alarm(self):
        # Clusters born during the learning phase describe normal
        # conditions; only later arrivals may raise confirmed alarms.
        state = MixtureState.empty(UNIT, 5)
        monitor = StreamMonitor(state, survival_horizon=5, warmup=100)
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
            monitor = StreamMonitor(state)
            collected = []
            for i in range(300):
                x = 60 if (i > 200 and i % 3 == 0) else int(rng.poisson(8))
                collected += monitor.process(x, float(1.0 + 0.01 * (i % 5)))
            return collected

        assert run() == run()
