"""Overlap averaging, event segmentation, and feature extraction."""

import math

import numpy as np
import pytest

from aeburst.config import PipelineConfig
from aeburst.distributions import GammaParams
from aeburst.dppmm import Hyperparams, MixtureState, fit
from aeburst.segmentation import (
    EventRecord,
    SampleProbabilityField,
    average_probabilities,
    build_event_records,
    extract_features,
    noise_cluster_id,
    segment_events,
)
from aeburst.synth import BurstSpec, SynthSpec, synthesize
from aeburst.windowing import Waveform, WindowSpec, extract_counts
from sampler_oracle import dense, id_order, reference_fit, reference_table
from windowing_oracle import count_crossings, per_sample, probability_of


def field_from_event_prob(event_prob, noise=0, event=1):
    """Two-cluster field with a prescribed per-sample event probability.

    Every sample is its own cell, so cell values are sample values.
    """
    event_prob = np.asarray(event_prob, dtype=float)
    return SampleProbabilityField(
        edges=np.arange(event_prob.size + 1),
        coverage=np.ones(event_prob.size, dtype=np.int64),
        probabilities={noise: 1.0 - event_prob, event: event_prob},
    )


def field_of(window_probs, spec, signal_len):
    """``average_probabilities`` of per-window dicts, laid out by ``dense``."""
    probs, columns = dense(window_probs)
    return average_probabilities(probs, spec, signal_len, columns)


class TestAverageProbabilities:
    def test_no_overlap_passes_vectors_through(self):
        spec = WindowSpec(10, 0.0)
        vectors = [{0: 1.0}, {1: 1.0}, {0: 0.25, 1: 0.75}]
        field = field_of(vectors, spec, 30)
        assert np.all(per_sample(field, field.coverage) == 1)
        np.testing.assert_allclose(probability_of(field, 0)[0:10], 1.0)
        np.testing.assert_allclose(probability_of(field, 1)[10:20], 1.0)
        np.testing.assert_allclose(probability_of(field, 1)[20:30], 0.75)

    def test_two_window_mean(self):
        spec = WindowSpec(10, 0.5)
        vectors = [{0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}]
        field = field_of(vectors, spec, 15)
        # Samples 5..9 are covered by both windows.
        np.testing.assert_allclose(probability_of(field, 0)[5:10], 0.5)
        np.testing.assert_allclose(probability_of(field, 1)[5:10], 0.5)
        coverage = per_sample(field, field.coverage)
        assert list(coverage[:5]) == [1] * 5
        assert list(coverage[5:10]) == [2] * 5

    def test_normalisation_at_every_covered_sample(self):
        rng = np.random.default_rng(3)
        spec = WindowSpec(16, 0.875)
        signal_len = 160
        n_windows = spec.n_windows(signal_len)
        vectors = []
        for _ in range(n_windows):
            raw = rng.random(3)
            raw /= raw.sum()
            vectors.append({0: raw[0], 1: raw[1], None: raw[2]})
        field = field_of(vectors, spec, signal_len)
        total = sum(probability_of(field, key) for key in field.probabilities)
        covered = per_sample(field, field.coverage) > 0
        np.testing.assert_allclose(total[covered], 1.0, atol=1e-9)
        assert np.all(total[~covered] == 0.0)

    def test_uncovered_tail_has_empty_vectors(self):
        spec = WindowSpec(10, 0.0)
        field = field_of([{0: 1.0}], spec, 15)
        assert list(per_sample(field, field.coverage)[10:]) == [0] * 5
        assert np.all(probability_of(field, 0)[10:] == 0.0)

    def test_window_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            field_of([{0: 1.0}], WindowSpec(10, 0.0), 30)

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_probabilities(np.ones((3, 1)), WindowSpec(10, 0.0), 30, [0, 1])


def reference_average(window_probs, spec, signal_len):
    """The per-sample field: one float array over the recording per key,
    the keys in ``id_order``."""
    n = spec.length_n
    step = spec.step
    coverage = np.zeros(signal_len, dtype=np.int64)
    keys = id_order(key for probs in window_probs for key in probs)
    sums = {key: np.zeros(signal_len) for key in keys}
    for i, probs in enumerate(window_probs):
        start = i * step
        coverage[start : start + n] += 1
        for key, p in probs.items():
            sums[key][start : start + n] += p
    covered = coverage > 0
    total = np.zeros(signal_len)
    for acc in sums.values():
        total += acc
    safe_total = np.where(covered & (total > 0), total, 1.0)
    probabilities = {
        key: np.where(covered, acc / safe_total, 0.0) for key, acc in sums.items()
    }
    return probabilities, coverage


def window_loop_average(window_probs, spec, signal_len):
    """The cell field built by a loop over windows, each window's vector
    added to the cells it covers in window order."""
    starts = spec.window_starts(signal_len)
    ends = starts + spec.length_n
    edges = np.unique(np.concatenate(([0, signal_len], starts, ends)))
    rows, columns = dense(window_probs)
    coverage = np.zeros(edges.size - 1, dtype=np.int64)
    sums = np.zeros((len(columns), edges.size - 1))
    for row, first, end in zip(
        rows, np.searchsorted(edges, starts), np.searchsorted(edges, ends)
    ):
        coverage[first:end] += 1
        sums[:, first:end] += row[:, None]
    covered = coverage > 0
    total = np.zeros(edges.size - 1)
    for acc in sums:
        total += acc
    safe_total = np.where(covered & (total > 0), total, 1.0)
    averaged = np.where(covered, sums / safe_total, 0.0)
    return edges, coverage, dict(zip(columns, averaged))


def reference_segment(probabilities, coverage, noise_cluster, min_probability, min_length):
    """Events found sample by sample on a per-sample field."""
    event_prob = 1.0 - probabilities[noise_cluster]
    active = (event_prob >= min_probability) & (coverage > 0)
    events = []
    boundaries = np.flatnonzero(np.diff(active.astype(np.int8)))
    starts = [0] if active[0] else []
    starts += [int(i) + 1 for i in boundaries if not active[i]]
    ends = [int(i) + 1 for i in boundaries if active[i]]
    if active[-1]:
        ends.append(active.size)
    for start, end in zip(starts, ends):
        if end - start < min_length:
            continue
        label = None
        best = -1.0
        for key, probs in probabilities.items():
            if key == noise_cluster or key is None:
                continue
            mean_p = float(probs[start:end].mean())
            if mean_p > best:
                best, label = mean_p, key
        if label is None:
            continue
        events.append(
            EventRecord(
                start_index=start,
                end_index=end,
                label=label,
                mean_probability=float(event_prob[start:end].mean()),
            )
        )
    return events


def assert_matches_reference(window_probs, spec, signal_len, min_lengths=(1, 7)):
    """Cell field and cell segmentation equal the per-sample ones exactly,
    and the cell field equals the per-window loop's."""
    field = field_of(window_probs, spec, signal_len)
    edges, cell_coverage, cell_probabilities = window_loop_average(
        window_probs, spec, signal_len
    )
    assert np.array_equal(field.edges, edges)
    assert np.array_equal(field.coverage, cell_coverage)
    assert list(field.probabilities) == list(cell_probabilities)
    for key, expected in cell_probabilities.items():
        assert field.probabilities[key].tobytes() == expected.tobytes()
    probabilities, coverage = reference_average(window_probs, spec, signal_len)
    assert len(field) == signal_len
    assert np.array_equal(per_sample(field, field.coverage), coverage)
    assert list(field.probabilities) == list(probabilities)
    for key, expected in probabilities.items():
        assert probability_of(field, key).tobytes() == expected.tobytes()
    assert not probability_of(field, "absent").any()
    labelled = [key for key in probabilities if key is not None]
    for noise in labelled:
        for min_probability in (0.5, 0.2, 1.0):
            for min_length in min_lengths:
                got = segment_events(field, noise, min_probability, min_length)
                want = reference_segment(
                    probabilities, coverage, noise, min_probability, min_length
                )
                assert repr(got) == repr(want)


class TestCellFieldMatchesPerSample:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_geometries(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        # Overlap 0 (step n), n a multiple of the step, and n not a multiple.
        step = [n, max(1, n // int(rng.integers(1, 5))), int(rng.integers(1, n + 1))][
            seed % 3
        ]
        spec = WindowSpec(n, 1.0 - step / n)
        assert spec.step == step
        n_windows = int(rng.integers(1, 30))
        tail = int(rng.integers(0, step)) if seed % 2 else 0
        signal_len = n + step * (n_windows - 1) + tail
        assert spec.n_windows(signal_len) == n_windows
        pool = [0, 1, 2, 3, 4, 5, None]
        window_probs = []
        for i in range(n_windows):
            # Keys 4 and 5 appear only in the later windows.
            allowed = pool if i >= n_windows // 2 else [0, 1, 2, 3, None]
            size = int(rng.integers(1, len(allowed) + 1))
            keys = [allowed[j] for j in rng.permutation(len(allowed))[:size]]
            values = rng.random(size)
            values[rng.random(size) < 0.25] = 0.0
            if values.sum() == 0.0:
                values[0] = 1.0
            values /= values.sum()
            window_probs.append(dict(zip(keys, values.tolist())))
        assert_matches_reference(window_probs, spec, signal_len)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_on_overlapped_recording(self, seed):
        rate = 1e6
        bursts = tuple(
            BurstSpec(
                onset=onset / rate,
                amplitude=0.2,
                decay_tau=3.4e-4,
                carrier_freq=120e3,
            )
            for onset in (4_096, 12_288, 22_528)
        )
        spec = SynthSpec(
            duration=32_768 / rate, sample_rate=rate, noise_sigma=0.01, bursts=bursts
        )
        waveform, _ = synthesize(spec, rng_seed=seed)
        config = PipelineConfig(seed=seed, window_length=250, overlap=0.875)
        windowed = extract_counts(waveform, config.threshold_policy(), config.window_spec())
        assert windowed.spec.length_n % windowed.spec.step != 0
        counts = windowed.counts.tolist()
        hyper = config.hyperparams()
        result = fit(counts, hyper, sweeps=40, burn_in=20, rng_seed=seed)
        assert result.state.n_clusters > 1
        values = sorted(set(counts))
        means = reference_table(reference_fit(counts, hyper, 40, 20, seed)[2], values)
        expected, columns = dense(means)
        assert result.columns == columns
        assert np.array_equal(result.table, expected)
        window_probs = [means[row] for row in result.index.tolist()]
        assert [values[row] for row in result.index.tolist()] == counts
        assert_matches_reference(window_probs, windowed.spec, len(waveform), min_lengths=(1,))

    def test_stored_arrays_scale_with_windows_not_samples(self):
        spec = WindowSpec(200_000, 0.5)
        signal_len = 2_000_000
        n_windows = spec.n_windows(signal_len)
        rng = np.random.default_rng(0)
        keys = list(range(6))
        window_probs = []
        for _ in range(n_windows):
            values = rng.random(len(keys))
            window_probs.append(dict(zip(keys, (values / values.sum()).tolist())))
        field = field_of(window_probs, spec, signal_len)
        stored = sum(
            value.nbytes
            for value in vars(field).values()
            if isinstance(value, np.ndarray)
        )
        stored += sum(probs.nbytes for probs in field.probabilities.values())
        assert stored < 0.01 * len(keys) * signal_len * 8


class TestSegmentEvents:
    def test_noise_dominated_field_yields_nothing(self):
        field = field_from_event_prob(np.full(100, 0.2))
        assert segment_events(field, noise_cluster=0) == []

    def test_rectangular_plateau(self):
        prob = np.zeros(700)
        prob[100:600] = 0.9
        field = field_from_event_prob(prob)
        events = segment_events(field, noise_cluster=0, min_probability=0.5)
        assert len(events) == 1
        event = events[0]
        assert (event.start_index, event.end_index) == (100, 600)
        assert event.label == 1
        assert event.mean_probability == pytest.approx(0.9)

    def test_short_runs_discarded(self):
        prob = np.zeros(100)
        prob[10:12] = 1.0
        prob[50:80] = 1.0
        field = field_from_event_prob(prob)
        events = segment_events(field, noise_cluster=0, min_length=5)
        assert [(e.start_index, e.end_index) for e in events] == [(50, 80)]

    def test_intervals_disjoint_and_sorted(self):
        rng = np.random.default_rng(8)
        field = field_from_event_prob(rng.random(500))
        events = segment_events(field, noise_cluster=0)
        for first, second in zip(events, events[1:]):
            assert first.end_index <= second.start_index

    def test_mean_probability_respects_minimum(self):
        rng = np.random.default_rng(9)
        field = field_from_event_prob(rng.random(500))
        for event in segment_events(field, noise_cluster=0, min_probability=0.6):
            assert event.mean_probability >= 0.6

    def test_missing_noise_cluster_rejected(self):
        field = field_from_event_prob(np.full(10, 0.9))
        with pytest.raises(ValueError):
            segment_events(field, noise_cluster=7)

    def test_label_is_strongest_non_noise_cluster(self):
        prob_a = np.zeros(40)
        prob_a[10:30] = 0.3
        prob_b = np.zeros(40)
        prob_b[10:30] = 0.6
        field = SampleProbabilityField(
            edges=np.arange(41),
            coverage=np.ones(40, dtype=np.int64),
            probabilities={0: 1.0 - prob_a - prob_b, 1: prob_a, 2: prob_b},
        )
        (event,) = segment_events(field, noise_cluster=0)
        assert event.label == 2


class TestExtractFeatures:
    def test_pure_zero_slice(self):
        w = Waveform(np.zeros(100), 10.0)
        feats = extract_features(w, (10, 40), threshold=0.5)
        assert feats.count == 0
        assert feats.energy == 0.0
        assert feats.duration == 0.0
        assert feats.rise_time == 0.0

    def test_triangular_pulse(self):
        w = Waveform(np.array([0.0, 1.0, 0.0]), 1.0)
        feats = extract_features(w, (0, 3), threshold=0.5)
        assert feats.count == 1
        assert feats.peak_amplitude == 1.0
        assert feats.duration == 0.0  # single crossing interval collapses
        assert feats.rise_time == 0.0
        assert feats.energy == pytest.approx(1.0)

    def test_decaying_sinusoid_against_oracles(self):
        rate = 1e6
        t = np.arange(20_000) / rate
        v = 0.8 * np.exp(-t / 2e-3) * np.sin(2 * math.pi * 5e4 * t)
        w = Waveform(v, rate)
        feats = extract_features(w, (0, len(v)), threshold=0.1)
        assert feats.count == count_crossings(v, 0.1)
        assert feats.energy == pytest.approx(float(np.sum(v * v)) / rate, abs=1e-9)
        assert feats.peak_amplitude == pytest.approx(float(np.max(np.abs(v))))
        assert 0.0 <= feats.rise_time <= feats.duration

    def test_rise_time_to_peak(self):
        # Crossing at index 2, peak at index 5, last crossing-region sample 8.
        v = np.array([0.0, 0.1, 0.6, 0.7, 0.8, 2.0, 0.9, 0.7, 0.6, 0.1, 0.0])
        w = Waveform(v, 10.0)
        feats = extract_features(w, (0, len(v)), threshold=0.5)
        assert feats.rise_time == pytest.approx((5 - 2) / 10.0)
        assert feats.duration == pytest.approx((8 - 2) / 10.0)

    def test_zero_padding_changes_nothing_but_energy(self):
        rng = np.random.default_rng(10)
        core = rng.normal(0, 0.2, 200)
        core[80:120] += 3.0
        padded = np.concatenate([np.zeros(50), core, np.zeros(50)])
        w_core = Waveform(core, 100.0)
        w_padded = Waveform(padded, 100.0)
        f_core = extract_features(w_core, (0, 200), threshold=1.0)
        f_padded = extract_features(w_padded, (0, 300), threshold=1.0)
        assert f_core.count == f_padded.count
        assert f_core.peak_amplitude == f_padded.peak_amplitude
        assert f_core.duration == f_padded.duration
        assert f_core.rise_time == f_padded.rise_time
        assert f_padded.energy == pytest.approx(f_core.energy)  # zeros add nothing

    def test_event_bounds_validated(self):
        w = Waveform(np.zeros(10), 1.0)
        with pytest.raises(ValueError):
            extract_features(w, (5, 15), threshold=0.5)


class TestOverlapAveragedPipeline:
    def test_event_probability_rises_and_decays_with_few_argmax_flips(self):
        # One tone burst under 87.5% overlap: the averaged event
        # probability ramps up into the burst, holds, and decays after,
        # so the per-sample argmax changes at most twice around the event.
        from aeburst.dppmm import Hyperparams, fit, posterior_mean_rate
        from aeburst.windowing import ThresholdPolicy, extract_counts

        rate = 1e6
        sigma = 0.01
        n = 200
        onset, span = 20_000, 4_800
        rng = np.random.default_rng(12)
        v = rng.normal(0.0, sigma, 60_000)
        t = np.arange(span) / rate
        v[onset : onset + span] += 0.2 * np.sin(2 * math.pi * 17_500.0 * t)
        waveform = Waveform(v, rate)
        wc = extract_counts(
            waveform, ThresholdPolicy.fixed(2.576 * sigma), WindowSpec(n, 0.875)
        )
        hyper = Hyperparams(1.0, GammaParams(1.0, 1.0))
        result = fit(wc.counts.tolist(), hyper, sweeps=60, burn_in=30, rng_seed=1)
        field = average_probabilities(
            result.table[result.index], wc.spec, len(waveform), result.columns
        )
        base = hyper.base
        event = max(
            (c for c in result.state.clusters.values() if c.n_members >= 10),
            key=lambda c: posterior_mean_rate(c, base),
        ).id
        event_prob = probability_of(field, event)
        # Monotone ramp into the core and decay after (coarse-grained).
        assert event_prob[onset - n : onset].mean() < 0.5
        assert event_prob[onset + n : onset + span - n].min() >= 0.5
        assert event_prob[onset + span + n : onset + span + 2 * n].mean() < 0.5
        window = slice(onset - 2 * n, onset + span + 2 * n)
        is_event = event_prob[window] >= 0.5
        flips = int(np.sum(is_event[1:] != is_event[:-1]))
        assert flips <= 2


class TestNoiseClusterId:
    def test_lowest_posterior_mean_rate_wins(self):
        hyper = Hyperparams(1.0, GammaParams(1.0, 1.0))
        state = MixtureState.empty(hyper, 0)
        quiet = None
        for x in (0, 1, 0):
            quiet = state.append_datum(x, quiet)
        loud = None
        for x in (30, 28):
            loud = state.append_datum(x, loud)
        assert noise_cluster_id(state) == quiet

    def test_empty_state_rejected(self):
        hyper = Hyperparams(1.0, GammaParams(1.0, 1.0))
        with pytest.raises(ValueError):
            noise_cluster_id(MixtureState.empty(hyper, 0))


class TestBuildEventRecords:
    def test_features_attached(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(0, 0.05, 400)
        samples[100:200] += np.sin(np.linspace(0, 40 * math.pi, 100)) * 2.0
        w = Waveform(samples, 1000.0)
        prob = np.zeros(400)
        prob[100:200] = 0.95
        field = field_from_event_prob(prob)
        records = build_event_records(w, field, noise_cluster=0, threshold=0.5)
        assert len(records) == 1
        record = records[0]
        assert record.features is not None
        assert record.features.count > 0
        assert record.features.energy > 0
