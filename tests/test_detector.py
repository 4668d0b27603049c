"""Background model training, NLL scoring, and anomaly flagging."""

import math

import numpy as np
import pytest

from aeburst.detector import (
    flag_events,
    score,
    train_background,
)
from aeburst.distributions import GammaParams, log_predictive, predictive_terms
from aeburst.synth import BurstSpec, SynthSpec, synthesize
from aeburst.windowing import ThresholdPolicy, WindowSpec, extract_counts
from windowing_oracle import entries


UNIT_PRIOR = GammaParams(1.0, 1.0)


def nll(x, model):
    """The NLL of a count under the model's predictive, evaluated directly."""
    return -log_predictive(model.predictive, x, math.lgamma(x + 1))


def r_and_p(model):
    """The ``(r, p)`` of the model's negative-binomial predictive."""
    _, r, _, _, log1p_g = model.predictive
    return r, -math.expm1(-log1p_g)


def lead_break_signal(seed, n_samples=131_072, burst_len=4096):
    """Two grid-aligned bursts of nominally ``burst_len`` samples each.

    Returns the waveform plus the nominal burst spans (the envelope-based
    annotations may spill a sample past the nominal span through rounding,
    so window classification uses the nominal geometry).
    """
    rate = 1e6
    sigma = 0.01
    amplitude = 20 * sigma
    tau = burst_len / (rate * math.log(amplitude / sigma))
    onsets = (8 * 4096, 22 * 4096)
    spec = SynthSpec(
        duration=n_samples / rate,
        sample_rate=rate,
        noise_sigma=sigma,
        bursts=tuple(
            BurstSpec(onset / rate, amplitude, tau, 1.2e5, 0) for onset in onsets
        ),
    )
    waveform, _ = synthesize(spec, rng_seed=seed)
    spans = [(onset, onset + burst_len) for onset in onsets]
    return waveform, spans


class TestTrainBackground:
    def test_idealised_zero_count_noise(self):
        model = train_background(UNIT_PRIOR, [0] * 20)
        assert model.predictive == predictive_terms(UNIT_PRIOR, 20, 0, 0.0)
        r, p = r_and_p(model)
        assert r == 1
        assert p == pytest.approx(21 / 22, abs=1e-15)

    def test_small_training_set(self):
        model = train_background(UNIT_PRIOR, [1, 2, 3])
        assert model.predictive == predictive_terms(UNIT_PRIOR, 3, 6, 0.0)
        assert r_and_p(model) == (7, 0.8)
        assert model.n_train == 3
        assert model.sum_train == 6

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_background(UNIT_PRIOR, [])

    def test_extra_zero_count_never_hurts_zero(self):
        # Posterior concentrates toward zero rate as zeros accumulate.
        counts = [0] * 20
        before = nll(0, train_background(UNIT_PRIOR, counts))
        after = nll(0, train_background(UNIT_PRIOR, counts + [0]))
        assert after <= before + 1e-9


class TestScore:
    def _trace(self, counts, model):
        from aeburst.windowing import WindowedCounts

        n = 100
        wc = WindowedCounts(
            starts=np.arange(len(counts)) * n,
            counts=np.asarray(counts, dtype=np.int64),
            spec=WindowSpec(n, 0.0),
            threshold=1.0,
        )
        return score(model, wc)

    def test_zero_count_nll_value(self):
        model = train_background(UNIT_PRIOR, [0] * 20)
        trace = self._trace([0], model)
        assert trace.nlls[0] == pytest.approx(-math.log(21 / 22), rel=1e-12)

    def test_mode_minimises_nll(self):
        model = train_background(UNIT_PRIOR, [4, 5, 4, 6, 5, 5])
        mode = min(range(0, 50), key=lambda x: nll(x, model))
        trace = self._trace(list(range(0, 50)), model)
        assert int(np.argmin(trace.nlls)) == mode

    def test_deterministic(self):
        model = train_background(UNIT_PRIOR, [0, 1, 0])
        t1 = self._trace([0, 3, 7], model)
        t2 = self._trace([0, 3, 7], model)
        assert np.array_equal(t1.nlls, t2.nlls)

    def test_equals_one_nll_call_per_window(self):
        model = train_background(UNIT_PRIOR, [0, 1, 2, 0])
        counts = np.random.default_rng(3).poisson(3.0, 500).tolist() + [0, 40, 0]
        trace = self._trace(counts, model)
        assert trace.nlls.tolist() == [nll(c, model) for c in counts]
        assert trace.nlls.dtype == np.float64

    def test_flag_threshold_default(self):
        model = train_background(UNIT_PRIOR, [0, 1])
        trace = self._trace([0], model)
        assert trace.flag_threshold == pytest.approx(
            model.train_nll_max + math.log(10)
        )

    def _wc(self, counts):
        from aeburst.windowing import WindowedCounts

        return WindowedCounts(
            starts=np.arange(len(counts)) * 100,
            counts=np.asarray(counts, dtype=np.int64),
            spec=WindowSpec(100, 0.0),
            threshold=1.0,
        )


class TestFlagEvents:
    def _trace(self, nlls, threshold, n=100, step=None):
        from aeburst.detector import NllTrace

        step_n = step if step is not None else n
        overlap = 1.0 - step_n / n
        return NllTrace(
            starts=np.arange(len(nlls)) * step_n,
            counts=np.zeros(len(nlls), dtype=np.int64),
            nlls=np.asarray(nlls, dtype=float),
            flag_threshold=threshold,
            spec=WindowSpec(n, overlap),
        )

    def test_all_below_threshold(self):
        assert flag_events(self._trace([0.1, 0.2, 0.3], 1.0)) == []

    def test_single_window_interval(self):
        trace = self._trace([0.0, 0.0, 5.0, 0.0], 1.0)
        assert flag_events(trace) == [(200, 300)]

    def test_two_separated_runs(self):
        trace = self._trace([5.0, 0.0, 0.0, 5.0, 5.0], 1.0)
        assert flag_events(trace) == [(0, 100), (300, 500)]

    def test_overlapping_windows_merge(self):
        # Step 25: flagged windows 0 and 2 leave a 25-sample hole smaller
        # than one step once window extents are applied; they merge.
        trace = self._trace([5.0, 0.0, 5.0, 0.0], 1.0, n=100, step=25)
        assert flag_events(trace) == [(0, 150)]


class TestLeadBreakSeparation:
    """Burst windows score strictly above all noise windows when the
    window length matches the burst span."""

    def test_matched_window_separates(self):
        waveform, spans = lead_break_signal(seed=0)
        wc = extract_counts(
            waveform, ThresholdPolicy.percentile(99), WindowSpec(4096, 0.0)
        )
        burst_windows = []
        noise_windows = []
        for i, (start, _) in enumerate(entries(wc)):
            end = start + 4096
            if any(start < b_end and end > b_start for b_start, b_end in spans):
                burst_windows.append(i)
            else:
                noise_windows.append(i)
        train_idx = noise_windows[:20]
        model = train_background(
            UNIT_PRIOR, [int(wc.counts[i]) for i in train_idx]
        )
        # Twenty unit-prior noise windows give the predictive
        # NB(sum + 1, 21/22) whatever the synthesized counts were.
        r, p = r_and_p(model)
        assert r == model.sum_train + 1
        assert p == pytest.approx(21 / 22, abs=1e-15)
        trace = score(model, wc)
        held_out_noise = [i for i in noise_windows if i not in train_idx]
        assert min(trace.nlls[burst_windows]) > max(trace.nlls[held_out_noise])

    def test_short_window_covers_all_bursts(self):
        waveform, spans = lead_break_signal(seed=1)
        wc = extract_counts(
            waveform, ThresholdPolicy.percentile(99), WindowSpec(256, 0.0)
        )
        counts = wc.counts.tolist()
        model = train_background(UNIT_PRIOR, counts[:20])
        trace = score(model, wc)
        intervals = flag_events(trace)
        for b_start, b_end in spans:
            assert any(
                s < b_end and e > b_start for s, e in intervals
            ), "burst not covered by any flagged window"
        flagged = trace.nlls > trace.flag_threshold
        is_noise = [
            not any(
                start < b_end and start + 256 > b_start for b_start, b_end in spans
            )
            for start, _ in entries(wc)
        ]
        assert all(is_noise[:20])  # the training windows hold no burst
        noise_flagged = sum(
            1 for i, noise in enumerate(is_noise) if noise and flagged[i]
        )
        assert noise_flagged <= 0.05 * sum(is_noise)
