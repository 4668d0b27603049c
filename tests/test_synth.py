"""Synthetic recordings: envelope arithmetic, determinism, noise statistics."""

import math

import numpy as np
import pytest

from aeburst.detector import score, train_background
from aeburst.distributions import GammaParams
from aeburst.synth import (
    BurstSpec,
    HitStreamSpec,
    SynthSpec,
    synthesize,
    synthesize_hit_stream,
)
from aeburst.windowing import ThresholdPolicy, WindowSpec, extract_counts


class TestSynthesize:
    def test_seed_determinism(self):
        spec = SynthSpec(0.01, 1e6, 0.02, (BurstSpec(0.002, 0.3, 1e-3, 1e5, 1),))
        w1, a1 = synthesize(spec, rng_seed=9)
        w2, a2 = synthesize(spec, rng_seed=9)
        assert np.array_equal(w1.samples, w2.samples)
        assert a1 == a2

    def test_different_seeds_differ(self):
        spec = SynthSpec(0.01, 1e6, 0.02)
        w1, _ = synthesize(spec, rng_seed=1)
        w2, _ = synthesize(spec, rng_seed=2)
        assert not np.array_equal(w1.samples, w2.samples)

    def test_annotation_span_from_envelope_crossing(self):
        # A = 20 sigma with tau sized for a 4096-sample decay to the floor.
        rate = 1e6
        sigma = 0.01
        tau = 4096 / (rate * math.log(20.0))
        spec = SynthSpec(0.05, rate, sigma, (BurstSpec(0.01, 20 * sigma, tau, 1e5, 0),))
        _, (annotation,) = synthesize(spec, rng_seed=0)
        span = annotation.end_index - annotation.start_index
        assert span == pytest.approx(4096, abs=2)

    def test_no_bursts_rarely_false_flags(self):
        # Pure noise through the detector with noise training declared by
        # explicit range: at most 5% of the scored windows flag.
        flagged_fractions = []
        for seed in range(20):
            spec = SynthSpec(0.1, 1e6, 0.01)
            waveform, _ = synthesize(spec, rng_seed=seed)
            wc = extract_counts(
                waveform, ThresholdPolicy.percentile(99), WindowSpec(1000, 0.0)
            )
            counts = wc.counts.tolist()
            model = train_background(GammaParams(1, 1), counts[:20])
            trace = score(model, wc)
            flagged_fractions.append(
                float(np.mean(trace.nlls[20:] > trace.flag_threshold))
            )
        assert float(np.mean(flagged_fractions)) <= 0.05

    def test_superposed_bursts_allowed(self):
        spec = SynthSpec(
            0.01,
            1e6,
            0.01,
            (
                BurstSpec(0.002, 0.2, 1e-3, 1e5, 0),
                BurstSpec(0.002, 0.2, 1e-3, 1.3e5, 1),
            ),
        )
        _, annotations = synthesize(spec, rng_seed=0)
        assert len(annotations) == 2

    def test_onset_outside_duration_rejected(self):
        with pytest.raises(ValueError, match="^bursts "):
            SynthSpec(0.01, 1e6, 0.01, (BurstSpec(0.02, 0.1, 1e-3, 1e5, 0),))

    @pytest.mark.parametrize("sigma", [math.nan, -1.0])
    def test_noise_sigma_nan_or_negative_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(0.01, 1e6, sigma)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration", math.nan),
            ("duration", math.inf),
            ("duration", 0.0),
            ("sample_rate", math.inf),
            ("sample_rate", -1.0),
            ("noise_sigma", math.inf),
        ],
    )
    def test_unrenderable_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("duration, rate", [(1e-9, 1e6), (0.001, 100.0), (1e200, 1e200)])
    def test_duration_must_hold_a_sample(self, duration, rate):
        with pytest.raises(ValueError, match="^duration "):
            SynthSpec(duration, rate)

    def test_defaults(self):
        assert SynthSpec() == SynthSpec(0.1, 1e6, 0.01, ())
        assert SynthSpec().n_samples == 100_000

    def test_zero_noise_renders_clean_burst(self):
        spec = SynthSpec(0.001, 1e6, 0.0, (BurstSpec(0.0, 1.0, 1e-4, 5e4, 0),))
        waveform, _ = synthesize(spec, rng_seed=0)
        assert np.max(np.abs(waveform.samples)) <= 1.0
        assert np.max(np.abs(waveform.samples)) > 0.5


class TestHitStream:
    def test_lazy_generation_is_seed_stable(self):
        spec = HitStreamSpec(n_hits=5, record_length=256, pretrigger=50)
        first = [h.samples for h in synthesize_hit_stream(spec, rng_seed=3)]
        second = [h.samples for h in synthesize_hit_stream(spec, rng_seed=3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_skipping_does_not_shift_streams(self):
        # Hit i depends only on (seed, i), so decimated consumers see the
        # same records they would in a full pass.
        spec = HitStreamSpec(n_hits=10, record_length=128, pretrigger=10)
        full = list(synthesize_hit_stream(spec, rng_seed=1))
        partial = [h for i, h in enumerate(synthesize_hit_stream(spec, rng_seed=1)) if i % 3 == 0]
        for keep, hit in zip(partial, full[::3]):
            assert np.array_equal(keep.samples, hit.samples)

    def test_damage_hits_carry_more_energy(self):
        spec = HitStreamSpec(
            n_hits=60,
            record_length=512,
            pretrigger=50,
            damage_start_hit=30,
            damage_fraction=1.0,
            damage_energy_factor=50.0,
        )
        hits = list(synthesize_hit_stream(spec, rng_seed=0))
        background = np.mean([np.sum(h.samples**2) for h in hits[:30]])
        damage = np.mean([np.sum(h.samples**2) for h in hits[30:]])
        assert damage / background == pytest.approx(50.0, rel=0.25)

    def test_record_geometry(self):
        spec = HitStreamSpec(n_hits=2, record_length=2048, pretrigger=500)
        for hit in synthesize_hit_stream(spec, rng_seed=0):
            assert hit.samples.size == 2048
            assert hit.pretrigger == 500
            # Pre-trigger region is noise only.
            assert float(np.max(np.abs(hit.samples[:500]))) < 6 * spec.noise_sigma

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_sigma", math.nan),
            ("noise_sigma", -1.0),
            ("damage_energy_factor", math.nan),
            ("damage_energy_factor", -1.0),
            ("damage_fraction", math.nan),
            ("damage_start_hit", -3),
            ("n_hits", 0),
            ("sample_rate", -1.0),
            ("sample_rate", math.inf),
            ("damage_energy_factor", math.inf),
            ("noise_sigma", math.inf),
            ("decay_tau", 0.0),
            ("amplitude", math.inf),
            ("carrier_freq", math.nan),
            ("hit_period", math.inf),
            ("amplitude_jitter", math.nan),
            ("pretrigger", 2048),
        ],
    )
    def test_nan_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            HitStreamSpec(**{"n_hits": 5, field: value})

    def test_defaults(self):
        spec = HitStreamSpec()
        assert (spec.n_hits, spec.sample_rate, spec.damage_start_hit) == (1000, 2e6, None)
