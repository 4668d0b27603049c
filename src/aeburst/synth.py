"""Synthetic AE signal generation with ground-truth annotations.

Bursts are decaying sinusoids, the standard AE surrogate:

    A * exp(-(t - t0) / tau) * sin(2 * pi * f * (t - t0))   for t >= t0

superimposed on white Gaussian noise.  Each burst carries a family id so
tests can emulate mixed benign/damage source populations.  Annotations
record the sample span from onset to the point where the envelope falls
below the noise floor.

``synthesize_hit_stream`` produces triggered fixed-length hit records the
way acquisition hardware would, with each hit seeded independently so
the stream is an index-addressable sequence: a hit is rendered only when
it is indexed, and decimation renders no skipped record.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .io import HitRecord
from .windowing import Waveform

__all__ = [
    "BurstSpec",
    "SynthSpec",
    "BurstAnnotation",
    "synthesize",
    "HitStreamSpec",
    "synthesize_hit_stream",
]


def _check(spec: object, *rules: tuple[str, bool, str]) -> None:
    """Raise ``ValueError`` for the first ``(field, ok, rule)`` not ok, naming the field first."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class BurstSpec:
    """One decaying-sinusoid burst: onset (s), amplitude (V), decay time
    constant (s), carrier frequency (Hz), and source family id."""

    onset: float
    amplitude: float
    decay_tau: float
    carrier_freq: float
    family: int = 0

    def __post_init__(self) -> None:
        _check(
            self,
            ("amplitude", 0 < self.amplitude < math.inf, "finite and positive"),
            ("decay_tau", 0 < self.decay_tau < math.inf, "finite and positive"),
            ("carrier_freq", math.isfinite(self.carrier_freq), "finite"),
        )


@dataclass(frozen=True)
class SynthSpec:
    """A synthetic recording: duration, rate, noise level, and bursts.

    Overlapping bursts superpose.  The recording holds at least one sample,
    and onsets must fall inside it.
    """

    duration: float = 0.1
    sample_rate: float = 1e6
    noise_sigma: float = 0.01
    bursts: tuple[BurstSpec, ...] = ()

    def __post_init__(self) -> None:
        _check(
            self,
            ("duration", 0 < self.duration < math.inf, "finite and positive"),
            ("sample_rate", 0 < self.sample_rate < math.inf, "finite and positive"),
            ("noise_sigma", 0 <= self.noise_sigma < math.inf, "finite and non-negative"),
            # n_samples rounds half to even, so it is at least 1 past half a sample.
            ("duration", 0.5 < self.duration * self.sample_rate < math.inf,
             f"one to finitely many samples at sample_rate {self.sample_rate!r}"),
        )
        object.__setattr__(self, "bursts", tuple(self.bursts))
        for burst in self.bursts:
            if not 0.0 <= burst.onset < self.duration:
                raise ValueError(
                    f"bursts must each start in [0, duration {self.duration!r}) s, "
                    f"got an onset of {burst.onset!r} s"
                )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


@dataclass(frozen=True)
class BurstAnnotation:
    """Ground-truth sample span of one burst and its family id."""

    start_index: int
    end_index: int
    family: int


def _burst_end_index(spec: SynthSpec, burst: BurstSpec, start: int) -> int:
    """First sample where the envelope falls below the noise floor.

    With no noise the span runs to the end of the recording (the envelope
    never reaches a floor of zero); spans are clamped to the signal and
    cover at least one sample.
    """
    if spec.noise_sigma > 0 and burst.amplitude > spec.noise_sigma:
        span_s = burst.decay_tau * math.log(burst.amplitude / spec.noise_sigma)
        end = start + int(math.ceil(span_s * spec.sample_rate))
    elif spec.noise_sigma > 0:
        end = start + 1
    else:
        end = spec.n_samples
    return max(start + 1, min(end, spec.n_samples))


def synthesize(spec: SynthSpec, rng_seed: int = 0) -> tuple[Waveform, list[BurstAnnotation]]:
    """Render the recording and its ground-truth annotations.

    The same spec and seed always produce identical samples.
    """
    n = spec.n_samples
    rng = np.random.default_rng(rng_seed)
    samples = (
        rng.normal(0.0, spec.noise_sigma, size=n)
        if spec.noise_sigma > 0
        else np.zeros(n)
    )
    annotations: list[BurstAnnotation] = []
    dt = 1.0 / spec.sample_rate
    for burst in spec.bursts:
        start = int(round(burst.onset * spec.sample_rate))
        end = _burst_end_index(spec, burst, start)
        # Render past the annotated end so the waveform decays smoothly into
        # the noise floor instead of being truncated at it.
        render_end = min(n, start + 2 * (end - start) + 1)
        t = np.arange(render_end - start) * dt
        samples[start:render_end] += (
            burst.amplitude
            * np.exp(-t / burst.decay_tau)
            * np.sin(2.0 * math.pi * burst.carrier_freq * t)
        )
        annotations.append(
            BurstAnnotation(start_index=start, end_index=end, family=burst.family)
        )
    return Waveform(samples=samples, sample_rate=spec.sample_rate), annotations


@dataclass(frozen=True)
class HitStreamSpec:
    """A triggered hit stream with an optional injected damage family.

    Background hits are bursts of one family; from ``damage_start_hit``
    onward each hit is drawn from the damage family with probability
    ``damage_fraction``.  Damage hits scale the background amplitude by
    ``sqrt(damage_energy_factor)`` so their energy scales by the factor
    itself.
    """

    n_hits: int = 1000
    sample_rate: float = 2_000_000.0
    record_length: int = 2048
    pretrigger: int = 500
    channel: int = 5
    hit_period: float = 0.26
    noise_sigma: float = 0.01
    amplitude: float = 0.25
    decay_tau: float = 2.0e-4
    carrier_freq: float = 150_000.0
    amplitude_jitter: float = 0.1
    damage_start_hit: int | None = None
    damage_fraction: float = 0.3
    damage_energy_factor: float = 50.0

    def __post_init__(self) -> None:
        _check(
            self,
            ("n_hits", self.n_hits >= 1, ">= 1"),
            ("sample_rate", 0 < self.sample_rate < math.inf, "finite and positive"),
            ("pretrigger", 0 <= self.pretrigger < self.record_length, "in [0, record_length)"),
            ("hit_period", 0 <= self.hit_period < math.inf, "finite and non-negative"),
            ("noise_sigma", 0 <= self.noise_sigma < math.inf, "finite and non-negative"),
            ("amplitude", 0 < self.amplitude < math.inf, "finite and positive"),
            ("decay_tau", 0 < self.decay_tau < math.inf, "finite and positive"),
            ("carrier_freq", math.isfinite(self.carrier_freq), "finite"),
            ("amplitude_jitter", math.isfinite(self.amplitude_jitter), "finite"),
            ("damage_start_hit",
             self.damage_start_hit is None or self.damage_start_hit >= 0, ">= 0 or None"),
            ("damage_fraction", 0 <= self.damage_fraction <= 1, "in [0, 1]"),
            ("damage_energy_factor",
             0 < self.damage_energy_factor < math.inf, "finite and positive"),
        )


@dataclass(frozen=True)
class _HitStream(Sequence[HitRecord]):
    spec: HitStreamSpec
    rng_seed: int

    def __len__(self) -> int:
        return self.spec.n_hits

    def __getitem__(self, index: int) -> HitRecord:
        spec = self.spec
        i = range(spec.n_hits)[index]
        dt = 1.0 / spec.sample_rate
        rng = np.random.default_rng([self.rng_seed, i])
        is_damage = (
            spec.damage_start_hit is not None
            and i >= spec.damage_start_hit
            and rng.random() < spec.damage_fraction
        )
        amplitude = spec.amplitude * (
            1.0 + spec.amplitude_jitter * (2.0 * rng.random() - 1.0)
        )
        if is_damage:
            amplitude *= math.sqrt(spec.damage_energy_factor)
        samples = rng.normal(0.0, spec.noise_sigma, size=spec.record_length)
        t = np.arange(spec.record_length - spec.pretrigger) * dt
        samples[spec.pretrigger :] += (
            amplitude
            * np.exp(-t / spec.decay_tau)
            * np.sin(2.0 * math.pi * spec.carrier_freq * t)
        )
        return HitRecord(
            trigger_time=i * spec.hit_period,
            samples=samples,
            pretrigger=spec.pretrigger,
            channel=spec.channel,
            sample_rate=spec.sample_rate,
        )


def synthesize_hit_stream(spec: HitStreamSpec, rng_seed: int = 0) -> Sequence[HitRecord]:
    """The hit records of a stream, each rendered when indexed.

    Hit ``i`` is rendered from ``default_rng([rng_seed, i])``, so decimation
    renders only the kept hits and reproduces them exactly.
    """
    return _HitStream(spec, rng_seed)
