"""Online mixture updating, stream decimation, cluster tracking, and alarms.

New counts are absorbed one at a time.  Before a count is added, the
normalised assignment probabilities over the K retained components plus
one empty component quantify how ambiguous the assignment is; their
entropy, normalised by log(K + 1), is the information efficiency.  A
uniform draw below that efficiency triggers a full resampling sweep of
all assignments; otherwise the count is attached greedily to the highest
weight component.  Cheap greedy accretion therefore dominates while the
model is confident, and full reassessment concentrates on ambiguous
arrivals.

Damage indication is read from the clusters themselves: a fresh cluster
that survives long enough to attract members, or a step increase in a
cluster's cumulative energy against its own trailing rate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TypeVar

from .dppmm import (
    MixtureState,
    _exp_weights,
    _scan,
    assignment_log_weights,
    gibbs_sweep,
)

__all__ = [
    "entropy",
    "information_efficiency",
    "ObserveOutcome",
    "observe",
    "decimate",
    "ClusterTrack",
    "AlarmEvent",
    "update_tracks",
    "StreamMonitor",
]

T = TypeVar("T")

_NORMALISATION_TOL = 1e-9


def entropy(probs: Iterable[float]) -> float:
    """Shannon entropy, natural log, with 0 * log(0) taken as 0.

    Raises:
        ValueError: if the input deviates from a probability vector by
            more than 1e-9.
    """
    values = list(probs)
    total = 0.0
    h = 0.0
    for p in values:
        if p < -_NORMALISATION_TOL:
            raise ValueError(f"negative probability {p}")
        total += p
        if p > 0.0:
            h -= p * math.log(p)
    if abs(total - 1.0) > _NORMALISATION_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return h


def information_efficiency(probs: Iterable[float], n_clusters: int) -> float:
    """Posterior-label entropy normalised by ``log(K + 1)``.

    ``probs`` must hold K + 1 entries (retained components plus the empty
    route).  Zero for a one-hot posterior, one for a uniform posterior;
    clamped to [0, 1] against rounding.

    Raises:
        ValueError: when ``n_clusters`` is 0 (the gate is undefined before
            the first cluster exists) or the entry count disagrees.
    """
    values = list(probs)
    if n_clusters < 1:
        raise ValueError("information efficiency undefined with no clusters")
    if len(values) != n_clusters + 1:
        raise ValueError(
            f"expected {n_clusters + 1} probabilities, got {len(values)}"
        )
    eta = entropy(values) / math.log(n_clusters + 1)
    return min(1.0, max(0.0, eta))


@dataclass(frozen=True)
class ObserveOutcome:
    """What one online observation did to the state."""

    cluster_id: int
    eta: float
    resampled: bool
    probabilities: dict[int | None, float]
    alarms: list["AlarmEvent"]


@dataclass(frozen=True)
class AlarmEvent:
    """A damage-indicating event on the observation axis."""

    time: int
    kind: str  # "new_cluster" | "growth_step"
    cluster_id: int
    magnitude: float


def observe(
    x: int,
    state: MixtureState,
    *,
    eta_override: float | None = None,
) -> ObserveOutcome:
    """Absorb one count into the mixture, resampling only when uncertain.

    Assignment probabilities over the K + 1 components are computed for
    the incoming count, the information efficiency is evaluated, and one
    uniform is drawn: below the efficiency, the count is added by a
    categorical draw and a full sweep reassesses every assignment;
    otherwise the count joins the highest-weight component greedily.

    Every uniform comes from ``state.rng``, in an order fixed for replay:
    the gate uniform first, then (resampling path only) the assignment
    draw for ``x`` followed by the sweep's draws in data order.  An empty
    state consumes no draws: the first count simply founds the first
    cluster.

    ``eta_override`` forces the gate (0 never resamples, 1 always does).

    Emits a ``new_cluster`` alarm when the number of clusters grew and the
    newborn cluster still exists once the update settled.
    """
    before_ids = set(state.clusters)
    ordinal = len(state.data)
    if not state.clusters:
        assigned = state.append_datum(int(x), None)
        eta, resampled, probs = 0.0, False, {None: 1.0}
    else:
        weights = assignment_log_weights(int(x), state)
        raw, total = _exp_weights(weights)
        probs = {k: w / total for (k, _), w in zip(weights, raw)}
        eta = information_efficiency(list(probs.values()), state.n_clusters)
        if eta_override is not None:
            eta = eta_override
        resampled = state.rng.random() < eta
        if resampled:
            # Full reassessment: add by a draw, then one sweep over everything.
            choice = weights[_scan(raw, state.rng.random() * total)][0]
            state.append_datum(int(x), choice)
            gibbs_sweep(state)
            assigned = state.assignments[-1]
        else:
            # Clusters come in ascending id order and NEW last, so the first
            # maximum is the oldest of tied clusters, and NEW wins no tie.
            assigned = state.append_datum(int(x), max(weights, key=lambda kw: kw[1])[0])

    alarms = [
        AlarmEvent(
            time=ordinal,
            kind="new_cluster",
            cluster_id=new_id,
            magnitude=float(state.clusters[new_id].n_members),
        )
        for new_id in set(state.clusters) - before_ids
    ]
    return ObserveOutcome(
        cluster_id=assigned,
        eta=eta,
        resampled=resampled,
        probabilities=probs,
        alarms=alarms,
    )


def decimate(stream: Iterable[T], keep_ratio: float) -> Iterator[T]:
    """Deterministic systematic decimation of a stream.

    Item ``i`` (0-based) is kept iff ``floor(i * r) > floor((i - 1) * r)``,
    which retains items evenly spaced in arrival order; a full pass yields
    ``floor(len * r)`` or ``ceil(len * r)`` items for every length.  A
    ``Sequence`` is indexed at the kept positions only, never iterated.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")

    def kept(i: int) -> bool:
        return math.floor(i * keep_ratio) > math.floor((i - 1) * keep_ratio)

    if isinstance(stream, Sequence):
        return (stream[i] for i in range(len(stream)) if kept(i))
    return (item for i, item in enumerate(stream) if kept(i))


@dataclass
class ClusterTrack:
    """Cumulative growth series of one cluster, indexed by observation time."""

    cluster_id: int
    times: list[int] = field(default_factory=list)
    cumulative_events: list[int] = field(default_factory=list)
    cumulative_counts: list[int] = field(default_factory=list)
    cumulative_energy: list[float] = field(default_factory=list)
    recent_energy_increments: deque = field(default_factory=deque)


def update_tracks(
    tracks: dict[int, ClusterTrack],
    cluster_id: int,
    time: int,
    count: int,
    energy: float,
    *,
    step_factor: float = 10.0,
    lag: int = 50,
    min_history: int = 10,
) -> list[AlarmEvent]:
    """Append one hit to its cluster's cumulative series and test for steps.

    A ``growth_step`` alarm fires when the energy increment exceeds
    ``step_factor`` times the cluster's trailing median increment over the
    last ``lag`` hits; at least ``min_history`` prior increments are
    required before the test arms, so young clusters cannot alarm off an
    empty baseline.
    """
    if energy < 0:
        raise ValueError(f"energy must be non-negative, got {energy}")
    track = tracks.get(cluster_id)
    if track is None:
        track = ClusterTrack(cluster_id=cluster_id)
        tracks[cluster_id] = track
    alarms: list[AlarmEvent] = []
    history = track.recent_energy_increments
    if len(history) >= min_history:
        ordered = sorted(history)
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2 == 1
            else 0.5 * (ordered[mid - 1] + ordered[mid])
        )
        if median > 0 and energy > step_factor * median:
            alarms.append(
                AlarmEvent(
                    time=time,
                    kind="growth_step",
                    cluster_id=cluster_id,
                    magnitude=energy / median,
                )
            )
    track.times.append(time)
    track.cumulative_events.append(
        (track.cumulative_events[-1] if track.cumulative_events else 0) + 1
    )
    track.cumulative_counts.append(
        (track.cumulative_counts[-1] if track.cumulative_counts else 0) + int(count)
    )
    track.cumulative_energy.append(
        (track.cumulative_energy[-1] if track.cumulative_energy else 0.0) + energy
    )
    history.append(energy)
    while len(history) > lag:
        history.popleft()
    return alarms


class StreamMonitor:
    """Single-writer state machine tying the online pieces together.

    Feeds (count, energy) observations through the entropy-gated sampler,
    maintains per-cluster cumulative tracks, and emits only *confirmed*
    alarms: a new-cluster alarm is held back until the cluster has
    retained at least ``min_survivors`` members for ``survival_horizon``
    subsequent observations (sporadic sampler-born clusters collapse
    within a few iterations and are suppressed); growth-step alarms pass
    through immediately.

    The first ``warmup`` observations are a learning phase: clusters born
    then describe normal operating conditions and never alarm, exactly as
    a training period would establish the benign cluster population.
    """

    def __init__(
        self,
        state: MixtureState,
        *,
        step_factor: float = 10.0,
        lag: int = 50,
        min_history: int = 10,
        survival_horizon: int = 20,
        min_survivors: int = 2,
        warmup: int = 50,
    ) -> None:
        self.state = state
        self.tracks: dict[int, ClusterTrack] = {}
        self.step_factor = step_factor
        self.lag = lag
        self.min_history = min_history
        self.survival_horizon = survival_horizon
        self.min_survivors = min_survivors
        self.warmup = warmup
        # Cluster id -> ordinal of its birth, for births awaiting confirmation.
        self._pending: dict[int, int] = {}
        self.n_observed = 0

    def process(self, count: int, energy: float) -> list[AlarmEvent]:
        """Observe one hit; returns the confirmed alarms it released."""
        ordinal = self.n_observed
        outcome = observe(count, self.state)
        self.n_observed += 1
        for alarm in outcome.alarms:
            if alarm.kind == "new_cluster" and ordinal >= self.warmup:
                self._pending[alarm.cluster_id] = ordinal
        confirmed = self._settle_pending()
        growth = update_tracks(
            self.tracks,
            outcome.cluster_id,
            ordinal,
            count,
            energy,
            step_factor=self.step_factor,
            lag=self.lag,
            min_history=self.min_history,
        )
        if ordinal >= self.warmup:
            confirmed.extend(growth)
        return confirmed

    def _settle_pending(self) -> list[AlarmEvent]:
        confirmed: list[AlarmEvent] = []
        for cluster_id, born in list(self._pending.items()):
            cluster = self.state.clusters.get(cluster_id)
            if cluster is not None and self.n_observed - born < self.survival_horizon:
                continue
            # Collapsed (sampler noise, not damage) or at its horizon: settled.
            del self._pending[cluster_id]
            if cluster is not None and cluster.n_members >= self.min_survivors:
                confirmed.append(
                    AlarmEvent(
                        time=self.n_observed - 1,
                        kind="new_cluster",
                        cluster_id=cluster_id,
                        magnitude=float(cluster.n_members),
                    )
                )
        return confirmed
