"""Dirichlet-process Poisson mixture inferred by collapsed Gibbs sampling.

Counts are partitioned into an unbounded set of Poisson components.  The
mixing weights and per-component rates are integrated out analytically
(Gamma/Poisson and Dirichlet/multinomial conjugacy), so the sampler
resamples only the assignment of each datum.  A datum joins a retained
component with weight proportional to

    c_k * NB(x; a + sum_k, (c_k + b) / (c_k + b + 1))

where ``c_k`` and ``sum_k`` are the component's member count and count sum
with the datum itself removed, or opens a fresh component with weight

    alpha * NB(x; a, b / (b + 1))

i.e. the concentration times the prior predictive.  All weights are
combined in log space with max-subtraction normalisation.

Component identity is stable: every cluster carries an id minted at
creation and never reused within a run, so per-datum assignment
probabilities can be averaged across sweeps without label-switching
heuristics; a cluster that dies and re-forms is a distinct cluster.

Randomness is consumed exclusively as uniform variates from a counted,
seeded stream (one draw per categorical sample), which makes runs
replayable from ``(seed, draw count)`` alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .distributions import GammaParams

__all__ = [
    "Hyperparams",
    "ClusterStats",
    "MixtureState",
    "UniformStream",
    "FitResult",
    "assignment_log_weights",
    "normalize_log_weights",
    "draw_assignment",
    "crp_prior",
    "resample_one",
    "gibbs_sweep",
    "fit",
    "audit",
    "greedy_pick",
    "posterior_mean_rate",
    "state_to_json_dict",
    "state_from_json_dict",
    "data_digest",
]


@dataclass(frozen=True)
class Hyperparams:
    """Concentration ``alpha`` and Gamma base measure of the process."""

    alpha: float
    base: GammaParams

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")


class UniformStream:
    """Seeded uniform(0, 1) source with a draw counter for exact replay.

    Every categorical draw in the sampler consumes exactly one uniform, so
    ``(seed, draws)`` pins the stream position; ``resume`` fast-forwards a
    fresh stream to that position.
    """

    __slots__ = ("seed", "draws", "_gen")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.draws = 0
        self._gen = np.random.default_rng(self.seed)

    def random(self) -> float:
        self.draws += 1
        return float(self._gen.random())

    @classmethod
    def resume(cls, seed: int, draws: int) -> "UniformStream":
        # Each double from ``random()`` is exactly one PCG64 step.
        stream = cls(seed)
        stream._gen.bit_generator.advance(int(draws))
        stream.draws = int(draws)
        return stream


def _terms(log_c: float, n: int, s: int, base: GammaParams) -> tuple:
    """Count-independent pieces of ``log_c + log NB(x; a + s, (b + n)/(b + n + 1))``.

    ``n`` and ``s`` are the member count and count sum the weight conditions
    on (zero for the empty-component route) and ``log_c`` its log prior mass.
    """
    r = base.shape + s
    gamma_rate = base.rate + n
    log1p_g = math.log1p(gamma_rate)
    return (log_c, r, math.lgamma(r), r * (math.log(gamma_rate) - log1p_g), log1p_g)


def _log_weight(terms: tuple, x: int, lgamma_x1: float) -> float:
    """Unnormalised log weight of count ``x``; ``lgamma_x1`` is ``lgamma(x + 1)``."""
    log_c, r, lgamma_r, r_log_p, log1p_g = terms
    return (
        log_c
        + math.lgamma(x + r)
        - lgamma_r
        - lgamma_x1
        + r_log_p
        - x * log1p_g
    )


class ClusterStats:
    """Sufficient statistics of one non-empty component.

    ``terms`` caches the count-independent pieces of the component's log
    weight (see ``_terms``); the owning ``MixtureState`` refreshes it
    whenever a member is attached or detached.
    """

    __slots__ = ("id", "n_members", "sum_x", "created_at", "terms")

    def __init__(self, cluster_id: int, created_at: int) -> None:
        self.id = int(cluster_id)
        self.n_members = 0
        self.sum_x = 0
        self.created_at = int(created_at)
        self.terms: tuple = ()


@dataclass
class MixtureState:
    """Assignments, per-cluster statistics, and hyperparameters of the mixture.

    A state is mutated by exactly one writer at a time, through
    ``append_datum``, ``detach_datum`` and ``attach_datum``, which keep each
    cluster's cached weight terms current.  Cluster ids are minted from
    ``next_cluster_id`` and never reused within a run.
    """

    hyper: Hyperparams
    data: list[int] = field(default_factory=list)
    assignments: list[int] = field(default_factory=list)
    clusters: dict[int, ClusterStats] = field(default_factory=dict)
    rng: UniformStream = field(default_factory=lambda: UniformStream(0))
    next_cluster_id: int = 0

    def __post_init__(self) -> None:
        # The empty-component route: log(alpha) + log NB(x; a, b/(b+1)).
        self._new_terms = _terms(math.log(self.hyper.alpha), 0, 0, self.hyper.base)

    @classmethod
    def empty(cls, hyper: Hyperparams, rng_seed: int = 0) -> "MixtureState":
        return cls(hyper=hyper, rng=UniformStream(rng_seed))

    @classmethod
    def init_single_cluster(
        cls, data: Sequence[int], hyper: Hyperparams, rng_seed: int = 0
    ) -> "MixtureState":
        """All data assigned to one component, the sampler's starting point."""
        state = cls.empty(hyper, rng_seed)
        shared: int | None = None
        for x in data:
            shared = state.append_datum(int(x), shared)
        return state

    @property
    def rng_seed(self) -> int:
        return self.rng.seed

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def __len__(self) -> int:
        return len(self.data)

    def mint_cluster(self) -> ClusterStats:
        cluster = ClusterStats(self.next_cluster_id, len(self.data))
        self.clusters[cluster.id] = cluster
        self.next_cluster_id += 1
        return cluster

    def _set_stats(self, cluster: ClusterStats, n_members: int, sum_x: int) -> None:
        """Set a cluster's statistics and refresh its cached weight terms."""
        cluster.n_members = n_members
        cluster.sum_x = sum_x
        if n_members > 0:
            cluster.terms = _terms(math.log(n_members), n_members, sum_x, self.hyper.base)

    def append_datum(self, x: int, cluster_id: int | None) -> int:
        """Append a datum assigned to ``cluster_id`` (None mints a cluster).

        Returns the id the datum ended up in.
        """
        if x < 0:
            raise ValueError(f"counts must be non-negative, got {x}")
        target = self.mint_cluster() if cluster_id is None else self.clusters[cluster_id]
        self.data.append(int(x))
        self.assignments.append(target.id)
        self._set_stats(target, target.n_members + 1, target.sum_x + int(x))
        return target.id

    def detach_datum(self, index: int) -> int:
        """Remove datum ``index`` from its cluster, deleting the cluster if emptied.

        The datum stays in ``data``; only its membership is dissolved.
        Returns the cluster id it was detached from.
        """
        k = self.assignments[index]
        cluster = self.clusters[k]
        self._set_stats(cluster, cluster.n_members - 1, cluster.sum_x - self.data[index])
        if cluster.n_members == 0:
            del self.clusters[k]
        return k

    def attach_datum(self, index: int, cluster_id: int | None) -> int:
        """Re-attach datum ``index`` to a cluster (None mints a fresh one)."""
        target = self.mint_cluster() if cluster_id is None else self.clusters[cluster_id]
        self._set_stats(target, target.n_members + 1, target.sum_x + self.data[index])
        self.assignments[index] = target.id
        return target.id


def assignment_log_weights(
    x: int, state: MixtureState, excluding: int | None = None
) -> list[tuple[int | None, float]]:
    """Unnormalised log assignment weights of a count over clusters plus NEW.

    One ``(cluster_id, log_weight)`` entry per retained component in
    ascending creation order, followed by ``(None, log_weight)`` for the
    empty-component route.  With ``excluding`` set, that datum's statistics
    are removed from its cluster before weighting and a cluster emptied by
    the removal is skipped entirely.
    """
    if excluding is not None and not 0 <= excluding < len(state.data):
        raise ValueError(f"excluding index {excluding} out of range")
    x = int(x)
    lgamma_x1 = math.lgamma(x + 1)
    excl_cluster = state.assignments[excluding] if excluding is not None else None
    out: list[tuple[int | None, float]] = []
    for k, cluster in state.clusters.items():
        terms = cluster.terms
        if k == excl_cluster:
            n = cluster.n_members - 1
            if n == 0:
                continue
            s = cluster.sum_x - state.data[excluding]
            terms = _terms(math.log(n), n, s, state.hyper.base)
        out.append((k, _log_weight(terms, x, lgamma_x1)))
    out.append((None, _log_weight(state._new_terms, x, lgamma_x1)))
    return out


def normalize_log_weights(
    weights: Sequence[tuple[int | None, float]],
) -> list[tuple[int | None, float]]:
    """Normalise log weights into probabilities via max-subtraction."""
    top = max(w for _, w in weights)
    raw = [(k, math.exp(w - top)) for k, w in weights]
    total = sum(w for _, w in raw)
    return [(k, w / total) for k, w in raw]


def crp_prior(state: MixtureState, excluding: int) -> list[tuple[int | None, float]]:
    """Partition prior over clusters plus NEW with one datum held out.

    Each retained cluster receives ``c_k / (alpha + N - 1)`` and the
    empty-component route ``alpha / (alpha + N - 1)``; the entries sum to
    one exactly because the cluster counts sum to ``N - 1``.
    """
    if not 0 <= excluding < len(state.data):
        raise ValueError(f"excluding index {excluding} out of range")
    alpha = state.hyper.alpha
    n_total = len(state.data)
    denom = alpha + n_total - 1
    excl_cluster = state.assignments[excluding]
    out: list[tuple[int | None, float]] = []
    for k, cluster in state.clusters.items():
        c = cluster.n_members - (1 if k == excl_cluster else 0)
        if c == 0:
            continue
        out.append((k, c / denom))
    out.append((None, alpha / denom))
    return out


def greedy_pick(weights: Sequence[tuple[int | None, float]]) -> int | None:
    """Highest-weight key; ties resolved toward the lowest cluster id.

    The NEW route (key ``None``) loses ties against any retained cluster.
    """
    best_key: int | None = None
    best_w = -math.inf
    for key, w in weights:
        if w > best_w:
            best_key, best_w = key, w
        elif w == best_w and best_key is None and key is not None:
            best_key = key
        elif w == best_w and key is not None and best_key is not None and key < best_key:
            best_key = key
    return best_key


def draw_assignment(
    weights: Sequence[tuple[int | None, float]], rng: UniformStream
) -> tuple[int | None, dict[int | None, float], float]:
    """Single categorical draw from log weights, consuming one uniform.

    Returns the drawn key, the normalised probabilities keyed like
    ``weights``, and the unnormalised log weight of the drawn entry.
    """
    top = max(w for _, w in weights)
    raw = [math.exp(w - top) for _, w in weights]
    total = sum(raw)
    target = rng.random() * total
    acc = 0.0
    idx = len(weights) - 1
    for i, w in enumerate(raw):
        acc += w
        if target < acc:
            idx = i
            break
    probs = {k: w / total for (k, _), w in zip(weights, raw)}
    return weights[idx][0], probs, weights[idx][1]


def resample_one(
    state: MixtureState,
    index: int,
    rng: UniformStream | None = None,
    *,
    greedy: bool = False,
) -> MixtureState:
    """Resample the assignment of one datum in place.

    The datum is detached (its cluster deleted if emptied), a new
    assignment is drawn from the normalised leave-one-out weights, and the
    statistics are re-added; a NEW draw mints a fresh cluster id.  With
    ``greedy`` the draw is replaced by the argmax rule (lowest id wins
    ties), consuming no randomness.
    """
    if not 0 <= index < len(state.data):
        raise ValueError(f"index {index} out of range")
    state.detach_datum(index)
    weights = assignment_log_weights(state.data[index], state)
    if greedy:
        choice = greedy_pick(weights)
    else:
        choice, _, _ = draw_assignment(weights, rng if rng is not None else state.rng)
    state.attach_datum(index, choice)
    return state


def gibbs_sweep(
    state: MixtureState,
    rng: UniformStream | None = None,
    *,
    diagnostics: dict | None = None,
) -> tuple[MixtureState, list[dict[int | None, float]]]:
    """One full sweep: every datum resampled once, in data order.

    Returns the updated state and, per datum, the normalised assignment
    probabilities it saw during this sweep (keyed by stable cluster id,
    ``None`` for the empty-component route).  When a ``diagnostics`` dict
    is supplied, the sweep records ``joint_log_weight`` (the sum over data
    of the chosen entry's unnormalised log weight) and ``flips`` (number
    of assignments that changed).
    """
    if rng is None:
        rng = state.rng
    sweep_probs: list[dict[int | None, float]] = []
    joint = 0.0
    flips = 0
    for i, x in enumerate(state.data):
        before = state.detach_datum(i)
        choice, probs, chosen_log_w = draw_assignment(
            assignment_log_weights(x, state), rng
        )
        joint += chosen_log_w
        if state.attach_datum(i, choice) != before:
            flips += 1
        sweep_probs.append(probs)
    if diagnostics is not None:
        diagnostics["joint_log_weight"] = joint
        diagnostics["flips"] = flips
    return state, sweep_probs


@dataclass
class FitResult:
    """Final sampler state plus per-sweep diagnostics.

    ``mean_probabilities`` averages each datum's normalised assignment
    probabilities over post-burn-in sweeps, matched by stable cluster id;
    clusters that die and re-form contribute under distinct ids.
    """

    state: MixtureState
    mean_probabilities: list[dict[int | None, float]]
    cluster_counts: list[int]
    joint_log_weights: list[float]
    sweeps_run: int


def fit(
    data: Sequence[int],
    hyper: Hyperparams,
    sweeps: int,
    burn_in: int = 0,
    rng_seed: int = 0,
    *,
    early_stop: bool = False,
    early_stop_patience: int = 10,
    early_stop_flip_fraction: float = 0.01,
) -> FitResult:
    """Run the collapsed Gibbs sampler for a fixed sweep budget.

    All data start in a single component.  Reported labels are those of
    the final sweep.  With ``early_stop``, sampling halts once the cluster
    count is unchanged and fewer than ``early_stop_flip_fraction`` of
    assignments flip for ``early_stop_patience`` consecutive post-burn-in
    sweeps.

    An empty dataset returns an empty state rather than raising; it means
    "no events" downstream.
    """
    if sweeps <= burn_in or burn_in < 0:
        raise ValueError(
            f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}"
        )
    if not data:
        return FitResult(
            state=MixtureState.empty(hyper, rng_seed),
            mean_probabilities=[],
            cluster_counts=[],
            joint_log_weights=[],
            sweeps_run=0,
        )
    state = MixtureState.init_single_cluster(data, hyper, rng_seed)
    n = len(state.data)
    accumulated: list[dict[int | None, float]] = [dict() for _ in range(n)]
    averaged_sweeps = 0
    cluster_counts: list[int] = []
    joint_log_weights: list[float] = []
    stable_streak = 0
    sweeps_run = 0
    for sweep_idx in range(sweeps):
        diag: dict = {}
        _, sweep_probs = gibbs_sweep(state, diagnostics=diag)
        sweeps_run += 1
        cluster_counts.append(state.n_clusters)
        joint_log_weights.append(diag["joint_log_weight"])
        if sweep_idx >= burn_in:
            averaged_sweeps += 1
            for acc, probs in zip(accumulated, sweep_probs):
                for key, p in probs.items():
                    acc[key] = acc.get(key, 0.0) + p
        if early_stop and sweep_idx >= burn_in:
            unchanged = (
                len(cluster_counts) >= 2 and cluster_counts[-1] == cluster_counts[-2]
            )
            if unchanged and diag["flips"] < early_stop_flip_fraction * n:
                stable_streak += 1
                if stable_streak >= early_stop_patience:
                    break
            else:
                stable_streak = 0
    mean_probabilities = [
        {key: total / averaged_sweeps for key, total in acc.items()}
        for acc in accumulated
    ]
    return FitResult(
        state=state,
        mean_probabilities=mean_probabilities,
        cluster_counts=cluster_counts,
        joint_log_weights=joint_log_weights,
        sweeps_run=sweeps_run,
    )


def audit(state: MixtureState) -> bool:
    """Recompute every cluster's statistics from scratch and compare.

    True iff the stored statistics match the assignments exactly, every
    retained cluster is non-empty, and memberships account for all data.
    """
    recomputed: dict[int, tuple[int, int]] = {}
    for x, k in zip(state.data, state.assignments):
        n, s = recomputed.get(k, (0, 0))
        recomputed[k] = (n + 1, s + x)
    if set(recomputed) != set(state.clusters):
        return False
    for k, (n, s) in recomputed.items():
        cluster = state.clusters[k]
        if cluster.n_members != n or cluster.sum_x != s:
            return False
    return sum(c.n_members for c in state.clusters.values()) == len(state.data)


def posterior_mean_rate(cluster: ClusterStats, base: GammaParams) -> float:
    """Posterior-mean Poisson rate of a component: (sum_x + a) / (n + b)."""
    return (cluster.sum_x + base.shape) / (cluster.n_members + base.rate)


def data_digest(data: Sequence[int]) -> str:
    """SHA-256 digest of the count sequence (comma-joined decimal)."""
    payload = ",".join(str(int(x)) for x in data).encode("ascii")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def state_to_json_dict(state: MixtureState) -> dict:
    """Serialisable document: hyperparameters, data digest, assignments,
    cluster table, and the rng position for exact resume."""
    return {
        "format": "dp-poisson-mixture-state",
        "version": 1,
        "alpha": state.hyper.alpha,
        "base_shape": state.hyper.base.shape,
        "base_rate": state.hyper.base.rate,
        "n_data": len(state.data),
        "data_digest": data_digest(state.data),
        "assignments": list(state.assignments),
        "clusters": [
            {
                "id": c.id,
                "n_members": c.n_members,
                "sum_x": c.sum_x,
                "created_at": c.created_at,
            }
            for c in state.clusters.values()
        ],
        "next_cluster_id": state.next_cluster_id,
        "rng_seed": state.rng.seed,
        "rng_draws": state.rng.draws,
    }


def state_from_json_dict(doc: dict, data: Iterable[int]) -> MixtureState:
    """Rebuild a state from its JSON document plus the original data.

    The data is not stored in the document; it must be supplied and is
    checked against the recorded digest.  The rng stream is fast-forwarded
    to the recorded draw count, so sampling resumes exactly.
    """
    if doc.get("format") != "dp-poisson-mixture-state":
        raise ValueError("not a mixture-state document")
    counts = [int(x) for x in data]
    if data_digest(counts) != doc["data_digest"]:
        raise ValueError("supplied data does not match the recorded digest")
    hyper = Hyperparams(doc["alpha"], GammaParams(doc["base_shape"], doc["base_rate"]))
    state = MixtureState(
        hyper=hyper,
        data=counts,
        assignments=[int(k) for k in doc["assignments"]],
        rng=UniformStream.resume(doc["rng_seed"], doc["rng_draws"]),
        next_cluster_id=int(doc["next_cluster_id"]),
    )
    for row in sorted(doc["clusters"], key=lambda r: r["id"]):
        cluster = ClusterStats(row["id"], row["created_at"])
        state._set_stats(cluster, int(row["n_members"]), int(row["sum_x"]))
        state.clusters[cluster.id] = cluster
    if not audit(state):
        raise ValueError("state document is inconsistent with the supplied data")
    return state
