"""Dirichlet-process Poisson mixture inferred by collapsed Gibbs sampling.

Counts are partitioned into an unbounded set of Poisson components.  The
mixing weights and per-component rates are integrated out analytically
(Gamma/Poisson and Dirichlet/multinomial conjugacy), so the sampler
resamples only the assignment of each datum.  A datum joins a retained
component with weight proportional to its member count ``c_k`` times the
negative-binomial posterior predictive of the count given the members,
both with the datum itself removed, or opens a fresh component with
weight ``alpha`` times the prior predictive.  Each log weight is
``distributions.log_predictive`` with ``log_c`` the log of that mass, the
formula the background detector also scores with.  All weights are
combined in log space with max-subtraction normalisation.

Component identity is stable: every cluster carries an id minted at
creation and never reused within a run, so the assignment probabilities
of a new datum can be averaged across sweeps without label-switching
heuristics; a cluster that dies and re-forms is a distinct cluster.

Randomness is consumed exclusively as uniform variates from a counted,
seeded stream (one draw per categorical sample), which makes runs
replayable from ``(seed, draw count)`` alone.  A sweep over N data makes
exactly N draws and takes their uniforms from the stream N at a time.

Window counts are mostly background and take few distinct values, so a
sweep reuses what it has already computed, bit for bit: a log weight is a
pure function of a cluster's ``(n, s)`` and the count ``x``, and a datum
that returns to the cluster it left leaves the state as it found it, so
the next datum with the same count leaving that cluster meets the same
weights and needs only its own uniform (see ``gibbs_sweep``).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .distributions import GammaParams, log_predictive, predictive_terms

__all__ = [
    "Hyperparams",
    "ClusterStats",
    "MixtureState",
    "UniformStream",
    "FitResult",
    "assignment_log_weights",
    "predictive_rows",
    "gibbs_sweep",
    "fit",
    "audit",
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

    def take(self, n: int) -> list[float]:
        """The next ``n`` values of ``random()``, drawn in one batch."""
        self.draws += n
        return self._gen.random(n).tolist()

    @classmethod
    def resume(cls, seed: int, draws: int) -> "UniformStream":
        # Each double from ``random()`` is exactly one PCG64 step.
        stream = cls(seed)
        stream._gen.bit_generator.advance(int(draws))
        stream.draws = int(draws)
        return stream


class ClusterStats:
    """Sufficient statistics of one non-empty component: its member count
    ``n_members`` and count sum ``sum_x``, all its assignment weight needs."""

    __slots__ = ("id", "n_members", "sum_x", "created_at")

    def __init__(self, cluster_id: int, created_at: int) -> None:
        self.id = int(cluster_id)
        self.n_members = 0
        self.sum_x = 0
        self.created_at = int(created_at)


@dataclass
class MixtureState:
    """Assignments, per-cluster statistics, and hyperparameters of the mixture.

    A state is mutated by exactly one writer at a time, via ``append_datum``
    and ``gibbs_sweep``.  It holds each cluster's ``(n, s)`` and nothing
    derived from them: weights are computed where they are taken.  Cluster
    ids are minted from ``next_cluster_id`` and never reused within a run.
    All of the sampler's randomness comes from ``rng``, so the state
    document always records the stream position.
    """

    hyper: Hyperparams
    data: list[int] = field(default_factory=list)
    assignments: list[int] = field(default_factory=list)
    clusters: dict[int, ClusterStats] = field(default_factory=dict)
    rng: UniformStream = field(default_factory=lambda: UniformStream(0))
    next_cluster_id: int = 0

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
    def n_clusters(self) -> int:
        return len(self.clusters)

    def mint_cluster(self) -> ClusterStats:
        cluster = ClusterStats(self.next_cluster_id, len(self.data))
        self.clusters[cluster.id] = cluster
        self.next_cluster_id += 1
        return cluster

    def append_datum(self, x: int, cluster_id: int | None) -> int:
        """Append a datum assigned to ``cluster_id`` (None mints a cluster).

        Returns the id the datum ended up in.
        """
        if x < 0:
            raise ValueError(f"counts must be non-negative, got {x}")
        target = self.mint_cluster() if cluster_id is None else self.clusters[cluster_id]
        self.data.append(int(x))
        self.assignments.append(target.id)
        target.n_members += 1
        target.sum_x += int(x)
        return target.id


def _routes(state: MixtureState) -> list[tuple[int | None, tuple]]:
    """``predictive_terms`` of each live cluster in ascending id, then NEW's."""
    base = state.hyper.base
    routes: list[tuple[int | None, tuple]] = [
        (k, predictive_terms(base, c.n_members, c.sum_x, math.log(c.n_members)))
        for k, c in state.clusters.items()
    ]
    # The empty-component route: log(alpha) plus the prior predictive.
    routes.append((None, predictive_terms(base, 0, 0, math.log(state.hyper.alpha))))
    return routes


def _log_weights(
    x: int, routes: list[tuple[int | None, tuple]]
) -> list[tuple[int | None, float]]:
    lgamma_x1 = math.lgamma(x + 1)
    return [(k, log_predictive(terms, x, lgamma_x1)) for k, terms in routes]


def assignment_log_weights(x: int, state: MixtureState) -> list[tuple[int | None, float]]:
    """Unnormalised log assignment weights of a count over clusters plus NEW.

    One ``(cluster_id, log_weight)`` entry per retained component in
    ascending creation order, followed by ``(None, log_weight)`` for the
    empty-component route.
    """
    return _log_weights(int(x), _routes(state))


def _exp_weights(weights: Sequence[tuple[int | None, float]]) -> tuple[list[float], float]:
    """Max-subtracted exponentials of log weights, and their sum."""
    top = max(w for _, w in weights)
    raw = [math.exp(w - top) for _, w in weights]
    return raw, sum(raw)


def predictive_rows(state: MixtureState, values: Sequence[int]) -> np.ndarray:
    """New-datum assignment probabilities of each count in ``values``.

    Row ``i`` is ``assignment_log_weights(values[i], state)`` normalised, bit
    for bit: one column per live cluster in ascending id, then NEW.  The
    count-independent terms are computed once for all rows.
    """
    routes = _routes(state)
    rows = []
    for x in values:
        raw, total = _exp_weights(_log_weights(int(x), routes))
        rows.append([w / total for w in raw])
    return np.array(rows).reshape(len(values), len(routes))


def gibbs_sweep(state: MixtureState, *, diagnostics: dict | None = None) -> MixtureState:
    """One full sweep: every datum resampled once, in data order.

    Each step removes the datum from its cluster (deleting the cluster if
    emptied), draws its assignment from the leave-one-out weights and adds
    it back, minting a fresh id on a NEW draw.  The steps run in one loop
    over slot lists of the live clusters plus NEW, in creation order, with
    the N uniforms taken from ``state.rng`` in one batch; the step-by-step
    reference it must match exactly is ``tests/sampler_oracle.py``.
    Returns the updated state.  Given ``diagnostics``, records
    ``joint_log_weight`` (the sum of the chosen entries' unnormalised log
    weights) and ``flips`` (number of assignments that changed).

    Two sweep-local tables skip work whose result is already known, and
    both are exact.  ``rows`` maps a cluster statistic ``(n, s)`` to its
    ``predictive_terms`` tuple and a ``{x: log weight}`` memo (NEW has its
    own memo): a log weight is a pure function of ``(n, s, x)``, so the
    table starts from the live clusters' statistics and ends with the sweep.  ``steps``
    maps ``(slot left, x)`` to that step's log weights, cumulative weights,
    total and detached row: a datum that returns to the cluster it left (a
    stay) leaves the state as it found it, so until the next flip clears
    the table the same key meets the same weights.  The draw
    ``bisect_right(cumulative, u * total)``, clamped to the last slot, is the
    first slot whose cumulative weight exceeds ``u * total`` (the oracle's
    ``scan``), and ``total`` is ``sum(raw)`` as in ``_exp_weights``.
    """
    data, assignments, clusters = state.data, state.assignments, state.clusters
    base = state.hyper.base
    exp, log = math.exp, math.log
    lgamma_x1 = {x: math.lgamma(x + 1) for x in set(data)}
    rows: dict = {}
    steps: dict = {}

    def row(n: int, s: int) -> tuple:
        key = (n, s)
        return rows[key] if key in rows else rows.setdefault(
            key, (predictive_terms(base, n, s, log(n)), {})
        )

    ids: list[int | None] = [*clusters, None]
    stats = list(clusters.values())
    new_route = (predictive_terms(base, 0, 0, log(state.hyper.alpha)), {})
    slots = [row(c.n_members, c.sum_x) for c in stats] + [new_route]

    uniforms = state.rng.take(len(data))
    joint, flips = 0.0, 0
    for i, x in enumerate(data):
        left = assignments[i]
        j = ids.index(left)
        step = steps.get((j, x))
        if step is None:
            cluster = stats[j]
            n, s = cluster.n_members - 1, cluster.sum_x - x
            if n:
                detached = row(n, s)
                saved, slots[j] = slots[j], detached
            else:
                # An emptied cluster is deleted, so this step flips and its
                # entry in ``steps`` is cleared at once.
                del clusters[left], ids[j], stats[j], slots[j]
                j, detached = -1, None
            log_w = [
                memo[x] if x in memo
                else memo.setdefault(x, log_predictive(terms, x, lgamma_x1[x]))
                for terms, memo in slots
            ]
            if n:
                slots[j] = saved
            top = max(log_w)
            raw = [exp(w - top) for w in log_w]
            total = sum(raw)
            cum = list(itertools.accumulate(raw))
            step = steps[j, x] = (log_w, cum, total, detached)
        log_w, cum, total, detached = step
        idx = min(bisect_right(cum, uniforms[i] * total), len(cum) - 1)
        joint += log_w[idx]
        if idx == j:
            continue
        flips += 1
        steps.clear()
        if detached is not None:
            cluster = stats[j]
            cluster.n_members, cluster.sum_x = cluster.n_members - 1, cluster.sum_x - x
            slots[j] = detached
        if idx == len(stats):
            cluster = state.mint_cluster()
            ids.insert(idx, cluster.id)
            stats.append(cluster)
            slots.insert(idx, ())
        cluster = stats[idx]
        n, s = cluster.n_members + 1, cluster.sum_x + x
        cluster.n_members, cluster.sum_x = n, s
        slots[idx] = row(n, s)
        assignments[i] = cluster.id
    if diagnostics is not None:
        diagnostics["joint_log_weight"] = joint
        diagnostics["flips"] = flips
    return state


@dataclass
class FitResult:
    """Final sampler state, the predictive table and per-sweep diagnostics.

    ``table`` is a float64 array with one row per distinct count of the
    data, in ascending count, and ``index[i]`` is the row of datum ``i``'s
    count, so ``table[index]`` is one row per datum.  A row is the
    new-datum assignment probabilities of its count (``predictive_rows``)
    after each post-burn-in sweep, averaged over those sweeps and matched
    by stable cluster id, with ``0.0`` where a key was not live; clusters
    that die and re-form contribute under distinct ids.  ``columns`` names
    its columns: ascending cluster id, then ``None`` for NEW, the order of
    ``MixtureState.clusters``, in which ``average_probabilities`` sums them.
    """

    state: MixtureState
    table: np.ndarray
    index: np.ndarray
    columns: list[int | None]
    cluster_counts: list[int]
    joint_log_weights: list[float]
    sweeps_run: int


def fit(
    data: Sequence[int],
    hyper: Hyperparams,
    sweeps: int,
    burn_in: int = 0,
    rng_seed: int = 0,
) -> FitResult:
    """Run the collapsed Gibbs sampler for a fixed sweep budget.

    All data start in a single component.  Reported labels are those of
    the final sweep; after each sweep from ``burn_in`` on, every distinct
    count's ``predictive_rows`` row is added into ``table``, which takes no
    uniforms, so the stream makes exactly ``sweeps * len(data)`` draws.
    Every sweep in the budget runs.

    An empty dataset returns an empty state rather than raising; it means
    "no events" downstream.
    """
    if sweeps <= burn_in or burn_in < 0:
        raise ValueError(
            f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}"
        )
    values, index = np.unique(np.asarray(data, dtype=np.int64), return_inverse=True)
    state = MixtureState.init_single_cluster(data, hyper, rng_seed)
    counts = values.tolist()
    sums: dict[int | None, np.ndarray] = {}
    cluster_counts: list[int] = []
    joint_log_weights: list[float] = []
    sweeps_run = sweeps if data else 0
    for sweep_idx in range(sweeps_run):
        diag: dict = {}
        gibbs_sweep(state, diagnostics=diag)
        cluster_counts.append(state.n_clusters)
        joint_log_weights.append(diag["joint_log_weight"])
        if sweep_idx >= burn_in:
            rows = predictive_rows(state, counts)
            for key, column in zip([*state.clusters, None], rows.T):
                sums[key] = sums.get(key, 0.0) + column
    columns = sorted(sums, key=lambda k: (k is None, k))
    table = np.empty((len(counts), len(columns)))
    for column, key in zip(table.T, columns):
        np.divide(sums[key], sweeps - burn_in, out=column)
    return FitResult(
        state=state,
        table=table,
        index=index,
        columns=columns,
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
        cluster.n_members, cluster.sum_x = int(row["n_members"]), int(row["sum_x"])
        state.clusters[cluster.id] = cluster
    if not audit(state):
        raise ValueError("state document is inconsistent with the supplied data")
    return state
