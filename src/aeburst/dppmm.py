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
creation and never reused within a run, so per-datum assignment
probabilities can be averaged across sweeps without label-switching
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
from array import array
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
    "ProbabilitySums",
    "assignment_log_weights",
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


def assignment_log_weights(x: int, state: MixtureState) -> list[tuple[int | None, float]]:
    """Unnormalised log assignment weights of a count over clusters plus NEW.

    One ``(cluster_id, log_weight)`` entry per retained component in
    ascending creation order, followed by ``(None, log_weight)`` for the
    empty-component route.
    """
    x = int(x)
    lgamma_x1 = math.lgamma(x + 1)
    base = state.hyper.base
    out = []
    for k, c in state.clusters.items():
        terms = predictive_terms(base, c.n_members, c.sum_x, math.log(c.n_members))
        out.append((k, log_predictive(terms, x, lgamma_x1)))
    # The empty-component route: log(alpha) plus the prior predictive.
    terms = predictive_terms(base, 0, 0, math.log(state.hyper.alpha))
    out.append((None, log_predictive(terms, x, lgamma_x1)))
    return out


def _exp_weights(weights: Sequence[tuple[int | None, float]]) -> tuple[list[float], float]:
    """Max-subtracted exponentials of log weights, and their sum."""
    top = max(w for _, w in weights)
    raw = [math.exp(w - top) for _, w in weights]
    return raw, sum(raw)


class ProbabilitySums:
    """Per-datum sums of normalised assignment probabilities over sweeps.

    ``by_key`` holds one float64 array of length N per key (stable cluster
    id, or ``None`` for NEW), made the first time the key is live at some
    datum's step; at a step where the key is not live it receives exact
    ``0.0``, so every sum is the one a dict per datum would hold.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.sweeps = 0
        self.by_key: dict[int | None, np.ndarray] = {}

    def add_sweep(
        self,
        keys: list,
        groups: list[tuple[int, list[int]]],
        raw: array,
        totals: array,
        used: list[int],
    ) -> None:
        """Add one sweep's probabilities, held as ``gibbs_sweep`` leaves them.

        The sweep's entries are numbered in the order they were made; entry
        ``e`` has total ``totals[e]`` and its raw weights are the next
        ``len(cols)`` values of ``raw``, one per column of ``cols``, a row of
        ``keys``.  ``groups`` lists ``(first entry, cols)`` each time the
        columns changed, and ``used[i]`` is the entry datum ``i`` drew from.
        Every entry is drawn from, so a column of a group with entries is
        live at some datum's step.
        """
        drawn = np.array(used, dtype=np.intp)
        values, totals = np.frombuffer(raw), np.frombuffer(totals)
        probs = np.zeros((totals.size, len(keys)))
        stops = [start for start, _ in groups[1:]] + [totals.size]
        live: set[int] = set()
        offset = 0
        for (start, cols), stop in zip(groups, stops):
            if stop == start:
                continue
            end = offset + (stop - start) * len(cols)
            block = values[offset:end].reshape(stop - start, len(cols))
            probs[start:stop, cols] = block / totals[start:stop, None]
            offset = end
            live.update(cols)
        for c in live:
            key, row = keys[c], probs[drawn, c]
            if key in self.by_key:
                self.by_key[key] += row
            else:
                self.by_key[key] = row  # 0.0 + p is p
        self.sweeps += 1

    def mean(self) -> tuple[np.ndarray, list[int | None]]:
        """The ``(N, C)`` mean over the added sweeps and its columns, the
        keys in ascending id with ``None`` (NEW) last.

        Each key's sum is released as its column is written, so the peak is
        one ``N x C`` float64 array plus one column; the sums are consumed.
        """
        columns = sorted(self.by_key, key=lambda k: (k is None, k))
        out = np.empty((self.n, len(columns)))
        for column, key in zip(out.T, columns):
            np.divide(self.by_key.pop(key), self.sweeps, out=column)
        return out, columns


def gibbs_sweep(
    state: MixtureState,
    *,
    diagnostics: dict | None = None,
    accumulate: ProbabilitySums | None = None,
) -> MixtureState:
    """One full sweep: every datum resampled once, in data order.

    Each step removes the datum from its cluster (deleting the cluster if
    emptied), draws its assignment from the leave-one-out weights and adds
    it back, minting a fresh id on a NEW draw.  The steps run in one loop
    over slot lists of the live clusters plus NEW, in creation order, with
    the N uniforms taken from ``state.rng`` in one batch; the step-by-step
    reference it must match exactly is ``tests/sampler_oracle.py``.
    Returns the updated state.  Given ``accumulate``, each datum's
    normalised assignment probabilities, keyed by stable cluster id
    (``None`` for NEW), are added into it after the sweep.  Given
    ``diagnostics``, records ``joint_log_weight`` (the sum of the
    chosen entries' unnormalised log weights) and ``flips`` (number of
    assignments that changed).

    Two sweep-local tables skip work whose result is already known, and
    both are exact.  ``rows`` maps a cluster statistic ``(n, s)`` to its
    ``predictive_terms`` tuple and a ``{x: log weight}`` memo (NEW has its
    own memo): a log weight is a pure function of ``(n, s, x)``, so the
    table starts from the live clusters' statistics and ends with the sweep.  ``steps``
    maps ``(slot left, x)`` to that step's log weights, cumulative weights,
    total, detached row and entry number: a datum that returns to the
    cluster it left (a stay) leaves the state as it found it, so until the
    next flip clears the table the same key meets the same weights.  The
    draw ``bisect_right(cumulative, u * total)``, clamped to the last slot,
    is the first slot whose cumulative weight exceeds ``u * total`` (the
    oracle's ``scan``), and ``total`` is ``sum(raw)`` as in ``_exp_weights``.

    Accumulating, the sweep appends each entry's raw weights and total to
    two float64 arrays.  ``cols`` holds the sweep-local column of each live
    id; it is rebuilt only when an id is minted or deleted, and ``groups``
    notes from which entry on each rebuild holds.  Each datum records one
    int, the entry it drew from, and ``ProbabilitySums`` turns the entries
    into ``raw / total`` rows and gathers them per datum.
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
    keys, cols = [*ids], list(range(len(ids)))
    groups = [(0, cols)]
    raws, totals, used = array("d"), array("d"), []

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
                cols = cols[:j] + cols[j + 1 :]
                groups.append((len(totals), cols))
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
            step = steps[j, x] = (log_w, cum, total, detached, len(totals))
            if accumulate is not None:
                raws.fromlist(raw)
                totals.append(total)
        log_w, cum, total, detached, entry = step
        idx = min(bisect_right(cum, uniforms[i] * total), len(cum) - 1)
        if accumulate is not None:
            used.append(entry)
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
            cols = [*cols[:-1], len(keys), cols[-1]]
            groups.append((len(totals), cols))
            keys.append(cluster.id)
        cluster = stats[idx]
        n, s = cluster.n_members + 1, cluster.sum_x + x
        cluster.n_members, cluster.sum_x = n, s
        slots[idx] = row(n, s)
        assignments[i] = cluster.id
    if accumulate is not None:
        accumulate.add_sweep(keys, groups, raws, totals, used)
    if diagnostics is not None:
        diagnostics["joint_log_weight"] = joint
        diagnostics["flips"] = flips
    return state


@dataclass
class FitResult:
    """Final sampler state plus per-sweep diagnostics.

    ``mean_probabilities`` is an ``(N, C)`` float64 array: each datum's
    normalised assignment probabilities averaged over post-burn-in sweeps,
    matched by stable cluster id, with ``0.0`` where a key was not live;
    clusters that die and re-form contribute under distinct ids.
    ``columns`` names its columns: ascending cluster id, then ``None`` for
    NEW, the order of ``MixtureState.clusters`` and of the sweep's slots, in
    which ``average_probabilities`` sums them.
    """

    state: MixtureState
    mean_probabilities: np.ndarray
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
    the final sweep; only the sweeps after ``burn_in`` accumulate
    ``mean_probabilities``.  Every sweep in the budget runs.

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
            mean_probabilities=np.zeros((0, 0)),
            columns=[],
            cluster_counts=[],
            joint_log_weights=[],
            sweeps_run=0,
        )
    state = MixtureState.init_single_cluster(data, hyper, rng_seed)
    sums = ProbabilitySums(len(state.data))
    cluster_counts: list[int] = []
    joint_log_weights: list[float] = []
    for sweep_idx in range(sweeps):
        diag: dict = {}
        averaging = sweep_idx >= burn_in
        gibbs_sweep(state, diagnostics=diag, accumulate=sums if averaging else None)
        cluster_counts.append(state.n_clusters)
        joint_log_weights.append(diag["joint_log_weight"])
    mean_probabilities, columns = sums.mean()
    return FitResult(
        state=state,
        mean_probabilities=mean_probabilities,
        columns=columns,
        cluster_counts=cluster_counts,
        joint_log_weights=joint_log_weights,
        sweeps_run=sweeps,
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
