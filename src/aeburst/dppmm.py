"""Dirichlet-process Poisson mixture inferred by collapsed Gibbs sampling
with merge–split moves.

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

Randomness is consumed exclusively as uniform variates from two counted
streams seeded from the run seed, which makes runs replayable from the
seed and the two draw counts alone.  The Gibbs stream ``rng`` gives one
draw per categorical sample: a sweep over N data makes exactly N draws and
takes their uniforms from it N at a time.  The move stream ``moves``,
seeded from ``(seed, 1)``, feeds ``merge_split`` alone, so the moves never
shift the Gibbs stream.

Single-site Gibbs cannot merge two large clusters of identical counts:
moving one datum between them is nearly neutral, so one of them would
have to empty by a random walk.  ``fit`` therefore follows every sweep
with one ``merge_split`` move, which merges or splits whole clusters in
one Metropolis–Hastings step (Jain & Neal 2004, *JCGS* 13(1)).

A sweep visits the data in ascending count, a fixed scan set by the data
alone that leaves the posterior invariant as data order does; the runs
of equal counts are found once per chain and kept on the state.  A sweep
reuses its work exactly: a log weight is a pure function of a cluster's
``(n, s)`` and the count, so the live clusters' weights are kept from one
sweep to the next.  The sweep, ``predictive_rows`` and ``monitor.observe``
read them through the one ``_live_rows``, so every weight the sampler
draws or reports comes from the same path.  A datum that returns to the
cluster it left leaves the state unchanged, so the next equal count
leaving it needs only its own uniform.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .distributions import GammaParams, log_predictive, predictive_terms

__all__ = [
    "NOISE",
    "Hyperparams",
    "ClusterStats",
    "MixtureState",
    "UniformStream",
    "FitResult",
    "predictive_rows",
    "gibbs_sweep",
    "merge_split",
    "fit",
    "audit",
    "posterior_mean_rate",
    "state_to_json_dict",
    "state_from_json_dict",
    "data_digest",
]

# The table key of the background column; cluster ids are never negative.
NOISE = -1


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
    fresh stream to that position.  Stream 0 is seeded from ``seed`` and
    stream ``k > 0`` from ``(seed, k)``, so one seed gives independent
    streams.
    """

    __slots__ = ("seed", "draws", "_gen")

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.draws = 0
        self._gen = np.random.default_rng([self.seed, int(stream)] if stream else self.seed)

    def random(self) -> float:
        self.draws += 1
        return float(self._gen.random())

    def take(self, n: int) -> list[float]:
        """The next ``n`` values of ``random()``, drawn in one batch."""
        return self.array(n).tolist()

    def array(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``random()`` as a float64 array."""
        self.draws += n
        return self._gen.random(n)

    @classmethod
    def resume(cls, seed: int, draws: int, stream: int = 0) -> "UniformStream":
        if draws < 0:
            raise ValueError(f"draws must be >= 0, got {draws}")
        # Each double from ``random()`` is exactly one PCG64 step.
        resumed = cls(seed, stream)
        resumed._gen.bit_generator.advance(int(draws))
        resumed.draws = int(draws)
        return resumed


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

    A state is mutated by exactly one writer at a time, via ``append_datum``,
    ``gibbs_sweep`` and ``merge_split``.  It holds each cluster's ``(n, s)``
    and nothing derived from them: weights are computed where they are
    taken.  Cluster ids are minted from ``next_cluster_id`` and never reused
    within a run.  All of the sampler's randomness comes from ``rng`` (Gibbs
    steps and ``observe``'s gate) and ``moves`` (``merge_split``), both
    seeded from the run seed, so the state document records both positions.
    """

    hyper: Hyperparams
    data: list[int] = field(default_factory=list)
    assignments: list[int] = field(default_factory=list)
    clusters: dict[int, ClusterStats] = field(default_factory=dict)
    rng: UniformStream = field(default_factory=lambda: UniformStream(0))
    moves: UniformStream = field(default_factory=lambda: UniformStream(0, 1))
    next_cluster_id: int = 0
    # The sweep's kept work, never serialised: the runs ``_scan_plan`` finds and
    # the log weights ``_row`` computes.
    _plan: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def empty(cls, hyper: Hyperparams, rng_seed: int = 0) -> "MixtureState":
        return cls(hyper=hyper, rng=UniformStream(rng_seed), moves=UniformStream(rng_seed, 1))

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


def _row(state: MixtureState, n: int, s: int) -> tuple[tuple, dict]:
    """The ``predictive_terms`` and ``{x: log weight}`` of a cluster of ``n``
    members summing to ``s`` (NEW's at ``(0, 0)``), kept in ``state._rows``:
    a log weight is a pure function of ``(n, s, x)``."""
    found = state._rows.get((n, s))
    if found is None:
        log_c = math.log(n) if n else math.log(state.hyper.alpha)
        found = state._rows[n, s] = (predictive_terms(state.hyper.base, n, s, log_c), {})
    return found


def _live_rows(state: MixtureState) -> list[tuple[tuple, dict]]:
    """The ``_row`` of each live cluster in ascending id, then NEW's; every
    other kept row is dropped."""
    live = [(c.n_members, c.sum_x) for c in state.clusters.values()] + [(0, 0)]
    kept = state._rows
    state._rows = {key: kept[key] for key in live if key in kept}
    return [_row(state, n, s) for n, s in live]


def _weights(rows: list[tuple[tuple, dict]], x: int, lgamma_x1: float) -> list[float]:
    """The log weight of count ``x`` in each ``_row``, computed on first use."""
    return [w[x] if x in w else w.setdefault(x, log_predictive(t, x, lgamma_x1)) for t, w in rows]


def _scan_plan(state: MixtureState) -> dict[int, list[int]]:
    """The sweep's scan, ``{count: indices}`` in ascending count with each
    run of equal counts in data order, kept on the state: the data appended
    since the last sweep join their runs."""
    plan, data = state._plan, state.data
    runs = len(plan)
    for i in range(sum(map(len, plan.values())), len(data)):
        plan.setdefault(data[i], []).append(i)
    if len(plan) > runs:
        state._plan = plan = dict(sorted(plan.items()))
    return plan


def _stay_interval(cum: list[float], j: int) -> tuple[float, float]:
    """``(lo, hi)``: ``lo <= t < hi`` exactly when ``bisect_right(cum, t)``,
    clamped to the last slot, picks slot ``j``."""
    return (cum[j - 1] if j else -math.inf), (cum[j] if j < len(cum) - 1 else math.inf)


def predictive_rows(state: MixtureState, values: Sequence[int]) -> np.ndarray:
    """New-datum assignment probabilities of each count in ``values``.

    Row ``i`` is the log weights of ``values[i]`` in ``_live_rows``,
    max-subtracted, exponentiated and divided by their sum: one column per
    live cluster in ascending id, then NEW.
    """
    routes = _live_rows(state)
    exp = math.exp
    log_ws = [_weights(routes, x, math.lgamma(x + 1)) for x in map(int, values)]
    raws = [[exp(w - top) for w in log_w] for log_w, top in zip(log_ws, map(max, log_ws))]
    # Float64 division rounds as Python's ``/`` does.
    totals = np.array(list(map(sum, raws))).reshape(-1, 1)
    return np.array(raws).reshape(len(values), len(routes)) / totals


def gibbs_sweep(state: MixtureState, *, diagnostics: dict | None = None) -> MixtureState:
    """One full sweep: every datum resampled once, in ascending count.

    Ties go in data order, and the t-th datum visited takes the t-th of the
    N uniforms, taken from ``state.rng`` in one batch.  Each step removes
    the datum from its cluster (deleting the cluster if emptied), draws its
    assignment from the leave-one-out weights and adds it back, minting a
    fresh id on a NEW draw, in one loop over slot lists of the live
    clusters plus NEW in creation order; the step-by-step reference it must
    match exactly is ``tests/sampler_oracle.py``.  Given ``diagnostics``,
    records ``joint_log_weight`` (the sum of the chosen entries'
    unnormalised log weights) and ``flips``.

    No known work is redone, and all reuse is exact.  The scan
    (``_scan_plan``) and the live clusters' log weights (``_row``) outlive
    the sweep.  A run of equal counts starts from each slot's ``attached``
    weight, and a flip updates the two slots it changes; a step copies them
    and puts in the weight of the cluster it left without the datum.  A stay
    leaves the state as it was, so until a flip or the run's end the next
    datum leaving that cluster meets the same weights: ``steps`` keeps its
    ``_stay_interval``, total and weight, and it stays when ``lo <= u *
    total < hi``.  Else it draws ``bisect_right(cum, u * total)`` clamped
    to the last slot, the oracle's ``scan``, with ``total = sum(raw)``.  A
    flip into a live cluster leaves the state that step drew from for the
    next equal count leaving that cluster, so its step is known too.
    """
    assignments, clusters = state.assignments, state.clusters
    exp, lgamma = math.exp, math.lgamma
    ids: list[int | None] = [*clusters, None]
    stats = list(clusters.values())
    slots = _live_rows(state)
    rows = state._rows
    uniforms = iter(state.rng.take(len(state.data)))
    joint, flips = 0.0, 0
    for x, members in _scan_plan(state).items():
        lgamma_x1 = lgamma(x + 1)
        attached = _weights(slots, x, lgamma_x1)
        steps: dict = {}
        current = None  # The cluster left whose step is unpacked below.
        for i, u in zip(members, uniforms):
            left = assignments[i]
            if left != current:
                current, step = left, steps.get(left)
                if step is None:
                    j = ids.index(left)
                    cluster = stats[j]
                    n, s = cluster.n_members - 1, cluster.sum_x - x
                    log_w = attached.copy()
                    if n:
                        t, w = detached = rows.get((n, s)) or _row(state, n, s)
                        log_w[j] = w[x] if x in w else w.setdefault(
                            x, log_predictive(t, x, lgamma_x1)
                        )
                    else:
                        # An emptied cluster is deleted, so this step flips.
                        del clusters[left], ids[j], stats[j], slots[j], attached[j], log_w[j]
                        j, detached = -1, None
                    top = max(log_w)
                    raw = [exp(w - top) for w in log_w]
                    cum = list(accumulate(raw))
                    lo, hi = _stay_interval(cum, j) if n else (math.inf, math.inf)
                    step = steps[left] = (lo, hi, sum(raw), log_w[j], (log_w, cum, j, detached))
                lo, hi, total, stay, flip = step
            target = u * total
            if lo <= target < hi:
                joint += stay
                continue
            log_w, cum, j, detached = flip
            idx = min(bisect_right(cum, target), len(cum) - 1)
            joint += log_w[idx]
            flips += 1
            steps.clear()
            current = None
            if detached is not None:
                cluster = stats[j]
                cluster.n_members, cluster.sum_x = cluster.n_members - 1, cluster.sum_x - x
                slots[j], attached[j] = detached, log_w[j]
            if idx == len(stats):
                cluster = state.mint_cluster()
                ids.insert(idx, cluster.id)
                stats.append(cluster)
                slots.insert(idx, None)
                attached.insert(idx, 0.0)
            else:
                # Without the next equal count in cluster idx, the state is
                # the one this step drew from: the same weights, stay slot idx.
                lo, hi = _stay_interval(cum, idx)
                steps[ids[idx]] = (lo, hi, total, log_w[idx], (log_w, cum, idx, slots[idx]))
            cluster = stats[idx]
            n, s = cluster.n_members + 1, cluster.sum_x + x
            cluster.n_members, cluster.sum_x = n, s
            slots[idx] = t, w = rows.get((n, s)) or _row(state, n, s)
            attached[idx] = w[x] if x in w else w.setdefault(x, log_predictive(t, x, lgamma_x1))
            assignments[i] = cluster.id
    if diagnostics is not None:
        diagnostics["joint_log_weight"] = joint
        diagnostics["flips"] = flips
    return state


def _block_log_marginal(base: GammaParams, n: int, s: int) -> float:
    """``M(n, s)``: the log marginal likelihood of ``n`` counts summing to
    ``s`` under one Gamma-distributed rate, without the ``prod 1/x!`` term
    that every partition of the same data shares."""
    a, b = base.shape, base.rate
    return a * math.log(b) - math.lgamma(a) + math.lgamma(a + s) - (a + s) * math.log(b + n)


def merge_split(state: MixtureState, data: np.ndarray) -> bool:
    """One merge–split Metropolis–Hastings move; True if it was accepted.

    ``data`` is ``state.data`` as an int64 array.  The move draws two
    distinct data ``i`` and ``j`` uniformly.  If they sit in different
    clusters A and B it proposes their union; if they share a cluster C of
    ``n`` members it draws ``k`` uniformly from ``1 .. n-1`` and proposes
    the split into S1, ``i`` plus the ``k - 1`` other members (neither ``i``
    nor ``j``) with the smallest of ``n - 2`` uniforms, and S2, the rest,
    which holds ``j``.  A merge is accepted with probability
    ``min(1, exp(M(A+B) - M(A) - M(B)) / alpha)`` and a split with
    ``min(1, alpha * exp(M(S1) + M(S2) - M(C)))``, ``M`` as in
    ``_block_log_marginal``.

    Derivation.  The partition posterior is proportional to
    ``alpha**K * prod Gamma(n_c) * prod exp(M(c))`` over blocks, times the
    shared ``prod 1/x!``.  Given ``(i, j)``, which both directions draw with
    the same probability, the merge is proposed with probability one and
    the split it reverses, with ``n1 = |S1| = k``, with probability
    ``1 / ((n - 1) * C(n - 2, k - 1))``.  Since ``(n - 1) * C(n - 2, k - 1)
    = Gamma(n) / (Gamma(n1) * Gamma(n2))``, the proposal ratio cancels the
    process prior's ``Gamma(n1) * Gamma(n2) / Gamma(n)`` exactly, and
    neither K nor N is left in either ratio.

    Each move takes four uniforms from ``state.moves`` (``i``, ``j``, ``k``
    and the acceptance draw, ``k`` unused by a merge), plus ``n - 2`` when
    it proposes a split; with fewer than two data it takes none.  A merge
    decides from the two clusters' ``(n, s)`` and relabels only when
    accepted.  Ids stay stable: a merge keeps the lower (older) id and
    retires the other for good; an accepted split mints a fresh id for the
    smaller part (S1 on a tie) and leaves the larger under C's id.  The
    table averages by id, so a split that peels a few members off a
    cluster must not rename the rest of it.
    """
    n_data = len(state.data)
    if n_data < 2:
        return False
    u_i, u_j, u_k, u_accept = state.moves.take(4)
    i = int(u_i * n_data)
    j = int(u_j * (n_data - 1))
    j += j >= i
    assignments, clusters = state.assignments, state.clusters
    base, alpha = state.hyper.base, state.hyper.alpha
    home_i, home_j = assignments[i], assignments[j]
    if home_i != home_j:
        a, b = clusters[home_i], clusters[home_j]
        log_ratio = (
            _block_log_marginal(base, a.n_members + b.n_members, a.sum_x + b.sum_x)
            - _block_log_marginal(base, a.n_members, a.sum_x)
            - _block_log_marginal(base, b.n_members, b.sum_x)
            - math.log(alpha)
        )
        if log_ratio < 0 and u_accept >= math.exp(log_ratio):
            return False
        keep, gone = (a, b) if a.id < b.id else (b, a)
        keep.n_members += gone.n_members
        keep.sum_x += gone.sum_x
        del clusters[gone.id]
        for t in [t for t, c in enumerate(assignments) if c == gone.id]:
            assignments[t] = keep.id
        return True
    cluster = clusters[home_i]
    n = cluster.n_members
    k = 1 + int(u_k * (n - 1))
    labels = np.fromiter(assignments, np.int64, n_data)
    labels[i] = labels[j] = -1
    others = (labels == home_i).nonzero()[0]
    # The others in an order whose first k - 1 hold the smallest uniforms.
    uniforms = state.moves.array(n - 2)
    order = uniforms.argpartition(k - 2) if k > 1 else np.arange(n - 2)
    joined = others[order[: k - 1]]
    s1 = int(data[i] + data[joined].sum())
    log_ratio = (
        math.log(alpha)
        + _block_log_marginal(base, k, s1)
        + _block_log_marginal(base, n - k, cluster.sum_x - s1)
        - _block_log_marginal(base, n, cluster.sum_x)
    )
    if log_ratio < 0 and u_accept >= math.exp(log_ratio):
        return False
    if k <= n - k:
        leaving, n_leaving, s_leaving = [i, *joined.tolist()], k, s1
    else:
        leaving = [j, *others[order[k - 1 :]].tolist()]
        n_leaving, s_leaving = n - k, cluster.sum_x - s1
    part = state.mint_cluster()
    part.n_members, part.sum_x = n_leaving, s_leaving
    cluster.n_members -= n_leaving
    cluster.sum_x -= s_leaving
    for t in leaving:
        assignments[t] = part.id
    return True


@dataclass
class FitResult:
    """Final sampler state, the predictive table and per-sweep diagnostics.

    ``table`` is a float64 array with one row per distinct count of the
    data, in ascending count, and ``index[i]`` is the row of datum ``i``'s
    count, so ``table[index]`` is one row per datum.  A row is the
    new-datum assignment probabilities of its count (``predictive_rows``)
    after each post-burn-in sweep and move, averaged over those sweeps and
    matched by key, with ``0.0`` where a key was not live.  In each such
    state the largest cluster (the lowest id on a tie) is the background:
    its entry goes under ``NOISE``, not under its id.  The other clusters
    go under their stable ids, so clusters that die and re-form contribute
    under distinct ids.  ``columns`` names the columns in ascending key,
    ``NOISE`` first and ``None`` for NEW last, the order of
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

    All data start in a single component.  Each sweep is one
    ``gibbs_sweep`` followed by one ``merge_split`` move.  Reported labels
    are those of the final sweep and move; after each sweep from
    ``burn_in`` on, every distinct count's ``predictive_rows`` row is added
    into ``table``, the largest cluster's entry under ``NOISE``; the table
    takes no uniforms.  The two streams stay apart:
    the Gibbs stream ``state.rng`` makes exactly ``sweeps * len(data)``
    draws, and the moves draw from ``state.moves`` alone.  Every sweep in
    the budget runs.

    An empty dataset returns an empty state rather than raising; it means
    "no events" downstream.
    """
    if sweeps <= burn_in or burn_in < 0:
        raise ValueError(
            f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}"
        )
    data_array = np.asarray(data, dtype=np.int64)
    values, index = np.unique(data_array, return_inverse=True)
    state = MixtureState.init_single_cluster(data, hyper, rng_seed)
    counts = values.tolist()
    sums: dict[int | None, np.ndarray] = {}
    cluster_counts: list[int] = []
    joint_log_weights: list[float] = []
    sweeps_run = sweeps if data else 0
    for sweep_idx in range(sweeps_run):
        diag: dict = {}
        gibbs_sweep(state, diagnostics=diag)
        merge_split(state, data_array)
        cluster_counts.append(state.n_clusters)
        joint_log_weights.append(diag["joint_log_weight"])
        if sweep_idx >= burn_in:
            rows = predictive_rows(state, counts)
            noise = max(state.clusters, key=lambda k: state.clusters[k].n_members)
            keys = [NOISE if k == noise else k for k in state.clusters]
            for key, column in zip([*keys, None], rows.T):
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

    True iff there is one assignment per datum, the stored statistics
    match the assignments exactly, every retained cluster is non-empty, and
    memberships account for all data.
    """
    if len(state.assignments) != len(state.data):
        return False
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
    cluster table, and the positions of both streams for exact resume."""
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
        "move_draws": state.moves.draws,
    }


def state_from_json_dict(doc: dict, data: Iterable[int]) -> MixtureState:
    """Rebuild a state from its JSON document plus the original data.

    The data is not stored in the document; it must be supplied and is
    checked against the recorded digest.  Both streams are fast-forwarded
    to their recorded draw counts, so sampling resumes exactly; a document
    without ``move_draws`` predates the moves and made none.  The version
    must be 1, and every count, id, seed and assignment a JSON integer.
    Cluster ids must lie in ``[0, next_cluster_id)``, or a minted id would
    overwrite one or be ``NOISE``'s.
    """
    if doc.get("format") != "dp-poisson-mixture-state":
        raise ValueError("not a mixture-state document")
    rows, rng_draws, move_draws = doc["clusters"], doc["rng_draws"], doc.get("move_draws", 0)
    for name, values in {
        "version": [doc.get("version")],
        "draw counts": [rng_draws, move_draws],
        "next_cluster_id": [doc["next_cluster_id"]],
        "rng_seed": [doc["rng_seed"]],
        "assignments": doc["assignments"],
        "cluster fields": [r[k] for r in rows for k in ("id", "n_members", "sum_x", "created_at")],
    }.items():
        # type() rather than isinstance(): JSON true/false decode to bool.
        wrong = [v for v in values if type(v) is not int]
        if wrong:
            raise ValueError(f"{name} must be integers, got {wrong[0]!r}")
    if doc["version"] != 1:
        raise ValueError(f"unsupported state document version {doc['version']}")
    counts = [int(x) for x in data]
    if data_digest(counts) != doc["data_digest"]:
        raise ValueError("supplied data does not match the recorded digest")
    hyper = Hyperparams(doc["alpha"], GammaParams(doc["base_shape"], doc["base_rate"]))
    state = MixtureState(
        hyper=hyper,
        data=counts,
        assignments=list(doc["assignments"]),
        rng=UniformStream.resume(doc["rng_seed"], rng_draws),
        moves=UniformStream.resume(doc["rng_seed"], move_draws, stream=1),
        next_cluster_id=doc["next_cluster_id"],
    )
    for row in sorted(rows, key=lambda r: r["id"]):
        cluster = ClusterStats(row["id"], row["created_at"])
        cluster.n_members, cluster.sum_x = row["n_members"], row["sum_x"]
        state.clusters[cluster.id] = cluster
    if state.next_cluster_id < 0 or not all(
        0 <= k < state.next_cluster_id for k in state.clusters
    ):
        raise ValueError(
            f"next_cluster_id must be >= 0 and above every cluster id, got {state.next_cluster_id}"
        )
    if not audit(state):
        raise ValueError("state document is inconsistent with the supplied data")
    return state
