"""Step-by-step collapsed Gibbs sampler, the reference for ``gibbs_sweep``.

Each step is written out once, from the public weights of ``aeburst.dppmm``:
detach a datum from its cluster, draw its assignment from the
leave-one-out weights with one uniform, and attach it again.  The fused
kernel must reproduce these steps exactly, so the tests compare the two
with ``==``.  ``greedy_pick`` is the reference for ``observe``'s greedy
path: an argmax whose tie rules do not depend on the order of its input.
``reference_table`` averages each count's new-datum probabilities over
``reference_fit``'s post-burn-in states, one dict per count; ``dense`` lays
such dicts out as the library's array, its columns in ``id_order``:
ascending id, NEW last.
"""

import copy
import math

import numpy as np

from aeburst.dppmm import (
    MixtureState,
    UniformStream,
    _exp_weights,
    assignment_log_weights,
)


def scan(raw, target: float) -> int:
    """First index whose cumulative weight exceeds ``target`` (the last if none).

    The categorical draw rule, written as a running sum; the library draws
    with ``bisect_right`` over the cumulative weights, clamped to the last
    index, which ``test_bisect_draw_is_scan`` shows is the same index.
    """
    acc = 0.0
    for i, w in enumerate(raw):
        acc += w
        if target < acc:
            return i
    return len(raw) - 1


def detach_datum(state: MixtureState, index: int) -> int:
    """Remove datum ``index`` from its cluster, deleting the cluster if emptied.

    The datum stays in ``data``; only its membership is dissolved.
    Returns the cluster id it was detached from.
    """
    k = state.assignments[index]
    cluster = state.clusters[k]
    cluster.n_members -= 1
    cluster.sum_x -= state.data[index]
    if cluster.n_members == 0:
        del state.clusters[k]
    return k


def attach_datum(state: MixtureState, index: int, cluster_id: int | None) -> int:
    """Re-attach datum ``index`` to a cluster (None mints a fresh one)."""
    target = state.mint_cluster() if cluster_id is None else state.clusters[cluster_id]
    target.n_members += 1
    target.sum_x += state.data[index]
    state.assignments[index] = target.id
    return target.id


def greedy_pick(weights):
    """Highest-weight key; ties resolved toward the lowest cluster id.

    The NEW route (key ``None``) loses ties against any retained cluster.
    """
    best_key = None
    best_w = -math.inf
    for key, w in weights:
        if w > best_w:
            best_key, best_w = key, w
        elif w == best_w and best_key is None and key is not None:
            best_key = key
        elif w == best_w and key is not None and best_key is not None and key < best_key:
            best_key = key
    return best_key


def normalize_log_weights(weights):
    """Normalise log weights into probabilities via max-subtraction."""
    raw, total = _exp_weights(weights)
    return [(k, w / total) for (k, _), w in zip(weights, raw)]


def crp_prior(state: MixtureState, excluding: int):
    """Partition prior over clusters plus NEW with one datum held out.

    Each retained cluster receives ``c_k / (alpha + N - 1)`` and the
    empty-component route ``alpha / (alpha + N - 1)``; the entries sum to
    one exactly because the cluster counts sum to ``N - 1``.
    """
    if not 0 <= excluding < len(state.data):
        raise ValueError(f"excluding index {excluding} out of range")
    alpha = state.hyper.alpha
    denom = alpha + len(state.data) - 1
    held_out = state.assignments[excluding]
    out = []
    for k, cluster in state.clusters.items():
        c = cluster.n_members - (k == held_out)
        if c:
            out.append((k, c / denom))
    out.append((None, alpha / denom))
    return out


def draw_assignment(weights, rng: UniformStream):
    """Single categorical draw from log weights, consuming one uniform.

    Returns the drawn key and the unnormalised log weight of the drawn entry.
    """
    raw, total = _exp_weights(weights)
    idx = scan(raw, rng.random() * total)
    return weights[idx]


def resample_step(state: MixtureState, index: int):
    """Detach, draw from ``state.rng`` and attach datum ``index``.

    Returns the cluster id it left and the unnormalised log weight of the
    drawn entry.
    """
    left = detach_datum(state, index)
    choice, log_w = draw_assignment(
        assignment_log_weights(state.data[index], state), state.rng
    )
    attach_datum(state, index, choice)
    return left, log_w


def reference_sweep(state: MixtureState):
    """One sweep of ``resample_step`` in data order; returns (joint, flips)."""
    joint, flips = 0.0, 0
    for i in range(len(state.data)):
        left, log_w = resample_step(state, i)
        joint += log_w
        flips += state.assignments[i] != left
    return joint, flips


def reference_fit(data, hyper, sweeps, burn_in, seed):
    """``fit`` by ``reference_sweep``: the final state, each sweep's joint
    log weight, and a copy of the clusters after each post-burn-in sweep,
    held as a state without data."""
    state = MixtureState.init_single_cluster(data, hyper, seed)
    joints, kept = [], []
    for sweep in range(sweeps):
        joints.append(reference_sweep(state)[0])
        if sweep >= burn_in:
            kept.append(MixtureState(hyper, clusters=copy.deepcopy(state.clusters)))
    return state, joints, kept


def reference_table(states, values):
    """One dict per count of ``values``: ``normalize_log_weights`` of its
    ``assignment_log_weights`` in each state, summed per key in state order
    and divided by the number of states."""
    sums = [{} for _ in values]
    for state in states:
        for acc, x in zip(sums, values):
            for key, p in normalize_log_weights(assignment_log_weights(x, state)):
                acc[key] = acc.get(key, 0.0) + p
    return [{key: total / len(states) for key, total in acc.items()} for acc in sums]


def id_order(keys):
    """The distinct keys, ascending cluster id with ``None`` (NEW) last."""
    return sorted(set(keys), key=lambda k: (k is None, k))


def dense(dicts):
    """``(array, columns)``: one row per dict, ``0.0`` where a key is absent,
    one column per key of the dicts in ``id_order``."""
    columns = id_order(key for d in dicts for key in d)
    rows = [[d.get(key, 0.0) for key in columns] for d in dicts]
    return np.array(rows, dtype=float).reshape(len(dicts), len(columns)), columns
