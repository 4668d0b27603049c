"""Step-by-step collapsed Gibbs sampler, the reference for ``gibbs_sweep``.

Each step is written out once, from the public weights of ``aeburst.dppmm``:
detach a datum from its cluster, draw its assignment from the
leave-one-out weights with one uniform, and attach it again.  The fused
kernel must reproduce these steps exactly, so the tests compare the two
with ``==``.  ``greedy_pick`` is the reference for ``observe``'s greedy
path: an argmax whose tie rules do not depend on the order of its input.
"""

import math

from aeburst.dppmm import (
    MixtureState,
    UniformStream,
    _exp_weights,
    _scan,
    assignment_log_weights,
)


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

    Returns the drawn key, the normalised probabilities keyed like
    ``weights``, and the unnormalised log weight of the drawn entry.
    """
    raw, total = _exp_weights(weights)
    idx = _scan(raw, rng.random() * total)
    probs = {k: w / total for (k, _), w in zip(weights, raw)}
    return weights[idx][0], probs, weights[idx][1]


def resample_step(state: MixtureState, index: int):
    """Detach, draw from ``state.rng`` and attach datum ``index``.

    Returns the cluster id it left, the normalised probabilities of the
    draw, and the unnormalised log weight of the drawn entry.
    """
    left = detach_datum(state, index)
    choice, probs, log_w = draw_assignment(
        assignment_log_weights(state.data[index], state), state.rng
    )
    attach_datum(state, index, choice)
    return left, probs, log_w


def reference_sweep(state: MixtureState, accumulate=None):
    """One sweep of ``resample_step`` in data order; returns (joint, flips)."""
    joint, flips = 0.0, 0
    for i in range(len(state.data)):
        left, probs, log_w = resample_step(state, i)
        joint += log_w
        flips += state.assignments[i] != left
        if accumulate is not None:
            for key, p in probs.items():
                accumulate[i][key] = accumulate[i].get(key, 0.0) + p
    return joint, flips
