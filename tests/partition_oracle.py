"""Exact posterior of the Poisson mixture by enumerating set partitions.

The one enumeration the tests compare the sampler with: AC-3 and the unit
tests measure the partition frequencies of Gibbs sweeps, of merge–split
moves alone and of both as ``fit`` runs them against
``exact_partition_posterior`` with ``partition_tv``, and
``new_datum_probabilities`` gives the exact values that ``dppmm.fit``'s
predictive table estimates.  Block
marginal likelihoods come in closed form from the Gamma-Poisson integral,
written out here rather than taken from the library.
"""

import math


def block_log_marginal(counts, a, b):
    """Log marginal likelihood of ``counts`` sharing one Gamma(a, b) rate."""
    s, n = sum(counts), len(counts)
    return (
        a * math.log(b)
        - math.lgamma(a)
        + math.lgamma(a + s)
        - (a + s) * math.log(b + n)
        - sum(math.lgamma(x + 1.0) for x in counts)
    )


def set_partitions(items):
    """Every set partition of ``items``, each once, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def exact_partition_posterior(data, alpha, a, b):
    """Posterior probability of every partition of the data's indices.

    A partition's weight is the process prior, ``alpha**K`` times the
    product of ``(|block| - 1)!``, times the product of its blocks' marginal
    likelihoods.  Keys are ``canonical_partition`` values.
    """
    weights = {}
    for blocks in set_partitions(list(range(len(data)))):
        log_w = len(blocks) * math.log(alpha)
        log_w += sum(math.lgamma(len(block)) for block in blocks)
        log_w += sum(block_log_marginal([data[i] for i in block], a, b) for block in blocks)
        weights[frozenset(frozenset(block) for block in blocks)] = math.exp(log_w)
    total = sum(weights.values())
    return {key: value / total for key, value in weights.items()}


def partition_tv(freq, exact):
    """Total variation between sampled partition counts ``freq`` and the
    exact posterior ``exact``, both keyed by ``canonical_partition``."""
    n_samples = sum(freq.values())
    return 0.5 * sum(
        abs(exact.get(key, 0.0) - freq.get(key, 0) / n_samples)
        for key in set(exact) | set(freq)
    )


def canonical_partition(assignments):
    """The partition of data indices that a label list induces."""
    blocks = {}
    for index, label in enumerate(assignments):
        blocks.setdefault(label, []).append(index)
    return frozenset(frozenset(block) for block in blocks.values())


def new_datum_probabilities(data, x, alpha, a, b, i=0):
    """``(P(NEW), P(joins datum i's block))`` for a new datum of count ``x``.

    Given a partition, the new datum joins a block with weight ``|block|``
    times the predictive of ``x`` given the block's counts, and opens a new
    block with weight ``alpha`` times the prior predictive.  Both normalised
    probabilities are averaged over the exact partition posterior.
    """
    p_new = p_home = 0.0
    for partition, weight in exact_partition_posterior(data, alpha, a, b).items():
        log_new = math.log(alpha) + block_log_marginal([x], a, b)
        joins = {}
        for block in partition:
            counts = [data[j] for j in block]
            joins[block] = (
                math.log(len(block))
                + block_log_marginal(counts + [x], a, b)
                - block_log_marginal(counts, a, b)
            )
        top = max(log_new, *joins.values())
        total = math.exp(log_new - top) + sum(math.exp(w - top) for w in joins.values())
        home = next(block for block in partition if i in block)
        p_new += weight * math.exp(log_new - top) / total
        p_home += weight * math.exp(joins[home] - top) / total
    return p_new, p_home
