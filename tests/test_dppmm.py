"""Collapsed Gibbs sampler for the Poisson mixture with a process prior.

The assignment weights are checked against brute-force evaluation with
quadrature negative-binomial marginals, and the sampler itself against
exact partition-posterior enumeration on a tiny dataset.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from aeburst.distributions import GammaParams
from aeburst.dppmm import (
    Hyperparams,
    MixtureState,
    UniformStream,
    assignment_log_weights,
    audit,
    crp_prior,
    data_digest,
    fit,
    gibbs_sweep,
    greedy_pick,
    normalize_log_weights,
    posterior_mean_rate,
    resample_one,
    state_from_json_dict,
    state_to_json_dict,
)

UNIT = Hyperparams(alpha=1.0, base=GammaParams(1.0, 1.0))


def quad_marginal(x: int, shape: float, rate: float) -> float:
    """Quadrature of the Poisson-Gamma integral, independent of the library."""

    def integrand(lam):
        return (
            math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))
            * stats.gamma(a=shape, scale=1.0 / rate).pdf(lam)
        )

    hi = stats.gamma(a=shape, scale=1.0 / rate).ppf(1 - 1e-13) + 10 * x + 50
    value, _ = integrate.quad(integrand, 0.0, hi, limit=400)
    return value


def brute_force_weights(x, clusters, alpha, a, b):
    """Reference evaluation of the assignment weights.

    ``clusters`` is a list of (n_members, sum_x) pairs.
    """
    weights = [
        c * quad_marginal(x, a + s, b + c) for c, s in clusters
    ]
    weights.append(alpha * quad_marginal(x, a, b))
    return weights


def state_with_clusters(cluster_data, hyper=UNIT, seed=0):
    """A state whose clusters hold exactly the given count lists."""
    state = MixtureState.empty(hyper, seed)
    for counts in cluster_data:
        cluster_id = None
        for x in counts:
            cluster_id = state.append_datum(x, cluster_id)
    assert audit(state)
    return state


class TestAssignmentLogWeights:
    def test_no_clusters_puts_all_mass_on_new(self):
        state = MixtureState.empty(UNIT, 0)
        weights = assignment_log_weights(3, state)
        assert [k for k, _ in weights] == [None]
        probs = dict(normalize_log_weights(weights))
        assert probs[None] == pytest.approx(1.0)

    def test_prior_predictive_at_zero(self):
        # With a = b = 1 the fresh-component weight at x = 0 is alpha / 2.
        state = MixtureState.empty(UNIT, 0)
        (key, log_w), = assignment_log_weights(0, state)
        assert key is None
        assert math.exp(log_w) == pytest.approx(0.5, rel=1e-12)

    def test_two_cluster_brute_force(self):
        state = state_with_clusters([[1] * 5 + [0] * 5, [40] * 10])
        clusters = [(10, 5), (10, 400)]
        expected = brute_force_weights(40, clusters, 1.0, 1.0, 1.0)
        weights = assignment_log_weights(40, state)
        for (key, log_w), reference in zip(weights, expected):
            assert math.exp(log_w) == pytest.approx(reference, rel=1e-6)
        probs = dict(normalize_log_weights(weights))
        second_id = state.assignments[-1]
        assert probs[second_id] > 0.99

    def test_factorises_into_crp_times_marginal(self):
        # The weight of every route must equal the partition-prior term
        # times the count's marginal likelihood; closed-form marginals
        # keep the identity checkable at 1e-10, quadrature cross-checks
        # the values themselves at its own accuracy.
        state = state_with_clusters([[0, 1, 0], [12, 9], [4]])
        n_total = len(state.data)
        log_denominator = math.log(state.hyper.alpha + n_total - 1)
        for index in range(n_total):
            x = state.data[index]
            weights = dict(assignment_log_weights(x, state, excluding=index))
            prior = dict(crp_prior(state, excluding=index))
            for key, log_w in weights.items():
                if key is None:
                    shape, rate = 1.0, 1.0
                else:
                    cluster = state.clusters[key]
                    n = cluster.n_members - (1 if state.assignments[index] == key else 0)
                    s = cluster.sum_x - (x if state.assignments[index] == key else 0)
                    shape, rate = 1.0 + s, 1.0 + n
                log_marginal = (
                    shape * math.log(rate)
                    - math.lgamma(shape)
                    + math.lgamma(shape + x)
                    - (shape + x) * math.log(rate + 1.0)
                    - math.lgamma(x + 1.0)
                )
                expected = math.log(prior[key]) + log_marginal + log_denominator
                assert log_w == pytest.approx(expected, abs=1e-10)
                assert math.exp(log_marginal) == pytest.approx(
                    quad_marginal(x, shape, rate), rel=1e-6
                )

    def test_excluding_equals_detached_state(self):
        # The leave-one-out branch recomputes the held-out cluster's terms;
        # it must give exactly the weights of the state with the datum
        # actually detached, singleton cluster included.
        cluster_data = [[0, 1, 0], [12, 9], [4]]
        state = state_with_clusters(cluster_data)
        for index, x in enumerate(state.data):
            excluded = assignment_log_weights(x, state, excluding=index)
            detached = state_with_clusters(cluster_data)
            detached.detach_datum(index)
            assert excluded == assignment_log_weights(x, detached)

    def test_exclusion_drops_emptied_cluster(self):
        state = state_with_clusters([[5], [0, 0]])
        singleton_id = state.assignments[0]
        weights = assignment_log_weights(5, state, excluding=0)
        assert singleton_id not in dict(weights)
        # Non-mutating: the cluster is still there afterwards.
        assert singleton_id in state.clusters

    def test_excluding_out_of_range(self):
        state = state_with_clusters([[1]])
        with pytest.raises(ValueError):
            assignment_log_weights(1, state, excluding=5)

    def test_normalised_weights_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_clusters = int(rng.integers(1, 6))
            cluster_data = [
                list(rng.integers(0, 50, size=rng.integers(1, 8)))
                for _ in range(n_clusters)
            ]
            state = state_with_clusters(cluster_data, seed=int(rng.integers(1 << 16)))
            probs = normalize_log_weights(
                assignment_log_weights(int(rng.integers(0, 60)), state)
            )
            assert abs(sum(p for _, p in probs) - 1.0) <= 1e-12


class TestCrpPrior:
    def test_two_points_one_cluster(self):
        state = state_with_clusters([[1, 1]])
        probs = dict(crp_prior(state, excluding=0))
        cluster_id = state.assignments[0]
        assert probs[cluster_id] == pytest.approx(0.5)
        assert probs[None] == pytest.approx(0.5)

    def test_direct_substitution(self):
        state = state_with_clusters([[0] * 3, [1] * 6, [2]])
        # Exclude the datum in the singleton so the retained sizes are 3 and 6
        # over N = 10.
        probs = dict(crp_prior(state, excluding=9))
        ids = state.assignments
        assert probs[ids[0]] == pytest.approx(3 / 10)
        assert probs[ids[3]] == pytest.approx(6 / 10)
        assert probs[None] == pytest.approx(1 / 10)

    def test_sums_to_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cluster_data = [
                list(rng.integers(0, 9, size=rng.integers(1, 7)))
                for _ in range(rng.integers(1, 6))
            ]
            state = state_with_clusters(cluster_data)
            excluding = int(rng.integers(0, len(state.data)))
            total = sum(p for _, p in crp_prior(state, excluding))
            assert abs(total - 1.0) <= 1e-12

    def test_single_datum_all_mass_on_new(self):
        state = state_with_clusters([[7]])
        probs = dict(crp_prior(state, excluding=0))
        assert probs == {None: 1.0}


class TestResampleOne:
    def test_singleton_dataset_keeps_one_cluster(self):
        state = state_with_clusters([[4]])
        resample_one(state, 0)
        assert state.n_clusters == 1
        assert audit(state)

    def test_greedy_outlier_mints_new_cluster(self):
        state = state_with_clusters([[5, 4, 5], [1, 0, 2]])
        before_ids = set(state.clusters)
        state.append_datum(500, state.assignments[0])
        resample_one(state, len(state.data) - 1, greedy=True)
        new_ids = set(state.clusters) - before_ids
        assert len(new_ids) == 1
        assert state.assignments[-1] in new_ids
        assert audit(state)

    def test_greedy_tie_breaks_to_lowest_id(self):
        assert greedy_pick([(3, -1.0), (1, -1.0), (None, -1.0)]) == 1
        assert greedy_pick([(None, -1.0), (2, -1.0)]) == 2
        assert greedy_pick([(None, -0.5), (2, -1.0)]) is None

    def test_audit_after_many_resamples(self):
        rng = np.random.default_rng(1)
        data = list(rng.poisson(3, 80)) + list(rng.poisson(30, 20))
        state = MixtureState.init_single_cluster(data, UNIT, rng_seed=2)
        for _ in range(10_000):
            resample_one(state, int(rng.integers(0, len(data))))
        assert audit(state)

    def test_audit_detects_corruption(self):
        state = state_with_clusters([[3, 3], [10]])
        assert audit(state)
        cluster = next(iter(state.clusters.values()))
        cluster.sum_x += 1
        assert not audit(state)


class TestGibbsSweep:
    def test_initialisation_is_single_cluster(self):
        state = MixtureState.init_single_cluster([1, 2, 3, 4], UNIT, 0)
        assert state.n_clusters == 1
        assert len(set(state.assignments)) == 1
        assert audit(state)

    def test_sweep_returns_probabilities_per_datum(self):
        state = MixtureState.init_single_cluster([0, 0, 9], UNIT, 0)
        _, probs = gibbs_sweep(state)
        assert len(probs) == 3
        for vector in probs:
            assert abs(sum(vector.values()) - 1.0) <= 1e-12

    def test_zero_variance_data_collapses_to_one_cluster(self):
        # Identical counts should almost always end a sweep in one cluster;
        # the process prior occasionally spawns transient singletons.
        single = 0
        total = 0
        for seed in range(20):
            state = MixtureState.init_single_cluster([20] * 40, UNIT, seed)
            for _ in range(50):
                gibbs_sweep(state)
                total += 1
                if state.n_clusters == 1:
                    single += 1
        assert single / total >= 0.95

    def test_two_component_recovery_small(self):
        rng = np.random.default_rng(123)
        data = list(rng.poisson(2, 60)) + list(rng.poisson(40, 60))
        result = fit(data, UNIT, sweeps=200, burn_in=100, rng_seed=5)
        large = [
            c
            for c in result.state.clusters.values()
            if c.n_members >= 0.05 * len(data)
        ]
        assert len(large) == 2
        rates = sorted(posterior_mean_rate(c, UNIT.base) for c in large)
        assert rates[0] == pytest.approx(2.0, rel=0.35)
        assert rates[1] == pytest.approx(40.0, rel=0.15)


class TestFit:
    def test_deterministic_replay(self):
        rng = np.random.default_rng(55)
        data = list(rng.poisson(4, 100))
        r1 = fit(data, UNIT, sweeps=30, burn_in=10, rng_seed=9)
        r2 = fit(data, UNIT, sweeps=30, burn_in=10, rng_seed=9)
        assert r1.state.assignments == r2.state.assignments
        assert r1.joint_log_weights == r2.joint_log_weights
        assert r1.state.rng.draws == r2.state.rng.draws

    def test_empty_dataset_returns_empty_state(self):
        result = fit([], UNIT, sweeps=10, burn_in=2, rng_seed=0)
        assert len(result.state.data) == 0
        assert result.state.n_clusters == 0
        assert result.mean_probabilities == []

    def test_invalid_sweep_configuration(self):
        with pytest.raises(ValueError):
            fit([1, 2], UNIT, sweeps=5, burn_in=5)
        with pytest.raises(ValueError):
            fit([1, 2], UNIT, sweeps=5, burn_in=-1)

    def test_mean_probabilities_are_distributions(self):
        rng = np.random.default_rng(2)
        data = list(rng.poisson(3, 40)) + list(rng.poisson(25, 10))
        result = fit(data, UNIT, sweeps=40, burn_in=20, rng_seed=3)
        for vector in result.mean_probabilities:
            assert abs(sum(vector.values()) - 1.0) <= 1e-9

    def test_diagnostics_lengths(self):
        data = [0, 1, 2, 3]
        result = fit(data, UNIT, sweeps=25, burn_in=5, rng_seed=1)
        assert len(result.cluster_counts) == result.sweeps_run == 25
        assert len(result.joint_log_weights) == 25

    def test_early_stop_halts_on_stability(self):
        result = fit(
            [5] * 50,
            UNIT,
            sweeps=200,
            burn_in=5,
            rng_seed=4,
            early_stop=True,
        )
        assert result.sweeps_run < 200

    def test_alpha_monotone_in_expected_cluster_count(self):
        # Larger concentration never reduces the expected number of
        # clusters; checked statistically over seeds.
        rng = np.random.default_rng(77)
        data = list(rng.poisson(3, 80)) + list(rng.poisson(30, 40))
        means = []
        for alpha in (0.5, 2.0, 10.0):
            hyper = Hyperparams(alpha, GammaParams(1.0, 1.0))
            counts = [
                fit(data, hyper, sweeps=30, burn_in=15, rng_seed=seed).state.n_clusters
                for seed in range(20)
            ]
            means.append(float(np.mean(counts)))
        assert means[0] <= means[1] <= means[2]


def exact_partition_posterior(data, alpha, a, b):
    """Exact posterior over set partitions by enumeration.

    The partition weight is the process prior times the product of block
    marginal likelihoods, each computed in closed form from the conjugate
    integral.
    """

    def block_marginal(block):
        s = sum(data[i] for i in block)
        n = len(block)
        log_m = (
            a * math.log(b)
            - math.lgamma(a)
            + math.lgamma(a + s)
            - (a + s) * math.log(b + n)
            - sum(math.lgamma(data[i] + 1) for i in block)
        )
        return log_m

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    out = {}
    for blocks in partitions(list(range(len(data)))):
        log_w = len(blocks) * math.log(alpha)
        log_w += sum(math.lgamma(len(block)) for block in blocks)
        log_w += sum(block_marginal(block) for block in blocks)
        key = frozenset(frozenset(block) for block in blocks)
        out[key] = out.get(key, 0.0) + math.exp(log_w)
    total = sum(out.values())
    return {key: value / total for key, value in out.items()}


def canonical_partition(assignments):
    blocks = {}
    for index, label in enumerate(assignments):
        blocks.setdefault(label, []).append(index)
    return frozenset(frozenset(block) for block in blocks.values())


class TestExchangeability:
    def test_small_instance_partition_posterior(self):
        # Quick variant of the full acceptance run: 20k samples, TV < 0.05.
        data = [0, 1, 9]
        exact = exact_partition_posterior(data, 1.0, 1.0, 1.0)
        assert len(exact) == 5
        state = MixtureState.init_single_cluster(data, UNIT, rng_seed=17)
        freq = {}
        n_samples = 20_000
        for _ in range(n_samples):
            gibbs_sweep(state)
            key = canonical_partition(state.assignments)
            freq[key] = freq.get(key, 0) + 1
        tv = 0.5 * sum(
            abs(exact.get(key, 0.0) - freq.get(key, 0) / n_samples)
            for key in set(exact) | set(freq)
        )
        assert tv < 0.05


class TestSerialization:
    def test_round_trip_and_resume(self):
        rng = np.random.default_rng(31)
        data = list(rng.poisson(2, 40)) + list(rng.poisson(20, 20))
        result = fit(data, UNIT, sweeps=20, burn_in=5, rng_seed=13)
        doc = json.loads(json.dumps(state_to_json_dict(result.state)))
        restored = state_from_json_dict(doc, data)
        assert restored.assignments == result.state.assignments
        assert restored.rng.draws == result.state.rng.draws
        # Resumed chains continue identically.
        continued_a, _ = gibbs_sweep(result.state)
        continued_b, _ = gibbs_sweep(restored)
        assert continued_a.assignments == continued_b.assignments

    def test_digest_guards_data(self):
        data = [1, 2, 3]
        state = MixtureState.init_single_cluster(data, UNIT, 0)
        doc = state_to_json_dict(state)
        with pytest.raises(ValueError):
            state_from_json_dict(doc, [1, 2, 4])

    @pytest.mark.parametrize("draws", [0, 1, 65_535, 65_536, 65_537, 200_000])
    def test_resume_continues_the_stream(self, draws):
        fresh = UniformStream(7)
        expected = [fresh.random() for _ in range(draws + 1)][-1]
        resumed = UniformStream.resume(7, draws)
        assert resumed.random() == expected
        assert resumed.draws == draws + 1

    def test_digest_is_stable(self):
        assert data_digest([1, 2, 3]) == data_digest((1, 2, 3))
        assert data_digest([1, 2, 3]) != data_digest([1, 2])
