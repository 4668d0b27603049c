"""Collapsed Gibbs sampler for the Poisson mixture with a process prior.

The assignment weights are checked against brute-force evaluation with
quadrature negative-binomial marginals, the fused sweep against the
step-by-step sampler in ``sampler_oracle``, and the sampler itself against
exact partition-posterior enumeration on a tiny dataset.
"""

import copy
import json
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from aeburst import dppmm
from aeburst.distributions import GammaParams
from aeburst.dppmm import (
    Hyperparams,
    MixtureState,
    UniformStream,
    _scan,
    assignment_log_weights,
    audit,
    data_digest,
    fit,
    gibbs_sweep,
    posterior_mean_rate,
    state_from_json_dict,
    state_to_json_dict,
)
from aeburst.monitor import observe
from sampler_oracle import (
    crp_prior,
    detach_datum,
    greedy_pick,
    normalize_log_weights,
    reference_sweep,
    resample_step,
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
        cluster_data = [[0, 1, 0], [12, 9], [4]]
        state = state_with_clusters(cluster_data)
        n_total = len(state.data)
        log_denominator = math.log(state.hyper.alpha + n_total - 1)
        for index in range(n_total):
            x = state.data[index]
            detached = state_with_clusters(cluster_data)
            detach_datum(detached, index)
            weights = dict(assignment_log_weights(x, detached))
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

    def test_exclusion_drops_emptied_cluster(self):
        state = state_with_clusters([[5], [0, 0]])
        singleton_id = state.assignments[0]
        assert detach_datum(state, 0) == singleton_id
        weights = assignment_log_weights(5, state)
        assert singleton_id not in dict(weights)
        assert singleton_id not in state.clusters
        # The other cluster's weight is unchanged.
        intact = state_with_clusters([[5], [0, 0]])
        assert weights == assignment_log_weights(5, intact)[1:]

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
        resample_step(state, 0)
        assert state.n_clusters == 1
        assert audit(state)

    def test_greedy_outlier_mints_new_cluster(self):
        # The greedy argmax is ``observe``'s path with the gate held shut.
        state = state_with_clusters([[5, 4, 5], [1, 0, 2]])
        before_ids = set(state.clusters)
        assert not observe(500, state, eta_override=0.0).resampled
        new_ids = set(state.clusters) - before_ids
        assert len(new_ids) == 1
        assert state.assignments[-1] in new_ids
        assert audit(state)

    def test_greedy_tie_breaks_to_lowest_id(self):
        # With the gate shut, ``observe`` must pick what the order-free
        # reference ``greedy_pick`` picks.  A twin cluster with the same
        # (n, s) ties its original exactly, and the lower id must win; some
        # states are swept first, so their ids have gaps.
        rng = np.random.default_rng(2024)
        ties = 0
        for trial in range(400):
            cluster_data = [
                [int(v) for v in rng.integers(0, 30, size=rng.integers(1, 6))]
                for _ in range(rng.integers(1, 5))
            ]
            twin = cluster_data[int(rng.integers(len(cluster_data)))]
            cluster_data.insert(int(rng.integers(len(cluster_data) + 1)), list(twin))
            state = state_with_clusters(cluster_data, seed=trial)
            if trial % 3 == 0:
                gibbs_sweep(state)
            x = int(rng.choice(twin)) if trial % 2 else int(rng.integers(0, 40))
            weights = assignment_log_weights(x, state)
            expected = greedy_pick(weights)
            assert greedy_pick(weights[::-1]) == expected
            top = max(w for _, w in weights)
            ties += sum(w == top for _, w in weights) > 1
            before = set(state.clusters)
            outcome = observe(x, state, eta_override=0.0)
            assert not outcome.resampled
            if expected is None:
                assert outcome.cluster_id not in before
            else:
                assert outcome.cluster_id == expected
        assert ties >= 50

    def test_audit_after_many_resamples(self):
        rng = np.random.default_rng(1)
        data = list(rng.poisson(3, 80)) + list(rng.poisson(30, 20))
        state = MixtureState.init_single_cluster(data, UNIT, rng_seed=2)
        for _ in range(10_000):
            resample_step(state, int(rng.integers(0, len(data))))
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
        probs = [{} for _ in range(3)]
        assert gibbs_sweep(state, accumulate=probs) is state
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


def cluster_table(state):
    return [(c.id, c.n_members, c.sum_x, c.created_at) for c in state.clusters.values()]


def mixed_counts(seed, sizes=(12, 8, 4)):
    rng = np.random.default_rng(seed)
    rates = (2, 20, 60)
    return [int(v) for rate, size in zip(rates, sizes) for v in rng.poisson(rate, size)]


def zero_runs(seed):
    """Runs of hundreds of zero counts around a few bursts, as quiet recordings give."""
    rng = np.random.default_rng(seed)
    bursts = [[int(v) for v in rng.poisson(rate, size)] for rate, size in ((30, 6), (80, 3))]
    return [0] * 250 + bursts[0] + [0] * 200 + bursts[1] + [0] * 150


def sweep_against_reference(fused, ref, sweeps, burn_in):
    """Sweep twin states with ``gibbs_sweep`` and ``reference_sweep``, comparing with ``==``.

    Probabilities accumulate from sweep ``burn_in`` on.  Returns how many
    clusters were born and how many died over the run.
    """
    fused_acc = [{} for _ in fused.data]
    ref_acc = [{} for _ in ref.data]
    births = deaths = 0
    for sweep in range(sweeps):
        ids_before, next_before = set(ref.clusters), ref.next_cluster_id
        averaging = sweep >= burn_in
        diag = {}
        gibbs_sweep(fused, diagnostics=diag, accumulate=fused_acc if averaging else None)
        joint, flips = reference_sweep(ref, ref_acc if averaging else None)
        births += ref.next_cluster_id - next_before
        deaths += len(ids_before - set(ref.clusters))
        assert fused.assignments == ref.assignments
        assert cluster_table(fused) == cluster_table(ref)
        assert fused.next_cluster_id == ref.next_cluster_id
        assert fused.rng.draws == ref.rng.draws
        assert (diag["joint_log_weight"], diag["flips"]) == (joint, flips)
        assert [list(a.items()) for a in fused_acc] == [list(a.items()) for a in ref_acc]
    assert any(fused_acc)
    return births, deaths


class TestFusedSweep:
    """``gibbs_sweep`` against the step-by-step reference, compared with ``==``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_step(self, seed):
        data = mixed_counts(seed)
        fused = MixtureState.init_single_cluster(data, UNIT, seed)
        ref = MixtureState.init_single_cluster(data, UNIT, seed)
        fused_acc = [{} for _ in data]
        ref_acc = [{} for _ in data]
        births = deaths = 0
        for _ in range(30):
            ids_before, next_before = set(ref.clusters), ref.next_cluster_id
            diag = {}
            gibbs_sweep(fused, diagnostics=diag, accumulate=fused_acc)
            joint, flips = reference_sweep(ref, ref_acc)
            births += ref.next_cluster_id - next_before
            deaths += len(ids_before - set(ref.clusters))
            assert fused.assignments == ref.assignments
            assert cluster_table(fused) == cluster_table(ref)
            assert fused.next_cluster_id == ref.next_cluster_id
            assert fused.rng.draws == ref.rng.draws
            assert (diag["joint_log_weight"], diag["flips"]) == (joint, flips)
            assert [list(a.items()) for a in fused_acc] == [
                list(a.items()) for a in ref_acc
            ]
        # The run exercises singleton deaths and new-cluster births.
        assert births > 0 and deaths > 0

    def test_fit_mean_probabilities_match_reference(self):
        data = mixed_counts(7)
        sweeps, burn_in = 25, 10
        result = fit(data, UNIT, sweeps=sweeps, burn_in=burn_in, rng_seed=7)
        ref = MixtureState.init_single_cluster(data, UNIT, 7)
        accumulated = [{} for _ in data]
        joints = [
            reference_sweep(ref, accumulated if sweep >= burn_in else None)[0]
            for sweep in range(sweeps)
        ]
        expected = [
            [(key, total / (sweeps - burn_in)) for key, total in acc.items()]
            for acc in accumulated
        ]
        assert [list(p.items()) for p in result.mean_probabilities] == expected
        assert result.joint_log_weights == joints
        assert result.state.assignments == ref.assignments
        assert cluster_table(result.state) == cluster_table(ref)

    def test_stay_restores_cached_terms(self, monkeypatch):
        # A datum that returns to the cluster it left reuses the terms saved
        # before the detach, so a sweep computes at most one fresh tuple per
        # detach plus one per flip.
        data = mixed_counts(4, sizes=(40, 20, 10))
        state = MixtureState.init_single_cluster(data, UNIT, 4)
        for _ in range(5):
            gibbs_sweep(state)
        calls = 0
        real = dppmm._terms

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(dppmm, "_terms", counting)
        diag = {}
        gibbs_sweep(state, diagnostics=diag)
        assert calls <= len(data) + diag["flips"]

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_runs_match_reference(self, seed):
        data = zero_runs(seed)
        fused = MixtureState.init_single_cluster(data, UNIT, seed)
        ref = MixtureState.init_single_cluster(data, UNIT, seed)
        births, deaths = sweep_against_reference(fused, ref, sweeps=12, burn_in=6)
        assert births > 0 and deaths > 0

    def test_zeros_split_over_two_clusters(self):
        # Single-site Gibbs cannot merge two large clusters of zeros, so the
        # zeros stay split and their steps alternate between two stay keys.
        data = [[0] * 200, [0] * 150 + [3] * 8, [40, 44, 37]]
        fused, ref = state_with_clusters(data, seed=5), state_with_clusters(data, seed=5)
        sweep_against_reference(fused, ref, sweeps=10, burn_in=4)
        zero_clusters = {k for x, k in zip(ref.data, ref.assignments) if x == 0}
        assert len(zero_clusters) >= 2

    def test_singleton_deaths_and_new_births(self):
        # A lone large count among zeros sits in a cluster of its own: each
        # sweep detaches it, so the cluster dies, and it opens a new one.
        data = [0] * 200 + [30] + [0] * 200 + [400] + [0] * 100
        fused = MixtureState.init_single_cluster(data, UNIT, 2)
        ref = MixtureState.init_single_cluster(data, UNIT, 2)
        sweeps = 8
        births, deaths = sweep_against_reference(fused, ref, sweeps=sweeps, burn_in=3)
        assert births >= 2 * sweeps and deaths >= 2 * (sweeps - 1)
        singletons = [c for c in ref.clusters.values() if c.n_members == 1]
        assert {30, 400} <= {c.sum_x for c in singletons}

    def test_fit_matches_reference(self):
        data = zero_runs(4)
        sweeps, burn_in = 14, 6
        result = fit(data, UNIT, sweeps=sweeps, burn_in=burn_in, rng_seed=4)
        ref = MixtureState.init_single_cluster(data, UNIT, 4)
        accumulated = [{} for _ in data]
        joints = [
            reference_sweep(ref, accumulated if sweep >= burn_in else None)[0]
            for sweep in range(sweeps)
        ]
        expected = [
            [(key, total / (sweeps - burn_in)) for key, total in acc.items()]
            for acc in accumulated
        ]
        assert [list(p.items()) for p in result.mean_probabilities] == expected
        assert result.joint_log_weights == joints
        assert result.state.assignments == ref.assignments
        assert cluster_table(result.state) == cluster_table(ref)
        assert result.state.rng.draws == ref.rng.draws

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e6, allow_subnormal=True),
            min_size=1,
            max_size=12,
        ),
        pick=st.data(),
    )
    def test_bisect_draw_is_scan(self, raw, pick):
        cum = list(accumulate(raw))
        total = sum(raw)
        target = pick.draw(
            st.sampled_from([0.0, total, cum[-1], math.nextafter(total, math.inf)])
            | st.floats(0.0, 1.25 * total + 1.0)
        )
        assert min(bisect_right(cum, target), len(raw) - 1) == _scan(raw, target)

    def test_repeated_counts_reuse_log_weights(self, monkeypatch):
        # Between flips the state repeats, and each log weight is computed
        # once per (n, s, x), so lgamma runs at most once per distinct count
        # per slot per stretch between flips.
        data = [0] * 300 + [5] * 30 + [0] * 100
        state = MixtureState.init_single_cluster(data, UNIT, 3)
        for _ in range(5):
            gibbs_sweep(state)
        twin = copy.deepcopy(state)
        most = twin.n_clusters
        for i in range(len(data)):
            resample_step(twin, i)
            most = max(most, twin.n_clusters)
        calls = 0
        real = math.lgamma

        def counting(value):
            nonlocal calls
            calls += 1
            return real(value)

        monkeypatch.setattr(math, "lgamma", counting)
        diag = {}
        gibbs_sweep(state, diagnostics=diag)
        monkeypatch.undo()
        assert state.assignments == twin.assignments
        assert diag["flips"] > 0
        assert calls <= (diag["flips"] + 1) * (most + 1) * len(set(data))

class TestUniformStream:
    def test_take_equals_successive_random(self):
        batched, scalar = UniformStream(11), UniformStream(11)
        assert batched.take(1_000) == [scalar.random() for _ in range(1_000)]
        assert batched.draws == scalar.draws == 1_000

    def test_take_zero_advances_nothing(self):
        stream = UniformStream(11)
        assert stream.take(0) == []
        assert stream.draws == 0
        assert stream.random() == UniformStream(11).random()

    def test_interleaving_agrees_with_resume(self):
        stream = UniformStream(5)
        values = stream.take(3) + [stream.random()] + stream.take(70_000)
        values.append(stream.random())
        assert stream.draws == len(values) == 70_005
        for position in (0, 3, 4, 65_536, 70_004):
            assert UniformStream.resume(5, position).random() == values[position]
        assert UniformStream.resume(5, stream.draws).random() == stream.random()

    def test_sweep_draws_exactly_one_uniform_per_datum(self):
        data = mixed_counts(2)
        state = MixtureState.init_single_cluster(data, UNIT, 8)
        gibbs_sweep(state)
        assert state.rng.draws == len(data)
        assert state.rng.random() == UniformStream(8).take(len(data) + 1)[-1]


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
        continued_a = gibbs_sweep(result.state)
        continued_b = gibbs_sweep(restored)
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
