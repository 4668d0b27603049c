"""Collapsed Gibbs sampler for the Poisson mixture with a process prior.

The assignment weights are checked against brute-force evaluation with
quadrature negative-binomial marginals, the fused sweep against the
step-by-step sampler in ``sampler_oracle``, and the sampler itself against
exact partition-posterior enumeration on a tiny dataset.
"""

import copy
import json
import math
import tracemalloc
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
    assignment_log_weights,
    audit,
    data_digest,
    fit,
    gibbs_sweep,
    posterior_mean_rate,
    predictive_rows,
    state_from_json_dict,
    state_to_json_dict,
)
from aeburst.monitor import observe
from partition_oracle import (
    canonical_partition,
    exact_partition_posterior,
    new_datum_probabilities,
)
from sampler_oracle import (
    crp_prior,
    dense,
    detach_datum,
    greedy_pick,
    normalize_log_weights,
    reference_fit,
    reference_sweep,
    reference_table,
    resample_step,
    scan,
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
        assert gibbs_sweep(state) is state
        probs = predictive_rows(state, state.data)
        assert probs.shape == (3, state.n_clusters + 1)
        for vector in probs.tolist():
            assert abs(sum(vector) - 1.0) <= 1e-12

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


def sweep_against_reference(fused, ref, sweeps):
    """Sweep twin states with ``gibbs_sweep`` and ``reference_sweep``, comparing with ``==``.

    Returns how many clusters were born and how many died over the run.
    """
    births = deaths = 0
    for _ in range(sweeps):
        ids_before, next_before = set(ref.clusters), ref.next_cluster_id
        diag = {}
        gibbs_sweep(fused, diagnostics=diag)
        joint, flips = reference_sweep(ref)
        births += ref.next_cluster_id - next_before
        deaths += len(ids_before - set(ref.clusters))
        assert fused.assignments == ref.assignments
        assert cluster_table(fused) == cluster_table(ref)
        assert fused.next_cluster_id == ref.next_cluster_id
        assert fused.rng.draws == ref.rng.draws
        assert (diag["joint_log_weight"], diag["flips"]) == (joint, flips)
    return births, deaths


def assert_fit_matches_reference(data, sweeps, burn_in, seed):
    """``fit`` equals ``reference_fit`` with ``==``: the table entry by entry
    against ``reference_table`` of the post-burn-in states (``0.0`` for a key
    a count's dict lacks), columns in ``id_order``, joints, and the final
    state."""
    result = fit(data, UNIT, sweeps=sweeps, burn_in=burn_in, rng_seed=seed)
    ref, joints, states = reference_fit(data, UNIT, sweeps, burn_in, seed)
    values = sorted(set(data))
    assert np.array_equal(np.array(values)[result.index], data)
    means = reference_table(states, values)
    expected, columns = dense(means)
    assert result.columns == columns
    assert np.array_equal(result.table, expected)
    for row, probs in enumerate(means):
        for col, key in enumerate(columns):
            assert result.table[row, col] == probs.get(key, 0.0)
    assert result.joint_log_weights == joints
    assert result.state.assignments == ref.assignments
    assert cluster_table(result.state) == cluster_table(ref)
    assert result.state.rng.draws == ref.rng.draws == sweeps * len(data)


class TestFusedSweep:
    """``gibbs_sweep`` against the step-by-step reference, compared with ``==``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_step(self, seed):
        data = mixed_counts(seed)
        fused = MixtureState.init_single_cluster(data, UNIT, seed)
        ref = MixtureState.init_single_cluster(data, UNIT, seed)
        births, deaths = sweep_against_reference(fused, ref, sweeps=30)
        # The run exercises singleton deaths and new-cluster births.
        assert births > 0 and deaths > 0

    def test_fit_mean_probabilities_match_reference(self):
        assert_fit_matches_reference(mixed_counts(7), sweeps=25, burn_in=10, seed=7)

    @pytest.mark.parametrize(
        "counts, seed, sweeps, burn_in",
        [(zero_runs, 5, 14, 6), (zero_runs, 6, 14, 6), (mixed_counts, 5, 9, 8), (mixed_counts, 6, 9, 0)],
    )
    def test_fit_matches_reference_at_more_seeds(self, counts, seed, sweeps, burn_in):
        # The last two cases average one sweep and every sweep.
        assert_fit_matches_reference(counts(seed), sweeps, burn_in, seed)

    def test_columns_ascend_by_id(self):
        # The columns are the ids live after some post-burn-in sweep, in
        # ascending id with NEW last: an id that died before the last sweep
        # keeps its column, and one never live after such a sweep has none.
        data = mixed_counts(3)
        result = fit(data, UNIT, sweeps=14, burn_in=6, rng_seed=3)
        states = reference_fit(data, UNIT, 14, 6, 3)[2]
        live = set().union(*(state.clusters for state in states))
        assert result.columns == sorted(live) + [None]
        assert live - set(result.state.clusters)
        assert set(range(result.state.next_cluster_id)) - live

    def test_stay_restores_cached_terms(self, monkeypatch):
        # A datum that returns to the cluster it left reuses the terms saved
        # before the detach, so a sweep computes at most one fresh tuple per
        # detach plus one per flip.
        data = mixed_counts(4, sizes=(40, 20, 10))
        state = MixtureState.init_single_cluster(data, UNIT, 4)
        for _ in range(5):
            gibbs_sweep(state)
        calls = 0
        real = dppmm.predictive_terms

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        # ``gibbs_sweep`` calls the terms by the name ``dppmm`` imported.
        monkeypatch.setattr(dppmm, "predictive_terms", counting)
        diag = {}
        gibbs_sweep(state, diagnostics=diag)
        assert 0 < calls <= len(data) + diag["flips"]

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_runs_match_reference(self, seed):
        data = zero_runs(seed)
        fused = MixtureState.init_single_cluster(data, UNIT, seed)
        ref = MixtureState.init_single_cluster(data, UNIT, seed)
        births, deaths = sweep_against_reference(fused, ref, sweeps=12)
        assert births > 0 and deaths > 0

    def test_zeros_split_over_two_clusters(self):
        # Single-site Gibbs cannot merge two large clusters of zeros, so the
        # zeros stay split and their steps alternate between two stay keys.
        data = [[0] * 200, [0] * 150 + [3] * 8, [40, 44, 37]]
        fused, ref = state_with_clusters(data, seed=5), state_with_clusters(data, seed=5)
        sweep_against_reference(fused, ref, sweeps=10)
        zero_clusters = {k for x, k in zip(ref.data, ref.assignments) if x == 0}
        assert len(zero_clusters) >= 2

    def test_singleton_deaths_and_new_births(self):
        # A lone large count among zeros sits in a cluster of its own: each
        # sweep detaches it, so the cluster dies, and it opens a new one.
        data = [0] * 200 + [30] + [0] * 200 + [400] + [0] * 100
        fused = MixtureState.init_single_cluster(data, UNIT, 2)
        ref = MixtureState.init_single_cluster(data, UNIT, 2)
        sweeps = 8
        births, deaths = sweep_against_reference(fused, ref, sweeps=sweeps)
        assert births >= 2 * sweeps and deaths >= 2 * (sweeps - 1)
        singletons = [c for c in ref.clusters.values() if c.n_members == 1]
        assert {30, 400} <= {c.sum_x for c in singletons}

    def test_fit_matches_reference(self):
        assert_fit_matches_reference(zero_runs(4), sweeps=14, burn_in=6, seed=4)

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
        assert min(bisect_right(cum, target), len(raw) - 1) == scan(raw, target)

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
        assert result.table.shape == (0, 0)
        assert result.index.shape == (0,)
        assert result.columns == []

    def test_invalid_sweep_configuration(self):
        with pytest.raises(ValueError):
            fit([1, 2], UNIT, sweeps=5, burn_in=5)
        with pytest.raises(ValueError):
            fit([1, 2], UNIT, sweeps=5, burn_in=-1)

    def test_mean_probabilities_are_distributions(self):
        rng = np.random.default_rng(2)
        data = list(rng.poisson(3, 40)) + list(rng.poisson(25, 10))
        result = fit(data, UNIT, sweeps=40, burn_in=20, rng_seed=3)
        assert result.table.shape[0] == len(set(data))
        for vector in result.table.tolist():
            assert abs(sum(vector) - 1.0) <= 1e-9

    def test_averaging_holds_dense_arrays(self):
        # On 20,000 windows, what averaging adds to the peak of the same
        # sweeps is the per-window index into the table plus a few arrays of
        # distinct counts x columns; an N x columns float64 array is 1.28 MB.
        rng = np.random.default_rng(0)
        data = []
        while len(data) < 20_000:
            data += rng.poisson(1.0, 400).tolist()
            data += rng.poisson(rng.choice([20, 60]), 20).tolist()
        data = data[:20_000]

        def peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def plain_sweeps():
            state = MixtureState.init_single_cluster(data, UNIT, 0)
            for _ in range(4):
                gibbs_sweep(state)

        peak(plain_sweeps)  # first-call allocations count in neither run
        plain = peak(plain_sweeps)[1]
        result, total = peak(lambda: fit(data, UNIT, sweeps=4, burn_in=2, rng_seed=0))
        distinct, columns = result.table.shape
        assert distinct < 100 and columns > 5
        assert total - plain < result.index.nbytes + 16 * distinct * columns * 8

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


class TestPredictiveTable:
    def test_rows_match_enumeration(self):
        # Averaged over sweeps, a count's row estimates the exact
        # posterior-expected probabilities that a new datum of that count
        # opens a cluster and that it joins datum 0's cluster.
        data = [0, 1, 9, 0, 3, 12]
        values = [0, 1, 5, 9, 30]
        state = MixtureState.init_single_cluster(data, UNIT, rng_seed=29)
        for _ in range(500):
            gibbs_sweep(state)
        new, home = np.zeros(len(values)), np.zeros(len(values))
        n_samples = 20_000
        for _ in range(n_samples):
            gibbs_sweep(state)
            rows = predictive_rows(state, values)
            new += rows[:, -1]
            home += rows[:, list(state.clusters).index(state.assignments[0])]
        for x, p_new, p_home in zip(values, new / n_samples, home / n_samples):
            exact_new, exact_home = new_datum_probabilities(data, x, 1.0, 1.0, 1.0, i=0)
            assert abs(p_new - exact_new) < 0.02, x
            assert abs(p_home - exact_home) < 0.02, x

    def test_rows_are_normalised_assignment_weights(self):
        state = state_with_clusters([[0, 0, 1], [9, 12], [3]], seed=4)
        values = [0, 3, 9, 400]
        expected = [
            [p for _, p in normalize_log_weights(assignment_log_weights(x, state))]
            for x in values
        ]
        assert predictive_rows(state, values).tolist() == expected


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
