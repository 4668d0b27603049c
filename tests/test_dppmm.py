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
    NOISE,
    Hyperparams,
    MixtureState,
    UniformStream,
    audit,
    data_digest,
    fit,
    gibbs_sweep,
    merge_split,
    posterior_mean_rate,
    predictive_rows,
    state_from_json_dict,
    state_to_json_dict,
)
from aeburst.monitor import observe
from partition_oracle import (
    block_log_marginal,
    canonical_partition,
    exact_partition_posterior,
    new_datum_probabilities,
    partition_tv,
)
from sampler_oracle import (
    assignment_log_weights,
    crp_prior,
    dense,
    detach_datum,
    greedy_pick,
    largest_cluster,
    normalize_log_weights,
    reference_fit,
    reference_sweep,
    reference_table,
    resample_step,
    scan,
    scan_order,
)

UNIT = Hyperparams(alpha=1.0, base=GammaParams(1.0, 1.0))
# A non-unit prior: the block constant a log b - lgamma(a) and log alpha are
# both non-zero, so a move that drops or inverts either has the wrong target.
SHIFTED = Hyperparams(alpha=0.5, base=GammaParams(2.0, 0.5))


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

    def test_audit_detects_an_extra_assignment(self):
        state = state_with_clusters([[3, 3], [10]])
        state.assignments.append(state.assignments[0])
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
    assert result.state.moves.draws == ref.moves.draws >= 4 * sweeps


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
        # The columns are NOISE, the ids live and not the largest after some
        # post-burn-in sweep in ascending id, and NEW: an id that died before
        # the last sweep keeps its column, and one never live after such a
        # sweep has none.
        data = mixed_counts(3)
        result = fit(data, UNIT, sweeps=14, burn_in=6, rng_seed=3)
        states = reference_fit(data, UNIT, 14, 6, 3)[2]
        live = set().union(*(set(state.clusters) - {largest_cluster(state)} for state in states))
        assert result.columns == [NOISE, *sorted(live), None]
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
        # The clamped bisect is the oracle's scan, and a stay is the sweep's
        # interval test: ``lo <= target < hi`` for slot j exactly when the
        # draw picks j, on cumulative boundaries and zero weights too.
        cum = list(accumulate(raw))
        total = sum(raw)
        target = pick.draw(
            st.sampled_from([0.0, total, cum[-1], math.nextafter(total, math.inf), *cum])
            | st.floats(0.0, 1.25 * total + 1.0)
        )
        picked = min(bisect_right(cum, target), len(raw) - 1)
        assert picked == scan(raw, target)
        for j in range(len(raw)):
            lo, hi = dppmm._stay_interval(cum, j)
            assert (lo <= target < hi) == (picked == j)

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
        for i in scan_order(data):
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


class TestKeptWork:
    """The scan plan and the log weights a sweep keeps on the state."""

    def test_plan_takes_appended_counts_in_order(self):
        # observe appends each count and sweeps; the kept plan takes counts
        # below every run, above every run and equal to one, and stays a
        # stable sort of the data without being rebuilt.
        state = MixtureState.empty(UNIT, 3)
        for x in [5, 3, 5, 9, 3, 5]:
            observe(x, state, eta_override=1.0)
        kept = state._plan[5]
        for x in (1, 12, 5, 3, 0, 5):
            observe(x, state, eta_override=1.0)
            plan = state._plan
            assert [i for run in plan.values() for i in run] == scan_order(state.data)
            assert list(plan) == sorted(set(state.data))
        assert state._plan[5] is kept

    def test_rows_hold_one_sweep(self, monkeypatch):
        # After a sweep the kept rows are the live clusters' rows it started
        # from and the rows it computed, nothing older, so the memory stays
        # bounded while far more distinct statistics pass through.
        computed = []
        real = dppmm.predictive_terms

        def recording(prior, n, s, log_c):
            computed.append((n, s))
            return real(prior, n, s, log_c)

        monkeypatch.setattr(dppmm, "predictive_terms", recording)
        state = MixtureState.init_single_cluster(mixed_counts(2), UNIT, 2)
        for _ in range(200):
            live = {(c.n_members, c.sum_x) for c in state.clusters.values()} | {(0, 0)}
            start = len(computed)
            gibbs_sweep(state)
            assert set(state._rows) <= live | set(computed[start:])
            assert all(len(weights) <= len(set(state.data)) for _, weights in state._rows.values())
        assert len(state._rows) < len(computed) / 20

    def test_rebuilt_state_sweeps_identically(self):
        # The plan and the memo are not serialised: a state rebuilt from its
        # document starts without them and sweeps exactly as the original.
        data = zero_runs(3)
        state = MixtureState.init_single_cluster(data, UNIT, 3)
        for _ in range(6):
            gibbs_sweep(state)
            merge_split(state, np.array(data))
        rebuilt = state_from_json_dict(state_to_json_dict(state), data)
        assert not (rebuilt._plan or rebuilt._rows)
        flips = 0
        for _ in range(6):
            diag, twin = {}, {}
            gibbs_sweep(state, diagnostics=diag)
            gibbs_sweep(rebuilt, diagnostics=twin)
            assert diag == twin
            flips += diag["flips"]
            assert rebuilt.assignments == state.assignments
            assert cluster_table(rebuilt) == cluster_table(state)
            assert merge_split(state, np.array(data)) == merge_split(rebuilt, np.array(data))
        assert state_to_json_dict(rebuilt) == state_to_json_dict(state)
        assert flips > 0


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
            # ``fit``'s sweeps and moves, and the data array the moves read.
            state = MixtureState.init_single_cluster(data, UNIT, 0)
            values = np.array(data, dtype=np.int64)
            for _ in range(4):
                gibbs_sweep(state)
                merge_split(state, values)

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

    @pytest.mark.parametrize("seed", range(5))
    def test_late_low_rate_cluster_is_not_the_noise(self, seed):
        # Ten zeros appended to Poisson(5) background end in a small cluster
        # of the lowest rate, minted after the start.  The background is the
        # largest cluster in every post-burn-in state, so each background
        # datum that is not a zero gets event probability below one half.
        data = np.random.default_rng(seed).poisson(5, 300).tolist() + [0] * 10
        result = fit(data, UNIT, sweeps=60, burn_in=30, rng_seed=seed)
        state = result.state
        lowest = min(state.clusters.values(), key=lambda c: posterior_mean_rate(c, UNIT.base))
        assert lowest.created_at > 0 and lowest.n_members < 20
        event = 1.0 - result.table[result.index, result.columns.index(NOISE)]
        background = np.array(data[:300]) >= 1
        assert event[:300][background].max() < 0.5

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


def gibbs_step(state, values):
    """One Gibbs sweep; False only if no datum changed cluster."""
    diag = {}
    gibbs_sweep(state, diagnostics=diag)
    return diag["flips"] > 0


def fit_step(state, values):
    """One Gibbs sweep and one move, as ``fit`` runs them."""
    return gibbs_step(state, values) | merge_split(state, values)


def sweep_tv(data, seed, n_samples, burn_in=0, hyper=UNIT, step=gibbs_step):
    """Total variation between the partitions after each of ``n_samples``
    steps of a kernel, after ``burn_in`` more, and the exact partition
    posterior under ``hyper``.  ``step(state, values)`` returns False only
    if the partition is unchanged, so its key is reused."""
    base = hyper.base
    exact = exact_partition_posterior(data, hyper.alpha, base.shape, base.rate)
    state = MixtureState.init_single_cluster(data, hyper, rng_seed=seed)
    values = np.array(data, dtype=np.int64)
    for _ in range(burn_in):
        step(state, values)
    freq = {}
    key = canonical_partition(state.assignments)
    for _ in range(n_samples):
        if step(state, values):
            key = canonical_partition(state.assignments)
        freq[key] = freq.get(key, 0) + 1
    return partition_tv(freq, exact)


class TestExchangeability:
    def test_small_instance_partition_posterior(self):
        # Quick variant of the full acceptance run: 20k samples, TV < 0.05.
        assert len(exact_partition_posterior([0, 1, 9], 1.0, 1.0, 1.0)) == 5
        assert sweep_tv([0, 1, 9], 17, 20_000) < 0.05

    @pytest.mark.parametrize(
        "data, n_partitions",
        [([0, 1, 9, 0, 3, 12], 203), ([30, 0, 9, 1, 10, 0, 2], 877)],
    )
    def test_unsorted_data_partition_posterior(self, data, n_partitions):
        # The sweep visits these data in ascending count, not in data order;
        # a fixed scan that depends on the data alone leaves the posterior
        # invariant.  Weights taken without detaching the datum give TV > 0.1.
        assert len(exact_partition_posterior(data, 1.0, 1.0, 1.0)) == n_partitions
        assert sweep_tv(data, 23, 100_000, burn_in=500) < 0.02


class ScriptedStream:
    """Stands in for ``state.moves``: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values, self.draws = list(values), 0

    def take(self, n):
        self.draws += n
        return self.values[self.draws - n : self.draws]

    def array(self, n):
        return np.array(self.take(n), dtype=float)


def pair_uniforms(n_data, i, j):
    """The first two move uniforms that draw data ``i`` and ``j``."""
    return (i + 0.5) / n_data, (j - (j > i) + 0.5) / (n_data - 1)


def log_posterior(data, blocks, hyper):
    """Unnormalised log partition posterior, from the enumeration oracle's
    terms: ``K log alpha`` plus ``lgamma(|block|)`` and the block's full
    log marginal likelihood for every block."""
    a, b = hyper.base.shape, hyper.base.rate
    return sum(
        math.log(hyper.alpha)
        + math.lgamma(len(block))
        + block_log_marginal([data[t] for t in block], a, b)
        for block in blocks
    )


def log_split_proposal(n, n1):
    """Log probability that a split of ``n`` members proposes one given
    part of ``n1`` members holding ``i``: ``k`` then the other members."""
    return -math.log(n - 1) - (
        math.lgamma(n - 1) - math.lgamma(n1) - math.lgamma(n - n1)
    )


def acceptance_cases(log_ratio):
    """``(u_accept, accepted)`` pairs on either side of ``min(1, exp(log_ratio))``."""
    if log_ratio >= 0:
        return [(0.999999, True)]
    p = math.exp(log_ratio)
    return [(p * (1 + 1e-9), False), (p * (1 - 1e-9), True)]


def blocks_by_id(assignments):
    """The data indices of each cluster id, ascending."""
    blocks = {}
    for t, k in enumerate(assignments):
        blocks.setdefault(k, []).append(t)
    return blocks


MOVE_CLUSTERS = [[0, 1, 0, 0, 2], [9, 14, 30, 11, 0, 12], [3, 4]]


class TestMergeSplit:
    """``merge_split`` against exact enumeration, alone and as ``fit`` runs it."""

    @pytest.mark.parametrize("hyper", [UNIT, SHIFTED], ids=["unit", "shifted"])
    @pytest.mark.parametrize(
        "data, n_moves", [([0, 1, 9, 0, 3, 12], 250_000), ([30, 0, 9, 1, 10, 0, 2], 500_000)]
    )
    def test_moves_alone_partition_posterior(self, data, n_moves, hyper):
        # The moves alone are irreducible: merges reach the one-cluster
        # partition and splits reach any partition from it.  Seven data have
        # 877 partitions to the six's 203, so they get more moves.  Dropping
        # the block constant, doubling the acceptance ratio or inverting
        # alpha each fails some case here.
        assert sweep_tv(data, 37, n_moves, burn_in=1_000, hyper=hyper, step=merge_split) < 0.02

    @pytest.mark.parametrize("hyper", [UNIT, SHIFTED], ids=["unit", "shifted"])
    @pytest.mark.parametrize("data", [[0, 1, 9, 0, 3, 12], [30, 0, 9, 1, 10, 0, 2]])
    def test_fit_kernel_partition_posterior(self, data, hyper):
        # A sweep then a move, each from its own stream, as ``fit`` runs them.
        assert sweep_tv(data, 41, 40_000, burn_in=200, hyper=hyper, step=fit_step) < 0.02

    @pytest.mark.parametrize("hyper", [UNIT, SHIFTED], ids=["unit", "shifted"])
    @pytest.mark.parametrize("pair", [(0, 5), (6, 2), (12, 3), (10, 11)])
    def test_merge_accepts_at_posterior_ratio(self, hyper, pair):
        # A merge is accepted iff its uniform lies below the posterior ratio
        # of the two partitions times the reverse split's proposal
        # probability (the merge's own is one).
        i, j = pair
        state = state_with_clusters(MOVE_CLUSTERS, hyper)
        blocks = blocks_by_id(state.assignments)
        a, b = blocks.pop(state.assignments[i]), blocks.pop(state.assignments[j])
        rest = list(blocks.values())
        log_ratio = (
            log_posterior(state.data, rest + [a + b], hyper)
            - log_posterior(state.data, rest + [a, b], hyper)
            + log_split_proposal(len(a) + len(b), len(a))
        )
        for u_accept, accepted in acceptance_cases(log_ratio):
            trial = state_with_clusters(MOVE_CLUSTERS, hyper)
            trial.moves = ScriptedStream([*pair_uniforms(len(trial.data), i, j), 0.5, u_accept])
            assert merge_split(trial, np.array(trial.data)) is accepted
            assert trial.moves.draws == 4 and trial.rng.draws == 0
            assert audit(trial)
            if accepted:
                # The union keeps the lower id; the other is retired.
                keep = min(state.assignments[i], state.assignments[j])
                assert blocks_by_id(trial.assignments)[keep] == sorted(a + b)
                assert trial.next_cluster_id == state.next_cluster_id

    @pytest.mark.parametrize("hyper", [UNIT, SHIFTED], ids=["unit", "shifted"])
    @pytest.mark.parametrize(
        "pair, k", [((5, 9), 3), ((9, 5), 1), ((6, 10), 5), ((0, 4), 2), ((11, 12), 1)]
    )
    def test_split_accepts_at_posterior_ratio(self, hyper, pair, k):
        i, j = pair
        state = state_with_clusters(MOVE_CLUSTERS, hyper)
        home = state.assignments[i]
        blocks = blocks_by_id(state.assignments)
        members = blocks.pop(home)
        others = [t for t in members if t not in pair]
        n = len(members)
        # Descending uniforms: the last k - 1 others join i.
        uniforms = [0.9 - 0.1 * q for q in range(len(others))]
        part = sorted([i] + others[len(others) - (k - 1) :])
        remainder = [t for t in members if t not in part]
        rest = list(blocks.values())
        log_ratio = (
            log_posterior(state.data, rest + [part, remainder], hyper)
            - log_posterior(state.data, rest + [members], hyper)
            - log_split_proposal(n, k)
        )
        u_k = (k - 0.5) / (n - 1)
        for u_accept, accepted in acceptance_cases(log_ratio):
            trial = state_with_clusters(MOVE_CLUSTERS, hyper)
            trial.moves = ScriptedStream(
                [*pair_uniforms(len(trial.data), i, j), u_k, u_accept, *uniforms]
            )
            fresh = trial.next_cluster_id
            assert merge_split(trial, np.array(trial.data)) is accepted
            assert trial.moves.draws == 4 + n - 2
            assert audit(trial)
            if accepted:
                # The smaller part leaves under a fresh id, S1 on a tie; the
                # larger keeps C's id.
                small, large = (part, remainder) if k <= n - k else (remainder, part)
                blocks = blocks_by_id(trial.assignments)
                assert (blocks[fresh], blocks[home]) == (small, large)
                assert list(trial.clusters) == sorted(trial.clusters)

    def test_streams_stay_apart(self):
        # ``fit`` leaves the Gibbs stream at one draw per datum per sweep, and
        # each move takes four uniforms plus n - 2 per proposed split.
        data = zero_runs(2)
        result = fit(data, UNIT, sweeps=12, burn_in=6, rng_seed=2)
        assert result.state.rng.draws == 12 * len(data)
        assert result.state.moves.draws >= 4 * 12
        assert UniformStream(2, 1).take(3) != UniformStream(2).take(3)
        assert UniformStream(2, 1).take(3) == np.random.default_rng([2, 1]).random(3).tolist()
        assert MixtureState.empty(UNIT, 9).moves.take(2) == UniformStream(9, 1).take(2)
        lone = MixtureState.init_single_cluster([4], UNIT, 0)
        assert not merge_split(lone, np.array([4]))
        assert lone.moves.draws == 0

    def test_ids_are_never_reused(self):
        rng = np.random.default_rng(8)
        data = [int(v) for v in rng.poisson(1, 40)] + [int(v) for v in rng.poisson(20, 20)]
        state = MixtureState.init_single_cluster(data, SHIFTED, 8)
        values = np.array(data)
        retired, accepted = set(), 0
        for _ in range(3_000):
            before = set(state.clusters)
            accepted += merge_split(state, values)
            retired |= before - set(state.clusters)
            assert not retired & set(state.clusters)
            assert audit(state)
            assert list(state.clusters) == sorted(state.clusters)
        assert accepted > 100 and len(retired) > 50


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

    def test_fit_state_reloads_and_continues(self):
        # The document records both streams' positions: the reloaded state
        # runs further sweeps and moves exactly like the in-memory one.
        data = zero_runs(3)
        result = fit(data, UNIT, sweeps=10, burn_in=4, rng_seed=3)
        doc = json.loads(json.dumps(state_to_json_dict(result.state)))
        assert doc["move_draws"] == result.state.moves.draws > 4 * 10
        restored = state_from_json_dict(doc, data)
        values = np.array(data, dtype=np.int64)
        for _ in range(3):
            for state in (result.state, restored):
                gibbs_sweep(state)
                merge_split(state, values)
            assert restored.assignments == result.state.assignments
            assert cluster_table(restored) == cluster_table(result.state)
            assert restored.next_cluster_id == result.state.next_cluster_id
            assert restored.rng.draws == result.state.rng.draws
            assert restored.moves.draws == result.state.moves.draws

    # The one cluster of ``init_single_cluster([1, 2, 3], ...)``.
    CLUSTER_ROW = {"id": 0, "n_members": 3, "sum_x": 6, "created_at": 0}

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("next_cluster_id", 0, "next_cluster_id"),
            ("next_cluster_id", -1, "next_cluster_id"),
            ("rng_draws", -5, "draws"),
            ("move_draws", -5, "draws"),
            ("rng_draws", 2.5, "draw counts must be integers"),
            ("move_draws", 2.5, "draw counts must be integers"),
            ("rng_draws", True, "draw counts must be integers"),
            ("move_draws", "3", "draw counts must be integers"),
            ("assignments", [0, 0, 0, 7], "inconsistent"),
            ("next_cluster_id", 1.9, "next_cluster_id must be integers"),
            ("assignments", [0.7, 0, 0], "assignments must be integers"),
            ("clusters", [{**CLUSTER_ROW, "id": 0.5}], "cluster fields must be integers"),
            ("clusters", [{**CLUSTER_ROW, "n_members": 3.5}], "cluster fields must be integers"),
            ("clusters", [{**CLUSTER_ROW, "sum_x": 6.4}], "cluster fields must be integers"),
            ("clusters", [{**CLUSTER_ROW, "created_at": 0.5}], "cluster fields must be integers"),
            ("rng_seed", 0.5, "rng_seed must be integers"),
            ("rng_seed", True, "rng_seed must be integers"),
            ("version", 99, "unsupported state document version 99"),
        ],
    )
    def test_document_that_would_corrupt_the_state_rejected(self, key, value, message):
        # With next_cluster_id 0 the next minted cluster would overwrite
        # cluster 0; a negative or fractional draw count names no stream
        # position; an assignment beyond the data has no datum.  A fraction
        # or a boolean where an integer belongs would load truncated (sum_x
        # 6.4 as 6, passing the audit), and another version is another format.
        data = [1, 2, 3]
        doc = state_to_json_dict(MixtureState.init_single_cluster(data, UNIT, 0))
        assert doc["next_cluster_id"] == 1 and doc["clusters"] == [self.CLUSTER_ROW]
        with pytest.raises(ValueError, match=message):
            state_from_json_dict({**doc, key: value}, data)

    def test_document_that_would_mint_the_noise_id_rejected(self):
        # With no clusters to bound it, next_cluster_id -1 would make the
        # next observe mint cluster -1, which is NOISE.
        doc = state_to_json_dict(MixtureState.empty(UNIT, 0))
        assert doc["clusters"] == [] and NOISE == -1
        with pytest.raises(ValueError, match="next_cluster_id must be >= 0"):
            state_from_json_dict({**doc, "next_cluster_id": -1}, [])

    def test_documents_written_by_fit_and_observe_reload(self):
        data = zero_runs(3)
        fitted = fit(data, UNIT, sweeps=10, burn_in=4, rng_seed=3).state
        online = MixtureState.empty(UNIT, rng_seed=5)
        for x in data:
            observe(x, online)
        assert len(online.clusters) > 1 and online.next_cluster_id > max(online.clusters)
        for state in (fitted, online):
            doc = json.loads(json.dumps(state_to_json_dict(state)))
            restored = state_from_json_dict(doc, data)
            assert state_to_json_dict(restored) == doc

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
