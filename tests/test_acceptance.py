"""Acceptance suite: one test per criterion, at its stated tolerance.

Every expected value is produced by an independent oracle (quadrature,
Monte Carlo, exact enumeration, ground-truth synthesis) and the criteria
print one summary line each, so ``pytest -v -s tests/test_acceptance.py``
reads as a checklist.
"""

import filecmp
import hashlib
import json
import math
import time

import numpy as np
from scipy import stats

from aeburst.cli import cli
from aeburst.config import PipelineConfig
from aeburst.detector import score, train_background
from aeburst.distributions import GammaParams, log_predictive, predictive_terms
from aeburst.dppmm import (
    Hyperparams,
    MixtureState,
    fit,
    gibbs_sweep,
    posterior_mean_rate,
)
from aeburst.monitor import (
    StreamMonitor,
    decimate,
    entropy,
    information_efficiency,
    observe,
)
from aeburst.segmentation import average_probabilities, extract_features
from aeburst.synth import HitStreamSpec, synthesize_hit_stream
from aeburst.windowing import (
    ThresholdPolicy,
    Waveform,
    WindowSpec,
    extract_counts,
)
from partition_oracle import canonical_partition, exact_partition_posterior, partition_tv
from sampler_oracle import (
    assignment_log_weights,
    crp_prior,
    detach_datum,
    normalize_log_weights,
)
from windowing_oracle import entries, probability_of

UNIT_PRIOR = GammaParams(1.0, 1.0)
UNIT_HYPER = Hyperparams(1.0, UNIT_PRIOR)


def report(name, detail):
    print(f"[{name}] PASS {detail}")


# ---------------------------------------------------------------------------
# AC-1: conjugacy oracle
# ---------------------------------------------------------------------------


def quadrature_predictive(prior, n_obs, sum_x, x_max, n_grid=8_000):
    """Log-grid trapezoid of the Poisson-Gamma integral, vectorised over x."""
    shape = prior.shape + sum_x
    rate = prior.rate + n_obs
    lo = stats.gamma(a=shape, scale=1.0 / (rate + 1.0)).ppf(1e-16)
    hi = stats.gamma(a=shape + x_max, scale=1.0 / (rate + 1.0)).ppf(1.0 - 1e-16)
    u = np.linspace(math.log(lo), math.log(hi), n_grid)
    lam = np.exp(u)
    log_post = shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * u - rate * lam
    xs = np.arange(x_max + 1)
    lgx = np.array([math.lgamma(x + 1.0) for x in xs])
    log_f = xs[:, None] * u[None, :] - lgx[:, None] + (log_post + u - lam)[None, :]
    return np.trapezoid(np.exp(log_f), u, axis=1)


def monte_carlo_predictive(prior, n_obs, sum_x, xs, n_draws, seed):
    """Rao-Blackwellised Monte Carlo: average the Poisson mass over
    posterior rate draws."""
    rng = np.random.default_rng(seed)
    lam = rng.gamma(prior.shape + sum_x, 1.0 / (prior.rate + n_obs), size=n_draws)
    log_lam = np.log(lam)
    return np.array(
        [
            float(np.mean(np.exp(x * log_lam - lam - math.lgamma(x + 1.0))))
            for x in xs
        ]
    )


def test_ac1_conjugacy_oracle():
    """100 random (a, b, N, sum) tuples: the closed-form predictive matches
    quadrature within 1e-6 relative over x in [0, 200] and 1e5-draw Monte
    Carlo within 1e-2 relative over the bulk of the distribution (Monte
    Carlo at 1e5 draws cannot certify 1e-2 relative in the far tails, so
    the comparison set is x with mass >= 0.02)."""
    start = time.time()
    rng = np.random.default_rng(20240601)
    x_max = 200
    xs = np.arange(x_max + 1)
    worst_quad = 0.0
    worst_mc = 0.0
    for trial in range(100):
        prior = GammaParams(rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0))
        n_obs = int(rng.integers(0, 50))
        sum_x = int(rng.integers(0, 20 * n_obs + 1)) if n_obs else 0
        terms = predictive_terms(prior, n_obs, sum_x, 0.0)
        nb = np.exp([log_predictive(terms, x, math.lgamma(x + 1)) for x in xs.tolist()])
        quad = quadrature_predictive(prior, n_obs, sum_x, x_max)
        worst_quad = max(worst_quad, float(np.max(np.abs(nb - quad) / nb)))
        bulk = xs[nb >= 2e-2]
        mc = monte_carlo_predictive(prior, n_obs, sum_x, bulk, 100_000, seed=trial)
        worst_mc = max(worst_mc, float(np.max(np.abs(nb[bulk] - mc) / nb[bulk])))
    elapsed = time.time() - start
    assert worst_quad < 1e-6
    assert worst_mc < 1e-2
    assert elapsed < 30.0
    report("AC-1", f"quad_rel={worst_quad:.2e} mc_rel={worst_mc:.2e} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC-2: lead-break reproduction
# ---------------------------------------------------------------------------


def lead_break_waveform(seed, n_samples=131_072, burst_len=4096):
    """Two grid-aligned decaying bursts of nominally 4096 samples."""
    from aeburst.synth import BurstSpec, SynthSpec, synthesize

    rate = 1e6
    sigma = 0.01
    amplitude = 20 * sigma
    tau = burst_len / (rate * math.log(amplitude / sigma))
    onsets = (8 * 4096, 22 * 4096)
    spec = SynthSpec(
        duration=n_samples / rate,
        sample_rate=rate,
        noise_sigma=sigma,
        bursts=tuple(
            BurstSpec(onset / rate, amplitude, tau, 1.2e5, 0) for onset in onsets
        ),
    )
    waveform, _ = synthesize(spec, rng_seed=seed)
    return waveform, [(onset, onset + burst_len) for onset in onsets]


def intersects(start, end, spans):
    return any(start < b_end and end > b_start for b_start, b_end in spans)


def test_ac2_lead_break_reproduction():
    """Matched window: burst windows score strictly above all noise windows
    in >= 19/20 seeds.  Short window: every burst is covered by a flagged
    window and >= 95% of noise windows stay unflagged, every seed."""
    start = time.time()
    matched_ok = 0
    for seed in range(20):
        waveform, spans = lead_break_waveform(seed)
        wc = extract_counts(
            waveform, ThresholdPolicy.percentile(99), WindowSpec(4096, 0.0)
        )
        burst_idx, noise_idx = [], []
        for i, (w_start, _) in enumerate(entries(wc)):
            (burst_idx if intersects(w_start, w_start + 4096, spans) else noise_idx).append(i)
        train = noise_idx[:20]
        held_out = noise_idx[20:]
        model = train_background(UNIT_PRIOR, [int(wc.counts[i]) for i in train])
        trace = score(model, wc)
        if min(trace.nlls[burst_idx]) > max(trace.nlls[held_out]):
            matched_ok += 1

        wc_short = extract_counts(
            waveform, ThresholdPolicy.percentile(99), WindowSpec(256, 0.0)
        )
        noise_short = [
            i
            for i, (w_start, _) in enumerate(entries(wc_short))
            if not intersects(w_start, w_start + 256, spans)
        ]
        model_short = train_background(
            UNIT_PRIOR, [int(wc_short.counts[i]) for i in noise_short[:20]]
        )
        trace_short = score(model_short, wc_short)
        flagged = trace_short.nlls > trace_short.flag_threshold
        for b_start, b_end in spans:
            assert any(
                flagged[i] and intersects(s, s + 256, [(b_start, b_end)])
                for i, (s, _) in enumerate(entries(wc_short))
            ), f"seed {seed}: burst at {b_start} not covered by a flagged window"
        noise_flag_rate = float(np.mean(flagged[noise_short]))
        assert noise_flag_rate <= 0.05, f"seed {seed}: {noise_flag_rate:.3f}"
    elapsed = time.time() - start
    assert matched_ok >= 19
    assert elapsed < 60.0
    report("AC-2", f"matched_ok={matched_ok}/20 t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC-3: partition-posterior equivalence
# ---------------------------------------------------------------------------


def test_ac3_partition_posterior_equivalence():
    """[0, 1, 9] with unit base and alpha = 1: 1e5 post-sweep partitions vs
    exact enumeration over the 5 set partitions, TV < 0.02."""
    start = time.time()
    data = [0, 1, 9]
    exact = exact_partition_posterior(data, 1.0, 1.0, 1.0)
    assert len(exact) == 5
    state = MixtureState.init_single_cluster(data, UNIT_HYPER, rng_seed=101)
    for _ in range(1_000):  # burn-in
        gibbs_sweep(state)
    frequencies = {}
    n_samples = 100_000
    for _ in range(n_samples):
        gibbs_sweep(state)
        key = canonical_partition(state.assignments)
        frequencies[key] = frequencies.get(key, 0) + 1
    tv = partition_tv(frequencies, exact)
    elapsed = time.time() - start
    assert tv < 0.02
    assert elapsed < 60.0
    report("AC-3", f"tv={tv:.4f} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC-4: mixture recovery
# ---------------------------------------------------------------------------


def adjusted_rand_index(labels_a, labels_b):
    """Pair-counting ARI, straight from the contingency table."""

    def comb2(n):
        return n * (n - 1) // 2

    table = {}
    for a, b in zip(labels_a, labels_b):
        table[(a, b)] = table.get((a, b), 0) + 1
    rows, cols = {}, {}
    for (a, b), n in table.items():
        rows[a] = rows.get(a, 0) + n
        cols[b] = cols.get(b, 0) + n
    n_total = sum(table.values())
    sum_cells = sum(comb2(n) for n in table.values())
    sum_rows = sum(comb2(n) for n in rows.values())
    sum_cols = sum(comb2(n) for n in cols.values())
    expected = sum_rows * sum_cols / comb2(n_total)
    max_index = 0.5 * (sum_rows + sum_cols)
    return (sum_cells - expected) / (max_index - expected)


def test_ac4_mixture_recovery():
    """Poi(2)/Poi(40), 250 each, 200 sweeps, 10 seeds: median big-cluster
    count 2, median ARI >= 0.95, median recovered rates within 10%.

    ARI is computed on the argmax of each datum's row of the predictive
    table, its count's assignment probabilities averaged over the sweeps,
    the same point estimate the segmentation stage consumes; raw
    final-sweep labels carry transient singletons that are posterior
    mass, not recovery error."""
    start = time.time()
    truth = [0] * 250 + [1] * 250
    big_counts, aris, low_rates, high_rates = [], [], [], []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        data = list(rng.poisson(2, 250)) + list(rng.poisson(40, 250))
        result = fit(data, UNIT_HYPER, sweeps=200, burn_in=100, rng_seed=seed)
        big = [
            c for c in result.state.clusters.values() if c.n_members >= 0.05 * 500
        ]
        big_counts.append(len(big))
        point_labels = [
            max(zip(result.columns, probs), key=lambda kv: (kv[1], kv[0] is not None))[0]
            for probs in result.table[result.index].tolist()
        ]
        aris.append(adjusted_rand_index(truth, point_labels))
        rates = [posterior_mean_rate(c, UNIT_PRIOR) for c in big]
        low_rates.append(min(rates, key=lambda r: abs(r - 2.0)))
        high_rates.append(min(rates, key=lambda r: abs(r - 40.0)))
    elapsed = time.time() - start
    assert float(np.median(big_counts)) == 2
    assert float(np.median(aris)) >= 0.95
    assert abs(float(np.median(low_rates)) - 2.0) <= 0.2
    assert abs(float(np.median(high_rates)) - 40.0) <= 4.0
    assert elapsed < 120.0
    report(
        "AC-4",
        f"median_k={np.median(big_counts):.0f} median_ari={np.median(aris):.3f} "
        f"rates=({np.median(low_rates):.2f},{np.median(high_rates):.2f}) t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC-5: alpha sensitivity on a three-family synthetic
# ---------------------------------------------------------------------------


def three_family_counts(seed):
    """Noise plus low-amplitude and high-amplitude tone-burst families.

    Families are grid-aligned so core windows carry their full rate:
    roughly 1 (noise), 20 (low), 100 (high) crossings per 1000-sample
    window under a fixed threshold.
    """
    rate = 1e6
    sigma = 0.01
    threshold = 3.29 * sigma
    n = 1000
    signal_len = 400_000
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, sigma, signal_len)
    t = np.arange(3 * n) / rate
    low_tone = 8 * sigma * np.sin(2 * math.pi * 10_000.0 * t)
    high_tone = 40 * sigma * np.sin(2 * math.pi * 50_000.0 * t)
    low_onsets = [k * n for k in (20, 60, 100, 140, 180, 220, 260, 300)]
    high_onsets = [k * n for k in (40, 80, 120, 160, 200, 240, 280, 320, 340, 360, 380, 30)]
    for onset in low_onsets:
        v[onset : onset + 3 * n] += low_tone
    for onset in high_onsets:
        v[onset : onset + 3 * n] += high_tone
    waveform = Waveform(v, rate)
    wc = extract_counts(
        waveform, ThresholdPolicy.fixed(threshold), WindowSpec(n, 0.0)
    )
    return wc.counts.tolist()


def test_ac5_alpha_sensitivity():
    """Mean cluster count at alpha = 10 strictly exceeds the mean at
    alpha = 1, and alpha = 10 recovers >= 3 groups with >= 5% membership
    in >= 70% of seeds."""
    start = time.time()
    k_low, k_high, three_groups = [], [], 0
    for seed in range(20):
        counts = three_family_counts(seed)
        fit_low = fit(
            counts,
            Hyperparams(1.0, UNIT_PRIOR),
            sweeps=100,
            burn_in=50,
            rng_seed=seed,
        )
        fit_high = fit(
            counts,
            Hyperparams(10.0, UNIT_PRIOR),
            sweeps=100,
            burn_in=50,
            rng_seed=seed,
        )
        k_low.append(fit_low.state.n_clusters)
        k_high.append(fit_high.state.n_clusters)
        big = [
            c
            for c in fit_high.state.clusters.values()
            if c.n_members >= 0.05 * len(counts)
        ]
        three_groups += len(big) >= 3
    elapsed = time.time() - start
    assert float(np.mean(k_high)) > float(np.mean(k_low))
    assert three_groups >= 14  # 70% of 20
    report(
        "AC-5",
        f"mean_k(a=1)={np.mean(k_low):.2f} mean_k(a=10)={np.mean(k_high):.2f} "
        f"three_groups={three_groups}/20 t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC-6: CRP normalisation
# ---------------------------------------------------------------------------


def test_ac6_crp_normalisation():
    """crp_prior and the normalised assignment weights sum to one within
    1e-12 on 1e3 randomised states, and every crp_prior entry equals the
    prior mass ``exp(terms[0]) / (alpha + N - 1)`` that the sampler's own
    weight terms, computed from each route's (n, s), carry once the datum
    is held out."""
    rng = np.random.default_rng(99)
    worst_prior = 0.0
    worst_weights = 0.0
    worst_terms = 0.0
    for _ in range(1_000):
        state = MixtureState.empty(
            Hyperparams(float(rng.uniform(0.2, 8.0)), UNIT_PRIOR),
            rng_seed=int(rng.integers(1 << 20)),
        )
        for _ in range(int(rng.integers(1, 6))):
            cluster = None
            for _ in range(int(rng.integers(1, 8))):
                cluster = state.append_datum(int(rng.integers(0, 60)), cluster)
        excluding = int(rng.integers(0, len(state.data)))
        prior = crp_prior(state, excluding)
        prior_total = sum(p for _, p in prior)
        worst_prior = max(worst_prior, abs(prior_total - 1.0))
        weights = assignment_log_weights(int(rng.integers(0, 80)), state)
        weight_total = sum(p for _, p in normalize_log_weights(weights))
        worst_weights = max(worst_weights, abs(weight_total - 1.0))
        detach_datum(state, excluding)
        denom = state.hyper.alpha + len(state.data) - 1
        for key, p in prior:
            if key is None:
                terms = predictive_terms(state.hyper.base, 0, 0, math.log(state.hyper.alpha))
            else:
                n, s = state.clusters[key].n_members, state.clusters[key].sum_x
                terms = predictive_terms(state.hyper.base, n, s, math.log(n))
            worst_terms = max(worst_terms, abs(p - math.exp(terms[0]) / denom))
    assert worst_prior <= 1e-12
    assert worst_weights <= 1e-12
    assert worst_terms <= 1e-12
    report(
        "AC-6",
        f"prior_err={worst_prior:.1e} weight_err={worst_weights:.1e} "
        f"terms_err={worst_terms:.1e}",
    )


# ---------------------------------------------------------------------------
# AC-7: overlap robustness
# ---------------------------------------------------------------------------


def test_ac7_overlap_robustness():
    """A burst phase-offset by half a window: 87.5% overlap averaging puts
    the event cluster's probability >= 0.5 over >= 90% of the burst core,
    while non-overlapping windows assign the onset window below 0.5.

    The offset burst rises through a sub-threshold attack for its first
    half-window, so the non-overlapping onset window captures the event's
    initial portion yet counts like noise; the core is the above-threshold
    tone span."""
    start = time.time()
    rate = 1e6
    sigma = 0.01
    n = 200
    threshold = 2.576 * sigma
    carrier = 17_500.0  # 7 crossings per 200-sample window
    amplitude = 0.2
    attack = n // 2
    span = 24 * n
    signal_len = 200_000
    aligned = [20_000, 50_000, 80_000, 110_000, 140_000]
    offset_onset = 170_000 + n // 2
    offset_core = offset_onset + attack

    seed = 4
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, sigma, signal_len)
    tone = amplitude * np.sin(2 * math.pi * carrier * np.arange(span) / rate)
    for onset in aligned:
        v[onset : onset + span] += tone
    quiet = 0.15 * threshold * np.sin(
        2 * math.pi * carrier * np.arange(attack) / rate
    )
    v[offset_onset:offset_core] += quiet
    v[offset_core : offset_core + span] += tone
    waveform = Waveform(v, rate)
    policy = ThresholdPolicy.fixed(threshold)

    def event_cluster_id(state, min_members=20):
        big = [c for c in state.clusters.values() if c.n_members >= min_members]
        return max(big, key=lambda c: posterior_mean_rate(c, UNIT_PRIOR)).id

    disjoint = extract_counts(waveform, policy, WindowSpec(n, 0.0))
    fit_disjoint = fit(
        disjoint.counts.tolist(), UNIT_HYPER, sweeps=60, burn_in=30, rng_seed=seed
    )
    event_disjoint = event_cluster_id(fit_disjoint.state)
    onset_window = offset_onset // n
    p_onset = dict(
        zip(fit_disjoint.columns, fit_disjoint.table[fit_disjoint.index[onset_window]].tolist())
    ).get(event_disjoint, 0.0)

    overlapped = extract_counts(waveform, policy, WindowSpec(n, 0.875))
    fit_overlap = fit(
        overlapped.counts.tolist(), UNIT_HYPER, sweeps=60, burn_in=30, rng_seed=seed
    )
    event_overlap = event_cluster_id(fit_overlap.state)
    field = average_probabilities(
        fit_overlap.table, overlapped.spec, signal_len, fit_overlap.columns, fit_overlap.index
    )
    core_probability = probability_of(field, event_overlap)[
        offset_core : offset_core + span
    ]
    core_fraction = float(np.mean(core_probability >= 0.5))
    elapsed = time.time() - start
    assert p_onset < 0.5
    assert core_fraction >= 0.9
    report(
        "AC-7",
        f"p_onset(no overlap)={p_onset:.3f} core_frac(87.5%)={core_fraction:.3f} "
        f"t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC-8: entropy gate
# ---------------------------------------------------------------------------


def test_ac8_entropy_gate():
    """Exact gate extremes, and an always-resample online run matching the
    batch sampler's final-cluster-count distribution (Mann-Whitney U not
    rejected at p = 0.01 over 20 seeds)."""
    start = time.time()
    for k in (1, 2, 5, 17):
        one_hot = [1.0] + [0.0] * k
        uniform = [1.0 / (k + 1)] * (k + 1)
        assert abs(information_efficiency(one_hot, k) - 0.0) <= 1e-12
        assert abs(information_efficiency(uniform, k) - 1.0) <= 1e-12
        assert abs(entropy(uniform) - math.log(k + 1)) <= 1e-12

    batch_k, online_k = [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        data = list(rng.poisson(2, 250)) + list(rng.poisson(40, 250))
        order = rng.permutation(500)
        shuffled = [data[i] for i in order]
        result = fit(shuffled, UNIT_HYPER, sweeps=200, burn_in=100, rng_seed=seed)
        batch_k.append(result.state.n_clusters)
        state = MixtureState.empty(UNIT_HYPER, rng_seed=10_000 + seed)
        for x in shuffled:
            observe(x, state, eta_override=1.0)
        online_k.append(state.n_clusters)
    test = stats.mannwhitneyu(batch_k, online_k, alternative="two-sided")
    elapsed = time.time() - start
    assert test.pvalue > 0.01
    report(
        "AC-8",
        f"batch_k mean={np.mean(batch_k):.2f} online_k mean={np.mean(online_k):.2f} "
        f"p={test.pvalue:.3f} t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC-9: monitor end to end
# ---------------------------------------------------------------------------


def test_ac9_monitor_end_to_end():
    """10k-hit stream with a 50x-energy damage family from hit 6000,
    keep ratio 0.1: a confirmed alarm inside 200 retained hits of the
    injection and none before it, in >= 18/20 seeds."""
    start = time.time()
    injection_retained = 600  # hit 6000 under 10% systematic decimation
    good = 0
    for seed in range(20):
        spec = HitStreamSpec(
            n_hits=10_000,
            damage_start_hit=6_000,
            damage_fraction=0.3,
            damage_energy_factor=50.0,
        )
        state = MixtureState.empty(UNIT_HYPER, rng_seed=seed)
        monitor = StreamMonitor(state, PipelineConfig(alarm_warmup=100))
        alarms = []
        for hit in decimate(synthesize_hit_stream(spec, rng_seed=seed), 0.1):
            waveform = hit
            features = extract_features(waveform, (0, len(waveform)), 0.05)
            alarms.extend(monitor.process(features.count, features.energy))
        early = [a for a in alarms if a.time < injection_retained]
        prompt = [
            a
            for a in alarms
            if injection_retained <= a.time < injection_retained + 200
        ]
        good += (not early) and bool(prompt)
    elapsed = time.time() - start
    assert good >= 18
    assert elapsed < 180.0
    report("AC-9", f"good={good}/20 t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC-10: CLI determinism
# ---------------------------------------------------------------------------


def test_ac10_cli_determinism(tmp_path):
    """Every subcommand produces byte-identical outputs across two runs
    with the same inputs and seed."""
    start = time.time()

    def run_twice(name, argv_for):
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        out_a.mkdir()
        out_b.mkdir()
        files_a = argv_for(out_a)
        files_b = argv_for(out_b)
        for file_a, file_b in zip(files_a, files_b):
            assert filecmp.cmp(file_a, file_b, shallow=False), (
                f"{name}: {file_a.name} differs between runs"
            )

    def synth_cmd(out):
        wave, ann = out / "w.f32", out / "a.json"
        assert (
            cli(
                [
                    "synth", "--out", str(wave), "--annotations-out", str(ann),
                    "--duration", "0.02", "--sample-rate", "1e6",
                    "--noise-sigma", "0.01",
                    "--burst", "0.004096,0.2,0.0004551,120000,0",
                    "--burst", "0.012288,0.2,0.0004551,120000,0",
                    "--seed", "5",
                ]
            )
            == 0
        )
        return [wave, ann]

    run_twice("synth", synth_cmd)

    # Shared inputs for the downstream commands.
    wave, ann = synth_cmd(tmp_path)
    hits = tmp_path / "hits.bin"
    assert (
        cli(
            [
                "synth", "--mode", "hits", "--out", str(hits),
                "--n-hits", "200", "--sample-rate", "2e6", "--seed", "6",
            ]
        )
        == 0
    )

    def detect_cmd(out):
        nll, events = out / "t.csv", out / "e.json"
        assert (
            cli(
                [
                    "detect", "--input", str(wave), "--format", "raw_f32_le",
                    "--sample-rate", "1e6", "--window", "4096", "--overlap", "0",
                    "--train-windows", "0:1", "--nll-out", str(nll),
                    "--events-out", str(events),
                ]
            )
            == 0
        )
        return [nll, events]

    def cluster_cmd(out):
        events, state = out / "ev.jsonl", out / "st.json"
        assert (
            cli(
                [
                    "cluster", "--input", str(wave), "--format", "raw_f32_le",
                    "--sample-rate", "1e6", "--window", "512",
                    "--overlap", "0.875", "--sweeps", "30", "--burn-in", "10",
                    "--seed", "7", "--events-out", str(events),
                    "--state-out", str(state),
                ]
            )
            == 0
        )
        return [events, state]

    def monitor_cmd(out):
        alarms, tracks, state = out / "al.jsonl", out / "tr.csv", out / "st.json"
        assert (
            cli(
                [
                    "monitor", "--hits", str(hits), "--keep-ratio", "0.5",
                    "--threshold-volts", "0.05", "--seed", "8",
                    "--alarms-out", str(alarms), "--tracks-out", str(tracks),
                    "--state-out", str(state),
                ]
            )
            == 0
        )
        return [alarms, tracks, state]

    def features_cmd(out):
        feats = out / "f.jsonl"
        assert (
            cli(
                [
                    "features", "--input", str(wave), "--format", "raw_f32_le",
                    "--sample-rate", "1e6", "--events", str(ann),
                    "--threshold-volts", "0.03", "--out", str(feats),
                ]
            )
            == 0
        )
        return [feats]

    run_twice("detect", detect_cmd)
    run_twice("cluster", cluster_cmd)
    run_twice("monitor", monitor_cmd)
    run_twice("features", features_cmd)
    report("AC-10", f"5 subcommands byte-identical t={time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# AC-12: the long recording through cluster
# ---------------------------------------------------------------------------

LONG_ONSETS = tuple(100_000 + 400_000 * k for k in range(21))
# sha256 of seed 0's events and state, recorded before the sweep,
# ``predictive_rows`` and ``observe`` read their weights through one path.
LONG_DIGESTS = (
    "522bd668677b99d85524c426be5a259b0a0edb2a2388256b8b7091065c22222b",
    "586b5d0f724142f63b4946d16576a85c77e2b7dd2b2ee351ac8a98cc806c34b9",
)


def interval_quality(events, bursts):
    """Share of bursts some event overlaps; share of event samples in bursts."""

    def overlap(a, b):
        return max(0, min(a[1], b[1]) - max(a[0], b[0]))

    found = sum(any(overlap(e, b) > 0 for e in events) for b in bursts)
    covered = sum(overlap(e, b) for e in events for b in bursts)
    length = sum(e[1] - e[0] for e in events)
    return found / len(bursts), covered / length if length else 0.0


def test_ac12_long_recording_cluster(tmp_path):
    """The README cluster run on a 2^23-sample recording with 21 bursts
    (67,101 windows), long enough to grow a late low-rate cluster: recall 1
    and event precision >= 0.85 at seeds 0-2, seed 0 byte for byte."""
    start = time.time()
    lines = []
    for seed in range(3):
        wave, truth = tmp_path / f"wave{seed}.f32", tmp_path / f"truth{seed}.json"
        synth = [
            "synth", "--out", str(wave), "--annotations-out", str(truth),
            "--duration", str((1 << 23) / 1e6), "--seed", str(seed),
        ]
        bursts = [f"{onset / 1e6},0.2,0.00137,120000" for onset in LONG_ONSETS]
        assert cli([*synth, *(f for b in bursts for f in ("--burst", b))]) == 0
        events, model = tmp_path / f"events{seed}.jsonl", tmp_path / f"model{seed}.json"
        assert cli([
            "cluster", "--input", str(wave), "--sample-rate", "1e6", "--window", "1000",
            "--overlap", "0.875", "--alpha", "1", "--sweeps", "100", "--burn-in", "50",
            "--seed", str(seed), "--events-out", str(events), "--state-out", str(model),
        ]) == 0
        spans = [
            (e["start_index"], e["end_index"])
            for e in map(json.loads, events.read_text().splitlines())
        ]
        truth_spans = [
            (b["start_index"], b["end_index"]) for b in json.loads(truth.read_text())["bursts"]
        ]
        recall, precision = interval_quality(spans, truth_spans)
        assert recall == 1.0, seed
        assert precision >= 0.85, (seed, precision)
        if seed == 0:
            digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (events, model))
            assert digests == LONG_DIGESTS
        lines.append(f"seed {seed}: {len(spans)} events precision={precision:.4f}")
    report("AC-12", f"{'; '.join(lines)} t={time.time() - start:.1f}s")
