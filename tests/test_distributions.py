"""Distribution primitives against independent high-precision oracles.

Expected values are frozen from mpmath arbitrary-precision evaluation or
from quadrature over the Gamma posterior, never from the implementation
under test.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from aeburst.distributions import GammaParams, log_predictive, predictive_terms


def terms_of(shape: float, rate: float, n: int = 0, s: int = 0, log_c: float = 0.0):
    """The library's predictive terms for a Gamma(shape, rate) prior."""
    return predictive_terms(GammaParams(shape, rate), n, s, log_c)


def fixed(r: float, p: float):
    """Terms of NB(r, p) as a prior predictive: shape ``r``, rate ``p / (1 - p)``."""
    return terms_of(r, p / (1 - p))


def log_mass(x: int, terms) -> float:
    return log_predictive(terms, x, math.lgamma(x + 1))


def nb_pmf(x: int, terms) -> float:
    """Negative-binomial mass, exponentiated from the library's log weight."""
    return math.exp(log_mass(x, terms))


def nll(x: int, terms) -> float:
    return -log_mass(x, terms)


def nb_r_p(terms) -> tuple[float, float]:
    """The ``(r, p)`` of the negative binomial behind ``terms``."""
    _, r, _, _, log1p_g = terms
    return r, -math.expm1(-log1p_g)


def mp_log_nb(x: int, shape: float, rate: float, n: int = 0, s: int = 0, dps: int = 60):
    """Arbitrary-precision log mass of the posterior predictive, p from the rate."""
    with mpmath.workdps(dps):
        r = mpmath.mpf(shape) + s
        g = mpmath.mpf(rate) + n
        p = g / (g + 1)
        return (
            mpmath.loggamma(x + r)
            - mpmath.loggamma(x + 1)
            - mpmath.loggamma(r)
            + r * mpmath.log(p)
            + x * mpmath.log(1 - p)
        )


def mp_nb_pmf(x: int, r: float, p: float) -> float:
    """Arbitrary-precision negative-binomial mass, ``p`` taken back from the
    float rate ``fixed`` passes to the library."""
    with mpmath.workdps(60):
        rate = mpmath.mpf(p / (1 - p))
        r_mp, p_mp = mpmath.mpf(r), rate / (rate + 1)
        coeff = mpmath.gamma(x + r_mp) / (mpmath.factorial(x) * mpmath.gamma(r_mp))
        return float(coeff * p_mp**r_mp * (1 - p_mp) ** x)


def quadrature_predictive(x: int, prior: GammaParams, n_obs: int, sum_x: int) -> float:
    """Poisson-Gamma integral on a dense grid over the posterior."""
    shape = prior.shape + sum_x
    rate = prior.rate + n_obs
    posterior = stats.gamma(a=shape, scale=1.0 / rate)
    lam = np.linspace(posterior.ppf(1e-14), posterior.ppf(1.0 - 1e-14), 400_001)
    lam = lam[lam > 0]
    log_pois = x * np.log(lam) - lam - math.lgamma(x + 1)
    integrand = np.exp(log_pois) * posterior.pdf(lam)
    return float(np.trapezoid(integrand, lam))


class TestPredictiveUpdate:
    def test_prior_predictive_of_unit_gamma(self):
        terms = terms_of(1, 1)
        assert nb_r_p(terms) == (1, 0.5)
        assert terms == (0.0, 1, 0.0, math.log(0.5), math.log(2.0))

    def test_direct_substitution(self):
        terms = terms_of(1, 1, 2, 8)
        assert nb_r_p(terms) == (9, 0.75)
        assert terms[2] == math.lgamma(9)
        assert terms[3] == pytest.approx(9 * math.log(0.75), rel=1e-15)

    def test_twenty_noise_windows_unit_prior(self):
        # Idealised zero-count training under the unit prior.
        r, p = nb_r_p(terms_of(1, 1, 20, 0))
        assert r == 1
        assert p == pytest.approx(21 / 22, abs=1e-15)

    def test_quadrature_oracle(self):
        prior = GammaParams(1.0, 1.0)
        terms = predictive_terms(prior, 2, 8, 0.0)
        for x in (0, 1, 3, 9, 25):
            assert nb_pmf(x, terms) == pytest.approx(
                quadrature_predictive(x, prior, 2, 8), rel=1e-7
            )

    def test_prior_invariants_enforced(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -1.0)


class TestNbPmf:
    def test_mass_at_zero_is_p_to_r(self):
        assert nb_pmf(0, fixed(1, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_decay(self):
        assert nb_pmf(1, fixed(1, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_frozen_oracle_value(self):
        # Gamma(5)/(2! Gamma(3)) * (1/8) * (1/4) = 0.1875
        assert nb_pmf(2, fixed(3, 0.5)) == pytest.approx(0.1875, rel=1e-12)

    def test_matches_high_precision_on_grid(self):
        for r in (0.5, 1.0, 4.0, 120.0):
            for p in (0.1, 0.5, 21 / 22):
                for x in (0, 1, 7, 90):
                    assert nb_pmf(x, fixed(r, p)) == pytest.approx(
                        mp_nb_pmf(x, r, p), rel=1e-10
                    )

    def test_prior_mass_and_statistics_on_grid(self):
        # The sampler's weights: a log prior mass on top of a predictive that
        # conditions on a cluster's member count and count sum.
        for n, s in ((0, 0), (1, 0), (3, 11), (40, 400), (2_000, 9_000)):
            for log_c in (0.0, math.log(3.0), math.log(0.2)):
                terms = terms_of(1.5, 0.8, n, s, log_c)
                for x in (0, 1, 7, 90):
                    expected = float(mpmath.exp(mp_log_nb(x, 1.5, 0.8, n, s) + log_c))
                    assert nb_pmf(x, terms) == pytest.approx(expected, rel=1e-10)

    def test_normalises_over_truncated_support(self):
        for r, p in ((1.0, 0.5), (3.0, 0.25), (40.0, 0.9), (2.5, 21 / 22)):
            terms = fixed(r, p)
            mean = r * (1.0 - p) / p
            spread = math.sqrt(mean / p) if mean > 0 else 1.0
            x_max = int(mean + 60 * spread + 200)
            total = sum(nb_pmf(x, terms) for x in range(x_max + 1))
            assert mp_nb_pmf(x_max, r, p) < 1e-12
            assert total == pytest.approx(1.0, abs=1e-9)


class TestNll:
    def test_log_two_at_zero(self):
        assert nll(0, fixed(1, 0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_from_pmf_oracle(self):
        assert nll(2, fixed(3, 0.5)) == pytest.approx(-math.log(0.1875), rel=1e-12)

    def test_tail_monotonicity(self):
        terms = fixed(1, 0.9)
        assert nll(50, terms) > nll(5, terms)

    def test_finite_and_accurate_for_huge_counts(self):
        terms = fixed(2.0, 0.7)
        for x in (10, 10**3, 10**6):
            value = nll(x, terms)
            assert math.isfinite(value)
            expected = float(-mp_log_nb(x, 2.0, 0.7 / (1 - 0.7), dps=80))
            assert value == pytest.approx(expected, abs=1e-8)

    def test_strictly_decreasing_in_mass(self):
        terms = fixed(4.0, 0.6)
        masses = [(x, nb_pmf(x, terms)) for x in range(30)]
        for (_, m1), (_, m2) in zip(masses, masses[1:]):
            x1_nll = -math.log(m1)
            x2_nll = -math.log(m2)
            assert (m1 > m2) == (x1_nll < x2_nll)


class TestConjugacyBridge:
    """The log weight from the predictive terms agrees with direct integration."""

    def test_random_tuples_small(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            prior = GammaParams(rng.uniform(0.5, 4), rng.uniform(0.5, 4))
            n_obs = int(rng.integers(0, 30))
            sum_x = int(rng.integers(0, 200)) if n_obs else 0
            terms = predictive_terms(prior, n_obs, sum_x, 0.0)
            for x in (0, 2, 11, 47):
                expected = quadrature_predictive(x, prior, n_obs, sum_x)
                assert nb_pmf(x, terms) == pytest.approx(expected, rel=1e-6)
