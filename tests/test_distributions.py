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

from aeburst.distributions import (
    GammaParams,
    NBParams,
    nb_log_pmf,
    nll,
    predictive_update,
)


def nb_pmf(x: int, params: NBParams) -> float:
    """Negative-binomial mass, exponentiated from the library's log mass."""
    return math.exp(nb_log_pmf(x, params))


def mp_nb_pmf(x: int, r: float, p: float) -> float:
    """Arbitrary-precision negative-binomial mass."""
    with mpmath.workdps(60):
        r_mp, p_mp = mpmath.mpf(r), mpmath.mpf(p)
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
        assert predictive_update(GammaParams(1, 1), 0, 0) == NBParams(1, 0.5)

    def test_direct_substitution(self):
        assert predictive_update(GammaParams(1, 1), 2, 8) == NBParams(9, 0.75)

    def test_twenty_noise_windows_unit_prior(self):
        # Idealised zero-count training under the unit prior.
        params = predictive_update(GammaParams(1, 1), 20, 0)
        assert params.r == 1
        assert params.p == pytest.approx(21 / 22, abs=1e-15)

    def test_quadrature_oracle(self):
        prior = GammaParams(1.0, 1.0)
        params = predictive_update(prior, 2, 8)
        for x in (0, 1, 3, 9, 25):
            assert nb_pmf(x, params) == pytest.approx(
                quadrature_predictive(x, prior, 2, 8), rel=1e-7
            )

    def test_sum_x_requires_observations(self):
        with pytest.raises(ValueError):
            predictive_update(GammaParams(1, 1), 0, 3)

    def test_prior_invariants_enforced(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -1.0)


class TestNbPmf:
    def test_mass_at_zero_is_p_to_r(self):
        assert nb_pmf(0, NBParams(1, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_decay(self):
        assert nb_pmf(1, NBParams(1, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_frozen_oracle_value(self):
        # Gamma(5)/(2! Gamma(3)) * (1/8) * (1/4) = 0.1875
        assert nb_pmf(2, NBParams(3, 0.5)) == pytest.approx(0.1875, rel=1e-12)

    def test_matches_high_precision_on_grid(self):
        for r in (0.5, 1.0, 4.0, 120.0):
            for p in (0.1, 0.5, 21 / 22):
                for x in (0, 1, 7, 90):
                    assert nb_pmf(x, NBParams(r, p)) == pytest.approx(
                        mp_nb_pmf(x, r, p), rel=1e-10
                    )

    def test_normalises_over_truncated_support(self):
        for r, p in ((1.0, 0.5), (3.0, 0.25), (40.0, 0.9), (2.5, 21 / 22)):
            params = NBParams(r, p)
            mean = params.mean
            spread = math.sqrt(mean / p) if mean > 0 else 1.0
            x_max = int(mean + 60 * spread + 200)
            total = sum(nb_pmf(x, params) for x in range(x_max + 1))
            assert mp_nb_pmf(x_max, r, p) < 1e-12
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            NBParams(0.0, 0.5)
        with pytest.raises(ValueError):
            NBParams(1.0, 0.0)
        with pytest.raises(ValueError):
            NBParams(1.0, 1.0)


class TestNll:
    def test_log_two_at_zero(self):
        assert nll(0, NBParams(1, 0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_from_pmf_oracle(self):
        assert nll(2, NBParams(3, 0.5)) == pytest.approx(-math.log(0.1875), rel=1e-12)

    def test_tail_monotonicity(self):
        params = NBParams(1, 0.9)
        assert nll(50, params) > nll(5, params)

    def test_finite_and_accurate_for_huge_counts(self):
        params = NBParams(2.0, 0.7)
        for x in (10, 10**3, 10**6):
            value = nll(x, params)
            assert math.isfinite(value)
            with mpmath.workdps(80):
                r, p = mpmath.mpf(2.0), mpmath.mpf(0.7)
                log_mass = (
                    mpmath.loggamma(x + r)
                    - mpmath.loggamma(x + 1)
                    - mpmath.loggamma(r)
                    + r * mpmath.log(p)
                    + x * mpmath.log(1 - p)
                )
                expected = float(-log_mass)
            assert value == pytest.approx(expected, abs=1e-8)

    def test_strictly_decreasing_in_mass(self):
        params = NBParams(4.0, 0.6)
        masses = [(x, nb_pmf(x, params)) for x in range(30)]
        for (_, m1), (_, m2) in zip(masses, masses[1:]):
            x1_nll = -math.log(m1)
            x2_nll = -math.log(m2)
            assert (m1 > m2) == (x1_nll < x2_nll)


class TestConjugacyBridge:
    """nb_log_pmf and the predictive update agree with direct integration."""

    def test_random_tuples_small(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            prior = GammaParams(rng.uniform(0.5, 4), rng.uniform(0.5, 4))
            n_obs = int(rng.integers(0, 30))
            sum_x = int(rng.integers(0, 200)) if n_obs else 0
            params = predictive_update(prior, n_obs, sum_x)
            for x in (0, 2, 11, 47):
                expected = quadrature_predictive(x, prior, n_obs, sum_x)
                assert math.exp(nb_log_pmf(x, params)) == pytest.approx(
                    expected, rel=1e-6
                )
