"""Count-model primitives: the Gamma prior over a Poisson rate and the
negative-binomial posterior predictive.

The Gamma family is conjugate to the Poisson likelihood, so Bayesian
updates stay in closed form.  For a Gamma(a, b) prior (shape ``a``,
rate ``b``) and ``N`` observed counts summing to ``S``:

    posterior            Gamma(a + S, b + N)
    posterior predictive NB(r, p),  r = a + S,  p = (N + b) / (N + b + 1)

with the negative-binomial mass function fixed as

    NB(x; r, p) = Gamma(x + r) / (x! Gamma(r)) * p**r * (1 - p)**x

The ``p`` parameter attaches to the ``r`` exponent, i.e. ``p`` is the
"success" probability of the rate staying small; the ``(1 - p)**x``
factor makes the mass function normalise over x = 0, 1, 2, ...

The mass function is evaluated in log space through ``math.lgamma`` and
never exponentiated here, so counts up to 10**6 and beyond stay finite
and accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GammaParams",
    "NBParams",
    "predictive_update",
    "nb_log_pmf",
    "nll",
]


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterisation of a Gamma distribution over a Poisson rate."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be a positive finite real, got {self.shape}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be a positive finite real, got {self.rate}")


@dataclass(frozen=True)
class NBParams:
    """Negative-binomial parameters.

    ``r`` is the number-of-failures (shape) parameter, ``p`` the success
    probability attached to the ``r`` exponent.  Mean is r * (1 - p) / p.
    """

    r: float
    p: float

    def __post_init__(self) -> None:
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be a positive finite real, got {self.r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")

    @property
    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p


def _check_count(x: int) -> int:
    if x != int(x) or x < 0:
        raise ValueError(f"count must be a non-negative integer, got {x!r}")
    return int(x)


def predictive_update(prior: GammaParams, n_obs: int, sum_x: int) -> NBParams:
    """Posterior-predictive negative binomial after ``n_obs`` counts summing to ``sum_x``.

    With ``n_obs = 0`` this is the prior predictive used to weight empty
    mixture components.
    """
    if n_obs != int(n_obs) or n_obs < 0:
        raise ValueError(f"n_obs must be a non-negative integer, got {n_obs!r}")
    sum_x = _check_count(sum_x)
    if n_obs == 0 and sum_x != 0:
        raise ValueError("sum_x must be 0 when n_obs is 0")
    gamma_rate = prior.rate + n_obs
    return NBParams(r=prior.shape + sum_x, p=gamma_rate / (gamma_rate + 1.0))


def nb_log_pmf(x: int, params: NBParams) -> float:
    """Log negative-binomial mass at count ``x``.

    ``lgamma(x + r) - lgamma(x + 1) - lgamma(r) + r*log(p) + x*log(1 - p)``,
    finite for every finite non-negative integer ``x``.
    """
    x = _check_count(x)
    r, p = params.r, params.p
    return (
        math.lgamma(x + r)
        - math.lgamma(x + 1)
        - math.lgamma(r)
        + r * math.log(p)
        + x * math.log1p(-p)
    )


def nll(x: int, params: NBParams) -> float:
    """Negative log-likelihood of a count under a negative binomial.

    Strictly decreasing in the mass assigned to ``x``; never infinite for
    finite ``x`` because the evaluation stays in log space.
    """
    return -nb_log_pmf(x, params)
