"""Count-model primitives: the Gamma prior over a Poisson rate and the one
negative-binomial log weight that detection, clustering and monitoring share.

The Gamma family is conjugate to the Poisson likelihood, so Bayesian
updates stay in closed form.  For a Gamma(a, b) prior (shape ``a``,
rate ``b``) and ``n`` observed counts summing to ``s``:

    posterior            Gamma(a + s, b + n)
    posterior predictive NB(r, p),  r = a + s,  p = (b + n) / (b + n + 1)

with the negative-binomial mass function fixed as

    NB(x; r, p) = Gamma(x + r) / (x! Gamma(r)) * p**r * (1 - p)**x

``log_predictive`` returns ``log_c + log NB(x; r, p)``, where ``log_c`` is a
log prior mass: ``log n`` or ``log alpha`` for a route of the collapsed
sampler, ``0.0`` for the background detector, whose NLL is its negation.
``predictive_terms`` computes the pieces that do not depend on ``x`` once
per ``(n, s)``.  The weight is kept in log space through ``math.lgamma``
and never exponentiated here, so counts up to 10**6 and beyond stay finite
and accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GammaParams", "predictive_terms", "log_predictive"]


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


def predictive_terms(prior: GammaParams, n: int, s: int, log_c: float) -> tuple:
    """Count-independent pieces of ``log_c + log NB(x; a + s, (b + n)/(b + n + 1))``.

    ``n`` and ``s`` are the number and sum of the counts the predictive
    conditions on (zero for the prior predictive) and ``log_c`` the log
    prior mass added to every weight.
    """
    r = prior.shape + s
    gamma_rate = prior.rate + n
    log1p_g = math.log1p(gamma_rate)
    return (log_c, r, math.lgamma(r), r * (math.log(gamma_rate) - log1p_g), log1p_g)


def log_predictive(terms: tuple, x: int, lgamma_x1: float) -> float:
    """Log weight of count ``x`` under ``terms``; ``lgamma_x1`` is ``lgamma(x + 1)``."""
    log_c, r, lgamma_r, r_log_p, log1p_g = terms
    return (
        log_c
        + math.lgamma(x + r)
        - lgamma_r
        - lgamma_x1
        + r_log_p
        - x * log1p_g
    )
