"""Single-Poisson background model for burst screening.

The background noise of an AE recording is modelled by one Poisson rate
with a Gamma prior.  Training folds noise-only window counts into the
conjugate posterior; scoring evaluates the negative log-likelihood of
every window count under the posterior predictive, the negated
``distributions.log_predictive`` with no prior mass (``log_c = 0``).
Windows whose NLL exceeds a calibrated threshold are flagged as
event-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import GammaParams, log_predictive, predictive_terms
from .windowing import WindowedCounts, WindowSpec, runs

__all__ = [
    "DEFAULT_FLAG_MARGIN",
    "BackgroundModel",
    "NllTrace",
    "train_background",
    "score",
    "flag_events",
]

# One order of magnitude in likelihood above the worst training window.
DEFAULT_FLAG_MARGIN = math.log(10.0)


@dataclass(frozen=True)
class BackgroundModel:
    """Gamma-Poisson background model with the terms of its posterior predictive.

    ``predictive`` is ``predictive_terms(prior, n_train, sum_train, 0.0)``.
    ``train_nll_max`` anchors the default flagging threshold: it is the
    largest NLL any training count receives under the final predictive.
    """

    prior: GammaParams
    n_train: int
    sum_train: int
    predictive: tuple
    train_nll_max: float


@dataclass(frozen=True)
class NllTrace:
    """Per-window NLL scores aligned 1:1 with a WindowedCounts."""

    starts: np.ndarray
    counts: np.ndarray
    nlls: np.ndarray
    flag_threshold: float
    spec: WindowSpec


def train_background(prior: GammaParams, noise_counts: Sequence[int]) -> BackgroundModel:
    """Fit the background model on counts from noise-only windows.

    Raises:
        ValueError: on an empty training set, which would leave the flag
            threshold without a training window to anchor it.
    """
    counts = [int(c) for c in noise_counts]
    if not counts:
        raise ValueError("noise_counts is empty; training needs at least one window")
    if any(c < 0 for c in counts):
        raise ValueError("noise counts must be non-negative")
    n = len(counts)
    total = sum(counts)
    predictive = predictive_terms(prior, n, total, 0.0)
    worst = max(-log_predictive(predictive, c, math.lgamma(c + 1)) for c in counts)
    return BackgroundModel(
        prior=prior,
        n_train=n,
        sum_train=total,
        predictive=predictive,
        train_nll_max=worst,
    )


def score(
    model: BackgroundModel,
    windowed: WindowedCounts,
    *,
    margin: float = DEFAULT_FLAG_MARGIN,
) -> NllTrace:
    """Score every window count under the model's posterior predictive.

    The flag threshold is the largest NLL seen across the noise counts the
    model was trained on, plus ``margin``.
    """
    # Windows share few distinct counts: one evaluation per distinct value.
    values, inverse = np.unique(windowed.counts, return_inverse=True)
    nlls = np.array(
        [-log_predictive(model.predictive, c, math.lgamma(c + 1)) for c in values.tolist()]
    )[inverse]
    return NllTrace(
        starts=windowed.starts,
        counts=windowed.counts,
        nlls=nlls,
        flag_threshold=float(model.train_nll_max + margin),
        spec=windowed.spec,
    )


def flag_events(trace: NllTrace) -> list[tuple[int, int]]:
    """Sample intervals covered by anomalous windows.

    Maximal runs of consecutive windows with NLL strictly above the flag
    threshold become intervals ``[first window start, last window start + n)``;
    intervals separated by a gap smaller than one window step are merged so
    that a single event split by window phase is reported once.
    """
    firsts, ends = runs(trace.nlls > trace.flag_threshold)
    last_ends = trace.starts[ends - 1] + trace.spec.length_n
    merged: list[tuple[int, int]] = []
    for start, end in zip(trace.starts[firsts].tolist(), last_ends.tolist()):
        if merged and start - merged[-1][1] < trace.spec.step:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged
