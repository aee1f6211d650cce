"""Backoff-rate update rules for queue-driven scheduling.

Two flavors.  The diminishing-step rule lengthens epochs as ceil(exp(sqrt(j)))
and steps by 1/j with no projection; it is stochastic gradient ascent on the
fit objective from gibbs.  The constant-step rule adds a slack epsilon to the
arrival estimate, uses a fixed step, and projects onto the box
[-n/eps, n/eps]^n.  Its published epoch length and step are reproduced
verbatim and are what a run uses when the config does not override them;
the epoch length is astronomically conservative, so desk runs override it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


def published_epoch_length(j: int) -> int:
    """Length ceil(exp(sqrt(j))) of diminishing-step epoch j >= 1.

    Whole lengths keep epoch boundaries on unit-interval boundaries.
    """
    if j < 1:
        raise ValueError("epoch index starts at 1")
    return math.ceil(math.exp(math.sqrt(j)))


def update_diminishing(r, lam_hat, s_hat, j: int) -> np.ndarray:
    """r + (1/j)(lam_hat - s_hat), no projection."""
    if j < 1:
        raise ValueError("epoch index starts at 1")
    r = np.asarray(r, dtype=float)
    return r + (np.asarray(lam_hat, float) - np.asarray(s_hat, float)) / j


def update_projected(r, lam_hat, s_hat, epsilon: float, alpha: float,
                     n: int) -> np.ndarray:
    """Constant-step update with slack, clipped to the box [-n/eps, n/eps]."""
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    r = np.asarray(r, dtype=float)
    stepped = r + alpha * (np.asarray(lam_hat, float) + epsilon
                           - np.asarray(s_hat, float))
    box = n / epsilon
    return np.clip(stepped, -box, box)


class ConstantStepPlan(NamedTuple):
    epoch_length: float  # exp((n^2/eps) log(n/eps)); inf once it overflows
    step: float          # eps^2 / (72 n^2 (K+1)^2)


def constant_step_plan(n: int, epsilon: float, peak: float = 1.0) -> ConstantStepPlan:
    """Published constants for the constant-step rule.

    peak is the largest per-interval arrival increment (the Lipschitz scale
    of the queue paths).  The epoch length is far beyond desk scale for any
    epsilon < 1, so runs override it.
    Inputs outside the analysis raise ConfigError, because they come from an
    experiment config.
    """
    if n <= 3:
        raise ConfigError("the constant-step analysis assumes more than 3 nodes; "
                          "set both the epoch_length and step overrides")
    if not 0 < epsilon:
        raise ConfigError("slack epsilon must be positive")
    if peak <= 0:
        raise ConfigError("peak increment must be positive")
    exponent = (n * n / epsilon) * math.log(n / epsilon)
    length = math.inf if exponent > 700.0 else math.exp(exponent)
    try:
        step = epsilon ** 2 / (72.0 * n * n * (peak + 1.0) ** 2)
    except OverflowError:  # a square past the float range
        raise ConfigError(f"the published constant step overflows at peak {peak:.3g} and "
                          f"slack {epsilon:.3g}; set both the epoch_length and step "
                          "overrides") from None
    return ConstantStepPlan(epoch_length=length, step=step)
