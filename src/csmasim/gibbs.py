"""Exact product-form analysis of the idealized CSMA chain.

With backoff vector r, the chain's stationary law over feasible schedules is
the exponential family

    P(sigma) = exp(sigma . r) / Z(r),

an unnormalized weight exp(r_i) per transmitting node.  The service rate of
node i is its stationary transmit marginal.  Fitting r so the service rates
hit prescribed targets is a concave maximum-likelihood problem: the objective

    L(r) = targets . r - log Z(r)

has gradient targets - s(r) and Hessian equal to the negated schedule
covariance, so a damped Newton iteration converges globally for any strictly
admissible target vector.  Everything here enumerates the family exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conflict_graph import (
    IndependentSetFamily,
    backoff_norm_bound,
    enumerate_independent_sets,
    induced_subgraph,
    is_strictly_admissible,
)
from .errors import ConvergenceFailure, InfeasibleRates

BACKOFF_MAX_ITER = 200  # Newton steps; the fit converges quadratically


def _check_backoff(family: IndependentSetFamily, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (family.n,):
        raise ValueError(f"backoff vector must have shape ({family.n},)")
    if not np.all(np.isfinite(r)):
        raise ValueError("backoff vector must be finite here; mask zero-rate nodes upstream")
    return r


def log_partition(family: IndependentSetFamily, r) -> float:
    """log Z(r), evaluated with the usual max-shift so |r| up to ~700 is safe."""
    r = _check_backoff(family, r)
    energy = family.matrix @ r
    peak = float(energy.max())
    return peak + math.log(float(np.exp(energy - peak).sum()))


@dataclass(frozen=True)
class GibbsDistribution:
    family: IndependentSetFamily
    probs: np.ndarray
    log_partition: float

    def node_marginals(self) -> np.ndarray:
        """Per-node stationary transmit probability."""
        return self.probs @ self.family.matrix


def stationary_distribution(family: IndependentSetFamily, r) -> GibbsDistribution:
    r = _check_backoff(family, r)
    energy = family.matrix @ r
    logz = log_partition(family, r)
    probs = np.exp(energy - logz)
    probs.setflags(write=False)
    return GibbsDistribution(family=family, probs=probs, log_partition=logz)


def service_rates(family: IndependentSetFamily, r) -> np.ndarray:
    """Stationary per-node service rates s(r)."""
    return stationary_distribution(family, r).node_marginals()


def log_likelihood(family: IndependentSetFamily, r, rates) -> float:
    """rates . r - log Z(r); concave in r, maximized where s(r) = rates."""
    r = _check_backoff(family, r)
    rates = np.asarray(rates, dtype=float)
    return float(rates @ r) - log_partition(family, r)


def log_likelihood_gradient(family: IndependentSetFamily, r, rates) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    return rates - service_rates(family, r)


def log_likelihood_hessian(family: IndependentSetFamily, r) -> np.ndarray:
    """Negated covariance of the schedule indicator vector; symmetric, negative definite."""
    dist = stationary_distribution(family, r)
    m = family.matrix
    second_moment = m.T @ (m * dist.probs[:, None])
    s = dist.probs @ m
    return -(second_moment - np.outer(s, s))


@dataclass(frozen=True)
class BackoffSolution:
    """Fitted backoff vector; masked nodes carry -inf and never transmit."""

    r: np.ndarray
    masked: tuple[int, ...]
    residual: float
    iterations: int
    slack: float
    norm_bound: float


def solve_backoff(family: IndependentSetFamily, rates, *,
                  tol: float = 1e-10) -> BackoffSolution:
    """Fit r so the stationary service rates equal `rates` exactly.

    Zero-rate nodes are excluded up front (their fitted value is -inf); the
    remaining subproblem is solved on the induced subgraph by damped Newton.
    Raises InfeasibleRates when the targets are not strictly admissible or the
    iterates escape twice the certified a-priori norm bound.
    """
    rates = np.asarray(rates, dtype=float)
    n = family.n
    if rates.shape != (n,):
        raise ValueError(f"rates must have shape ({n},)")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise ValueError("rates must be finite and nonnegative")

    masked = tuple(int(i) for i in np.flatnonzero(rates == 0.0))
    active = [i for i in range(n) if rates[i] > 0.0]
    full = np.full(n, -math.inf)
    if not active:
        full.setflags(write=False)
        return BackoffSolution(r=full, masked=masked, residual=0.0,
                               iterations=0, slack=math.inf, norm_bound=0.0)

    if masked:
        sub_family = enumerate_independent_sets(induced_subgraph(family.graph, active))
    else:
        sub_family = family
    sub_rates = rates[active]

    cert = is_strictly_admissible(sub_family, sub_rates)
    if not cert.admissible:
        raise InfeasibleRates(
            f"rates are not strictly admissible (LP slack {cert.slack:.3g} <= 0)")
    bound = backoff_norm_bound(sub_family, sub_rates, cert)
    guard = 2.0 * bound

    r = np.zeros(len(active))
    residual = math.inf
    for iteration in range(1, BACKOFF_MAX_ITER + 1):
        grad = log_likelihood_gradient(sub_family, r, sub_rates)
        residual = float(np.abs(grad).max())
        if residual <= tol:
            full[active] = r
            full.setflags(write=False)
            return BackoffSolution(r=full, masked=masked, residual=residual,
                                   iterations=iteration - 1, slack=cert.slack,
                                   norm_bound=bound)
        step = np.linalg.solve(-log_likelihood_hessian(sub_family, r), grad)
        base = log_likelihood(sub_family, r, sub_rates)
        slope = float(grad @ step)
        if slope <= 1e-12 * (1.0 + abs(base)):
            # the attainable gain is below float resolution, so backtracking
            # would only see noise; undamped Newton finishes the basin
            t = 1.0
        else:
            t = 1.0
            while t > 1e-12:
                if log_likelihood(sub_family, r + t * step, sub_rates) >= base + 1e-4 * t * slope:
                    break
                t *= 0.5
        r = r + t * step
        if float(np.abs(r).max()) > guard:
            raise InfeasibleRates(
                f"iterates diverged past twice the norm bound {bound:.3g}; "
                "targets are at or outside the capacity boundary")
    raise ConvergenceFailure(
        f"backoff fit stalled at residual {residual:.3g} after {BACKOFF_MAX_ITER} iterations")
