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
admissible target vector.  That iteration, `newton_minimize`, also solves the
congestion dual, as projected Newton over nonnegative prices.  Everything here
enumerates the family exactly.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .conflict_graph import (
    AdmissibilityCertificate,
    IndependentSetFamily,
    enumerate_independent_sets,
    induced_subgraph,
    is_strictly_admissible,
)
from .errors import ConvergenceFailure, InfeasibleRates, NumericFailure

NEWTON_MAX_ITER = 200  # steps; the fit and the dual take at most ~20 on the presets
BACKOFF_TOL = 1e-10  # residual |s(r) - rates| at which the fit stops
# The law's mass misses 1 by at most LAW_ROUNDING * eps * (N + log Z), N
# schedules (log Z >= 0: the empty schedule's energy is 0).  With u = eps/2,
# log Z = peak + log(sum) rounds by u log Z, and the sum of N shifted
# exponentials by (N - 1) u plus u(1 + 1/e) a term; each probability
# exp(e - log Z) rounds its exponent by u log(1/p) and itself by u, and
# p log(1/p) sums to at most log N; adding the N probabilities costs (N - 1) u.
# That is u (log Z + 6 N) <= 3 eps (N + log Z) in log mass; 4 covers |mass - 1|.
LAW_ROUNDING = 4.0


def _check_backoff(family: IndependentSetFamily, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (family.n,):
        raise ValueError(f"backoff vector must have shape ({family.n},)")
    if not np.logical_and.reduce(np.isfinite(r)):
        raise ValueError("backoff vector must be finite here; mask zero-rate nodes upstream")
    return r


def _gibbs_law(matrix: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """The law's probabilities and log Z at an (n,) float r known to be finite
    (through `_check_backoff`, or the engine's bound on its own drive)."""
    energy = matrix @ r
    peak = float(np.maximum.reduce(energy))  # the max-shift keeps |r| up to ~700 safe
    logz = peak + math.log(float(np.add.reduce(np.exp(energy - peak))))
    return np.exp(energy - logz), logz


class GibbsDistribution(NamedTuple):
    probs: np.ndarray
    log_partition: float


def stationary_distribution(family: IndependentSetFamily, r) -> GibbsDistribution:
    """The law at r, which fails closed (NumericFailure) unless its mass is 1
    within LAW_ROUNDING * eps * (N + log Z) and that bound is below 1: past
    log Z ~ 1e15 one rounding of log Z can double the law or empty it."""
    probs, logz = _gibbs_law(family.matrix, _check_backoff(family, r))
    bound = LAW_ROUNDING * np.finfo(float).eps * (family.size + logz)
    if not bound < 1.0:  # NaN fails it too
        raise NumericFailure(f"log Z = {logz:.6g} is past what floats resolve: the "
                             f"stationary law's rounding bound is {bound:.3g}")
    mass = float(np.add.reduce(probs))
    if not abs(mass - 1.0) <= bound:
        raise NumericFailure(f"the stationary law sums to {mass!r}, not to 1 within "
                             f"its rounding bound {bound:.3g}")
    probs.setflags(write=False)
    return GibbsDistribution(probs=probs, log_partition=logz)


def service_rates(family: IndependentSetFamily, r) -> np.ndarray:
    """Stationary per-node service rates s(r): the transmit marginals."""
    return stationary_distribution(family, r).probs @ family.matrix


def moments(family: IndependentSetFamily, r) -> tuple[float, np.ndarray, Callable[[], np.ndarray]]:
    """log Z(r), the transmit marginals s(r) and their covariance, from one law.

    These are the value, gradient and Hessian of log Z, so one pass serves a
    Newton step of the fit and of the congestion dual.  The covariance, the
    costly part, comes as a function that computes it when called.
    """
    dist = stationary_distribution(family, r)
    m = family.matrix
    s = dist.probs @ m
    return dist.log_partition, s, lambda: m.T @ (m * dist.probs[:, None]) - np.outer(s, s)


def newton_minimize(evaluate, x, lower, *, tol: float):
    """Minimize a smooth convex f over x >= lower by projected Newton.

    `evaluate(x)` returns f(x), its gradient and a function that builds a
    positive definite Hessian model, which is called only at the points the
    search accepts and steps from.  Coordinates within the residual of their
    bound whose gradient pushes outwards take a gradient step, the rest a
    Newton step, and the
    step backtracks along the projected arc max(x + t d, lower) until f falls
    by 1e-4 times the predicted decrease (Bertsekas, SIAM J. Control Optim.
    20(2), 1982); with lower = -inf this is damped Newton.  Returns (x, f(x),
    residual, steps) once the residual max |min(g, x - lower)| is <= tol.
    """
    value, grad, hess = evaluate(x)
    for steps in itertools.count():
        room = x - lower
        residual = float(np.abs(np.minimum(grad, room)).max())
        if residual <= tol:
            return x, value, residual, steps
        if steps == NEWTON_MAX_ITER:
            raise ConvergenceFailure(f"Newton iteration hit the cap of {steps} steps at "
                                     f"residual {residual:.3e} (tol {tol:.1e})")
        pinned = (grad > 0) & (room <= residual)
        free = ~pinned
        direction = -grad
        direction[free] = np.linalg.solve(hess()[np.ix_(free, free)], -grad[free])
        slope = float(grad[free] @ direction[free])

        def arc(t):  # the point at step t and the decrease it must achieve
            trial = np.maximum(x + t * direction, lower)
            return trial, -t * slope + float(grad[pinned] @ (x - trial)[pinned])

        t = 1.0
        trial, decrease = arc(t)
        # past float resolution backtracking sees only noise; take the full step
        undamped = decrease <= 1e-12 * (1.0 + abs(value))
        while True:
            trial_value, trial_grad, trial_hess = evaluate(trial)
            if undamped or trial_value <= value - 1e-4 * decrease:
                break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceFailure(
                    f"Newton line search stalled at residual {residual:.3e} (tol {tol:.1e})")
            trial, decrease = arc(t)
        x, value, grad, hess = trial, trial_value, trial_grad, trial_hess


class BackoffSolution(NamedTuple):
    """Fitted backoff vector; masked nodes carry -inf and never transmit."""

    r: np.ndarray
    masked: tuple[int, ...]
    residual: float
    iterations: int
    slack: float
    norm_bound: float


def solve_backoff(family: IndependentSetFamily, rates,
                  certificate: AdmissibilityCertificate | None = None) -> BackoffSolution:
    """Fit r so the stationary service rates equal `rates` exactly.

    Zero-rate nodes are excluded up front (their fitted value is -inf); the
    remaining subproblem, minimizing log Z(r) - rates . r, is solved on the
    induced subgraph by `newton_minimize` down to a residual of BACKOFF_TOL.
    Raises InfeasibleRates when the targets are not strictly admissible or the
    search reaches past twice the certified a-priori norm bound.
    `certificate` is `is_strictly_admissible(family, rates)` when the caller
    already holds it; it stands in for that LP when no node is masked, and a
    masked fit solves its own LP on the induced subgraph.
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

    cert = certificate
    if masked or cert is None:
        cert = is_strictly_admissible(sub_family, sub_rates)
    if not cert.admissible:
        raise InfeasibleRates(
            f"rates are not strictly admissible (LP slack {cert.slack:.3g} <= 0)")
    # a priori sup-norm bound on the fit: log(#schedules) / min(slack, least rate)
    bound = math.log(sub_family.size) / min(cert.slack, float(sub_rates.min()))

    def evaluate(r):
        if float(np.abs(r).max()) > 2.0 * bound:
            raise InfeasibleRates(
                f"iterates diverged past twice the norm bound {bound:.3g}; "
                "targets are at or outside the capacity boundary")
        log_z, served, covariance = moments(sub_family, r)
        return log_z - float(sub_rates @ r), served - sub_rates, covariance

    r, _, residual, steps = newton_minimize(evaluate, np.zeros(len(active)), -math.inf,
                                            tol=BACKOFF_TOL)
    full[active] = r
    full.setflags(write=False)
    return BackoffSolution(r=full, masked=masked, residual=residual, iterations=steps,
                           slack=cert.slack, norm_bound=bound)
