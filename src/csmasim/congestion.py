"""Price-based congestion control and the entropy-regularized rate program.

Nodes maintain nonnegative prices.  Each epoch a node picks the rate in
[0, 1] maximizing beta*U(y) - price*y, then nudges its price by the gap
between the rate it asked for and the service it saw.  The diminishing-step
variant is the scheduler's 1/j step (`scheduling.update_diminishing`) with a
positive-part projection, which the engine applies; the constant-step variant
(`update_prices_constant`) keeps prices in a box [0, beta*V + alpha] where V
(`initial_slope_bound`) bounds the utility slopes at zero.

Certification side: the offline program maximizes sum U_i(lambda_i) plus
(1/beta) times the schedule entropy over the capacity polytope.  Its dual in
the price vector is the log partition function plus the per-node best-response
values, minimized by projected Newton.  The unregularized optimum comes from
an away-step Frank-Wolfe over the independent-set polytope, giving the
log(family size)/beta utility-gap bound a computable left-hand side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conflict_graph import IndependentSetFamily, max_weight_independent_set
from .errors import ConfigError, ConvergenceFailure
from .gibbs import moments, newton_minimize

UTILITY_FAMILIES = ("log-shifted", "weighted-log-shifted", "alpha-fair-shifted")
UTILITY_MAX_ITER = 200_000
DUAL_TOL = 1e-8  # projected-gradient sup norm at which the dual search stops
UTILITY_TOL = 1e-8  # Frank-Wolfe gap at which the utility optimum stops


@dataclass(frozen=True)
class UtilityFunction:
    """Strictly increasing concave utility on [0, 1] with finite slope at 0.

    log-shifted: log(shift + y) - log(shift).  weighted-log-shifted: the same
    times weight.  alpha-fair-shifted: ((shift+y)^(1-a) - shift^(1-a))/(1-a)
    with fairness a >= 0, a != 1 (a = 0 degrades to linear).  The shift keeps
    the derivative at zero finite, which the price-box bounds need.  A family
    rejects a non-default value of a parameter it does not use, so
    log-shifted is weighted-log-shifted at weight 1.  U' and |U''| fall on
    [0, 1] and U rises from U(0) = 0, so a finite U'(0), U''(0) and U(1)
    bound all three there; parameters that overflow any of them are refused,
    and so are those whose U'(1) underflows to 0, where U stops increasing.
    """

    family: str = "log-shifted"
    shift: float = 1.0
    weight: float = 1.0
    fairness: float = 0.0

    def __post_init__(self):
        if self.family not in UTILITY_FAMILIES:
            raise ValueError(f"unknown utility family {self.family!r}; choices {UTILITY_FAMILIES}")
        if not self.shift > 0:
            raise ValueError("shift must be positive (keeps the slope at 0 finite)")
        if not self.weight > 0:
            raise ValueError("weight must be positive")
        if self.fairness < 0 or self.fairness == 1.0:
            raise ValueError("fairness must be >= 0 and != 1")
        if self.family != "weighted-log-shifted" and self.weight != 1.0:
            raise ValueError(f"{self.family} takes no weight")
        if self.family != "alpha-fair-shifted" and self.fairness != 0.0:
            raise ValueError(f"{self.family} takes no fairness")
        try:
            bounds = (self.derivative(0.0), self.second_derivative(0.0), self.value(1.0))
        except (OverflowError, ZeroDivisionError):  # ** past the float range, or 1/0
            bounds = (math.inf,)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("U'(0), U''(0) and U(1) must be finite (they bound U, U' "
                             "and |U''| on [0, 1]); lower the fairness or raise the shift")
        if not self.derivative(1.0) > 0:  # U' falls on [0, 1]: positive at 1, positive on it
            raise ValueError("U'(1) must be positive (U must increase in floats); "
                             "lower the fairness or the shift, or raise the weight")

    def value(self, y: float) -> float:
        d = self.shift
        if self.family == "alpha-fair-shifted":
            a = self.fairness
            return ((d + y) ** (1.0 - a) - d ** (1.0 - a)) / (1.0 - a)
        return self.weight * (math.log(d + y) - math.log(d))

    def derivative(self, y: float) -> float:
        d = self.shift
        if self.family == "alpha-fair-shifted":
            return (d + y) ** (-self.fairness)
        return self.weight / (d + y)

    def second_derivative(self, y: float) -> float:
        d = self.shift
        if self.family == "alpha-fair-shifted":
            return -self.fairness * (d + y) ** (-self.fairness - 1.0)
        return -self.weight / (d + y) ** 2


def initial_slope_bound(utilities) -> float:
    """Largest derivative at zero across nodes (the V of the price box)."""
    return max(u.derivative(0.0) for u in utilities)


def entropy_weight(n: int, beta: float | None, epsilon: float | None) -> float:
    """beta if set, else 4n/eps, at which the paper's eps-optimality bound holds;
    a given epsilon and the weight (4n/eps can overflow) are positive and finite."""
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon!r}")
    if beta is None and epsilon is None:
        raise ConfigError("need beta (or epsilon for the 4n/eps default)")
    beta = 4.0 * n / epsilon if beta is None else beta
    if not 0 < beta < math.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta!r}; "
                          "set beta or a larger epsilon")
    return beta


def best_response(u: UtilityFunction, beta: float, price: float) -> float:
    """argmax over y in [0,1] of beta*U(y) - price*y.

    Both families solve beta*U'(y) = price in closed form: the logs at
    y = beta*weight/price - shift, fairness a at y = (beta/price)^(1/a) - shift.
    An endpoint wins whenever the derivative never crosses zero inside the
    interval, which covers the linear case a = 0.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if price < 0:
        raise ValueError("prices are nonnegative")
    if price == 0.0:
        return 1.0
    if u.family != "alpha-fair-shifted":
        return min(1.0, max(0.0, beta * u.weight / price - u.shift))
    if beta * u.derivative(0.0) <= price:
        return 0.0
    if beta * u.derivative(1.0) >= price:
        return 1.0
    return min(1.0, max(0.0, (beta / price) ** (1.0 / u.fairness) - u.shift))


def best_responses(utilities, beta: float, prices) -> np.ndarray:
    # Python floats: a price so small that beta*weight/price overflows gives
    # inf without a numpy warning, and best_response clamps it to 1
    prices = np.asarray(prices, dtype=float).tolist()
    return np.array([best_response(u, beta, p) for u, p in zip(utilities, prices, strict=True)])


def total_utility(utilities, rates) -> float:
    rates = np.asarray(rates, dtype=float)
    return float(sum(u.value(y) for u, y in zip(utilities, rates, strict=True)))


def update_prices_constant(prices, rates, s_hat, alpha: float) -> np.ndarray:
    """[price - alpha*observed]_+ + alpha*rate componentwise.

    Stays inside [0, beta*V + alpha]: once a price exceeds beta*V the best
    response is 0, so the rate term adds nothing and the price shrinks.
    """
    if alpha <= 0:
        raise ValueError("step alpha must be positive")
    prices = np.asarray(prices, dtype=float)
    drained = np.maximum(prices - alpha * np.asarray(s_hat, float), 0.0)
    return drained + alpha * np.asarray(rates, float)


class DualSolution(NamedTuple):
    prices: np.ndarray
    rates: np.ndarray          # best responses at the optimal prices
    value: float               # dual objective at the optimum
    residual: float            # projected-gradient sup norm at exit
    iterations: int


def solve_dual_optimum(family: IndependentSetFamily, utilities, beta: float) -> DualSolution:
    """Minimize the dual over nonnegative prices by projected Newton.

    The dual log Z(p) + sum_i max_y [beta U_i(y) - p_i y] has gradient
    s(p) - y(p) and Hessian Cov(sigma) + diag(-y'(p)).  At beta = 4n/eps the
    covariance is near singular, so where y_i sits at 0 or 1 (y_i' = 0) the
    Newton model uses the gradient's sup norm instead.  The search starts at
    p_i = beta U_i'(1), below the optimum since rate 1 exceeds any service
    rate, and stops when the projected-gradient sup norm is <= DUAL_TOL.  A
    linear utility (alpha-fair-shifted at fairness 0) makes the dual
    nondifferentiable and raises ConfigError before the search starts.
    """
    if len(utilities) != family.n:
        raise ValueError("need one utility per node")
    for node, u in enumerate(utilities):
        if u.family == "alpha-fair-shifted" and u.fairness == 0.0:
            raise ConfigError(f"the utility of node {node} is linear (alpha-fair-shifted "
                              "at fairness 0), so the dual is not differentiable; "
                              "set a fairness > 0")

    def evaluate(prices):
        log_z, served, covariance = moments(family, prices)
        rates = best_responses(utilities, beta, prices)
        value = log_z + sum(beta * u.value(y) - p * y
                            for u, y, p in zip(utilities, rates, prices, strict=True))
        grad = served - rates

        def hessian():
            ridge = float(np.abs(grad).max())
            # -y'(p) = -1 / (beta U''(y)) where the best response is interior
            curvature = [-1.0 / (beta * u.second_derivative(y)) if 0.0 < y < 1.0 else ridge
                         for u, y in zip(utilities, rates, strict=True)]
            return covariance() + np.diag(curvature)

        return float(value), grad, hessian

    start = np.array([beta * u.derivative(1.0) for u in utilities])
    prices, value, residual, steps = newton_minimize(evaluate, start, 0.0, tol=DUAL_TOL)
    return DualSolution(prices=prices, rates=best_responses(utilities, beta, prices),
                        value=value, residual=residual, iterations=steps)


class UtilityOptimum(NamedTuple):
    rates: np.ndarray
    value: float
    gap: float                 # linearized ascent gap at exit
    weights: dict              # schedule mask -> convex weight realizing rates
    iterations: int


def solve_utility_optimum(family: IndependentSetFamily, utilities) -> UtilityOptimum:
    """Maximize total utility over the independent-set polytope.

    Away-step Frank-Wolfe: the linear oracle is max_weight_independent_set,
    the away vertex is the worst active one, and the step size comes from
    bisecting the directional derivative (concavity makes it monotone), for
    80 passes or until the interval stops shrinking.
    Away steps restore linear convergence, which plain Frank-Wolfe lacks and
    which the UTILITY_TOL gap needs.
    """
    if len(utilities) != family.n:
        raise ValueError("need one utility per node")
    matrix = family.matrix
    start = family.size - 1  # any vertex works; take the last enumerated one
    weights = {start: 1.0}
    lam = matrix[start].copy()

    def grad(point):  # Python floats: a derivative call on numpy scalars costs more
        return np.array([u.derivative(y)
                         for u, y in zip(utilities, point.tolist(), strict=True)])

    def line_search(point, direction, gamma_max):
        def slope(gamma):
            moved = point + gamma * direction
            return float(np.dot(grad(moved), direction))
        if slope(gamma_max) >= 0.0:
            return gamma_max
        lo, hi = 0.0, gamma_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            bounds = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
            if bounds == (lo, hi):
                break  # the interval stopped shrinking: every later pass repeats this one
            lo, hi = bounds
        return 0.5 * (lo + hi)

    gap = math.inf
    for it in range(1, UTILITY_MAX_ITER + 1):
        g = grad(lam)
        fw_row, _ = max_weight_independent_set(family, g)
        gap = float(np.dot(g, matrix[fw_row] - lam))
        if gap <= UTILITY_TOL:
            value = total_utility(utilities, lam)
            return UtilityOptimum(rates=lam, value=value, gap=gap,
                                  weights={int(family.masks[k]): w for k, w in weights.items()},
                                  iterations=it)
        away_row = max(weights, key=lambda k: -float(np.dot(g, matrix[k])))
        away_gap = float(np.dot(g, lam - matrix[away_row]))
        if gap >= away_gap:
            direction = matrix[fw_row] - lam
            gamma = line_search(lam, direction, 1.0)
            if gamma >= 1.0:
                weights = {fw_row: 1.0}
            else:
                weights = {k: w * (1.0 - gamma) for k, w in weights.items()}
                weights[fw_row] = weights.get(fw_row, 0.0) + gamma
        else:
            w_away = weights[away_row]
            direction = lam - matrix[away_row]
            gamma = line_search(lam, direction, w_away / (1.0 - w_away))
            weights = {k: w * (1.0 + gamma) for k, w in weights.items()}
            weights[away_row] -= gamma  # hits 0 exactly when the step is maximal
        weights = {k: w for k, w in weights.items() if w > 1e-15}
        total = sum(weights.values())
        weights = {k: w / total for k, w in weights.items()}
        lam = np.zeros(family.n)
        for k, w in weights.items():
            lam += w * matrix[k]
    raise ConvergenceFailure(
        f"rate optimization hit the iteration cap at gap {gap:.3e} (tol {UTILITY_TOL:.1e})")


class GapCertificate(NamedTuple):
    gap: float            # optimal total utility minus achieved total utility
    bound: float          # log(family size) / beta
    optimal_rates: np.ndarray
    error: float          # how far the gap can understate a feasible point's

    def holds(self) -> bool:
        """The bound is above what the error hides, and the gap within it."""
        return self.error < self.bound and self.gap <= self.bound


def residual_utility_error(utilities, rates, residual: float) -> float:
    """How far a gap measured at the dual's `rates` can understate the gap
    of a feasible point, given the dual's stopping `residual`.

    The dual stops once max_i |min(s_i - y_i, p_i)| <= residual, s the
    service rates at its prices p, so every rate y_i is at most s_i +
    residual.  z = min(y, s) lies below the service vector, so inside the
    down-closed capacity polytope, and each U_i, concave and increasing,
    moves by at most U_i'(max(y_i - residual, 0)) * residual between z_i and
    y_i.  The sum of those is the error.
    """
    return sum(u.derivative(max(y - residual, 0.0)) * residual
               for u, y in zip(utilities, np.asarray(rates, dtype=float).tolist(), strict=True))


def utility_gap_certificate(family: IndependentSetFamily, utilities, beta: float,
                            achieved_rates, residual: float = 0.0) -> GapCertificate:
    """Compare achieved rates against the polytope optimum.

    The entropy term the prices implicitly optimize is at most log(family
    size), so the utility sacrificed is at most log(family size)/beta.
    `residual` is the stopping residual of the dual that gave the rates, 0
    for rates inside the capacity region, such as a run's served rates.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    best = solve_utility_optimum(family, utilities)
    return GapCertificate(gap=best.value - total_utility(utilities, achieved_rates),
                          bound=math.log(family.size) / beta,
                          optimal_rates=best.rates,
                          error=residual_utility_error(utilities, achieved_rates, residual)
                          if residual else 0.0)
