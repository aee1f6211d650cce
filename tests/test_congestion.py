"""Utility families, price recursions, the dual fixed point, and the
polytope utility optimum.  The two exact solvers are deliberately different
algorithms so each can serve as the other's cross-check."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmasim import congestion
from csmasim.conflict_graph import PRESETS, enumerate_independent_sets, preset
from csmasim.congestion import (
    UtilityFunction,
    best_response,
    best_responses,
    entropy_weight,
    initial_slope_bound,
    solve_dual_optimum,
    solve_utility_optimum,
    total_utility,
    update_prices_constant,
    utility_gap_certificate,
)
from csmasim.engine import ExperimentConfig, run_experiment
from csmasim.errors import ConfigError, ConvergenceFailure
from csmasim.gibbs import service_rates
from csmasim.scheduling import update_diminishing
from oracles import (best_response_value, clique2_log_gap, dual_gradient, dual_value,
                     utility_optimum_full_bisection)


LOG1 = UtilityFunction("log-shifted")


@pytest.fixture(scope="module")
def clique2():
    return enumerate_independent_sets(preset("clique2"))


@pytest.fixture(scope="module")
def single():
    return enumerate_independent_sets(preset("single"))


# -- utility families ------------------------------------------------------------

def test_utility_values_are_zero_at_origin():
    for u in (LOG1,
              UtilityFunction("weighted-log-shifted", shift=0.5, weight=2.0),
              UtilityFunction("alpha-fair-shifted", shift=1.0, fairness=2.0)):
        assert u.value(0.0) == pytest.approx(0.0, abs=1e-15)
        assert u.value(1.0) > 0.0


def test_utility_validation():
    with pytest.raises(ValueError):
        UtilityFunction("quadratic")
    with pytest.raises(ValueError):
        UtilityFunction("log-shifted", shift=0.0)
    with pytest.raises(ValueError):
        UtilityFunction("weighted-log-shifted", weight=-1.0)
    with pytest.raises(ValueError):
        UtilityFunction("alpha-fair-shifted", fairness=-0.5)
    # a parameter the family does not use must keep its default
    for family, extra in (("log-shifted", {"weight": 3.0}),
                          ("log-shifted", {"fairness": 0.5}),
                          ("weighted-log-shifted", {"fairness": 0.5}),
                          ("alpha-fair-shifted", {"weight": 2.0})):
        with pytest.raises(ValueError, match="takes no"):
            UtilityFunction(family, **extra)


@pytest.mark.parametrize("family, params", [
    ("alpha-fair-shifted", dict(shift=0.3, fairness=702.0)),     # U'(0) = 0.3**-702 overflows
    ("alpha-fair-shifted", dict(shift=1e-200, fairness=1.5)),    # U''(0) alone: 1.5e500
    ("weighted-log-shifted", dict(shift=1e-300, weight=1e300)),  # U'(0) = inf, U''(0) = w/0
    ("log-shifted", dict(shift=1e-160)),                         # U''(0) alone: -1e320
])
def test_utility_with_a_slope_past_the_float_range_is_refused(family, params):
    with pytest.raises(ValueError, match="must be finite"):
        UtilityFunction(family, **params)


@pytest.mark.parametrize("family, params", [
    ("alpha-fair-shifted", dict(shift=1.0, fairness=1e300)),    # U'(y) = 0 for 1 + y > 1
    ("weighted-log-shifted", dict(shift=1.0, weight=5e-324)),  # U'(1) = 5e-324 / 2 rounds to 0
])
def test_utility_whose_slope_underflows_to_zero_is_refused(family, params):
    with pytest.raises(ValueError, match="U'\\(1\\) must be positive"):
        UtilityFunction(family, **params)


@pytest.mark.parametrize("family, params", [
    ("alpha-fair-shifted", dict(shift=0.3, fairness=500.0)),
    ("alpha-fair-shifted", dict(shift=1.0, fairness=1000.0)),   # U'(1) = 2**-1000, ~9e-302
    ("alpha-fair-shifted", dict(shift=1e-100, fairness=1.5)),
    ("weighted-log-shifted", dict(shift=1e-8, weight=1e290)),
    ("log-shifted", dict(shift=1e-150)),
])
def test_utility_with_finite_slopes_is_accepted(family, params):
    u = UtilityFunction(family, **params)
    for y in (0.0, 0.5, 1.0):
        assert all(map(math.isfinite, (u.value(y), u.derivative(y), u.second_derivative(y))))


def test_log_family_closed_forms():
    assert LOG1.value(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert LOG1.derivative(0.0) == pytest.approx(1.0, abs=1e-15)
    w = UtilityFunction("weighted-log-shifted", shift=2.0, weight=3.0)
    assert w.derivative(1.0) == pytest.approx(1.0, abs=1e-15)
    assert initial_slope_bound((LOG1, w)) == pytest.approx(1.5, abs=1e-15)
    # log-shifted is weighted-log-shifted at weight 1
    unit = UtilityFunction("weighted-log-shifted", weight=1.0)
    for y in (0.0, 0.3, 1.0):
        assert (LOG1.value(y), LOG1.derivative(y)) == (unit.value(y), unit.derivative(y))
    for price in (0.0, 1.0, 7.0, 30.0):
        assert best_response(LOG1, 10.0, price) == best_response(unit, 10.0, price)


def test_alpha_fair_approaches_log_at_fairness_one():
    near = UtilityFunction("alpha-fair-shifted", fairness=1.0 + 1e-9)
    for y in (0.2, 0.7, 1.0):
        assert near.value(y) == pytest.approx(LOG1.value(y), abs=1e-6)


def test_entropy_weight_rule():
    assert entropy_weight(5, None, 0.4) == pytest.approx(50.0)
    assert entropy_weight(5, 7.0, 0.4) == 7.0  # beta wins
    with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
        entropy_weight(5, None, 0.0)


# -- best responses ----------------------------------------------------------------

def test_best_response_log_closed_form():
    # interior solution y = beta/price - shift
    assert best_response(LOG1, 10.0, 7.0) == pytest.approx(10.0 / 7.0 - 1.0, abs=1e-15)
    assert best_response(LOG1, 10.0, 4.0) == 1.0   # saturates
    assert best_response(LOG1, 10.0, 40.0) == 0.0  # priced out
    assert best_response(LOG1, 10.0, 0.0) == 1.0   # free capacity
    with pytest.raises(ValueError):
        best_response(LOG1, 0.0, 1.0)
    with pytest.raises(ValueError):
        best_response(LOG1, 10.0, -1.0)


@given(st.floats(min_value=5.01, max_value=9.99))
@settings(max_examples=50, deadline=None)
def test_best_response_interior_band(price):
    y = best_response(LOG1, 10.0, price)
    assert y == pytest.approx(10.0 / price - 1.0, abs=1e-12)
    assert 0.0 < y < 1.0


def test_alpha_fair_best_response_matches_a_50_digit_root():
    # beta (shift+y)^-a = price  ->  y = (beta/price)^(1/a) - shift, here in
    # 50-digit decimal arithmetic at prices strictly inside the interior band
    beta = 8.0
    for fairness in (0.25, 0.5, 2.0, 3.5, 7.0):
        for shift in (0.5, 1.0, 2.0):
            u = UtilityFunction("alpha-fair-shifted", shift=shift, fairness=fairness)
            band = np.linspace(beta * (shift + 1.0) ** -fairness, beta * shift ** -fairness, 12)
            for price in band[1:-1].tolist():
                with decimal.localcontext() as ctx:
                    ctx.prec = 50
                    root = ((Decimal(beta) / Decimal(price)) ** (1 / Decimal(fairness))
                            - Decimal(shift))
                assert abs(Decimal(best_response(u, beta, price)) - root) <= Decimal(1.5e-15)
    # outside the band an endpoint wins
    u = UtilityFunction("alpha-fair-shifted", shift=1.0, fairness=2.0)
    assert best_response(u, beta, 1.0) == 1.0
    assert best_response(u, beta, 9.0) == 0.0


@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.1, max_value=3.0).filter(lambda a: abs(a - 1.0) > 1e-6))
@settings(max_examples=60, deadline=None)
def test_best_response_is_the_argmax(price, fairness):
    u = UtilityFunction("alpha-fair-shifted", fairness=fairness)
    beta = 10.0
    y = best_response(u, beta, price)
    top = beta * u.value(y) - price * y
    for cand in np.linspace(0.0, 1.0, 41):
        assert top >= beta * u.value(float(cand)) - price * float(cand) - 1e-9
    assert best_response_value(u, beta, price) == pytest.approx(top, abs=1e-15)


def test_best_responses_zip_is_strict():
    with pytest.raises(ValueError):
        best_responses((LOG1,), 10.0, [1.0, 2.0])


# -- price recursions -----------------------------------------------------------------

def test_diminishing_price_update_clamps_at_zero():
    # cc1's price step is sched1's drive step, [price + (rate - service)/j]_+;
    # at shift 10 a node asks for nothing once its price passes 0.005, so the
    # service drains the price below 0 and the projection clamps it
    utility = UtilityFunction("log-shifted", shift=10.0)
    config = ExperimentConfig(graph=preset("single"), algorithm="cc1", horizon=30,
                              utilities=(utility,), beta=0.05, epoch_length=10,
                              mode="deterministic-oracle")
    records = list(run_experiment(config))
    clamped = 0
    for rec, after in zip(records, records[1:]):
        stepped = (np.array(rec.drive)
                   + (np.array(rec.rates) - np.array(rec.offered_service_est)) / rec.j)
        assert after.drive == tuple(np.maximum(stepped, 0.0).tolist())
        clamped += int(stepped[0] < 0.0)
    assert clamped == 5


def test_constant_price_update_formula():
    out = update_prices_constant([1.0], [0.4], [0.7], 0.1)
    assert out == pytest.approx([max(1.0 - 0.07, 0.0) + 0.04], abs=1e-15)
    with pytest.raises(ValueError):
        update_prices_constant([1.0], [0.4], [0.7], 0.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_constant_price_box_is_invariant(s_hat, alpha):
    utilities = (LOG1, LOG1)
    beta = 12.0
    box = beta * initial_slope_bound(utilities) + alpha
    rng = np.random.default_rng(int(alpha * 1e6))
    prices = rng.uniform(0.0, box, size=2)
    rates = best_responses(utilities, beta, prices)
    out = update_prices_constant(prices, rates, s_hat, alpha)
    assert np.all(out >= 0.0)
    assert np.all(out <= box + 1e-12)


# -- dual problem -----------------------------------------------------------------------

def test_dual_value_at_zero_prices(clique2):
    utilities = (LOG1, LOG1)
    expect = math.log(3.0) + 2 * 10.0 * math.log(2.0)
    assert dual_value(clique2, utilities, 10.0, [0.0, 0.0]) == pytest.approx(
        expect, abs=1e-12)


def test_dual_gradient_is_service_minus_demand(clique2):
    utilities = (LOG1, LOG1)
    prices = np.array([6.0, 7.0])
    g = dual_gradient(clique2, utilities, 10.0, prices)
    expect = service_rates(clique2, prices) - best_responses(utilities, 10.0, prices)
    assert g == pytest.approx(expect, abs=1e-15)


def test_dual_midpoint_convexity(clique2):
    utilities = (LOG1, LOG1)
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.uniform(0.0, 12.0, size=2)
        b = rng.uniform(0.0, 12.0, size=2)
        fa = dual_value(clique2, utilities, 10.0, a)
        fb = dual_value(clique2, utilities, 10.0, b)
        fm = dual_value(clique2, utilities, 10.0, 0.5 * (a + b))
        assert fm <= 0.5 * (fa + fb) + 1e-12


def test_single_node_dual_matches_scalar_root(single):
    sol = solve_dual_optimum(single, (LOG1,), 10.0)
    # oracle: the stationary occupancy curve meets the demand curve
    lo, hi = 5.000001, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if service_rates(single, [mid])[0] > 10.0 / mid - 1.0:
            hi = mid
        else:
            lo = mid
    assert sol.prices[0] == pytest.approx(0.5 * (lo + hi), abs=1e-6)
    assert sol.prices[0] == pytest.approx(5.0165142467590425, abs=1e-6)
    assert sol.rates[0] == pytest.approx(0.99341604, abs=1e-6)
    assert sol.residual <= 1e-8


def test_dual_optimum_is_a_minimum(clique2):
    utilities = (LOG1, LOG1)
    sol = solve_dual_optimum(clique2, utilities, 10.0)
    assert sol.rates == pytest.approx([0.49968250084024324] * 2, abs=1e-6)
    rng = np.random.default_rng(29)
    for _ in range(25):
        r = rng.uniform(0.0, 14.0, size=2)
        assert dual_value(clique2, utilities, 10.0, r) >= sol.value - 1e-9
    # at the fixed point supply meets demand
    assert service_rates(clique2, sol.prices) == pytest.approx(sol.rates, abs=1e-7)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("utility", [
    LOG1,
    UtilityFunction("weighted-log-shifted", shift=0.5, weight=2.5),
    UtilityFunction("alpha-fair-shifted", fairness=2.0),
], ids=["log", "weighted-log", "alpha-fair"])
@pytest.mark.parametrize("epsilon", [None, 0.4], ids=["beta10", "beta4n/eps"])
def test_dual_optimum_satisfies_kkt(name, utility, epsilon):
    family = enumerate_independent_sets(preset(name))
    beta = 10.0 if epsilon is None else entropy_weight(family.n, None, epsilon)
    utilities = (utility,) * family.n
    sol = solve_dual_optimum(family, utilities, beta)
    prices = sol.prices
    g = dual_gradient(family, utilities, beta, prices)
    assert np.all(prices >= 0.0)
    assert float(np.abs(np.minimum(g, prices)).max()) <= 1e-8  # projected residual
    assert np.all(g >= -1e-8)  # service covers demand
    assert np.all(np.abs(prices * g) <= 1e-8 * prices)  # complementary slackness
    assert np.array_equal(sol.rates, best_responses(utilities, beta, prices))


def test_dual_solver_requires_matching_utilities(clique2):
    with pytest.raises(ValueError):
        solve_dual_optimum(clique2, (LOG1,), 10.0)


def test_utility_optimum_requires_matching_utilities(clique2):
    with pytest.raises(ValueError, match="need one utility per node"):
        solve_utility_optimum(clique2, (LOG1,))


# -- polytope utility optimum -------------------------------------------------------------

def test_utility_optimum_single(single):
    opt = solve_utility_optimum(single, (LOG1,))
    assert opt.rates == pytest.approx([1.0], abs=1e-9)
    assert opt.value == pytest.approx(math.log(2.0), abs=1e-9)
    assert opt.gap <= 1e-8


def test_utility_optimum_stops_at_its_iteration_cap(monkeypatch, clique2):
    monkeypatch.setattr(congestion, "UTILITY_MAX_ITER", 1)  # one vertex is no optimum here
    with pytest.raises(ConvergenceFailure, match="rate optimization hit the iteration cap"):
        solve_utility_optimum(clique2, (LOG1, LOG1))


def test_utility_optimum_clique2_splits_evenly(clique2):
    opt = solve_utility_optimum(clique2, (LOG1, LOG1))
    assert opt.rates == pytest.approx([0.5, 0.5], abs=1e-9)
    assert opt.value == pytest.approx(0.8109302162163288, abs=1e-10)
    assert opt.gap <= 1e-8
    # the active weights reconstruct the maximizer
    recon = np.zeros(2)
    for mask, w in opt.weights.items():
        assert w > 0
        for i in range(2):
            if mask >> i & 1:
                recon[i] += w
    assert recon == pytest.approx(opt.rates, abs=1e-12)
    assert sum(opt.weights.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["clique2", "cycle5", "grid3x3"])
def test_utility_optimum_weights_are_keyed_by_python_int_masks(name):
    family = enumerate_independent_sets(preset(name))
    opt = solve_utility_optimum(family, [LOG1] * family.n)
    assert opt.weights and all(type(mask) is int for mask in opt.weights)
    assert set(opt.weights) <= set(family.masks.tolist())


def test_utility_optimum_dominates_random_mixtures(clique2):
    utilities = (LOG1, UtilityFunction("weighted-log-shifted", weight=2.5))
    opt = solve_utility_optimum(clique2, utilities)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.dirichlet(np.ones(clique2.size))
        rates = w @ clique2.matrix
        assert total_utility(utilities, rates) <= opt.value + 1e-8


def test_asymmetric_weights_shift_the_optimum(clique2):
    heavy = (UtilityFunction("weighted-log-shifted", weight=4.0), LOG1)
    opt = solve_utility_optimum(clique2, heavy)
    assert opt.rates[0] > 0.7
    assert opt.rates[0] + opt.rates[1] == pytest.approx(1.0, abs=1e-9)


@st.composite
def utility_problems(draw):
    """A preset family with one random utility per node, of any family."""
    name = draw(st.sampled_from(["single", "clique2", "path3", "cycle5"]))
    family = enumerate_independent_sets(preset(name))
    shifts = st.floats(min_value=0.05, max_value=5.0)
    utilities = []
    for _ in range(family.n):
        kind = draw(st.sampled_from(["log-shifted", "weighted-log-shifted",
                                     "alpha-fair-shifted"]))
        extra = {}
        if kind == "weighted-log-shifted":
            extra["weight"] = draw(st.floats(min_value=0.1, max_value=10.0))
        elif kind == "alpha-fair-shifted":
            extra["fairness"] = draw(st.floats(min_value=0.2, max_value=4.0).filter(
                lambda a: abs(a - 1.0) > 1e-3))
        utilities.append(UtilityFunction(kind, shift=draw(shifts), **extra))
    return family, tuple(utilities)


@settings(max_examples=40, deadline=None)
@given(utility_problems())
def test_utility_optimum_keeps_the_bits_of_the_full_bisection(problem):
    # stopping the bisection once its interval stops shrinking, and taking
    # derivatives on Python floats, must not move a single bit
    family, utilities = problem
    opt = solve_utility_optimum(family, utilities)
    ref = utility_optimum_full_bisection(family, utilities)
    assert opt.rates.tobytes() == ref.rates.tobytes()
    assert (opt.value, opt.gap, opt.iterations) == (ref.value, ref.gap, ref.iterations)
    assert list(opt.weights.items()) == list(ref.weights.items())


# -- the gap certificate ---------------------------------------------------------------------

def test_gap_certificate_clique2(clique2):
    utilities = (LOG1, LOG1)
    dual = solve_dual_optimum(clique2, utilities, 10.0)
    cert = utility_gap_certificate(clique2, utilities, 10.0, dual.rates)
    assert cert.bound == pytest.approx(math.log(3.0) / 10.0, abs=1e-15)
    # 0.000423388748892540 to 50 digits
    assert cert.gap == pytest.approx(clique2_log_gap(10.0), abs=1e-9)
    assert cert.holds()
    with pytest.raises(ValueError, match="beta must be positive"):
        utility_gap_certificate(clique2, utilities, 0.0, dual.rates)


def test_gap_shrinks_with_beta(clique2):
    utilities = (LOG1, LOG1)
    gaps = []
    for beta in (5.0, 20.0, 80.0):
        dual = solve_dual_optimum(clique2, utilities, beta)
        gaps.append(utility_gap_certificate(clique2, utilities, beta, dual.rates).gap)
    assert gaps[0] > gaps[1]
    # the gap at beta = 80 is 2.3e-24, below either solver's accuracy
    for beta, gap in zip((5.0, 20.0, 80.0), gaps):
        assert gap == pytest.approx(clique2_log_gap(beta), abs=1e-9)


# -- warm-start behaviour of the 1/j price recursion -------------------------------------------

def test_diminishing_recursion_contracts_from_a_warm_start(clique2):
    """Near the fixed point the 1/j recursion shrinks the error monotonically.

    The decay is polynomial with a tiny exponent (the service curve is nearly
    flat at saturation), so a desk-scale run cannot reach the fixed point; the
    exact solvers above carry the convergence claims.
    """
    utilities = (LOG1, LOG1)
    dual = solve_dual_optimum(clique2, utilities, 10.0)
    r = dual.prices + 0.3
    err = 0.3
    for j in range(1, 2001):
        lam = best_responses(utilities, 10.0, r)
        s = service_rates(clique2, r)
        r = np.maximum(update_diminishing(r, lam, s, j), 0.0)
        new_err = float(np.abs(r - dual.prices).max())
        assert new_err <= err + 1e-15
        err = new_err
    assert err <= 0.06  # measured 0.0473 after 2000 exact epochs
