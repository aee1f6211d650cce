"""Product-form stationary law, likelihood calculus, and the backoff fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmasim.conflict_graph import (
    ConflictGraph,
    enumerate_independent_sets,
    preset,
)
from csmasim import gibbs
from csmasim.errors import ConvergenceFailure, InfeasibleRates, NumericFailure
from csmasim.gibbs import (
    newton_minimize,
    service_rates,
    solve_backoff,
    stationary_distribution,
)
from csmasim.conflict_graph import AdmissibilityCertificate, is_strictly_admissible
from oracles import (decomposition_identity_value, entropy, kl_divergence,
                     log_likelihood, log_likelihood_gradient, log_likelihood_hessian,
                     row_of, variational_gap)


@pytest.fixture(scope="module")
def single():
    return enumerate_independent_sets(preset("single"))


@pytest.fixture(scope="module")
def clique2():
    return enumerate_independent_sets(preset("clique2"))


@pytest.fixture(scope="module")
def cycle5():
    return enumerate_independent_sets(preset("cycle5"))


@st.composite
def family_and_backoff(draw, max_n=6, lo=-3.0, hi=3.0):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    fam = enumerate_independent_sets(ConflictGraph.from_edges(n, edges))
    r = np.array(draw(st.lists(st.floats(min_value=lo, max_value=hi),
                               min_size=n, max_size=n)))
    return fam, r


# -- partition function and stationary law -----------------------------------

def test_single_node_partition(single):
    assert stationary_distribution(single, [5.0]).log_partition == pytest.approx(
        5.006715348489118, abs=1e-12)
    assert stationary_distribution(single, [0.0]).log_partition == pytest.approx(
        math.log(2.0), abs=1e-15)


def test_single_node_occupancy_closed_form(single):
    for r in (-2.0, 0.0, 1.0, 3.0):
        dist = stationary_distribution(single, [r])
        expect = math.exp(r) / (1.0 + math.exp(r))
        assert dist.probs[1] == pytest.approx(expect, abs=1e-12)
        assert dist.probs[0] == pytest.approx(1.0 - expect, abs=1e-12)


def test_clique2_masses(clique2):
    dist = stationary_distribution(clique2, [math.log(2.0), 0.0])
    # weights 1 : 2 : 1 over (idle, node0, node1)
    assert dist.probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    assert service_rates(clique2, [0.0, 0.0]) == pytest.approx([1 / 3, 1 / 3], abs=1e-12)


def test_large_backoff_does_not_overflow(cycle5):
    dist = stationary_distribution(cycle5, [600.0] * 5)
    assert np.all(np.isfinite(dist.probs))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # mass concentrates on the maximum schedules (the five 2-node sets)
    two = [i for i, m in enumerate(cycle5.masks) if bin(m).count("1") == 2]
    assert dist.probs[two].sum() == pytest.approx(1.0, abs=1e-9)


def test_a_law_past_float_resolution_fails_closed(clique2):
    # log Z rounds to the top energy 4e16, so each top schedule gets probability
    # 1 and the law sums to 2; service_rates reads the same checked law
    for law in (stationary_distribution, service_rates):
        with pytest.raises(NumericFailure, match="log Z = 4e\\+16 is past what floats resolve"):
            law(clique2, [4e16, 4e16])


def test_a_law_whose_mass_misses_1_fails_closed(monkeypatch, clique2):
    real = gibbs._gibbs_law

    def heavy(matrix, r):  # a law off by 1e-12, past its rounding bound of ~4e-15
        probs, logz = real(matrix, r)
        return probs * (1.0 + 1e-12), logz

    monkeypatch.setattr(gibbs, "_gibbs_law", heavy)
    with pytest.raises(NumericFailure, match="the stationary law sums to 1.000000000001"):
        stationary_distribution(clique2, [0.0, 0.0])


def test_masked_entries_rejected_in_exact_path(clique2):
    # -inf masks belong to the sampler; the exact path wants the finite stand-in
    for bad in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="backoff vector must be finite"):
            stationary_distribution(clique2, [0.0, bad])
    dist = stationary_distribution(clique2, [-1e9, 0.0])
    assert dist.probs[row_of(clique2, 0b01)] == 0.0
    with pytest.raises(ValueError, match=r"backoff vector must have shape \(2,\)"):
        stationary_distribution(clique2, [0.0])


@settings(max_examples=80, deadline=None)
@given(family_and_backoff())
def test_stationary_matches_direct_summation(pair):
    fam, r = pair
    dist = stationary_distribution(fam, r)
    weights = np.array([math.exp(sum(r[i] for i in range(fam.n) if m >> i & 1))
                        for m in fam.masks])
    assert dist.probs == pytest.approx(weights / weights.sum(), abs=1e-12)
    assert dist.log_partition == pytest.approx(math.log(weights.sum()), rel=1e-12)


# -- likelihood calculus -----------------------------------------------------

def test_likelihood_value_single(single):
    assert log_likelihood(single, [5.0], [0.5]) == pytest.approx(
        -2.5067153484891183, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(family_and_backoff(max_n=5, lo=-2.0, hi=2.0))
def test_gradient_matches_central_difference(pair):
    fam, r = pair
    rates = np.full(fam.n, 0.3)
    grad = log_likelihood_gradient(fam, r, rates)
    h = 1e-6
    for i in range(fam.n):
        e = np.zeros(fam.n)
        e[i] = h
        fd = (log_likelihood(fam, r + e, rates) - log_likelihood(fam, r - e, rates)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=5e-8)


@settings(max_examples=60, deadline=None)
@given(family_and_backoff(max_n=5, lo=-2.0, hi=2.0))
def test_hessian_is_negative_covariance(pair):
    fam, r = pair
    H = log_likelihood_hessian(fam, r)
    probs = stationary_distribution(fam, r).probs
    # covariance by explicit summation over schedules
    mean = np.zeros(fam.n)
    second = np.zeros((fam.n, fam.n))
    for row, p in enumerate(probs):
        sigma = fam.matrix[row]
        mean += p * sigma
        second += p * np.outer(sigma, sigma)
    cov = second - np.outer(mean, mean)
    assert H == pytest.approx(-cov, abs=1e-10)
    eigs = np.linalg.eigvalsh(H)
    assert np.all(eigs <= 1e-12)


def test_likelihood_concavity_along_segments(clique2):
    rng = np.random.default_rng(7)
    rates = np.array([0.3, 0.25])
    for _ in range(50):
        a, b = rng.normal(size=(2, 2)) * 2
        mid = 0.5 * (a + b)
        fa = log_likelihood(clique2, a, rates)
        fb = log_likelihood(clique2, b, rates)
        fm = log_likelihood(clique2, mid, rates)
        assert fm >= 0.5 * (fa + fb) - 1e-12


# -- backoff fitting ----------------------------------------------------------

def test_fit_single_three_quarters(single):
    sol = solve_backoff(single, [0.75])
    assert sol.r[0] == pytest.approx(math.log(3.0), abs=1e-10)
    assert sol.residual <= 1e-10
    assert sol.masked == ()


def test_fit_single_half_is_zero(single):
    sol = solve_backoff(single, [0.5])
    assert sol.r[0] == pytest.approx(0.0, abs=1e-12)


def test_fit_cycle5_symmetric(cycle5):
    sol = solve_backoff(cycle5, [0.3] * 5)
    assert sol.r == pytest.approx([0.35203229551578874] * 5, abs=1e-10)
    assert np.ptp(sol.r) <= 1e-10  # symmetry survives the Newton path
    assert service_rates(cycle5, sol.r) == pytest.approx([0.3] * 5, abs=1e-8)
    assert sol.slack == pytest.approx(0.1, abs=1e-9)
    assert float(np.abs(sol.r).max()) <= sol.norm_bound
    assert sol.norm_bound == pytest.approx(math.log(11) / 0.1, abs=1e-9)


def test_fit_masks_zero_rate_nodes(clique2):
    sol = solve_backoff(clique2, [0.0, 0.4])
    assert sol.masked == (0,)
    assert sol.r[0] == -math.inf
    # the surviving node solves the single-node problem
    assert sol.r[1] == pytest.approx(math.log(0.4 / 0.6), abs=1e-10)
    finite = np.where(np.isneginf(sol.r), -1e9, sol.r)
    assert service_rates(clique2, finite) == pytest.approx([0.0, 0.4], abs=1e-10)


def test_fit_all_zero_rates(clique2):
    sol = solve_backoff(clique2, [0.0, 0.0])
    assert sol.masked == (0, 1)
    assert np.all(np.isneginf(sol.r))


def test_fit_rejects_boundary_and_exterior(single, clique2):
    with pytest.raises(InfeasibleRates):
        solve_backoff(single, [1.0])
    with pytest.raises(InfeasibleRates):
        solve_backoff(clique2, [0.6, 0.6])
    with pytest.raises(ValueError):
        solve_backoff(single, [-0.1])
    with pytest.raises(ValueError, match=r"rates must have shape \(2,\)"):
        solve_backoff(clique2, [0.3])


def test_fit_stops_past_twice_the_norm_bound(single):
    # a certificate that overstates the slack shrinks the bound to
    # log 2 / 0.999, and the first Newton step (to 1.996) passes twice that
    overstated = AdmissibilityCertificate(True, 1.0, None)
    with pytest.raises(InfeasibleRates, match="past twice the norm bound 0.694"):
        solve_backoff(single, [0.999], certificate=overstated)


def test_newton_stops_at_its_iteration_cap(monkeypatch, cycle5):
    monkeypatch.setattr(gibbs, "NEWTON_MAX_ITER", 1)  # cycle5 at 0.3 needs more steps
    with pytest.raises(ConvergenceFailure, match="Newton iteration hit the cap of 1 steps"):
        solve_backoff(cycle5, np.full(5, 0.3))


def test_newton_line_search_stalls_on_a_wrong_gradient():
    # f(x) = x^2 from x = 1 with the gradient's sign flipped: every step along
    # the direction it suggests climbs, so backtracking runs out of room
    def evaluate(x):
        return float(x @ x), -2.0 * x, lambda: 2.0 * np.eye(len(x))

    with pytest.raises(ConvergenceFailure, match="Newton line search stalled"):
        newton_minimize(evaluate, np.ones(1), -math.inf, tol=1e-10)


@settings(max_examples=30, deadline=None)
@given(family_and_backoff(max_n=5, lo=-1.5, hi=1.5))
def test_fit_roundtrips_reachable_rates(pair):
    fam, r = pair
    rates = service_rates(fam, r)
    sol = solve_backoff(fam, rates)
    assert service_rates(fam, sol.r) == pytest.approx(rates, abs=1e-8)


# -- entropy, KL, and the variational identities ------------------------------

def test_entropy_and_kl_basics():
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy([1.0, 0.0]) == 0.0
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf
    with pytest.raises(ValueError):
        kl_divergence([1.0], [0.5, 0.5])


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8))
@settings(max_examples=80, deadline=None)
def test_kl_nonnegative(p_raw, q_raw):
    k = min(len(p_raw), len(q_raw))
    p = np.array(p_raw[:k]) / sum(p_raw[:k])
    q = np.array(q_raw[:k]) / sum(q_raw[:k])
    assert kl_divergence(p, q) >= -1e-12


def test_variational_gap_vanishes_at_stationary(cycle5):
    r = np.linspace(-0.5, 0.8, 5)
    dist = stationary_distribution(cycle5, r)
    assert abs(variational_gap(cycle5, dist.probs, r)) <= 1e-12


def test_variational_gap_positive_elsewhere(clique2):
    r = np.array([0.2, -0.1])
    dist = stationary_distribution(clique2, r)
    rng = np.random.default_rng(3)
    for _ in range(25):
        mu = dist.probs + rng.uniform(-0.05, 0.05, size=dist.probs.size)
        mu = np.maximum(mu, 1e-6)
        mu /= mu.sum()
        gap = variational_gap(clique2, mu, r)
        assert gap == pytest.approx(kl_divergence(mu, dist.probs), abs=1e-12)
        assert gap >= 0.0


def test_decomposition_identity(clique2):
    rates = np.array([1 / 3, 1 / 3])
    cert = is_strictly_admissible(clique2, rates)
    r = np.array([0.4, -0.2])
    lhs = decomposition_identity_value(clique2, cert.weights, r)
    assert lhs == pytest.approx(log_likelihood(clique2, r, rates), abs=1e-10)


def test_max_likelihood_dominates_uniform_mixture(cycle5):
    # fitted point beats the entropy-free bound: F(r*) >= -log(#schedules)
    sol = solve_backoff(cycle5, [0.25] * 5)
    assert log_likelihood(cycle5, sol.r, [0.25] * 5) >= -math.log(cycle5.size) - 1e-12
