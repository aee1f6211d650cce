"""Epoch schedules, both update rules, and the projected-step potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmasim.conflict_graph import enumerate_independent_sets, preset
from csmasim.gibbs import service_rates
from csmasim.scheduling import (
    constant_step_plan,
    published_epoch_length,
    update_diminishing,
    update_projected,
)
from oracles import fitted_reference, lyapunov_potential, potential_lower_bound


def test_published_epoch_length_first_values():
    assert published_epoch_length(1) == 3   # ceil(e)
    assert published_epoch_length(4) == 8   # ceil(e^2)
    assert published_epoch_length(9) == 21  # ceil(e^3)
    with pytest.raises(ValueError):
        published_epoch_length(0)


def test_epoch_lengths_are_nondecreasing():
    lengths = [published_epoch_length(j) for j in range(1, 200)]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))


def test_diminishing_update_formula():
    r = np.array([0.5, -0.2])
    out = update_diminishing(r, [0.4, 0.1], [0.2, 0.3], 4)
    assert out == pytest.approx([0.55, -0.25], abs=1e-15)
    # no positivity clamp: drives may go negative
    out = update_diminishing(np.zeros(1), [0.0], [1.0], 1)
    assert out[0] == -1.0
    with pytest.raises(ValueError):
        update_diminishing(r, [0.1, 0.1], [0.1, 0.1], 0)


def test_projected_update_clips_to_box():
    r = np.array([9.9, -9.9])
    out = update_projected(r, [0.5, 0.5], [0.0, 1.0], epsilon=0.5, alpha=1.0, n=4)
    box = 4 / 0.5
    assert np.all(out <= box) and np.all(out >= -box)
    inside = update_projected(np.zeros(2), [0.3, 0.3], [0.5, 0.1],
                              epsilon=0.1, alpha=0.01, n=4)
    assert inside == pytest.approx([0.01 * (0.3 + 0.1 - 0.5),
                                    0.01 * (0.3 + 0.1 - 0.1)], abs=1e-15)
    with pytest.raises(ValueError):
        update_projected(r, [0.1, 0.1], [0.1, 0.1], epsilon=0.0, alpha=0.1, n=4)


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=60, deadline=None)
def test_diminishing_step_is_one_over_j(j):
    assert update_diminishing(np.zeros(1), [1.0], [0.0], j)[0] == 1.0 / j
    assert published_epoch_length(j) == math.ceil(math.exp(math.sqrt(j)))


def test_constant_step_plan_published_values():
    plan = constant_step_plan(4, 0.5)
    assert plan.step == pytest.approx(5.425347222222222e-05, abs=1e-18)
    # exp((16/0.5) log 8) stays finite but astronomical
    assert plan.epoch_length == pytest.approx(math.exp(32.0 * math.log(8.0)), rel=1e-12)


def test_constant_step_plan_overflow_and_guards():
    assert constant_step_plan(5, 0.05).epoch_length == math.inf
    with pytest.raises(ValueError):
        constant_step_plan(3, 0.5)
    with pytest.raises(ValueError):
        constant_step_plan(4, 0.0)
    with pytest.raises(ValueError):
        constant_step_plan(4, 0.5, peak=0.0)


def test_plan_scales_with_peak_increment():
    base = constant_step_plan(4, 0.5, peak=1.0)
    wide = constant_step_plan(4, 0.5, peak=3.0)
    assert wide.step == pytest.approx(base.step / 4.0)  # (K+1)^2: 4 -> 16


def test_fitted_reference_hits_padded_rates():
    fam = enumerate_independent_sets(preset("cycle5"))
    ref = fitted_reference(fam, [0.05] * 5, 0.15)
    assert service_rates(fam, ref.r) == pytest.approx([0.2] * 5, abs=1e-8)
    with pytest.raises(ValueError):
        fitted_reference(fam, [0.05] * 5, 0.0)


def test_potential_is_negative_and_maximal_at_reference():
    fam = enumerate_independent_sets(preset("cycle5"))
    rates = [0.05] * 5
    eps = 0.15
    ref = fitted_reference(fam, rates, eps)
    g_ref = lyapunov_potential(fam, ref.r, rates, eps, reference=ref)
    rng = np.random.default_rng(2024)
    box = 5.0 / eps
    floor = potential_lower_bound(5, eps)
    for _ in range(100):
        r = rng.uniform(-box, box, size=5)
        g = lyapunov_potential(fam, r, rates, eps, reference=ref)
        assert floor <= g < 0.0
        assert g <= g_ref + 1e-12


def test_potential_never_drops_under_projection():
    fam = enumerate_independent_sets(preset("cycle5"))
    rates = [0.05] * 5
    eps = 0.15
    ref = fitted_reference(fam, rates, eps)
    box = 5.0 / eps
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-2 * box, 2 * box, size=5)
        g_raw = lyapunov_potential(fam, x, rates, eps, reference=ref)
        g_proj = lyapunov_potential(fam, np.clip(x, -box, box), rates, eps,
                                    reference=ref)
        assert g_proj >= g_raw - 1e-12


def test_potential_reference_argument_is_an_optimization_only():
    fam = enumerate_independent_sets(preset("clique2"))
    rates = [0.2, 0.2]
    r = np.array([0.4, -0.1])
    with_ref = lyapunov_potential(fam, r, rates, 0.1,
                                  reference=fitted_reference(fam, rates, 0.1))
    assert lyapunov_potential(fam, r, rates, 0.1) == pytest.approx(with_ref, abs=1e-12)


def test_potential_lower_bound_formula():
    assert potential_lower_bound(5, 0.15) == pytest.approx(-16 * 125 / 0.0225)
    with pytest.raises(ValueError):
        potential_lower_bound(5, 0.0)
