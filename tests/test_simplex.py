"""Dense simplex checked against scipy.optimize.linprog (oracle, test-only)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from csmasim.errors import NumericFailure
from csmasim.simplex import solve_standard_lp


def test_hand_solved_square():
    # max x0 + 2 x1  s.t.  x0 + x1 = 1 -> all mass on x1
    x, val = solve_standard_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert val == pytest.approx(2.0, abs=1e-12)
    assert x == pytest.approx([0.0, 1.0], abs=1e-12)


def test_two_constraints():
    # max 3a + b  s.t.  a + b = 2, a - b = 0 -> a = b = 1
    x, val = solve_standard_lp([3.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0])
    assert x == pytest.approx([1.0, 1.0], abs=1e-10)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_negative_rhs_rows_are_flipped():
    x, val = solve_standard_lp([1.0], [[-1.0]], [-3.0])
    assert x == pytest.approx([3.0], abs=1e-12)
    assert val == pytest.approx(3.0, abs=1e-12)


def test_infeasible_raises():
    # x0 = 1 and x0 = 2 cannot both hold
    with pytest.raises(NumericFailure, match="no feasible point"):
        solve_standard_lp([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_nonnegativity_makes_problem_infeasible():
    with pytest.raises(NumericFailure, match="no feasible point"):
        solve_standard_lp([0.0, 0.0], [[1.0, 1.0]], [-1.0])
    # same row with a flippable sign is fine
    x, _ = solve_standard_lp([0.0, -1.0], [[-1.0, -1.0]], [-1.0])
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_unbounded_raises():
    # max x0 - x1 with x0 - x1 free along the constraint null space
    with pytest.raises(NumericFailure, match="unbounded above"):
        solve_standard_lp([1.0, 1.0], [[1.0, -1.0]], [0.0])


def test_redundant_constraint_rows_are_dropped():
    A = [[1.0, 1.0], [2.0, 2.0]]
    x, val = solve_standard_lp([0.0, 1.0], A, [1.0, 2.0])
    assert val == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_standard_lp([1.0, 2.0], [[1.0]], [1.0])


@st.composite
def random_standard_lp(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=m, max_value=6))
    elems = st.integers(min_value=-4, max_value=4)
    A = np.array(draw(st.lists(st.lists(elems, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    x0 = np.array(draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=n, max_size=n)), dtype=float)
    c = np.array(draw(st.lists(elems, min_size=n, max_size=n)), dtype=float)
    return c, A, A @ x0  # b = A x0 keeps the feasible set nonempty


@settings(max_examples=150, deadline=None)
@given(random_standard_lp())
def test_matches_linprog_on_feasible_instances(problem):
    c, A, b = problem
    ref = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if ref.status == 3:
        with pytest.raises(NumericFailure, match="unbounded above"):
            solve_standard_lp(c, A, b)
        return
    assert ref.status == 0, ref.message
    x, val = solve_standard_lp(c, A, b)
    scale = 1.0 + abs(ref.fun)
    assert abs(val - (-ref.fun)) <= 1e-7 * scale
    assert np.all(x >= -1e-9)
    assert np.allclose(A @ x, b, atol=1e-7)
