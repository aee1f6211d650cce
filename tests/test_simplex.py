"""One-phase simplex checked against scipy.optimize.linprog (oracle, test-only)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csmasim.errors import NumericFailure
from csmasim.simplex import solve_standard_lp


def test_hand_solved_square():
    # max x0 + 2 x1  s.t.  x0 + x1 = 1, from x0 = 1 -> all mass on x1
    x, basis = solve_standard_lp([1.0, 2.0], [[1.0, 1.0]], [1.0], [0])
    assert x == pytest.approx([0.0, 1.0], abs=1e-12)
    assert basis == [1]


def test_two_constraints():
    # max 3a + b  s.t.  a + b = 2, a - b = 0 -> a = b = 1
    x, basis = solve_standard_lp([3.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0], [1, 0])
    assert x == pytest.approx([1.0, 1.0], abs=1e-10)
    assert sorted(basis) == [0, 1]


def test_infeasible_raises():
    # the basis {x0} puts x0 at -1: no phase 1 repairs a start like that
    with pytest.raises(NumericFailure, match="starting basis is infeasible"):
        solve_standard_lp([1.0, 0.0], [[1.0, -1.0]], [-1.0], [0])
    x, basis = solve_standard_lp([1.0, -2.0], [[1.0, -1.0]], [-1.0], [1])
    assert x == pytest.approx([0.0, 1.0], abs=1e-12)


def test_unbounded_raises():
    # max x0 + x1 with x0 - x1 = 0 grows without bound along x0 = x1
    with pytest.raises(NumericFailure, match="unbounded above"):
        solve_standard_lp([1.0, 1.0], [[1.0, -1.0]], [0.0], [0])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_standard_lp([1.0, 2.0], [[1.0]], [1.0], [0])
    with pytest.raises(ValueError):
        solve_standard_lp([1.0, 2.0], [[1.0, 1.0]], [1.0], [0, 1])


@st.composite
def random_standard_lp(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=m, max_value=6))
    elems = st.integers(min_value=-4, max_value=4)
    A = np.array(draw(st.lists(st.lists(elems, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    basis = draw(st.permutations(range(n)))[:m]
    assume(abs(np.linalg.det(A[:, basis])) > 0.5)  # integer entries: a nonzero det is >= 1
    x0 = np.zeros(n)
    x0[basis] = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m))
    c = np.array(draw(st.lists(elems, min_size=n, max_size=n)), dtype=float)
    return c, A, A @ x0, basis  # x0 is the basic solution of the starting basis


@settings(max_examples=150, deadline=None)
@given(random_standard_lp())
def test_matches_linprog_on_feasible_instances(problem):
    linprog = pytest.importorskip("scipy.optimize").linprog
    c, A, b, basis = problem
    ref = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if ref.status == 3:
        with pytest.raises(NumericFailure, match="unbounded above"):
            solve_standard_lp(c, A, b, basis)
        return
    assert ref.status == 0, ref.message
    x, final = solve_standard_lp(c, A, b, basis)
    scale = 1.0 + abs(ref.fun)
    assert abs(c @ x - (-ref.fun)) <= 1e-7 * scale
    assert np.all(x >= -1e-9)
    assert np.allclose(A @ x, b, atol=1e-7)
    assert np.count_nonzero(x[np.setdiff1d(np.arange(c.size), final)]) == 0
