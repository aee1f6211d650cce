"""Dense two-phase simplex for small equality-form linear programs.

Solves  max c.x  s.t.  A x = b, x >= 0  with a plain tableau and Bland's
anti-cycling rule.  Sized for desk-scale instances (tens of rows, a few
thousand columns); no sparsity, no presolve.  Its one caller, the
admissibility LP, is always feasible and bounded, so an infeasible or
unbounded verdict is a numeric fault and raises NumericFailure; running past
MAX_PIVOTS raises ConvergenceFailure.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NumericFailure

_PIVOT_TOL = 1e-10
MAX_PIVOTS = 50_000


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Maximize cost.x in place; tableau must be canonical for `basis`."""
    m = tableau.shape[0]
    for _ in range(MAX_PIVOTS):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        improving = np.flatnonzero(reduced > _PIVOT_TOL)
        if improving.size == 0:
            return
        col = int(improving[0])  # Bland: smallest improving index
        ratios = []
        for i in range(m):
            a = tableau[i, col]
            if a > _PIVOT_TOL:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            raise NumericFailure("simplex: objective unbounded above")
        _, _, row = min(ratios)  # ties broken by smallest basis index
        _pivot(tableau, basis, row, col)
    raise ConvergenceFailure(f"simplex hit the cap of {MAX_PIVOTS} pivots")


def solve_standard_lp(c, A, b):
    """Return (x, value) maximizing c.x subject to A x = b, x >= 0."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    tableau = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    phase1_cost = np.zeros(n + m)
    phase1_cost[n:] = -1.0
    _run_simplex(tableau, basis, phase1_cost)
    infeasibility = sum(tableau[i, -1] for i in range(m) if basis[i] >= n)
    if infeasibility > 1e-8 * (1.0 + float(np.abs(b).sum())):
        raise NumericFailure("simplex: no feasible point")

    # Drive leftover zero-valued artificials out of the basis.
    keep_rows = []
    for i in range(m):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        cols = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
        if cols.size:
            _pivot(tableau, basis, i, int(cols[0]))
            keep_rows.append(i)
        # else: redundant constraint row, dropped below
    tableau = np.hstack([tableau[keep_rows][:, :n], tableau[keep_rows][:, -1:]])
    basis = [basis[i] for i in keep_rows]

    _run_simplex(tableau, basis, c)
    x = np.zeros(n)
    for i, j in enumerate(basis):
        x[j] = tableau[i, -1]
    return x, float(c @ x)
