"""Dense one-phase simplex for small equality-form linear programs.

Solves  max c.x  s.t.  A x = b, x >= 0  from a feasible basis the caller
supplies, with a plain tableau and Bland's anti-cycling rule.  Sized for
desk-scale instances (tens of rows and columns); no sparsity, no presolve,
no phase 1.  Its one caller, the admissibility master LP, always has a
feasible starting basis and a bounded objective, so an infeasible start or an
unbounded verdict is a numeric fault and raises NumericFailure; running past
MAX_PIVOTS raises ConvergenceFailure.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NumericFailure

_PIVOT_TOL = 1e-10
MAX_PIVOTS = 50_000


def solve_standard_lp(c, A, b, basis):
    """Return (x, basis) maximizing c.x subject to A x = b, x >= 0.

    `basis` lists one column per row; its basic solution must be feasible.
    The returned basis is optimal and can warm-start a larger problem.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    basis = list(basis)
    if A.ndim != 2 or A.shape != (b.size, c.size) or len(basis) != b.size:
        raise ValueError("inconsistent LP dimensions")
    m = b.size
    tableau = np.linalg.solve(A[:, basis], np.column_stack([A, b]))
    if tableau[:, -1].min() < -_PIVOT_TOL:
        raise NumericFailure("simplex: the starting basis is infeasible")

    for _ in range(MAX_PIVOTS):
        reduced = c - c[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        improving = np.flatnonzero(reduced > _PIVOT_TOL)
        if improving.size == 0:
            x = np.zeros(c.size)
            x[basis] = tableau[:, -1]
            return x, basis
        col = int(improving[0])  # Bland: smallest improving index
        ratios = []
        for i in range(m):
            a = tableau[i, col]
            if a > _PIVOT_TOL:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            raise NumericFailure("simplex: objective unbounded above")
        _, _, row = min(ratios)  # ties broken by smallest basis index
        tableau[row] /= tableau[row, col]
        for i in range(m):
            if i != row and abs(tableau[i, col]) > 0.0:
                tableau[i] -= tableau[i, col] * tableau[row]
        basis[row] = col
    raise ConvergenceFailure(f"simplex hit the cap of {MAX_PIVOTS} pivots")
