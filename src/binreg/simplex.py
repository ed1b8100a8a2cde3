"""Dense two-phase simplex with Bland's anti-cycling rule.

Solves  min c'x  s.t.  Ax = b, x >= 0  exactly enough for the one program
this package builds: the cone feasibility LP of ``overlap``, with d+2 rows
and one column per observation, highly degenerate. Bland's rule guarantees
finite termination on degenerate tableaus where a largest-coefficient rule
can cycle. The optimal simplex multipliers are returned too; ``overlap``
reads a separating direction off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinregError

_PIVOT_TOL = 1e-11
_COST_TOL = 1e-11


class LPNumericalFailure(BinregError):
    """The solver exceeded its iteration budget or lost feasibility."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    iterations: int
    # multipliers c_B B^-1: A'y <= c and b'y = objective when optimal; the
    # phase-1 ones, A'y <= 0 and b'y > 0, when infeasible; NaN when unbounded
    duals: np.ndarray


def _multipliers(cost: np.ndarray, basis: np.ndarray, tableau: np.ndarray,
                 n: int, negated: np.ndarray) -> np.ndarray:
    # the artificial columns carry B^-1; undo the row negations of b >= 0
    m = negated.size
    duals = cost[basis] @ tableau[:, n:n + m]
    duals[negated] *= -1.0
    return duals


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_phase(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
               allowed: int, max_iter: int) -> int:
    """Bland-rule simplex on the given tableau; returns iterations used.

    ``allowed`` bounds the column indices eligible to enter (used to keep
    phase-1 artificials out of phase 2). The reduced-cost row is rebuilt
    from the basis each iteration: slower but immune to drift.
    """
    m = tableau.shape[0]
    iterations = 0
    while True:
        if iterations > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} pivots")
        cb = cost[basis]
        reduced = cost[:allowed] - cb @ tableau[:, :allowed]
        entering = -1
        for j in range(allowed):
            if reduced[j] < -_COST_TOL:
                entering = j
                break
        if entering < 0:
            return iterations
        ratios_row = -1
        best_ratio = np.inf
        for r in range(m):
            a = tableau[r, entering]
            if a > _PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (ratios_row < 0 or basis[r] < basis[ratios_row])
                ):
                    best_ratio = ratio
                    ratios_row = r
        if ratios_row < 0:
            return -1  # unbounded in the entering direction
        _pivot(tableau, basis, ratios_row, entering)
        iterations += 1


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray,
             max_iter: int | None = None) -> LPResult:
    """Two-phase simplex for  min c'x  s.t.  Ax = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    # normalize b >= 0 so the artificial basis is feasible
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = A
    tableau[:, n:n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = np.arange(n, n + m)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    used = _run_phase(tableau, basis, phase1_cost, n + m, max_iter)
    if used < 0:
        raise LPNumericalFailure("phase-1 reported unbounded")
    infeasibility = float(phase1_cost[basis] @ tableau[:, -1])
    if infeasibility > 1e-9:
        return LPResult("infeasible", np.full(n, np.nan), np.nan, used,
                        _multipliers(phase1_cost, basis, tableau, n, neg))

    # drive leftover artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[r, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)
            else:
                keep[r] = False
    if not np.all(keep):
        tableau = tableau[keep]
        basis = basis[keep]

    phase2_cost = np.concatenate([c, np.zeros(m)])
    used2 = _run_phase(tableau, basis, phase2_cost, n, max_iter)
    if used2 < 0:
        return LPResult("unbounded", np.full(n, np.nan), -np.inf, used, np.full(m, np.nan))

    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    x = x[:n]
    return LPResult("optimal", x, float(c @ x), used + used2,
                    _multipliers(phase2_cost, basis, tableau, n, neg))
