"""Two-phase revised simplex, priced by Dantzig's rule with a Bland fallback.

Solves  min c'x  s.t.  Ax = b, x >= 0  exactly enough for the one program
this package builds: the cone feasibility LP of ``overlap``, with d+2 rows
and n+1 columns, highly degenerate and bounded below, so a ray raises
``LPNumericalFailure``. The entering column is the one with the most
negative reduced cost (Dantzig's rule), which takes far fewer pivots on
this program than the smallest eligible index; after a long run of
degenerate pivots the solver switches to Bland's smallest-index rule,
which cannot cycle (Bland 1977), until a pivot makes progress again. The
solver keeps only B^-1 and the basic values, m x (m+1) numbers, and never
forms B^-1 A: a pivot costs one m x (n+m) pricing product over the
original columns, then O(m^2) work, instead of an update of every cell of
an m x (n+m+1) tableau. The optimal simplex multipliers are returned too;
``overlap`` reads a separating direction off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinregError

_PIVOT_TOL = 1e-11
_COST_TOL = 1e-11
_TIE_TOL = 1e-12  # ratio-test ties; smaller basic values are zero
_DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule


class LPNumericalFailure(BinregError):
    """The solver exceeded its iteration budget, lost feasibility or met a ray."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray
    objective: float
    iterations: int
    # multipliers c_B B^-1: A'y <= c and b'y = objective when optimal; the
    # phase-1 ones, A'y <= 0 and b'y > 0, when infeasible
    duals: np.ndarray


def _multipliers(cost: np.ndarray, basis: np.ndarray, state: np.ndarray,
                 negated: np.ndarray) -> np.ndarray:
    # c_B B^-1, with the row negations of b >= 0 undone
    duals = cost[basis] @ state[:, :-1]
    duals[negated] *= -1.0
    return duals


def _pivot(state: np.ndarray, basis: np.ndarray, row: int, entering: int,
           column: np.ndarray) -> None:
    # rank-1 update of [B^-1 | x_B]; column is B^-1 a_entering
    pivot_row = state[row] / column[row]
    state -= column[:, None] * pivot_row
    state[row] = pivot_row
    basis[row] = entering


def _run_phase(state: np.ndarray, basis: np.ndarray, cost: np.ndarray,
               price: np.ndarray, max_iter: int) -> int:
    """Revised simplex on one phase; returns the iterations used. Raises
    LPNumericalFailure past ``max_iter`` pivots or on an unbounded ray.

    ``state`` is [B^-1 | x_B] for the current ``basis``, updated in place.
    The columns of ``price`` are the ones eligible to enter, with costs
    ``cost`` (phase 2 passes A alone to keep the artificials out). Each
    iteration prices every column from the original data with one product
    (c_B B^-1) @ price, forms the entering column B^-1 a_q, and pivots
    with a rank-1 update of ``state``: the m x (n+m) product, then O(m^2)
    work. Reduced costs are never carried between iterations, so they
    cannot drift.

    The reduced costs of basic columns are set to exactly 0 before
    pricing: recomputed, they can come out below -tolerance by rounding,
    and a basic column that entered would pivot into its own row and
    change nothing, again and again. The entering column has the most
    negative reduced cost (Dantzig's rule). After ``_DEGENERATE_RUN``
    consecutive pivots of step length zero it is the smallest eligible
    index (Bland's rule), until a pivot makes progress; Bland's rule cannot
    cycle, so the phase terminates.
    """
    inverse = state[:, :-1]  # rows of B^-1, one per kept constraint
    values = state[:, -1]
    iterations = 0
    degenerate = 0  # consecutive pivots with a zero step
    while True:
        if iterations > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} pivots")
        reduced = cost - (cost[basis] @ inverse) @ price
        reduced[basis] = 0.0  # every basic column is a column of price
        if degenerate < _DEGENERATE_RUN:
            entering = int(reduced.argmin())
        else:
            entering = int((reduced < -_COST_TOL).argmax())
        if not reduced[entering] < -_COST_TOL:
            return iterations
        column = inverse @ price[:, entering]
        ratios_row = -1
        best_ratio = np.inf
        basic = basis.tolist()
        for r, (a, value) in enumerate(zip(column.tolist(), values.tolist())):
            if a > _PIVOT_TOL:
                ratio = value / a
                if ratio < best_ratio - _TIE_TOL or (
                    abs(ratio - best_ratio) <= _TIE_TOL
                    and (ratios_row < 0 or basic[r] < basic[ratios_row])
                ):
                    best_ratio = ratio
                    ratios_row = r
        if ratios_row < 0:
            raise LPNumericalFailure("simplex found an unbounded ray")
        _pivot(state, basis, ratios_row, entering, column)
        iterations += 1
        degenerate = degenerate + 1 if best_ratio <= _TIE_TOL else 0


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

    # the artificial basis starts as B = I, so state = [B^-1 | x_B] = [I | b]
    state = np.hstack([np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    used = _run_phase(state, basis, phase1_cost, np.hstack([A, np.eye(m)]), max_iter)
    infeasibility = float(phase1_cost[basis] @ state[:, -1])
    if infeasibility > 1e-9:
        return LPResult("infeasible", np.full(n, np.nan), np.nan, used,
                        _multipliers(phase1_cost, basis, state, neg))

    # drive leftover artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            row = np.abs(state[r, :m] @ A) > _PIVOT_TOL  # row r of B^-1 A
            pivot_col = int(np.argmax(row))
            if row[pivot_col]:
                _pivot(state, basis, r, pivot_col, state[:, :m] @ A[:, pivot_col])
            else:
                keep[r] = False
    if not np.all(keep):
        state = state[keep]
        basis = basis[keep]

    # every artificial has left the basis, so phase 2 prices A alone
    used2 = _run_phase(state, basis, c, A, max_iter)

    # B^-1 a_q is formed afresh each pivot, so a degenerate basic value can
    # come out as rounding residue; within the ratio test's tie tolerance
    # it is zero
    values = state[:, -1]
    x = np.zeros(n + m)
    x[basis] = np.where(np.abs(values) <= _TIE_TOL, 0.0, values)
    x = x[:n]
    return LPResult("optimal", x, float(c @ x), used + used2,
                    _multipliers(c, basis, state, neg))
