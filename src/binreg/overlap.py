"""Overlap and separation detection.

Two routes decide whether the predictor configurations of the two label
groups overlap enough for a finite, unique likelihood maximizer to exist:

* ``scalar_overlap``: exact interval comparison of per-group min/max for
  a single predictor.
* ``cone_overlap``: a strict-feasibility linear program asking whether the
  open convex cones generated by the intercept-extended predictors of each
  group intersect. This is the authoritative test in any dimension.

Boundary ties (one group's range touching the other's at a single point)
are quasi-separation: the likelihood supremum is approached only as the
slope diverges, so both routes classify them Separated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BinregError, Dataset, DesignMatrix
from .simplex import LPNumericalFailure, solve_lp

OVERLAP = "Overlap"
SEPARATED = "Separated"
DEGENERATE = "DegenerateAllEqual"

METHOD_SCALAR = "ScalarIntervals"
METHOD_CONE = "ConeLP"

T_MIN = 1e-9


class DimensionError(BinregError):
    """Operation requires a different predictor dimension."""


@dataclass(frozen=True)
class ScalarBounds:
    """Group-wise predictor extremes for the d=1 interval test."""

    L0: float
    U0: float
    L1: float
    U1: float


@dataclass(frozen=True)
class ConeCertificate:
    """Strictly positive combination weights witnessing a common cone point.

    ``weights_pos``/``weights_neg`` follow the original row order within the
    y=1 and y=0 groups. ``residual`` is the max-abs mismatch of the two
    combinations on the column-rescaled design (scale-free).
    """

    weights_pos: np.ndarray
    weights_neg: np.ndarray
    margin: float
    residual: float


@dataclass(frozen=True)
class OverlapReport:
    verdict: str
    method: str
    bounds: Optional[ScalarBounds] = None
    certificate: Optional[ConeCertificate] = None
    direction_hint: Optional[int] = None
    margin: Optional[float] = None
    # cone route only: a weakly separating gamma in the coordinates of the
    # design the report was computed on, when the margin t* <= 0 or the
    # cone program is infeasible
    direction: Optional[np.ndarray] = None


def _direction_hint(bounds: ScalarBounds) -> Optional[int]:
    # sign of the diverging slope: +1 when group 1 sits (weakly) above group 0
    if bounds.U0 <= bounds.L1:
        return 1
    if bounds.U1 <= bounds.L0:
        return -1
    return None


def scalar_bounds(ds: Dataset) -> ScalarBounds:
    if ds.d != 1:
        raise DimensionError(f"scalar overlap test requires d=1, got d={ds.d}")
    x = ds.x[:, 0]
    x0 = x[ds.y == 0]
    x1 = x[ds.y == 1]
    return ScalarBounds(L0=float(x0.min()), U0=float(x0.max()),
                        L1=float(x1.min()), U1=float(x1.max()))


def scalar_overlap(ds: Dataset) -> OverlapReport:
    """Interval test for a single predictor.

    Overlap holds exactly when L0 < U1 and L1 < U0, the condition under
    which no threshold weakly separates the groups. Float equality is
    treated as an exact tie: tied extremes are quasi-separation, where the
    slope estimate diverges, and are reported Separated (in agreement with
    the cone test). All predictors equal is the degenerate case with no
    unique maximizer.
    """
    b = scalar_bounds(ds)
    if b.L0 == b.U0 == b.L1 == b.U1:
        return OverlapReport(verdict=DEGENERATE, method=METHOD_SCALAR, bounds=b)
    if b.L0 < b.U1 and b.L1 < b.U0:
        return OverlapReport(verdict=OVERLAP, method=METHOD_SCALAR, bounds=b)
    return OverlapReport(verdict=SEPARATED, method=METHOD_SCALAR, bounds=b,
                         direction_hint=_direction_hint(b))


def _column_scales(xt: np.ndarray) -> np.ndarray:
    scales = np.max(np.abs(xt), axis=0)
    scales[scales == 0.0] = 1.0
    return scales


def _cone_program(xt: np.ndarray, y: np.ndarray):
    """Solve the cone program on the column-rescaled design: maximize t
    subject to the y=1 and y=0 combinations being equal, all weights >= t,
    and weights summing to one. Returns the LP result, the rescaled design
    and the column scales.
    """
    scales = _column_scales(xt)
    xs = xt / scales
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    n, cols = xt.shape
    npos, nneg = pos.size, neg.size

    # variables: u_i = k_i - t (y=1), v_j = m_j - t (y=0), t = tp - tm
    nvar = npos + nneg + 2
    A = np.zeros((cols + 1, nvar))
    A[:cols, :npos] = xs[pos].T
    A[:cols, npos:npos + nneg] = -xs[neg].T
    t_col = xs[pos].sum(axis=0) - xs[neg].sum(axis=0)
    A[:cols, -2] = t_col
    A[:cols, -1] = -t_col
    A[cols, :npos + nneg] = 1.0
    A[cols, -2] = n
    A[cols, -1] = -n
    b = np.zeros(cols + 1)
    b[cols] = 1.0
    c = np.zeros(nvar)
    c[-2] = -1.0
    c[-1] = 1.0

    result = solve_lp(c, A, b)
    if result.status == "unbounded":
        raise LPNumericalFailure("cone program reported unbounded; margin is capped at 1/n")
    return result, xs, scales


def _direction(result, scales: np.ndarray) -> Optional[np.ndarray]:
    # the negated multipliers separate exactly when t* <= 0 or the program
    # is infeasible; it was posed on the rescaled design, so map them back
    if result.status == "optimal" and result.x[-2] - result.x[-1] > 0.0:
        return None
    return -result.duals[:scales.size] / scales


def cone_overlap(dm: DesignMatrix, y: np.ndarray, t_min: float = T_MIN) -> OverlapReport:
    """Decide whether the open cones of the two groups' extended predictors
    intersect, by maximizing the smallest combination weight.

    The program is: maximize t subject to the y=1 and y=0 combinations being
    equal, all weights >= t, and weights summing to one. Overlap requires
    the optimum to exceed ``t_min`` strictly; an optimum of zero is
    quasi-separation and reported Separated. Columns are rescaled to unit
    max-abs first (the condition is scale-free; the weights are unchanged).
    A Separated report with t* <= 0 also carries the direction that
    ``separating_direction`` would return for the same design.

    Raises LPNumericalFailure if the solver exhausts its pivot budget;
    callers with d=1 can fall back to ``scalar_overlap``.
    """
    y = np.asarray(y)
    xt = np.asarray(getattr(dm, "xt", dm), dtype=float)
    if np.all(xt == xt[0]):
        return OverlapReport(verdict=DEGENERATE, method=METHOD_CONE)

    result, xs, scales = _cone_program(xt, y)
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]

    hint = None
    if xt.shape[1] == 2:  # intercept plus one predictor
        x = xt[:, 1]
        bnd = ScalarBounds(L0=float(x[neg].min()), U0=float(x[neg].max()),
                           L1=float(x[pos].min()), U1=float(x[pos].max()))
        hint = _direction_hint(bnd)

    if result.status == "infeasible":
        return OverlapReport(verdict=SEPARATED, method=METHOD_CONE,
                             direction_hint=hint, margin=0.0,
                             direction=_direction(result, scales))

    t_star = float(result.x[-2] - result.x[-1])
    if t_star <= t_min:
        return OverlapReport(verdict=SEPARATED, method=METHOD_CONE,
                             direction_hint=hint, margin=max(t_star, 0.0),
                             direction=_direction(result, scales))

    weights_pos = result.x[:pos.size] + t_star
    weights_neg = result.x[pos.size:pos.size + neg.size] + t_star
    residual = float(np.max(np.abs(
        weights_pos @ xs[pos] - weights_neg @ xs[neg])))
    cert = ConeCertificate(weights_pos=weights_pos, weights_neg=weights_neg,
                           margin=t_star, residual=residual)
    return OverlapReport(verdict=OVERLAP, method=METHOD_CONE,
                         certificate=cert, margin=t_star)


def separating_direction(dm: DesignMatrix, y: np.ndarray) -> Optional[np.ndarray]:
    """Find gamma with gamma'x~ >= 0 on y=1 rows and <= 0 on y=0 rows,
    strict somewhere, by reading it off the cone program's duals.

    By LP duality the optimal multipliers, negated, satisfy gamma'x~ >= -t*
    on y=1 rows and <= t* on y=0 rows, so they separate exactly when the
    margin t* <= 0 (and then the slope block is nonzero). An infeasible
    program gives a strictly separating gamma from its phase-1 multipliers
    (Farkas' lemma).

    Returns None when t* > 0 (the groups overlap, perhaps by less than the
    cone tolerance). For separated data the log likelihood is nondecreasing
    along the returned direction from any starting point.
    """
    xt = np.asarray(getattr(dm, "xt", dm), dtype=float)
    result, _, scales = _cone_program(xt, np.asarray(y))
    return _direction(result, scales)
