"""Overlap and separation detection.

Two routes decide whether the predictor configurations of the two label
groups overlap enough for a finite, unique likelihood maximizer to exist:

* ``scalar_overlap``: exact interval comparison of per-group min/max for
  a single predictor.
* ``cone_overlap``: a strict-feasibility linear program asking whether the
  open convex cones generated by the intercept-extended predictors of each
  group intersect. This is the authoritative test in any dimension, and
  the one decision ``fit``, the CLI and the suite generator all make. It
  is posed on the dataset's one standardized design, ``extended_design``
  (the verdict is affine-invariant, Albert & Anderson 1984), which every
  report it returns carries on to ``fit``; with one predictor it falls
  back to the interval test when the program fails numerically.

Boundary ties (one group's range touching the other's at a single point)
are quasi-separation: the likelihood supremum is approached only as the
slope diverges, so both routes classify them Separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import BinregError, Dataset, DesignMatrix
from .simplex import _TIE_TOL, LPNumericalFailure, solve_lp

OVERLAP = "Overlap"
SEPARATED = "Separated"
DEGENERATE = "DegenerateAllEqual"

METHOD_SCALAR = "ScalarIntervals"
METHOD_CONE = "ConeLP"

T_MIN = 1e-9
RESIDUAL_MAX = 1e-8  # largest certificate residual an Overlap verdict accepts


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
    y=1 and y=0 groups; the smallest of them is the report's ``margin``.
    ``residual`` is the max-abs mismatch of the two combinations on the
    standardized design (scale- and offset-free).
    """

    weights_pos: np.ndarray
    weights_neg: np.ndarray
    residual: float


@dataclass(frozen=True)
class OverlapReport:
    verdict: str
    method: str
    bounds: Optional[ScalarBounds] = None
    certificate: Optional[ConeCertificate] = None
    direction_hint: Optional[int] = None
    margin: Optional[float] = None
    # Separated only: a weakly separating gamma = (gamma0, gamma1) in raw
    # predictor coordinates, gamma0 + gamma1'x; None when the cone margin t*
    # is positive but at most T_MIN
    direction: Optional[np.ndarray] = None
    # the design the verdict was decided on (every cone_overlap report), so
    # that fit reuses it instead of standardizing the predictors again
    design: Optional[DesignMatrix] = field(default=None, repr=False, compare=False)


def _direction_hint(bounds: ScalarBounds) -> Optional[int]:
    # sign of the diverging slope: +1 when group 1 sits (weakly) above group 0
    if bounds.U0 <= bounds.L1:
        return 1
    if bounds.U1 <= bounds.L0:
        return -1
    return None


def _bounds(x: np.ndarray, y: np.ndarray) -> ScalarBounds:
    x0 = x[y == 0]
    x1 = x[y == 1]
    return ScalarBounds(L0=float(x0.min()), U0=float(x0.max()),
                        L1=float(x1.min()), U1=float(x1.max()))


def _interval_report(b: ScalarBounds) -> OverlapReport:
    """The interval test's verdict. Separated carries gamma = (-h*c, h):
    h the direction hint, c the midpoint of the facing extremes (U0 and L1
    when h = 1, U1 and L0 when h = -1), the tied value on a tie."""
    if b.L0 == b.U0 == b.L1 == b.U1:
        return OverlapReport(verdict=DEGENERATE, method=METHOD_SCALAR, bounds=b)
    if b.L0 < b.U1 and b.L1 < b.U0:
        return OverlapReport(verdict=OVERLAP, method=METHOD_SCALAR, bounds=b)
    h = _direction_hint(b)
    c = 0.5 * (b.U0 + b.L1) if h == 1 else 0.5 * (b.U1 + b.L0)
    return OverlapReport(verdict=SEPARATED, method=METHOD_SCALAR, bounds=b,
                         direction_hint=h, direction=np.array([-h * c, float(h)]))


def scalar_overlap(ds: Dataset) -> OverlapReport:
    """Interval test for a single predictor.

    Overlap holds exactly when L0 < U1 and L1 < U0, the condition under
    which no threshold weakly separates the groups. Float equality is
    treated as an exact tie: tied extremes are quasi-separation, where the
    slope estimate diverges, and are reported Separated (in agreement with
    the cone test), with the separating threshold as ``direction``. All
    predictors equal is the degenerate case with no unique maximizer.
    """
    if ds.d != 1:
        raise DimensionError(f"scalar overlap test requires d=1, got d={ds.d}")
    return _interval_report(_bounds(ds.x[:, 0], ds.y))


def _cone_program(xp: np.ndarray, xn: np.ndarray):
    """(c, A, b) of the cone program on the y=1 rows ``xp``, y=0 rows ``xn``."""
    npos, cols = xp.shape
    n = npos + xn.shape[0]

    # variables: u_i = k_i - t (y=1), v_j = m_j - t (y=0), s = 1/n - t;
    # the n weights sum to one and are all >= t, so t <= 1/n and s >= 0
    A = np.zeros((cols + 1, n + 1))
    A[:cols, :npos] = xp.T
    A[:cols, npos:n] = -xn.T
    t_col = xp.sum(axis=0) - xn.sum(axis=0)
    A[:cols, n] = -t_col
    A[cols, :n] = 1.0
    A[cols, n] = -n
    b = np.zeros(cols + 1)
    b[:cols] = -t_col / n
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c, A, b


def _cone_report(dm: DesignMatrix, y: np.ndarray) -> OverlapReport:
    xp = np.compress(y == 1, dm.xt, axis=0)  # several times faster than xt[y == 1]
    xn = np.compress(y == 0, dm.xt, axis=0)
    result = solve_lp(*_cone_program(xp, xn))
    # intercept plus one predictor: the sign of the diverging slope
    hint = _direction_hint(_bounds(dm.x[:, 0], y)) if dm.x.shape[1] == 1 else None

    t_star = 0.0 if result.status == "infeasible" else 1.0 / len(y) - float(result.x[-1])
    if abs(t_star) <= _TIE_TOL:
        t_star = 0.0  # rounding residue of a tie, as for a basic value
    if t_star <= T_MIN:
        # the negated multipliers separate exactly when t* <= 0 or the
        # program is infeasible; they are posed on the standardized design
        direction = dm.to_raw(-result.duals[:dm.xt.shape[1]]) if t_star <= 0.0 else None
        return OverlapReport(verdict=SEPARATED, method=METHOD_CONE, direction_hint=hint,
                             margin=max(t_star, 0.0), direction=direction, design=dm)

    npos = xp.shape[0]
    weights_pos = result.x[:npos] + t_star
    weights_neg = result.x[npos:npos + xn.shape[0]] + t_star
    residual = float(np.max(np.abs(weights_pos @ xp - weights_neg @ xn)))
    if residual > RESIDUAL_MAX:
        raise LPNumericalFailure(
            f"cone certificate residual {residual:.3g} exceeds {RESIDUAL_MAX:g}")
    cert = ConeCertificate(weights_pos=weights_pos, weights_neg=weights_neg,
                           residual=residual)
    return OverlapReport(verdict=OVERLAP, method=METHOD_CONE,
                         certificate=cert, margin=t_star, design=dm)


def cone_overlap(dm: DesignMatrix, y: np.ndarray) -> OverlapReport:
    """Decide whether the open cones of the two groups' extended predictors
    intersect, by maximizing the smallest combination weight.

    The program is: maximize t subject to the y=1 and y=0 combinations being
    equal, all weights >= t, and weights summing to one, on the standardized
    design ``dm.xt``, posed as minimizing the slack s = 1/n - t >= 0. Overlap
    requires the optimum to exceed ``T_MIN`` strictly and the certificate
    residual to be at most ``RESIDUAL_MAX``; an optimum of zero is
    quasi-separation and reported Separated. A Separated report with t* <= 0
    carries ``separating_direction``'s gamma in raw predictor coordinates.
    Every report carries ``dm`` as ``design``.

    Raises LPNumericalFailure if the program fails numerically (pivot
    budget, residual), except with one predictor, where the interval test's
    report on the raw predictor is returned instead.
    """
    y = np.asarray(y)
    x = dm.x
    if np.all(x == x[0]):
        return OverlapReport(verdict=DEGENERATE, method=METHOD_CONE, design=dm)
    try:
        return _cone_report(dm, y)
    except LPNumericalFailure:
        if x.shape[1] != 1:
            raise
        return replace(_interval_report(_bounds(x[:, 0], y)), design=dm)


def separating_direction(dm: DesignMatrix, y: np.ndarray) -> Optional[np.ndarray]:
    """Find gamma with gamma0 + gamma1'x >= 0 on y=1 rows and <= 0 on y=0
    rows, strict somewhere, by reading it off the cone program's duals.

    By LP duality the optimal multipliers, negated, satisfy g'x~ >= -t* on
    the standardized y=1 rows x~ of ``dm.xt`` and <= t* on its y=0 rows, so
    they separate exactly when the margin t* <= 0 (and then the slope block
    is nonzero). An infeasible program gives a strictly separating g from
    its phase-1 multipliers (Farkas' lemma). The returned gamma is g written
    in raw predictor coordinates (``dm.to_raw``).

    Returns None when t* > 0 (the groups overlap, perhaps by less than the
    cone tolerance; all rows equal counts as overlap). For separated data
    the log likelihood is nondecreasing along the returned direction from
    any starting point.
    """
    return cone_overlap(dm, y).direction
