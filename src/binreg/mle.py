"""Maximum likelihood fitting by damped Newton ascent on the concave
log likelihood, with principled divergence detection.

A small score norm alone cannot distinguish an interior maximum from a fit
drifting to infinity under separation (the gradient decays exponentially
along a separating direction), so ``fit`` first settles existence with
``overlap.cone_overlap``, the decision every caller makes. When the groups
overlap, Newton converges to the unique maximizer; when they are
separated, the fit follows the report's separating direction with doubling
steps, along which the log likelihood is provably nondecreasing, until the
slope norm crosses ``DIVERGE_BOUND``, and reports Diverged with the iterate
past it. Because it cannot fall, the march forms the doubling iterates
without evaluating the link and lands in one evaluation, which counts as
one iteration. A landing below the start raises ``LPNumericalFailure``,
as a cone program that fails numerically does: neither certifies whether
a finite maximizer exists, so neither reports a status. The march starts
at once when the separation is strict (every row's signed margin along the
direction clears ``STRICT_MARGIN`` times the largest): the supremum is
then 0 and there is no finite part to fit. When some rows are tied
(quasi-separation), Newton first fits the tied rows' finite part for up to
25 iterations and the march continues from there.

Each Newton step is damped by Armijo backtracking over the steps 1, 1/2,
..., 2**(1 - _MAX_HALVINGS). Step 1 is one log likelihood evaluation; when
it fails, the remaining halvings are evaluated in blocks with one link call
per block, the block sized so candidates x rows stays under a small element
budget (every halving in one block at suite sizes, one per block on large
data), and the first passing step is taken. The candidates' linear
predictors come from a stacked matrix-vector product that rounds exactly
as the single-candidate one, so the search accepts the same step, bit for
bit, as trying the halvings one at a time.

The link is evaluated once per Newton iterate (Nocedal & Wright,
*Numerical Optimization*, section 3.1): the evaluation that accepted a step,
the linear predictor and per-row log likelihood terms of the new iterate,
is carried to it and gives its log likelihood, score and Hessian, and those
of the last iterate are what ``fit`` reports. Every per-row term comes from
one ``link.log_terms`` call, which for a symmetric link is a single log G
evaluation at z or -z. ``fit`` evaluates its starting point once, and every
route (Newton, the march, the kink ascent, the first of the multi-start
points) begins from that evaluation. Each route appends the log likelihood
of every iterate it accepts to one history list, whose length is the fit's
``iterations``.

``FitOptions`` holds the two settings a caller chooses, the score
tolerance and the iteration limit; the divergence bound, the Armijo factor,
the halving count, the multi-start count and the Hessian ridge are module
constants.

A link whose support has a finite endpoint (the uniform CDF) gives each row
a kink where its G or 1 - G reaches 1: log G(z) = min(log z, 0). Maxima
often sit on such kinks, where the score never vanishes and Newton's
quadratic model stalls. On overlapping data such a fit hands over after
``_KINK_AFTER`` unfinished Newton iterations to an active-set ascent
(``_kink_ascent``), which holds rows on their edge and certifies a
maximizer by the supergradient test (``_kink_certificate``). When it
certifies nothing, Newton resumes where it stopped and the fit ends as it
would have without the ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import RANK_TOLERANCE, BinregError, Dataset, _with_intercept, extended_design
from .links import LinkFamily
from .overlap import OVERLAP, SEPARATED, OverlapReport, cone_overlap
# separating_direction is not called here; the benchmark's traced run
# (perfbench/spans.py) wraps binreg.mle.separating_direction by name
from .overlap import separating_direction  # noqa: F401
from .simplex import LPNumericalFailure

CONVERGED = "Converged"
DIVERGED = "Diverged"
MAX_ITERATIONS = "MaxIterations"
NOT_UNIQUE = "NotUnique"


# Newton's stop flag -> the status a fit reports
_STATUS = {"converged": CONVERGED, "diverged": DIVERGED,
           "maxiter": MAX_ITERATIONS, "stalled": MAX_ITERATIONS}


class ConfigError(BinregError):
    """Invalid fitting options."""


@dataclass(frozen=True)
class Parameters:
    """Intercept and slope vector of the linear predictor."""

    alpha: float
    beta: np.ndarray


# The divergence bound: a fit whose slope 2-norm (standardized scale) passes
# it while the log likelihood still climbs is Diverged.
DIVERGE_BOUND = 1e4
_ARMIJO = 1e-4            # sufficient-increase factor of the line search
_MAX_HALVINGS = 50        # the line search tries the steps 1, ..., 2**(1 - _MAX_HALVINGS)
_STARTS = 7               # multi-start count for non-log-concave links
_RIDGE = 1e-10            # Hessian eigenvalue floor factor


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-10                # sup-norm score tolerance, standardized scale
    max_iter: int = 100

    def validate(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ConfigError("tolerances must be finite and positive")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ConfigError(f"max_iter must be an integer, not {self.max_iter!r}")
        if self.max_iter <= 0:
            raise ConfigError("iteration counts must be positive")


@dataclass(frozen=True)
class FitResult:
    params: Parameters
    loglik: float
    score_norm: float
    status: str
    hessian_condition: float
    caveat: Optional[str] = None
    history: Tuple[float, ...] = ()   # log likelihood of each accepted iterate

    @property
    def iterations(self) -> int:
        return len(self.history)


def _theta(p: Parameters) -> np.ndarray:
    return np.concatenate([[p.alpha], np.asarray(p.beta, dtype=float)])


@dataclass(eq=False)
class _Evaluation:
    """The link evaluated once at ``theta``: the linear predictor
    ``z = xt @ theta``, the per-row log likelihood terms (log G(z) for
    successes, log(1 - G(z)) for failures) and their sum. The score and
    Hessian are derived from the same ``z`` and terms when first asked for,
    and kept."""

    theta: np.ndarray
    z: np.ndarray
    terms: np.ndarray
    loglik: float
    _derivs: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, init=False, repr=False)

    def derivatives(self, xt, y, link) -> Tuple[np.ndarray, np.ndarray]:
        """Score and Hessian at ``theta``."""
        if self._derivs is None:
            w, dw = _weights(self, y, link)
            self._derivs = xt.T @ w, xt.T @ (dw[:, None] * xt)
        return self._derivs


def _evaluate(xt, y, link: LinkFamily, theta: np.ndarray) -> _Evaluation:
    z = xt @ theta
    terms = link.log_terms(z, y)
    return _Evaluation(theta, z, terms, float(np.sum(terms)))


def _weights(point: _Evaluation, y, link):
    """Per-observation score weight w_i and its z-derivative at ``point``.

    w_i = g/G for successes and -g/(1-G) for failures. Both are
    e = exp(log g(z) - term), the row's own log likelihood term standing
    for log G or log(1 - G), so one exp serves both labels and extreme
    linear predictors stay finite. Assumes every linear predictor lies in
    the support interior (fit only evaluates these at points of finite log
    likelihood).
    """
    z = point.z
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(link.log_pdf(z) - point.terms)
        slope = link.pdf_log_slope(z)
        w = np.where(y == 1, e, -e)
        # for a failure, -e * (slope + e), in the same roundings
        dw = w * (slope - w)
    # e underflows to 0 where the slope runs to -inf (cloglog far right of
    # a success): 0 * -inf is NaN, and the product's limit there is 0
    dw = np.where((w == 0) & np.isnan(dw), 0.0, dw)
    return w, dw


def log_likelihood(ds: Dataset, link: LinkFamily, p: Parameters) -> float:
    """Sum of y*log G(z) + (1-y)*log(1-G(z)) with z = alpha + x'beta.

    May be -inf for bounded-support links when some z falls outside the
    support on the wrong side.
    """
    return _evaluate(_with_intercept(ds.x), ds.y, link, _theta(p)).loglik


def score(ds: Dataset, link: LinkFamily, p: Parameters) -> np.ndarray:
    """Gradient of the log likelihood in (alpha, beta); length d+1."""
    xt = _with_intercept(ds.x)
    return _evaluate(xt, ds.y, link, _theta(p)).derivatives(xt, ds.y, link)[0]


def hessian(ds: Dataset, link: LinkFamily, p: Parameters) -> np.ndarray:
    """Analytic second derivative matrix; symmetric, (d+1) x (d+1)."""
    xt = _with_intercept(ds.x)
    return _evaluate(xt, ds.y, link, _theta(p)).derivatives(xt, ds.y, link)[1]


def _ascent_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    # clamp eigenvalues away from zero on the negative side; for concave
    # objectives this is plain Newton, otherwise a descent-safe modification
    evals, evecs = np.linalg.eigh(H)
    floor = _RIDGE * max(1.0, float(np.abs(evals).sum()))
    clamped = np.minimum(evals, -floor)
    return -evecs @ ((evecs.T @ g) / clamped)


def _hessian_condition(H: np.ndarray) -> float:
    # a Hessian that is not finite (an overflow) has unknown curvature,
    # which is not an eigenvalue failure
    if not np.all(np.isfinite(H)):
        return math.inf
    evals = np.abs(np.linalg.eigvalsh(H))
    # an eigenvalue within rounding of zero is a singular direction, not a
    # finite condition number
    if evals.min() <= np.finfo(float).eps * evals.max():
        return math.inf
    return float(evals.max() / evals.min())


# Bound on candidates x rows per link call when the line search backtracks:
# suite-sized fits (n <= 40) try every halving in one call, and above
# n = 2048 the search goes one halving at a time.
_LINE_SEARCH_ELEMENTS = 4096


def _evaluate_rows(xt, y, link, cands: np.ndarray):
    """``_evaluate`` at each row of ``cands``, bit-identical to calling it
    row by row: returns the (k, n) linear predictors and terms and the k log
    likelihoods. The stacked product runs one matrix-vector product per
    candidate, which rounds exactly as ``xt @ cand``; ``cands @ xt.T`` is one
    matrix-matrix product that sums in another order. A row sum of the
    C-contiguous term array takes the same pairwise summation as ``np.sum``
    of one row."""
    z = np.matmul(xt[None], cands[:, :, None])[:, :, 0]
    terms = link.log_terms(z, y)
    return z, terms, terms.sum(axis=1)


def _armijo_step(xt, y, link, theta, f, direction, slope):
    """First step of 1, 1/2, ..., 2**(1 - _MAX_HALVINGS) along ``direction``
    whose log likelihood is finite and passes the Armijo test. Returns the
    accepted candidate's ``_Evaluation``, or None when no step passes.

    Step 1, accepted in most Newton iterations, is one ``_evaluate`` call.
    The halvings after it are evaluated in blocks of candidates, one link
    call per block (``_LINE_SEARCH_ELEMENTS``), and the first passing step
    of a block is taken, so the result is that of trying the steps one by
    one. Its record is that row of the block's ``z`` and terms, bit for bit
    what a fresh evaluation at the candidate gives.
    """
    # near the optimum the true gain underflows below the float
    # resolution of the objective; the noise allowance lets the final
    # full Newton steps through instead of stalling on one-ulp dips
    noise = 1e-12 * (1.0 + abs(f))

    def passes(values, steps):
        return np.isfinite(values) & (values >= f + _ARMIJO * steps * slope - noise)

    point = _evaluate(xt, y, link, theta + direction)
    if passes(point.loglik, 1.0):
        return point
    steps = np.ldexp(1.0, -np.arange(_MAX_HALVINGS))
    block = max(1, _LINE_SEARCH_ELEMENTS // xt.shape[0])
    for start in range(1, _MAX_HALVINGS, block):
        tried = steps[start:start + block]
        cands = theta + tried[:, None] * direction
        z, terms, values = _evaluate_rows(xt, y, link, cands)
        ok = passes(values, tried)
        if ok.any():
            first = int(np.argmax(ok))
            return _Evaluation(cands[first], z[first], terms[first], float(values[first]))
    return None


def _newton(xt, y, link, point: _Evaluation, history: list, tol: float, limit: int,
            f: Optional[float] = None):
    """Damped Newton with Armijo backtracking (see ``_armijo_step``): up to
    ``limit`` iterations from ``point``, ``f`` being the best log likelihood
    reached so far (``point``'s when not given). Appends each accepted
    iterate's log likelihood to ``history`` and returns (last iterate, flag,
    f). A run that ends "maxiter" continues from its return values exactly
    as if it had been given the larger limit.

    The link is evaluated once per iterate: the record that accepted a step
    carries that iterate's log likelihood, and its score and Hessian come
    from the same terms."""
    f = point.loglik if f is None else f
    for _ in range(limit):
        g, H = point.derivatives(xt, y, link)
        if np.max(np.abs(g)) <= tol:
            return point, "converged", f
        if np.linalg.norm(point.theta[1:]) > DIVERGE_BOUND:
            return point, "diverged", f
        direction = _ascent_direction(H, g)
        slope = float(g @ direction)
        if not np.isfinite(slope) or slope <= 0:
            return point, "stalled", f
        accepted = _armijo_step(xt, y, link, point.theta, f, direction, slope)
        if accepted is None:
            return point, "stalled", f
        point = accepted
        f = max(f, point.loglik)
        history.append(point.loglik)
    g, _ = point.derivatives(xt, y, link)
    if np.max(np.abs(g)) <= tol:
        return point, "converged", f
    return point, "maxiter", f


# The active-set ascent for links whose support has a finite endpoint. A row
# within KINK_TOL of its own edge (G = 1 for a success, G = 0 for a failure)
# is held on it; a fit is certified when the supergradient residual is at
# most CERTIFICATE_TOL (standardized scale).
KINK_TOL = 1e-7
CERTIFICATE_TOL = 1e-8
_KINK_AFTER = 10      # Newton iterations before the active set takes over
_KINK_STEPS = 50      # active-set iterations before it gives the fit back


def _edges(link: LinkFamily, y: np.ndarray):
    """Each row's own edge of the support (where its term reaches 0), the
    sign that points past it in z, and the term's slope just inside it."""
    lo, hi = link.support
    edge = np.where(y == 1, hi, lo)
    out = np.where(y == 1, 1.0, -1.0)
    inside = np.where(np.isfinite(edge), np.nextafter(edge, -out * np.inf), 0.0)
    terms = link.log_terms(inside, y)
    with np.errstate(invalid="ignore", over="ignore"):
        slope = np.where(np.isfinite(edge), np.exp(link.log_pdf(inside) - terms), 0.0)
    return edge, out, slope


@dataclass(frozen=True)
class _KinkCertificate:
    """The supergradient test at a point: rows held on their edge, their
    multipliers (each in [0, 1] when the point is a maximizer) and the sup
    norm of the score left over, standardized scale."""

    held: np.ndarray
    multipliers: np.ndarray
    residual: float

    @property
    def certified(self) -> bool:
        lam = self.multipliers
        return bool(self.residual <= CERTIFICATE_TOL and np.all((lam >= 0.0) & (lam <= 1.0)))


def _kink_certificate(xt, y, link: LinkFamily, point: _Evaluation, edges) -> _KinkCertificate:
    """0 lies in the superdifferential of the log likelihood at ``point``
    (Rockafellar, *Convex Analysis*, section 27) when the score of the
    smooth rows is balanced by held rows, row i pushing with lambda_i times
    its one-sided slope. Rows within KINK_TOL of their edge are held; rows
    past it are flat and push nothing. ``edges`` is ``_edges(link, y)``."""
    edge, out, slope = edges
    held = np.abs(point.z - edge) <= KINK_TOL
    w, _ = _weights(point, y, link)
    g = xt[~held].T @ w[~held]
    if not np.all(np.isfinite(g)):
        return _KinkCertificate(held=held, multipliers=np.zeros(0), residual=math.inf)
    push = xt[held].T * (out * slope)[held]
    lam = np.linalg.lstsq(push, -g, rcond=None)[0] if held.any() else np.zeros(0)
    residual = float(np.max(np.abs(g + push @ lam)))
    return _KinkCertificate(held=held, multipliers=lam, residual=residual)


def _face_step(xt, y, link, point: _Evaluation, model: _Evaluation, held, edge):
    """Newton step on the face where the held rows sit on their edge: the
    least-norm move that puts them there, plus the maximizer of the
    quadratic model of the other rows over the null space of the held ones.
    Returns (step, model gain per unit step), or None when the model is not
    finite or the reduced Hessian is not negative definite."""
    w, dw = _weights(model, y, link)
    w, dw = np.where(held, 0.0, w), np.where(held, 0.0, dw)
    g, H = xt.T @ w, xt.T @ (dw[:, None] * xt)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        return None
    p = xt.shape[1]
    if held.any():
        u, s, vt = np.linalg.svd(xt[held], full_matrices=True)
        r = int(np.sum(s > RANK_TOLERANCE * s[0]))
        onto = vt[:r].T @ ((u[:, :r].T @ (edge - point.z)[held]) / s[:r])
        null = vt[r:].T
    else:
        onto, null = np.zeros(p), np.eye(p)
    if null.shape[1] == 0:
        return onto, float(g @ onto)
    evals, evecs = np.linalg.eigh(null.T @ H @ null)
    if evals.max() >= -_RIDGE * max(1.0, float(np.abs(evals).sum())):
        return None
    reduced = null.T @ (g + H @ onto)
    step = onto - null @ (evecs @ ((evecs.T @ reduced) / evals))
    return step, float(g @ step)


def _kink_ascent(xt, y, link: LinkFamily, point: _Evaluation, f: float):
    """Active-set ascent from a Newton iterate to a maximizer at a kink.

    Rows within KINK_TOL of their edge are held on it and rows past it are
    flat. Each iteration takes a Newton step on the face of the held rows,
    cut at the first row that reaches its edge and checked by Armijo
    backtracking on the true log likelihood; a row it stops on is held from
    then on. When the face is stationary, the held row whose multiplier is
    furthest outside [0, 1] is let go, modeled on the side its multiplier
    points to until it leaves the edge. Returns (point, certificate,
    accepted log likelihoods) for a certified maximizer no worse than ``f``,
    else None.
    """
    edges = _edges(link, y)
    edge, out, _ = edges
    bounded = np.isfinite(edge)

    def near(z):
        return bounded & (np.abs(z - edge) <= KINK_TOL)

    held = near(point.z)
    side = np.zeros(y.size)       # released rows: -1 modeled inside, +1 flat
    accepted = []
    for _ in range(_KINK_STEPS):
        cert = _kink_certificate(xt, y, link, point, edges)
        if cert.certified and np.isfinite(point.loglik) and point.loglik >= f:
            return point, cert, accepted
        if cert.residual <= CERTIFICATE_TOL:
            # stationary on this face: let go of the held row whose
            # multiplier is furthest outside [0, 1]
            lam = np.full(y.size, 0.5)
            lam[cert.held] = cert.multipliers
            excess = np.where(held, np.maximum(-lam, lam - 1.0), 0.0)
            worst = int(np.argmax(excess))
            if excess[worst] > 0.0:
                held[worst] = False
                side[worst] = 1.0 if lam[worst] < 0.0 else -1.0
        at_edge = near(point.z)
        side[~at_edge] = 0.0
        released = side != 0.0
        model = point     # its log likelihood field is not read
        if released.any():
            zm = np.where(released, edge + side * out * 2.0 * KINK_TOL, point.z)
            model = _Evaluation(point.theta, zm, link.log_terms(zm, y), point.loglik)
        face = _face_step(xt, y, link, point, model, held, edge)
        if face is None:
            return None
        step, gain = face
        with np.errstate(divide="ignore", invalid="ignore"):
            hit = (edge - point.z) / (xt @ step)
        hit = hit[bounded & ~at_edge & (hit > 0.0)]
        t = min(1.0, float(hit.min())) if hit.size else 1.0
        cand = _armijo_step(xt, y, link, point.theta, point.loglik, t * step,
                            t * max(gain, 0.0))
        if cand is None:
            return None
        held |= near(cand.z) & ~at_edge
        point = cand
        accepted.append(point.loglik)
    return None


# A Separated fit whose every row's signed margin along the separating
# direction exceeds STRICT_MARGIN times the largest is strictly separated.
# Tied rows have margins at rounding level (below 1e-15 of the largest on the
# tie fixtures); strictly separated sets have margins of at least a few
# percent of it.
STRICT_MARGIN = 1e-8


def _march_to_divergence(xt, y, link, point: _Evaluation, gamma, history: list) -> _Evaluation:
    """Doubling steps along a separating direction from ``point`` until the
    slope norm crosses the divergence bound; returns the point reached.

    The log likelihood is nondecreasing along gamma by construction (each
    term's argument moves toward its label's favorable side), so the
    iterates theta + gamma + 2 gamma + 4 gamma + ... are formed without
    evaluating the link, and only the landing iterate past the bound is
    evaluated: one link call, accepted as one iterate when its log
    likelihood is no lower than the start's, up to a float wobble
    allowance. A lower landing means gamma does not separate the rows, and
    the march raises ``LPNumericalFailure`` naming both values."""
    f = point.loglik
    theta = point.theta
    step = 1.0
    while np.linalg.norm(theta[1:]) <= DIVERGE_BOUND:
        theta = theta + step * gamma
        step *= 2.0
    if theta is point.theta:
        return point
    landing = _evaluate(xt, y, link, theta)
    if not landing.loglik >= f - 1e-9 * (1.0 + abs(f)):
        raise LPNumericalFailure(f"log likelihood fell along the separating direction, "
                                 f"from {f!r} to {landing.loglik!r}")
    history.append(landing.loglik)
    return landing


def _newton_then_kink(xt, y, link, start: _Evaluation, opts: FitOptions, history: list):
    """Newton for at most _KINK_AFTER iterations; if that does not finish,
    the active-set ascent (``_kink_ascent``). Returns (point, flag,
    certificate or None). When the ascent certifies nothing, Newton goes on
    where it stopped, so the fit ends exactly as Newton alone would."""
    point, flag, f = _newton(xt, y, link, start, history, opts.tol,
                             min(_KINK_AFTER, opts.max_iter))
    if flag not in ("maxiter", "stalled"):
        return point, flag, None
    try:
        kink = _kink_ascent(xt, y, link, point, f)
    except np.linalg.LinAlgError:    # an SVD or eigensolver that did not converge
        kink = None
    if kink is not None:
        point, cert, accepted = kink
        history.extend(accepted)
        return point, "converged", cert
    if flag == "maxiter":
        point, flag, _ = _newton(xt, y, link, point, history, opts.tol,
                                 opts.max_iter - _KINK_AFTER, f)
    return point, flag, None


def _spread_starts(theta0: np.ndarray, count: int) -> list:
    """``count`` starting points around ``theta0``, each moved along one
    axis: +2 on every axis in turn, then -2, then +4, -4, ..."""
    pts = []
    dim = theta0.size
    for k in range(count):
        sign = 1.0 if k // dim % 2 == 0 else -1.0
        cand = theta0.copy()
        cand[k % dim] += sign * 2.0 * (1 + k // (2 * dim))
        pts.append(cand)
    return pts


def fit(ds: Dataset, link: LinkFamily, options: Optional[FitOptions] = None,
        overlap: Optional[OverlapReport] = None) -> FitResult:
    """Maximize the log likelihood; see the module docstring for the
    convergence/divergence protocol.

    ``overlap`` is a report the caller already holds for ``ds`` (from
    ``scalar_overlap``, or ``cone_overlap`` on ``extended_design(ds)``); its
    verdict is used instead of solving the cone program again, and its
    ``report.design``, when it has one, is the standardized design Newton
    runs on and whose rank is checked. Otherwise fit builds that design once
    with ``extended_design(ds)`` and, without a report, makes the same
    ``cone_overlap`` call on it. On separated data it follows the report's
    direction (raw predictor coordinates, mapped onto the design with
    ``to_standardized``), or runs plain Newton with a caveat when the report
    has none (cone margin positive but below tolerance). Along the
    direction, a strictly separated set is marched from the starting point
    with no Newton iteration; a set with tied rows (a signed margin of at
    most ``STRICT_MARGIN`` times the largest) runs up to 25 Newton
    iterations first, which fit the tied rows' share of the supremum. The
    march evaluates the link once, at the iterate where it lands past the
    bound (see ``_march_to_divergence``), so a Diverged fit's
    ``iterations`` is its Newton iterations plus 1 (plus 0 when Newton
    already crossed the bound) and a strictly separated fit makes two
    ``link.log_terms`` calls. For the log-concave links both routes reach
    the same supremum; cauchit's log likelihood at the slope bound depends
    on where the march started.

    Status values: Converged (score within tolerance at an interior
    maximum, or a maximizer at a kink certified as described below),
    Diverged (groups separated; slope escaped ``DIVERGE_BOUND`` with the log
    likelihood still climbing), MaxIterations, NotUnique (design matrix
    numerically rank-deficient; the returned point still maximizes the
    likelihood but not uniquely). Non-log-concave links are fitted from
    ``_STARTS`` starting points (fit's own start, then ``_spread_starts``);
    the run that ranks best by (converged, log likelihood) is returned, its
    point, history and status, with a caveat.

    ``LPNumericalFailure`` is raised, and no status reported, when the cone
    program fails numerically at d > 1 (at d = 1 ``cone_overlap`` falls back
    to the exact interval test) or when the march's landing falls below its
    start: existence is then not certified either way.

    At a kink, Converged means that the rows held on the edge of the
    support have multipliers in [0, 1], the supergradient residual is at
    most CERTIFICATE_TOL and the log likelihood is finite and no lower than
    Newton's best iterate. ``score_norm`` then reports that residual rather
    than the one-sided score, and ``caveat`` says how many rows are held.
    """
    opts = options or FitOptions()
    opts.validate()

    report = overlap
    dm = extended_design(ds) if report is None or report.design is None else report.design
    xt = dm.xt
    y = ds.y
    rank_ok = dm.rank_ok

    p_hat = ds.n1 / ds.n
    theta0 = np.zeros(ds.d + 1)
    theta0[0] = link.inverse(p_hat)

    if rank_ok and report is None:
        report = cone_overlap(dm, y)
    verdict = None if report is None else report.verdict

    start = _evaluate(xt, y, link, theta0)
    history = []
    caveat = None
    cert = None

    if not rank_ok:
        point, _, _ = _newton(xt, y, link, start, history, opts.tol, opts.max_iter)
        status = NOT_UNIQUE
        caveat = "design matrix is rank-deficient; maximizer is not unique"
    elif verdict == SEPARATED:
        if report.direction is None:
            # margin below T_MIN but no weakly separating direction: the
            # groups overlap by less than the cone tolerance; fall back to
            # plain Newton and report its natural outcome
            point, flag, _ = _newton(xt, y, link, start, history, opts.tol, opts.max_iter)
            status = _STATUS[flag]
            caveat = "overlap margin below tolerance; treat the fit as fragile"
        else:
            gamma = dm.to_standardized(report.direction)
            margins = np.where(y == 1, 1.0, -1.0) * (xt @ gamma)
            if margins.min() > STRICT_MARGIN * np.max(np.abs(margins)):
                # strict separation: the supremum 0 has no finite part for
                # Newton to fit, and the march alone reaches it
                point = start
            else:
                # tied rows: Newton fits their finite part first (the march
                # takes no step from an iterate already past the bound)
                point, _, _ = _newton(xt, y, link, start, history, opts.tol,
                                      min(opts.max_iter, 25))
            point = _march_to_divergence(xt, y, link, point, gamma, history)
            status = DIVERGED
    elif link.claims_log_concave:
        if verdict == OVERLAP and np.isfinite(link.support).any():
            point, flag, cert = _newton_then_kink(xt, y, link, start, opts, history)
        else:
            point, flag, _ = _newton(xt, y, link, start, history, opts.tol, opts.max_iter)
        status = _STATUS[flag]
    else:
        caveat = "link is not log-concave: best local optimum from multi-start"
        best = None
        spread = (_evaluate(xt, y, link, theta) for theta in _spread_starts(theta0, _STARTS - 1))
        for point_k in (start, *spread):
            history_k = []
            point_k, flag_k, _ = _newton(xt, y, link, point_k, history_k, opts.tol, opts.max_iter)
            key = (flag_k == "converged", point_k.loglik)
            if best is None or key > best[0]:
                best = (key, point_k, flag_k, history_k)
        _, point, flag, history = best
        status = _STATUS[flag]

    score_std, hess = point.derivatives(xt, y, link)
    score_norm = float(np.max(np.abs(score_std)))
    hess_cond = _hessian_condition(hess)
    if cert is not None:
        score_norm = cert.residual
        held = int(cert.held.sum())
        if held:
            caveat = (f"maximizer at a kink: {held} {'row' if held == 1 else 'rows'} held on "
                      f"the edge of the support, multipliers certified in [0, 1]")

    raw = dm.to_raw(point.theta)
    beta = raw[1:]
    beta.setflags(write=False)
    return FitResult(
        params=Parameters(alpha=float(raw[0]), beta=beta),
        loglik=point.loglik,
        score_norm=score_norm,
        status=status,
        hessian_condition=hess_cond,
        caveat=caveat,
        history=tuple(history),
    )
