"""Maximum likelihood fitting by damped Newton ascent on the concave
log likelihood, with principled divergence detection.

A small score norm alone cannot distinguish an interior maximum from a fit
drifting to infinity under separation (the gradient decays exponentially
along a separating direction), so ``fit`` first settles existence with
``overlap.cone_overlap``, the decision every caller makes. When the groups
overlap, Newton converges to the unique maximizer; when they are
separated, the fit follows the report's separating direction with doubling
steps, along which the log likelihood is provably nondecreasing, until the
slope norm crosses the divergence bound, and reports Diverged with the
last iterate.

Each Newton step is damped by Armijo backtracking over the steps 1, 1/2,
..., 2**(1 - max_halvings). Step 1 is one log likelihood evaluation; when
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
of the last iterate are what ``fit`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import BinregError, Dataset, _numerical_rank, _standardize, _with_intercept
from .links import LinkFamily
# separating_direction is not called here; the benchmark's traced run
# (perfbench/spans.py) wraps binreg.mle.separating_direction by name
from .overlap import SEPARATED, OverlapReport, cone_overlap, separating_direction  # noqa: F401
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


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-10                # sup-norm score tolerance, standardized scale
    max_iter: int = 100
    diverge_bound: float = 1e4       # slope 2-norm bound, standardized scale
    armijo: float = 1e-4
    max_halvings: int = 50
    starts: int = 7                  # multi-start count for non-log-concave links
    ridge: float = 1e-10             # Hessian eigenvalue floor factor
    rank_tolerance: float = 1e-10

    def validate(self) -> None:
        if self.tol <= 0 or self.diverge_bound <= 0 or self.rank_tolerance <= 0:
            raise ConfigError("tolerances must be positive")
        if self.max_iter <= 0 or self.max_halvings <= 0 or self.starts <= 0:
            raise ConfigError("iteration counts must be positive")


@dataclass(frozen=True)
class FitResult:
    params: Parameters
    loglik: float
    score_norm: float
    iterations: int
    status: str
    hessian_condition: float
    caveat: Optional[str] = None
    history: Tuple[float, ...] = field(default=())


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
    terms = np.where(y == 1, link.log_cdf(z), link.log_sf(z))
    return _Evaluation(theta, z, terms, float(np.sum(terms)))


def _loglik(xt: np.ndarray, y: np.ndarray, link: LinkFamily, theta: np.ndarray) -> float:
    return _evaluate(xt, y, link, theta).loglik


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
        is1 = y == 1
        w = np.where(is1, e, -e)
        dw = np.where(is1, e * (slope - e), -e * (slope + e))
    return w, dw


def _derivatives(xt, y, link, theta) -> Tuple[np.ndarray, np.ndarray]:
    """Score and Hessian from one evaluation of the link."""
    return _evaluate(xt, y, link, theta).derivatives(xt, y, link)


def log_likelihood(ds: Dataset, link: LinkFamily, p: Parameters) -> float:
    """Sum of y*log G(z) + (1-y)*log(1-G(z)) with z = alpha + x'beta.

    May be -inf for bounded-support links when some z falls outside the
    support on the wrong side.
    """
    return _loglik(_with_intercept(ds.x), ds.y, link, _theta(p))


def score(ds: Dataset, link: LinkFamily, p: Parameters) -> np.ndarray:
    """Gradient of the log likelihood in (alpha, beta); length d+1."""
    return _derivatives(_with_intercept(ds.x), ds.y, link, _theta(p))[0]


def hessian(ds: Dataset, link: LinkFamily, p: Parameters) -> np.ndarray:
    """Analytic second derivative matrix; symmetric, (d+1) x (d+1)."""
    return _derivatives(_with_intercept(ds.x), ds.y, link, _theta(p))[1]


def _ascent_direction(H: np.ndarray, g: np.ndarray, ridge: float) -> np.ndarray:
    # clamp eigenvalues away from zero on the negative side; for concave
    # objectives this is plain Newton, otherwise a descent-safe modification
    evals, evecs = np.linalg.eigh(H)
    floor = ridge * max(1.0, float(np.abs(evals).sum()))
    clamped = np.minimum(evals, -floor)
    return -evecs @ ((evecs.T @ g) / clamped)


def _hessian_condition(H: np.ndarray) -> float:
    # far along a separating direction some links' weight derivatives are
    # 0 * inf; the curvature is then unknown, not an eigenvalue failure
    if not np.all(np.isfinite(H)):
        return math.inf
    evals = np.abs(np.linalg.eigvalsh(H))
    if evals.min() == 0.0:
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
    terms = np.where(y == 1, link.log_cdf(z), link.log_sf(z))
    return z, terms, terms.sum(axis=1)


def _armijo_step(xt, y, link, theta, f, direction, slope, opts: FitOptions):
    """First step of 1, 1/2, ..., 2**(1 - max_halvings) along ``direction``
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
        return np.isfinite(values) & (values >= f + opts.armijo * steps * slope - noise)

    point = _evaluate(xt, y, link, theta + direction)
    if passes(point.loglik, 1.0):
        return point
    steps = np.ldexp(1.0, -np.arange(opts.max_halvings))
    block = max(1, _LINE_SEARCH_ELEMENTS // xt.shape[0])
    for start in range(1, opts.max_halvings, block):
        tried = steps[start:start + block]
        cands = theta + tried[:, None] * direction
        z, terms, values = _evaluate_rows(xt, y, link, cands)
        ok = passes(values, tried)
        if ok.any():
            first = int(np.argmax(ok))
            return _Evaluation(cands[first], z[first], terms[first], float(values[first]))
    return None


class _Trace:
    def __init__(self):
        self.history = []
        self.iterations = 0

    def accept(self, value: float):
        self.history.append(value)
        self.iterations += 1


def _newton(xt, y, link, theta, opts: FitOptions, trace: _Trace,
            max_iter: Optional[int] = None, stop_on_score: bool = True):
    """Damped Newton with Armijo backtracking (see ``_armijo_step``).
    Returns (the last iterate's ``_Evaluation``, flag).

    The link is evaluated once per iterate: the record that accepted a step
    carries that iterate's log likelihood, and its score and Hessian come
    from the same terms."""
    limit = opts.max_iter if max_iter is None else max_iter
    point = _evaluate(xt, y, link, theta)
    f = point.loglik
    for _ in range(limit):
        g, H = point.derivatives(xt, y, link)
        if stop_on_score and np.max(np.abs(g)) <= opts.tol:
            return point, "converged"
        if np.linalg.norm(point.theta[1:]) > opts.diverge_bound:
            return point, "diverged"
        direction = _ascent_direction(H, g, opts.ridge)
        slope = float(g @ direction)
        if not np.isfinite(slope) or slope <= 0:
            return point, "stalled"
        accepted = _armijo_step(xt, y, link, point.theta, f, direction, slope, opts)
        if accepted is None:
            return point, "stalled"
        point = accepted
        f = max(f, point.loglik)
        trace.accept(point.loglik)
    g, _ = point.derivatives(xt, y, link)
    if stop_on_score and np.max(np.abs(g)) <= opts.tol:
        return point, "converged"
    return point, "maxiter"


def _march_to_divergence(xt, y, link, point: _Evaluation, gamma, opts: FitOptions,
                         trace: _Trace) -> _Evaluation:
    """Doubling steps along a separating direction from ``point`` until the
    slope norm crosses the divergence bound; returns the last accepted
    point. The log likelihood is nondecreasing along gamma by construction
    (each term's argument moves toward its label's favorable side); tiny
    float wobble is tolerated."""
    f = point.loglik
    step = 1.0
    while np.linalg.norm(point.theta[1:]) <= opts.diverge_bound:
        cand = _evaluate(xt, y, link, point.theta + step * gamma)
        if cand.loglik >= f - 1e-9 * (1.0 + abs(f)):
            point = cand
            f = max(f, cand.loglik)
            trace.accept(cand.loglik)
            step *= 2.0
        else:  # float wobble guard; take smaller moves
            step *= 0.5
            if step < 1e-8:
                break
    return point


def _to_raw(theta_std: np.ndarray, center: np.ndarray, spread: np.ndarray) -> Parameters:
    beta = theta_std[1:] / spread
    alpha = float(theta_std[0] - center @ beta)
    beta = np.array(beta)
    beta.setflags(write=False)
    return Parameters(alpha=alpha, beta=beta)


def _to_standardized(gamma: np.ndarray, center: np.ndarray, spread: np.ndarray) -> np.ndarray:
    # gamma0 + gamma1'x written in the standardized predictors (x - center) / spread
    return np.concatenate([[gamma[0] + gamma[1:] @ center], spread * gamma[1:]])


def _multistart_points(theta0: np.ndarray, count: int) -> list:
    pts = [theta0.copy()]
    dim = theta0.size
    k = 1
    while len(pts) < count:
        axis = (k - 1) % dim
        magnitude = 2.0 * (1 + (k - 1) // (2 * dim))
        sign = 1.0 if (k - 1) // dim % 2 == 0 else -1.0
        cand = theta0.copy()
        cand[axis] += sign * magnitude
        pts.append(cand)
        k += 1
    return pts


def fit(ds: Dataset, link: LinkFamily, options: Optional[FitOptions] = None,
        overlap: Optional[OverlapReport] = None) -> FitResult:
    """Maximize the log likelihood; see the module docstring for the
    convergence/divergence protocol.

    ``overlap`` is a report the caller already holds for ``ds`` (from
    ``scalar_overlap``, or ``cone_overlap`` on ``extended_design(ds)``); its
    verdict is used instead of solving the cone program again. Without one,
    fit makes that same ``cone_overlap`` call. On separated data it follows
    the report's direction, or runs plain Newton with a caveat when the
    report has none (cone margin positive but below tolerance).

    Status values: Converged (score within tolerance at an interior
    maximum), Diverged (groups separated; slope escaped the bound with the
    log likelihood still climbing), MaxIterations, NotUnique (design matrix
    numerically rank-deficient; the returned point still maximizes the
    likelihood but not uniquely). Non-log-concave links are fitted from
    ``options.starts`` spread starting points and the best local optimum is
    returned with a caveat. When the cone program fails numerically at
    d > 1, the fit proceeds as if the groups overlap and its caveat names
    the failure.
    """
    opts = options or FitOptions()
    opts.validate()

    xs, center, spread = _standardize(ds.x)
    xt = _with_intercept(xs)
    y = ds.y
    rank_ok = _numerical_rank(xt, opts.rank_tolerance) == ds.d + 1

    p_hat = ds.n1 / ds.n
    theta0 = np.zeros(ds.d + 1)
    theta0[0] = link.inverse(p_hat)

    report = overlap
    lp_caveat = None
    if rank_ok and report is None:
        try:
            report = cone_overlap(_with_intercept(ds.x), y)
        except LPNumericalFailure as exc:
            # d > 1 (at d = 1 cone_overlap falls back to the interval test):
            # proceed as if overlapping, and say so; Newton's own divergence
            # bound remains as a backstop
            lp_caveat = f"cone program failed: {exc}; existence not certified"
    verdict = None if report is None else report.verdict

    trace = _Trace()
    caveat = None

    if not rank_ok:
        point, _ = _newton(xt, y, link, theta0, opts, trace)
        status = NOT_UNIQUE
        caveat = "design matrix is rank-deficient; maximizer is not unique"
    elif verdict == SEPARATED:
        if report.direction is None:
            # margin below T_MIN but no weakly separating direction: the
            # groups overlap by less than the cone tolerance; fall back to
            # plain Newton and report its natural outcome
            point, flag = _newton(xt, y, link, theta0, opts, trace)
            status = _STATUS[flag]
            caveat = "overlap margin below tolerance; treat the fit as fragile"
        else:
            gamma = _to_standardized(report.direction, center, spread)
            point, flag = _newton(xt, y, link, theta0, opts, trace,
                                  max_iter=min(opts.max_iter, 25))
            if flag != "diverged":
                point = _march_to_divergence(xt, y, link, point, gamma, opts, trace)
            status = DIVERGED
    elif link.claims_log_concave:
        point, flag = _newton(xt, y, link, theta0, opts, trace)
        status = _STATUS[flag]
    else:
        caveat = "link is not log-concave: best local optimum from multi-start"
        best = None
        for start in _multistart_points(theta0, opts.starts):
            sub_trace = _Trace()
            point_k, flag_k = _newton(xt, y, link, start, opts, sub_trace)
            key = (flag_k == "converged", point_k.loglik)
            if best is None or key > best[0]:
                best = (key, point_k, flag_k, sub_trace)
        _, point, flag, sub_trace = best
        trace = sub_trace
        status = _STATUS[flag]

    score_std, hess = point.derivatives(xt, y, link)
    score_norm = float(np.max(np.abs(score_std)))
    hess_cond = _hessian_condition(hess)

    return FitResult(
        params=_to_raw(point.theta, center, spread),
        loglik=point.loglik,
        score_norm=score_norm,
        iterations=trace.iterations,
        status=status,
        hessian_condition=hess_cond,
        caveat="; ".join(filter(None, (lp_caveat, caveat))) or None,
        history=tuple(trace.history),
    )
