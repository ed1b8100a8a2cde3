"""Estimator diagnostics: sign/zero/angle theorem checks, a brute-force
grid oracle for small fits, the mean-equalizing shift construction, and
seeded dataset generators for the property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import BinregError, Dataset, dataset_from_arrays, extended_design, group_stats
from .links import LinkFamily
from .mle import CONVERGED, DIVERGED, FitResult, Parameters, fit
from .overlap import OVERLAP, DimensionError, cone_overlap
from .rng import CounterRng
from .simplex import LPNumericalFailure

SIGN_MATCH = "SignMatch"
ZERO_IFF_EQUAL_MEANS = "ZeroIffEqualMeans"
ACUTE_ANGLE = "AcuteAngle"

ZERO_TOL = 1e-8        # mean-difference threshold, and slope sign threshold
FIT_ZERO_TOL = 1e-6    # fitted slope norm threshold (Newton is quadratically
                       # accurate near zero, so this can be looser)
ALPHA_TOL = 1e-8


class PreconditionError(BinregError):
    """The check's hypotheses do not apply to the given inputs."""


class OracleBoundsError(BinregError):
    """Grid optimum hit the search box boundary (suggests separation)."""


class GenerationFailure(BinregError):
    """Dataset generator exhausted its retry budget."""


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    holds: bool
    slack: float
    details: str


def _thresh_sign(value: float, tol: float) -> int:
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return 0


def check_sign(fr: FitResult, gs) -> TheoremReport:
    """d=1 sign test: the fitted slope's sign must match the sign of the
    group-mean difference. Diverged fits carry their direction in the sign
    of the (huge) last iterate, playing the role of sign(+-inf).

    Raises PreconditionError for a fit that did not finish (MaxIterations or
    NotUnique): the statement is about the maximizer, which such a fit has
    not reached, so its slope is no counterexample."""
    if gs.delta.size != 1:
        raise DimensionError("sign check is defined for a single predictor")
    if fr.status not in (CONVERGED, DIVERGED):
        raise PreconditionError(f"sign check needs a Converged or Diverged fit, got {fr.status}")
    beta = float(fr.params.beta[0])
    delta = float(gs.delta[0])
    if fr.status == DIVERGED:
        beta_sign = 1 if beta > 0 else (-1 if beta < 0 else 0)
    else:
        beta_sign = _thresh_sign(beta, ZERO_TOL)
    delta_sign = _thresh_sign(delta, ZERO_TOL)
    holds = beta_sign == delta_sign
    return TheoremReport(
        theorem=SIGN_MATCH,
        holds=holds,
        slack=beta * delta,
        details=f"sign(beta)={beta_sign}, sign(delta)={delta_sign}, "
                f"beta={beta:.6g}, delta={delta:.6g}, status={fr.status}",
    )


def check_angle(fr: FitResult, gs) -> TheoremReport:
    """The fitted slope must make an acute angle with the group-mean
    difference: slack = beta'delta must be strictly positive.

    Raises PreconditionError unless the fit converged and the group means
    are distinct (|delta| > ZERO_TOL), the cases the statement covers."""
    if fr.status != CONVERGED:
        raise PreconditionError(f"angle check needs a Converged fit, got {fr.status}")
    delta_norm = float(np.linalg.norm(gs.delta))
    if delta_norm <= ZERO_TOL:
        raise PreconditionError(
            "group means coincide; the zero-coefficient equivalence applies instead")
    slack = float(fr.params.beta @ gs.delta)
    return TheoremReport(
        theorem=ACUTE_ANGLE,
        holds=slack > 0.0,
        slack=slack,
        details=f"beta'delta={slack:.6g}, |delta|={delta_norm:.6g}",
    )


def check_zero_iff(ds: Dataset, link: LinkFamily) -> TheoremReport:
    """Both directions of the zero-coefficient equivalence.

    Equal group means must force a (near-)zero fitted slope with intercept
    G^{-1}(n1/n); conversely a near-zero fitted slope must come with equal
    group means.
    """
    gs = group_stats(ds)
    fr = fit(ds, link)
    delta_norm = float(np.linalg.norm(gs.delta))
    beta_norm = float(np.linalg.norm(fr.params.beta))

    if delta_norm <= ZERO_TOL:
        alpha_target = link.inverse(ds.n1 / ds.n)
        alpha_err = abs(fr.params.alpha - alpha_target)
        holds = (fr.status == CONVERGED and beta_norm <= FIT_ZERO_TOL
                 and alpha_err <= ALPHA_TOL)
        return TheoremReport(
            theorem=ZERO_IFF_EQUAL_MEANS, holds=holds, slack=beta_norm,
            details=f"|delta|={delta_norm:.3g} -> |beta|={beta_norm:.3g}, "
                    f"|alpha-G^-1(n1/n)|={alpha_err:.3g}, status={fr.status}")
    if beta_norm <= FIT_ZERO_TOL and fr.status == CONVERGED:
        return TheoremReport(
            theorem=ZERO_IFF_EQUAL_MEANS, holds=False, slack=delta_norm,
            details=f"|beta|={beta_norm:.3g} but |delta|={delta_norm:.3g} > {ZERO_TOL}")
    return TheoremReport(
        theorem=ZERO_IFF_EQUAL_MEANS, holds=True, slack=min(delta_norm, beta_norm),
        details="neither side near zero; equivalence vacuously satisfied")


def shift_dataset(ds: Dataset) -> Dataset:
    """Subtract the group-mean difference from every y=1 predictor row,
    equalizing the two group means by construction."""
    gs = group_stats(ds)
    x_shifted = ds.x - np.outer(ds.y, gs.delta)
    return dataset_from_arrays(x_shifted, ds.y)


def grid_mle(ds: Dataset, link: LinkFamily,
             bounds: Tuple[float, float] = (-16.0, 16.0),
             levels: int = 7) -> Parameters:
    """Brute-force likelihood maximizer over a nested (intercept, slope) grid.

    Each refinement level shrinks the box five-fold around the best point,
    so the final resolution is about width / (5**levels * (points-1)).
    With 21 points per axis the next box spans two grid steps around the
    incumbent, which keeps very flat ridges (tiny n) from being shrunk out.
    The search runs in a mean-centered parametrization (intercept paired
    with x - xbar), which decorrelates the peak so the nested boxes track
    it reliably; the result is mapped back to raw coordinates. Intended as
    an independent oracle for small problems only.
    """
    if ds.d > 2 or ds.n > 20:
        raise PreconditionError("grid oracle is restricted to d <= 2 and n <= 20")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise PreconditionError("invalid bounds")
    xbar = ds.x.mean(axis=0)
    xt = np.column_stack([np.ones(ds.n), ds.x - xbar])
    nparam = ds.d + 1
    centers = np.full(nparam, 0.5 * (lo + hi))
    width = hi - lo
    points = 21

    best = centers
    for _ in range(levels):
        axes = [np.linspace(c - width / 2, c + width / 2, points) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        combos = np.stack([m.ravel() for m in mesh], axis=1)
        z = combos @ xt.T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ll = link.log_terms(z, ds.y).sum(axis=1)
        best = combos[int(np.argmax(ll))]
        step = width / (points - 1)
        if np.any(best <= lo + step) or np.any(best >= hi - step):
            raise OracleBoundsError(
                f"grid optimum at {best} touches the search box [{lo}, {hi}]")
        centers = best
        width /= 5.0

    beta = np.array(best[1:])
    beta.setflags(write=False)
    return Parameters(alpha=float(best[0] - xbar @ beta), beta=beta)


# ---------------------------------------------------------------------------
# seeded dataset generators

def _derived_seed(seed: int, trial: int) -> int:
    return (seed * 2_654_435_761 + trial * 97_531) & ((1 << 63) - 1)


_GEN_TRIES = 500


def gen_overlapping(n: int, d: int, seed: int) -> Dataset:
    """Random dataset rejected-and-retried, at most ``_GEN_TRIES`` times,
    until the cone test says Overlap (and the standardized extended design
    has full rank)."""
    return _gen_overlapping(n, d, seed)[0]


def _gen_overlapping(n: int, d: int, seed: int):
    """``gen_overlapping``'s dataset and the Overlap report that accepted it,
    which a suite trial passes to ``fit`` so the cone program is solved and
    the design built and ranked once (the report carries the design)."""
    if d < 1 or n < d + 2:
        raise GenerationFailure(f"need d >= 1 and n >= d+2 to overlap, got n={n}, d={d}")
    rng = CounterRng(seed)
    for _ in range(_GEN_TRIES):
        x = rng.uniforms(n * d, -2.0, 2.0).reshape(n, d)
        y = (rng.uniforms(n) < 0.5).astype(int)
        if y.sum() == 0 or y.sum() == n:
            continue
        ds = dataset_from_arrays(x, y)
        dm = extended_design(ds)
        if not dm.rank_ok:
            continue
        try:
            report = cone_overlap(dm, ds.y)
        except LPNumericalFailure:
            continue
        if report.verdict == OVERLAP:
            return ds, report
    raise GenerationFailure(
        f"no overlapping dataset after {_GEN_TRIES} tries (n={n}, d={d}, seed={seed})")


def gen_separated(n: int, d: int, seed: int) -> Dataset:
    """Completely separated dataset: points split by a random hyperplane
    and pushed apart so the margin is strict."""
    if n < 2 or d < 1:
        raise GenerationFailure(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    rng = CounterRng(seed)
    w = np.array([rng.normal() for _ in range(d)])
    norm = np.linalg.norm(w)
    w = w / norm if norm > 0 else np.eye(d)[0]
    x = rng.uniforms(n * d, -1.0, 1.0).reshape(n, d)
    scores = x @ w
    order = np.argsort(scores, kind="stable")
    n1 = max(1, n // 2)
    y = np.zeros(n, dtype=int)
    y[order[-n1:]] = 1
    gap_low = scores[order[-n1:]].min()
    gap_high = scores[order[:-n1]].max()
    push = max(0.0, gap_high - gap_low) + 0.2
    x = x + np.outer(y, push * w)
    return dataset_from_arrays(x, y)


def gen_balanced(n: int, d: int, seed: int) -> Dataset:
    """Overlapping dataset shifted so the group means coincide."""
    return shift_dataset(gen_overlapping(n, d, seed))


def gen_gaussian(n: int, mu0, mu1, sigma, seed: int) -> Dataset:
    """Class-conditional Gaussian predictors: x | y=j ~ N(mu_j, sigma), with
    sigma a scale (finite, at least 0) or a covariance matrix (finite)."""
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    if mu0.shape != mu1.shape:
        raise DimensionError("mu0 and mu1 must share a dimension")
    if n < 2:
        raise GenerationFailure(f"need n >= 2, got n={n}")
    d = mu0.size
    sigma_arr = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma_arr)) or (sigma_arr.ndim == 0 and sigma_arr < 0):
        raise GenerationFailure(f"sigma must be finite and, as a scale, at least 0; got {sigma}")
    if sigma_arr.ndim == 0:
        chol = float(sigma_arr) * np.eye(d)
    else:
        chol = np.linalg.cholesky(sigma_arr)
    rng = CounterRng(seed)
    x = np.empty((n, d))
    y = np.empty(n, dtype=int)
    for i in range(n):
        y[i] = rng.bernoulli()
        noise = np.array([rng.normal() for _ in range(d)])
        x[i] = (mu1 if y[i] == 1 else mu0) + chol @ noise
    if y.sum() == 0:
        y[0] = 1
    elif y.sum() == n:
        y[0] = 0
    return dataset_from_arrays(x, y)


# ---------------------------------------------------------------------------
# property suites (used by the CLI and the acceptance tests)

@dataclass(frozen=True)
class SuiteSummary:
    theorem: str
    link: str
    d: int
    trials: int
    passes: int
    failures: int
    skipped: int
    worst_slack: float
    failure_details: Tuple[str, ...] = ()


def _run_suite(theorem: str, links: Sequence[LinkFamily], d: int, trials: int,
               seed: int, draw, check) -> List[SuiteSummary]:
    """Draw each trial's data once, ``draw(t, rng, gen_seed)`` for t < trials
    on seeds derived from ``seed``, and run ``check(link, data)`` on it for
    every link in ``links``; a check returns (holds, slack, details). A link
    whose check raises PreconditionError skips that trial: the check alone
    judges its hypotheses. Returns one summary per link, in order."""
    outcomes = [[] for _ in links]
    for t in range(trials):
        s = _derived_seed(seed, t)
        data = draw(t, CounterRng(s), _derived_seed(s, 1))
        for link, out in zip(links, outcomes):
            try:
                out.append(check(link, data))
            except PreconditionError:
                out.append(None)
    return [_summary(theorem, link.name, d, out) for link, out in zip(links, outcomes)]


def _summary(theorem: str, link_name: str, d: int, outcomes) -> SuiteSummary:
    """One link's tally of its trials' outcomes, None for a skipped trial."""
    passes = skipped = 0
    worst = math.inf
    details = []
    for t, outcome in enumerate(outcomes):
        if outcome is None:
            skipped += 1
            continue
        holds, slack, text = outcome
        worst = min(worst, slack)
        if holds:
            passes += 1
        else:
            details.append(f"trial {t}: {text}")
    return SuiteSummary(theorem=theorem, link=link_name, d=d, trials=len(outcomes),
                        passes=passes, failures=len(details), skipped=skipped,
                        worst_slack=worst if worst < math.inf else float("nan"),
                        failure_details=tuple(details[:10]))


def _draw_overlapping(d: int):
    """The sign and angle suites' draw: an overlapping dataset of dimension
    d, with n from 6 (or d + 2) to 40 drawn by the trial's rng, the Overlap
    report every link's fit reuses, and the group statistics."""

    def draw(t, rng, gen_seed):
        ds, report = _gen_overlapping(rng.randint(max(6, d + 2), 40), d, gen_seed)
        return ds, report, group_stats(ds)

    return draw


def _fit_and_check(theorem_check, link: LinkFamily, ds: Dataset, report, gs):
    rep = theorem_check(fit(ds, link, overlap=report), gs)
    return rep.holds, rep.slack, rep.details


def run_sign_suite(links: Sequence[LinkFamily], trials: int,
                   seed: int) -> List[SuiteSummary]:
    """Sign match over random overlapping d=1 datasets, one summary per
    link; every link fits the same datasets. A trial whose fit did not
    finish is skipped: ``check_sign`` refuses it."""
    return _run_suite(SIGN_MATCH, links, 1, trials, seed, _draw_overlapping(1),
                      lambda link, data: _fit_and_check(check_sign, link, *data))


def run_zero_suite(links: Sequence[LinkFamily], trials: int,
                   seed: int) -> List[SuiteSummary]:
    """Zero-coefficient equivalence over mean-balanced datasets of dimension
    1, 2, 3 in turn, one summary per link; every link fits the same
    datasets. ``worst_slack`` is the largest slack, negated."""

    def draw(t, rng, gen_seed):
        d = 1 + t % 3
        return gen_balanced(rng.randint(max(6, d + 2), 40), d, gen_seed)

    def check(link, ds):
        rep = check_zero_iff(ds, link)
        return rep.holds, -rep.slack, rep.details

    return _run_suite(ZERO_IFF_EQUAL_MEANS, links, 0, trials, seed, draw, check)


def run_angle_suite(links: Sequence[LinkFamily], d: int, trials: int,
                    seed: int) -> List[SuiteSummary]:
    """Acute angle over random overlapping datasets of dimension d, one
    summary per link; every link fits the same datasets. A trial whose fit
    did not converge, or whose group means coincide, is skipped:
    ``check_angle`` refuses it."""
    return _run_suite(ACUTE_ANGLE, links, d, trials, seed, _draw_overlapping(d),
                      lambda link, data: _fit_and_check(check_angle, link, *data))
