"""Estimator diagnostics: sign/zero/angle theorem checks, a brute-force
grid oracle for small fits, the mean-equalizing shift construction, and
seeded dataset generators for the property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

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


def check_sign(fr: FitResult, gs, zero_tol: float = ZERO_TOL) -> TheoremReport:
    """d=1 sign test: the fitted slope's sign must match the sign of the
    group-mean difference. Diverged fits carry their direction in the sign
    of the (huge) last iterate, playing the role of sign(+-inf)."""
    if gs.delta.size != 1:
        raise DimensionError("sign check is defined for a single predictor")
    if fr.status not in (CONVERGED, DIVERGED):
        raise PreconditionError(f"sign check needs a Converged or Diverged fit, got {fr.status}")
    beta = float(fr.params.beta[0])
    delta = float(gs.delta[0])
    if fr.status == DIVERGED:
        beta_sign = 1 if beta > 0 else (-1 if beta < 0 else 0)
    else:
        beta_sign = _thresh_sign(beta, zero_tol)
    delta_sign = _thresh_sign(delta, zero_tol)
    holds = beta_sign == delta_sign
    return TheoremReport(
        theorem=SIGN_MATCH,
        holds=holds,
        slack=beta * delta,
        details=f"sign(beta)={beta_sign}, sign(delta)={delta_sign}, "
                f"beta={beta:.6g}, delta={delta:.6g}, status={fr.status}",
    )


def check_angle(fr: FitResult, gs, zero_tol: float = ZERO_TOL) -> TheoremReport:
    """The fitted slope must make an acute angle with the group-mean
    difference: slack = beta'delta must be strictly positive."""
    if fr.status != CONVERGED:
        raise PreconditionError(f"angle check needs a Converged fit, got {fr.status}")
    delta_norm = float(np.linalg.norm(gs.delta))
    if delta_norm <= zero_tol:
        raise PreconditionError(
            "group means coincide; the zero-coefficient equivalence applies instead")
    slack = float(fr.params.beta @ gs.delta)
    return TheoremReport(
        theorem=ACUTE_ANGLE,
        holds=slack > 0.0,
        slack=slack,
        details=f"beta'delta={slack:.6g}, |delta|={delta_norm:.6g}",
    )


def check_zero_iff(ds: Dataset, link: LinkFamily,
                   zero_tol: float = ZERO_TOL,
                   fit_zero_tol: float = FIT_ZERO_TOL,
                   alpha_tol: float = ALPHA_TOL) -> TheoremReport:
    """Both directions of the zero-coefficient equivalence.

    Equal group means must force a (near-)zero fitted slope with intercept
    G^{-1}(n1/n); conversely a near-zero fitted slope must come with equal
    group means.
    """
    gs = group_stats(ds)
    fr = fit(ds, link)
    delta_norm = float(np.linalg.norm(gs.delta))
    beta_norm = float(np.linalg.norm(fr.params.beta))

    if delta_norm <= zero_tol:
        alpha_target = link.inverse(ds.n1 / ds.n)
        alpha_err = abs(fr.params.alpha - alpha_target)
        holds = (fr.status == CONVERGED and beta_norm <= fit_zero_tol
                 and alpha_err <= alpha_tol)
        return TheoremReport(
            theorem=ZERO_IFF_EQUAL_MEANS, holds=holds, slack=beta_norm,
            details=f"|delta|={delta_norm:.3g} -> |beta|={beta_norm:.3g}, "
                    f"|alpha-G^-1(n1/n)|={alpha_err:.3g}, status={fr.status}")
    if beta_norm <= fit_zero_tol and fr.status == CONVERGED:
        return TheoremReport(
            theorem=ZERO_IFF_EQUAL_MEANS, holds=False, slack=delta_norm,
            details=f"|beta|={beta_norm:.3g} but |delta|={delta_norm:.3g} > {zero_tol}")
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
             levels: int = 7, points: int = 21) -> Parameters:
    """Brute-force likelihood maximizer over a nested (intercept, slope) grid.

    Each refinement level shrinks the box five-fold around the best point,
    so the final resolution is about width / (5**levels * (points-1)).
    With the default density the next box spans two grid steps around the
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


def gen_overlapping(n: int, d: int, seed: int, max_tries: int = 500) -> Dataset:
    """Random dataset rejected-and-retried until the cone test says Overlap
    (and the standardized extended design has full rank)."""
    return _gen_overlapping(n, d, seed, max_tries)[0]


def _gen_overlapping(n: int, d: int, seed: int, max_tries: int = 500):
    """``gen_overlapping``'s dataset and the Overlap report that accepted it,
    which a suite trial passes to ``fit`` so the cone program is solved and
    the design built and ranked once (the report carries the design)."""
    if n < d + 2:
        raise GenerationFailure(f"need n >= d+2 to overlap, got n={n}, d={d}")
    rng = CounterRng(seed)
    for _ in range(max_tries):
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
    raise GenerationFailure(f"no overlapping dataset after {max_tries} tries (seed={seed})")


def gen_separated(n: int, d: int, seed: int) -> Dataset:
    """Completely separated dataset: points split by a random hyperplane
    and pushed apart so the margin is strict."""
    if n < 2:
        raise GenerationFailure("need n >= 2")
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
    """Class-conditional Gaussian predictors: x | y=j ~ N(mu_j, sigma)."""
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    if mu0.shape != mu1.shape:
        raise DimensionError("mu0 and mu1 must share a dimension")
    d = mu0.size
    sigma_arr = np.asarray(sigma, dtype=float)
    if sigma_arr.ndim == 0:
        chol = float(sigma_arr) * np.eye(d)
    else:
        chol = np.linalg.cholesky(sigma_arr)
    rng = CounterRng(seed)
    x = np.empty((n, d))
    y = np.empty(n, dtype=int)
    for i in range(n):
        y[i] = rng.bernoulli(0.5)
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


def _summarize(theorem: str, link_name: str, d: int, outcomes) -> SuiteSummary:
    passes = failures = skipped = 0
    worst = math.inf
    details = []
    for outcome in outcomes:
        if outcome is None:
            skipped += 1
            continue
        holds, slack, text = outcome
        worst = min(worst, slack)
        if holds:
            passes += 1
        else:
            failures += 1
            details.append(text)
    return SuiteSummary(theorem=theorem, link=link_name, d=d,
                        trials=passes + failures + skipped,
                        passes=passes, failures=failures, skipped=skipped,
                        worst_slack=worst if worst < math.inf else float("nan"),
                        failure_details=tuple(details[:10]))


def run_sign_suite(link: LinkFamily, trials: int, seed: int,
                   n_range: Tuple[int, int] = (6, 40)) -> SuiteSummary:
    """Sign match over random overlapping d=1 datasets.

    Trials whose fit did not finish (MaxIterations or NotUnique) are
    skipped: the statement is about the maximizer, which such a fit has not
    reached, so its slope is no counterexample.
    """

    def one(t: int):
        s = _derived_seed(seed, t)
        rng = CounterRng(s)
        n = rng.randint(*n_range)
        ds, report = _gen_overlapping(n, 1, _derived_seed(s, 1))
        fr = fit(ds, link, overlap=report)
        gs = group_stats(ds)
        if fr.status not in (CONVERGED, DIVERGED):
            return None
        rep = check_sign(fr, gs)
        return rep.holds, rep.slack, f"trial {t}: {rep.details}"

    return _summarize(SIGN_MATCH, link.name, 1, [one(t) for t in range(trials)])


def run_zero_suite(link: LinkFamily, trials: int, seed: int,
                   n_range: Tuple[int, int] = (6, 40),
                   dims: Tuple[int, ...] = (1, 2, 3)) -> SuiteSummary:
    """Zero-coefficient equivalence over mean-balanced datasets."""

    def one(t: int):
        s = _derived_seed(seed, t)
        rng = CounterRng(s)
        d = dims[t % len(dims)]
        n = rng.randint(max(n_range[0], d + 2), n_range[1])
        ds = gen_balanced(n, d, _derived_seed(s, 1))
        rep = check_zero_iff(ds, link)
        return rep.holds, -rep.slack, f"trial {t}: {rep.details}"

    return _summarize(ZERO_IFF_EQUAL_MEANS, link.name, 0, [one(t) for t in range(trials)])


def run_angle_suite(link: LinkFamily, d: int, trials: int, seed: int,
                    n_range: Tuple[int, int] = (6, 40)) -> SuiteSummary:
    """Acute angle over random overlapping datasets of dimension d.

    Trials whose fit does not converge, or whose mean difference is
    negligible, are skipped: the statement only covers converged fits with
    distinct group means.
    """

    def one(t: int):
        s = _derived_seed(seed, t)
        rng = CounterRng(s)
        n = rng.randint(max(n_range[0], d + 2), n_range[1])
        ds, report = _gen_overlapping(n, d, _derived_seed(s, 1))
        fr = fit(ds, link, overlap=report)
        gs = group_stats(ds)
        if fr.status != CONVERGED or np.linalg.norm(gs.delta) <= 1e-6:
            return None
        rep = check_angle(fr, gs)
        return rep.holds, rep.slack, f"trial {t}: {rep.details}"

    return _summarize(ACUTE_ANGLE, link.name, d, [one(t) for t in range(trials)])
