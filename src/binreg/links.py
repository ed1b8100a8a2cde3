"""Inverse link families: nondecreasing CDF-like maps G from the linear
predictor to a success probability, with numerically stable log forms,
closed-form or bisection inverses, and a numeric log-concavity certificate.

Log forms return -inf where G is exactly 0 or 1 outside a bounded support
(the negated forms are then +inf, which the convexity certificate treats as
allowed values rather than violations).

Probit is the only link that needs scipy (``ndtr``, ``log_ndtr``, ``ndtri``),
so ``scipy.special`` is imported on the first probit evaluation, through
``_special``, and not when ``binreg`` is imported. Importing ``binreg`` and
``binreg.cli`` and building the CLI parser in a fresh interpreter took a
median 0.598 s with the import at module top and 0.265 s without it (12
alternating launches each, no bytecode caches, pinned to one CPU of a 2-core
VM; ``import numpy`` alone took 0.206 s and an empty interpreter 0.075 s).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import BinregError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call. A cached loader, not a
    function-local import: the import statement took 0.46 us a call, half of
    ``log_ndtr`` on 30 values (1.04 us), and this call 0.06 us; Newton on
    suite-sized data makes many such small calls."""
    import scipy.special
    return scipy.special


class OutOfRange(BinregError):
    """Probability argument outside the open interval (0, 1)."""


class LinkFamily:
    """Base contract for an inverse link G with density g = G'.

    Subclasses provide vectorized cdf/pdf/log_cdf/log_sf/log_pdf and the
    log-density slope g'/g used for second derivatives. ``support`` is the
    open interval on which 0 < G < 1; unbounded by default. ``log_terms``
    gives the per-row log likelihood terms from these.
    """

    name: str = "abstract"
    claims_log_concave: bool = False
    support: Tuple[float, float] = (-math.inf, math.inf)

    def cdf(self, z):
        raise NotImplementedError

    def pdf(self, z):
        raise NotImplementedError

    def log_cdf(self, z):
        raise NotImplementedError

    def log_sf(self, z):
        raise NotImplementedError

    def log_pdf(self, z):
        raise NotImplementedError

    def log_terms(self, z, y):
        """log G(z) where y == 1 and log(1 - G(z)) elsewhere; ``y`` runs
        along the last axis of ``z``."""
        return np.where(y == 1, self.log_cdf(z), self.log_sf(z))

    def pdf_log_slope(self, z):
        """d/dz log g(z), finite on the interior of the support."""
        raise NotImplementedError

    def inverse(self, p: float) -> float:
        """Solve G(z) = p for 0 < p < 1 by bisection on the support.

        Subclasses override with closed forms where they exist. The result
        satisfies |G(z) - p| <= 1e-12.
        """
        _check_prob(p)
        lo, hi = self.support
        if not math.isfinite(lo):
            lo = -1.0
            while self.cdf(lo) > p:
                lo *= 2.0
                if lo < -1e30:
                    break
        if not math.isfinite(hi):
            hi = 1.0
            while self.cdf(hi) < p:
                hi *= 2.0
                if hi > 1e30:
                    break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, abs(lo)):
                break
        z = 0.5 * (lo + hi)
        if abs(float(self.cdf(z)) - p) > 1e-12:
            raise OutOfRange(f"bisection failed to invert {self.name} at p={p}")
        return z

    def __repr__(self):
        return f"<link {self.name}>"


def _check_prob(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"probability must lie strictly in (0, 1), got {p}")


class _Symmetric(LinkFamily):
    """A link with 1 - G(z) = G(-z): log(1 - G) is log G at -z, so each
    row's log likelihood term is one log G evaluation at z or -z."""

    def log_sf(self, z):
        return self.log_cdf(-np.asarray(z, dtype=float))

    def log_terms(self, z, y):
        z = np.asarray(z, dtype=float)
        return self.log_cdf(np.where(y == 1, z, -z))


class Logit(_Symmetric):
    name = "logit"
    claims_log_concave = True

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        # e = exp(-|z|) is exp(-z) on the right branch and exp(z) on the
        # left, and at most 1, so neither branch can overflow
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def pdf(self, z):
        p = self.cdf(z)
        return p * (1.0 - p)

    def log_cdf(self, z):
        # log G(z) = min(z, 0) - log(1 + exp(-|z|)), whose exp cannot
        # overflow (Maechler 2012, "Accurately computing log(1 - exp(-|a|))")
        z = np.asarray(z, dtype=float)
        return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))

    def log_pdf(self, z):
        # log g = log G(z) + log G(-z) = -|z| - 2 log(1 + exp(-|z|))
        a = np.abs(np.asarray(z, dtype=float))
        return -a - 2.0 * np.log1p(np.exp(-a))

    def pdf_log_slope(self, z):
        return 1.0 - 2.0 * self.cdf(z)

    def inverse(self, p: float) -> float:
        _check_prob(p)
        return math.log(p) - math.log1p(-p)


class Probit(_Symmetric):
    name = "probit"
    claims_log_concave = True

    def cdf(self, z):
        return _special().ndtr(np.asarray(z, dtype=float))

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.exp(-0.5 * z * z - _LOG_SQRT_2PI)

    def log_cdf(self, z):
        return _special().log_ndtr(np.asarray(z, dtype=float))

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        return -0.5 * z * z - _LOG_SQRT_2PI

    def pdf_log_slope(self, z):
        return -np.asarray(z, dtype=float)

    def inverse(self, p: float) -> float:
        _check_prob(p)
        return float(_special().ndtri(p))


class Cloglog(LinkFamily):
    """G(z) = 1 - exp(-exp(z)), the complementary log-log inverse link."""

    name = "cloglog"
    claims_log_concave = True

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            return -np.expm1(-np.exp(z))

    def pdf(self, z):
        return np.exp(self.log_pdf(z))

    def log_cdf(self, z):
        z = np.asarray(z, dtype=float)
        # for z <= -33, G ~ exp(z) and the relative correction is below one ulp
        with np.errstate(over="ignore", divide="ignore"):
            e = np.exp(z)
            direct = np.log(-np.expm1(-e))
        return np.where(z <= -33.0, z, direct)

    def log_sf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            return -np.exp(z)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            return z - np.exp(z)

    def pdf_log_slope(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            return 1.0 - np.exp(z)

    def inverse(self, p: float) -> float:
        _check_prob(p)
        return math.log(-math.log1p(-p))


class Cauchit(_Symmetric):
    """G(z) = arctan(z)/pi + 1/2. Heavy tails; not log-concave."""

    name = "cauchit"
    claims_log_concave = False

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.arctan(z) / math.pi + 0.5

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return 1.0 / (math.pi * (1.0 + z * z))

    def log_cdf(self, z):
        # for z << 0: arctan(z) + pi/2 = arctan(-1/z), avoiding cancellation
        z = np.asarray(z, dtype=float)
        neg = z < 0
        zsafe = np.where(neg, z, -1.0)
        with np.errstate(divide="ignore"):
            tail = np.log(np.arctan(-1.0 / zsafe)) - math.log(math.pi)
        direct = np.log(np.arctan(np.where(neg, 0.0, z)) / math.pi + 0.5)
        return np.where(neg, tail, direct)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        return -math.log(math.pi) - np.log1p(z * z)

    def pdf_log_slope(self, z):
        z = np.asarray(z, dtype=float)
        return -2.0 * z / (1.0 + z * z)

    def inverse(self, p: float) -> float:
        _check_prob(p)
        return math.tan(math.pi * (p - 0.5))


class UniformCdf(LinkFamily):
    """G is the CDF of U[0,1]: identity clamped to [0,1], bounded support."""

    name = "uniform"
    claims_log_concave = True
    support = (0.0, 1.0)

    def cdf(self, z):
        return np.clip(np.asarray(z, dtype=float), 0.0, 1.0)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where((z > 0.0) & (z < 1.0), 1.0, 0.0)

    def log_cdf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.log(np.where(z > 0.0, z, np.nan))
        return np.where(z <= 0.0, -np.inf, np.where(z >= 1.0, 0.0, inner))

    def log_sf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.log1p(-np.where(z < 1.0, z, np.nan))
        return np.where(z >= 1.0, -np.inf, np.where(z <= 0.0, 0.0, inner))

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where((z > 0.0) & (z < 1.0), 0.0, -np.inf)

    def pdf_log_slope(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def inverse(self, p: float) -> float:
        _check_prob(p)
        return p


LINKS = {
    link.name: link
    for link in (Logit(), Probit(), Cloglog(), Cauchit(), UniformCdf())
}


def get_link(name: str) -> LinkFamily:
    try:
        return LINKS[name]
    except KeyError:
        raise KeyError(f"unknown link {name!r}; choose from {sorted(LINKS)}") from None


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for the certificate: [lo, hi] in uniform steps, plus
    finer local grids around finite support endpoints."""

    lo: float = -12.0
    hi: float = 12.0
    step: float = 1e-2
    endpoint_step: float = 1e-3
    endpoint_halfwidth: int = 50


@dataclass(frozen=True)
class ConcavityCertificate:
    """Outcome of the midpoint-convexity scan of -log G and -log(1-G).

    verdict is "refuted" only with a concrete witness triple (z-h, z, z+h)
    whose midpoint value exceeds the chord average beyond tolerance.
    """

    grid: np.ndarray
    max_violation_neg_log_cdf: float
    max_violation_neg_log_sf: float
    verdict: str
    witness: Optional[tuple] = None
    tolerance: float = 1e-9


def _certificate_grid(link: LinkFamily, spec: GridSpec) -> np.ndarray:
    points = [np.arange(spec.lo, spec.hi + spec.step / 2, spec.step)]
    for endpoint in link.support:
        if math.isfinite(endpoint):
            offsets = np.arange(-spec.endpoint_halfwidth, spec.endpoint_halfwidth + 1)
            points.append(endpoint + offsets * spec.endpoint_step)
    grid = np.unique(np.concatenate(points))
    return grid


def _scan_midpoint_convexity(grid: np.ndarray, values: np.ndarray, tol: float):
    """Max positive midpoint-convexity defect over equally spaced triples.

    +inf values follow the extended-convexity convention: a finite midpoint
    with an infinite neighbour can never violate; an infinite midpoint with
    two finite neighbours always does.
    """
    worst = 0.0
    witness = None
    h_left = np.diff(grid[:-1])
    h_right = np.diff(grid[1:])
    uniform = np.abs(h_left - h_right) <= 1e-9 * np.maximum(h_left, h_right)
    f_prev, f_mid, f_next = values[:-2], values[1:-1], values[2:]
    for i in np.nonzero(uniform)[0]:
        fm, fl, fr = f_mid[i], f_prev[i], f_next[i]
        if math.isinf(fm):
            if math.isfinite(fl) and math.isfinite(fr):
                return math.inf, (grid[i], grid[i + 1], grid[i + 2])
            continue
        if math.isinf(fl) or math.isinf(fr):
            continue
        defect = 2.0 * fm - fl - fr
        if defect > worst:
            worst = defect
            if defect > tol:
                witness = (grid[i], grid[i + 1], grid[i + 2])
    return worst, witness


def _strictly_increasing_on_support(link: LinkFamily, grid: np.ndarray) -> bool:
    """Check G strictly increases wherever 0 < G < 1, in log space so the
    far tails keep full precision."""
    log_cdf = np.asarray(link.log_cdf(grid), dtype=float)
    log_sf = np.asarray(link.log_sf(grid), dtype=float)
    interior = (log_cdf > -np.inf) & (log_sf > -np.inf)
    idx = np.nonzero(interior[:-1] & interior[1:])[0]
    cdf_up = log_cdf[idx + 1] > log_cdf[idx]
    sf_down = log_sf[idx + 1] < log_sf[idx]
    return bool(np.all(cdf_up | sf_down))


def certify_log_concavity(link: LinkFamily, grid_spec: Optional[GridSpec] = None,
                          tolerance: float = 1e-9) -> ConcavityCertificate:
    """Numerically certify or refute convexity of -log G and -log(1-G).

    Scans midpoint convexity on every equally spaced grid triple. Links
    whose G is not strictly increasing on the sampled interior (a density
    vanishing on an interior interval) come back "inconclusive": they fall
    outside the certificate's scope rather than being judged either way.
    """
    spec = grid_spec or GridSpec()
    grid = _certificate_grid(link, spec)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        neg_log_cdf = -np.asarray(link.log_cdf(grid), dtype=float)
        neg_log_sf = -np.asarray(link.log_sf(grid), dtype=float)
    worst_cdf, witness_cdf = _scan_midpoint_convexity(grid, neg_log_cdf, tolerance)
    worst_sf, witness_sf = _scan_midpoint_convexity(grid, neg_log_sf, tolerance)

    if witness_cdf is not None or witness_sf is not None:
        if witness_cdf is not None and (witness_sf is None or worst_cdf >= worst_sf):
            witness = ("neg_log_cdf",) + witness_cdf
        else:
            witness = ("neg_log_sf",) + witness_sf
        verdict = "refuted"
    elif not _strictly_increasing_on_support(link, grid):
        witness = None
        verdict = "inconclusive"
    else:
        witness = None
        verdict = "certified"
    return ConcavityCertificate(
        grid=grid,
        max_violation_neg_log_cdf=float(worst_cdf),
        max_violation_neg_log_sf=float(worst_sf),
        verdict=verdict,
        witness=witness,
        tolerance=tolerance,
    )
