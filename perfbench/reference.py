"""Independent maximum likelihood reference for the benchmark's output checks.

Damped Newton on the standardized design, written against numpy and
``scipy.special`` only, so a defect in binreg cannot hide in its own check.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, log_expit, log_ndtr

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _terms(link: str, z: np.ndarray, y: np.ndarray):
    """Per-row log likelihood, its first and its second z-derivative."""
    one = y == 1
    if link == "logit":
        p = expit(z)
        ll = np.where(one, log_expit(z), log_expit(-z))
        return ll, np.where(one, 1.0 - p, -p), -p * (1.0 - p)
    if link == "probit":
        log_phi = -0.5 * z * z - _LOG_SQRT_2PI
        r1 = np.exp(log_phi - log_ndtr(z))
        r0 = np.exp(log_phi - log_ndtr(-z))
        ll = np.where(one, log_ndtr(z), log_ndtr(-z))
        return ll, np.where(one, r1, -r0), np.where(one, -r1 * (z + r1), -r0 * (r0 - z))
    if link == "cloglog":
        with np.errstate(over="ignore"):
            t = np.exp(z)
            h = t / np.expm1(t)          # d/dz log G
            d2 = h * (1.0 - h * np.exp(t))
        ll = np.where(one, np.log(-np.expm1(-t)), -t)
        return ll, np.where(one, h, -t), np.where(one, d2, -t)
    raise ValueError(f"no reference for link {link!r}")


def mle(x: np.ndarray, y: np.ndarray, link: str, max_iter: int = 200):
    """Return (alpha, beta) maximizing the likelihood of intercept-plus-slope
    binary regression. Raises RuntimeError if Newton does not settle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    center = x.mean(axis=0)
    spread = x.std(axis=0)
    spread[spread == 0.0] = 1.0
    xt = np.column_stack([np.ones(len(y)), (x - center) / spread])
    theta = np.zeros(xt.shape[1])
    ll, g, h = _terms(link, xt @ theta, y)
    f = ll.sum()
    for _ in range(max_iter):
        grad = xt.T @ g
        hess = xt.T @ (h[:, None] * xt)
        step = np.linalg.solve(hess, -grad)
        if np.max(np.abs(step)) <= 1e-12 * (1.0 + np.max(np.abs(theta))):
            break
        scale = 1.0
        while True:
            cand = theta + scale * step
            ll_c, g_c, h_c = _terms(link, xt @ cand, y)
            f_c = ll_c.sum()
            if f_c >= f - 1e-12 * abs(f) or scale < 1e-10:
                break
            scale *= 0.5
        theta, f, g, h = cand, f_c, g_c, h_c
    else:
        raise RuntimeError(f"reference Newton did not settle for {link}")
    beta = theta[1:] / spread
    return float(theta[0] - center @ beta), beta
