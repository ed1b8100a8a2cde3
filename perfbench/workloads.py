"""Benchmark workloads: seeded inputs, the CLI calls made on them, and the
checks of each call's output.

numpy's generator makes every input, so binreg only ever receives data.
Each workload yields cycles of operations; one operation is one
``binreg.cli.main`` call. The timed loop runs cycles until its budget is
spent, and the traced run takes a fixed number of cycles so that its
counts repeat exactly for a given seed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np
from scipy.special import expit, ndtr

import reference

FIT_LINKS = ("logit", "probit", "cloglog")
# Coefficients of the model the overlapping rows are drawn from.
ALPHA = 0.2
BETA = np.array([0.8, -0.5, 0.3, -0.2, 0.1])

# Sizes of the measured runs and of the smoke run. The zero-coefficient
# suite picks its dimension from (1, 2, 3) by trial index, so a batch of
# three trials covers every dimension.
FULL = {"verify_trials": 3, "large_n": 20_000, "sep_n": 100}
SMOKE = {"verify_trials": 1, "large_n": 2_000, "sep_n": 30}
LARGE_D = 5
SEP_D = 3

# Reference and binreg maximize the same concave likelihood to score
# tolerances near 1e-10, so their estimates agree far inside this.
THETA_RTOL = 1e-6
# Under separation the fit stops at a finite point on its way to infinity;
# the sign test allows float error relative to the largest |z|.
SEPARATION_RTOL = 1e-6


@dataclass
class Data:
    path: str
    x: np.ndarray
    y: np.ndarray
    link: str
    separated: bool


@dataclass
class Op:
    """One CLI call. ``datasets`` is how many datasets it answers."""

    kind: str  # "verify" | "overlap" | "fit"
    argv: List[str]
    datasets: int
    data: Optional[Data] = None
    trials: int = 0


def _cdf(link: str, z: np.ndarray) -> np.ndarray:
    if link == "logit":
        return expit(z)
    if link == "probit":
        return ndtr(z)
    return -np.expm1(-np.exp(z))


def _write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    d = x.shape[1]
    header = ",".join([f"x{j}" for j in range(d)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
               comments="", fmt=["%.17g"] * d + ["%d"])


def overlapping(rng: np.random.Generator, n: int, d: int, link: str):
    """Rows drawn from the link's own model, plus d+1 affinely independent
    anchor points present with both labels: no nonzero direction weakly
    separates the groups, so a finite unique maximizer always exists.

    The model coefficients are fixed and only rows and labels vary with the
    seed: the cone LP's pivot count, which sets most of the cost at large
    n, varies less from one seed to the next that way."""
    anchors = np.vstack([np.zeros(d), np.eye(d)])
    m = n - 2 * anchors.shape[0]
    x = rng.normal(size=(m, d))
    y = (rng.random(m) < _cdf(link, ALPHA + x @ BETA[:d])).astype(np.int64)
    x = np.vstack([x, anchors, anchors])
    y = np.concatenate([y, np.zeros(len(anchors), np.int64), np.ones(len(anchors), np.int64)])
    order = rng.permutation(n)
    return x[order], y[order]


def separated(rng: np.random.Generator, n: int, d: int):
    """Two equal-sized groups split by a random hyperplane and pushed apart
    along its normal, so the separation is strict."""
    n1 = n // 2
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    s = x @ w
    y = np.zeros(n, np.int64)
    y[np.argsort(s, kind="stable")[-n1:]] = 1
    push = max(0.0, s[y == 0].max() - s[y == 1].min()) + 0.2
    x = x + np.outer(y, push * w)
    order = rng.permutation(n)
    return x[order], y[order]


class Workload:
    """Inputs for one run. ``cycles()`` yields lists of operations."""

    trace_cycles = 1

    def __init__(self, seed: int, workdir: str, sizes: Dict[str, int]):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.sizes = sizes
        self._files = itertools.count()

    def _data(self, x, y, link, separated_=False) -> Data:
        path = os.path.join(self.workdir, f"in{next(self._files)}.csv")
        _write_csv(path, x, y)
        return Data(path=path, x=x, y=y, link=link, separated=separated_)

    def _pair(self, data: Data, force: bool = False) -> List[Op]:
        fit_argv = ["fit", "--csv", data.path]
        fit_argv += ["--force"] if force else ["--link", data.link]
        return [Op("overlap", ["overlap", "--csv", data.path], 0, data),
                Op("fit", fit_argv, 1, data)]

    def warmup(self) -> List[Op]:
        """A tiny overlap and fit, run untimed so lazy set-up is done."""
        x, y = overlapping(np.random.default_rng(0), 12, 2, "logit")
        return self._pair(self._data(x, y, "logit"))

    def cycles(self) -> Iterator[List[Op]]:
        raise NotImplementedError


class VerifySuite(Workload):
    """Small ``binreg verify --theorem all`` batches with fresh seeds, each
    followed by a CLI overlap and fit on one suite-sized CSV (n 12-40,
    d 2-3), the link rotating over logit, probit and cloglog."""

    trace_cycles = 15

    def cycles(self):
        trials = self.sizes["verify_trials"]
        for k in itertools.count():
            seed = int(self.rng.integers(0, 2**31))
            ops = [Op("verify", ["verify", "--theorem", "all", "--dims", "2,3",
                                 "--trials", str(trials), "--seed", str(seed)],
                      15 * trials, trials=trials)]
            d = int(self.rng.integers(2, 4))
            n = int(self.rng.integers(12, 41))
            link = FIT_LINKS[k % len(FIT_LINKS)]
            yield ops + self._pair(self._data(*overlapping(self.rng, n, d, link), link))


class FitLarge(Workload):
    """Overlap then fit on fresh n=2e4, d=5 overlapping CSVs, one per link
    in each cycle. The cone LP's pivot count varies by 15-20% from set to
    set, so no set is reused, and n is small enough for about twenty sets
    per run to steady the median; at n=1e5 five sets fit into a run and the
    median moved by 20% between seeds."""

    def cycles(self):
        n = self.sizes["large_n"]
        while True:
            ops = []
            for link in FIT_LINKS:
                ops += self._pair(self._data(*overlapping(self.rng, n, LARGE_D, link), link))
            yield ops


class FitSeparated(Workload):
    """Overlap then ``fit --force`` with the default link on fresh
    equal-sized, strictly separated CSVs of n=100, d=3. The cost of the
    separating-direction LP varies from set to set, so every cycle draws a
    new set and the median runs over many of them; at n=150 too few sets
    fit into a run to steady it."""

    trace_cycles = 3

    def cycles(self):
        n = self.sizes["sep_n"]
        while True:
            x, y = separated(self.rng, n, SEP_D)
            yield self._pair(self._data(x, y, "logit", separated_=True), force=True)


WORKLOADS = {"verify_suite": VerifySuite, "fit_large": FitLarge,
             "fit_separated": FitSeparated}


# ---------------------------------------------------------------------------
# output checks; each returns (error or None, datasets that reached a check)

def _check_verify(op: Op, rc, payload) -> tuple:
    if rc != 0:
        return f"verify exited {rc}", 0
    results = payload.get("results", [])
    if payload.get("total_failures") != 0:
        return f"verify reported {payload.get('total_failures')} failures", 0
    if len(results) != 15 or any(r["trials"] != op.trials for r in results):
        return "verify did not run the requested suites and trial counts", 0
    return None, sum(r["trials"] - r["skipped"] for r in results)


def _check_overlap(op: Op, rc, payload) -> tuple:
    want = "Separated" if op.data.separated else "Overlap"
    if rc != (2 if op.data.separated else 0) or payload.get("verdict") != want:
        return f"overlap gave rc={rc} verdict={payload.get('verdict')}, want {want}", 0
    return None, 0


def _check_fit(op: Op, rc, payload) -> tuple:
    data = op.data
    if rc != 0:
        return f"fit exited {rc}", 0
    theta = np.array([payload["alpha"]] + payload["beta"], dtype=float)
    if data.separated:
        if payload["overlap"]["verdict"] != "Separated" or payload["status"] != "Diverged":
            return (f"separated fit gave verdict={payload['overlap']['verdict']} "
                    f"status={payload['status']}"), 0
        z = theta[0] + data.x @ theta[1:]
        worst = float(np.min(np.where(data.y == 1, z, -z)))
        if worst < -SEPARATION_RTOL * float(np.max(np.abs(z))):
            return f"fitted predictor does not separate the labels (worst {worst:.3g})", 0
        return None, 1
    if payload["status"] != "Converged":
        return f"fit status {payload['status']}, want Converged", 0
    alpha, beta = reference.mle(data.x, data.y, data.link)
    ref = np.concatenate([[alpha], beta])
    err = float(np.max(np.abs(theta - ref)))
    if err > THETA_RTOL * (1.0 + float(np.max(np.abs(ref)))):
        return f"fit differs from the reference maximizer by {err:.3g}", 0
    return None, 1


CHECKS: Dict[str, Callable] = {"verify": _check_verify, "overlap": _check_overlap,
                               "fit": _check_fit}
