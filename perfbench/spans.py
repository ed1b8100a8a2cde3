"""In-memory span recorder for the traced run.

The traced run wraps binreg's public functions at the module names they are
called through (``binreg.cli.fit``, ``binreg.mle.cone_overlap``, ...), the
methods of the shared ``LINKS`` instances and the ``CounterRng`` methods.
Each call becomes a span: name, start, end, parent span and request id,
plus one work count whose meaning depends on the span (rows read, pivots,
link elements, ...). Spans are kept in flat arrays and written out once at
the end; per-layer metrics are computed from them.

Once binreg records its own structured fit trace (ROADMAP item 3's
``FitTrace``), the benchmark should read phase times from it instead of
timing them here, so that there is never a second stopwatch.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import binreg.cli
import binreg.core
import binreg.mle
import binreg.overlap
import binreg.verify
from binreg.links import LINKS
from binreg.rng import CounterRng
from binreg.simplex import LPNumericalFailure

LINK_METHODS = ("log_cdf", "log_sf", "log_pdf", "pdf_log_slope")
RNG_METHODS = ("u64", "uniform", "normal", "randint", "bernoulli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.work = array("q")
        self.errors = Counter()  # (span name, exception type) -> count
        self.fit_status = Counter()
        self.tableau_bytes_max = 0
        self.request_id = -1
        self._stack: list = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording a span per call; ``work(args, result)``
        gives the span's work count."""
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                self.errors[name, type(exc).__name__] += 1
                raise
            self.close(idx)
            if work:
                self.work[idx] = work(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.uint16),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, np.int64),
                "request": np.frombuffer(self.request, np.int64),
                "work": np.frombuffer(self.work, np.int64)}


def _fit_work(tracer):
    def work(args, result):
        tracer.fit_status[result.status] += 1
        return result.iterations
    return work


def _lp_work(tracer):
    def work(args, result):
        m, n = np.shape(args[1])
        tracer.tableau_bytes_max = max(tracer.tableau_bytes_max, 8 * m * (n + m + 1))
        return result.iterations
    return work


def _link_work(args, result):
    return int(np.size(args[0]))


def _rows_read(args, result):
    return result.n


_ABSENT = object()


def install(tracer: Tracer) -> list:
    """Wrap every traced entry point; returns the undo list for ``uninstall``."""
    undo = []

    def patch(owner, attr, name, work=None):
        before = owner.__dict__.get(attr, _ABSENT)
        original = before if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, before))
        setattr(owner, attr, tracer.wrap(name, original, work))

    patch(binreg.cli, "read_csv", "core.read_csv", _rows_read)
    patch(binreg.cli, "extended_design", "core.extended_design")
    patch(binreg.verify, "extended_design", "core.extended_design")
    patch(binreg.core, "dataset_from_arrays", "core.dataset_from_arrays")
    patch(binreg.verify, "dataset_from_arrays", "core.dataset_from_arrays")
    patch(binreg.verify, "group_stats", "core.group_stats")
    patch(binreg.overlap, "solve_lp", "simplex.solve_lp", _lp_work(tracer))
    for module in (binreg.cli, binreg.mle, binreg.verify):
        patch(module, "cone_overlap", "overlap.cone_overlap")
    patch(binreg.mle, "separating_direction", "overlap.separating_direction")
    for module in (binreg.cli, binreg.verify):
        patch(module, "fit", "mle.fit", _fit_work(tracer))
    patch(binreg.verify, "gen_overlapping", "verify.gen")
    for check in ("check_sign", "check_angle", "check_zero_iff"):
        patch(binreg.verify, check, "verify.check")
    for link in LINKS.values():
        for method in LINK_METHODS:
            patch(link, method, f"links.{method}", _link_work)
    for method in RNG_METHODS:
        patch(CounterRng, method, f"rng.{method}")
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, before in reversed(undo):
        if before is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, before)


def _tail(values: np.ndarray) -> float:
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are fewer than twenty samples."""
    if values.size < 20:
        return float(values.max()) if values.size else 0.0
    return float(np.quantile(values, 1.0 - 10.0 / values.size))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values, name -> (value, unit), from the recorded spans.
    Self time is a span's duration minus that of its traced children."""
    a = tracer.arrays()
    names = tracer.names
    nid, parent, work = a["name_id"], a["parent"], a["work"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
    # name id of each span's parent, len(names) for top-level spans
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)] if dur.size else 0, len(names))

    def ids(pred):
        return np.array([pred(name) for name in names] + [False], dtype=bool)

    def exact(name):
        return ids(lambda n: n == name)[nid]

    def calls(mask):
        return int(np.count_nonzero(mask))

    def self_s(mask):
        return float(self_time[mask].sum())

    is_link, is_rng = ids(lambda n: n.startswith("links.")), ids(lambda n: n.startswith("rng."))
    links, rng = is_link[nid], is_rng[nid]
    outer_links = links & ~is_link[parent_nid]
    outer_rng = rng & ~is_rng[parent_nid]
    lp = exact("simplex.solve_lp")
    cone = exact("overlap.cone_overlap")
    fit = exact("mle.fit")
    gen = exact("verify.gen")
    fit_ms = dur[fit] * 1e3
    fit_calls = calls(fit)
    cone_in_gen = calls(cone & ids(lambda n: n == "verify.gen")[parent_nid])
    lp_failures = sum(v for (name, exc), v in tracer.errors.items()
                      if exc == LPNumericalFailure.__name__ and name.startswith("overlap."))
    status = tracer.fit_status
    return {
        "core.read_csv.self_s": (self_s(exact("core.read_csv")), "s"),
        "core.rows_read": (int(work[exact("core.read_csv")].sum()), "count"),
        "core.dataset_from_arrays.calls": (calls(exact("core.dataset_from_arrays")), "count"),
        "core.dataset_from_arrays.self_s": (self_s(exact("core.dataset_from_arrays")), "s"),
        "core.extended_design.self_s": (self_s(exact("core.extended_design")), "s"),
        "core.group_stats.self_s": (self_s(exact("core.group_stats")), "s"),
        "links.calls": (calls(outer_links), "count"),
        "links.elements": (int(work[outer_links].sum()), "count"),
        "links.self_s": (self_s(links), "s"),
        "simplex.solve_lp.calls": (calls(lp), "count"),
        "simplex.solve_lp.self_s": (self_s(lp), "s"),
        "simplex.pivots": (int(work[lp].sum()), "count"),
        "simplex.tableau_mb_max": (tracer.tableau_bytes_max / 1e6, "MB"),
        "overlap.cone_overlap.calls": (calls(cone), "count"),
        "overlap.cone_overlap.self_s": (self_s(cone), "s"),
        "overlap.separating_direction.calls":
            (calls(exact("overlap.separating_direction")), "count"),
        "overlap.separating_direction.self_s":
            (self_s(exact("overlap.separating_direction")), "s"),
        "overlap.lp_failures": (lp_failures, "count"),
        "mle.fit.calls": (fit_calls, "count"),
        "mle.fit.self_s": (self_s(fit), "s"),
        "mle.fit.p50_ms": (float(np.median(fit_ms)) if fit_calls else 0.0, "ms"),
        "mle.fit.tail_ms": (_tail(fit_ms), "ms"),
        "mle.iterations": (int(work[fit].sum()), "count"),
        "mle.status.Converged": (status["Converged"], "count"),
        "mle.status.Diverged": (status["Diverged"], "count"),
        "mle.status.MaxIterations": (status["MaxIterations"], "count"),
        "mle.status.NotUnique": (status["NotUnique"], "count"),
        "mle.maxiter_frac": (status["MaxIterations"] / fit_calls if fit_calls else 0.0, "ratio"),
        "verify.gen.calls": (calls(gen), "count"),
        "verify.gen.self_s": (self_s(gen), "s"),
        "verify.gen.accept_ratio": (calls(gen) / cone_in_gen if cone_in_gen else 0.0, "ratio"),
        "verify.check.self_s": (self_s(exact("verify.check")), "s"),
        "rng.calls": (calls(outer_rng), "count"),
        "rng.self_s": (self_s(rng), "s"),
        "cli.main.self_s": (self_s(exact("cli.main")), "s"),
    }
