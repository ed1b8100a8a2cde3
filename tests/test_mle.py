import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binreg.mle as mle
from binreg import (CONVERGED, DIVERGED, NOT_UNIQUE, ConfigError, DesignMatrix, FitOptions,
                    Parameters, build_dataset, cone_overlap, dataset_from_arrays,
                    extended_design, fit, gen_overlapping, gen_separated, get_link, grid_mle,
                    group_stats, hessian, log_likelihood, read_csv, scalar_overlap,
                    score)
from binreg.verify import OracleBoundsError

DATA = Path(__file__).parent / "data"

ALL_NAMES = ["logit", "probit", "cloglog", "cauchit", "uniform"]
CERTIFIED_NAMES = ["logit", "probit", "cloglog", "uniform"]
SMOOTH_NAMES = ["logit", "probit", "cloglog", "cauchit"]

LOGIT = get_link("logit")


def make_ds(x, y):
    return dataset_from_arrays(np.asarray(x, dtype=float), np.asarray(y))


def params(alpha, beta):
    return Parameters(alpha=float(alpha), beta=np.atleast_1d(np.asarray(beta, dtype=float)))


def random_interior_point(link_name, rng, d):
    """Parameter draw keeping every linear predictor differentiable."""
    if link_name == "uniform":
        return params(rng.uniform(0.35, 0.65), rng.uniform(-0.06, 0.06, size=d))
    return params(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0, size=d))


def fd_gradient(fun, theta, h_scale=1.0):
    h = (np.finfo(float).eps ** (1 / 3)) * np.maximum(1.0, np.abs(theta)) * h_scale
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[k] += h[k]
        dn[k] -= h[k]
        grad[k] = (fun(up) - fun(dn)) / (2 * h[k])
    return grad


class TestLogLikelihood:
    def test_origin_gives_n_log_half(self):
        ds = make_ds([5, -1, 2, 7], [0, 1, 1, 0])
        assert log_likelihood(ds, LOGIT, params(0, 0)) == pytest.approx(-4 * math.log(2), rel=1e-15)

    def test_balanced_origin_is_the_maximum(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        at_origin = log_likelihood(ds, LOGIT, params(0, 0))
        assert at_origin == pytest.approx(-4 * math.log(2), rel=1e-15)
        for da, db in [(0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1), (0.05, -0.05)]:
            assert log_likelihood(ds, LOGIT, params(da, db)) < at_origin
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        assert abs(fr.params.alpha) <= 1e-9
        assert abs(fr.params.beta[0]) <= 1e-9

    def test_probit_against_per_term_summation(self):
        # independent route: per-term log(Phi) via erfc in plain math
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        alpha, beta = -2.0, 1.0

        def log_phi(v):
            return math.log(0.5 * math.erfc(-v / math.sqrt(2.0)))

        expected = math.fsum(
            log_phi(alpha + beta * x) if y == 1 else log_phi(-(alpha + beta * x))
            for x, y in zip([1, 3, 2, 4], [0, 0, 1, 1])
        )
        got = log_likelihood(ds, get_link("probit"), params(alpha, beta))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bounded_support_can_be_minus_inf(self):
        ds = make_ds([0, 1], [1, 0])
        assert log_likelihood(ds, get_link("uniform"), params(-1.0, 0.0)) == -math.inf


class TestScore:
    def test_zero_at_balanced_optimum(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        assert np.max(np.abs(score(ds, LOGIT, params(0, 0)))) == 0.0

    def test_logit_intercept_component_is_count_residual(self):
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=9), [0, 1, 1, 0, 1, 0, 0, 1, 1])
        p = params(0.3, -0.7)
        z = p.alpha + ds.x[:, 0] * p.beta[0]
        fitted = np.asarray(LOGIT.cdf(z))
        assert score(ds, LOGIT, p)[0] == pytest.approx(ds.n1 - fitted.sum(), abs=1e-12)

    @pytest.mark.parametrize("name", SMOOTH_NAMES)
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_matches_finite_differences(self, name, seed):
        link = get_link(name)
        rng = np.random.default_rng(seed)
        n, d = 8, 2
        x = rng.uniform(-2, 2, size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = dataset_from_arrays(x, y)
        p = random_interior_point(name, rng, d)
        theta = np.concatenate([[p.alpha], p.beta])

        def fun(t):
            return log_likelihood(ds, link, params(t[0], t[1:]))

        analytic = score(ds, link, p)
        approx = fd_gradient(fun, theta)
        assert np.max(np.abs(analytic - approx)) <= 1e-6 * (1.0 + np.max(np.abs(analytic)))


class TestHessian:
    def test_logit_quarter_outer_product(self):
        ds = make_ds([0, 1], [0, 1])
        xt = np.array([[1.0, 0.0], [1.0, 1.0]])
        expected = -(xt.T @ xt) / 4.0
        assert np.allclose(hessian(ds, LOGIT, params(0, 0)), expected, atol=1e-14)

    @pytest.mark.parametrize("name", SMOOTH_NAMES)
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_matches_finite_differences_of_score(self, name, seed):
        link = get_link(name)
        rng = np.random.default_rng(seed)
        n, d = 7, 1
        x = rng.uniform(-2, 2, size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = dataset_from_arrays(x, y)
        p = random_interior_point(name, rng, d)
        theta = np.concatenate([[p.alpha], p.beta])
        H = hessian(ds, link, p)
        assert np.allclose(H, H.T, atol=1e-12)
        for k in range(theta.size):
            def fun(t, k=k):
                return score(ds, link, params(t[0], t[1:]))[k]
            approx = fd_gradient(fun, theta)
            assert np.max(np.abs(H[k] - approx)) <= 1e-5 * (1.0 + np.max(np.abs(H[k])))

    @pytest.mark.parametrize("name", ["logit", "probit", "cloglog"])
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_negative_semidefinite_for_log_concave_links(self, name, seed):
        link = get_link(name)
        rng = np.random.default_rng(seed)
        n = 10
        x = rng.uniform(-2, 2, size=(n, 2))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = dataset_from_arrays(x, y)
        p = random_interior_point(name, rng, 2)
        evals = np.linalg.eigvalsh(hessian(ds, link, p))
        assert np.all(evals <= 1e-10)


class TestFit:
    def test_balanced_means_force_zero_slope(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        assert fr.params.alpha == pytest.approx(0.0, abs=1e-10)
        assert abs(fr.params.beta[0]) <= 1e-10
        assert fr.loglik == pytest.approx(-4 * math.log(2), rel=1e-12)

    def test_overlapping_fit_matches_grid_oracle(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        assert fr.params.beta[0] > 0
        oracle = grid_mle(ds, LOGIT, levels=8)
        assert fr.params.beta[0] == pytest.approx(oracle.beta[0], abs=1e-4)
        assert fr.params.alpha == pytest.approx(oracle.alpha, abs=1e-4)

    def test_complete_separation_diverges(self):
        fr = fit(make_ds([1, 2, 3, 4], [0, 0, 1, 1]), LOGIT)
        assert fr.status == DIVERGED
        assert fr.params.beta[0] > 1e3
        assert fr.loglik <= 0.0

    def test_quasi_separation_diverges(self):
        fr = fit(make_ds([1, 2, 3, 3, 4, 5], [0, 0, 0, 1, 1, 1]), LOGIT)
        assert fr.status == DIVERGED
        assert fr.params.beta[0] > 1e3

    def test_diverged_likelihood_approaches_supremum(self):
        # tied point at 2 contributes log p + log(1-p) maximized at 2/3
        # (two successes, one failure); the far success contributes 0
        fr = fit(make_ds([2, 2, 2, 5], [0, 1, 1, 1]), LOGIT)
        assert fr.status == DIVERGED
        assert fr.loglik == pytest.approx(2 * math.log(2 / 3) + math.log(1 / 3), abs=1e-6)

    def test_monotone_ascent_history(self):
        ds = make_ds([1, 3, 2, 4, 0, 5, 2.5, 3.5], [0, 0, 1, 1, 0, 1, 1, 0])
        fr = fit(ds, LOGIT)
        hist = np.asarray(fr.history)
        floor = hist[:-1] - 1e-9 * (1.0 + np.abs(hist[:-1]))
        assert np.all(hist[1:] >= floor)

    def test_converged_hessian_negative_definite(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        fr = fit(ds, LOGIT)
        evals = np.linalg.eigvalsh(hessian(ds, LOGIT, fr.params))
        assert np.all(evals < 0)
        assert fr.hessian_condition >= 1.0

    def test_mean_fitted_probability_identity(self):
        ds = make_ds([1, 3, 2, 4, 0.5, 2.2], [0, 0, 1, 1, 0, 1])
        fr = fit(ds, LOGIT)
        fitted = np.asarray(LOGIT.cdf(fr.params.alpha + ds.x[:, 0] * fr.params.beta[0]))
        assert fitted.mean() == pytest.approx(ds.n1 / ds.n, abs=1e-10)

    def test_rearrangement_identity(self):
        # n1*(xbar1 - xbar) equals the fitted-probability weighted sum of
        # centered predictors at the optimum
        ds = make_ds([1, 3, 2, 4, 0.5, 2.2], [0, 0, 1, 1, 0, 1])
        fr = fit(ds, LOGIT)
        x = ds.x[:, 0]
        fitted = np.asarray(LOGIT.cdf(fr.params.alpha + x * fr.params.beta[0]))
        lhs = ds.n1 * (group_stats(ds).xbar1[0] - x.mean())
        rhs = float(fitted @ (x - x.mean()))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_affine_equivariance(self, seed):
        """Rescaling x -> a*x + b divides the slope by a and leaves the
        maximal log likelihood unchanged."""
        rng = np.random.default_rng(seed)
        n = 12
        x = rng.normal(size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = make_ds(x, y)
        fr = fit(ds, LOGIT)
        if fr.status != CONVERGED:
            return
        a, b = 3.5, -2.0
        fr2 = fit(make_ds(a * x + b, y), LOGIT)
        assert fr2.status == CONVERGED
        assert fr2.params.beta[0] == pytest.approx(fr.params.beta[0] / a, abs=1e-8)
        assert fr2.loglik == pytest.approx(fr.loglik, abs=1e-8)

    @pytest.mark.parametrize("name", CERTIFIED_NAMES)
    def test_certified_links_converge_on_overlap(self, name):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        fr = fit(ds, get_link(name))
        assert fr.status == CONVERGED
        assert fr.score_norm <= 1e-10
        assert fr.params.beta[0] > 0

    def test_uniform_link_balanced_closed_form(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        fr = fit(ds, get_link("uniform"))
        assert fr.status == CONVERGED
        assert fr.params.alpha == pytest.approx(0.5, abs=1e-10)
        assert abs(fr.params.beta[0]) <= 1e-10

    def test_cauchit_multistart_flagged(self):
        fr = fit(make_ds([1, 3, 2, 4], [0, 0, 1, 1]), get_link("cauchit"))
        assert fr.status == CONVERGED
        assert fr.caveat is not None

    def test_rank_deficient_reports_not_unique(self):
        ds = build_dataset([((1, 2), 0), ((2, 4), 1), ((3, 6), 0), ((4, 8), 1)])
        assert fit(ds, LOGIT).status == NOT_UNIQUE

    def test_sub_tolerance_overlap_falls_back_to_newton(self, monkeypatch):
        # when the cone margin is below tolerance but no weakly separating
        # direction exists, the fit degrades to plain Newton with a caveat
        import binreg.mle as mle_mod
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])

        class FakeReport:
            verdict = "Separated"
            direction = None

        monkeypatch.setattr(mle_mod, "cone_overlap", lambda *a, **k: FakeReport())
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        assert "fragile" in fr.caveat

    @pytest.mark.parametrize("name", ["logit", "cauchit"])
    def test_cone_program_failure_propagates(self, name, monkeypatch):
        # at d > 1 a failed cone program leaves existence uncertified, so
        # fit reports no status: the solver's error reaches the caller
        import binreg.mle as mle_mod
        from binreg import LPNumericalFailure
        ds = make_ds([[0, 0], [1, 0], [0, 1]] * 2, [0, 0, 0, 1, 1, 1])

        def fail(*a, **k):
            raise LPNumericalFailure("simplex exceeded 9 pivots")

        monkeypatch.setattr(mle_mod, "cone_overlap", fail)
        with pytest.raises(LPNumericalFailure, match="simplex exceeded 9 pivots"):
            fit(ds, get_link(name))

    def test_cone_program_failure_at_d1_uses_the_scalar_verdict(self, monkeypatch):
        import binreg.overlap
        from binreg import LPNumericalFailure

        def fail(*a, **k):
            raise LPNumericalFailure("simplex exceeded 9 pivots")

        monkeypatch.setattr(binreg.overlap, "solve_lp", fail)
        fr = fit(make_ds([1, 2, 3, 4], [0, 0, 1, 1]), LOGIT)
        assert fr.status == DIVERGED
        assert fr.caveat is None

    def test_given_overlap_report_is_not_recomputed(self, monkeypatch):
        import binreg.mle as mle_mod
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        base = fit(ds, LOGIT)
        report = cone_overlap(extended_design(ds), ds.y)

        def solve_again(*a, **k):
            raise AssertionError("cone program solved a second time")

        monkeypatch.setattr(mle_mod, "cone_overlap", solve_again)
        fr = fit(ds, LOGIT, overlap=report)
        assert fr.status == base.status == CONVERGED
        assert (fr.params.alpha, list(fr.params.beta)) == (base.params.alpha, list(base.params.beta))

    @pytest.mark.parametrize("name", ["quasi_separated_tie", "quasi_separated_tie_pivots"])
    def test_tied_quasi_separated_set_diverges(self, name):
        # n=100, d=3: groups split by a plane and pushed 0.2 apart, plus one
        # mid-plane point in both groups. The score vanishes as the slope
        # grows, so only a separating direction tells this from an optimum.
        ds = read_csv(DATA / f"{name}.csv")
        fr = fit(ds, LOGIT)
        assert fr.status == DIVERGED
        assert fr.caveat is None
        z = fr.params.alpha + ds.x @ fr.params.beta
        tol = 1e-8 * np.max(np.abs(z))
        assert z[ds.y == 1].min() >= -tol
        assert z[ds.y == 0].max() <= tol

    @pytest.mark.parametrize("name", ["quasi_separated_tie", "quasi_separated_tie_pivots"])
    def test_direction_of_given_report_is_reused(self, name, monkeypatch):
        # the report's direction is in raw coordinates; fit maps it into
        # its standardized ones instead of solving the cone program again
        import binreg.overlap
        ds = read_csv(DATA / f"{name}.csv")
        report = cone_overlap(extended_design(ds), ds.y)
        assert report.direction is not None

        def solve_again(*a, **k):
            raise AssertionError("cone program solved a second time")

        monkeypatch.setattr(binreg.overlap, "solve_lp", solve_again)
        fr = fit(ds, LOGIT, overlap=report)
        assert fr.status == DIVERGED
        assert fr.caveat is None
        z = fr.params.alpha + ds.x @ fr.params.beta
        tol = 1e-8 * np.max(np.abs(z))
        assert z[ds.y == 1].min() >= -tol
        assert z[ds.y == 0].max() <= tol

    def test_scalar_report_carries_its_direction(self, monkeypatch):
        # the interval test's threshold is the separating direction; no
        # cone program is solved for it
        import binreg.overlap
        ds = make_ds([1, 2, 3, 4], [0, 0, 1, 1])
        report = scalar_overlap(ds)
        assert report.verdict == "Separated" and report.direction is not None

        def fail(*a, **k):
            raise AssertionError("cone program solved for a scalar report")

        monkeypatch.setattr(binreg.overlap, "solve_lp", fail)
        fr = fit(ds, LOGIT, overlap=report)
        assert fr.status == DIVERGED
        assert fr.params.beta[0] > 0.0

    def test_callers_degenerate_report_gives_not_unique(self):
        ds = make_ds([7, 7, 7, 7], [0, 1, 0, 1])
        report = scalar_overlap(ds)
        assert report.verdict == "DegenerateAllEqual"
        fr = fit(ds, LOGIT, overlap=report)
        assert fr.status == NOT_UNIQUE
        assert "rank-deficient" in fr.caveat

    def test_separated_fit_without_report_solves_one_program(self, monkeypatch):
        # fit's own cone report already carries the direction
        import binreg.overlap
        solve_lp = binreg.overlap.solve_lp
        calls = []

        def counted(*a, **k):
            calls.append(1)
            return solve_lp(*a, **k)

        monkeypatch.setattr(binreg.overlap, "solve_lp", counted)
        assert fit(gen_separated(40, 3, 0), LOGIT).status == DIVERGED
        assert len(calls) == 1

    def test_cloglog_separated_reports_diverged(self):
        # far along the separating direction the cloglog Hessian weights are
        # 0 * inf; the condition number is reported unknown, not a crash
        fr = fit(gen_separated(150, 3, 0), get_link("cloglog"))
        assert fr.status == DIVERGED
        assert fr.hessian_condition == math.inf

    def test_config_validation(self):
        ds = make_ds([1, 2], [0, 1])
        with pytest.raises(ConfigError):
            fit(ds, LOGIT, FitOptions(tol=0.0))
        with pytest.raises(ConfigError):
            fit(ds, LOGIT, FitOptions(max_iter=0))

    @pytest.mark.parametrize("bad", [{"tol": math.inf}, {"tol": math.nan}, {"tol": -1e-10}])
    def test_tolerances_must_be_finite_and_positive(self, bad):
        # an infinite tol reported Converged at the start and a NaN one ran
        # every iteration
        with pytest.raises(ConfigError, match="finite and positive"):
            fit(make_ds([1, 3, 2, 4], [0, 0, 1, 1]), LOGIT, FitOptions(**bad))

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # a float died inside range() and True ran one iteration
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            fit(make_ds([1, 3, 2, 4], [0, 0, 1, 1]), LOGIT, FitOptions(max_iter=max_iter))

    def test_numpy_integer_max_iter_is_accepted(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        fr = fit(ds, LOGIT, FitOptions(max_iter=np.int64(7)))
        assert fr.history == fit(ds, LOGIT, FitOptions(max_iter=7)).history

    @given(seed=st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_small_instances_match_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        x = rng.uniform(-2, 2, size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = make_ds(x, y)
        fr = fit(ds, LOGIT)
        if fr.status != CONVERGED:
            return
        oracle = grid_mle(ds, LOGIT)
        assert fr.params.alpha == pytest.approx(oracle.alpha, abs=1e-3)
        assert fr.params.beta[0] == pytest.approx(oracle.beta[0], abs=1e-3)
        assert fr.loglik == pytest.approx(log_likelihood(ds, LOGIT, oracle), abs=1e-6)


def loglik(xt, y, link, theta):
    return mle._evaluate(xt, y, link, theta).loglik


def sequential_armijo(xt, y, link, theta, f, direction, slope):
    """Reference backtracking: the steps 1, 1/2, ... tried one at a time,
    one ``_evaluate`` each. Returns (candidate, its log likelihood, halvings
    taken) or None."""
    step = 1.0
    noise = 1e-12 * (1.0 + abs(f))
    for k in range(mle._MAX_HALVINGS):
        cand = theta + step * direction
        f_cand = loglik(xt, y, link, cand)
        if np.isfinite(f_cand) and f_cand >= f + mle._ARMIJO * step * slope - noise:
            return cand, f_cand, k
        step *= 0.5
    return None


def newton_walk(xt, y, link, theta, iters):
    """Yield (theta, f, direction, slope) at successive Newton iterates,
    advanced by the sequential reference search."""
    f = loglik(xt, y, link, theta)
    for _ in range(iters):
        g, H = mle._evaluate(xt, y, link, theta).derivatives(xt, y, link)
        direction = mle._ascent_direction(H, g)
        slope = float(g @ direction)
        if not np.isfinite(slope) or slope <= 0:
            return
        yield theta, f, direction, slope
        found = sequential_armijo(xt, y, link, theta, f, direction, slope)
        if found is None:
            return
        theta, f = found[0], max(f, found[1])


def fresh_evaluation(xt, y, link, theta):
    """z, per-row terms and log likelihood at theta, computed from scratch."""
    z = xt @ theta
    terms = np.where(y == 1, link.log_cdf(z), link.log_sf(z))
    return z, terms, float(np.sum(terms))


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def record_shapes(monkeypatch, link):
    shapes = []
    log_cdf = link.log_cdf

    def recording(z):
        shapes.append(np.shape(z))
        return log_cdf(z)

    monkeypatch.setattr(link, "log_cdf", recording)
    return shapes


class TestBatchedLineSearch:
    """``_armijo_step`` evaluates the halvings in blocks; it must return
    what trying them one at a time returns, bit for bit."""

    @staticmethod
    def design(seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(6, 41)), int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, size=(n, d))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        return extended_design(make_ds(x, y)).xt, y, rng

    def compare(self, xt, y, link, theta, f, direction, slope):
        got = mle._armijo_step(xt, y, link, theta, f, direction, slope)
        want = sequential_armijo(xt, y, link, theta, f, direction, slope)
        if want is None:
            assert got is None
            return None
        assert got is not None
        assert bits(got.theta) == bits(want[0])
        assert bits(got.loglik) == bits(want[1])
        # the record carried to the next iterate is what a fresh evaluation
        # there gives, whether step 1 or a row of a block accepted it
        z, terms, loglik = fresh_evaluation(xt, y, link, got.theta)
        assert bits(got.z) == bits(z)
        assert bits(got.terms) == bits(terms)
        assert bits(got.loglik) == bits(loglik)
        return want[2]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_sequential_search(self, name):
        link = get_link(name)
        halvings = []
        for seed in range(40):
            xt, y, rng = self.design(seed)
            p = random_interior_point(name, rng, xt.shape[1] - 1)
            theta = np.concatenate([[p.alpha], p.beta])
            point = mle._evaluate(xt, y, link, theta)
            f = point.loglik
            # a random ascent direction, scaled so step 1 often overshoots
            g = point.derivatives(xt, y, link)[0]
            direction = (g + rng.normal(size=g.size)) * 10.0 ** rng.uniform(-1, 3)
            slope = float(g @ direction)
            if slope > 0:
                halvings.append(self.compare(xt, y, link, theta, f, direction, slope))
            for step in newton_walk(xt, y, link, theta, 15):
                halvings.append(self.compare(xt, y, link, *step))
        assert 0 in halvings
        assert any(k is not None and k >= 1 for k in halvings)

    def test_uniform_iterates_at_their_kink(self):
        # uniform fits end on the edge of the support, where step 1 leaves
        # it and the accepted step comes after tens of halvings
        link = get_link("uniform")
        halvings = []
        for seed in range(12):
            ds = gen_overlapping(int(np.random.default_rng(seed).integers(10, 41)),
                                 2 + seed % 2, seed)
            xt = extended_design(ds).xt
            theta = np.zeros(xt.shape[1])
            theta[0] = link.inverse(ds.n1 / ds.n)
            for step in newton_walk(xt, ds.y, link, theta, 100):
                halvings.append(self.compare(xt, ds.y, link, *step))
        assert max(k for k in halvings if k is not None) >= 20

    @pytest.mark.parametrize("max_halvings", [1, 3])
    def test_max_halvings_is_honoured(self, max_halvings, monkeypatch):
        link = get_link("uniform")
        monkeypatch.setattr(mle, "_MAX_HALVINGS", max_halvings)
        ds = gen_overlapping(30, 2, 4)
        xt = extended_design(ds).xt
        theta = np.array([0.5, 0.0, 0.0])
        point = mle._evaluate(xt, ds.y, link, theta)
        f, g = point.loglik, point.derivatives(xt, ds.y, link)[0]
        outcomes = []
        # steps of the gradient whose first passing halving is 0, 1, ..., 11
        for scale in 2.0 ** np.arange(-8, 7):
            outcomes.append(self.compare(xt, ds.y, link, theta, f, scale * g,
                                         scale * float(g @ g)))
        assert None in outcomes
        assert max(k for k in outcomes if k is not None) == max_halvings - 1

    def test_suite_sized_search_is_one_link_call_after_step_one(self, monkeypatch):
        link = get_link("uniform")
        ds = gen_overlapping(40, 3, 5)
        xt = extended_design(ds).xt
        theta = np.array([0.5, 0.0, 0.0, 0.0])
        point = mle._evaluate(xt, ds.y, link, theta)
        f, g = point.loglik, point.derivatives(xt, ds.y, link)[0]
        direction = 1e6 * g  # step 1 and most halvings leave the support
        shapes = record_shapes(monkeypatch, link)
        k = self.compare(xt, ds.y, link, theta, f, direction, float(g @ direction))
        assert k is not None and k >= 10
        batched = [s for s in shapes if len(s) == 2]
        assert batched[0] == (mle._MAX_HALVINGS - 1, 40)
        # step 1, one block, the k + 1 steps of the reference, then the
        # fresh evaluation that checks the returned record
        assert len(shapes) == 1 + 1 + (k + 1) + 1

    def test_large_n_never_exceeds_the_element_budget(self, monkeypatch):
        # at n above the budget every block holds one candidate, so a
        # backtracking fit on large data never evaluates n x 49 at once;
        # labels from a steep logistic put the uniform optimum on the edge
        # of the support, where step 1 keeps failing
        link = get_link("uniform")
        rng = np.random.default_rng(11)
        n = mle._LINE_SEARCH_ELEMENTS + 904
        x = rng.uniform(-2, 2, size=(n, 2))
        y = (rng.random(n) < LOGIT.cdf(3.0 * x[:, 0])).astype(int)
        ds = dataset_from_arrays(x, y)
        shapes = record_shapes(monkeypatch, link)
        fit(ds, link)
        batched = [s for s in shapes if len(s) == 2]
        assert batched, "no step-1 rejection was exercised"
        assert all(s == (1, n) for s in batched)
        assert all(math.prod(s) <= n for s in shapes)


def two_exp_weights(z, y, link):
    """The score weights as computed before they were derived from the
    log likelihood terms: u = g/G and v = g/(1 - G), one exp each."""
    with np.errstate(invalid="ignore", over="ignore"):
        log_pdf = link.log_pdf(z)
        u = np.exp(log_pdf - link.log_cdf(z))
        v = np.exp(log_pdf - link.log_sf(z))
        slope = link.pdf_log_slope(z)
        is1 = y == 1
        w = np.where(is1, u, -v)
        dw = np.where(is1, u * (slope - u), -v * (slope + v))
    return w, dw


class TestCarriedEvaluation:
    """Newton evaluates the link once per iterate: the score, the Hessian
    and the reported fit come from the record that accepted the step."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_one_exp_weights_match_the_two_exp_formula(self, name):
        link = get_link(name)
        rng = np.random.default_rng(5)
        # far tails, where one of u and v is 0 or inf, then the bulk
        tails = np.array([-45.0, -40.0, -39.5, -38.0, 38.0, 39.5, 40.0, 45.0])
        z = np.concatenate([np.repeat(tails, 2), rng.normal(scale=3.0, size=200),
                            rng.uniform(-0.5, 1.5, size=200)])
        y = np.tile([0, 1], z.size // 2)
        point = mle._evaluate(z[:, None], y, link, np.array([1.0]))
        got = mle._weights(point, y, link)
        want = two_exp_weights(z, y, link)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])

    @staticmethod
    def cases():
        x = np.random.default_rng(2).normal(size=(30, 1))
        yield "logit", gen_overlapping(40, 2, 1)
        yield "probit", gen_overlapping(33, 3, 2)
        yield "cloglog", gen_overlapping(25, 1, 3)
        yield "cauchit", gen_overlapping(36, 2, 4)     # multi-start
        yield "uniform", gen_overlapping(40, 3, 5)     # kink optimum
        yield "logit", gen_separated(30, 2, 6)         # march to divergence
        yield "uniform", gen_separated(24, 1, 7)
        yield "probit", make_ds(np.hstack([x, 2.0 * x]),  # rank-deficient
                                (x[:, 0] + np.arange(30) % 3 > 1).astype(int))

    def test_fit_reports_a_fresh_evaluation_at_its_iterate(self, monkeypatch):
        # fit's last to_raw call maps its final iterate to the raw parameters
        returned = []
        to_raw = DesignMatrix.to_raw

        def capture(dm, theta_std):
            returned.append(theta_std)
            return to_raw(dm, theta_std)

        monkeypatch.setattr(DesignMatrix, "to_raw", capture)
        statuses = set()
        for name, ds in self.cases():
            link = get_link(name)
            fr = fit(ds, link)
            statuses.add(fr.status)
            xt = extended_design(ds).xt
            z, terms, loglik = fresh_evaluation(xt, ds.y, link, returned[-1])
            w, dw = two_exp_weights(z, ds.y, link)
            g, H = xt.T @ w, xt.T @ (dw[:, None] * xt)
            assert bits(fr.loglik) == bits(loglik)
            assert bits(fr.score_norm) == bits(np.max(np.abs(g)))
            assert bits(fr.hessian_condition) == bits(mle._hessian_condition(H))
        assert statuses == {CONVERGED, DIVERGED, NOT_UNIQUE}

    def test_link_is_evaluated_once_per_iterate(self, monkeypatch):
        # on this large overlapping set step 1 is accepted in every Newton
        # iteration, so each iterate costs one log_cdf (its log likelihood,
        # one call at +-z for these symmetric links, log_sf never) and one
        # log_pdf (its score and Hessian), plus the starting point's
        for name in ("probit", "logit"):
            link = get_link(name)
            rng = np.random.default_rng(8)
            n = 20_000
            x = rng.normal(size=(n, 3))
            y = (rng.random(n) < link.cdf(0.3 + x @ np.array([0.8, -0.5, 0.2]))).astype(int)
            ds = dataset_from_arrays(x, y)
            calls = {"log_cdf": 0, "log_sf": 0, "log_pdf": 0}
            for method in calls:
                original = getattr(link, method)

                def counting(z, method=method, original=original):
                    calls[method] += 1
                    return original(z)

                monkeypatch.setattr(link, method, counting)
            fr = fit(ds, link)
            assert fr.status == CONVERGED and fr.iterations >= 4
            assert calls == {"log_cdf": fr.iterations + 1, "log_sf": 0,
                             "log_pdf": fr.iterations + 1}


UNIFORM = get_link("uniform")


def newton_alone(ds, link, opts=None):
    """The fit as plain Newton from fit's start on fit's standardized
    design: (last iterate, flag, history, design)."""
    opts = opts or FitOptions()
    dm = extended_design(ds)
    start = mle._evaluate(dm.xt, ds.y, link, fit_start(ds, link))
    history = []
    point, flag, _ = mle._newton(dm.xt, ds.y, link, start, history, opts.tol, opts.max_iter)
    return point, flag, history, dm


def uniform_stalls(seeds, max_n=40):
    """gen_overlapping sets on which plain Newton ends without converging
    for the uniform link, with Newton's last iterate."""
    for seed in seeds:
        ds = gen_overlapping(8 + seed % (max_n - 7), 1 + seed % 3 if max_n > 20 else 1 + seed % 2,
                             seed)
        point, flag, *_ = newton_alone(ds, UNIFORM)
        if flag != "converged":
            yield ds, point


def independent_certificate(ds, fr):
    """The supergradient test for the uniform link written out in numpy from
    the raw coefficients: (rows within 1e-7 of their edge, multipliers,
    residual on fit's standardized scale)."""
    z = fr.params.alpha + ds.x @ fr.params.beta
    one = ds.y == 1
    edge = np.where(one, 1.0, 0.0)
    held = np.abs(z - edge) <= 1e-7
    inside = ~held & (z > 0.0) & (z < 1.0)
    w = np.zeros(ds.n)
    w[inside & one] = 1.0 / z[inside & one]
    w[inside & ~one] = -1.0 / (1.0 - z[inside & ~one])
    xt = extended_design(ds).xt
    g = xt.T @ w
    push = xt[held].T * np.where(one, 1.0, -1.0)[held]
    lam = np.linalg.lstsq(push, -g, rcond=None)[0]
    return held, lam, float(np.max(np.abs(g + push @ lam)))


class TestKinkAscent:
    """Uniform fits whose maximizer sits on the edge of the support are
    certified by the active-set ascent; anything else ends as Newton alone."""

    def test_certified_stalls_beat_newton_and_the_grid_oracle(self):
        compared = 0
        for ds, stalled in uniform_stalls(range(100), max_n=20):
            fr = fit(ds, UNIFORM)
            assert fr.status == CONVERGED
            assert fr.loglik >= stalled.loglik
            try:
                oracle = grid_mle(ds, UNIFORM, bounds=(-2.0, 2.0))
            except OracleBoundsError:
                continue
            assert fr.loglik >= log_likelihood(ds, UNIFORM, oracle) - 1e-12 * abs(fr.loglik)
            compared += 1
        assert compared >= 20

    def test_every_certified_fit_passes_an_independent_check(self):
        stalls = list(uniform_stalls(range(120)))
        certified = 0
        for ds, _ in stalls:
            fr = fit(ds, UNIFORM)
            if fr.status != CONVERGED:
                continue
            certified += 1
            held, lam, residual = independent_certificate(ds, fr)
            assert math.isfinite(fr.loglik)
            assert fr.loglik == pytest.approx(log_likelihood(ds, UNIFORM, fr.params), rel=1e-12)
            assert fr.score_norm <= mle.CERTIFICATE_TOL
            assert residual <= mle.CERTIFICATE_TOL
            assert np.all((lam >= 0.0) & (lam <= 1.0))
            assert held.any() and f"{held.sum()} row" in fr.caveat
            # held rows are moved onto the edge, not left up to 1e-7 off it
            z = fr.params.alpha + ds.x @ fr.params.beta
            assert np.all(np.abs(z[held] - (ds.y[held] == 1)) <= 1e-12)
        assert len(stalls) >= 25 and certified == len(stalls)

    def test_a_singular_reduced_hessian_ends_as_newton_alone(self, monkeypatch):
        # n = 6 at d = 3: three of the six rows are flat at the takeover
        # point, so the remaining three cannot curve the four parameters
        ds = gen_overlapping(6, 3, 120)
        singular = []
        face_step = mle._face_step

        def recording(*args):
            step = face_step(*args)
            singular.append(step is None)
            return step

        monkeypatch.setattr(mle, "_face_step", recording)
        fr = fit(ds, UNIFORM)
        point, flag, history, dm = newton_alone(ds, UNIFORM)
        assert singular == [True] and flag == "maxiter"
        assert fr.status == "MaxIterations" and fr.caveat is None
        assert bits(fr.params.beta) == bits(dm.to_raw(point.theta)[1:])
        assert bits(fr.loglik) == bits(point.loglik)
        assert (fr.iterations, fr.history) == (len(history), tuple(history))

    def test_a_failed_factorization_ends_as_newton_alone(self, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(mle, "_face_step", fail)
        ds, stalled = next(uniform_stalls(range(60)))
        fr = fit(ds, UNIFORM)
        assert fr.status == "MaxIterations" and fr.iterations == FitOptions().max_iter
        assert bits(fr.loglik) == bits(stalled.loglik)

    @pytest.mark.parametrize("max_iter", [5, 100])
    def test_without_a_certificate_newton_resumes_where_it_stopped(self, monkeypatch, max_iter):
        monkeypatch.setattr(mle, "_kink_ascent", lambda *args: None)
        opts = FitOptions(max_iter=max_iter)
        for ds, _ in uniform_stalls(range(12)):
            fr = fit(ds, UNIFORM, opts)
            point, flag, history, dm = newton_alone(ds, UNIFORM, opts)
            assert fr.status == mle._STATUS[flag]
            assert bits(fr.params.alpha) == bits(dm.to_raw(point.theta)[0])
            assert bits(fr.score_norm) == bits(np.max(np.abs(point.derivatives(
                dm.xt, ds.y, UNIFORM)[0])))
            assert (fr.iterations, fr.history) == (len(history), tuple(history))

    def test_unbounded_links_and_other_paths_never_take_over(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("active set ran")

        monkeypatch.setattr(mle, "_kink_ascent", refuse)
        stalled = next(uniform_stalls(range(60)))[0]
        for name in SMOOTH_NAMES:
            fit(stalled, get_link(name))
        fit(gen_separated(24, 2, 7), UNIFORM)                        # Separated
        x = np.random.default_rng(2).normal(size=(30, 1))
        fit(make_ds(np.hstack([x, 2.0 * x]), (x[:, 0] > 0).astype(int)), UNIFORM)  # NotUnique

    def test_a_held_row_is_let_go_when_its_multiplier_leaves_the_interval(self):
        # two rows reach their edge, and the face they hold is stationary
        # with multipliers 4.2 and -3.2; each is let go in turn before the
        # maximizer, 0.016 above Newton's last iterate, is certified
        ds = gen_overlapping(15, 2, 129)
        point, flag, *_ = newton_alone(ds, UNIFORM)
        fr = fit(ds, UNIFORM)
        assert flag == "maxiter" and fr.status == CONVERGED
        assert fr.loglik > point.loglik + 0.01

    def test_steps_stop_at_the_first_edge_they_reach(self, monkeypatch):
        steps, ascending = [], []
        armijo_step, kink_ascent = mle._armijo_step, mle._kink_ascent

        def recording(xt, y, link, theta, f, direction, slope):
            accepted = armijo_step(xt, y, link, theta, f, direction, slope)
            if ascending:
                steps.append((xt @ theta, accepted.z))
            return accepted

        def ascent(*args):
            ascending.append(True)
            try:
                return kink_ascent(*args)
            finally:
                ascending.pop()

        monkeypatch.setattr(mle, "_armijo_step", recording)
        monkeypatch.setattr(mle, "_kink_ascent", ascent)
        for ds, _ in uniform_stalls(range(40)):
            del steps[:]
            assert fit(ds, UNIFORM).status == CONVERGED
            edge = np.where(ds.y == 1, 1.0, 0.0)
            out = np.where(ds.y == 1, 1.0, -1.0)
            assert steps
            for before, after in steps:
                before, after = out * (before - edge), out * (after - edge)
                assert not np.any((before < -mle.KINK_TOL) & (after > mle.KINK_TOL))

    def test_a_certificate_below_newtons_best_is_refused(self):
        ds, stalled = next(uniform_stalls(range(60)))
        xt = extended_design(ds).xt
        assert mle._kink_ascent(xt, ds.y, UNIFORM, stalled, stalled.loglik) is not None
        assert mle._kink_ascent(xt, ds.y, UNIFORM, stalled, 0.0) is None

    def test_certificate_rejects_a_point_off_the_maximizer(self):
        ds, stalled = next(uniform_stalls(range(60)))
        xt = extended_design(ds).xt
        cert = mle._kink_certificate(xt, ds.y, UNIFORM, stalled, mle._edges(UNIFORM, ds.y))
        assert not cert.certified
        # a held row's multiplier pushed outside [0, 1] fails the test too
        fr = fit(ds, UNIFORM)
        assert fr.status == CONVERGED
        assert not mle._KinkCertificate(cert.held, np.array([1.5]), 0.0).certified


def count_ascent_directions(monkeypatch):
    """Count Newton iterations as ``_ascent_direction`` calls."""
    calls = []
    ascent = mle._ascent_direction

    def counted(*args):
        calls.append(1)
        return ascent(*args)

    monkeypatch.setattr(mle, "_ascent_direction", counted)
    return calls


def newton_then_march_loglik(ds, link, report):
    """The log likelihood of the tied-row route: 25 Newton iterations from
    fit's start, then the march along the report's direction."""
    point, _, history, dm = newton_alone(ds, link, FitOptions(max_iter=25))
    gamma = dm.to_standardized(report.direction)
    return mle._march_to_divergence(dm.xt, ds.y, link, point, gamma, history).loglik


class TestStrictSeparation:
    """A strictly separated fit marches along the report's direction from
    fit's start and runs no Newton iteration. For the log-concave links the
    march reaches the supremum 0, as Newton then the march does. Cauchit's
    1/z tail leaves its log likelihood at the slope bound short of 0 by an
    amount that depends on the direction's margin, so the two routes differ
    there by up to about 1e-3 and only divergence and separation are
    checked."""

    @staticmethod
    def check(ds, link, report, calls):
        fr = fit(ds, link, overlap=report)
        assert fr.status == DIVERGED
        assert calls == []
        z = fr.params.alpha + ds.x @ fr.params.beta
        assert z[ds.y == 1].min() > 0.0 > z[ds.y == 0].max()
        if link.claims_log_concave:
            assert fr.loglik == newton_then_march_loglik(ds, link, report) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_generated_separated_sets_skip_newton(self, name, d, monkeypatch):
        link = get_link(name)
        for seed in range(4):
            for n in (10, 40):
                ds = gen_separated(n, d, seed)
                report = cone_overlap(extended_design(ds), ds.y)
                calls = count_ascent_directions(monkeypatch)
                self.check(ds, link, report, calls)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_interval_report_skips_newton(self, name, monkeypatch):
        for seed in range(4):
            ds = gen_separated(30, 1, seed)
            report = scalar_overlap(ds)
            calls = count_ascent_directions(monkeypatch)
            self.check(ds, get_link(name), report, calls)

    @pytest.mark.parametrize("case", ["quasi_separated_tie", "quasi_separated_tie_pivots",
                                      "tied_pair"])
    def test_tied_rows_take_newton_first(self, case, monkeypatch):
        if case == "tied_pair":
            ds = make_ds([2, 2, 2, 5], [0, 1, 1, 1])
        else:
            ds = read_csv(DATA / f"{case}.csv")
        calls = count_ascent_directions(monkeypatch)
        fr = fit(ds, LOGIT)
        assert fr.status == DIVERGED
        assert len(calls) > 0


def fit_start(ds, link):
    theta = np.zeros(ds.d + 1)
    theta[0] = link.inverse(ds.n1 / ds.n)
    return theta


def doubling_landing(theta, gamma, bound):
    """The first of theta + gamma, + 2 gamma, + 4 gamma, ... whose slope
    norm passes ``bound``, formed with the march's own additions."""
    step = 1.0
    while np.linalg.norm(theta[1:]) <= bound:
        theta, step = theta + step * gamma, 2.0 * step
    return theta


def count_log_terms(monkeypatch, link):
    calls = []
    log_terms = link.log_terms

    def counted(z, y):
        calls.append(1)
        return log_terms(z, y)

    monkeypatch.setattr(link, "log_terms", counted)
    return calls


class TestMarchLanding:
    """The march forms its doubling iterates along the separating direction
    without evaluating the link and evaluates only the one that lands past
    the divergence bound; a landing below the start raises."""

    @pytest.mark.parametrize("bound", [1e2, 1e6])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_strict_fit_takes_two_link_calls(self, name, bound, monkeypatch):
        link = get_link(name)
        monkeypatch.setattr(mle, "DIVERGE_BOUND", bound)
        for ds in (gen_separated(40, 3, 2), read_csv(DATA / "separated_pivot_livelock.csv")):
            report = cone_overlap(extended_design(ds), ds.y)
            calls = count_log_terms(monkeypatch, link)
            fr = fit(ds, link, overlap=report)
            # the start's log likelihood, then the landing iterate's
            assert fr.status == DIVERGED and len(calls) == 2
            assert fr.iterations == 1 and len(fr.history) == 1
            theta = extended_design(ds).to_standardized(np.concatenate([[fr.params.alpha],
                                                                         fr.params.beta]))
            assert np.linalg.norm(theta[1:]) > bound

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_landing_matches_the_step_by_step_march(self, name):
        # along a separating direction the landing passes the guard, and it
        # is the last of the doubling additions, as a march that evaluated
        # every step would reach it, bit for bit
        link = get_link(name)
        for d, seed in ((1, 0), (2, 3), (3, 5)):
            ds = gen_separated(30, d, seed)
            dm = extended_design(ds)
            gamma = dm.to_standardized(cone_overlap(dm, ds.y).direction)
            start = mle._evaluate(dm.xt, ds.y, link, fit_start(ds, link))
            landing = mle._march_to_divergence(dm.xt, ds.y, link, start, gamma, [])
            theta = doubling_landing(start.theta, gamma, mle.DIVERGE_BOUND)
            assert bits(landing.theta) == bits(theta)
            assert bits(landing.loglik) == bits(loglik(dm.xt, ds.y, link, theta))

    @pytest.mark.parametrize("name", CERTIFIED_NAMES)
    def test_failed_landing_raises(self, name, monkeypatch):
        # along -gamma the log likelihood falls, so the landing iterate fails
        # the guard: the march raises after its one evaluation and accepts
        # no iterate
        link = get_link(name)
        ds = gen_separated(30, 2, 3)
        dm = extended_design(ds)
        gamma = dm.to_standardized(cone_overlap(dm, ds.y).direction)
        start = mle._evaluate(dm.xt, ds.y, link, fit_start(ds, link))
        theta = doubling_landing(start.theta, -gamma, mle.DIVERGE_BOUND)
        f = start.loglik
        assert not loglik(dm.xt, ds.y, link, theta) >= f - 1e-9 * (1.0 + abs(f))
        calls = count_log_terms(monkeypatch, link)
        history = []
        with pytest.raises(mle.LPNumericalFailure, match="fell along the separating direction"):
            mle._march_to_divergence(dm.xt, ds.y, link, start, -gamma, history)
        assert len(calls) == 1
        assert history == []

    @staticmethod
    def reversed_report(ds):
        report = cone_overlap(extended_design(ds), ds.y)
        return replace(report, direction=-report.direction)

    @pytest.mark.parametrize("name", CERTIFIED_NAMES)
    def test_fit_along_a_reversed_direction_raises(self, name):
        # a report whose direction does not separate the rows: the march
        # lands below its start, and fit reports no Diverged fit short of
        # the bound
        ds = gen_separated(20, 2, 3)
        with pytest.raises(mle.LPNumericalFailure):
            fit(ds, get_link(name), overlap=self.reversed_report(ds))

    def test_cauchit_newton_crosses_the_bound_before_a_reversed_march(self):
        # cauchit's 1/z tail lets its Newton iterations before the march
        # escape past the bound, so the march takes no step
        ds = gen_separated(20, 2, 3)
        fr = fit(ds, get_link("cauchit"), overlap=self.reversed_report(ds))
        theta = extended_design(ds).to_standardized(np.concatenate([[fr.params.alpha],
                                                                     fr.params.beta]))
        assert fr.status == DIVERGED and fr.iterations < 25
        assert np.linalg.norm(theta[1:]) > mle.DIVERGE_BOUND


class TestMultistart:
    """A non-log-concave fit reports the best of its single-start Newton
    runs, ranked by (converged, log likelihood), bit for bit: its point,
    iterations and history. The first run starts from fit's own start, the
    others move one coordinate of it by +-2, +-4, ... in turn."""

    @staticmethod
    def starts(theta0, count):
        dim = theta0.size
        moves = [(axis, sign * 2.0 * size) for size in (1, 2, 3) for sign in (1.0, -1.0)
                 for axis in range(dim)]
        pts = [theta0]
        for axis, move in moves[:count - 1]:
            pts.append(theta0.copy())
            pts[-1][axis] += move
        return pts

    @pytest.mark.parametrize("ds, winner", [(gen_overlapping(36, 2, 4), 1),
                                            (make_ds([1, 3, 2, 4], [0, 0, 1, 1]), 0)])
    def test_fit_reports_the_best_single_start_run(self, ds, winner):
        link = get_link("cauchit")
        dm = extended_design(ds)
        runs = []
        opts = FitOptions()
        for theta in self.starts(fit_start(ds, link), 7):
            start, history = mle._evaluate(dm.xt, ds.y, link, theta), []
            point, flag, _ = mle._newton(dm.xt, ds.y, link, start, history, opts.tol, opts.max_iter)
            runs.append(((flag == "converged", point.loglik), point, history))
        best = max(range(len(runs)), key=lambda k: runs[k][0])
        _, point, history = runs[best]
        fr = fit(ds, link)
        # which start wins is decided in the last digits of the log likelihood
        assert best == winner
        assert len({len(h) for _, _, h in runs}) > 1
        assert bits(dm.to_raw(point.theta)) == bits(np.concatenate([[fr.params.alpha],
                                                                   fr.params.beta]))
        assert bits(fr.loglik) == bits(point.loglik)
        assert (fr.iterations, fr.history) == (len(history), tuple(history))
