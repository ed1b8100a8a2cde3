"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
on success). Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from binreg import (CONVERGED, DEGENERATE, DIVERGED, OVERLAP, CounterRng,
                    Parameters, certify_log_concavity, check_zero_iff,
                    cone_overlap, dataset_from_arrays, extended_design, fit,
                    gen_balanced, gen_overlapping, get_link, grid_mle,
                    group_stats, hessian, log_likelihood, run_angle_suite,
                    run_sign_suite, scalar_overlap, score)

SIGN_LINKS = ("logit", "probit", "cloglog")
CERTIFIED_LINKS = ("logit", "probit", "cloglog", "uniform")
ALL_LINKS = ("logit", "probit", "cloglog", "uniform", "cauchit")

SIGN_TRIALS = 1000
ZERO_TRIALS = 500
ANGLE_TRIALS = 1000
ORACLE_TRIALS = 100
OVERLAP_TRIALS = 1000
FD_POINTS = 100
IDENTITY_TRIALS = 300


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_sign_theorem():
    """sign(fitted slope) == sign(mean difference) on overlapping d=1 data."""
    t0 = time.time()
    parts = []
    ok = True
    for name in SIGN_LINKS:
        summary = run_sign_suite(get_link(name), trials=SIGN_TRIALS, seed=20_240_101)
        parts.append(f"{name} {summary.passes}/{summary.trials}")
        ok &= summary.failures == 0 and summary.passes == SIGN_TRIALS
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report("criterion 1 (sign)", ok, f"{', '.join(parts)} in {elapsed:.1f}s")


def test_criterion_2_zero_equivalence():
    """Mean-balanced data force a near-zero slope and the closed-form
    intercept; a near-zero slope conversely forces balanced means."""
    rng_seed = 20_240_202
    parts = []
    ok = True
    for name in CERTIFIED_LINKS:
        link = get_link(name)
        good = 0
        for t in range(ZERO_TRIALS):
            trial = CounterRng(rng_seed * 7 + t)
            d = (t % 3) + 1
            n = trial.randint(d + 4, 40)
            ds = gen_balanced(n, d, rng_seed + 1000 * t)
            fr = fit(ds, link)
            alpha_target = link.inverse(ds.n1 / ds.n)
            forward = (fr.status == CONVERGED
                       and float(np.linalg.norm(fr.params.beta)) <= 1e-6
                       and abs(fr.params.alpha - alpha_target) <= 1e-8)
            converse = check_zero_iff(ds, link).holds
            good += 1 if (forward and converse) else 0
        parts.append(f"{name} {good}/{ZERO_TRIALS}")
        ok &= good == ZERO_TRIALS
    report("criterion 2 (zero equivalence)", ok, ", ".join(parts))


def test_criterion_3_acute_angle():
    """slope'(mean difference) > 0 in every converged multivariate trial."""
    parts = []
    ok = True
    for name in CERTIFIED_LINKS:
        link = get_link(name)
        for d in (2, 3):
            summary = run_angle_suite(link, d=d, trials=ANGLE_TRIALS, seed=20_240_303 + d)
            parts.append(f"{name}/d{d} {summary.passes}p/{summary.skipped}s")
            ok &= summary.failures == 0
    report("criterion 3 (acute angle)", ok, ", ".join(parts))


def test_criterion_4_oracle_equivalence():
    """Newton fit equals the nested-grid oracle on small instances."""
    link = get_link("logit")
    checked = 0
    worst_param = 0.0
    worst_ll = 0.0
    t = 0
    while checked < ORACLE_TRIALS:
        t += 1
        trial = CounterRng(20_240_404 + t)
        n = trial.randint(6, 12)
        ds = gen_overlapping(n, 1, 20_240_404 * 31 + t)
        fr = fit(ds, link)
        if fr.status != CONVERGED:
            continue
        oracle = grid_mle(ds, link)
        dp = max(abs(fr.params.alpha - oracle.alpha),
                 abs(fr.params.beta[0] - oracle.beta[0]))
        dll = abs(fr.loglik - log_likelihood(ds, link, oracle))
        worst_param = max(worst_param, dp)
        worst_ll = max(worst_ll, dll)
        checked += 1
    ok = worst_param <= 1e-3 and worst_ll <= 1e-6
    report("criterion 4 (oracle equivalence)", ok,
           f"{checked} instances, worst param diff {worst_param:.2e}, "
           f"worst loglik diff {worst_ll:.2e}")


def _overlap_suite_datasets():
    """1000 single-predictor datasets: continuous, tie-prone integer grids,
    and the four constructed boundary-tie patterns."""
    datasets = []
    for t in range(OVERLAP_TRIALS - 4):
        rng = CounterRng(20_240_505 + t)
        n = rng.randint(6, 40)
        if t % 5 == 0:  # integer grid: forces ties and quasi-separation
            x = np.array([float(rng.randint(0, 4)) for _ in range(n)])
        else:
            x = np.array([rng.uniform(-2, 2) for _ in range(n)])
        y = np.array([rng.bernoulli() for _ in range(n)])
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        datasets.append(dataset_from_arrays(x, y))
    corner = [
        ([2, 2, 2, 5], [0, 1, 1, 1]),
        ([1, 3, 3, 3], [1, 1, 0, 0]),
        ([2, 2, 2, 5], [1, 0, 0, 0]),
        ([1, 3, 3, 3], [0, 0, 1, 1]),
    ]
    for x, y in corner:
        datasets.append(dataset_from_arrays(np.asarray(x, float), np.asarray(y)))
    return datasets


def test_criterion_5_overlap_consistency():
    """Interval and cone tests agree; the cone verdict predicts the fit
    outcome (Overlap <-> Converged, Separated <-> Diverged)."""
    link = get_link("logit")
    agree = verdict_ok = 0
    mismatches = []
    datasets = _overlap_suite_datasets()
    for i, ds in enumerate(datasets):
        s_rep = scalar_overlap(ds)
        c_rep = cone_overlap(extended_design(ds), ds.y)
        if s_rep.verdict == c_rep.verdict:
            agree += 1
        else:
            mismatches.append((i, s_rep.verdict, c_rep.verdict))
        if c_rep.verdict == DEGENERATE:
            verdict_ok += 1  # no unique maximizer either way; fit not defined
            continue
        fr = fit(ds, link)
        expected = CONVERGED if c_rep.verdict == OVERLAP else DIVERGED
        if fr.status == expected:
            verdict_ok += 1
        else:
            mismatches.append((i, c_rep.verdict, fr.status))
    ok = agree == len(datasets) and verdict_ok == len(datasets)
    report("criterion 5 (overlap consistency)", ok,
           f"method agreement {agree}/{len(datasets)}, "
           f"fit correspondence {verdict_ok}/{len(datasets)}"
           + (f", first mismatches {mismatches[:3]}" if mismatches else ""))


def _fd_gradient(fun, theta):
    h = (np.finfo(float).eps ** (1 / 3)) * np.maximum(1.0, np.abs(theta))
    out = np.zeros_like(theta)
    for k in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[k] += h[k]
        dn[k] -= h[k]
        out[k] = (fun(up) - fun(dn)) / (2 * h[k])
    return out


def test_criterion_6_score_correctness():
    """Analytic gradient and curvature match central differences."""
    worst_score = 0.0
    worst_hess = 0.0
    for name in ALL_LINKS:
        link = get_link(name)
        for t in range(FD_POINTS):
            rng = CounterRng(20_240_606 + 1000 * t)
            n, d = rng.randint(6, 14), rng.randint(1, 2)
            x = np.array([[rng.uniform(-2, 2) for _ in range(d)] for _ in range(n)])
            y = np.array([rng.bernoulli() for _ in range(n)])
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            ds = dataset_from_arrays(x, y)
            if name == "uniform":
                p = Parameters(rng.uniform(0.35, 0.65),
                               np.array([rng.uniform(-0.06, 0.06) for _ in range(d)]))
            else:
                p = Parameters(rng.uniform(-1.5, 1.5),
                               np.array([rng.uniform(-1.0, 1.0) for _ in range(d)]))
            theta = np.concatenate([[p.alpha], p.beta])

            def ll_at(tvec):
                return log_likelihood(ds, link, Parameters(tvec[0], tvec[1:]))

            analytic = score(ds, link, p)
            fd = _fd_gradient(ll_at, theta)
            rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic)))
            worst_score = max(worst_score, rel)

            H = hessian(ds, link, p)
            for k in range(theta.size):
                def score_k(tvec, k=k):
                    return score(ds, link, Parameters(tvec[0], tvec[1:]))[k]
                fd_row = _fd_gradient(score_k, theta)
                rel_h = np.max(np.abs(H[k] - fd_row)) / (1.0 + np.max(np.abs(H[k])))
                worst_hess = max(worst_hess, rel_h)
    ok = worst_score <= 1e-6 and worst_hess <= 1e-5
    report("criterion 6 (derivative correctness)", ok,
           f"worst score rel err {worst_score:.2e}, worst hessian rel err {worst_hess:.2e}")


def test_criterion_7_fit_identities():
    """At every converged logit fit: mean fitted probability equals the
    success fraction, and the d=1 rearrangement identity holds."""
    link = get_link("logit")
    worst_mean = 0.0
    worst_rearr = 0.0
    converged = 0
    for t in range(IDENTITY_TRIALS):
        rng = CounterRng(20_240_707 + t)
        n = rng.randint(6, 40)
        ds = gen_overlapping(n, 1, 20_240_707 * 13 + t)
        fr = fit(ds, link)
        if fr.status != CONVERGED:
            continue
        converged += 1
        x = ds.x[:, 0]
        fitted = np.asarray(link.cdf(fr.params.alpha + x * fr.params.beta[0]))
        worst_mean = max(worst_mean, abs(fitted.mean() - ds.n1 / ds.n))
        xbar = x.mean()
        lhs = ds.n1 * (group_stats(ds).xbar1[0] - xbar)
        rhs = float(fitted @ (x - xbar))
        worst_rearr = max(worst_rearr, abs(lhs - rhs))
    ok = converged == IDENTITY_TRIALS and worst_mean <= 1e-10 and worst_rearr <= 1e-8
    report("criterion 7 (stationarity identities)", ok,
           f"{converged} fits, worst mean-prob err {worst_mean:.2e}, "
           f"worst rearrangement err {worst_rearr:.2e}")


def test_criterion_8_link_certification():
    """Log-concavity certificates: four certified, cauchit refuted with a
    concrete witness triple."""
    ok = True
    parts = []
    for name in CERTIFIED_LINKS:
        cert = certify_log_concavity(get_link(name))
        parts.append(f"{name}={cert.verdict}")
        ok &= cert.verdict == "certified"
    cauchit = get_link("cauchit")
    cert = certify_log_concavity(cauchit)
    parts.append(f"cauchit={cert.verdict}")
    ok &= cert.verdict == "refuted" and cert.witness is not None
    if cert.witness is not None:
        which, z1, z2, z3 = cert.witness
        fn = {"neg_log_cdf": lambda z: -float(cauchit.log_cdf(z)),
              "neg_log_sf": lambda z: -float(cauchit.log_sf(z))}[which]
        defect = 2 * fn(z2) - fn(z1) - fn(z3)
        ok &= defect > cert.tolerance
        parts.append(f"witness defect {defect:.2e} at z={z2:.3f}")
    report("criterion 8 (link certification)", ok, ", ".join(parts))
