import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import binreg.overlap
from binreg import (DEGENERATE, OVERLAP, SEPARATED, DimensionError,
                    LPNumericalFailure, ScalarBounds, build_dataset,
                    cone_overlap, dataset_from_arrays, extended_design,
                    gen_overlapping, gen_separated, scalar_overlap,
                    separating_direction)
from binreg.overlap import METHOD_CONE, METHOD_SCALAR, T_MIN, _interval_report


def make_ds(x, y):
    return dataset_from_arrays(np.asarray(x, dtype=float), np.asarray(y))


def cone_of(ds):
    return cone_overlap(extended_design(ds), ds.y)


def raw_design(ds):
    """[1 | x] in raw predictor coordinates, where report directions live."""
    return np.column_stack([np.ones(ds.n), ds.x])


def tied_separated(rng, n, d):
    """Groups split by a random hyperplane and pushed 0.2 apart, then one
    point on the mid-plane placed in both groups: quasi-separated, margin 0."""
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    s = x @ w
    y = np.zeros(n, dtype=int)
    y[np.argsort(s)[n // 2:]] = 1
    x = x + np.outer(y, (s[y == 0].max() - s[y == 1].min() + 0.2) * w)
    s = x @ w
    mid = 0.5 * (s[y == 0].max() + s[y == 1].min())
    tie = x[0] - (s[0] - mid) * w
    x[np.argmax(y == 1)] = tie
    x[np.argmax(y == 0)] = tie
    return make_ds(x, y)


class TestScalar:
    def test_interleaved_overlap(self):
        rep = scalar_overlap(make_ds([1, 3, 2, 4], [0, 0, 1, 1]))
        assert rep.verdict == OVERLAP
        assert (rep.bounds.L0, rep.bounds.U0, rep.bounds.L1, rep.bounds.U1) == (1, 3, 2, 4)

    def test_complete_separation_positive_direction(self):
        rep = scalar_overlap(make_ds([1, 2, 3, 4], [0, 0, 1, 1]))
        assert rep.verdict == SEPARATED
        assert rep.direction_hint == 1

    def test_complete_separation_negative_direction(self):
        rep = scalar_overlap(make_ds([3, 4, 1, 2], [0, 0, 1, 1]))
        assert rep.verdict == SEPARATED
        assert rep.direction_hint == -1

    def test_all_equal_degenerate(self):
        assert scalar_overlap(make_ds([7, 7, 7], [0, 1, 0])).verdict == DEGENERATE

    def test_degenerate_group_strictly_inside(self):
        # one group constant, strictly inside the other group's range
        rep = scalar_overlap(make_ds([1, 5, 3, 3], [0, 0, 1, 1]))
        assert rep.verdict == OVERLAP

    def test_boundary_tie_is_quasi_separation(self):
        # group-0 range is the single point 2, tied with group-1's minimum;
        # the likelihood supremum is approached only as the slope diverges,
        # so this is Separated (and the cone route agrees)
        ds = make_ds([2, 2, 2, 5], [0, 1, 1, 1])
        rep = scalar_overlap(ds)
        assert rep.verdict == SEPARATED
        assert rep.direction_hint == 1
        assert cone_of(ds).verdict == SEPARATED

    @pytest.mark.parametrize(
        "x,y",
        [
            ([2, 2, 2, 5], [0, 1, 1, 1]),  # L0=U0=L1<U1
            ([1, 3, 3, 3], [1, 1, 0, 0]),  # L1<U1=L0=U0
            ([2, 2, 2, 5], [1, 0, 0, 0]),  # L1=U1=L0<U0
            ([1, 3, 3, 3], [0, 0, 1, 1]),  # L0<U0=L1=U1
        ],
    )
    def test_all_four_tie_patterns_agree_with_cone(self, x, y):
        ds = make_ds(x, y)
        assert scalar_overlap(ds).verdict == SEPARATED
        assert cone_of(ds).verdict == SEPARATED

    def test_requires_single_predictor(self):
        ds = build_dataset([((1, 2), 0), ((3, 4), 1)])
        with pytest.raises(DimensionError):
            scalar_overlap(ds)

    @pytest.mark.parametrize(
        "x,y",
        [
            ([1, 2, 3, 4], [0, 0, 1, 1]),
            ([3, 4, 1, 2], [0, 0, 1, 1]),
            ([2, 2, 2, 5], [0, 1, 1, 1]),
            ([1, 3, 3, 3], [1, 1, 0, 0]),
        ],
    )
    def test_separated_report_carries_a_separating_direction(self, x, y):
        ds = make_ds(x, y)
        rep = scalar_overlap(ds)
        proj = raw_design(ds) @ rep.direction
        assert np.all(proj[ds.y == 1] >= 0.0) and np.all(proj[ds.y == 0] <= 0.0)
        assert np.sign(rep.direction[1]) == rep.direction_hint

    def test_overlap_and_degenerate_reports_carry_no_direction(self):
        assert scalar_overlap(make_ds([1, 3, 2, 4], [0, 0, 1, 1])).direction is None
        assert scalar_overlap(make_ds([7, 7, 7], [0, 1, 0])).direction is None


class TestIntervalReport:
    def test_strict_separation_thresholds_at_the_midpoint(self):
        rep = _interval_report(ScalarBounds(L0=1.0, U0=2.0, L1=3.0, U1=4.0))
        assert rep.verdict == SEPARATED and rep.method == METHOD_SCALAR
        assert rep.direction_hint == 1
        assert list(rep.direction) == [-2.5, 1.0]

    def test_tie_thresholds_at_the_tied_value(self):
        tie = 0.1 + 0.2
        rep = _interval_report(ScalarBounds(L0=-1.0, U0=tie, L1=tie, U1=5.0))
        assert rep.verdict == SEPARATED
        assert list(rep.direction) == [-tie, 1.0]

    def test_group_one_below_gives_a_negative_slope(self):
        rep = _interval_report(ScalarBounds(L0=3.0, U0=4.0, L1=1.0, U1=2.0))
        assert rep.direction_hint == -1
        assert list(rep.direction) == [2.5, -1.0]


def reference_margin(xt, y):
    """The cone program's optimum t* by an independent solver, posed with
    t free: maximize t over weights k_i >= t whose signed combination of
    the rows of ``xt`` is zero and which sum to one. None if infeasible."""
    n, cols = xt.shape
    signed = np.where(y == 1, 1.0, -1.0)[:, None] * xt
    A_eq = np.vstack([np.hstack([signed.T, np.zeros((cols, 1))]),
                      np.concatenate([np.ones(n), [0.0]])])
    b_eq = np.concatenate([np.zeros(cols), [1.0]])
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])  # t - k_i <= 0
    c = np.zeros(n + 1)
    c[-1] = -1.0
    ref = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    if ref.status == 2:
        return None
    assert ref.status == 0, ref.message
    return -ref.fun


def brute_force_common_cone_point(ds, grid=np.linspace(0.1, 1.0, 10)):
    """Search small weight grids for a common point of the two open cones.

    Exhaustive over per-row weights from a coarse positive grid; a hit
    proves the cones intersect (up to the residual tolerance).
    """
    xt = extended_design(ds).xt
    pos = xt[ds.y == 1]
    neg = xt[ds.y == 0]
    for kw in itertools.product(grid, repeat=len(pos)):
        lhs = np.asarray(kw) @ pos
        for mw in itertools.product(grid, repeat=len(neg)):
            rhs = np.asarray(mw) @ neg
            scale = rhs[0] / lhs[0]
            if np.max(np.abs(lhs * scale - rhs)) <= 1e-9:
                return True
    return False


class TestCone:
    def test_two_dim_overlap_confirmed_by_brute_force(self):
        ds = build_dataset([((0, 0), 0), ((1, 1), 0), ((1, 0), 1), ((0, 1), 1)])
        rep = cone_of(ds)
        assert rep.verdict == OVERLAP
        assert brute_force_common_cone_point(ds)

    def test_two_dim_complete_separation(self):
        # the hyperplane x1 = 1 splits the groups
        ds = build_dataset([((0, 0), 0), ((0, 1), 0), ((2, 0), 1), ((2, 1), 1)])
        assert cone_of(ds).verdict == SEPARATED

    def test_overlap_certificate_is_valid(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        rep = cone_of(ds)
        cert = rep.certificate
        assert rep.verdict == OVERLAP
        assert rep.margin > 1e-9
        assert np.all(cert.weights_pos >= rep.margin - 1e-12)
        assert np.all(cert.weights_neg >= rep.margin - 1e-12)
        total = cert.weights_pos.sum() + cert.weights_neg.sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        assert cert.residual <= 1e-8

    def test_all_equal_rows_degenerate(self):
        ds = make_ds([4, 4, 4, 4], [0, 1, 0, 1])
        assert cone_of(ds).verdict == DEGENERATE
        assert separating_direction(extended_design(ds), ds.y) is None

    @staticmethod
    def perturb_optimum(monkeypatch):
        # the first weight moved by 0.01: the optimum still reads t* > 0,
        # but the two combinations no longer meet
        solve_lp = binreg.overlap.solve_lp

        def perturbed(*a, **k):
            result = solve_lp(*a, **k)
            x = result.x.copy()
            x[0] += 0.01
            return dataclasses.replace(result, x=x)

        monkeypatch.setattr(binreg.overlap, "solve_lp", perturbed)

    def test_overlap_needs_a_certificate_within_tolerance(self, monkeypatch):
        ds = build_dataset([((0, 0), 0), ((1, 1), 0), ((1, 0), 1), ((0, 1), 1)])
        assert cone_of(ds).verdict == OVERLAP
        self.perturb_optimum(monkeypatch)
        with pytest.raises(LPNumericalFailure, match="residual"):
            cone_of(ds)

    def test_uncertified_overlap_at_d1_gives_the_interval_report(self, monkeypatch):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        self.perturb_optimum(monkeypatch)
        rep = cone_of(ds)
        assert rep.verdict == OVERLAP and rep.method == METHOD_SCALAR
        assert rep.certificate is None

    @pytest.mark.parametrize("x,y,verdict", [
        ([1, 3, 2, 4], [0, 0, 1, 1], OVERLAP),
        ([1, 2, 3, 4], [0, 0, 1, 1], SEPARATED),
    ])
    def test_failed_program_at_d1_gives_the_interval_report(self, monkeypatch, x, y, verdict):
        def fail(*a, **k):
            raise LPNumericalFailure("simplex exceeded 9 pivots")

        monkeypatch.setattr(binreg.overlap, "solve_lp", fail)
        ds = make_ds(x, y)
        rep = cone_of(ds)
        assert rep.verdict == verdict and rep.method == METHOD_SCALAR
        assert (rep.direction is None) == (verdict == OVERLAP)

    def test_failed_program_at_d2_raises(self, monkeypatch):
        def fail(*a, **k):
            raise LPNumericalFailure("simplex exceeded 9 pivots")

        monkeypatch.setattr(binreg.overlap, "solve_lp", fail)
        with pytest.raises(LPNumericalFailure):
            cone_of(build_dataset([((0, 0), 0), ((1, 1), 0), ((1, 0), 1), ((0, 1), 1)]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_verdict_invariant_under_large_offsets(self, d):
        """x -> 0.01 x + offset keeps the verdict: the program is posed on
        the standardized design, where the offset is gone."""
        for seed in range(6):
            for gen in (gen_overlapping, gen_separated):
                ds = gen(8 + 7 * seed, d, 100 + seed)
                base = cone_of(ds)
                for offset in (1e3, 1e5, 1e7):
                    shifted = cone_of(make_ds(0.01 * ds.x + offset, ds.y))
                    assert shifted.verdict == base.verdict
                    assert shifted.method == METHOD_CONE
                    if shifted.certificate is not None:
                        assert shifted.certificate.residual <= 1e-8

    def test_near_collinear_sets_match_reference_solver(self):
        """Points on a random line plus noise of scale 10^U(-4, 0): a design
        with a tiny singular value, where the free margin's split into
        tp - tm once priced a bounded program unbounded. Verdict and margin
        agree with an independent solver."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, d = int(rng.integers(6, 41)), int(rng.integers(2, 4))
            x = (rng.normal(size=d) + np.outer(rng.normal(size=n), rng.normal(size=d))
                 + 10.0 ** rng.uniform(-4, 0) * rng.normal(size=(n, d)))
            y = (rng.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            dm = extended_design(make_ds(x, y))
            report = cone_overlap(dm, y)
            t = reference_margin(dm.xt, y)
            assert report.verdict == (OVERLAP if t is not None and t > T_MIN else SEPARATED)
            assert report.margin == pytest.approx(max(t or 0.0, 0.0), abs=1e-10)

    def test_exact_ties_report_margin_zero_and_a_direction(self):
        """A point in both groups of otherwise separated data: t* is exactly
        0, so rounding residue of the optimum must not read as a positive
        margin, which would drop the separating direction."""
        for seed in range(600):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 3
            ds = tied_separated(rng, int(rng.integers(8, 61)), d)
            scale, offset = 10.0 ** rng.uniform(-3, 3), rng.uniform(-1e3, 1e3, size=d)
            report = cone_of(make_ds(scale * ds.x + offset, ds.y))
            assert report.verdict == SEPARATED and report.method == METHOD_CONE
            assert report.margin == 0.0
            assert report.direction is not None

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 24),
        tie_grid=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_and_cone_agree_for_single_predictor(self, seed, n, tie_grid):
        """The interval test and the cone program must give one verdict.

        Integer-valued draws force frequent ties, exercising the
        quasi-separation boundary cases.
        """
        rng = np.random.default_rng(seed)
        if tie_grid:
            x = rng.integers(0, 5, size=n).astype(float)
        else:
            x = rng.normal(size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = make_ds(x, y)
        assert scalar_overlap(ds).verdict == cone_of(ds).verdict

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_verdict_invariant_under_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        x = rng.normal(size=(n, 2))
        y = np.array([0, 1] * (n // 2))
        perm = rng.permutation(n)
        assert cone_of(make_ds(x, y)).verdict == cone_of(make_ds(x[perm], y[perm])).verdict

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_verdict_invariant_under_affine_maps(self, seed):
        """x -> Ax + b with A nonsingular preserves the verdict."""
        rng = np.random.default_rng(seed)
        n = 10
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        A = rng.normal(size=(2, 2))
        while abs(np.linalg.det(A)) < 0.1:
            A = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        assert cone_of(make_ds(x, y)).verdict == cone_of(make_ds(x @ A.T + b, y)).verdict

    @given(seed=st.integers(0, 5000), copies=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_verdict_invariant_under_row_duplication(self, seed, copies):
        rng = np.random.default_rng(seed)
        n = 8
        x = rng.normal(size=(n, 1))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        base = cone_of(make_ds(x, y)).verdict
        row = rng.integers(0, n)
        x_dup = np.vstack([x] + [x[row:row + 1]] * (copies - 1))
        y_dup = np.concatenate([y, [y[row]] * (copies - 1)])
        assert cone_of(make_ds(x_dup, y_dup)).verdict == base


class TestSeparatingDirection:
    def test_found_for_separated_data(self):
        ds = make_ds([1, 2, 3, 4], [0, 0, 1, 1])
        gamma = separating_direction(extended_design(ds), ds.y)
        proj = raw_design(ds) @ gamma
        assert np.all(proj[ds.y == 1] >= -1e-12)
        assert np.all(proj[ds.y == 0] <= 1e-12)
        assert np.max(np.abs(proj)) > 1e-9
        assert gamma[1] != 0.0

    def test_none_for_overlapping_data(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        assert separating_direction(extended_design(ds), ds.y) is None

    def test_found_for_quasi_separated_data(self):
        ds = make_ds([1, 2, 3, 3, 4, 5], [0, 0, 0, 1, 1, 1])
        gamma = separating_direction(extended_design(ds), ds.y)
        assert gamma is not None
        proj = raw_design(ds) @ gamma
        assert np.all(proj[ds.y == 1] >= -1e-12)
        assert np.all(proj[ds.y == 0] <= 1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strict_for_strictly_separated_data(self, d):
        for seed in range(15):
            ds = gen_separated(10 + 7 * seed, d, seed)
            gamma = separating_direction(extended_design(ds), ds.y)
            proj = raw_design(ds) @ gamma
            assert proj[ds.y == 1].min() > 0.0
            assert proj[ds.y == 0].max() < 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weak_with_nonzero_slope_for_tied_data(self, d):
        rng = np.random.default_rng(d)
        for _ in range(15):
            ds = tied_separated(rng, int(rng.integers(8, 60)), d)
            assert cone_of(ds).margin == 0.0
            gamma = separating_direction(extended_design(ds), ds.y)
            assert gamma is not None
            proj = raw_design(ds) @ gamma
            scale = np.max(np.abs(proj))
            assert proj[ds.y == 1].min() >= -1e-12 * scale
            assert proj[ds.y == 0].max() <= 1e-12 * scale
            assert np.linalg.norm(gamma[1:]) > 0.0

    def test_report_carries_the_same_direction(self):
        rng = np.random.default_rng(4)
        sets = [tied_separated(rng, 30, 2), gen_separated(25, 3, 1),
                make_ds([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [1, 0, 0, 0])]
        for ds in sets:
            report = cone_of(ds)
            assert report.verdict == SEPARATED
            assert np.array_equal(report.direction,
                                  separating_direction(extended_design(ds), ds.y))

    def test_overlap_report_carries_no_direction(self):
        assert cone_of(make_ds([1, 3, 2, 4], [0, 0, 1, 1])).direction is None

    def test_strict_when_cone_program_infeasible(self):
        # the affine hulls of the groups (a point, a line) do not meet, so
        # the cone program has no solution and phase 1 supplies gamma
        ds = make_ds([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [1, 0, 0, 0])
        gamma = separating_direction(extended_design(ds), ds.y)
        proj = raw_design(ds) @ gamma
        assert proj[0] > 0.0 and np.all(proj[1:] < 0.0)
