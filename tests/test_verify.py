import json
import math
from pathlib import Path

import numpy as np
import pytest

from binreg import (CONVERGED, DIVERGED, NOT_UNIQUE, OVERLAP, SEPARATED,
                    DimensionError, GenerationFailure, OracleBoundsError,
                    PreconditionError, check_angle, check_sign, check_zero_iff,
                    cone_overlap, dataset_from_arrays, extended_design, fit,
                    gen_balanced, gen_gaussian, gen_overlapping, gen_separated,
                    get_link, grid_mle, group_stats, run_angle_suite,
                    read_csv, run_sign_suite, run_zero_suite, scalar_overlap,
                    shift_dataset)

LOGIT = get_link("logit")

# y = 0 at linspace(-1, 1, 20), y = 1 at the same grid + 1.5, and one y = 1
# outlier at x = -100, so the mean difference is -3.33
SIGN_WITNESS = Path(__file__).parent / "data" / "sign_witness_d1.csv"

# the same two groups with the y = 1 outlier at x = -30 instead, so the group
# means coincide up to rounding (|delta| = 1.3e-17); values written with repr
ZERO_WITNESS = Path(__file__).parent / "data" / "zero_witness_d1.csv"


def make_ds(x, y):
    return dataset_from_arrays(np.asarray(x, dtype=float), np.asarray(y))


class TestShiftDataset:
    def test_worked_example(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        shifted = shift_dataset(ds)
        assert shifted.x[:, 0].tolist() == [1.0, 3.0, 1.0, 3.0]

    @pytest.mark.parametrize("seed", range(8))
    def test_shift_equalizes_means(self, seed):
        ds = gen_overlapping(14, 2, seed + 50)
        delta = group_stats(shift_dataset(ds)).delta
        assert np.max(np.abs(delta)) <= 1e-12

    def test_shift_can_lose_rank_but_zero_slope_still_maximizes(self):
        # shifting [1,1,2,2] collapses every predictor to 1: the design
        # drops rank, yet the zero-slope point remains a maximizer
        ds = make_ds([1, 1, 2, 2], [0, 0, 1, 1])
        shifted = shift_dataset(ds)
        assert np.all(shifted.x == 1.0)
        fr = fit(shifted, LOGIT)
        assert fr.status == NOT_UNIQUE
        assert abs(fr.params.beta[0]) <= 1e-10
        assert fr.loglik == pytest.approx(-4 * math.log(2), rel=1e-12)


class TestGridOracle:
    def test_balanced_recovers_origin(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        p = grid_mle(ds, LOGIT)
        assert abs(p.alpha) <= 1e-3
        assert abs(p.beta[0]) <= 1e-3

    def test_separated_hits_bounds(self):
        with pytest.raises(OracleBoundsError):
            grid_mle(make_ds([1, 2, 3, 4], [0, 0, 1, 1]), LOGIT)

    def test_size_preconditions(self):
        big = gen_overlapping(30, 1, 3)
        with pytest.raises(PreconditionError):
            grid_mle(big, LOGIT)


class TestCheckSign:
    def test_holds_on_interleaved_data(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        rep = check_sign(fit(ds, LOGIT), group_stats(ds))
        assert rep.theorem == "SignMatch"
        assert rep.holds
        assert rep.slack > 0

    def test_zero_slope_zero_delta(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        rep = check_sign(fit(ds, LOGIT), group_stats(ds))
        assert rep.holds

    def test_diverged_fit_uses_direction_of_last_iterate(self):
        ds = make_ds([1, 2, 3, 4], [0, 0, 1, 1])
        fr = fit(ds, LOGIT)
        assert fr.status == DIVERGED
        rep = check_sign(fr, group_stats(ds))
        assert rep.holds  # slope ran to +inf and delta = 2 > 0

    def test_rejects_multivariate(self):
        ds = gen_overlapping(12, 2, 11)
        with pytest.raises(DimensionError):
            check_sign(fit(ds, LOGIT), group_stats(ds))

    def test_rejects_not_unique_status(self):
        ds = make_ds([1, 1, 2, 2], [0, 0, 1, 1])
        fr = fit(shift_dataset(ds), LOGIT)
        with pytest.raises(PreconditionError):
            check_sign(fr, group_stats(shift_dataset(ds)))


class TestSignWitness:
    """A positive control: one outlier turns cauchit's slope against the
    mean difference, while every log-concave link keeps its sign."""

    @staticmethod
    def sign_report(name):
        ds = read_csv(SIGN_WITNESS)
        fr = fit(ds, get_link(name))
        assert fr.status == CONVERGED
        return fr, check_sign(fr, group_stats(ds))

    def test_the_set_overlaps_with_a_negative_mean_difference(self):
        ds = read_csv(SIGN_WITNESS)
        assert (ds.n, ds.d) == (41, 1)
        assert scalar_overlap(ds).verdict == OVERLAP
        assert group_stats(ds).delta[0] == pytest.approx(-10.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["logit", "probit", "cloglog", "uniform"])
    def test_log_concave_links_keep_the_sign(self, name):
        fr, rep = self.sign_report(name)
        assert fr.params.beta[0] < 0.0
        assert rep.holds

    def test_cauchit_fails_the_sign_check(self):
        fr, rep = self.sign_report("cauchit")
        assert fr.params.beta[0] == pytest.approx(4.32, abs=0.01)
        assert not rep.holds


class TestZeroWitness:
    """A positive control for the zero-coefficient equivalence: equal group
    means force a zero slope for every log-concave link, while the outlier
    gives cauchit a slope far from zero."""

    def test_the_set_overlaps_with_equal_means(self):
        ds = read_csv(ZERO_WITNESS)
        assert (ds.n, ds.d) == (41, 1)
        assert scalar_overlap(ds).verdict == OVERLAP
        assert 0.0 < abs(group_stats(ds).delta[0]) <= 1e-16

    @pytest.mark.parametrize("name", ["logit", "probit", "cloglog", "uniform"])
    def test_log_concave_links_give_a_zero_slope(self, name):
        rep = check_zero_iff(read_csv(ZERO_WITNESS), get_link(name))
        assert rep.holds

    def test_cauchit_fails_the_zero_check(self):
        ds = read_csv(ZERO_WITNESS)
        rep = check_zero_iff(ds, get_link("cauchit"))
        assert not rep.holds
        assert rep.slack == pytest.approx(4.32, abs=0.01)


class TestCheckAngle:
    @pytest.mark.parametrize("seed", range(6))
    def test_positive_slack_on_overlapping_data(self, seed):
        ds = gen_overlapping(20, 2, seed + 300)
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        rep = check_angle(fr, group_stats(ds))
        assert rep.holds
        assert rep.slack > 0

    def test_equal_means_precondition(self):
        ds = gen_balanced(12, 2, 17)
        fr = fit(ds, LOGIT)
        with pytest.raises(PreconditionError):
            check_angle(fr, group_stats(ds))


class TestCheckZeroIff:
    @pytest.mark.parametrize("name", ["logit", "probit", "cloglog", "uniform"])
    def test_balanced_forces_zero_slope(self, name):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        rep = check_zero_iff(ds, get_link(name))
        assert rep.holds

    def test_cloglog_balanced_intercept_value(self):
        ds = make_ds([0, 1, 2, 3], [1, 0, 0, 1])
        fr = fit(ds, get_link("cloglog"))
        assert fr.params.alpha == pytest.approx(math.log(math.log(2)), abs=1e-10)
        assert abs(fr.params.beta[0]) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_shifted_random_data(self, seed):
        ds = gen_balanced(18, 2, seed + 900)
        rep = check_zero_iff(ds, LOGIT)
        assert rep.holds
        assert rep.slack <= 1e-6

    def test_unbalanced_is_vacuous(self):
        ds = make_ds([1, 3, 2, 4], [0, 0, 1, 1])
        rep = check_zero_iff(ds, LOGIT)
        assert rep.holds
        assert "vacuous" in rep.details


class TestGenerators:
    def test_deterministic_given_seed(self):
        a = gen_overlapping(12, 2, 123)
        b = gen_overlapping(12, 2, 123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = gen_overlapping(12, 2, 124)
        assert not np.array_equal(a.x, c.x)

    @pytest.mark.parametrize("seed", range(10))
    def test_overlapping_always_overlaps(self, seed):
        ds = gen_overlapping(15, 2, seed)
        assert cone_overlap(extended_design(ds), ds.y).verdict == OVERLAP

    @pytest.mark.parametrize("seed", range(10))
    def test_separated_always_separates(self, seed):
        ds = gen_separated(11, 2, seed)
        assert cone_overlap(extended_design(ds), ds.y).verdict == SEPARATED

    def test_balanced_mean_difference_negligible(self):
        ds = gen_balanced(16, 1, 4)
        assert abs(group_stats(ds).delta[0]) <= 1e-12

    def test_minimum_size_enforced(self):
        with pytest.raises(GenerationFailure):
            gen_overlapping(3, 2, 1)

    def test_exhausted_budget_names_n_and_d(self):
        # at n = d + 2 seven predictors rarely overlap; seed 3 exhausts the
        # retry budget
        with pytest.raises(GenerationFailure, match=r"500 tries \(n=9, d=7, seed=3\)"):
            gen_overlapping(9, 7, 3)

    @pytest.mark.parametrize("generate", [
        lambda: gen_separated(5, 0, 1),
        lambda: gen_separated(1, 2, 1),
        lambda: gen_gaussian(0, [0.0], [1.0], 1.0, 1),
        lambda: gen_gaussian(1, [0.0], [1.0], 1.0, 1),
        lambda: gen_gaussian(20, [0.0], [1.0], -1.0, 1),
        lambda: gen_gaussian(20, [0.0], [1.0], math.inf, 1),
        lambda: gen_gaussian(20, [0, 0], [1, 1], np.array([[1.0, math.nan], [0.0, 1.0]]), 1),
        lambda: gen_overlapping(40, 0, 1),
        lambda: gen_overlapping(5, -1, 1),
        lambda: gen_balanced(5, -1, 1),
    ])
    def test_impossible_draws_are_refused(self, generate):
        # d = 0 and n = 0 ended in an IndexError or a shape error, d = -1 in an
        # OverflowError; a negative scale was used
        with pytest.raises(GenerationFailure):
            generate()

    def test_gaussian_shape_and_sign_property(self):
        mu0, mu1 = np.zeros(2), np.array([1.0, 0.0])
        ds = gen_gaussian(2000, mu0, mu1, 1.0, 2024)
        assert ds.n == 2000 and ds.d == 2
        fr = fit(ds, LOGIT)
        assert fr.status == CONVERGED
        assert float(fr.params.beta @ (mu1 - mu0)) > 0

    def test_gaussian_matrix_covariance(self):
        sigma = np.array([[1.0, 0.3], [0.3, 0.5]])
        ds = gen_gaussian(50, [0, 0], [1, 1], sigma, 7)
        assert ds.n == 50


class TestSuites:
    def test_sign_suite_clean(self):
        (summary,) = run_sign_suite([LOGIT], trials=25, seed=7)
        assert summary.trials == 25
        assert summary.failures == 0
        assert summary.worst_slack > 0 or math.isnan(summary.worst_slack)

    def test_zero_suite_clean(self):
        (summary,) = run_zero_suite([get_link("probit")], trials=10, seed=3)
        assert summary.failures == 0

    def test_angle_suite_clean(self):
        (summary,) = run_angle_suite([get_link("cloglog")], d=2, trials=15, seed=5)
        assert summary.failures == 0
        assert summary.passes > 0

    @pytest.mark.parametrize("check, run", [
        ("check_sign", lambda: run_sign_suite([LOGIT], trials=4, seed=3)),
        ("check_angle", lambda: run_angle_suite([LOGIT], d=2, trials=4, seed=3)),
        ("check_zero_iff", lambda: run_zero_suite([LOGIT], trials=4, seed=3)),
    ])
    def test_a_trial_the_check_refuses_is_skipped(self, monkeypatch, check, run):
        # the suites decide no hypothesis themselves; a check's
        # PreconditionError is the one reason a trial is skipped
        import binreg.verify

        def refuse(*args):
            raise PreconditionError("hypotheses do not hold")

        monkeypatch.setattr(binreg.verify, check, refuse)
        (summary,) = run()
        assert (summary.trials, summary.skipped, summary.passes, summary.failures) == (4, 4, 0, 0)
        assert math.isnan(summary.worst_slack)

    def test_angle_and_sign_trials_solve_one_cone_program(self, monkeypatch):
        # the generator's Overlap report goes to fit, which does not solve
        # the program again
        import binreg.mle

        def solve_again(*a, **k):
            raise AssertionError("cone program solved a second time")

        monkeypatch.setattr(binreg.mle, "cone_overlap", solve_again)
        (angle,) = run_angle_suite([LOGIT], d=3, trials=6, seed=2)
        assert angle.trials == 6
        (sign,) = run_sign_suite([LOGIT], trials=6, seed=2)
        assert sign.trials == 6

    def test_verify_draws_each_trial_dataset_once(self, monkeypatch, capsys):
        # 3 sign, 3 zero and 2 x 3 angle trials; drawn once per link, as
        # before, they took 3 x 3 + 4 x 3 + 4 x 6 = 45 calls
        import binreg.verify
        from binreg.cli import main

        calls = []
        draw = binreg.verify._gen_overlapping

        def counted(n, d, seed):
            calls.append((n, d, seed))
            return draw(n, d, seed)

        monkeypatch.setattr(binreg.verify, "_gen_overlapping", counted)
        assert main(["verify", "--theorem", "all", "--dims", "2,3", "--trials", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 15
        assert len(calls) == 12

    @pytest.mark.parametrize("run", [
        lambda links: run_sign_suite(links, trials=8, seed=13),
        lambda links: run_zero_suite(links, trials=9, seed=13),
        lambda links: run_angle_suite(links, d=2, trials=8, seed=13),
        lambda links: run_angle_suite(links, d=3, trials=8, seed=13),
    ], ids=["sign", "zero", "angle-d2", "angle-d3"])
    def test_links_sharing_a_draw_match_one_link_runs(self, run):
        # every link fits the same datasets, so a link's summary must not
        # depend on the links checked beside it; repr also compares NaN
        links = [get_link(name) for name in ("logit", "probit", "cloglog", "uniform", "cauchit")]
        together = run(links)
        assert [s.link for s in together] == [link.name for link in links]
        assert [repr(s) for s in together] == [repr(run([link])[0]) for link in links]
