import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import binreg.mle
from binreg import read_csv
from binreg.cli import main

DATA = Path(__file__).parent / "data"

# set 1900 of a seeded stream of strictly separated n=100, d=3 sets, on
# which the cone simplex once repeated a no-op pivot until its budget ran out
LIVELOCK = DATA / "separated_pivot_livelock.csv"

# gen_separated(33, 1, 1011) and gen_overlapping(40, 2, 0), each with
# x -> 0.01 x + 1e5: a cone program posed on the raw design called the
# first Overlap and reported the second unbounded
OFFSET_SEPARATED = DATA / "offset_separated_d1.csv"
OFFSET_OVERLAPPING = DATA / "offset_overlapping_d2.csv"

# 12 nearly collinear rows (design singular values 0.019 and 3.46) whose
# groups overlap with cone margin 0.0781; posed with a free margin split as
# tp - tm, the cone program priced tm below its cost tolerance at the
# optimum and was reported unbounded, so `overlap` and every `fit` exited 1
LPFAIL = DATA / "lpfail.csv"

# 12 overlapping rows on which a cloglog Newton step lands a success row at
# z = 736: its score weight underflows to 0 while the link's slope is -inf,
# and the Hessian weight 0 * -inf once made the Hessian NaN
CLOGLOG_NAN = DATA / "cloglog_nan.csv"

# y = 0 at linspace(-1, 1, 20), y = 1 at the same grid + 1.5 and one y = 1
# outlier at x = -100: the uniform maximizer holds a row on the edge of the
# support, and cauchit's slope has the wrong sign
SIGN_WITNESS = DATA / "sign_witness_d1.csv"

# `binreg verify --trials 40 --seed 7` as written once logit's log forms
# dropped np.logaddexp (only the worst_slack of the SignMatch logit d=1 and
# AcuteAngle logit d=2 and d=3 rows moved, in the last digits); a change that
# moves verify outputs on purpose regenerates this file and says so
VERIFY_GOLDEN = DATA / "verify_trials40_seed7.json"

# `binreg fit` with and without --force for every link on five tests/data
# CSVs and one simulated overlapping set (``fit_golden_lines``), as written
# once logit's log forms dropped np.logaddexp (only the logit --force lines
# of the two quasi_separated_tie CSVs and both overlapping_n400_d3_seed3.csv
# logit lines moved); the two offset CSVs' lines were written by the code
# that still standardized the predictors separately for the overlap verdict
# and the fit, and pin that sharing one design moved nothing. When the march
# came to evaluate only its landing iterate, only the iterations field of 18
# --force lines moved (strict fits 18 or 19 -> 1, tied fits 18 fewer).
# Posing the cone program with a margin slack moved 29 lines in rounding
# digits only (overlap margin and residual, alpha and beta by at most
# 8.3e-16 relative, score_norm, and hessian_condition where it is above
# 1e16); zeroing cloglog's 0 * -inf Hessian weight turned the null
# hessian_condition of the two quasi-separated cloglog --force lines finite.
# Regenerated only by a change that moves fit outputs on purpose
FIT_GOLDEN = DATA / "fit_golden.json"
GOLDEN_CSVS = ("quasi_separated_tie.csv", "quasi_separated_tie_pivots.csv",
               "separated_pivot_livelock.csv", "offset_separated_d1.csv",
               "offset_overlapping_d2.csv")


BALANCED = "x,y\n0,1\n1,0\n2,0\n3,1\n"
SEPARATED = "x,y\n1,0\n2,0\n3,1\n4,1\n"
OVERLAPPING = "x,y\n1,0\n3,0\n2,1\n4,1\n"


@pytest.fixture
def csvs(tmp_path):
    paths = {}
    for name, content in [("bal", BALANCED), ("sep", SEPARATED), ("olap", OVERLAPPING)]:
        p = tmp_path / f"{name}.csv"
        p.write_text(content)
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fit_golden_lines(run, tmp_path):
    """One JSON line per ``binreg fit`` case: the exit code and stdout.
    ``run(*argv)`` returns (exit code, stdout)."""
    simulated = tmp_path / "overlapping_n400_d3_seed3.csv"
    assert run("simulate", "--kind", "overlapping", "--n", "400", "--d", "3",
               "--seed", "3", "--out", str(simulated))[0] == 0
    paths = [DATA / name for name in GOLDEN_CSVS] + [simulated]
    lines = []
    for path in paths:
        for link in ["logit", "probit", "cloglog", "cauchit", "uniform"]:
            for force in [[], ["--force"]]:
                code, out = run("fit", "--csv", str(path), "--link", link, *force)
                case = " ".join([path.name, link, *force])
                lines.append(json.dumps({"case": case, "code": code, "stdout": out}) + "\n")
    return lines


class TestFitCommand:
    def test_overlapping_fit_solves_the_cone_program_once(self, capsys, csvs, monkeypatch):
        import binreg.cli
        import binreg.mle
        from binreg.overlap import cone_overlap
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return cone_overlap(*args, **kwargs)

        for module in (binreg.cli, binreg.mle):
            monkeypatch.setattr(module, "cone_overlap", counted)
        code, out, _ = run_cli(capsys, "fit", "--csv", csvs["olap"])
        assert code == 0
        assert json.loads(out)["status"] == "Converged"
        assert len(calls) == 1

    def test_forced_separated_fit_solves_one_small_program(self, capsys, csvs, monkeypatch):
        import binreg.overlap
        solve_lp = binreg.overlap.solve_lp
        rows = []

        def counted(c, A, b, *args, **kwargs):
            rows.append(len(b))
            return solve_lp(c, A, b, *args, **kwargs)

        monkeypatch.setattr(binreg.overlap, "solve_lp", counted)
        code, out, _ = run_cli(capsys, "fit", "--csv", csvs["sep"], "--force")
        assert code == 0
        assert json.loads(out)["status"] == "Diverged"
        assert rows == [3]  # d+2 rows: the verdict and the direction

    def test_balanced_fit_json(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "fit", "--link", "logit", "--csv", csvs["bal"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["status"] == "Converged"
        assert payload["alpha"] == pytest.approx(0.0, abs=1e-10)
        assert payload["beta"][0] == pytest.approx(0.0, abs=1e-10)

    def test_separated_refused_without_force(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "fit", "--csv", csvs["sep"])
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "Separated"
        assert "alpha" not in payload and "beta" not in payload

    def test_separated_forced_reports_divergence(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "fit", "--csv", csvs["sep"], "--force")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Diverged"
        assert payload["beta"][0] > 1e3

    def test_forced_fit_on_pivot_livelock_set_diverges(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--csv", str(LIVELOCK), "--force")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Diverged"
        ds = read_csv(LIVELOCK)
        z = payload["alpha"] + ds.x @ np.array(payload["beta"])
        tol = 1e-8 * np.max(np.abs(z))
        assert z[ds.y == 1].min() >= -tol
        assert z[ds.y == 0].max() <= tol

    def test_forced_fit_on_offset_separated_set_diverges(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--csv", str(OFFSET_SEPARATED), "--force")
        assert code == 0
        payload = json.loads(out)
        assert payload["overlap"]["verdict"] == "Separated"
        assert payload["status"] == "Diverged"

    def test_offset_overlapping_set_converges_to_the_rescaled_fit(self, capsys):
        from binreg import fit, gen_overlapping, get_link
        code, out, _ = run_cli(capsys, "fit", "--csv", str(OFFSET_OVERLAPPING))
        assert code == 0
        payload = json.loads(out)
        assert payload["overlap"]["verdict"] == "Overlap"
        assert payload["status"] == "Converged"
        # x -> 0.01 x + 1e5 scales the slope by 100
        unshifted = fit(gen_overlapping(40, 2, 0), get_link("logit"))
        assert unshifted.status == "Converged"
        np.testing.assert_allclose(payload["beta"], 100.0 * unshifted.params.beta, rtol=1e-8)

    def test_uniform_fit_at_a_kink_is_certified(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--csv", str(SIGN_WITNESS), "--link", "uniform")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Converged"
        assert payload["beta"][0] < 0.0
        # plain Newton stopped at MaxIterations with log likelihood -28.02438557
        assert payload["loglik"] > -28.02438556
        assert payload["score_norm"] <= 1e-8
        assert payload["caveat"].startswith("maximizer at a kink: 1 row held")

    @pytest.mark.parametrize("link", ["logit", "probit", "cloglog", "cauchit", "uniform"])
    def test_near_collinear_overlapping_set_fits(self, capsys, link):
        code, out, err = run_cli(capsys, "fit", "--csv", str(LPFAIL), "--link", link)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["overlap"]["verdict"] == "Overlap"
        assert payload["status"] == "Converged"

    def test_cloglog_step_to_a_far_right_success_converges(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--csv", str(CLOGLOG_NAN), "--link", "cloglog")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["status"] == "Converged"
        assert payload["score_norm"] <= 1e-8
        assert payload["loglik"] == pytest.approx(-5.315013930228894, abs=1e-9)
        assert np.isfinite(payload["hessian_condition"])

    def test_json_out_file(self, capsys, csvs, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "fit", "--csv", csvs["olap"], "--json-out", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_output_bytes_match_the_committed_fits(self, capsys, tmp_path):
        lines = fit_golden_lines(lambda *argv: run_cli(capsys, *argv)[:2], tmp_path)
        assert lines == FIT_GOLDEN.read_text().splitlines(keepends=True)
        assert "".join(lines).encode() == FIT_GOLDEN.read_bytes()

    def test_reproducible_output_bytes(self, capsys, csvs):
        _, first, _ = run_cli(capsys, "fit", "--csv", csvs["olap"])
        _, second, _ = run_cli(capsys, "fit", "--csv", csvs["olap"])
        assert first == second


class TestOneDesignPerDataset:
    """The overlap verdict, the rank check and Newton share one standardized
    design per dataset: ``extended_design`` standardizes the predictors once
    and takes the rank SVD only when the rank is read."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import binreg.core
        import binreg.overlap
        import binreg.verify
        counts = {"standardize": 0, "svd": 0, "datasets": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every module that holds a standardization of its own is counted
        for module in (binreg.core, binreg.overlap, binreg.mle):
            if hasattr(module, "_standardize"):
                monkeypatch.setattr(module, "_standardize",
                                    counted("standardize", module._standardize))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(binreg.verify, "dataset_from_arrays",
                            counted("datasets", binreg.verify.dataset_from_arrays))
        return counts

    @pytest.mark.parametrize("argv", [["--link", "logit"], ["--link", "probit", "--force"]])
    @pytest.mark.parametrize("path", [OFFSET_OVERLAPPING, OFFSET_SEPARATED, LIVELOCK])
    def test_fit_standardizes_once_and_ranks_at_most_once(self, capsys, counts, path, argv):
        code, _, _ = run_cli(capsys, "fit", "--csv", str(path), *argv)
        assert code in (0, 2)
        assert counts["standardize"] == 1
        assert counts["svd"] <= 1

    @pytest.mark.parametrize("method", ["auto", "cone"])
    def test_overlap_takes_no_svd(self, capsys, counts, method):
        for path in (OFFSET_OVERLAPPING, OFFSET_SEPARATED, LIVELOCK):
            run_cli(capsys, "overlap", "--csv", str(path), "--method", method)
        assert counts["standardize"] == 3
        assert counts["svd"] == 0

    def test_suite_trial_builds_one_design_per_generated_dataset(self, counts):
        from binreg import get_link
        from binreg.mle import fit
        from binreg.verify import _gen_overlapping
        for n, d, seed in [(6, 3, 11), (12, 2, 4), (40, 1, 7), (9, 3, 2)]:
            ds, report = _gen_overlapping(n, d, seed)
            fit(ds, get_link("logit"), overlap=report)
        assert counts["datasets"] >= 4
        assert counts["standardize"] == counts["datasets"]
        assert counts["svd"] == counts["datasets"]


class TestOverlapCommand:
    def test_separated_exit_code(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "overlap", "--csv", csvs["sep"])
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "Separated"
        assert payload["direction_hint"] == 1

    def test_pivot_livelock_set_is_separated(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--csv", str(LIVELOCK))
        assert code == 2
        assert json.loads(out)["verdict"] == "Separated"

    def test_offset_separated_set_is_separated(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--csv", str(OFFSET_SEPARATED))
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "Separated"
        assert payload["margin"] == 0.0

    def test_near_collinear_overlapping_set_overlaps(self, capsys):
        code, out, err = run_cli(capsys, "overlap", "--csv", str(LPFAIL))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["verdict"] == "Overlap"
        # an independent solver (HiGHS) gives t* = 0.0781334556107059
        assert payload["margin"] == pytest.approx(0.0781334556107059, abs=1e-12)

    def test_overlap_scalar_method(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "overlap", "--csv", csvs["olap"], "--method", "scalar")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Overlap"
        assert payload["bounds"] == {"L0": 1.0, "U0": 3.0, "L1": 2.0, "U1": 4.0}

    def test_overlap_cone_certificate(self, capsys, csvs):
        code, out, _ = run_cli(capsys, "overlap", "--csv", csvs["olap"], "--method", "cone")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Overlap"
        assert payload["certificate"]["margin"] > 1e-9


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "sign", "--link", "logit",
                               "--trials", "15", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_failures"] == 0
        assert payload["results"][0]["trials"] == 15

    def test_all_theorems_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "all", "--link", "logit",
                               "--trials", "5", "--seed", "1", "--dims", "2")
        assert code == 0
        payload = json.loads(out)
        theorems = {r["theorem"] for r in payload["results"]}
        assert theorems == {"SignMatch", "ZeroIffEqualMeans", "AcuteAngle"}

    def test_output_bytes_match_the_committed_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "40", "--seed", "7")
        assert code == 0
        assert out.encode() == VERIFY_GOLDEN.read_bytes()

    def test_unfinished_uniform_sign_fits_are_skipped(self, capsys, monkeypatch):
        # without the kink certificate four of these fits end MaxIterations;
        # an unfinished fit has not reached the maximizer the sign statement
        # is about
        monkeypatch.setattr(binreg.mle, "_kink_ascent", lambda *args: None)
        code, out, _ = run_cli(capsys, "verify", "--theorem", "sign", "--link", "uniform",
                               "--trials", "60", "--seed", "5")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert (result["passes"], result["skipped"], result["failures"]) == (56, 4, 0)
        assert np.isfinite(result["worst_slack"])

    def test_uniform_sign_fits_at_a_kink_are_checked(self, capsys):
        # plain Newton left 18 of these 200 trials at MaxIterations
        code, out, _ = run_cli(capsys, "verify", "--theorem", "sign", "--link", "uniform",
                               "--trials", "200", "--seed", "11")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["failures"] == 0
        assert result["skipped"] <= 0

    def test_reproducible(self, capsys):
        args = ("verify", "--theorem", "zero", "--link", "logit", "--trials", "8", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSimulateCommand:
    def test_csv_to_stdout_then_fit(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "overlapping",
                               "--n", "12", "--d", "2", "--seed", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,x1,y"
        assert len(lines) == 13
        path = tmp_path / "sim.csv"
        path.write_text(out)
        code2, out2, _ = run_cli(capsys, "fit", "--csv", str(path))
        assert code2 == 0
        assert json.loads(out2)["status"] == "Converged"

    def test_gaussian_kind(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "gaussian", "--n", "8",
                               "--seed", "3", "--mu0", "0,0", "--mu1", "1,0")
        assert code == 0
        assert out.splitlines()[0] == "x0,x1,y"


class TestProcessState:
    def test_commands_leave_numpy_and_warning_state_alone(self, capsys, csvs):
        # the benchmark checks outputs in the process that ran the command,
        # so a leaked np.seterr or warning filter would change those checks
        errors, filters = np.geterr(), list(warnings.filters)
        for argv in (["fit", "--csv", str(SIGN_WITNESS), "--link", "uniform"],
                     ["fit", "--csv", csvs["sep"], "--force"],
                     ["overlap", "--csv", csvs["olap"]],
                     ["verify", "--trials", "2", "--seed", "3"]):
            run_cli(capsys, *argv)
            assert np.geterr() == errors
            assert warnings.filters == filters


# The benchmark's setup code, then `binreg overlap` and `binreg fit` for every
# link but probit on one CSV, then probit: prints the scipy modules loaded
# after each stage and probit's exit code and stdout
COLD_START = """
import contextlib, io, json, sys
import binreg, binreg.cli; binreg.cli.build_parser()

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = binreg.cli.main(list(argv))
    return code, out.getvalue()

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

csv = sys.stdin.read()
seen = {"setup": scipy_modules()}
codes = [run("overlap", "--csv", csv)[0]]
codes += [run("fit", "--csv", csv, "--link", link)[0]
          for link in ("logit", "cloglog", "uniform", "cauchit")]
seen["other links"] = scipy_modules()
probit = run("fit", "--csv", csv, "--link", "probit")
seen["probit"] = scipy_modules()
print(json.dumps({"seen": seen, "codes": codes, "probit": probit}))
"""


class TestColdStart:
    def test_only_probit_loads_scipy(self, fresh_python):
        # scipy.special was half of a `binreg` launch's import time; only the
        # probit link needs it
        path = DATA / "offset_overlapping_d2.csv"
        got = json.loads(fresh_python(COLD_START, str(path)))
        assert got["seen"]["setup"] == [] and got["seen"]["other links"] == []
        assert got["codes"] == [0] * 5
        assert "scipy.special" in got["seen"]["probit"]
        code, out = got["probit"]
        line = json.dumps({"case": f"{path.name} probit", "code": code, "stdout": out}) + "\n"
        assert line in FIT_GOLDEN.read_text().splitlines(keepends=True)


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--csv", "/does/not/exist.csv")
        assert code == 1
        assert "error" in err.lower()

    def test_bad_cell_reports_position(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,0\nbogus,1\n")
        code, _, err = run_cli(capsys, "fit", "--csv", str(p))
        assert code == 1
        assert "row 2" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        # --tol inf reported Converged at beta = 0, --tol nan MaxIterations
        code, out, err = run_cli(capsys, "fit", "--csv", str(DATA / "offset_overlapping_d2.csv"),
                                 "--tol", tol)
        assert code == 1
        assert out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("flags, named", [
        (("--theorem", "zero", "--trials", "-5"), "--trials"),
        (("--theorem", "zero", "--trials", "0"), "--trials"),
        (("--theorem", "angle", "--trials", "1", "--dims", "0"), "--dims"),
        (("--theorem", "angle", "--trials", "1", "--dims", "2,-1"), "--dims"),
        (("--theorem", "angle", "--trials", "1", "--dims", "2,x"), "--dims"),
    ])
    def test_verify_must_check_something(self, capsys, flags, named):
        # no trials printed suites of "trials": 0 and passed; d = 0 failed
        # deep inside the generator
        code, out, err = run_cli(capsys, "verify", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("flags", [
        ("--kind", "gaussian", "--n", "0"),
        ("--kind", "gaussian", "--n", "1"),
        ("--kind", "gaussian", "--sigma", "-1"),
        ("--kind", "gaussian", "--sigma", "nan"),
        ("--kind", "separated", "--d", "0", "--n", "5"),
    ])
    def test_simulate_rejects_what_it_cannot_draw(self, capsys, flags):
        # the first and the last ended in an IndexError traceback, and a
        # negative sigma was accepted
        code, out, err = run_cli(capsys, "simulate", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--kind", "balanced", "--d", "-1", "--n", "5"),
        ("--kind", "overlapping", "--d", "0"),
        ("--kind", "balanced", "--d", "0"),
    ])
    def test_overlapping_kinds_need_a_predictor(self, capsys, flags):
        # d = -1 ended in an OverflowError traceback from the draws, and d = 0
        # in a shape error that named neither --d nor the generator
        code, out, err = run_cli(capsys, "simulate", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "d >= 1" in err and "Traceback" not in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--nope")
        assert code == 1
        assert "usage" in err.lower()

    def test_plain_output(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(OVERLAPPING)
        code, out, _ = run_cli(capsys, "overlap", "--csv", str(p), "--plain")
        assert code == 0
        assert "verdict: Overlap" in out
