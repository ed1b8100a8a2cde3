import json
import math
from decimal import Context, Decimal

import numpy as np
import pytest
from scipy import special

from binreg import (GridSpec, LinkFamily, OutOfRange, certify_log_concavity,
                    get_link)

ALL_NAMES = ["logit", "probit", "cloglog", "cauchit", "uniform"]
CERTIFIED_NAMES = ["logit", "probit", "cloglog", "uniform"]


def bisect_inverse(link, p, lo=-60.0, hi=60.0):
    """Independent inverse: plain bisection on the implemented CDF."""
    lo = max(lo, link.support[0])
    hi = min(hi, link.support[1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(link.cdf(mid)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEval:
    def test_logit_half(self):
        assert float(get_link("logit").cdf(0.0)) == 0.5

    def test_probit_half(self):
        assert float(get_link("probit").cdf(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_cloglog_at_zero(self):
        assert float(get_link("cloglog").cdf(0.0)) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_range_and_monotonicity(self, name):
        link = get_link(name)
        z = np.linspace(-30, 30, 2001)
        p = np.asarray(link.cdf(z))
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.all(np.diff(p) >= 0.0)
        # tail limits; the wide points accommodate cauchit's heavy tails
        assert float(link.cdf(-1000.0)) < 1e-3
        assert float(link.cdf(1000.0)) > 1 - 1e-3

    def test_logit_cdf_matches_the_three_exp_formula_bit_for_bit(self):
        # the formula Logit.cdf used before it took one exp(-|z|) per value
        def three_exp_cdf(z):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))

        rng = np.random.default_rng(13)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                   709.78, -709.78, 36.7, -36.7, 5e-324, -5e-324, 1e308, -1e308]
        z = np.concatenate([special, rng.normal(scale=3.0, size=20000),
                            rng.uniform(-800.0, 800.0, size=20000),
                            np.ldexp(1.0, rng.integers(-1074, 1024, size=2000))
                            * rng.choice([-1.0, 1.0], size=2000)])
        new, old = np.asarray(get_link("logit").cdf(z)), three_exp_cdf(z)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        keep = ~np.isnan(old)
        assert np.array_equal(new[keep].view(np.uint64), old[keep].view(np.uint64))


class TestLogForms:
    def test_logit_at_zero(self):
        link = get_link("logit")
        assert float(link.log_cdf(0.0)) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_logit_deep_tail_no_underflow(self):
        # true value is -800 - log1p(exp(-800)); the correction is ~1e-348,
        # far below one ulp of 800, so -800.0 is the correctly rounded result
        assert float(get_link("logit").log_cdf(-800.0)) == -800.0

    def test_logit_log_forms_within_one_ulp(self):
        # log G(z) = -log(1 + exp(-z)) to 400 digits, enough to keep
        # exp(-750) next to 1; log(1 - G(z)) = log G(-z) and
        # log g(z) = log G(z) + log G(-z)
        ctx = Context(prec=400, Emax=10**7, Emin=-10**7)

        def log_g(v):
            return -ctx.ln(ctx.add(1, ctx.exp(ctx.minus(Decimal(v)))))

        rng = np.random.default_rng(17)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7,
                   709.78, -709.78, 745.0, -745.0, 1e5, -1e5]
        z = np.concatenate([special, rng.normal(scale=5.0, size=60),
                            rng.uniform(-750.0, 750.0, size=60),
                            np.exp(rng.uniform(math.log(1e-300), math.log(1e5), size=60))
                            * rng.choice([-1.0, 1.0], size=60)])
        cdf = [log_g(v) for v in z.tolist()]
        sf = [log_g(-v) for v in z.tolist()]
        link = get_link("logit")
        for got, want in [(link.log_cdf(z), cdf), (link.log_sf(z), sf),
                          (link.log_pdf(z), [a + b for a, b in zip(cdf, sf)])]:
            # float() rounds the reference correctly; on normal-range
            # outputs the result is that float or one of its neighbours
            want = np.array([float(w) for w in want])
            normal = np.abs(want) >= np.finfo(float).tiny
            assert normal.sum() > 0.9 * z.size
            steps = np.abs(got[normal].view(np.int64) - want[normal].view(np.int64))
            assert steps.max() <= 1

    def test_logit_log_forms_at_infinity_and_nan(self):
        link = get_link("logit")
        z = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(all="raise"):
            cdf, sf, pdf = link.log_cdf(z), link.log_sf(z), link.log_pdf(z)
        assert cdf[:2].tolist() == [0.0, -np.inf] and np.isnan(cdf[2])
        assert sf[:2].tolist() == [-np.inf, 0.0] and np.isnan(sf[2])
        assert pdf[:2].tolist() == [-np.inf, -np.inf] and np.isnan(pdf[2])

    def test_uniform_outside_support(self):
        link = get_link("uniform")
        assert float(link.log_cdf(-0.5)) == -math.inf
        assert float(link.log_sf(1.5)) == -math.inf
        assert float(link.log_cdf(2.0)) == 0.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_exp_log_cdf_matches_cdf(self, name):
        link = get_link(name)
        z = np.linspace(-12, 12, 481)
        p = np.asarray(link.cdf(z), dtype=float)
        lp = np.asarray(link.log_cdf(z), dtype=float)
        mask = p > 1e-300
        assert np.all(np.abs(np.exp(lp[mask]) - p[mask]) <= 1e-12 * p[mask])

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_exp_log_sf_matches_complement(self, name):
        # the reference 1 - cdf carries ~eps absolute cancellation error,
        # hence the small absolute floor in the tolerance
        link = get_link(name)
        z = np.linspace(-8, 8, 321)
        sf = 1.0 - np.asarray(link.cdf(z), dtype=float)
        lsf = np.asarray(link.log_sf(z), dtype=float)
        mask = sf > 1e-8
        err = np.abs(np.exp(lsf[mask]) - sf[mask])
        assert np.all(err <= 1e-12 * sf[mask] + 5e-16)


def special_and_random_values(seed):
    """Signed zeros, infinities, NaN, the exp underflow edge, subnormals and
    a wide random sample."""
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
               5e-324, -5e-324, 1e-310, -1e-310, 0.5, 1.0, 1.5, -0.5, 1e308, -1e308]
    return np.concatenate([special, rng.normal(scale=3.0, size=3000),
                           rng.uniform(-800.0, 800.0, size=3000),
                           rng.uniform(-0.5, 1.5, size=1000),
                           np.ldexp(1.0, rng.integers(-1074, 1024, size=1000))
                           * rng.choice([-1.0, 1.0], size=1000)])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLogTerms:
    """``log_terms`` is the two-branch form np.where(y == 1, log_cdf,
    log_sf), bit for bit, however a link computes it."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_the_two_branch_form(self, name):
        link = get_link(name)
        values = special_and_random_values(19)
        m = values.size
        # every value with both labels, then with random labels
        z = np.tile(values, 3)
        labels = np.concatenate([np.zeros(m, int), np.ones(m, int),
                                 np.random.default_rng(23).integers(0, 2, size=m)])
        stacked = np.stack([z, -z[::-1], np.roll(z, 7)])
        with np.errstate(all="ignore"):
            for y in (labels, labels.astype(bool)):
                for zz in (z, stacked):
                    want = np.where(y == 1, link.log_cdf(zz), link.log_sf(zz))
                    assert same_bits(link.log_terms(zz, y), want)

    def test_probit_log_sf_is_the_removed_form(self):
        # the form Probit.log_sf had before it was inherited as log_cdf(-z)
        z = special_and_random_values(29)
        assert same_bits(get_link("probit").log_sf(z), special.log_ndtr(-np.asarray(z, dtype=float)))

    def test_cauchit_log_sf_is_the_removed_form(self):
        # the form Cauchit.log_sf had before it was inherited
        link = get_link("cauchit")
        z = special_and_random_values(31)
        with np.errstate(all="ignore"):
            assert same_bits(link.log_sf(z), link.log_cdf(-np.asarray(z, dtype=float)))


def probit_arguments():
    """z: ``special_and_random_values`` and +-40, where ndtr rounds to 0 or
    1 but log_ndtr stays finite. p: the subnormal and near-1 edges of (0, 1)
    and a random sample."""
    z = np.concatenate([special_and_random_values(37), [40.0, -40.0]])
    p = np.concatenate([[5e-324, 1e-310, 2.0 ** -1022, 1e-300, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                        np.random.default_rng(41).uniform(size=500)])
    return z, p


def scipy_probit(z, p):
    return {"cdf": special.ndtr(z), "log_cdf": special.log_ndtr(z),
            "log_sf": special.log_ndtr(-z), "inverse": special.ndtri(p)}


# Calls Probit's four scipy-backed methods in a new interpreter, the named one
# first, so that the call that imports scipy.special is the one checked.
# Reads [first, z hex, p hex] and prints each method's float64 bytes in hex.
PROBIT_FIRST_CALL = """
import json, sys
import numpy as np
from binreg import get_link
first, z, p = json.load(sys.stdin)
z, p = np.frombuffer(bytes.fromhex(z)), np.frombuffer(bytes.fromhex(p))
probit = get_link("probit")
calls = {"cdf": lambda: probit.cdf(z), "log_cdf": lambda: probit.log_cdf(z),
         "log_sf": lambda: probit.log_sf(z),
         "inverse": lambda: np.array([probit.inverse(float(q)) for q in p])}
assert "scipy.special" not in sys.modules
out = {first: calls[first]()}
assert "scipy.special" in sys.modules
out.update((name, call()) for name, call in calls.items() if name != first)
print(json.dumps({name: np.asarray(v, dtype=float).tobytes().hex() for name, v in out.items()}))
"""


class TestProbitIsScipy:
    """Probit's cdf, log_cdf, log_sf and inverse are scipy.special's ndtr,
    log_ndtr at +-z and ndtri, bit for bit, including the call on which
    ``links`` first imports scipy.special."""

    def test_in_process(self):
        z, p = probit_arguments()
        probit = get_link("probit")
        got = {"cdf": probit.cdf(z), "log_cdf": probit.log_cdf(z), "log_sf": probit.log_sf(z),
               "inverse": [probit.inverse(float(q)) for q in p]}
        for name, want in scipy_probit(z, p).items():
            assert same_bits(got[name], want), name

    @pytest.mark.parametrize("first", ["cdf", "log_cdf", "log_sf", "inverse"])
    def test_first_call_in_a_fresh_interpreter(self, fresh_python, first):
        z, p = probit_arguments()
        out = json.loads(fresh_python(PROBIT_FIRST_CALL,
                                      json.dumps([first, z.tobytes().hex(), p.tobytes().hex()])))
        for name, want in scipy_probit(z, p).items():
            assert same_bits(np.frombuffer(bytes.fromhex(out[name])), want), name


class TestDensity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("h", [1e-4, 1e-5])
    def test_pdf_matches_centered_difference(self, name, h):
        link = get_link(name)
        if name == "uniform":
            z = np.linspace(0.05, 0.95, 37)  # keep 2h clear of the kinks
        else:
            z = np.linspace(-3.0, 3.0, 61)
        fd = (np.asarray(link.cdf(z + h)) - np.asarray(link.cdf(z - h))) / (2 * h)
        err = np.abs(np.asarray(link.pdf(z)) - fd)
        assert np.all(err <= 5.0 * h * h + 1e-11)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pdf_nonnegative(self, name):
        link = get_link(name)
        z = np.linspace(-20, 20, 801)
        assert np.all(np.asarray(link.pdf(z)) >= 0.0)


class TestInverse:
    def test_logit_median(self):
        assert get_link("logit").inverse(0.5) == 0.0

    def test_cloglog_roundtrip_at_zero(self):
        assert get_link("cloglog").inverse(1.0 - math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_probit_upper_quantile_against_bisection(self):
        link = get_link("probit")
        z = link.inverse(0.975)
        assert z == pytest.approx(bisect_inverse(link, 0.975), abs=1e-9)
        assert z == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("p", [1e-9, 1e-5, 0.1, 0.5, 0.9, 1 - 1e-5, 1 - 1e-9])
    def test_forward_contract(self, name, p):
        link = get_link(name)
        z = link.inverse(p)
        assert abs(float(link.cdf(z)) - p) <= 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_roundtrip_identity_on_grid(self, name):
        # restricted to probabilities that retain enough precision in a
        # double to identify z (the far tails are information-lossy)
        link = get_link(name)
        z = np.arange(-12.0, 12.0, 0.25)
        p = np.asarray(link.cdf(z), dtype=float)
        mask = np.minimum(p, 1 - p) >= 1e-3
        for zi, pi in zip(z[mask], p[mask]):
            assert abs(link.inverse(float(pi)) - zi) <= 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_out_of_range(self, p):
        with pytest.raises(OutOfRange):
            get_link("logit").inverse(p)

    def test_default_bisection_used_without_closed_form(self):
        class Squashed(LinkFamily):
            name = "squashed"

            def cdf(self, z):
                z = np.asarray(z, dtype=float)
                with np.errstate(over="ignore"):
                    return 1.0 / (1.0 + np.exp(-0.7 * z))

        link = Squashed()
        for p in (0.03, 0.4, 0.97):
            assert abs(float(link.cdf(link.inverse(p))) - p) <= 1e-12


class TestCertification:
    @pytest.mark.parametrize("name", CERTIFIED_NAMES)
    def test_certified_links(self, name):
        link = get_link(name)
        assert link.claims_log_concave
        cert = certify_log_concavity(link)
        assert cert.verdict == "certified"
        assert cert.witness is None
        assert cert.max_violation_neg_log_cdf <= cert.tolerance
        assert cert.max_violation_neg_log_sf <= cert.tolerance

    def test_cauchit_refuted_with_real_witness(self):
        link = get_link("cauchit")
        assert not link.claims_log_concave
        cert = certify_log_concavity(link)
        assert cert.verdict == "refuted"
        which, z1, z2, z3 = cert.witness
        values = {
            "neg_log_cdf": lambda z: -float(link.log_cdf(z)),
            "neg_log_sf": lambda z: -float(link.log_sf(z)),
        }[which]
        defect = 2 * values(z2) - values(z1) - values(z3)
        assert defect > cert.tolerance
        assert z1 < z2 < z3

    def test_flat_link_is_inconclusive(self):
        class Flat(LinkFamily):
            name = "flat"

            def cdf(self, z):
                return np.full_like(np.asarray(z, dtype=float), 0.5)

            def log_cdf(self, z):
                return np.full_like(np.asarray(z, dtype=float), math.log(0.5))

            def log_sf(self, z):
                return np.full_like(np.asarray(z, dtype=float), math.log(0.5))

        cert = certify_log_concavity(Flat())
        assert cert.verdict == "inconclusive"

    def test_custom_grid_spec(self):
        cert = certify_log_concavity(get_link("logit"), GridSpec(lo=-4, hi=4, step=0.05))
        assert cert.verdict == "certified"
        assert cert.grid.min() >= -4.0 and cert.grid.max() <= 4.0
