"""Stable-law CDF: transform, Kanter integral, defining identity, tail laws."""

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc, gamma as gamma_func

from coagsim.stablecdf import (
    StableProfile,
    WTable,
    _Pchip,
    t3e4_residual,
    w_deriv,
    w_eval,
    w_laplace,
)

# Frozen oracle: mpmath Talbot inversion of exp(-c p^a)/p and exp(-c p^a)
# at 40 digits; regenerate with tests/oracles/gen_stable_oracle.py.  The
# Y = 1e7 points probe the boundary layer of Kanter's integrand at phi -> pi.
W_ORACLE = {
    (0.3, 0.2): 0.00030400644043390714,
    (0.3, 1.0): 0.011698414541810475,
    (0.3, 25.0): 0.23500939109573962,
    (0.3, 1000.0): 0.64388648535638694,
    (0.7, 0.5): 3.3848883681820201e-38,
    (0.7, 2.0): 0.0088700819959167285,
    (0.7, 5.0): 0.32904234315246248,
    (0.7, 100.0): 0.9391677129460636,
    (0.7, 10000.0): 0.99772970013905445,
    (0.7, 10000000.0): 0.99998201496249775,
}
WPRIME_ORACLE = {
    (0.3, 1.0): 0.018950265698607299,
    (0.3, 29.0): 0.0039923234004381625,
    (0.3, 10000.0): 5.3378834473835499e-6,
    (0.7, 5.0): 0.098507974363516702,
    (0.7, 31.0): 0.0038514471350077204,
    (0.7, 300.0): 6.5453389083931877e-5,
    (0.7, 10000000.0): 1.2589798387076079e-12,
}


def profile(a):
    return StableProfile(a=a)


class TestTransform:
    def test_value(self):
        # a = 1/2: c = Gamma(1/2)/(1/2) = 2 sqrt(pi)
        p = profile(0.5)
        assert w_laplace(p, 1.0) == pytest.approx(np.exp(-2.0 * np.sqrt(np.pi)), rel=1e-15)

    def test_small_p_limit(self):
        # p * What(p) -> 1 as p -> 0 (total mass of the CDF's derivative);
        # the approach is O(p^a), so probe far down.
        p = profile(0.4)
        assert 1e-12 * w_laplace(p, 1e-12) == pytest.approx(1.0, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            w_laplace(profile(0.5), 0.0)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            StableProfile(a=1.0)
        with pytest.raises(ValueError):
            StableProfile(a=0.0)


class TestClosedFormHalf:
    """At a = 1/2 the transform inverts in closed form:
    W(Y) = erfc(sqrt(pi / Y)), W'(Y) = Y^(-3/2) exp(-pi / Y)."""

    YS = np.geomspace(0.3, 3e4, 20)

    def test_cdf_matches_erfc(self):
        prof = profile(0.5)
        vals = w_eval(prof, self.YS)
        expect = erfc(np.sqrt(np.pi / self.YS))
        np.testing.assert_allclose(vals, expect, rtol=0.0, atol=1e-9)
        # pointwise relative agreement is far tighter than 1e-6
        np.testing.assert_allclose(vals, expect, rtol=1e-6)

    def test_density_matches_closed_form(self):
        prof = profile(0.5)
        vals = w_deriv(prof, self.YS)
        expect = self.YS**-1.5 * np.exp(-np.pi / self.YS)
        np.testing.assert_allclose(vals, expect, rtol=1e-8)


class TestOracleValues:
    @pytest.mark.parametrize("key", sorted(W_ORACLE))
    def test_cdf(self, key):
        a, Y = key
        assert w_eval(profile(a), Y) == pytest.approx(W_ORACLE[key], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("key", sorted(WPRIME_ORACLE))
    def test_density(self, key):
        a, Y = key
        assert w_deriv(profile(a), Y) == pytest.approx(WPRIME_ORACLE[key], rel=1e-9)

    def test_density_in_boundary_layer(self):
        # W'(1e7) = 1.3e-12 sits under approx's default abs tolerance of
        # 1e-12, so check it relative only: at a = 0.7 the integrand peaks
        # at pi - phi ~ sin(pi a) c Y^(-a) = 4e-5 here
        key = (0.7, 10000000.0)
        assert w_deriv(profile(0.7), 1e7) == pytest.approx(WPRIME_ORACLE[key], rel=1e-9, abs=0.0)


class TestShape:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_monotone_and_bounded(self, a):
        prof = profile(a)
        Ys = np.geomspace(0.05, 1e7, 400)
        vals = w_eval(prof, Ys)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-11)
        # the tail approaches 1 like Y^(-a)/a, slowly for small a
        assert vals[-1] > 1.0 - 2.0 * 1e7**-a / a

    def test_zero_at_origin(self):
        prof = profile(0.4)
        assert w_eval(prof, 0.0) == 0.0
        assert w_eval(prof, -3.0) == 0.0
        assert w_eval(prof, 1e-9) < 1e-6

    def test_guarded_zone_returns_zero(self):
        # a = 0.7: W(0.5) = 3.4e-38 is still resolved to full relative
        # accuracy; at Y = 0.05 exp(-z A) underflows at every node, so W and
        # W' are exactly 0 (true W below 1e-7700)
        assert w_eval(profile(0.7), 0.5) == pytest.approx(W_ORACLE[(0.7, 0.5)], rel=1e-9)
        assert w_eval(profile(0.7), 0.05) == 0.0
        assert w_deriv(profile(0.7), 0.05) == 0.0


class TestLaplaceRoundTrip:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_round_trip(self, a, p):
        # int_0^inf e^(-pY) W(Y) dY recovers exp(-c p^a)/p; integrate
        # 1/p - int e^(-pY) (1 - W) dY for a decaying integrand.
        prof = profile(a)

        def tail_integrand(Y):
            return np.exp(-p * Y) * (1.0 - w_eval(prof, Y))

        val, _ = integrate.quad(tail_integrand, 0.0, np.inf, limit=200, epsabs=1e-10)
        recovered = 1.0 / p - val
        assert recovered == pytest.approx(w_laplace(prof, p), rel=1e-5)


class TestDefiningIdentity:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_residual_small(self, a):
        prof = profile(a)
        for Y in np.geomspace(3.0, 300.0, 4):
            assert t3e4_residual(prof, Y) < 1e-4, f"a={a} Y={Y}"

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            t3e4_residual(profile(0.7), 0.05)  # W and W' underflow to 0


class TestTailLaws:
    def test_cdf_tail_level(self):
        # 1 - W(Y) ~ Y^(-a)/a at Y = 1e6, a = 0.4, within 2%
        prof = profile(0.4)
        Y = 1e6
        assert (1.0 - w_eval(prof, Y)) == pytest.approx(Y**-0.4 / 0.4, rel=2e-2)

    @pytest.mark.parametrize("a,tol", [(0.4, 0.05), (0.5, 0.02), (0.7, 0.02)])
    def test_density_tail_exponent(self, a, tol):
        # log-log fit of W' over [1e2, 1e4]; slope -(1+a) within tol.
        # The Tauberian correction decays like Y^(-a), so small a needs
        # the looser tolerance.
        prof = profile(a)
        Ys = np.geomspace(1e2, 1e4, 13)
        slope = np.polyfit(np.log(Ys), np.log(w_deriv(prof, Ys)), 1)[0]
        assert abs(slope + (1.0 + a)) / (1.0 + a) < tol

    @pytest.mark.parametrize("a,tol", [(0.4, 0.06), (0.5, 0.02), (0.7, 0.02)])
    def test_cdf_tail_exponent(self, a, tol):
        prof = profile(a)
        Ys = np.geomspace(1e2, 1e4, 13)
        slope = np.polyfit(np.log(Ys), np.log(1.0 - w_eval(prof, Ys)), 1)[0]
        assert abs(slope + a) / a < tol

    def test_density_tail_constant_normalized(self):
        # Y^(1+a) W'(Y) -> c sin(pi a) Gamma(1+a) / pi = 1 by the
        # reflection formula; checked far out where corrections are small.
        for a in (0.5, 0.7):
            prof = profile(a)
            cst = prof.c * np.sin(np.pi * a) * gamma_func(1.0 + a) / np.pi
            assert cst == pytest.approx(1.0, rel=1e-12)
            assert 1e6 ** (1.0 + a) * w_deriv(prof, 1e6) == pytest.approx(1.0, rel=2e-2)


class TestWTable:
    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_matches_direct(self, a):
        prof = profile(a)
        table = WTable(prof)
        Ys = np.geomspace(0.5 if a == 0.3 else 2.0, 5e7, 60)
        direct = w_eval(prof, Ys)
        np.testing.assert_allclose(table(Ys), direct, atol=5e-6)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_pchip_matches_scipy(self, a):
        # the default table grid, kept whole: its run of W = 0 exercises
        # the flat-segment rule as well as the ends
        x = np.log(np.geomspace(1e-6 if a <= 0.5 else 0.05, 1e8, 1200))
        y = w_eval(profile(a), np.exp(x))
        assert y[0] == 0.0 and y[-1] > 0.98
        xs = np.linspace(x[0], x[-1], 20_001)
        with np.errstate(over="ignore", divide="ignore"):  # scipy's harmonic mean at tiny slopes
            expect = PchipInterpolator(x, y)(xs)
        np.testing.assert_allclose(_Pchip(x, y)(xs), expect, rtol=0.0, atol=1e-15)

    def test_pchip_uneven_knots_match_scipy(self):
        # the cells are found by binary search, so any increasing knots do
        x = np.cumsum(np.random.default_rng(3).uniform(0.01, 1.0, 40))
        y = np.tanh(x - x.mean())
        xs = np.linspace(x[0], x[-1], 5001)
        np.testing.assert_allclose(_Pchip(x, y)(xs), PchipInterpolator(x, y)(xs), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    def test_inverse_is_largest_preimage(self, a):
        # inverse(w) is the largest Y with table(Y) <= w: at the knot
        # values, at the values in mid-cell, at tail-law values, and below
        # the first knot value (W >= 1e-10), where it is the grid's start
        table = WTable(profile(a))
        ys = table.ys
        cases = {
            "below": np.array([0.0, 1e-11]),
            "knots": table._interp.y,
            "mid-cell": table(np.sqrt(ys[:-1] * ys[1:])),
            "tail": table(ys[-1] * np.geomspace(1.0, 100.0, 50)),
        }
        for name, w in cases.items():
            Y = table.inverse(w)
            assert np.all(table(Y) <= w), name
            # near 1 the doubles cannot resolve W's rise over a 1e-9 step
            # (at a = 0.9 and Y = 1e8 it is 6e-17), so the tail takes a wider one
            step = 1e-6 if name == "tail" else 1e-9
            assert np.all(w < table(Y * (1.0 + step))), name
        np.testing.assert_array_equal(table.inverse(cases["below"]), ys[0])
        tail = cases["tail"][cases["tail"] > table(ys[-1])]
        np.testing.assert_allclose(table.inverse(tail), (a * (1.0 - tail)) ** (-1.0 / a), rtol=1e-15)

    @pytest.mark.parametrize("a", [0.25, 0.3, 0.5, 0.7, 0.9])
    def test_tail_splice_is_monotone(self, a):
        # above the last knot the tail law 1 - Y^(-a)/a can start below the
        # knot value (by 6.7e-4 at a = 0.25); the table holds the knot value
        # until the law reaches it, so it never drops at the splice
        table = WTable(profile(a))
        Ys = np.geomspace(1e7, 1e9, 4001)
        vals = table(Ys)
        assert np.all(np.diff(vals) >= 0.0)
        knot, law = table._interp.y[-1], 1.0 - table.ys[-1] ** -a / a
        if law < knot:  # w inside the old gap [law, knot)
            w = np.linspace(law, knot, 9)[:-1]
            Y = table.inverse(w)
            assert np.all(table(Y) <= w)
            # every Y below inverse(w) passes too: the preimage is an interval
            assert np.all((vals <= w[:, None]) | (Ys > Y[:, None]))

    def test_monotone(self):
        table = WTable(profile(0.5))
        Ys = np.geomspace(1e-7, 1e9, 5000)
        vals = table(Ys)
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
