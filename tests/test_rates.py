"""Tests for rate functions, Legendre transforms, and Laplace verifiers."""

import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.interpolate import CubicSpline

from pradial.distributions import ParameterError
from pradial.measures import MeasureRep, log_energy, moment_p
from pradial.rates import (MOMENT_TOL, RateFnSpec, analytic_scaled_cgf,
                           breitung_check, laplace_check,
                           legendre_biconjugate, legendre_transform,
                           log_energy_constant, rate, rate_beta,
                           rate_beta_argmin, rate_cone, scaled_cgf_estimate,
                           scaled_family_cone_minimum)
from pradial.rng import RngStream


class TestRateFnSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RateFnSpec(target="nope", p=2.0)
        with pytest.raises(ParameterError):
            RateFnSpec(target="beta-euclid", p=-1.0)
        with pytest.raises(ParameterError):
            RateFnSpec(target="beta-euclid", p=2.0, alpha=-0.5)
        with pytest.raises(ParameterError):
            RateFnSpec(target="beta-euclid", p=2.0, c=0.1)
        with pytest.raises(ParameterError):
            RateFnSpec(target="beta-euclid", p=2.0, ktheta="sometimes")
        with pytest.raises(ParameterError):
            RateFnSpec(target="beta-H", p=2.0, beta=3.0)

    def test_gates(self):
        assert RateFnSpec(target="beta-euclid", p=4.0).gate == 0.25
        assert RateFnSpec(target="beta-H", p=2.0, beta=2.0).gate == 0.5
        assert RateFnSpec(target="beta-M", p=2.0, beta=2.0).gate == 1.0


class TestBetaRates:
    def test_domain(self):
        spec = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0)
        for x in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                rate_beta(x, spec)

    def test_zero_at_minimizer(self):
        # the rate vanishes at x* = g/(g+alpha) and nowhere else
        for target, kwargs, g in (
                ("beta-euclid", {}, 0.5),
                ("beta-H", {"beta": 2.0}, 0.5),
                ("beta-M", {"beta": 2.0}, 1.0)):
            spec = RateFnSpec(target=target, p=2.0, alpha=1.0, **kwargs)
            xstar = g / (g + 1.0)
            assert rate_beta(xstar, spec) == pytest.approx(0.0, abs=1e-12)
            assert rate_beta(xstar + 0.1, spec) > 0
            assert rate_beta(xstar - 0.1, spec) > 0

    def test_endpoints_infinite_critical(self):
        spec = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0)
        assert rate_beta(0.0, spec) == np.inf
        assert rate_beta(1.0, spec) == np.inf

    def test_alpha_zero_branch(self):
        spec = RateFnSpec(target="beta-euclid", p=2.0, alpha=0.0, c=-0.3)
        # -g log x - c
        assert rate_beta(0.5, spec) == pytest.approx(
            -0.5 * math.log(0.5) + 0.3, abs=1e-12)
        assert rate_beta(1.0, spec) == pytest.approx(0.3, abs=1e-12)
        assert rate_beta(0.0, spec) == np.inf

    def test_ktheta_greater_degenerate(self):
        spec = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0,
                          ktheta="greater")
        assert rate_beta(1.0, spec) == 0.0
        assert rate_beta(0.7, spec) == np.inf

    def test_c_shift(self):
        s0 = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0)
        s1 = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0, c=-0.2)
        assert rate_beta(0.4, s1) == pytest.approx(rate_beta(0.4, s0) + 0.2,
                                                   abs=1e-12)

    def test_family_dispatch(self):
        # the three families differ only through the gate g
        x = 0.6
        e = rate_beta(x, RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0))
        h = rate_beta(x, RateFnSpec(target="beta-H", p=2.0, beta=2.0,
                                    alpha=1.0))
        m = rate_beta(x, RateFnSpec(target="beta-M", p=4.0, beta=2.0,
                                    alpha=1.0))
        assert e == pytest.approx(h, abs=1e-12)
        assert e == pytest.approx(m, abs=1e-12)


class TestConeRates:
    def test_energy_constant_at_p2(self):
        # sqrt(pi) * 2 * Gamma(1) / (4 sqrt(e) Gamma(3/2)) = e^{-1/2}
        assert log_energy_constant(2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_euclid_np_itself(self):
        # H(N_p||N_p) = 0 and m_p = 1/p, so the rate is 1 - 1/p
        for p in (1.0, 2.0, 3.0):
            mu = MeasureRep.gen_gaussian_scaled(p, 1.0)
            assert rate_cone(mu, "euclid", p)[0] == pytest.approx(
                1.0 - 1.0 / p, abs=1e-7)

    def test_euclid_moment_gate(self):
        # scaled family with z > p has m_p = z/p > 1 -> +inf
        mu = MeasureRep.gen_gaussian_scaled(2.0, 3.0)
        assert rate_cone(mu, "euclid", 2.0)[0] == np.inf

    def test_scaled_family_minimum(self):
        # minimum over the scaled family sits at z = p with value
        # 1 - (1 + log p)/p
        for p in (1.0, 2.0):
            z, val = scaled_family_cone_minimum(p)
            assert z == pytest.approx(p, rel=0.05)
            # tolerance set by the 400-point log grid in z
            assert val == pytest.approx(1.0 - (1.0 + math.log(p)) / p,
                                        abs=5e-3)

    def test_cone_h_value(self):
        # beta/2 * energy + beta/(2p) * constant; arcsine on [-1,1] at
        # p = 2, beta = 2: log 2 - 1/4
        mu = MeasureRep.arcsine()
        assert rate_cone(mu, "H", 2.0, 2.0)[0] == pytest.approx(
            math.log(2.0) - 0.25, abs=1e-6)

    def test_cone_h_moment_gate(self):
        # arcsine dilated to [-2,2] has m_2 = 2 > 1
        mu = MeasureRep.arcsine(-2.0, 2.0)
        assert rate_cone(mu, "H", 2.0, 2.0)[0] == np.inf

    def test_cone_m_support_and_value(self):
        mu = MeasureRep.uniform(0.0, 1.0)
        expected = log_energy(mu) + log_energy_constant(2.0)
        assert rate_cone(mu, "M", 2.0, 2.0)[0] == pytest.approx(expected,
                                                               abs=1e-6)
        with pytest.raises(ParameterError):
            rate_cone(MeasureRep.uniform(-1.0, 1.0), "M", 2.0, 2.0)

    @pytest.mark.parametrize("family, mu, q", [
        ("euclid", MeasureRep.gen_gaussian_scaled(3.0, 1.0), 3.0),
        ("H", MeasureRep.arcsine(-1.2, 1.2), 3.0),
        ("H", MeasureRep.arcsine(-2.0, 2.0), 3.0),
        ("M", MeasureRep.uniform(0.0, 1.0), 1.5),
        ("M", MeasureRep.uniform(0.0, 3.0), 1.5),
    ])
    def test_dispatch_returns_gating_moment(self, family, mu, q):
        # one dispatcher behind the three cone rates: the moment it returns
        # is m_p, or m_{p/2} for the M family, at p = 3
        spec = RateFnSpec(target=f"cone-{family}", p=3.0, beta=4.0)
        value, m = rate_cone(mu, family, 3.0, 4.0)
        assert m == moment_p(mu, q)
        assert value == rate(spec, mu)["value"]
        assert np.isfinite(value) == (m <= 1.0)

    def test_dispatch_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            rate_cone(MeasureRep.arcsine(), "h", 2.0, 2.0)


class TestMomentGate:
    # moment_p of semicircle(2) is 1 + 5.9e-14: the tolerance must
    # absorb quadrature error at the boundary, and nothing much larger
    def test_tolerance_is_small(self):
        assert 0.0 < MOMENT_TOL <= 1e-9

    def test_hair_above_one_is_finite(self):
        # atoms at +-(1 + 1e-15): m_2 = 1.0000000000000022
        mu = MeasureRep.from_atoms([-(1.0 + 1e-15), 1.0 + 1e-15])
        assert 1.0 < moment_p(mu, 2.0) <= 1.0 + MOMENT_TOL
        out = rate(RateFnSpec(target="cone-H", p=2.0, beta=2.0), mu)
        assert np.isfinite(out["value"])
        assert out["branch"] == "finite"

    def test_beyond_tolerance_is_gated(self):
        mu = MeasureRep.from_atoms([-(1.0 + 1e-6), 1.0 + 1e-6])
        out = rate(RateFnSpec(target="cone-H", p=2.0, beta=2.0), mu)
        assert out["value"] == np.inf
        assert out["branch"] == "moment-gate"

    def test_wigner_law_is_the_zero(self, monkeypatch):
        # the semicircle of radius 2 has m_2 = 1 and is the cone-H zero;
        # its energy takes the closed form 1/4 here, since the analytic
        # quadrature costs about 50 s
        from pradial import rates
        monkeypatch.setattr(rates, "log_energy", lambda mu: 0.25)
        mu = MeasureRep.semicircle(radius=2.0)
        assert moment_p(mu, 2.0) > 1.0
        out = rate(RateFnSpec(target="cone-H", p=2.0, beta=2.0), mu)
        assert out["branch"] == "finite"
        assert out["value"] == pytest.approx(0.0, abs=1e-12)

    def test_emp_keeps_saturation_at_one(self):
        mu = MeasureRep.from_atoms([-(1.0 + 1e-15), 1.0 + 1e-15])
        spec = RateFnSpec(target="emp-H", p=2.0, beta=2.0, alpha=1.0)
        out = rate(spec, mu)
        assert out["branch"] == "moment-gate-saturated"
        assert out["value"] == np.inf


class TestRateEntryPoint:
    def test_beta_target_echoes_x(self):
        spec = RateFnSpec(target="beta-euclid", p=2.0, alpha=1.0)
        out = rate(spec, x=0.6)
        assert out == {"x": 0.6, "value": rate_beta(0.6, spec),
                       "branch": "alpha-positive"}

    @pytest.mark.parametrize("kwargs, branch", [
        ({"alpha": 1.0}, "alpha-positive"), ({"alpha": 0.0}, "alpha-zero"),
        ({"alpha": 1.0, "ktheta": "greater"}, "greater")])
    def test_beta_branches(self, kwargs, branch):
        spec = RateFnSpec(target="beta-H", p=2.0, beta=2.0, **kwargs)
        assert rate(spec, x=0.5)["branch"] == branch

    def test_missing_input(self):
        with pytest.raises(ParameterError):
            rate(RateFnSpec(target="beta-euclid", p=2.0))
        with pytest.raises(ParameterError):
            rate(RateFnSpec(target="cone-euclid", p=2.0), x=0.5)

    @pytest.mark.parametrize("mu, branch", [
        (MeasureRep.gen_gaussian_scaled(2.0, 1.0), "finite"),
        # m_2 = 3/2 is over the gate
        (MeasureRep.gen_gaussian_scaled(2.0, 3.0), "moment-gate"),
        # m_2 = 0.0467 is under it, but atoms have infinite entropy
        (MeasureRep.from_atoms([0.1, 0.2, 0.3]), "cone-infinite"),
    ])
    def test_cone_labels(self, mu, branch):
        out = rate(RateFnSpec(target="cone-euclid", p=2.0), mu)
        assert out["branch"] == branch
        assert np.isfinite(out["value"]) == (branch == "finite")

    def test_argmin(self):
        spec = RateFnSpec(target="beta-M", p=2.0, beta=2.0, alpha=1.0)
        assert rate_beta_argmin(spec) == 0.5
        for kwargs in ({"alpha": 0.0}, {"alpha": 1.0, "ktheta": "greater"}):
            spec = RateFnSpec(target="beta-euclid", p=2.0, c=-0.2, **kwargs)
            assert rate_beta_argmin(spec) == 1.0
            assert rate_beta(1.0, spec) == min(
                rate_beta(x, spec) for x in np.linspace(0.0, 1.0, 101))


class TestEmpRates:
    def test_alpha_zero_is_cone_minus_c(self):
        mu = MeasureRep.gen_gaussian_scaled(2.0, 1.0)
        spec = RateFnSpec(target="emp-euclid", p=2.0, alpha=0.0, c=-0.4)
        out = rate(spec, mu)
        assert out["branch"] == "alpha-zero"
        assert out["value"] == pytest.approx(
            rate_cone(mu, "euclid", 2.0)[0] + 0.4, abs=1e-9)

    def test_alpha_positive_composition(self):
        mu = MeasureRep.gen_gaussian_scaled(2.0, 1.0)
        spec = RateFnSpec(target="emp-euclid", p=2.0, alpha=1.0, c=-0.1)
        out = rate(spec, mu)
        assert out["branch"] == "alpha-positive"
        g, alpha, m = 0.5, 1.0, moment_p(mu, 2.0)
        expected = (rate_cone(mu, "euclid", 2.0)[0] + g * math.log(g)
                    - (g + alpha) * math.log(g + alpha)
                    - alpha * math.log((1.0 - m) / alpha) + 0.1)
        assert out["value"] == pytest.approx(expected, abs=1e-9)
        assert sum(out["summands"].values()) == pytest.approx(out["value"],
                                                              abs=1e-12)

    def test_moment_gate_saturated(self):
        # m_p = z/p > 1 is outside the alpha > 0 domain
        mu = MeasureRep.gen_gaussian_scaled(2.0, 2.5)
        spec = RateFnSpec(target="emp-euclid", p=2.0, alpha=1.0)
        out = rate(spec, mu)
        assert out["branch"] == "moment-gate-saturated"
        assert out["value"] == np.inf

    def test_cone_infinite_branch(self):
        mu = MeasureRep.from_atoms([0.1, 0.2])  # atoms: entropy infinite
        spec = RateFnSpec(target="emp-euclid", p=2.0, alpha=1.0)
        out = rate(spec, mu)
        assert out["branch"] == "cone-infinite"
        assert out["value"] == np.inf

    def test_emp_m_uses_half_exponent_moment(self):
        # uniform on [0, 3] has m_1 = 1.5 > 1 -> saturated for emp-M at p=2
        mu = MeasureRep.uniform(0.0, 3.0)
        spec = RateFnSpec(target="emp-M", p=2.0, beta=2.0, alpha=1.0)
        assert rate(spec, mu)["branch"] == "moment-gate-saturated"


def _legendre_reference(t, f, x):
    """The per-point transform: the discrete maximiser, then a bounded
    scalar search of x s - S(s) on [t[i-1], t[i+1]]."""
    spline = CubicSpline(t, f)
    out = np.empty(len(x))
    for j, xj in enumerate(x):
        h = xj * t - f
        i = int(np.argmax(h))
        lo = t[max(i - 1, 0)]
        hi = t[min(i + 1, t.size - 1)]
        res = optimize.minimize_scalar(
            lambda s: -(xj * s - spline(s)), bounds=(lo, hi),
            method="bounded", options={"xatol": 1e-12})
        out[j] = max(float(-res.fun), float(h[i]))
    return out


_COSH_T = np.linspace(-3, 3, 601)
_BUMP_T = np.linspace(-2, 2, 801)
_COARSE_T = np.linspace(-3, 3, 13)
_CUBIC_T = np.array([-0.15, 0.15, 0.6, 1.0, 1.5])
_LEGENDRE_CASES = {
    "cosh": (_COSH_T, np.cosh(_COSH_T), np.linspace(-9, 9, 301)),
    # non-convex: the bump of test_biconjugate_convexifies
    "bump": (_BUMP_T, _BUMP_T ** 2 + 0.5 * np.exp(-20 * _BUMP_T ** 2),
             np.linspace(-4.5, 4.5, 181)),
    # x = 0.8 is nearest the knot 1.0, so the maximiser s = 0.8 lies in
    # the cell left of the discrete one
    "cell-left": (_COARSE_T, _COARSE_T ** 2 / 2,
                  np.array([0.8, -1.3, 0.1, 2.2])),
    # S' = x has the two roots -0.1 and 0.1 in the cell [-0.15, 0.15] at
    # x = 0.03; the maximum is at 0.1, left of the discrete 0.15
    "two-roots": (_CUBIC_T, _CUBIC_T ** 3, np.array([0.03, 0.02, 0.05])),
}


class TestLegendre:
    @pytest.mark.parametrize("case", list(_LEGENDRE_CASES))
    def test_matches_reference(self, case):
        t, f, xs = _LEGENDRE_CASES[case]
        got = legendre_transform(t, f, xs)
        assert np.max(np.abs(got - _legendre_reference(t, f, xs))) < 1e-10

    def test_closed_form_on_coarse_grids(self):
        # the cubic spline reproduces t^2/2 and t^3, so these maxima are
        # exact: 0.8^2/2 (cell left of the discrete maximiser) and
        # 2 (x/3)^(3/2) at x = 0.03 (larger of two roots in one cell)
        assert legendre_transform(_COARSE_T, _COARSE_T ** 2 / 2,
                                  0.8) == pytest.approx(0.32, abs=1e-14)
        assert legendre_transform(_CUBIC_T, _CUBIC_T ** 3,
                                  0.03) == pytest.approx(0.002, abs=1e-14)

    @given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=40),
           st.floats(-10.0, 10.0), st.floats(0.1, 5.0),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_quadratic_property(self, gaps, t0, a, b, c, us):
        # a t^2 + b t + c has conjugate (x - b)^2 / (4a) - c wherever the
        # maximiser (x - b) / (2a) lies in the grid.  The ranges keep the
        # spline fit's own rounding (its t^3 coefficient is not exactly
        # 0) well below the tolerance: with gaps of 0.01 next to gaps of
        # 1 and |f| near 1e4, the fit alone is off by about 4e-9
        t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
        f = a * t ** 2 + b * t + c
        s = t[0] + np.array(us) * (t[-1] - t[0])
        xs = 2.0 * a * s + b
        got = legendre_transform(t, f, xs)
        assert np.allclose(got, (xs - b) ** 2 / (4.0 * a) - c, rtol=0,
                           atol=1e-9)

    def test_memory_is_blocked(self):
        # a dense 4000 x 4000 float64 temporary would take 128 MB
        t = np.linspace(-3, 3, 4000)
        f = np.cosh(t)
        xs = np.linspace(-9, 9, 4000)
        tracemalloc.start()
        try:
            legendre_transform(t, f, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_quadratic(self):
        # f(t) = t^2/2 -> f*(x) = x^2/2
        t = np.linspace(-5, 5, 801)
        f = t ** 2 / 2.0
        xs = np.array([-2.0, -0.3, 0.0, 1.7])
        got = legendre_transform(t, f, xs)
        assert np.allclose(got, xs ** 2 / 2.0, atol=1e-10)

    def test_exponential(self):
        # f(t) = e^t -> f*(x) = x log x - x for x > 0
        t = np.linspace(-10, 5, 2001)
        f = np.exp(t)
        for x in (0.5, 1.0, 3.0):
            got = legendre_transform(t, f, x)
            assert got == pytest.approx(x * math.log(x) - x, abs=1e-7)

    def test_biconjugate_recovers_convex(self):
        t = np.linspace(-3, 3, 601)
        for f in (t ** 2, np.abs(t) ** 3, np.cosh(t)):
            f2 = legendre_biconjugate(t, f)
            interior = slice(50, -50)
            assert np.max(np.abs(f2[interior] - f[interior])) < 1e-3

    def test_biconjugate_convexifies(self):
        # biconjugation returns the convex envelope, which drops the bump
        t = np.linspace(-2, 2, 801)
        f = t ** 2 + 0.5 * np.exp(-20 * t ** 2)
        f2 = legendre_biconjugate(t, f)
        assert np.all(f2 <= f + 1e-6)
        assert f2[400] < f[400] - 0.1


class TestScaledCgf:
    def test_degenerate_sample(self):
        b = np.full(100, 0.37)
        assert scaled_cgf_estimate(b, 2.0, 50, 1) == pytest.approx(
            0.74, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            scaled_cgf_estimate(np.array([0.5]), 1.0, 10, 3)
        with pytest.raises(ParameterError):
            scaled_cgf_estimate(np.array([]), 1.0, 10, 1)
        with pytest.raises(ParameterError):
            scaled_cgf_estimate(np.array([1.5]), 1.0, 10, 1)

    def test_analytic_at_zero_is_c(self):
        for p, alpha, c in ((2.0, 1.0, 0.0), (1.5, 0.7, -0.2)):
            assert analytic_scaled_cgf(0.0, p, alpha, c) == pytest.approx(
                c, abs=1e-12)

    def test_analytic_monotone_nondecreasing(self):
        ts = np.linspace(-3.0, 3.0, 61)
        vals = [analytic_scaled_cgf(t, 2.0, 1.0) for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_analytic_matches_beta_samples(self):
        # B ~ Beta(n g, alpha n) at speed n: the estimate converges to the
        # closed form
        n, p, alpha = 60, 2.0, 1.0
        gen = RngStream(seed=5150).gen
        b = gen.beta(n / p, alpha * n, size=400000)
        for t in (-1.0, 0.5, 1.0):
            est = scaled_cgf_estimate(b, t, n, 1)
            assert est == pytest.approx(analytic_scaled_cgf(t, p, alpha),
                                        abs=0.02)

    def test_legendre_of_cgf_is_beta_rate(self):
        # sup_t [t x - Lambda(t)] recovers the beta rate on the interior
        p, alpha = 2.0, 1.0
        ts = np.linspace(-40.0, 40.0, 4001)
        f = np.array([analytic_scaled_cgf(t, p, alpha) for t in ts])
        spec = RateFnSpec(target="beta-euclid", p=p, alpha=alpha)
        for x in (0.2, 1.0 / 3.0, 0.5, 0.8):
            got = legendre_transform(ts, f, x)
            assert got == pytest.approx(rate_beta(x, spec), abs=1e-4)


class TestLaplace:
    def test_interior_ratio_tends_to_one(self):
        q = lambda x: 1.0
        pfn = lambda x: -(x - 0.3) ** 2
        r_small = laplace_check(q, pfn, (0.0, 1.0), 50, c=0.05)[0]
        r_big = laplace_check(q, pfn, (0.0, 1.0), 400, c=0.05)[0]
        assert abs(r_big - 1.0) < abs(r_small - 1.0) + 1e-6
        assert abs(r_big - 1.0) < 0.01

    def test_interior_requires_max(self):
        with pytest.raises(ParameterError):
            laplace_check(lambda x: 1.0, lambda x: x, (0.0, 1.0), 50, c=0.05)

    def test_adapted_laplace_limit(self):
        q = lambda x: 1.0
        pfn = lambda x: -(x - 0.3) ** 2
        _, est, lim = laplace_check(q, pfn, (0.0, 1.0), 400, c=0.05)
        assert lim == pytest.approx(0.05, abs=1e-9)
        assert abs(est - lim) < 0.02

    def test_breitung_ratio_tends_to_one(self):
        q = lambda x: 1.0 + x
        pfn = lambda x: -x - x ** 2
        r_small = breitung_check(q, pfn, 50, c=0.05)[0]
        r_big = breitung_check(q, pfn, 400, c=0.05)[0]
        assert abs(r_big - 1.0) < abs(r_small - 1.0) + 1e-6
        assert abs(r_big - 1.0) < 0.01

    def test_breitung_requires_decrease(self):
        with pytest.raises(ParameterError):
            breitung_check(lambda x: 1.0, lambda x: x, 50, c=0.05)

    def test_adapted_breitung_limit(self):
        q = lambda x: 1.0 + x
        pfn = lambda x: -x - x ** 2
        _, est, lim = breitung_check(q, pfn, 400, c=0.05)
        assert lim == pytest.approx(0.05, abs=1e-9)
        assert abs(est - lim) < 0.02

    def test_one_maximisation_and_one_quadrature(self, monkeypatch):
        # each check evaluates its integral once and, in the interior
        # case, maximises once; the ratio and the adapted pair share them
        from pradial import rates
        calls = {"max": 0, "quad": 0}
        for owner, name, key in ((rates, "_interior_max", "max"),
                                 (rates.integrate, "quad", "quad")):
            orig = getattr(owner, name)

            def counted(*a, _orig=orig, _key=key, **kw):
                calls[_key] += 1
                return _orig(*a, **kw)

            monkeypatch.setattr(owner, name, counted)
        laplace_check(lambda x: 1.0, lambda x: -(x - 0.3) ** 2, (0.0, 1.0),
                      100, c=0.05)
        breitung_check(lambda x: 1.0 + x, lambda x: -x - x * x, 100, c=0.05)
        assert calls == {"max": 1, "quad": 2}
