import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc, betaln, erf, gammainc

from pradial.distributions import (
    ParameterError,
    RadialLawW,
    beta_log_cdf,
    gen_gaussian_cdf,
    gen_gaussian_pdf,
    sample_beta,
    sample_gamma,
    sample_gen_gaussian,
    sample_W,
)
from pradial.rng import RngStream


def rng():
    return RngStream(20240801)


class TestGenGaussian:
    def test_pdf_values(self):
        assert gen_gaussian_pdf(2.0, 0.0) == pytest.approx(1.0 / np.sqrt(np.pi),
                                                           abs=1e-12)
        assert gen_gaussian_pdf(1.0, 0.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_pdf_normalization(self, p):
        # truncation window with tail mass far below 1e-12
        lim = max(20.0, 45.0 ** (1.0 / p))
        val, _ = integrate.quad(lambda x: gen_gaussian_pdf(p, x), -lim, lim,
                                limit=500, points=[0.0])
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_mean_symmetric(self):
        x = sample_gen_gaussian(2.0, rng(), size=10 ** 6)
        se = x.std() / np.sqrt(x.size)
        assert abs(x.mean()) < 4 * se

    @pytest.mark.parametrize("p", [0.7, 2.0, 3.0])
    def test_p_moment(self, p):
        # E|X|^p = 1/p, oracle confirmed by quadrature
        lim = max(30.0, 60.0 ** (1.0 / p))
        oracle, _ = integrate.quad(
            lambda x: np.abs(x) ** p * gen_gaussian_pdf(p, x), -lim, lim,
            limit=500, points=[0.0])
        assert oracle == pytest.approx(1.0 / p, rel=1e-8)
        x = np.abs(sample_gen_gaussian(p, rng(), size=10 ** 6)) ** p
        se = x.std() / np.sqrt(x.size)
        assert abs(x.mean() - 1.0 / p) < 5 * se

    def test_p2_matches_erf_cdf(self):
        x = sample_gen_gaussian(2.0, rng(), size=10 ** 5)
        ks = stats.kstest(x, lambda t: 0.5 * (1 + erf(t)))
        assert ks.statistic < 0.01

    def test_cdf_matches_pdf(self):
        for p in (0.8, 2.0, 3.5):
            lim = max(30.0, 60.0 ** (1.0 / p))
            for x in (-1.3, 0.0, 0.4, 2.0):
                num, _ = integrate.quad(lambda t: gen_gaussian_pdf(p, t),
                                        -lim, x, limit=500)
                assert gen_gaussian_cdf(p, x) == pytest.approx(num, abs=1e-9)

    def test_positive_variant(self):
        x = sample_gen_gaussian(1.5, rng(), size=10 ** 5, positive=True)
        assert np.all(x >= 0)
        # the same magnitudes as the signed draw from the same stream
        assert np.array_equal(x, np.abs(sample_gen_gaussian(1.5, rng(),
                                                            size=10 ** 5)))
        ks = stats.kstest(x, lambda t: gammainc(1.0 / 1.5, t ** 1.5))
        assert ks.statistic < 0.01

    def test_bad_p(self):
        with pytest.raises(ParameterError):
            sample_gen_gaussian(0.0, rng())
        with pytest.raises(ParameterError):
            gen_gaussian_pdf(-1.0, 0.0)


class TestGamma:
    def test_mean(self):
        x = sample_gamma(3.0, 1.0, rng(), size=10 ** 6)
        assert x.mean() == pytest.approx(3.0, abs=0.01)

    def test_exponential_special_case(self):
        x = sample_gamma(1.0, 2.0, rng(), size=10 ** 5)
        ks = stats.kstest(x, lambda t: 1.0 - np.exp(-2.0 * t))
        assert ks.statistic < 0.01

    def test_convolution(self):
        r = rng()
        s = sample_gamma(1.5, 1.0, r, size=10 ** 5) + \
            sample_gamma(1.5, 1.0, r, size=10 ** 5)
        ks = stats.kstest(s, lambda t: gammainc(3.0, t))
        assert ks.statistic < 0.01

    def test_small_shape_boosting(self):
        # shape < 1 goes through the boosting identity; check the law
        x = sample_gamma(0.3, 1.0, rng(), size=10 ** 5)
        assert np.all(x > 0)
        ks = stats.kstest(x, lambda t: gammainc(0.3, t))
        assert ks.statistic < 0.01

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            sample_gamma(-1.0, 1.0, rng())
        with pytest.raises(ParameterError):
            sample_gamma(1.0, 0.0, rng())


class TestBeta:
    def test_uniform_case(self):
        x = sample_beta(1.0, 1.0, rng(), size=10 ** 5)
        ks = stats.kstest(x, lambda t: t)
        assert ks.statistic < 0.01

    def test_mean(self):
        x = sample_beta(2.0, 3.0, rng(), size=10 ** 6)
        assert x.mean() == pytest.approx(0.4, abs=0.005)

    def test_matches_beta_cdf(self):
        from scipy.special import betainc

        x = sample_beta(2.5, 0.7, rng(), size=10 ** 5)
        ks = stats.kstest(x, lambda t: betainc(2.5, 0.7, t))
        assert ks.statistic < 0.01


def log_cdf_by_quadrature(x, a, b):
    """log P(Beta(a, b) <= x) from the density rescaled by its value at x,
    integrated over the window below x where it is not negligible."""
    def logf(t):
        return (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)

    top = logf(x)
    slope = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
    lo = max(0.0, x - 60.0 / slope)
    val, _ = integrate.quad(lambda t: math.exp(logf(t) - top), lo, x,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return top + math.log(val) - betaln(a, b)


class TestBetaLogCdf:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_matches_log_betainc(self, q):
        # every value betainc holds as a normal double; a subnormal one
        # carries too few digits to compare
        for n in (1, 2, 5, 20, 80, 400, 1500):
            for alpha in (0.3, 1.0, 2.5):
                a, b = n / q, alpha * n
                mean = a / (a + b)
                for frac in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.999, 0.99999,
                             1.0, 1.5):
                    x = min(frac * mean, 0.999)
                    v = betainc(a, b, x)
                    if v >= np.finfo(float).tiny:
                        assert beta_log_cdf(x, a, b) == pytest.approx(
                            math.log(v), rel=1e-12, abs=0.0), (a, b, x)

    @pytest.mark.parametrize("n", [4000, 40000])
    def test_finite_where_betainc_underflows(self, n):
        a, b, x = n / 2.0, float(n), 0.1
        assert betainc(a, b, x) == 0.0
        assert beta_log_cdf(x, a, b) == pytest.approx(
            log_cdf_by_quadrature(x, a, b), rel=1e-10)

    def test_whole_interval(self):
        assert beta_log_cdf(1.0, 2.0, 3.0) == 0.0

    def test_tiny_b(self):
        # 1 - a/(a+b) rounds to 0 here; b/(a+b) does not
        assert beta_log_cdf(0.1, 2.5, 1e-300) == math.log(
            betainc(2.5, 1e-300, 0.1))

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                      (1.0, -2.0)])
    def test_shapes_must_be_positive(self, a, b):
        with pytest.raises(ParameterError):
            beta_log_cdf(0.1, a, b)


class TestRadialLawW:
    def test_dirac_always_zero(self):
        w = sample_W(RadialLawW.dirac(), rng(), size=1000)
        assert np.all(w == 0.0)

    def test_exponential_case(self):
        w = sample_W(RadialLawW.exponential(), rng(), size=10 ** 5)
        ks = stats.kstest(w, lambda t: 1.0 - np.exp(-t))
        assert ks.statistic < 0.01

    def test_mixture_atom_fraction(self):
        w = sample_W(RadialLawW(theta=0.3, alpha=1.0), rng(), size=10 ** 6)
        assert (w == 0.0).mean() == pytest.approx(0.3, abs=0.002)

    def test_tabulated_sampling(self):
        g = np.linspace(0.0, 10.0, 2001)
        dens = np.exp(-g)
        dens = 0.6 * dens / np.trapezoid(dens, g)
        law = RadialLawW.tabulated(atoms=[(0.0, 0.25), (2.5, 0.15)],
                                   grid=g, density=dens)
        w = sample_W(law, rng(), size=2 * 10 ** 5)
        assert (w == 0.0).mean() == pytest.approx(0.25, abs=0.005)
        assert (w == 2.5).mean() == pytest.approx(0.15, abs=0.005)
        cont = w[(w != 0.0) & (w != 2.5)]
        ks = stats.kstest(cont, lambda t: 1 - np.exp(-np.clip(t, 0, 10)))
        # truncated-exponential reference: small bias from truncation at 10
        assert ks.statistic < 0.02

    def test_validation(self):
        with pytest.raises(ParameterError):
            RadialLawW(theta=1.5)
        with pytest.raises(ParameterError):
            RadialLawW(alpha=-2.0)
        with pytest.raises(ParameterError):
            RadialLawW.tabulated(atoms=[(0.0, 0.5)])  # mass 0.5, not 1
        with pytest.raises(ParameterError):
            RadialLawW.tabulated()
        # W lives on [0, inf): an atom or a knot below 0 is refused
        with pytest.raises(ParameterError):
            RadialLawW.tabulated(atoms=[(-1.0, 1.0)])
        with pytest.raises(ParameterError):
            RadialLawW.tabulated(grid=[-1.0, 0.0, 1.0],
                                 density=[0.5, 0.5, 0.5])

    @pytest.mark.parametrize("grid, density", [
        # trapezoid mass exactly 1, yet the CDF is not monotone: sample_W
        # drew W only in (0, 1)
        ([0.0, 2.0, 1.0], [0.0, 2.0, 0.0]),
        # a repeated knot: psi divides by the zero cell width
        ([0.0, 1.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5]),
        # one density value short of the grid
        ([0.0, 1.0, 2.0], [0.5, 0.5]),
        ([0.0, 1.0, 2.0], [0.25, 0.5, 0.5, 0.25]),
    ])
    def test_tabulated_grid_validation(self, grid, density):
        with pytest.raises(ParameterError):
            RadialLawW.tabulated(grid=grid, density=density)

    def test_variant_is_read_off_the_data(self):
        # theta/alpha laws are mixtures, whatever their parameters; a law
        # with atoms or a grid is tabulated
        for law in (RadialLawW.dirac(), RadialLawW.exponential(),
                    RadialLawW(theta=0.3, alpha=2.0)):
            assert law.variant == "mixture"
        assert RadialLawW.tabulated(atoms=[(1.0, 1.0)]).variant == "tabulated"
        with pytest.raises(TypeError):
            RadialLawW(variant="dirac-at-zero")
        assert RadialLawW.dirac().mass_at_zero() == 1.0


def test_scalar_draws():
    assert isinstance(sample_W(RadialLawW.exponential(), rng()), float)
    assert np.isscalar(sample_gamma(2.0, 1.0, rng()))
