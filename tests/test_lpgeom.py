import hashlib
import os
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from pradial.distributions import ParameterError, RadialLawW
from pradial.lpgeom import (
    PsiSpec,
    norm_split_B,
    psi_density,
    psi_normalization_defect,
    sample_pnpw,
)
from pradial.rng import RngStream


def rng(k=0):
    return RngStream(20240801, k)


def on_cpus(monkeypatch, k):
    """Make the process's affinity set read as k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def exp_table():
    """The benchmark's tabulated psi: Exp(1) on 4001 knots of [0, 40],
    n = 5, p = 2, at 400 sorted points of [0, 0.95)."""
    g = np.linspace(0.0, 40.0, 4001)
    dens = np.exp(-g)
    law = RadialLawW.tabulated(grid=g, density=dens / np.trapezoid(dens, g))
    s = np.sort(0.95 * np.random.default_rng(1001).random(400))
    return PsiSpec(n=5, p=2.0, law=law), s


def gamma_table(knots):
    """Gamma(2, 1) tabulated on knots knots of [0, 45]."""
    g = np.linspace(0.0, 45.0, knots)
    dens = g * np.exp(-g)
    return RadialLawW.tabulated(grid=g, density=dens / np.trapezoid(dens, g))


# s = 1e-6 and 1e-5 take the polynomial branch (t max w < 1e-8); s = 3e-5
# is the first point past it
GAMMA_S = np.array([0.0, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 0.05, 0.3, 0.6, 0.9,
                    0.95, 0.99])


class TestConeSampler:
    # at (50, 0.01) and (1000, 0.012) (||x||_p^p)^(1/p) overflows, though
    # each |x_i|^p does not
    @pytest.mark.parametrize("n, p", [(10, 2.0), (50, 0.01), (1000, 0.012)])
    @pytest.mark.filterwarnings("error")
    def test_norm_one(self, n, p):
        s = sample_pnpw(n, p, RadialLawW.dirac(), rng(), size=500)
        assert np.allclose(np.sum(np.abs(s.points) ** s.p, axis=1), 1.0, atol=1e-12)

    def test_coordinate_symmetry(self):
        s = sample_pnpw(5, 1.5, RadialLawW.dirac(), rng(), size=10 ** 5)
        means = s.points.mean(axis=0)
        se = s.points.std(axis=0) / np.sqrt(10 ** 5)
        assert np.all(np.abs(means) < 4 * se)

    def test_marginal_convergence(self, gen_gaussian_cdf):
        # (n/p)^(1/p) * x1 approaches the generalized Gaussian for large n,
        # since the p-norm of the underlying Gaussian vector concentrates
        # at (n/p)^(1/p)
        n, p = 200, 2.0
        s = sample_pnpw(n, p, RadialLawW.dirac(), rng(), size=10 ** 4)
        z = (n / p) ** (1.0 / p) * s.points[:, 0]
        ks = stats.kstest(z, lambda t: gen_gaussian_cdf(p, t))
        assert ks.statistic < 0.02

    def test_direction_norm_independence(self):
        # chi-square independence test on a 4x4 quantile grid of
        # (direction functional, norm) for the underlying Gaussian vector
        from pradial.distributions import sample_gen_gaussian

        x = sample_gen_gaussian(2.0, rng(), size=(10 ** 5, 6))
        norms = np.linalg.norm(x, axis=1)
        direction = x[:, 0] / norms
        q1 = np.quantile(direction, [0.25, 0.5, 0.75])
        q2 = np.quantile(norms, [0.25, 0.5, 0.75])
        table = np.histogram2d(direction, norms, bins=[
            np.concatenate([[-np.inf], q1, [np.inf]]),
            np.concatenate([[-np.inf], q2, [np.inf]])])[0]
        res = stats.chi2_contingency(table)
        assert res.pvalue > 0.001


class TestUniformBall:
    def test_norm_law(self):
        n, p = 10, 2.0
        s = sample_pnpw(n, p, RadialLawW.exponential(), rng(), size=10 ** 5)
        ks = stats.kstest(np.sum(np.abs(s.points) ** s.p, axis=1),
                          lambda t: betainc(n / p, 1.0, t))
        assert ks.statistic < 0.01

    def test_containment(self):
        s = sample_pnpw(7, 0.8, RadialLawW.exponential(), rng(), size=2000)
        assert np.all(np.sum(np.abs(s.points) ** s.p, axis=1) <= 1.0 + 1e-12)

    def test_quadrant_symmetry(self):
        s = sample_pnpw(2, 2.0, RadialLawW.exponential(), rng(), size=10 ** 5)
        frac = np.mean((s.points[:, 0] > 0) & (s.points[:, 1] > 0))
        assert frac == pytest.approx(0.25, abs=0.005)


class TestPnpw:
    def test_dirac_on_sphere(self):
        s = sample_pnpw(6, 2.0, RadialLawW.dirac(), rng(), size=1000)
        assert np.allclose(np.sum(np.abs(s.points) ** s.p, axis=1), 1.0, atol=1e-12)

    def test_exponential_is_uniform(self):
        n, p = 8, 1.5
        s = sample_pnpw(n, p, RadialLawW.exponential(), rng(), size=10 ** 5)
        ks = stats.kstest(np.sum(np.abs(s.points) ** s.p, axis=1),
                          lambda t: betainc(n / p, 1.0, t))
        assert ks.statistic < 0.01

    def test_mixture_split(self):
        n, p = 50, 2.0
        law = RadialLawW(theta=0.5, alpha=2.0)
        s = sample_pnpw(n, p, law, rng(), size=10 ** 5)
        b = np.sum(s.points ** 2, axis=1)
        on = b >= 1.0 - 1e-9
        assert on.mean() == pytest.approx(0.5, abs=0.005)
        ks = stats.kstest(b[~on], lambda t: betainc(25.0, 2.0, t))
        assert ks.statistic < 0.01

    def test_orthant_variant(self):
        s = sample_pnpw(5, 2.0, RadialLawW.exponential(), rng(), size=10 ** 4,
                        positive=True)
        assert np.all(s.points >= 0)
        # the radial law does not see the orthant
        ks = stats.kstest(np.sum(np.abs(s.points) ** s.p, axis=1),
                          lambda t: betainc(2.5, 1.0, t))
        assert ks.statistic < 0.02

    def test_orthant_n1_folding(self):
        s = sample_pnpw(1, 2.0, RadialLawW.dirac(), rng(),
                        size=10 ** 4, positive=True)
        assert np.allclose(s.points, 1.0)  # cone on the 1-d orthant is {1}
        u = sample_pnpw(1, 2.0, RadialLawW.exponential(), rng(1),
                        size=10 ** 5, positive=True)
        ks = stats.kstest(u.points[:, 0], lambda t: np.clip(t, 0, 1))
        assert ks.statistic < 0.01

    def test_conditional_direction_is_cone(self):
        # p-radial symmetry: direction within a norm band is cone-distributed
        n, p = 5, 2.0
        s = sample_pnpw(n, p, RadialLawW.exponential(), rng(), size=10 ** 5)
        r = np.linalg.norm(s.points, axis=1)
        band = (r > 0.4) & (r < 0.6)
        dirs = s.points[band] / r[band][:, None]
        c = sample_pnpw(n, p, RadialLawW.dirac(), rng(1), size=10 ** 5)
        ks = stats.ks_2samp(dirs[:, 0], c.points[:, 0])
        assert ks.statistic < 0.02


@pytest.mark.parametrize("n, size", [(0, 5), (-1, 5), (2.5, 5), (3, 0),
                                     (3, -2), (3, 1.0)])
def test_exact_samplers_refuse_bad_n_and_size(n, size):
    # not numpy's "negative dimensions" error, an empty table or a
    # TypeError from deep inside the draw
    with pytest.raises(ParameterError, match=">= 1 and whole"):
        sample_pnpw(n, 2.0, RadialLawW.exponential(), rng(), size=size)
    with pytest.raises(ParameterError, match=">= 1 and whole"):
        norm_split_B(n, 2.0, 1.0, RadialLawW.exponential(), rng(), size=size)


class TestNormSplitB:
    def test_dirac(self):
        b = norm_split_B(5, 2.0, 0.0, RadialLawW.dirac(), rng(), size=100)
        assert np.all(b == 1.0)

    def test_beta_law(self):
        b = norm_split_B(10, 2.0, 0.0, RadialLawW(alpha=3.0), rng(),
                         size=10 ** 5)
        ks = stats.kstest(b, lambda t: betainc(5.0, 3.0, t))
        assert ks.statistic < 0.01

    def test_mean(self):
        n, p, alpha = 12, 3.0, 2.0
        b = norm_split_B(n, p, 0.0, RadialLawW(alpha=alpha), rng(),
                         size=10 ** 5)
        expect = (n / p) / (n / p + alpha)
        assert b.mean() == pytest.approx(expect, abs=0.003)


class TestPsi:
    def test_exponential_identically_one(self):
        spec = PsiSpec(n=7, p=1.3, m=2.0, law=RadialLawW.exponential())
        s = np.linspace(0, 0.999, 50)
        assert np.allclose(psi_density(spec, s), 1.0, atol=1e-12)

    def test_gamma_alpha_one_reduces(self):
        spec = PsiSpec(n=4, p=2.0, m=0.0, law=RadialLawW(alpha=1.0))
        assert psi_density(spec, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_at_zero(self):
        spec = PsiSpec(n=4, p=2.0, m=0.0, law=RadialLawW(alpha=3.0))
        assert psi_density(spec, 0.0) == pytest.approx(6.0, rel=1e-12)

    def test_dirac_zero(self):
        spec = PsiSpec(n=4, p=2.0, m=0.0, law=RadialLawW.dirac())
        assert np.all(psi_density(spec, np.linspace(0, 0.9, 10)) == 0.0)

    def test_boundary_values(self):
        base = dict(n=4, p=2.0, m=0.0)
        assert psi_density(PsiSpec(**base, law=RadialLawW(alpha=0.5)),
                           1.0) == np.inf
        assert psi_density(PsiSpec(**base, law=RadialLawW(alpha=3.0)),
                           1.0) == 0.0
        assert psi_density(PsiSpec(**base, law=RadialLawW.exponential()),
                           1.0) == pytest.approx(1.0)

    def test_domain(self):
        spec = PsiSpec(n=3, p=2.0, m=0.0)
        with pytest.raises(ParameterError):
            psi_density(spec, 1.2)
        with pytest.raises(ParameterError):
            psi_density(spec, -0.1)
        # s = 1 has a closed form for the mixture laws only
        tab = PsiSpec(n=3, p=2.0, law=RadialLawW.tabulated(atoms=[(0.5, 1.0)]))
        with pytest.raises(ParameterError, match="boundary s = 1"):
            psi_density(tab, [0.5, 1.0])

    @pytest.mark.parametrize("law", [
        RadialLawW(theta=0.2, alpha=2.0),
        RadialLawW.exponential(),
        RadialLawW.dirac(),
        RadialLawW.tabulated(atoms=[(0.5, 1.0)]),
        RadialLawW.tabulated(grid=[0.0, 2.0], density=[0.5, 0.5]),
    ])
    @pytest.mark.parametrize("s", [np.nan, np.inf, [0.5, np.nan]])
    def test_non_finite_s_is_refused(self, law, s):
        # a nan passed both bound checks and came back a density: 2.0
        # for this mixture, 1.0 for Exp(1) and 0.0 for the Dirac law
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            psi_density(PsiSpec(n=3, p=2.0, law=law), s)

    @pytest.mark.parametrize("kw", [dict(n=3, p=-2.0), dict(n=3, p=0.0),
                                    dict(n=3, p=np.nan), dict(n=2, m=-2.0, p=2.0),
                                    dict(n=1, m=-3.0, p=2.0)])
    def test_spec_is_refused(self, kw):
        with pytest.raises(ParameterError):
            PsiSpec(**kw)

    @pytest.mark.parametrize("law", [
        RadialLawW.dirac(),
        RadialLawW.exponential(),
        RadialLawW(alpha=2.5),
        RadialLawW(theta=0.4, alpha=2.0),
    ])
    def test_normalization_identity(self, law):
        spec = PsiSpec(n=6, p=1.7, m=1.5, law=law)
        assert psi_normalization_defect(spec) < 1e-8

    def test_normalization_tabulated(self):
        g = np.linspace(0.0, 15.0, 4001)
        dens = g * np.exp(-g)
        dens /= np.trapezoid(dens, g)
        law = RadialLawW.tabulated(grid=g, density=dens)
        assert psi_normalization_defect(PsiSpec(n=5, p=2.0, m=0.0,
                                                law=law)) < 1e-8

    def test_tabulated_gamma_extrapolates_to_closed_form(self):
        # Gamma(2, 1) tabulated on [0, 45] at knot spacings h, h/2, h/4:
        # with d = 2 the tabulation error is a series in h^2, so two
        # Richardson steps leave the closed form (d + 1)(1 - s^2) to 1e-10.
        # The polynomial branch drops an e^{-t w} term that would show at
        # rel t E[w] ~ 4e-10; at s = 1e-4 every t w is below 5e-7, where
        # P(d+1) would lose its digits if it came from P(d+2) by
        # subtraction; from s = 0.9 on, P(d+2, t w) rounds to 1.0 at the
        # far knots
        s = GAMMA_S
        tab = [psi_density(PsiSpec(n=4, p=2.0, law=gamma_table(knots)), s)
               for knots in (9001, 18001, 36001)]
        r1 = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(tab, tab[1:])]
        limit = (16.0 * r1[1] - r1[0]) / 15.0
        exact = psi_density(PsiSpec(n=4, p=2.0, law=RadialLawW(alpha=2.0)), s)
        assert np.allclose(exact, 3.0 * (1.0 - s ** 2), rtol=1e-14, atol=0)
        assert np.allclose(limit, exact, rtol=1e-10, atol=0)
        small = s <= 1e-3  # both sides of the polynomial branch's edge
        assert np.allclose(limit[small], exact[small], rtol=1e-12, atol=0)

    def test_tabulated_matches_gamma_closed_form(self):
        # a tabulated Gamma(2,1) should track the closed form
        g = np.linspace(0.0, 20.0, 8001)
        dens = g * np.exp(-g)
        dens /= np.trapezoid(dens, g)
        tab = PsiSpec(n=4, p=2.0, m=0.0,
                      law=RadialLawW.tabulated(grid=g, density=dens))
        exact = PsiSpec(n=4, p=2.0, m=0.0, law=RadialLawW(alpha=2.0))
        for s in (0.0, 0.3, 0.7, 0.95):
            # tolerance limited by the grid discretization of the density
            assert psi_density(tab, s) == pytest.approx(
                psi_density(exact, s), rel=1e-4)


class TestPsiThreads:
    """The tabulated psi runs its row blocks on one thread per CPU."""

    @pytest.mark.parametrize("knots", [None, 9001, 18001, 36001],
                             ids=["exp-4001", "gamma-9001", "gamma-18001",
                                  "gamma-36001"])
    def test_same_bits_on_one_two_and_three_cpus(self, monkeypatch, knots):
        # 25 blocks of 16 rows for the Exp(1) table; 7, 3 and 1 rows a
        # block for the Gamma tables, so 3 CPUs split them unevenly
        spec, s = exp_table() if knots is None else (
            PsiSpec(n=4, p=2.0, law=gamma_table(knots)), GAMMA_S)
        got = []
        for k in (1, 2, 3):
            on_cpus(monkeypatch, k)
            got.append(psi_density(spec, s))
        assert all(np.array_equal(got[0], g) for g in got[1:])

    def test_exp_table_is_pinned(self):
        # the bytes of the serial loop, before the blocks ran in threads
        psi = psi_density(*exp_table())
        assert hashlib.sha256(psi.tobytes()).hexdigest()[:16] == \
            "81c07435a52046aa"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_worker_per_cpu_and_none_left(self, monkeypatch, cpus):
        # the calling thread is one of the workers, and the only one of a
        # one-block call
        from scipy import special

        real, seen = special.gammainc, set()

        def spy(*args, **kwargs):
            seen.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(special, "gammainc", spy)
        on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        spec, s = exp_table()
        psi_density(spec, s)
        assert len(seen) == cpus and threading.get_ident() in seen
        assert threading.active_count() == before
        seen.clear()
        psi_density(spec, 0.5)
        assert seen == {threading.get_ident()}

    def test_no_thread_left_when_a_block_raises(self, monkeypatch):
        from scipy import special

        def boom(*args, **kwargs):
            raise FloatingPointError("block failed")

        monkeypatch.setattr(special, "gammainc", boom)
        on_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="block failed"):
            psi_density(*exp_table())
        assert threading.active_count() == before
