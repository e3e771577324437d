"""Tests for the matrix p-ball families and their spectral sampler."""

import ctypes
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cython_lapack, lapack

from pradial import matrixball, mcmc
from pradial.distributions import ParameterError, RadialLawW, sample_W
from pradial.matrixball import (beta_ensemble_spectra, log_weyl_const_H,
                                log_weyl_const_M, sample_spectra)
from pradial.mcmc import geyer_ess, mcmc_sample
from pradial.rng import RngStream
from pradial.weights import WeightFn, log_delta_beta, log_nabla_beta


def rng(stream=0):
    return RngStream(seed=424242, stream_id=stream)


class TestWeylConstants:
    def test_h_at_n1_is_one(self):
        for beta in (1.0, 2.0, 4.0):
            assert log_weyl_const_H(1, beta) == pytest.approx(0.0, abs=1e-12)

    def test_m_to_h_ratio(self):
        # c_M / c_H^2 = n! * 2^(-beta n (n-1)/2) * (pi^(beta/2)/Gamma(beta/2))^n
        # in s = sigma^2
        for n in (1, 2, 3, 4):
            for beta in (1.0, 2.0, 4.0):
                lhs = log_weyl_const_M(n, beta) - 2.0 * log_weyl_const_H(n, beta)
                rhs = (math.lgamma(n + 1)
                       - (beta / 2.0) * n * (n - 1) * math.log(2.0)
                       + n * ((beta / 2.0) * math.log(math.pi)
                              - math.lgamma(beta / 2.0)))
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_m_at_n1_beta1_is_one(self):
        # a real 1 x 1 matrix x has s = x^2, and dx over R is
        # s^(-1/2) ds = nabla_1(s) ds over s > 0: the constant is 1 in s
        # (it would be 2 in sigma = |x|)
        assert log_weyl_const_M(1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_h_is_the_frobenius_ball_volume(self, log_mehta):
        # the Frobenius unit ball of the H class is a Euclidean ball of
        # dimension d, so c_H * int exp(-|x|^2) |Delta|^beta = pi^(d/2),
        # the integral being Mehta's
        for n in range(1, 33):
            for beta in (1.0, 2.0, 4.0):
                d = n + beta * n * (n - 1) / 2.0
                lhs = log_weyl_const_H(n, beta) + log_mehta(n, beta)
                assert lhs == pytest.approx(d / 2.0 * math.log(math.pi),
                                            rel=0.0, abs=1e-10)

    def test_m_is_the_frobenius_ball_volume(self, log_laguerre_selberg):
        # the Frobenius unit ball of the M class is a Euclidean ball of
        # dimension d = beta n^2, and |Z|_F^2 = sum s_i, so
        # c_M * int exp(-sum s) nabla_beta(s) ds = pi^(d/2), the integral
        # being the Laguerre-Selberg one
        for n in range(1, 33):
            for beta in (1.0, 2.0, 4.0):
                d = beta * n * n
                lhs = log_weyl_const_M(n, beta) + log_laguerre_selberg(n, beta)
                assert lhs == pytest.approx(d / 2.0 * math.log(math.pi),
                                            rel=0.0, abs=1e-10)

    def test_finite_for_moderate_n(self):
        for n in (5, 10, 20):
            for beta in (1.0, 2.0, 4.0):
                assert np.isfinite(log_weyl_const_H(n, beta))
                assert np.isfinite(log_weyl_const_M(n, beta))


class TestWeightValues:
    def test_delta_beta_hand_value(self):
        # |1-2||1-3||2-3| = 2 at beta = 1
        assert math.exp(log_delta_beta(np.array([1.0, 2.0, 3.0]), 1.0)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_nabla_beta_hand_values(self):
        # nabla_beta(x) = prod x_i^(beta/2 - 1) * prod |x_i - x_j|^beta
        # x = (1, 4), beta = 2: 1 * 3^2 = 9
        assert math.exp(log_nabla_beta(np.array([1.0, 4.0]), 2.0)) == \
            pytest.approx(9.0, abs=1e-12)
        # x = (1, 2), beta = 4: (1 * 2)^1 * 1^4 = 2
        assert math.exp(log_nabla_beta(np.array([1.0, 2.0]), 4.0)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_nabla_edge_cases(self):
        # ties kill the weight; a zero coordinate blows it up when the
        # one-body exponent beta/2 - 1 is negative and is harmless at beta=2
        assert log_nabla_beta(np.array([1.0, 1.0]), 2.0) == -np.inf
        assert log_nabla_beta(np.array([0.0, 1.0]), 1.0) == np.inf
        assert log_nabla_beta(np.array([0.0, 1.0]), 2.0) == 0.0


class TestGueOracle:
    # the H family of beta_ensemble_spectra at beta = 2
    def test_n1_matches_gaussian(self):
        # n = 1: single eigenvalue ~ N(0, 1/2)
        vals = beta_ensemble_spectra("H", 1, 2.0, rng(1), size=20000).ravel()
        ks = stats.kstest(vals, lambda t: stats.norm.cdf(t, scale=1 / math.sqrt(2)))
        assert ks.pvalue > 0.01

    def test_trace_variance(self):
        # Var(Tr H) = sum of diagonal variances = n/2
        n = 6
        vals = beta_ensemble_spectra("H", n, 2.0, rng(2), size=20000)
        tr = vals.sum(axis=1)
        assert np.var(tr) == pytest.approx(n / 2.0, rel=0.05)

    def test_sorted(self):
        vals = beta_ensemble_spectra("H", 5, 2.0, rng(3), size=50)
        assert np.all(np.diff(vals, axis=1) >= 0)


class TestLaguerreOracle:
    # the M family of beta_ensemble_spectra at beta = 2
    def test_positive_and_sorted(self):
        vals = beta_ensemble_spectra("M", 4, 2.0, rng(4), size=100)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_trace_mean(self):
        # E Tr(A A*) = n^2 * E|a_ij|^2 = n^2
        n = 5
        vals = beta_ensemble_spectra("M", n, 2.0, rng(5), size=20000)
        assert np.mean(vals.sum(axis=1)) == pytest.approx(n * n, rel=0.03)


class TestBetaEnsembleOracle:
    # R = sum |x_i|^q of exp(-sum |x_i|^q) f(x), f of degree m, is
    # Gamma((n + m)/q): Gamma((n + beta n(n-1)/2)/2) for the eigenvalues
    # (q = 2) and Gamma(beta n^2 / 2) for the squared singular values
    # (q = 1)
    @staticmethod
    def radius(family, vals):
        return np.sum(vals ** 2, axis=1) if family == "H" else vals.sum(axis=1)

    @staticmethod
    def radius_shape(family, n, beta):
        if family == "H":
            return (n + beta * n * (n - 1) / 2.0) / 2.0
        return beta * n * n / 2.0

    @pytest.mark.parametrize("family", ["H", "M"])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_radius_law(self, family, beta):
        n = 5
        vals = beta_ensemble_spectra(family, n, beta, rng(19), size=5000)
        a = self.radius_shape(family, n, beta)
        ks = stats.kstest(self.radius(family, vals), stats.gamma(a).cdf)
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("family", ["H", "M"])
    def test_beta2_rejects_beta1_law(self, family):
        n = 5
        vals = beta_ensemble_spectra(family, n, 2.0, rng(20), size=5000)
        a = self.radius_shape(family, n, 1.0)
        ks = stats.kstest(self.radius(family, vals), stats.gamma(a).cdf)
        assert ks.pvalue < 1e-6

    def test_sorted_and_orthant(self):
        for beta in (1.0, 4.0):
            h = beta_ensemble_spectra("H", 6, beta, rng(21), size=50)
            m = beta_ensemble_spectra("M", 6, beta, rng(22), size=50)
            assert h.shape == m.shape == (50, 6)
            assert np.all(np.diff(h, axis=1) >= 0)
            assert np.all(np.diff(m, axis=1) >= 0) and np.all(m > 0)

    def test_bad_family(self):
        with pytest.raises(ParameterError):
            beta_ensemble_spectra("X", 3, 2.0, rng(23))


class TestSamplers:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_ph_direction_matches_gue(self, chain_ball, beta):
        # p = 2: the chain, which sample_spectra runs for H at p != 2,
        # targets the Hermite beta-ensemble eigenvalue
        # density (GUE at beta = 2), so the direction lambda/||lambda||_2
        # must match the oracle's
        n = 4
        s = chain_ball(n, 2.0, WeightFn("delta", beta),
                       RadialLawW.exponential(), rng(6), 4000)
        assert s.chain.ok
        oracle = beta_ensemble_spectra("H", n, beta, rng(7), size=4000)
        ks = stats.ks_2samp(_direction(s.points, 2.0)[:, -1],
                            _direction(oracle, 2.0)[:, -1])
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_pm_direction_matches_laguerre(self, chain_ball, monkeypatch,
                                           beta):
        # p = 2 (q = 1): the chain, which sample_spectra runs for M at
        # p != 2, targets the unit-scale Laguerre
        # beta-ensemble density for the squared singular values.  KS takes
        # the draws as independent; kept every sweep, they read p = 9e-4
        # at beta = 4, so this test keeps every fourth
        monkeypatch.setattr(mcmc, "THIN", 4)
        n = 3
        s = chain_ball(n, 1.0, WeightFn("nabla", beta),
                       RadialLawW.exponential(), rng(8), 4000)
        assert s.chain.ok
        assert np.all(s.points > 0)
        oracle = beta_ensemble_spectra("M", n, beta, rng(9), size=4000)
        ks = stats.ks_2samp(_direction(s.points, 1.0)[:, -1],
                            _direction(oracle, 1.0)[:, -1])
        assert ks.pvalue > 1e-3

    def test_ph_norm_split_law(self):
        # B = sum |lambda_i|^p ~ Beta((n + beta n(n-1)/2)/p, alpha)
        n, p, beta, alpha = 3, 2.0, 2.0, 1.0
        s = sample_spectra("H", n, p, beta, RadialLawW(alpha=alpha),
                           rng(10), size=4000)  # exact at p = 2
        assert s.p == p and s.degree == beta * n * (n - 1) / 2.0
        b = np.sum(np.abs(s.points) ** p, axis=1)
        a = (n + beta * n * (n - 1) / 2.0) / p
        ks = stats.kstest(b, lambda t: stats.beta.cdf(t, a, alpha))
        assert ks.statistic < 0.05

    def test_pm_norm_split_law(self):
        # B = sum (s_i^2)^(p/2) ~ Beta(beta n^2 / p, alpha)
        n, p, beta, alpha = 3, 2.0, 2.0, 1.0
        s = sample_spectra("M", n, p, beta, RadialLawW(alpha=alpha),
                           rng(11), size=4000)  # exact at p = 2
        assert s.p == p / 2.0 and s.degree == beta * n * n / 2.0 - n
        b = np.sum(s.points ** (p / 2.0), axis=1)
        a = beta * n * n / p
        ks = stats.kstest(b, lambda t: stats.beta.cdf(t, a, alpha))
        assert ks.statistic < 0.05

    def test_dirac_law_on_sphere(self):
        s = sample_spectra("H", 3, 3.0, 2.0, RadialLawW.dirac(), rng(12),
                           size=200)
        assert np.allclose(np.sum(np.abs(s.points) ** 3.0, axis=1), 1.0,
                           atol=1e-10)

    def test_beta_validation(self):
        # on the exact path (p = 2) as on the chain
        for family in "HM":
            for p in (2.0, 3.0):
                with pytest.raises(ParameterError, match="1, 2, or 4"):
                    sample_spectra(family, 3, p, 3.0,
                                   RadialLawW.exponential(), rng(25))

    def test_n_validation(self):
        # n = 0 is refused on the exact path as on the chain
        for family in "HM":
            for p in (2.0, 3.0):
                with pytest.raises(ParameterError, match="n must be >= 1"):
                    sample_spectra(family, 0, p, 2.0,
                                   RadialLawW.exponential(), rng(25))

    @pytest.mark.parametrize("family", ["H", "M"])
    @pytest.mark.parametrize("n, size", [(0, 5), (-1, 5), (2.5, 5), (3, 0),
                                         (3, -2), (3, 2.0)])
    def test_exact_spectra_refuse_bad_n_and_size(self, family, n, size):
        # not numpy's "negative dimensions" error, an empty table or a
        # TypeError from deep inside the draw
        with pytest.raises(ParameterError, match=">= 1 and whole"):
            beta_ensemble_spectra(family, n, 2.0, rng(25), size)

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_validation(self, size):
        # on the exact path (p = 2) as on the chain
        for family in "HM":
            for p in (2.0, 3.0):
                with pytest.raises(ParameterError, match="size must be >= 1"):
                    sample_spectra(family, 3, p, 2.0,
                                   RadialLawW.exponential(), rng(25), size)

    @pytest.mark.parametrize("family", ["euclid", "X", "h"])
    def test_family_validation(self, family):
        # the ell_p ball's family has no spectrum: sample_pnpw draws it
        for p in (2.0, 3.0):
            with pytest.raises(ParameterError, match="'H' or 'M'"):
                sample_spectra(family, 3, p, 2.0, RadialLawW.exponential(),
                               rng(25))


class TestChainAtDefaults:
    """The chain, which has no settings, against exact laws at p = 2."""

    @pytest.mark.parametrize("family", ["H", "M"])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_direction_matches_beta_ensemble_at_n64(self, family, beta):
        # the scale-free direction statistic max|x_i| / ||x||_q of the
        # chain's draws against the Dumitriu-Edelman models.  The draws are
        # autocorrelated, so the KS p-value counts the statistic's ESS
        # (summed per chain) in place of the draws; and a floor on that ESS
        # keeps the gate able to reject, since KS on a few dozen effective
        # draws passes almost any law
        n, size = 64, 2000
        weight, q = ((WeightFn("delta", beta), 2.0) if family == "H"
                     else (WeightFn("nabla", beta), 1.0))
        res = mcmc_sample(n, q, weight, rng(30), size)
        oracle = beta_ensemble_spectra(family, n, beta, rng(31), size=4000)
        d = np.abs(_direction(res.samples, q)).max(axis=1)
        n_eff = sum(geyer_ess(c)
                    for c in d.reshape(mcmc.N_CHAINS, -1))
        assert n_eff >= 0.05 * size
        ks = stats.ks_2samp(d, np.abs(_direction(oracle, q)).max(axis=1))
        scale = math.sqrt(n_eff * oracle.shape[0] / (n_eff + oracle.shape[0]))
        assert stats.kstwobign.sf(scale * ks.statistic) > 1e-3

    def test_singular_pm_n32_norm_split(self, chain_ball):
        # the configuration that failed with a 2000-flip burn-in: B = sum x_i
        # must follow Beta(n^2 beta / p, 1) = Beta(1024, 1), and acceptance
        # must sit in its window
        n = 32
        s = chain_ball(n, 1.0, WeightFn("nabla", 2.0),
                       RadialLawW.exponential(), RngStream(1), 2000)
        assert s.chain.ok
        b = np.sum(s.points ** s.p, axis=1)
        shape = (n + s.degree) / s.p
        assert shape == 1024.0
        assert stats.kstest(b, stats.beta(shape, 1.0).cdf).pvalue > 1e-6


def _direction(v, q):
    """Each row divided by its ell_q norm: the direction, which the radial
    mixture leaves alone.  The tests read its last (largest) or its
    largest absolute coordinate."""
    return v / np.sum(np.abs(v) ** q, axis=1, keepdims=True) ** (1.0 / q)


def _scale_free_stats(v, q):
    """The largest, smallest and middle |x_i| / ||x||_q per row, and the
    coefficient of variation of the gaps between the sorted x_i, one row
    each: scale free, so the radial mixture leaves their laws alone.  The
    largest alone misses a spectrum whose bulk is off, and the three
    directions miss a 15% shift of beta, which the gaps' spread sees."""
    a = np.sort(np.abs(_direction(v, q)), axis=1)
    gaps = np.diff(np.sort(v, axis=1), axis=1)
    cv = gaps.std(axis=1) / gaps.mean(axis=1)
    return np.vstack([a[:, [-1, 0, a.shape[1] // 2]].T, cv])


class TestExactSpectra:
    """At p = 2 sample_spectra draws exactly and independently, so
    plain two-sample KS tests hold them to dense Gaussian ensembles that
    share no code with them."""

    # (family, beta, n, oracle draws): n = 128 takes fewer dense draws
    GATES = ([(f, b, n, 1000) for f in "HM" for b in (1.0, 2.0)
              for n in (32, 64)]
             + [(f, 4.0, 32, 1000) for f in "HM"]
             + [(f, 2.0, 128, 300) for f in "HM"])

    @pytest.mark.parametrize("family, beta, n, size", GATES)
    def test_matches_dense_oracle(self, dense_spectra, family, beta, n, size):
        s = sample_spectra(family, n, 2.0, beta, RadialLawW.exponential(),
                           rng(40), size=2000)
        assert s.chain is None
        q = s.p
        oracle = dense_spectra(family, n, beta, size,
                               seed=1000 * n + 10 * int(beta) + ord(family))
        for got, want in zip(_scale_free_stats(s.points, q),
                             _scale_free_stats(oracle, q)):
            assert stats.ks_2samp(got, want).pvalue > 1e-3
        # the norm split under W = Exp(1): sum |x_i|^q ~ Beta((n + m)/q, 1)
        b = np.sum(np.abs(s.points) ** q, axis=1)
        shape = (n + s.degree) / q
        assert stats.kstest(b, stats.beta(shape, 1.0).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("family", ["H", "M"])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_dense_oracle_radius_law(self, dense_spectra, family, beta):
        # the oracle's own scale and, at beta = 4, its pairing: R is
        # Gamma((n + m)/q) as for the tridiagonal models
        n = 4
        v = dense_spectra(family, n, beta, 2000, seed=50)
        r = TestBetaEnsembleOracle.radius(family, v)
        a = TestBetaEnsembleOracle.radius_shape(family, n, beta)
        assert stats.kstest(r, stats.gamma(a).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_n1(self, beta):
        # one eigenvalue ~ N(0, 1/2) and one squared singular value
        # ~ Gamma(beta/2): the spectrum is the diagonal
        h = beta_ensemble_spectra("H", 1, beta, rng(41), size=4000).ravel()
        assert stats.kstest(h, stats.norm(scale=math.sqrt(0.5)).cdf
                            ).pvalue > 1e-3
        m = beta_ensemble_spectra("M", 1, beta, rng(42), size=4000).ravel()
        assert stats.kstest(m, stats.gamma(beta / 2.0).cdf).pvalue > 1e-3
        for family in "HM":
            s = sample_spectra(family, 1, 2.0, beta,
                               RadialLawW.exponential(), rng(43), size=10)
            assert s.points.shape == (10, 1) and s.chain is None

    def test_m_is_nonnegative_at_beta1(self):
        # the squared singular values of B B^T come nearest 0 at beta = 1
        x = beta_ensemble_spectra("M", 16, 1.0, rng(44), size=10000)
        assert x.min() >= 0.0

    def test_spectrum_and_w_streams(self):
        # the spectrum comes from the first of rng.split(2) and W from the
        # second, the streams the chain and W take at p != 2
        law = RadialLawW(theta=0.3, alpha=2.0)
        s = sample_spectra("H", 3, 2.0, 2.0, law, rng(45), size=300)
        r_x, r_w = rng(45).split(2)
        x = beta_ensemble_spectra("H", 3, 2.0, r_x, size=300)
        w = sample_W(law, r_w, size=300)
        np.testing.assert_allclose(
            s.points, x / np.sqrt(np.sum(x ** 2, axis=1) + w)[:, None],
            rtol=1e-14)


def on_cpus(monkeypatch, k):
    """Make the process's affinity set read as k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def spy_dsterf(monkeypatch, fail=None):
    """Patch the binding with one that records each calling thread and,
    on the first call that fail(thread) accepts, reports info 7."""
    real, seen, failed = matrixball._dsterf(), set(), []

    def spy(n_at, d, e, info_at):
        seen.add(threading.get_ident())
        real(n_at, d, e, info_at)
        if fail is not None and not failed and fail(threading.get_ident()):
            failed.append(True)
            ctypes.c_int.from_address(info_at).value = 7

    monkeypatch.setattr(matrixball, "_dsterf", lambda: spy)
    return seen


class TestSpectraThreads:
    """The dsterf rows of beta_ensemble_spectra run in blocks of at most
    2^16 / n^2 rows on one thread per CPU."""

    # sizes of 3 to 7 blocks, split unevenly among 2 and 3 CPUs
    SIZES = {2: 50001, 16: 1001, 33: 241, 300: 7}

    @pytest.mark.parametrize("n", sorted(SIZES))
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("family", ["H", "M"])
    def test_same_bits_on_one_two_and_three_cpus(self, monkeypatch, family,
                                                 beta, n):
        # up to three workers, switching threads often
        got, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for k in (1, 2, 3):
                on_cpus(monkeypatch, k)
                got.append(beta_ensemble_spectra(family, n, beta, rng(60),
                                                 self.SIZES[n]))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(got[0], g) for g in got[1:])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_worker_per_cpu_and_none_left(self, monkeypatch, cpus):
        # the calling thread is one of the workers, and the only one of a
        # one-block call such as the benchmark's n = 4 warm-up
        seen = spy_dsterf(monkeypatch)
        on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        beta_ensemble_spectra("H", 16, 2.0, rng(61), 1001)
        assert len(seen) == cpus and threading.get_ident() in seen
        assert threading.active_count() == before
        seen.clear()
        beta_ensemble_spectra("M", 4, 2.0, rng(62), 4096)
        assert seen == {threading.get_ident()}

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_failed_block_raises_and_leaves_no_thread(self, monkeypatch,
                                                      where):
        caller = threading.get_ident()
        spy_dsterf(monkeypatch, fail=lambda ident: (ident == caller)
                   == (where == "caller"))
        on_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="info 7"):
            beta_ensemble_spectra("H", 16, 2.0, rng(63), 1001)
        assert threading.active_count() == before


class TestDsterfBinding:
    """The ctypes binding is LAPACK's dsterf, the routine behind
    scipy.linalg.lapack.dsterf."""

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("zero_off", [False, True])
    def test_rows_match_f2py_dsterf(self, n, zero_off):
        gen = np.random.default_rng(n)
        d = gen.standard_normal((50, n))
        e = np.zeros((50, n - 1)) if zero_off else gen.standard_normal(
            (50, n - 1))
        want = [lapack.dsterf(di, ei)[0] for di, ei in zip(d, e)]
        ni = np.array([n, -1], dtype=np.intc)
        dsterf = matrixball._dsterf()
        for di, ei, w in zip(d, e, want):
            dsterf(ni.ctypes.data, di.ctypes.data, ei.ctypes.data,
                   ni.ctypes.data + ni.itemsize)
            assert ni[1] == 0 and di.tobytes() == w.tobytes()

    def test_refuses_other_signature(self, monkeypatch):
        # ssterf has the same arguments in single precision; binding reads
        # the capsule without retyping ctypes.pythonapi's shared functions
        shared = [(f.restype, f.argtypes) for f in (
            ctypes.pythonapi.PyCapsule_GetName,
            ctypes.pythonapi.PyCapsule_GetPointer)]
        matrixball._dsterf.__wrapped__()
        monkeypatch.setitem(cython_lapack.__pyx_capi__, "dsterf",
                            cython_lapack.__pyx_capi__["ssterf"])
        with pytest.raises(TypeError, match="double dsterf"):
            matrixball._dsterf.__wrapped__()
        assert shared == [(f.restype, f.argtypes) for f in (
            ctypes.pythonapi.PyCapsule_GetName,
            ctypes.pythonapi.PyCapsule_GetPointer)]


class TestEmpiricalMeasure:
    # W = delta_0 puts every row on the sphere of its exponent: the
    # eigenvalues on the ell_p sphere, the squared singular values on the
    # ell_{p/2} sphere, which an M sample carries as its p

    def test_on_sphere_p_moment_is_one(self):
        s = sample_spectra("H", 4, 2.5, 2.0, RadialLawW.dirac(), rng(17),
                           size=5)
        np.testing.assert_allclose(np.sum(np.abs(s.points) ** 2.5, axis=1),
                                   1.0, rtol=0.0, atol=1e-10)

    def test_m_sample_on_sphere_q_moment_is_one(self):
        s = sample_spectra("M", 4, 3.0, 2.0, RadialLawW.dirac(), rng(24),
                           size=5)
        assert s.p == 1.5
        np.testing.assert_allclose(np.sum(np.abs(s.points) ** 1.5, axis=1),
                                   1.0, rtol=0.0, atol=1e-10)
