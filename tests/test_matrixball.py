"""Tests for the matrix p-ball families and their spectral samplers."""

import math

import numpy as np
import pytest
from scipy import stats

from pradial.distributions import ParameterError, RadialLawW, sample_W
from pradial.matrixball import (EnsembleSpec, assemble_matrix_H,
                                assemble_matrix_M, beta_ensemble_spectra,
                                empirical_spectral_measure,
                                log_weyl_const_H, log_weyl_const_M,
                                sample_eigenvalues_PH, sample_sq_singular_PM,
                                spectral_measures)
from pradial.mcmc import (ChainConfig, geyer_ess, mcmc_sample,
                          sample_weighted_pnpw)
from pradial.measures import moment_p
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
    def test_ph_direction_matches_gue(self, beta):
        # p = 2: the chain, which sample_eigenvalues_PH runs at p != 2,
        # targets the Hermite beta-ensemble eigenvalue
        # density (GUE at beta = 2), so the direction lambda/||lambda||_2
        # must match the oracle's
        n = 4
        cfg = ChainConfig(n_samples=4000, thin=4)
        s = sample_weighted_pnpw(n, 2.0, WeightFn.delta_beta(beta),
                                 RadialLawW.exponential(), rng(6), size=4000,
                                 config=cfg)
        assert s.chain.ok
        oracle = beta_ensemble_spectra("H", n, beta, rng(7), size=4000)

        def direction_stat(v):
            return v[:, -1] / np.linalg.norm(v, axis=1)

        ks = stats.ks_2samp(direction_stat(s.points),
                            direction_stat(oracle))
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_pm_direction_matches_laguerre(self, beta):
        # p = 2 (q = 1): the chain, which sample_sq_singular_PM runs at
        # p != 2, targets the unit-scale Laguerre
        # beta-ensemble density for the squared singular values
        n = 3
        cfg = ChainConfig(n_samples=4000, thin=4)
        s = sample_weighted_pnpw(n, 1.0, WeightFn.nabla_beta(beta),
                                 RadialLawW.exponential(), rng(8), size=4000,
                                 config=cfg)
        assert s.chain.ok
        assert np.all(s.points > 0)
        oracle = beta_ensemble_spectra("M", n, beta, rng(9), size=4000)

        def direction_stat(v):
            return v[:, -1] / v.sum(axis=1)

        ks = stats.ks_2samp(direction_stat(s.points),
                            direction_stat(oracle))
        assert ks.pvalue > 1e-3

    def test_ph_norm_split_law(self):
        # B = sum |lambda_i|^p ~ Beta((n + beta n(n-1)/2)/p, alpha)
        n, p, beta, alpha = 3, 2.0, 2.0, 1.0
        spec = EnsembleSpec(n=n, p=p, beta=beta,
                            law=RadialLawW(alpha=alpha))
        s = sample_eigenvalues_PH(spec, rng(10), size=4000)  # exact at p = 2
        assert s.p == p and s.degree == beta * n * (n - 1) / 2.0
        b = np.sum(np.abs(s.points) ** p, axis=1)
        a = (n + beta * n * (n - 1) / 2.0) / p
        ks = stats.kstest(b, lambda t: stats.beta.cdf(t, a, alpha))
        assert ks.statistic < 0.05

    def test_pm_norm_split_law(self):
        # B = sum (s_i^2)^(p/2) ~ Beta(beta n^2 / p, alpha)
        n, p, beta, alpha = 3, 2.0, 2.0, 1.0
        spec = EnsembleSpec(n=n, p=p, beta=beta,
                            law=RadialLawW(alpha=alpha))
        s = sample_sq_singular_PM(spec, rng(11), size=4000)  # exact at p = 2
        assert s.p == p / 2.0 and s.degree == beta * n * n / 2.0 - n
        b = np.sum(s.points ** (p / 2.0), axis=1)
        a = beta * n * n / p
        ks = stats.kstest(b, lambda t: stats.beta.cdf(t, a, alpha))
        assert ks.statistic < 0.05

    def test_dirac_law_on_sphere(self):
        spec = EnsembleSpec(n=3, p=3.0, beta=2.0, law=RadialLawW.dirac())
        s = sample_eigenvalues_PH(spec, rng(12), size=200,
                                  config=ChainConfig(n_samples=200))
        assert np.allclose(np.sum(np.abs(s.points) ** 3.0, axis=1), 1.0,
                           atol=1e-10)
        assert np.all(s.on_sphere)

    def test_caller_config_not_mutated(self):
        # p = 3: at p = 2 the draw is exact and reads no config
        cfg = ChainConfig(n_samples=7)
        s = sample_eigenvalues_PH(EnsembleSpec(n=3, p=3.0), rng(18), size=5,
                                  config=cfg)
        assert s.points.shape == (5, 3)
        assert cfg.n_samples == 7

    def test_beta_validation(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(n=3, p=2.0, beta=3.0)

    def test_n_validation(self):
        # n = 0 is refused on the exact path as on the chain
        with pytest.raises(ParameterError):
            EnsembleSpec(n=0, p=2.0)


class TestChainAtDefaults:
    """The chain at its default config, against exact laws at p = 2."""

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
        weight, q = ((WeightFn.delta_beta(beta), 2.0) if family == "H"
                     else (WeightFn.nabla_beta(beta), 1.0))
        res = mcmc_sample(n, q, weight, rng(30), ChainConfig(n_samples=size))
        oracle = beta_ensemble_spectra(family, n, beta, rng(31), size=4000)

        def direction_stat(v):
            return np.abs(v).max(axis=1) / np.sum(np.abs(v) ** q,
                                                  axis=1) ** (1.0 / q)

        d = direction_stat(res.samples)
        n_eff = sum(geyer_ess(c)
                    for c in d.reshape(ChainConfig().n_chains, -1))
        assert n_eff >= 0.05 * size
        ks = stats.ks_2samp(d, direction_stat(oracle))
        scale = math.sqrt(n_eff * oracle.shape[0] / (n_eff + oracle.shape[0]))
        assert stats.kstwobign.sf(scale * ks.statistic) > 1e-3

    def test_singular_pm_n32_norm_split(self):
        # the configuration that failed with a 2000-flip burn-in: B = sum x_i
        # must follow Beta(n^2 beta / p, 1) = Beta(1024, 1), and acceptance
        # must sit in its window
        n = 32
        s = sample_weighted_pnpw(n, 1.0, WeightFn.nabla_beta(2.0),
                                 RadialLawW.exponential(), RngStream(1),
                                 size=2000)
        assert s.chain.ok
        b = np.sum(s.points ** s.p, axis=1)
        shape = (n + s.degree) / s.p
        assert shape == 1024.0
        assert stats.kstest(b, stats.beta(shape, 1.0).cdf).pvalue > 1e-6


def _scale_free_stats(v, q):
    """The largest, smallest and middle |x_i| / ||x||_q per row, and the
    coefficient of variation of the gaps between the sorted x_i, one row
    each: scale free, so the radial mixture leaves their laws alone.  The
    largest alone misses a spectrum whose bulk is off, and the three
    directions miss a 15% shift of beta, which the gaps' spread sees."""
    a = np.sort(np.abs(v), axis=1)
    a /= np.sum(a ** q, axis=1, keepdims=True) ** (1.0 / q)
    gaps = np.diff(np.sort(v, axis=1), axis=1)
    cv = gaps.std(axis=1) / gaps.mean(axis=1)
    return np.vstack([a[:, [-1, 0, a.shape[1] // 2]].T, cv])


class TestExactSpectra:
    """At p = 2 the spectral samplers draw exactly and independently, so
    plain two-sample KS tests hold them to dense Gaussian ensembles that
    share no code with them."""

    # (family, beta, n, oracle draws): n = 128 takes fewer dense draws
    GATES = ([(f, b, n, 1000) for f in "HM" for b in (1.0, 2.0)
              for n in (32, 64)]
             + [(f, 4.0, 32, 1000) for f in "HM"]
             + [(f, 2.0, 128, 300) for f in "HM"])

    @pytest.mark.parametrize("family, beta, n, size", GATES)
    def test_matches_dense_oracle(self, dense_spectra, family, beta, n, size):
        sampler = (sample_eigenvalues_PH if family == "H"
                   else sample_sq_singular_PM)
        s = sampler(EnsembleSpec(n=n, p=2.0, beta=beta), rng(40), size=2000)
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
        for sampler in (sample_eigenvalues_PH, sample_sq_singular_PM):
            s = sampler(EnsembleSpec(n=1, p=2.0, beta=beta), rng(43),
                        size=10)
            assert s.points.shape == (10, 1) and s.chain is None

    def test_m_is_nonnegative_at_beta1(self):
        # the squared singular values of B B^T come nearest 0 at beta = 1
        x = beta_ensemble_spectra("M", 16, 1.0, rng(44), size=10000)
        assert x.min() >= 0.0

    def test_spectrum_and_w_streams(self):
        # the spectrum comes from the first of rng.split(2) and W from the
        # second, the streams sample_weighted_pnpw gives its chain and W
        law = RadialLawW(theta=0.3, alpha=2.0)
        s = sample_eigenvalues_PH(EnsembleSpec(n=3, p=2.0, law=law), rng(45),
                                  size=300)
        r_x, r_w = rng(45).split(2)
        x = beta_ensemble_spectra("H", 3, 2.0, r_x, size=300)
        w = sample_W(law, r_w, size=300)
        np.testing.assert_allclose(
            s.points, x / np.sqrt(np.sum(x ** 2, axis=1) + w)[:, None],
            rtol=1e-14)
        assert np.array_equal(s.on_sphere, w == 0.0)


class TestAssembly:
    def test_h_roundtrip_and_selfadjoint(self):
        eigs = np.array([-1.2, 0.3, 0.9, 2.0])
        for beta in (1.0, 2.0):
            h = assemble_matrix_H(eigs, beta, rng(13))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            got = np.sort(np.linalg.eigvalsh(h))
            assert np.max(np.abs(got - eigs)) < 1e-9
            if beta == 1.0:
                assert np.isrealobj(h)

    def test_m_roundtrip(self):
        sq = np.array([0.1, 0.5, 1.7])
        for beta in (1.0, 2.0):
            m = assemble_matrix_M(sq, beta, rng(14))
            got = np.sort(np.linalg.eigvalsh(m.conj().T @ m))
            assert np.max(np.abs(got - sq)) < 1e-9

    def test_beta4_spectral_only(self):
        with pytest.raises(ParameterError):
            assemble_matrix_H(np.array([1.0, 2.0]), 4.0, rng(15))
        with pytest.raises(ParameterError):
            assemble_matrix_M(np.array([1.0, 2.0]), 4.0, rng(15))

    def test_haar_invariance(self):
        # the dominant eigenvector is uniform on the sphere, so its squared
        # first entry has mean 1/n (sign conventions in eigh make the raw
        # entry unusable)
        eigs = np.array([0.1, 0.2, 5.0])
        firsts = []
        r = rng(16)
        for _ in range(2000):
            h = assemble_matrix_H(eigs, 1.0, r)
            _, vecs = np.linalg.eigh(h)
            firsts.append(vecs[0, -1] ** 2)
        assert np.mean(firsts) == pytest.approx(1.0 / 3.0, abs=0.03)


class TestEmpiricalMeasure:
    def test_single_atom(self):
        mu = empirical_spectral_measure(np.array([0.5]), 2.0)
        assert mu.kind == "atoms"
        assert mu.weights.sum() == pytest.approx(1.0)
        assert mu.positions[0] == pytest.approx(0.5)  # n = 1, scale = 1

    def test_on_sphere_p_moment_is_one(self):
        # on the sphere sum |lambda|^p = 1, so the rescaled measure has
        # p-th absolute moment exactly 1
        spec = EnsembleSpec(n=4, p=2.5, beta=2.0, law=RadialLawW.dirac())
        s = sample_eigenvalues_PH(spec, rng(17), size=5,
                                  config=ChainConfig(n_samples=5))
        for mu in spectral_measures(s):
            assert moment_p(mu, 2.5) == pytest.approx(1.0, abs=1e-10)

    def test_m_scaling(self):
        # squared singular values at p = 2 live on the ell_1 ball (q = 1):
        # blown up by n^(1/q) = n^(2/p)
        vals = np.array([0.1, 0.4])
        mu = empirical_spectral_measure(vals, 1.0)
        assert np.allclose(np.sort(mu.positions), np.sort(vals) * 2.0 ** 1.0)

    def test_m_sample_on_sphere_q_moment_is_one(self):
        # an M sample carries q = p/2 as its p, so spectral_measures blows
        # it up by n^(2/p) and the rescaled q-th moment is exactly 1
        spec = EnsembleSpec(n=4, p=3.0, beta=2.0, law=RadialLawW.dirac())
        s = sample_sq_singular_PM(spec, rng(24), size=5,
                                  config=ChainConfig(n_samples=5))
        for mu in spectral_measures(s):
            assert moment_p(mu, 1.5) == pytest.approx(1.0, abs=1e-10)
