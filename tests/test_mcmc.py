"""Tests for the Metropolis-within-Gibbs sampler for weighted densities."""

import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from pradial import _kernels, mcmc, weights
from pradial.distributions import (ParameterError, RadialLawW,
                                   sample_gen_gaussian)
from pradial.matrixball import sample_spectra
from pradial.mcmc import (estimate_norm_const, geyer_ess, mcmc_sample,
                          split_rhat)
from pradial.rng import RngStream
from pradial.weights import WeightFn

delta_beta = partial(WeightFn, "delta")
nabla_beta = partial(WeightFn, "nabla")


def rng(stream=0):
    return RngStream(seed=777, stream_id=stream)


class TestLogTarget:
    def test_delta_beta_value(self, log_target):
        # pi ~ exp(-||x||_2^2) * prod |xi - xj| at x = (1,2,3):
        # prod = 1*2*1 = 2, ||x||^2 = 14
        w = delta_beta(1.0)
        assert log_target(np.array([1.0, 2.0, 3.0]), 2.0, w) == pytest.approx(
            math.log(2.0) - 14.0, abs=1e-12)

    def test_ties_are_minus_infinity(self, log_target):
        w = delta_beta(2.0)
        assert log_target(np.array([1.0, 1.0, 3.0]), 2.0, w) == -np.inf

    @given(st.floats(0.1, 4.0), st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_weight_homogeneity(self, scale, beta):
        # f(c x) = c^m f(x) for every kind of weight
        x = np.array([0.3, 1.1, 2.4])
        for w in (WeightFn("one"), delta_beta(beta), nabla_beta(beta),
                  WeightFn("power", beta)):
            m = w.degree(3)
            got = w.log_eval(scale * x) - w.log_eval(x)
            assert got == pytest.approx(m * math.log(scale), abs=1e-9)


class TestGeyerEss:
    def test_iid_series(self):
        x = rng().gen.standard_normal(20000)
        ess = geyer_ess(x)
        assert 0.8 * len(x) < ess <= 1.05 * len(x)

    def test_correlated_series(self):
        # AR(1) with rho=0.9 has ESS ~ N*(1-rho)/(1+rho) ~ N/19
        gen = rng(1).gen
        n, rho = 40000, 0.9
        e = gen.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + e[i]
        ess = geyer_ess(x)
        assert 0.5 * n / 19 < ess < 2.0 * n / 19

    def test_constant_series(self):
        # zero variance: every draw counts
        assert geyer_ess(np.full(100, 0.3)) == 100.0


class TestSplitRhat:
    def iid(self):
        return rng(20).gen.standard_normal((4, 5000))

    def test_iid_chains(self):
        x = self.iid()
        assert split_rhat(x) < 1.01
        ess = sum(geyer_ess(c) for c in x)
        assert abs(ess - x.size) < 0.1 * x.size

    def test_shifted_means(self):
        assert split_rhat(self.iid() + np.arange(4)[:, None]) > 1.1

    def test_split_sees_a_drift_within_chains(self):
        # every chain drifts alike, so their means agree; their halves
        # do not
        assert split_rhat(self.iid() + np.linspace(0.0, 2.0, 5000)) > 1.1

    def test_rank_normalised(self):
        # a monotone map of the draws keeps their ranks
        x = self.iid()
        assert split_rhat(np.exp(x)) == split_rhat(x)

    @pytest.mark.parametrize("x", [np.zeros((4, 10)), np.ones((4, 3))],
                             ids=["constant", "halves-of-one"])
    def test_undefined_is_nan(self, x):
        assert math.isnan(split_rhat(x))


class TestMcmcSample:
    def test_diagnostics_sum_the_chains(self):
        # the pool holds each chain's kept states in turn
        res = mcmc_sample(4, 2.0, delta_beta(2.0), rng(9), 4000)
        norms = np.sum(res.samples ** 2, axis=1).reshape(mcmc.N_CHAINS, -1)
        assert res.ess == pytest.approx(sum(geyer_ess(c) for c in norms),
                                        rel=1e-9)
        assert res.rhat == pytest.approx(split_rhat(norms), rel=1e-9)
        assert res.rhat < 1.05

    def test_direction_diagnostics(self):
        # ess_dir and rhat_dir read max|x_i| / ||x||_p chain by chain; the
        # radius refresh leaves this statistic to the Metropolis flips.  The
        # chain sums unsorted states, so ranks of near ties may differ
        res = mcmc_sample(5, 1.5, nabla_beta(2.0), rng(19), 1600)
        x = res.samples
        dirs = (x.max(axis=1) / np.sum(x ** 1.5, axis=1) ** (1 / 1.5)
                ).reshape(mcmc.N_CHAINS, -1)
        assert res.ess_dir == pytest.approx(sum(geyer_ess(c) for c in dirs),
                                            rel=1e-9)
        assert res.rhat_dir == pytest.approx(split_rhat(dirs), rel=1e-6)
        assert 0.0 < res.ess_dir < res.ess

    def test_radius_refresh_is_exact(self):
        # after each sweep R = ||x||_p^p is redrawn from its law under pi,
        # Gamma((n + m) / p), so kept radii are independent Gamma draws
        n, p, w = 6, 1.5, delta_beta(1.0)
        res = mcmc_sample(n, p, w, rng(21), 4000)
        r = np.sum(np.abs(res.samples) ** p, axis=1)
        shape = (n + w.degree(n)) / p
        assert stats.kstest(r, stats.gamma(shape).cdf).pvalue > 1e-3
        assert res.ess > 0.8 * r.size

    def test_emission_sorted(self):
        res = mcmc_sample(5, 2.0, delta_beta(2.0), rng(3), 500)
        assert np.all(np.diff(res.samples, axis=1) >= 0)

    def test_orthant_weight_positive(self):
        res = mcmc_sample(4, 2.0, nabla_beta(1.0), rng(4), 500)
        assert np.all(res.samples > 0)

    def test_acceptance_in_window(self):
        for w in (delta_beta(2.0), nabla_beta(2.0)):
            res = mcmc_sample(6, 2.0, w, rng(5), 1000)
            assert 0.2 <= res.accept_rate <= 0.6
            assert res.ok

    def test_power_weight_rejected(self):
        # the kernel runs the two repulsion weights only
        with pytest.raises(ParameterError, match=r"not \|x\|\^2\.0"):
            mcmc_sample(3, 2.0, WeightFn("power", 2.0), rng(6))

    def test_constant_weight_rejected(self):
        # f == 1 is the product generalized Gaussian, drawn exactly by
        # lpgeom.sample_pnpw
        with pytest.raises(ParameterError, match="sample_pnpw"):
            mcmc_sample(3, 2.0, WeightFn("one"), rng(6))

    def test_kernel_matches_full_target_metropolis(self, log_target):
        # run_chain moves K chains in lockstep and scores each flip with an
        # O(n) incremental update; a textbook loop that rescores the full
        # log target on one chain's pre-generated randomness must take the
        # same accept/reject path as that chain's column of the batch, at
        # every step, adaptation and radius refresh included
        n, n_chains, steps, keep, adapt_until = 6, 3, 5004, 100, 2004
        t = np.arange(adapt_until, dtype=float)
        rates = 1.0 / (1.0 + t) ** 0.6
        up = np.exp(rates * (1.0 - 0.35))
        down = np.exp(rates * (0.0 - 0.35))
        thin = (steps - adapt_until) // keep

        def reference(x0, p, weight, coord_idx, normals, log_unifs, radii,
                      scales):
            x = x0.copy()
            out, path = [], []
            for step, i in enumerate(coord_idx):
                y = x.copy()
                y[i] = x[i] + scales[i] * normals[step]
                if weight.orthant_only:
                    y[i] = abs(y[i])
                accepted = bool(log_unifs[step] <= log_target(y, p, weight)
                                - log_target(x, p, weight))
                path.append(accepted)
                if accepted:
                    x = y
                if (step + 1) % n == 0:
                    # the exact Gibbs step on R = ||x||_p^p after a sweep
                    r = np.sum(np.abs(x) ** p, keepdims=True)
                    x = x * (radii[step // n] / r) ** (1.0 / p)
                if step < adapt_until:
                    scales[i] *= up[step] if accepted else down[step]
                elif (step - adapt_until + 1) % thin == 0 and len(out) < keep:
                    out.append(x.copy())
            return np.array(out), np.array(path)

        # beta = 4 puts a positive exponent on the orthant power term
        cases = [(delta_beta(2.0), 2.0), (delta_beta(1.0), 1.5),
                 (nabla_beta(1.0), 1.0), (nabla_beta(2.0), 2.0),
                 (nabla_beta(4.0), 3.0), (delta_beta(4.0), 3.0)]
        for stream, (weight, p) in enumerate(cases, start=71):
            draws = []
            for s in rng(stream).split(n_chains):
                gen = s.gen
                draws.append((np.sort(gen.random(n)) + np.arange(n) * 0.5 + 0.1,
                              gen.integers(0, n, size=steps),
                              gen.standard_normal(steps),
                              np.log(gen.random(steps)),
                              gen.standard_gamma((n + weight.degree(n)) / p,
                                                 size=steps // n)))
            x0 = np.stack([d[0] for d in draws])
            coord_idx, normals, log_unifs, radii = (
                np.stack([d[j] for d in draws], axis=1) for j in (1, 2, 3, 4))
            scales = np.full((n_chains, n), 1.0)
            out = np.empty((keep, n_chains, n))
            accepted = np.empty((steps, n_chains), dtype=bool)
            _kernels.run_chain(x0.copy(), p, weight.orthant_only, weight.beta,
                               coord_idx, normals, log_unifs, scales,
                               adapt_until, up, down, thin, out, accepted,
                               radii)
            for k in range(n_chains):
                ref_scales = np.full(n, 1.0)
                ref_out, ref_path = reference(x0[k], p, weight,
                                              coord_idx[:, k], normals[:, k],
                                              log_unifs[:, k], radii[:, k],
                                              ref_scales)
                assert 0 < accepted[adapt_until:, k].sum() < steps - adapt_until
                assert np.array_equal(accepted[:, k], ref_path), (weight.name, k)
                assert np.array_equal(out[:, k], ref_out), (weight.name, k)
                assert np.array_equal(scales[k], ref_scales), (weight.name, k)

    def test_kernel_signature_read_by_benchmark(self):
        # the benchmark's tracer reads run_chain's arguments by position
        # (coord_idx for the flip count, out for the kept states) and
        # records _kernels.BACKEND in every result file; radii came last so
        # that neither moved, and the orthant flag took the place of the
        # weight's integer code
        params = list(inspect.signature(_kernels.run_chain).parameters)
        assert params[2] == "orthant"
        assert params[4] == "coord_idx" and params[12] == "out"
        assert params[-1] == "radii"
        assert isinstance(_kernels.BACKEND, str)

    @pytest.mark.parametrize("n", [0, -2])
    def test_dimension_below_one_rejected(self, n):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            mcmc_sample(n, 2.0, delta_beta(2.0), rng(6))

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_below_one_rejected(self, size):
        # refused before the burn-in runs, not answered with an empty pool
        with pytest.raises(ParameterError, match="size must be >= 1"):
            mcmc_sample(3, 2.0, delta_beta(2.0), rng(6), size)

    def test_accept_per_chain(self):
        # one acceptance rate per chain, pooling to the overall rate since
        # every chain makes the same number of post-burn-in proposals
        res = mcmc_sample(4, 2.0, delta_beta(2.0), rng(7), 300)
        assert res.accept_per_chain.shape == (mcmc.N_CHAINS,)
        assert np.all((0.2 <= res.accept_per_chain)
                      & (res.accept_per_chain <= 0.6))
        assert np.mean(res.accept_per_chain) == pytest.approx(res.accept_rate)

    def test_reproducible(self):
        a = mcmc_sample(4, 1.5, delta_beta(1.0), rng(8), 200)
        b = mcmc_sample(4, 1.5, delta_beta(1.0), rng(8), 200)
        assert np.array_equal(a.samples, b.samples)

    def test_exchangeable_two_sided_symmetry(self):
        # for the two-sided delta weight the target is symmetric under
        # x -> -x; the pooled coordinate distribution should be symmetric
        res = mcmc_sample(4, 2.0, delta_beta(2.0), rng(9), 4000)
        pooled = res.samples.ravel()
        assert abs(np.mean(pooled)) < 4 * np.std(pooled) / math.sqrt(
            geyer_ess(pooled) + 1.0)


class TestNormConst:
    def test_constant_weight_exact(self):
        # f == 1 integrates to (2 Gamma(1+1/p))^n, so log C is exact
        for p in (0.7, 2.0, 3.0):
            log_c, se, _ = estimate_norm_const(3, p, WeightFn("one"),
                                               rng(10), size=2000)
            expected = -3.0 * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p))
            assert log_c == pytest.approx(expected, abs=1e-12)
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_abs_x_squared_n1(self):
        # f(x) = x^2: integral of x^2 exp(-x^2) = Gamma(3/2), C = 1/Gamma(3/2).
        # At n = 1 the direction is +-1, where f is 1, so the radius's
        # moment alone carries the integral and the estimate is exact
        w = WeightFn("power", 2.0)
        log_c, se, _ = estimate_norm_const(1, 2.0, w, rng(11), size=400000)
        assert log_c == pytest.approx(-math.log(math.gamma(1.5)), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_delta_weight_vs_quadrature(self):
        # n=2, p=2, beta=1: integral of |x-y| exp(-x^2-y^2) dx dy
        val, _ = integrate.dblquad(
            lambda y, x: abs(x - y) * math.exp(-x * x - y * y),
            -8, 8, -8, 8, epsabs=1e-10)
        log_c, se, _ = estimate_norm_const(2, 2.0, delta_beta(1.0),
                                           rng(12), size=200000)
        assert log_c == pytest.approx(-math.log(val), abs=3 * se + 1e-4)
        assert se < 0.01

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_delta_within_4_se_of_mehta(self, n, beta, log_mehta):
        # at p = 2 Mehta's integral gives log C exactly; without the radius
        # integrated out, these draws land 19 SE off at n = 8, beta = 2 and
        # 71 SE off at beta = 4
        log_c, se, _ = estimate_norm_const(n, 2.0, delta_beta(beta),
                                           rng(20 + n), size=100000)
        assert abs(log_c + log_mehta(n, beta)) < 4 * se

    @pytest.mark.parametrize("n, p, weight, stream, want", [
        (4, 2.0, delta_beta(2.0), 41,
         (-3.792202713277136, 0.0040453730634130965)),
        (3, 1.5, nabla_beta(1.0), 42,
         (0.3572507828662932, 0.007823350868100574)),
        (9, 2.0, delta_beta(2.0), 43,
         (-29.166166470221505, 0.0225509209094314)),
    ])
    def test_estimate_is_pinned(self, n, p, weight, stream, want):
        # exact float values of the radius-integrated estimator (see
        # CHANGES.md); 200001 rows are not a multiple of any pair block
        log_c, se, _ = estimate_norm_const(n, p, weight,
                                           RngStream(777, stream), size=200001)
        assert (log_c, se) == want

    def test_ess_is_kish_of_the_weights(self):
        # the same stream drawn again gives the importance weights
        # v = f(y / ||y||_p)
        n, p, size, weight = 5, 2.0, 20000, delta_beta(2.0)
        _, _, ess = estimate_norm_const(n, p, weight, rng(17), size=size)
        y = sample_gen_gaussian(p, rng(17), size=(size, n))
        logf = weight.log_eval(y / np.linalg.norm(y, axis=1, keepdims=True))
        v = np.exp(logf - logf.max())
        assert ess == pytest.approx(v.sum() ** 2 / np.sum(v * v), rel=1e-12)
        assert 1.0 <= ess < size
        _, _, flat = estimate_norm_const(n, p, WeightFn("one"), rng(17),
                                         size=size)
        assert flat == size

    def test_inputs_are_not_modified(self, monkeypatch):
        # the weight's evaluator may keep the draws it was handed
        seen = []
        real = weights.log_delta_beta

        def spy(x, beta):
            seen.append((x, x.copy()))
            return real(x, beta)

        monkeypatch.setattr(weights, "log_delta_beta", spy)
        weight = delta_beta(2.0)
        keep = repr(weight)
        estimate_norm_const(3, 2.0, weight, rng(18), size=1000)
        (x, copy), = seen
        assert np.array_equal(x, copy)
        assert repr(weight) == keep


class TestWeightedPnpw:
    """The chain's draws divided by (||X||_p^p + W)^(1/p)."""

    def test_inside_ball(self, chain_ball):
        law = RadialLawW.exponential()
        s = chain_ball(4, 2.0, delta_beta(2.0), law, rng(13), 300)
        assert np.all(np.sum(s.points ** 2, axis=1) < 1.0 + 1e-12)

    def test_dirac_on_sphere(self, chain_ball):
        law = RadialLawW.dirac()
        s = chain_ball(4, 2.0, delta_beta(2.0), law, rng(14), 300)
        assert np.allclose(np.sum(s.points ** 2, axis=1), 1.0, atol=1e-10)

    def test_points_do_not_alias_the_chain(self):
        # the finisher divides its argument in place; the chain's states
        # must come through sample_spectra as the chain drew them.  M at
        # p = 4 runs the chain at q = 2 with weight nabla_2
        size, weight = 500, nabla_beta(2.0)
        s = sample_spectra("M", 4, 4.0, 2.0, RadialLawW.exponential(),
                           rng(19), size=size)
        assert not np.shares_memory(s.points, s.chain.samples)
        r_chain, _ = rng(19).split(2)
        alone = mcmc_sample(4, 2.0, weight, r_chain, size)
        assert np.array_equal(s.chain.samples, alone.samples)
        assert np.all(np.diff(s.chain.samples, axis=1) >= 0.0)

    def test_norm_split_depends_only_on_degree(self, chain_ball):
        # B = ||X||_p^p/(||X||_p^p + W) ~ Beta((n+m)/p, alpha) depends on the
        # weight only through its homogeneity degree m.  delta_beta(2) and
        # nabla_beta(2) both have m = 6 at n = 3.
        n, p, size = 3, 2.0, 3000
        law = RadialLawW.exponential()

        def b_of(weight, stream):
            s = chain_ball(n, p, weight, law, rng(stream), size)
            return np.sum(np.abs(s.points) ** p, axis=1)

        assert delta_beta(2.0).degree(n) == nabla_beta(2.0).degree(n) == 6
        b1 = b_of(delta_beta(2.0), 15)
        b2 = b_of(nabla_beta(2.0), 16)
        # exact law available: Beta((n+m)/p, 1)
        a = (n + 6) / p
        for b in (b1, b2):
            ks = stats.kstest(b, lambda t: stats.beta.cdf(t, a, 1.0))
            # MCMC autocorrelation inflates the KS statistic; compare with a
            # conservative bound
            assert ks.statistic < 0.05
        assert stats.ks_2samp(b1, b2).pvalue > 1e-3
