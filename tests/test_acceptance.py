"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import betainc, gammaln

from pradial import rates
from pradial.cli import main as cli_main
from pradial.distributions import ParameterError, RadialLawW
from pradial.lpgeom import (PsiSpec, norm_split_B, psi_density,
                            psi_normalization_defect)
from pradial.matrixball import beta_ensemble_spectra
from pradial.mcmc import ChainConfig, mcmc_sample, sample_weighted_pnpw
from pradial.measures import MeasureRep, log_energy
from pradial.rng import RngStream
from pradial.weights import WeightFn

SEED = 20240801


def report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_norm_split_exactness():
    # B ~ Beta(n/p, alpha) for theta = 0, (p, alpha) in {0.5,1,2,3} x {1,5},
    # n = 50, N = 1e5, KS p-value > 0.01 each
    n, size = 50, 10 ** 5
    worst = 1.0
    ok = True
    for i, (p, alpha) in enumerate(
            itertools.product((0.5, 1.0, 2.0, 3.0), (1.0, 5.0))):
        law = RadialLawW(alpha=alpha)
        b = norm_split_B(n, p, 0.0, law, RngStream(SEED, stream_id=i),
                         size=size)
        ks = stats.kstest(b, lambda t: betainc(n / p, alpha, t))
        worst = min(worst, ks.pvalue)
        ok = ok and ks.pvalue > 0.01
    report(1, ok, f"8 (p, alpha) combos, n=50, N=1e5; min KS p-value "
                  f"{worst:.4f} > 0.01")


def test_criterion_02_psi_closed_forms():
    # Exp(1) gives psi == 1 to 1e-12; Gamma(alpha,1) matches direct
    # quadrature of the defining integral at 10 random points to 1e-8
    s_grid = np.linspace(0.0, 0.999, 200)
    spec = PsiSpec(n=5, p=2.0, m=3.0, law=RadialLawW.exponential())
    exp_err = float(np.max(np.abs(psi_density(spec, s_grid) - 1.0)))

    gen = RngStream(SEED, stream_id=100).gen
    gamma_err = 0.0
    for _ in range(10):
        alpha = gen.uniform(0.5, 3.0)
        n = int(gen.integers(2, 15))
        p = gen.uniform(0.5, 3.0)
        m = gen.uniform(0.0, 8.0)
        s = gen.uniform(0.05, 0.9)
        spec = PsiSpec(n=n, p=p, m=m, law=RadialLawW(alpha=alpha))
        d = (n + m) / p
        t = s ** p / (1.0 - s ** p)

        def integrand(w):
            return (w ** d * np.exp(-t * w)
                    * w ** (alpha - 1.0) * np.exp(-w - gammaln(alpha)))

        quad_val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
        quad_val *= math.exp(-(d + 1.0) * math.log1p(-s ** p)
                             - gammaln(d + 1.0))
        closed = float(psi_density(spec, s))
        gamma_err = max(gamma_err,
                        abs(closed - quad_val) / max(1.0, abs(quad_val)))
    ok = exp_err < 1e-12 and gamma_err < 1e-8
    report(2, ok, f"Exp(1) max |psi - 1| = {exp_err:.2e} < 1e-12; Gamma "
                  f"closed form vs quadrature max rel err = {gamma_err:.2e} "
                  f"< 1e-8 at 10 random points")


def _tabulated_exp_law() -> RadialLawW:
    grid = np.linspace(0.0, 40.0, 8001)
    dens = np.exp(-grid)
    dens /= np.trapezoid(dens, grid)
    return RadialLawW.tabulated(grid=grid, density=dens)


def test_criterion_03_psi_normalization():
    # int_0^1 (n+m) s^(n+m-1) psi(s) ds + W({0}) = 1 +/- 1e-8 for all
    # variants including one tabulated law
    laws = {
        "dirac": RadialLawW.dirac(),
        "exponential": RadialLawW.exponential(),
        "gamma": RadialLawW(alpha=2.5),
        "mixture": RadialLawW(theta=0.3, alpha=2.0),
        "tabulated": _tabulated_exp_law(),
    }
    worst = 0.0
    for name, law in laws.items():
        spec = PsiSpec(n=6, p=2.0, m=4.0, law=law)
        worst = max(worst, psi_normalization_defect(spec))
    ok = worst < 1e-8
    report(3, ok, f"5 W variants (incl. tabulated); max normalization "
                  f"defect {worst:.2e} < 1e-8")


def test_criterion_04_matrix_cross_check():
    # eigen sampler (beta=2, p=2, n=4, Dirac W) vs GUE oracle and singular
    # sampler (beta=2, p=2, n=3) vs Gaussian-matrix oracle: KS on the
    # scale-invariant statistic < 0.03 with >= 1e4 effective samples.
    # Dirac mixing rescales every spectrum to the sphere, so the statistic
    # is computed directly on the chain output.
    cfg = ChainConfig(n_samples=20000, thin=6, n_chains=4)
    res_h = mcmc_sample(4, 2.0, WeightFn.delta_beta(2.0),
                        RngStream(SEED, stream_id=200), cfg)
    stat_h = res_h.samples[:, -1] / np.linalg.norm(res_h.samples, axis=1)
    oracle = beta_ensemble_spectra("H", 4, 2.0,
                                   RngStream(SEED, stream_id=201), size=20000)
    ks_h = stats.ks_2samp(stat_h, oracle[:, -1]
                          / np.linalg.norm(oracle, axis=1)).statistic

    cfg = ChainConfig(n_samples=20000, thin=6, n_chains=4)
    res_m = mcmc_sample(3, 1.0, WeightFn.nabla_beta(2.0),
                        RngStream(SEED, stream_id=202), cfg)  # q = p/2 = 1
    stat_m = res_m.samples[:, -1] / res_m.samples.sum(axis=1)
    oracle = beta_ensemble_spectra("M", 3, 2.0,
                                   RngStream(SEED, stream_id=203), size=20000)
    ks_m = stats.ks_2samp(stat_m, oracle[:, -1]
                          / oracle.sum(axis=1)).statistic
    ok = (res_h.ess >= 1e4 and res_m.ess >= 1e4 and ks_h < 0.03
          and ks_m < 0.03 and res_h.ok and res_m.ok)
    report(4, ok, f"GUE KS {ks_h:.4f} < 0.03 (ESS {res_h.ess:.0f}); "
                  f"Laguerre KS {ks_m:.4f} < 0.03 (ESS {res_m.ess:.0f})")


def test_criterion_05_matrix_norm_split():
    # eigen-PH statistic ~ Beta((n + beta n(n-1)/2)/p, alpha) at n=3,
    # beta in {1,2}, p in {1,2}, alpha=2; KS p-value > 0.001
    n, alpha = 3, 2.0
    worst = 1.0
    ok = True
    for i, (beta, p) in enumerate(
            itertools.product((1.0, 2.0), (1.0, 2.0))):
        # the chain on the eigen-PH target, which at p = 2 the sampler
        # draws exactly instead
        s = sample_weighted_pnpw(n, p, WeightFn.delta_beta(beta),
                                 RadialLawW(alpha=alpha),
                                 RngStream(SEED, stream_id=300 + i),
                                 size=4000,
                                 config=ChainConfig(n_samples=4000, thin=10))
        b = np.sum(np.abs(s.points) ** p, axis=1)
        a = (n + beta * n * (n - 1) / 2.0) / p
        ks = stats.kstest(b, lambda t: betainc(a, alpha, t))
        worst = min(worst, ks.pvalue)
        ok = ok and ks.pvalue > 0.001 and s.chain.ok
    report(5, ok, f"4 (beta, p) combos at n=3, alpha=2; min KS p-value "
                  f"{worst:.4f} > 0.001")


def test_criterion_06_rate_zeros():
    # I_beta minimized at x* = gate/(gate + alpha) with |I(x*)| < 1e-8 by
    # golden-section, for 6 parameter combos
    combos = [
        ("beta-euclid", 2.0, 2.0, 1.0),
        ("beta-euclid", 0.5, 2.0, 2.0),
        ("beta-H", 2.0, 1.0, 1.0),
        ("beta-H", 1.0, 4.0, 2.0),
        ("beta-M", 2.0, 2.0, 1.0),
        ("beta-M", 3.0, 1.0, 2.0),
    ]
    worst_val, worst_loc = 0.0, 0.0
    ok = True
    for target, p, beta, alpha in combos:
        spec = rates.RateFnSpec(target=target, p=p, beta=beta, alpha=alpha)
        res = optimize.minimize_scalar(
            lambda x: rates.rate_beta(float(x), spec),
            bracket=(1e-6, 0.5, 1.0 - 1e-6), method="golden",
            options={"xtol": 1e-12})
        xstar = spec.gate / (spec.gate + alpha)
        worst_val = max(worst_val, abs(res.fun))
        worst_loc = max(worst_loc, abs(res.x - xstar))
        ok = ok and abs(res.fun) < 1e-8 and abs(res.x - xstar) < 1e-5
    report(6, ok, f"6 combos: golden-section min |I(x*)| = {worst_val:.2e} "
                  f"< 1e-8, located at gate/(gate+alpha) +/- {worst_loc:.1e}")


def test_criterion_07_rate_case_battery():
    # 20-point battery over every finite / +inf branch of the empirical
    # rate, including the m_p = 1, alpha > 0 corner
    np_1 = MeasureRep.gen_gaussian_scaled(2.0, 1.0)
    np_big = MeasureRep.gen_gaussian_scaled(2.0, 3.0)
    arcsine = MeasureRep.arcsine()
    arcsine_big = MeasureRep.arcsine(-2.0, 2.0)
    unif01 = MeasureRep.uniform(0.0, 1.0)
    unif_big = MeasureRep.uniform(0.0, 3.0)
    atoms = MeasureRep.from_atoms([0.1, 0.3])
    corner_e = MeasureRep.from_atoms([-1.0, 1.0])   # m_2 = 1 exactly
    corner_m = MeasureRep.from_atoms([1.0])         # m_1 = 1 exactly

    def spec(target, alpha, c=0.0, beta=2.0):
        return rates.RateFnSpec(target=target, p=2.0, beta=beta, alpha=alpha,
                                c=c)

    battery = [
        # euclid
        ("E alpha=0 finite", "emp-euclid", np_1, 0.0, 0.0, "finite"),
        ("E alpha=0 shift", "emp-euclid", np_1, 0.0, -0.5, "finite"),
        ("E alpha=0 gate", "emp-euclid", np_big, 0.0, 0.0, "inf"),
        ("E alpha>0 finite", "emp-euclid", np_1, 1.0, 0.0, "finite"),
        ("E alpha>0 shift", "emp-euclid", np_1, 2.0, -0.3, "finite"),
        ("E alpha>0 gate", "emp-euclid", np_big, 1.0, 0.0, "inf"),
        ("E atoms cone-inf", "emp-euclid", atoms, 1.0, 0.0, "inf"),
        ("E corner m=1", "emp-euclid", corner_e, 1.0, 0.0, "inf"),
        # H
        ("H alpha=0 finite", "emp-H", arcsine, 0.0, 0.0, "finite"),
        ("H alpha=0 gate", "emp-H", arcsine_big, 0.0, 0.0, "inf"),
        ("H alpha>0 finite", "emp-H", arcsine, 1.0, 0.0, "finite"),
        ("H alpha>0 gate", "emp-H", arcsine_big, 1.0, 0.0, "inf"),
        ("H corner m=1", "emp-H", corner_e, 1.0, 0.0, "inf"),
        ("H atoms finite energy", "emp-H", MeasureRep.from_atoms([-0.3, 0.4]),
         1.0, 0.0, "finite"),
        # M
        ("M alpha=0 finite", "emp-M", unif01, 0.0, 0.0, "finite"),
        ("M alpha=0 gate", "emp-M", unif_big, 0.0, 0.0, "inf"),
        ("M alpha>0 finite", "emp-M", unif01, 1.0, 0.0, "finite"),
        ("M alpha>0 gate", "emp-M", unif_big, 1.0, 0.0, "inf"),
        ("M corner m=1", "emp-M", corner_m, 1.0, 0.0, "inf"),
        ("M negative support", "emp-M", MeasureRep.uniform(-1.0, 1.0), 1.0,
         0.0, "error"),
    ]
    assert len(battery) == 20
    failures = []
    for name, target, mu, alpha, c, expect in battery:
        sp = spec(target, alpha, c)
        try:
            val = rates.rate(sp, mu)["value"]
            got = "finite" if np.isfinite(val) else "inf"
        except ParameterError:
            got = "error"
        if got != expect:
            failures.append(f"{name}: expected {expect}, got {got}")
    ok = not failures
    report(7, ok, "20-point branch battery all correct" if ok
           else "; ".join(failures))


def test_criterion_08_constant_check():
    # H-case cone constant at p=2, beta=2 equals -1/4 within 1e-10
    val = (2.0 / (2.0 * 2.0)) * rates.log_energy_constant(2.0)
    err = abs(val + 0.25)
    report(8, err < 1e-10, f"H-case constant at p=2, beta=2: {val:.12f}, "
                           f"|err| = {err:.2e} < 1e-10")


def test_criterion_09_legendre_biconjugation():
    # (Lambda*)* = Lambda within 1e-5 sup-norm on three convex functions;
    # quadratic self-duality within 1e-6
    t = np.linspace(-3.0, 3.0, 1201)
    worst = 0.0
    for f in (t ** 2, np.cosh(t), np.abs(t) ** 1.5 + 0.2 * t):
        f2 = rates.legendre_biconjugate(t, f)
        interior = slice(100, -100)  # boundary slopes are grid-censored
        worst = max(worst, float(np.max(np.abs(f2[interior] - f[interior]))))

    tq = np.linspace(-6.0, 6.0, 2401)
    fq = tq ** 2 / 2.0
    xs = np.linspace(-2.0, 2.0, 41)
    dual = rates.legendre_transform(tq, fq, xs)
    q_err = float(np.max(np.abs(dual - xs ** 2 / 2.0)))
    ok = worst < 1e-5 and q_err < 1e-6
    report(9, ok, f"biconjugation sup-norm {worst:.2e} < 1e-5 on 3 convex "
                  f"functions; quadratic self-duality err {q_err:.2e} < 1e-6")


def test_criterion_10_gartner_ellis():
    # Monte-Carlo scaled CGF at n=100 within 0.05 of the analytic Lambda
    # for |t| <= 1, theta=0, alpha_n = n, p=2
    n, p, alpha = 100, 2.0, 1.0
    b = norm_split_B(n, p, 0.0, RadialLawW(alpha=alpha * n),
                     RngStream(SEED, stream_id=400), size=4 * 10 ** 5)
    worst = 0.0
    for t in np.linspace(-1.0, 1.0, 9):
        est = rates.scaled_cgf_estimate(b, float(t), n, 1)
        exact = rates.analytic_scaled_cgf(float(t), p, alpha)
        worst = max(worst, abs(est - exact))
    ok = worst < 0.05
    report(10, ok, f"scaled CGF at n=100, 9 points in |t| <= 1: max "
                   f"|MC - analytic| = {worst:.4f} < 0.05")


def test_criterion_11_laplace_breitung():
    # ratios within 1.00 +/- 0.02 at n=400 on the documented test
    # integrals; the adapted limits within 0.02
    q1 = lambda x: 1.0
    p1 = lambda x: -(x - 0.3) ** 2
    q2 = lambda x: 1.0 + x
    p2 = lambda x: -x - x * x
    lap, est_l, lim_l = rates.laplace_check(q1, p1, (0.0, 1.0), 400, c=0.05)
    brt, est_b, lim_b = rates.breitung_check(q2, p2, 400, c=0.05)
    ok = (abs(lap - 1.0) < 0.02 and abs(brt - 1.0) < 0.02
          and abs(est_l - lim_l) < 0.02 and abs(est_b - lim_b) < 0.02)
    report(11, ok, f"n=400: Laplace ratio {lap:.4f}, boundary ratio "
                   f"{brt:.4f} (both within 0.02 of 1); adapted errors "
                   f"{abs(est_l - lim_l):.4f}, {abs(est_b - lim_b):.4f} "
                   f"< 0.02")


def test_criterion_12_sharp_decay():
    # for {B <= 0.1}: -(1/n) log P (exact Beta CDF) vs the I_beta infimum
    # over the event; gap < 0.05 at n=80 and decreasing over {20,40,80}
    p, alpha, bcut = 2.0, 1.0, 0.1
    spec = rates.RateFnSpec(target="beta-euclid", p=p, alpha=alpha)
    xs = np.linspace(1e-6, bcut, 4000)
    inf_rate = min(rates.rate_beta(float(x), spec) for x in xs)
    gaps = []
    for n in (20, 40, 80):
        prob = float(betainc(n / p, alpha * n, bcut))
        gaps.append(-math.log(prob) / n - inf_rate)
    ok = gaps[-1] < 0.05 and gaps[0] > gaps[1] > gaps[2] > 0
    report(12, ok, f"gaps over n in (20,40,80): "
                   f"{', '.join(f'{g:.4f}' for g in gaps)}; decreasing and "
                   f"final {gaps[-1]:.4f} < 0.05")


def test_criterion_13_log_energy_oracles():
    # arcsine energy log 2 +/- 1e-3; uniform-[0,1] energy 3/2 +/- 1e-3
    e_arc = log_energy(MeasureRep.arcsine())
    e_uni = log_energy(MeasureRep.uniform(0.0, 1.0))
    err_a = abs(e_arc - math.log(2.0))
    err_u = abs(e_uni - 1.5)
    ok = err_a < 1e-3 and err_u < 1e-3
    report(13, ok, f"arcsine energy err {err_a:.2e} < 1e-3; uniform-[0,1] "
                   f"energy err {err_u:.2e} < 1e-3")


def test_criterion_14_reproducibility(tmp_path):
    # any command rerun from its manifest yields byte-identical CSV output
    cases = [
        (["sample", "--target", "eigen-PH", "--n", "4", "--beta", "2",
          "--p", "3", "--count", "200", "--seed", "31"], "samples.csv"),
        (["ldp-verify", "--event-b", "0.1", "--p", "2", "--n-list", "20,40",
          "--monte-carlo", "--count", "2000", "--seed", "32"],
         "ldp_decay.csv"),
        (["rate", "--target", "beta-euclid", "--p", "2", "--alpha", "1"],
         "rate_scan.csv"),
    ]
    ok = True
    for i, (argv, csv_name) in enumerate(cases):
        out1 = tmp_path / f"first{i}"
        out2 = tmp_path / f"second{i}"
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main([argv[0], "--config", str(out1 / "manifest.json"),
                         "--out", str(out2)]) == 0
        ok = ok and ((out1 / csv_name).read_bytes()
                     == (out2 / csv_name).read_bytes())
    report(14, ok, "3 commands rerun from their manifests; CSV outputs "
                   "byte-identical")
