"""Tests for measure representations, moments, entropy, and log-energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from pradial.distributions import ParameterError
from pradial.measures import (MeasureRep, _psi_cell, log_energy, moment_p,
                              relative_entropy_gen_gaussian)


def _grid_energy_reference(mu):
    """The cell-pair double loop: the same closed form per pair of cells,
    skipping cells of zero mass."""
    g, dens = mu.grid, mu.density
    masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(g)
    masses = masses / masses.sum()
    total = 0.0
    for i in range(masses.size):
        if masses[i] == 0.0:
            continue
        a, b = g[i], g[i + 1]
        for j in range(masses.size):
            if masses[j] == 0.0:
                continue
            c, d = g[j], g[j + 1]
            combo = (_psi_cell(np.array([b - c])) - _psi_cell(np.array([b - d]))
                     - _psi_cell(np.array([a - c]))
                     + _psi_cell(np.array([a - d])))
            total += masses[i] * masses[j] * float(combo[0]) / (
                (b - a) * (d - c))
    return -total


def _random_grid(gen, cells):
    g = np.sort(gen.uniform(-2.0, 3.0, cells + 1))
    d = gen.uniform(0.0, 1.0, cells + 1)
    d[gen.random(cells + 1) < 0.3] = 0.0  # zero-mass cells included
    d[cells // 2] = 1.0
    return MeasureRep.from_grid(g, d / np.trapezoid(d, g))


class TestMeasureRep:
    def test_atoms_default_uniform_weights(self):
        mu = MeasureRep.from_atoms([1.0, 2.0, 3.0])
        assert np.allclose(mu.weights, 1.0 / 3.0)

    def test_atoms_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            MeasureRep(kind="atoms", positions=np.array([0.0, 1.0]),
                       weights=np.array([0.5, 0.6]))

    def test_grid_mass_validated(self):
        g = np.linspace(0, 1, 100)
        with pytest.raises(ParameterError):
            MeasureRep.from_grid(g, 2.0 * np.ones_like(g))

    @pytest.mark.parametrize("kwargs", [
        {"pdf": lambda x: 1.0},
        {"pdf": lambda x: 1.0, "support": (0.0, np.inf)},
        {"pdf": lambda x: 1.0, "support": (1.0, 1.0)},
        {"pdf": lambda x: 1.0, "support": (0.0, float("nan"))},
        {"support": (0.0, 1.0)},
    ])
    def test_analytic_needs_pdf_and_finite_support(self, kwargs):
        with pytest.raises(ParameterError, match="finite support"):
            MeasureRep(kind="analytic", **kwargs)

    @pytest.mark.parametrize("make", [
        lambda: MeasureRep.semicircle(0.0),
        lambda: MeasureRep.semicircle(-1.0),
        lambda: MeasureRep.uniform(1.0, 0.0),
        lambda: MeasureRep.arcsine(2.0, 2.0),
        lambda: MeasureRep.gen_gaussian_scaled(2.0, 0.0),
        lambda: MeasureRep.gen_gaussian_scaled(0.0, 1.0),
        lambda: MeasureRep.from_atoms([]),
    ])
    def test_degenerate_parameters_rejected(self, make):
        with pytest.raises(ParameterError):
            make()

    @pytest.mark.parametrize("weights", [[1.5, -1.0, 0.5], [0.5, 0.5]],
                             ids=["signed", "misshapen"])
    def test_atom_weights_nonnegative_one_per_atom(self, weights):
        # the signed weights sum to 1, and would give cone-H a finite
        # negative rate
        with pytest.raises(ParameterError, match="one per atom"):
            MeasureRep.from_atoms([0.1, 0.5, 0.9], weights)

    def test_support_is_where_the_mass_is(self):
        assert MeasureRep.from_atoms([0.5, -1.0, 2.0]).support == (-1.0, 2.0)
        # the end cells [-1, -0.5] and [1.5, 2] carry no mass; [-0.5, 0]
        # does, although its left knot has density 0
        mu = MeasureRep.from_grid([-1.0, -0.5, 0.0, 1.0, 1.5, 2.0],
                                  np.array([0, 0, 2, 2, 0, 0]) / 3.0)
        assert mu.support == (-0.5, 1.5)

    def test_grid_density_nonnegative(self):
        # mass 1 by the trapezoid rule, with a negative knot value
        with pytest.raises(ParameterError, match="nonnegative"):
            MeasureRep.from_grid([0.0, 1.0, 2.0], [-0.5, 1.0, 0.5])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            MeasureRep(kind="mystery")

    def test_gen_gaussian_scaled_normalized(self):
        for p, z in ((2.0, 1.0), (1.0, 3.0), (3.0, 0.5)):
            mu = MeasureRep.gen_gaussian_scaled(p, z)
            lim = (60.0 * z) ** (1.0 / p)
            mass, _ = integrate.quad(mu.pdf, -lim, lim, points=[0.0],
                                     limit=300)
            assert mass == pytest.approx(1.0, abs=1e-9)
            # the support is cut at the quantiles 1e-12 and 1 - 1e-12
            lo, hi = mu.support
            assert lo == -hi
            tail, _ = integrate.quad(mu.pdf, hi, np.inf)
            assert tail == pytest.approx(1e-12, rel=1e-6)


class TestMomentP:
    def test_atoms(self):
        mu = MeasureRep.from_atoms([-2.0, 1.0], weights=[0.25, 0.75])
        assert moment_p(mu, 2.0) == pytest.approx(0.25 * 4 + 0.75, abs=1e-12)

    def test_uniform_analytic(self):
        mu = MeasureRep.uniform(0.0, 1.0)
        # int x^p dx = 1/(p+1)
        for p in (1.0, 2.0, 3.5):
            assert moment_p(mu, p) == pytest.approx(1.0 / (p + 1.0), rel=1e-8)

    def test_semicircle_second_moment(self):
        # semicircle radius r has second moment r^2/4
        mu = MeasureRep.semicircle(radius=2.0)
        assert moment_p(mu, 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_semicircle_grid_second_moment(self):
        # a grid takes the trapezoid rule, whose error at the square-root
        # ends of the semicircle is O(h^1.5): 1.12 (h/r)^1.5 relative to
        # r^2/4 here, against the analytic family's 1e-14
        r, knots = 2.0, 2001
        x = np.linspace(-r, r, knots)
        d = np.sqrt(np.maximum(r * r - x * x, 0.0))
        mu = MeasureRep.from_grid(x, d / np.trapezoid(d, x))
        h = x[1] - x[0]
        assert moment_p(mu, 2.0) == pytest.approx(r * r / 4.0,
                                                  rel=2.0 * (h / r) ** 1.5)
        assert moment_p(mu, 2.0) != pytest.approx(r * r / 4.0,
                                                  rel=0.5 * (h / r) ** 1.5)

    @pytest.mark.parametrize("make, p, want, tol", [
        # smooth in the angle: the quadrature in quantile coordinates was
        # off by 5.9e-14 and -1.1e-11 on these
        (lambda beta_law: MeasureRep.semicircle(radius=2.0), 2.0, 1.0, 1e-14),
        (lambda beta_law: beta_law(2.0, 2.0), 2.0, 0.3, 1e-13),
    ])
    def test_closed_forms_in_the_angle(self, beta_law, make, p, want, tol):
        assert moment_p(make(beta_law), p) == pytest.approx(want, abs=tol)

    def test_gen_gaussian_p_moment(self):
        # m_p(N_p) = 1/p; the z-scaled family has m_p = z/p
        for p, z in ((2.0, 1.0), (1.3, 2.0)):
            mu = MeasureRep.gen_gaussian_scaled(p, z)
            assert moment_p(mu, p) == pytest.approx(z / p, rel=1e-7)


class TestRelativeEntropy:
    def test_atoms_infinite(self):
        assert relative_entropy_gen_gaussian(
            MeasureRep.from_atoms([0.0, 1.0]), 2.0) == np.inf

    def test_self_is_zero(self):
        for p in (1.0, 2.0, 3.0):
            mu = MeasureRep.gen_gaussian_scaled(p, 1.0)
            assert relative_entropy_gen_gaussian(mu, p) == pytest.approx(
                0.0, abs=1e-8)

    def test_gaussian_vs_n2_closed_form(self):
        # mu = N(0, s^2) against N_2 (density e^{-x^2}/sqrt(pi), i.e.
        # variance 1/2): H = log(1/(s sqrt(2))) + s^2 - 1/2
        s = 0.8
        mu = MeasureRep(
            kind="analytic",
            pdf=lambda x: stats.norm.pdf(x, scale=s),
            support=(-10.0 * s, 10.0 * s))
        expected = -math.log(s * math.sqrt(2.0)) + s * s - 0.5
        assert relative_entropy_gen_gaussian(mu, 2.0) == pytest.approx(
            expected, abs=1e-7)

    def test_arcsine_vs_n2_closed_form(self):
        # H = int f log f - int f log N_2, where the arcsine law on [-1, 1]
        # has differential entropy log(pi / 2) and m_2 = 1/2; x-space
        # quadrature was off by -8.6e-10
        expected = 0.5 + math.log(math.sqrt(math.pi)) - math.log(math.pi / 2.0)
        assert relative_entropy_gen_gaussian(
            MeasureRep.arcsine(), 2.0) == pytest.approx(expected, abs=1e-11)

    def test_nonnegative_on_grid(self):
        g = np.linspace(-3, 3, 4001)
        d = np.exp(-np.abs(g) ** 1.5)
        d /= np.trapezoid(d, g)
        mu = MeasureRep.from_grid(g, d)
        assert relative_entropy_gen_gaussian(mu, 2.0) > -1e-6


def _atoms_energy_reference(x, w):
    """The upper-triangle gather: -2 sum_{i<j} w_i w_j log|x_i - x_j|."""
    iu = np.triu_indices(x.size, k=1)
    d = np.abs(x[:, None] - x[None, :])[iu]
    if np.any(d == 0.0):
        return np.inf
    return float(-2.0 * np.sum((w[:, None] * w[None, :])[iu] * np.log(d)))


def _dilate(mu, s):
    """The law of s X for X ~ mu, as an analytic measure."""
    lo, hi = mu.support
    return MeasureRep(kind="analytic", pdf=lambda x: mu.pdf(x / s) / s,
                      support=(s * lo, s * hi))


EULER_GAMMA = 0.5772156649015329

# name -> make(beta_law), the law; beta_law is the conftest fixture
_ANALYTIC_LAWS = {
    "uniform": lambda beta_law: MeasureRep.uniform(-0.5, 2.0),
    "arcsine": lambda beta_law: MeasureRep.arcsine(0.0, 1.0),
    "semicircle": lambda beta_law: MeasureRep.semicircle(1.5),
    "beta(2,2)": lambda beta_law: beta_law(2.0, 2.0),
    "beta(3,1.5)": lambda beta_law: beta_law(3.0, 1.5),
    "gen-gaussian":
        lambda beta_law: MeasureRep.gen_gaussian_scaled(1.5, 2.0),
}


class TestLogEnergy:
    def test_atoms_with_ties_infinite(self):
        assert log_energy(MeasureRep.from_atoms([1.0, 1.0, 2.0])) == np.inf
        # a tie far apart in the input order
        assert log_energy(MeasureRep.from_atoms([2.0, 0.5, 3.0, 2.0])) == np.inf

    @pytest.mark.parametrize("positions, weights", [
        ([0.0, float("nan"), 1.0], None),
        ([0.0, float("inf"), 1.0], None),
        ([0.0, 1.0], [float("nan"), 1.0]),
    ])
    def test_atoms_must_be_finite(self, positions, weights):
        # a nan position sorts last and would drop out of the pair sum
        with pytest.raises(ParameterError, match="finite"):
            MeasureRep.from_atoms(positions, weights)

    def test_grid_must_be_finite(self):
        # nan - 1 compares false, so the mass check would let nan through
        with pytest.raises(ParameterError, match="finite"):
            MeasureRep.from_grid([0.0, 1.0, 2.0], [0.0, float("nan"), 0.0])

    def test_atoms_hand_value(self):
        # -2 sum_{i<j} w_i w_j log|x_i - x_j| with uniform weights on
        # {0, 1, 3}: pairs |1|,|3|,|2| -> -(2/9)(log1 + log3 + log2)
        mu = MeasureRep.from_atoms([0.0, 1.0, 3.0])
        expected = -(2.0 / 9.0) * (math.log(3.0) + math.log(2.0))
        assert log_energy(mu) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 700, 2000])
    def test_atoms_match_triu_reference(self, n):
        # unsorted positions and unequal weights; 2000 atoms span many
        # row blocks
        gen = np.random.default_rng(n)
        x = gen.standard_normal(n)
        w = gen.uniform(0.5, 1.5, n)
        w /= w.sum()
        got = log_energy(MeasureRep.from_atoms(x, w))
        assert got == pytest.approx(_atoms_energy_reference(x, w), rel=1e-12)
        x[n // 2] = x[0]
        assert log_energy(MeasureRep.from_atoms(x, w)) == np.inf

    def test_arcsine_is_log2(self):
        # the arcsine law on [-1, 1] is the equilibrium measure with
        # energy log 2
        assert log_energy(MeasureRep.arcsine()) == pytest.approx(
            math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("a, b", [(-1.3, 1.3), (0.0, 1.0), (2.0, 7.5)])
    def test_arcsine_closed_form(self, a, b):
        # the arcsine law is the equilibrium measure of [a, b], whose
        # capacity is (b - a) / 4
        assert log_energy(MeasureRep.arcsine(a, b)) == pytest.approx(
            math.log(2.0) - math.log((b - a) / 2.0), abs=1e-12)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    def test_semicircle_closed_form(self, r):
        assert log_energy(MeasureRep.semicircle(r)) == pytest.approx(
            0.25 - math.log(r / 2.0), abs=1e-12)

    def test_beta_closed_forms(self, beta_law):
        # Beta(2, 2) has energy 7/4; Beta(1/2, 1/2) is the arcsine law of
        # [0, 1], with energy log 4
        assert log_energy(beta_law(2.0, 2.0)) == pytest.approx(1.75,
                                                               abs=1e-10)
        assert log_energy(beta_law(0.5, 0.5)) == pytest.approx(
            math.log(4.0), abs=1e-10)

    def test_uniform_is_three_halves(self):
        # -int int log|x - y| dx dy over [0, 1]^2 = 3/2
        assert log_energy(MeasureRep.uniform(0.0, 1.0)) == pytest.approx(
            1.5, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
    def test_laplace_closed_form(self, z):
        # density prop. to exp(-|x| / z), with its kink at 0: X - Y has
        # density (1 + |u|/z) e^{-|u|/z} / (4z), so E = gamma - 1/2 - log z
        mu = MeasureRep.gen_gaussian_scaled(1.0, z)
        assert log_energy(mu) == pytest.approx(
            EULER_GAMMA - 0.5 - math.log(z), abs=1e-9)

    @pytest.mark.parametrize("make, want", [
        # the nested quadrature in quantile coordinates, run once; the
        # Chebyshev series stops at n = 16384 and 8192 points for these,
        # within the 1e-8 convergence bar
        (lambda beta_law: MeasureRep.gen_gaussian_scaled(1.5, 1.0),
         0.4777426249320643),
        (lambda beta_law: beta_law(1.5, 3.0), 1.8922770674553282),
    ])
    def test_matches_nested_quadrature(self, beta_law, make, want):
        assert log_energy(make(beta_law)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("make", [
        # a cusp at 0: the nested quadrature gave -1.5830317 (Monte Carlo
        # on 4e7 pairs: -1.58258 +- 2e-4); 8192 points alone gave -1.58665
        lambda beta_law: MeasureRep.gen_gaussian_scaled(0.5, 1.0),
        # a cusp, and the 1e-12 quantiles ~2e4 interquartile widths out:
        # the nested quadrature gave 2.7663142, 8192 points alone 1.3427
        lambda beta_law: MeasureRep.gen_gaussian_scaled(0.2, 0.1),
        lambda beta_law: MeasureRep.gen_gaussian_scaled(0.8, 1.0),
        # ends steeper than the arcsine's: the nested quadrature gave
        # 1.7840582 and 1.3897561, 8192 points alone 2.1e-3 and 2.7e-6 less
        lambda beta_law: beta_law(0.3, 0.7),
        lambda beta_law: beta_law(0.45, 0.45),
    ])
    def test_unresolved_law_raises(self, beta_law, make):
        with pytest.raises(ParameterError, match="unresolved"):
            log_energy(make(beta_law))

    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
    def test_gaussian_closed_form(self, z):
        # density prop. to exp(-x^2 / z) is N(0, z/2), and X - Y ~ N(0, z):
        # E = -E log|X - Y| = -(1/2) log z + (gamma + log 2) / 2.  The
        # tails beyond the quantiles 1e-12 are cut
        mu = MeasureRep.gen_gaussian_scaled(2.0, z)
        assert log_energy(mu) == pytest.approx(
            -0.5 * math.log(z) + 0.5 * (EULER_GAMMA + math.log(2.0)),
            abs=1e-10)

    @given(st.sampled_from(sorted(_ANALYTIC_LAWS)), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_analytic_dilation_property(self, beta_law, name, s):
        # E(s mu) = E(mu) - log s
        mu = _ANALYTIC_LAWS[name](beta_law)
        assert log_energy(_dilate(mu, s)) == pytest.approx(
            log_energy(mu) - math.log(s), abs=1e-11)

    def test_analytic_uses_no_quadrature(self, monkeypatch, beta_law):
        def refuse(*args, **kwargs):
            raise AssertionError("log_energy called scipy.integrate")

        for name in ("quad", "dblquad", "quad_vec"):
            monkeypatch.setattr(f"scipy.integrate.{name}", refuse)
        for make in _ANALYTIC_LAWS.values():
            assert np.isfinite(log_energy(make(beta_law)))

    def test_grid_matches_analytic(self):
        # the exact Beta(2,2) energy is 7/4; its density at 800 knots,
        # rescaled to unit trapezoid mass, is 1.8e-6 below it
        g = np.linspace(0.0, 1.0, 800)
        d = g * (1.0 - g)
        grid = MeasureRep.from_grid(g, d / np.trapezoid(d, g))
        assert log_energy(grid) == pytest.approx(1.75, abs=3e-6)

    @pytest.mark.parametrize("cells", [2, 7, 40, 120])
    def test_grid_matches_reference(self, cells):
        gen = np.random.default_rng(cells)
        for _ in range(3):
            mu = _random_grid(gen, cells)
            ref = _grid_energy_reference(mu)
            assert log_energy(mu) == pytest.approx(ref, rel=1e-12)

    def test_grid_repeated_knot(self):
        # a repeated knot tabulates a jump; its zero-width cell has no mass
        mu = MeasureRep.from_grid([0.0, 0.3, 0.5, 0.5, 1.0],
                                  [0.5, 0.5, 0.5, 1.5, 1.5])
        assert np.isfinite(log_energy(mu))
        assert log_energy(mu) == pytest.approx(_grid_energy_reference(mu),
                                               rel=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40),
           st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_grid_scaling_property(self, seed, cells, c):
        # E(c mu) = E(mu) - log c for the dilated grid measure
        mu = _random_grid(np.random.default_rng(seed), cells)
        scaled = MeasureRep.from_grid(c * mu.grid, mu.density / c)
        assert log_energy(scaled) == pytest.approx(
            log_energy(mu) - math.log(c), abs=1e-12)

    def test_scaling_identity(self):
        # the energy is -integral integral log|x-y|, so a dilation by c
        # subtracts log c
        mu1 = MeasureRep.uniform(0.0, 1.0)
        mu2 = MeasureRep.uniform(0.0, 3.0)
        assert log_energy(mu2) == pytest.approx(
            log_energy(mu1) - math.log(3.0), abs=1e-12)
