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

    def test_analytic_needs_pdf_and_quantile(self):
        with pytest.raises(ParameterError):
            MeasureRep(kind="analytic", pdf=lambda x: 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            MeasureRep(kind="mystery")

    def test_semicircle_quantile_inverts_cdf(self):
        mu = MeasureRep.semicircle(radius=2.0)
        for u in (0.1, 0.5, 0.77):
            x = mu.quantile(u)
            cdf, _ = integrate.quad(mu.pdf, -2.0, x)
            assert cdf == pytest.approx(u, abs=1e-8)

    def test_gen_gaussian_scaled_normalized(self):
        for p, z in ((2.0, 1.0), (1.0, 3.0), (3.0, 0.5)):
            mu = MeasureRep.gen_gaussian_scaled(p, z)
            lim = (60.0 * z) ** (1.0 / p)
            mass, _ = integrate.quad(mu.pdf, -lim, lim, points=[0.0],
                                     limit=300)
            assert mass == pytest.approx(1.0, abs=1e-9)
            # quantile inverts the cdf at the median
            assert mu.quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_to_grid_preserves_moments(self):
        mu = MeasureRep.beta_law(2.0, 3.0)
        grid = mu.to_grid(n_bins=2000)
        assert grid.kind == "grid"
        assert moment_p(grid, 1.0) == pytest.approx(moment_p(mu, 1.0),
                                                    abs=1e-4)


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
            quantile=lambda u: stats.norm.ppf(u, scale=s),
            support=(-np.inf, np.inf))
        expected = -math.log(s * math.sqrt(2.0)) + s * s - 0.5
        assert relative_entropy_gen_gaussian(mu, 2.0) == pytest.approx(
            expected, abs=1e-7)

    def test_nonnegative_on_grid(self):
        g = np.linspace(-3, 3, 4001)
        d = np.exp(-np.abs(g) ** 1.5)
        d /= np.trapezoid(d, g)
        mu = MeasureRep.from_grid(g, d)
        assert relative_entropy_gen_gaussian(mu, 2.0) > -1e-6


class TestLogEnergy:
    def test_atoms_with_ties_infinite(self):
        assert log_energy(MeasureRep.from_atoms([1.0, 1.0, 2.0])) == np.inf

    def test_atoms_hand_value(self):
        # -2 sum_{i<j} w_i w_j log|x_i - x_j| with uniform weights on
        # {0, 1, 3}: pairs |1|,|3|,|2| -> -(2/9)(log1 + log3 + log2)
        mu = MeasureRep.from_atoms([0.0, 1.0, 3.0])
        expected = -(2.0 / 9.0) * (math.log(3.0) + math.log(2.0))
        assert log_energy(mu) == pytest.approx(expected, abs=1e-12)

    def test_arcsine_is_log2(self):
        # the arcsine law on [-1, 1] is the equilibrium measure with
        # energy log 2
        assert log_energy(MeasureRep.arcsine()) == pytest.approx(
            math.log(2.0), abs=1e-6)

    def test_uniform_is_three_halves(self):
        # -2 int int log|x-y| on [0,1]^2 = 3/2... energy of uniform[0,1]
        assert log_energy(MeasureRep.uniform(0.0, 1.0)) == pytest.approx(
            1.5, abs=1e-6)

    def test_grid_matches_analytic(self):
        # the exact Beta(2,2) energy is 7/4; the grid at 800 bins is
        # within 2e-6 of it
        grid = MeasureRep.beta_law(2.0, 2.0).to_grid(n_bins=800)
        assert log_energy(grid) == pytest.approx(1.75, abs=2e-3)

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
            log_energy(mu1) - math.log(3.0), abs=1e-6)
