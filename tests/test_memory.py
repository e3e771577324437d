"""Memory ceilings of the exact paths, seen by tracemalloc (numpy reports
its array buffers to it): each path holds its output plus at most about
one temporary of the output's size (none beyond row blocks and a bool
sign per cell for the exact sampler), the pair weights none of size
n^2 per row, and the tabulated psi three row blocks per worker thread
and one row block for its atoms."""

import os
import tracemalloc

import numpy as np

from pradial.distributions import RadialLawW
from pradial.lpgeom import PsiSpec, psi_density, sample_pnpw
from pradial.mcmc import estimate_norm_const
from pradial.measures import MeasureRep, log_energy
from pradial.rng import RngStream
from pradial.weights import WeightFn, log_delta_beta


def traced_peak(f):
    """f's result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pair_weights_stay_in_row_blocks():
    # the dense difference cube alone would take 4000 * 64^2 * 8 = 131 MB
    x = np.random.default_rng(0).standard_normal((4000, 64))
    _, peak = traced_peak(lambda: log_delta_beta(x, 2.0))
    assert peak < 16 * 2 ** 20


def test_exact_sampler_holds_output_plus_one_temporary():
    # p = 2 draws normals and p = 1 a Gamma(1) and a bool sign per cell:
    # the output plus row blocks of |x|^p.  p = 1.5 and 3 take the
    # Gamma(1/p) boost, whose uniforms come in blocks too.
    for p, bound in ((2.0, 1.3), (1.0, 1.3), (1.5, 1.5), (3.0, 1.5)):
        s, peak = traced_peak(lambda: sample_pnpw(
            50, p, RadialLawW.exponential(), RngStream(1), size=20000))
        assert peak < bound * s.points.nbytes, p


def test_norm_const_holds_its_draws_plus_one_temporary():
    size, n = 200000, 4
    _, peak = traced_peak(lambda: estimate_norm_const(
        n, 2.0, WeightFn("delta", 2.0), RngStream(1), size=size))
    assert peak < 2 * size * n * 8


def test_tabulated_psi_holds_three_blocks_a_worker(monkeypatch):
    # the benchmark's table: 400 points on 4001 knots, so an array of all
    # the (s, knot) pairs at once would take 12.8 MB.  A worker's three
    # blocks of 2^16 pairs take 1.5 MiB
    g = np.linspace(0.0, 40.0, 4001)
    dens = np.exp(-g)
    spec = PsiSpec(n=5, p=2.0, law=RadialLawW.tabulated(
        grid=g, density=dens / np.trapezoid(dens, g)))
    s = np.sort(0.95 * np.random.default_rng(1001).random(400))
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        _, peak = traced_peak(lambda: psi_density(spec, s))
        assert peak < 1.25 * cpus * 3 * 2 ** 16 * 8, cpus


def test_tabulated_psi_sums_atoms_in_row_blocks():
    # 2000 points on 4000 atoms: all the (s, atom) pairs at once would take
    # 64 MB.  A row block of 2^16 pairs takes 0.5 MiB
    gen = np.random.default_rng(3)
    at, wgt = 3.0 * gen.exponential(size=4000), gen.random(4000)
    spec = PsiSpec(n=5, p=2.0, m=1.5, law=RadialLawW.tabulated(
        atoms=list(zip(at, wgt / wgt.sum()))))
    s = np.sort(0.97 * gen.random(2000))
    psi_density(spec, s[:1])  # the first call imports scipy.special
    _, peak = traced_peak(lambda: psi_density(spec, s))
    assert peak < 4 * 2 ** 16 * 8


def test_atom_log_energy_sums_in_row_blocks():
    # 4000 atoms: the pairs of all rows at once would take 128 MB.  A row
    # block of 2^16 pairs takes 0.5 MiB, and its difference, log and
    # masked copy 1.5 MiB; blocks of 2^18 pairs took 6 MiB
    mu = MeasureRep.from_atoms(np.random.default_rng(3).standard_normal(4000))
    _, peak = traced_peak(lambda: log_energy(mu))
    assert peak < 4 * 2 ** 16 * 8
