"""Memory ceilings of the exact paths, seen by tracemalloc (numpy reports
its array buffers to it): each path holds its output plus at most about
one temporary of the output's size (none beyond row blocks and a bool
sign per cell for the exact sampler), and the pair weights none of size
n^2 per row."""

import tracemalloc

import numpy as np

from pradial.distributions import RadialLawW
from pradial.lpgeom import sample_pnpw
from pradial.mcmc import estimate_norm_const
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
