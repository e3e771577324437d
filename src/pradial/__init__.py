"""Weighted p-radial distributions on lp-balls and matrix p-balls.

One exact sampler for the radial mixture laws on the unit lp-ball, whose
cases W = delta_0 and W = Exp(1) are the cone and uniform measures, MCMC
samplers for repulsion-weighted base densities, spectral samplers for
matrix p-balls, and numerical rate functions for the associated
large-deviation limits.

Importing pradial loads numpy and the standard library only.  Every scipy
function, scipy.special's included, is imported inside the function that
calls it, so the exact samplers never load scipy, and a command that never
integrates, optimises or runs a KS test does not pay for loading those
subpackages.
"""

__version__ = "0.1.0"

from .rng import RngStream
from .distributions import RadialLawW
from .weights import WeightFn
from .measures import MeasureRep
from .rates import RateFnSpec

__all__ = [
    "RngStream",
    "RadialLawW",
    "WeightFn",
    "MeasureRep",
    "RateFnSpec",
]
