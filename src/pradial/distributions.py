"""Base scalar distributions: generalized Gaussian, gamma, the beta law's
log CDF, and the radial mixing law W.

The generalized Gaussian here is the variant with density
``exp(-|x|^p) / (2*Gamma(1+1/p))``; all probabilistic representations in
this package are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, _row_blocks


class ParameterError(ValueError):
    pass


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def _check_counts(**counts):
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ParameterError(f"{name} must be >= 1 and whole, got {value!r}")


def sample_gamma(a: float, rng: RngStream, size):
    """Gamma(a, 1) draws (mean a).

    Shapes below 1 go through the boosting identity
    Gamma(a) =d= Gamma(a+1) * U^(1/a), which stays exact for small a.  The
    uniforms follow all the Gamma draws in the stream, and are drawn and
    applied in the blocks of rng._row_blocks.
    """
    _check_positive("shape a", a)
    gen = rng.gen
    g = gen.standard_gamma(a if a >= 1.0 else a + 1.0, size=size)
    if a < 1.0:
        flat = g.reshape(-1)
        for b in _row_blocks(flat.size, 1):
            u = gen.random(flat[b].size)
            # guard exact zeros from the uniform; measure-zero but log() below
            np.maximum(u, np.nextafter(0.0, 1.0), out=u)
            np.log(u, out=u)
            u /= a
            np.exp(u, out=u)
            flat[b] *= u
    return g


def _stirling_rest(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)."""
    from scipy.special import gammaln

    if z < 30.0:
        return gammaln(z) - ((z - 0.5) * math.log(z) - z
                             + 0.5 * math.log(2.0 * math.pi))
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680
                                                         - w / 1188)))) / z


def beta_log_cdf(x: float, a: float, b: float) -> float:
    """log P(Beta(a, b) <= x) for x in [0, 1]: -inf at x = 0, finite
    where the probability underflows.  Below the mean m = a/(a+b) it is
    the log of
    (x/m)^a ((1-x)/(1-m))^b m^a (1-m)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x):
    the series has positive terms with ratio (a+b+k)/(a+1+k) x < 1, and
    Stirling's formula gives log(m^a (1-m)^b / B(a, b)) with no large
    terms to cancel.  From the mean up, betainc does not underflow.
    1 - m is formed as b/(a+b), which stays positive when b << a."""
    from scipy.special import betainc

    _check_positive("a", a)
    _check_positive("b", b)
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return -math.inf
    m = a / (a + b)
    if x >= m:
        return math.log(betainc(a, b, x))
    total = term = 1.0
    k = 0
    while term > 1e-17 * total:
        term *= (a + b + k) / (a + 1.0 + k) * x
        total += term
        k += 1
    d = x - m
    return (a * math.log1p(d / m) + b * math.log1p(-d / (b / (a + b)))
            + 0.5 * math.log(a * b / (a + b) / (2.0 * math.pi))
            - _stirling_rest(a) - _stirling_rest(b) + _stirling_rest(a + b)
            - math.log(a) + math.log(total))


def sample_gen_gaussian(p: float, rng: RngStream, size, positive=False):
    """Draws with density exp(-|x|^p)/(2*Gamma(1+1/p)), or of |X| when
    positive is set.

    At p = 2 that is N(0, 1/2), sqrt(1/2) times a standard normal; every
    other p takes X = S * G^(1/p), S a uniform sign, G ~ Gamma(1/p, 1).
    The positive draw is |signed draw| from the same stream.
    """
    _check_positive("p", p)
    if p == 2.0:
        g = rng.gen.standard_normal(size)
        g *= math.sqrt(0.5)
        if positive:
            np.abs(g, out=g)
    else:
        g = sample_gamma(1.0 / p, rng, size=size)
        g **= 1.0 / p
        if not positive:
            np.negative(g, out=g, where=rng.gen.integers(0, 2, size=size,
                                                         dtype=bool))
    return g


def gen_gaussian_logpdf(p: float, x):
    from scipy.special import gammaln

    _check_positive("p", p)
    x = np.asarray(x, dtype=float)
    return -np.abs(x) ** p - np.log(2.0) - gammaln(1.0 + 1.0 / p)


@dataclass
class RadialLawW:
    """The mixing measure W = theta * delta_0 + (1-theta) * Gamma(alpha, 1),
    or a tabulated Borel law on [0, inf).

    Tabulated laws carry point atoms plus a density sampled on a grid; the
    total mass must be 1 within 1e-12.  A law with atoms or a grid is
    tabulated, and theta and alpha are then unused.
    """

    theta: float = 0.0
    alpha: float = 1.0
    atoms: list | None = None  # list of (position, weight), tabulated only
    grid: np.ndarray | None = None  # knots, tabulated only
    density: np.ndarray | None = None  # density values at knots

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ParameterError(f"theta must lie in [0, 1], got {self.theta}")
        if self.variant == "mixture":
            if self.theta < 1.0:
                _check_positive("alpha", self.alpha)
            return
        self.atoms = list(self.atoms or [])
        # a negative weight can hide in a total of 1; nan fails each test
        if not all(0.0 <= x < np.inf and 0.0 <= w < np.inf
                   for x, w in self.atoms):
            raise ParameterError("tabulated atoms must lie in [0, inf) and "
                                 "weigh a finite nonnegative mass")
        total = sum(w for _, w in self.atoms)
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=float)
            self.density = np.asarray(self.density, dtype=float)
            if (not (0.0 <= self.grid[0] and self.grid[-1] < np.inf
                     and np.all(np.diff(self.grid) > 0.0))
                    or self.density.shape != self.grid.shape):
                raise ParameterError("tabulated grid knots must be finite, "
                                     ">= 0, rising, one density value each")
            if not np.all((self.density >= 0.0) & (self.density < np.inf)):
                raise ParameterError("tabulated density must be finite, >= 0")
            total += np.trapezoid(self.density, self.grid)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"tabulated masses sum to {total}, not 1")

    @property
    def variant(self) -> str:
        """tabulated for a law given by atoms and/or a grid, else mixture."""
        return "tabulated" if self.atoms or self.grid is not None else "mixture"

    @classmethod
    def dirac(cls) -> "RadialLawW":
        return cls(theta=1.0)

    @classmethod
    def exponential(cls) -> "RadialLawW":
        return cls(theta=0.0, alpha=1.0)

    @classmethod
    def tabulated(cls, atoms=None, grid=None, density=None) -> "RadialLawW":
        if not atoms and grid is None:
            raise ParameterError("tabulated law needs atoms and/or a density grid")
        return cls(atoms=atoms, grid=grid, density=density)

    def mass_at_zero(self) -> float:
        if self.variant == "tabulated":
            return sum(w for x, w in self.atoms if x == 0.0)
        return self.theta

    def _tab_inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of the grid density part, scaled to unit mass.  On a
        cell the density is linear, r + s y at y past its left knot, so mass
        c is reached at y = 2c / (r + sqrt(r^2 + 2 s c)), exact at s = 0."""
        w, r = self.grid, self.density
        h = np.diff(w)
        slope = np.diff(r) / h
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * h)])
        mass = u * cdf[-1]
        # cdf[k] <= mass < cdf[k + 1], so a cell without mass is never taken
        k = np.clip(np.searchsorted(cdf, mass, side="right") - 1, 0, h.size - 1)
        c = mass - cdf[k]
        root = r[k] + np.sqrt(np.maximum(r[k] ** 2 + 2.0 * slope[k] * c, 0.0))
        y = np.divide(2.0 * c, root, out=np.zeros_like(c), where=root > 0.0)
        return w[k] + np.minimum(y, h[k])


def sample_W(law: RadialLawW, rng: RngStream, size):
    """Draw from the mixing measure.  Returns exact zeros with probability
    law.mass_at_zero()."""
    gen = rng.gen
    m = int(np.prod(size))

    if law.variant == "tabulated":
        positions, weights = np.array(law.atoms, dtype=float).reshape(-1, 2).T
        cont = 0.0 if law.grid is None else np.trapezoid(law.density, law.grid)
        probs = np.concatenate([weights, [cont]])
        probs = probs / probs.sum()
        choice = gen.choice(len(probs), size=m, p=probs)
        out = np.empty(m)
        atom_mask = choice < len(positions)
        out[atom_mask] = positions[choice[atom_mask]]
        n_cont = int((~atom_mask).sum())
        if n_cont:
            out[~atom_mask] = law._tab_inverse_cdf(gen.random(n_cont))
    else:
        out = np.zeros(m)
        if law.theta < 1.0:
            is_zero = gen.random(m) < law.theta
            n_pos = int((~is_zero).sum())
            if n_pos:
                out[~is_zero] = sample_gamma(law.alpha, rng, size=n_pos)
        # theta == 1: all zeros, nothing to draw
    return out.reshape(size)
