"""Base scalar distributions: generalized Gaussian, gamma, beta, and the
radial mixing law W.

The generalized Gaussian here is the variant with density
``exp(-|x|^p) / (2*Gamma(1+1/p))``; all probabilistic representations in
this package are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .rng import RngStream


class ParameterError(ValueError):
    pass


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def sample_gamma(a: float, b: float, rng: RngStream, size=None):
    """Gamma(a, b) draws in the rate parametrization (mean a/b).

    Shapes below 1 go through the boosting identity
    Gamma(a) =d= Gamma(a+1) * U^(1/a), which stays exact for small a.
    """
    _check_positive("shape a", a)
    _check_positive("rate b", b)
    gen = rng.gen
    g = np.asarray(gen.standard_gamma(a if a >= 1.0 else a + 1.0, size=size))
    if a < 1.0:
        u = np.asarray(gen.random(size=size))
        # guard exact zeros from the uniform; measure-zero but log() below
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        np.log(u, out=u)
        u /= a
        np.exp(u, out=u)
        g *= u
    g /= b
    return g[()] if size is None else g


def sample_beta(a: float, b: float, rng: RngStream, size=None):
    """Beta(a, b) via the gamma-ratio construction G1/(G1+G2)."""
    _check_positive("a", a)
    _check_positive("b", b)
    g1 = sample_gamma(a, 1.0, rng, size=size)
    g2 = sample_gamma(b, 1.0, rng, size=size)
    return g1 / (g1 + g2)


def _stirling_rest(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)."""
    if z < 30.0:
        return gammaln(z) - ((z - 0.5) * math.log(z) - z
                             + 0.5 * math.log(2.0 * math.pi))
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680
                                                         - w / 1188)))) / z


def beta_log_cdf(x: float, a: float, b: float) -> float:
    """log P(Beta(a, b) <= x) for 0 < x, finite where the probability
    underflows.  Below the mean m = a/(a+b) it is the log of
    (x/m)^a ((1-x)/(1-m))^b m^a (1-m)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x):
    the series has positive terms with ratio (a+b+k)/(a+1+k) x < 1, and
    Stirling's formula gives log(m^a (1-m)^b / B(a, b)) with no large
    terms to cancel.  From the mean up, betainc does not underflow.
    1 - m is formed as b/(a+b), which stays positive when b << a."""
    _check_positive("a", a)
    _check_positive("b", b)
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


def sample_gen_gaussian(p: float, rng: RngStream, size=None, positive=False):
    """Draws with density exp(-|x|^p)/(2*Gamma(1+1/p)), or of |X| when
    positive is set.

    Uses the exact power transform X = S * G^(1/p) with S a uniform sign
    and G ~ Gamma(1/p, 1); the positive draw skips S.
    """
    _check_positive("p", p)
    g = np.asarray(sample_gamma(1.0 / p, 1.0, rng, size=size))
    g **= 1.0 / p
    if not positive:
        signs = rng.gen.integers(0, 2, size=size)
        np.negative(g, out=g, where=signs == 0)
    return g[()] if size is None else g


def gen_gaussian_pdf(p: float, x):
    _check_positive("p", p)
    x = np.asarray(x, dtype=float)
    return np.exp(-np.abs(x) ** p - np.log(2.0) - gammaln(1.0 + 1.0 / p))


def gen_gaussian_logpdf(p: float, x):
    _check_positive("p", p)
    x = np.asarray(x, dtype=float)
    return -np.abs(x) ** p - np.log(2.0) - gammaln(1.0 + 1.0 / p)


def gen_gaussian_cdf(p: float, x):
    """CDF of the generalized Gaussian via the regularized incomplete gamma."""
    from scipy.special import gammainc

    _check_positive("p", p)
    x = np.asarray(x, dtype=float)
    tail = gammainc(1.0 / p, np.abs(x) ** p)
    return 0.5 + 0.5 * np.sign(x) * tail


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
        if any(x < 0.0 for x, _ in self.atoms):
            raise ParameterError("tabulated atoms must lie in [0, inf)")
        total = sum(w for _, w in self.atoms)
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=float)
            self.density = np.asarray(self.density, dtype=float)
            if (self.grid[0] < 0.0 or np.any(np.diff(self.grid) <= 0.0)
                    or self.density.shape != self.grid.shape):
                raise ParameterError("tabulated grid knots must be >= 0, rise "
                                     "strictly and carry one density value each")
            if np.any(self.density < 0):
                raise ParameterError("tabulated density must be nonnegative")
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
        """Inverse CDF of the grid density part, scaled to unit mass."""
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.grid))])
        cdf /= cdf[-1]
        # cdf is monotone by nonnegativity; interp inverts it
        return np.interp(u, cdf, self.grid)


def sample_W(law: RadialLawW, rng: RngStream, size=None):
    """Draw from the mixing measure.  Returns exact zeros with probability
    law.mass_at_zero()."""
    gen = rng.gen
    scalar = size is None
    m = 1 if scalar else int(np.prod(size))

    if law.variant == "tabulated":
        positions = np.array([x for x, _ in law.atoms], dtype=float)
        weights = np.array([w for _, w in law.atoms], dtype=float)
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
                out[~is_zero] = sample_gamma(law.alpha, 1.0, rng, size=n_pos)
        # theta == 1: all zeros, nothing to draw

    if scalar:
        return float(out[0])
    return out.reshape(size)
