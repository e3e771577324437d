"""Representations of probability measures on the line and the functionals
entering the rate functions: p-th absolute moments, relative entropy with
respect to the generalized Gaussian, and the logarithmic energy.

Three representations are supported:

* atoms   -- a finite list of (position, weight) pairs (empirical measures);
* grid    -- a piecewise-linear density on a knot vector;
* analytic -- a named pdf on a finite support [lo, hi] (a law with unbounded
  support is cut at its quantiles 1e-12 and 1 - 1e-12), used for
  high-accuracy reference values.  Every functional of it integrates in
  the angle x = c + h cos(theta), with c +- h the support ends.

`support` is the smallest interval holding the mass, for every kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import ParameterError, _check_positive, gen_gaussian_logpdf
from .rng import _row_blocks

_ENERGY_TOL = 1e-8  # absolute convergence bar of an analytic log-energy


@dataclass
class MeasureRep:
    kind: str                    # "atoms" | "grid" | "analytic"
    positions: np.ndarray | None = None
    weights: np.ndarray | None = None
    grid: np.ndarray | None = None
    density: np.ndarray | None = None
    pdf: Callable | None = None
    support: tuple = (-np.inf, np.inf)
    name: str = ""

    def __post_init__(self):
        if self.kind == "atoms":
            self.positions = np.asarray(self.positions, dtype=float)
            n = self.positions.size
            if n == 0:
                raise ParameterError("an atom measure needs at least one atom")
            self.weights = (np.full(n, 1.0 / n) if self.weights is None
                            else np.asarray(self.weights, dtype=float))
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise ParameterError("atom weights must sum to 1")
            self.support = (float(self.positions.min()),
                            float(self.positions.max()))
        elif self.kind == "grid":
            self.grid = np.asarray(self.grid, dtype=float)
            self.density = np.asarray(self.density, dtype=float)
            if np.any(np.diff(self.grid) < 0):
                raise ParameterError("grid knots must not decrease")
            if np.any(self.density < 0):
                raise ParameterError("grid density must be nonnegative")
            mass = np.trapezoid(self.density, self.grid)
            if abs(mass - 1.0) > 1e-6:
                raise ParameterError(f"grid density has mass {mass}, not 1")
        elif self.kind == "analytic":
            lo, hi = self.support
            if self.pdf is None or not -np.inf < lo < hi < np.inf:
                raise ParameterError(
                    f"analytic measure {self.name} needs a pdf and a finite "
                    f"support lo < hi, got {self.support}")
        else:
            raise ParameterError(f"unknown measure kind {self.kind!r}")
        # a nan passes the mass checks above (nan > tol is false)
        if not all(np.isfinite(v).all() for v in (self.positions, self.weights,
                                                  self.grid, self.density)
                   if v is not None):
            raise ParameterError(f"{self.kind} measure arrays must be finite")
        if self.kind == "grid":
            # the knots that bound the cells of positive mass
            cells = np.flatnonzero((self.density[1:] + self.density[:-1])
                                   * np.diff(self.grid) > 0.0)
            self.support = (float(self.grid[cells[0]]),
                            float(self.grid[cells[-1] + 1]))

    # ---- constructors -----------------------------------------------------

    @classmethod
    def from_atoms(cls, positions, weights=None) -> "MeasureRep":
        return cls(kind="atoms", positions=positions, weights=weights)

    @classmethod
    def from_grid(cls, grid, density) -> "MeasureRep":
        return cls(kind="grid", grid=grid, density=density)

    @classmethod
    def gen_gaussian_scaled(cls, p: float, z: float = 1.0) -> "MeasureRep":
        """Density proportional to exp(-|x|^p / z); z = 1 is the base law.
        The support is cut at the quantiles 1e-12 and 1 - 1e-12."""
        from scipy.special import gammaincinv, gammaln

        _check_positive("p", p)
        _check_positive("z", z)
        log_norm = np.log(2.0) + gammaln(1.0 + 1.0 / p) + np.log(z) / p

        def pdf(x):
            return np.exp(-np.abs(x) ** p / z - log_norm)

        # |X|^p / z ~ Gamma(1/p), and P(|X| > r) = 2e-12
        r = (z * gammaincinv(1.0 / p, 1.0 - 2e-12)) ** (1.0 / p)
        return cls(kind="analytic", pdf=pdf, support=(-r, r),
                   name=f"gen-gaussian(p={p}, z={z})")

    @classmethod
    def arcsine(cls, a: float = -1.0, b: float = 1.0) -> "MeasureRep":
        half = (b - a) / 2.0
        mid = (a + b) / 2.0

        def pdf(x):
            x = np.asarray(x, dtype=float)
            t = (x - mid) / half
            inside = np.abs(t) < 1.0
            out = np.zeros_like(t)
            out[inside] = 1.0 / (np.pi * half * np.sqrt(1.0 - t[inside] ** 2))
            return out

        return cls(kind="analytic", pdf=pdf, support=(a, b),
                   name=f"arcsine[{a},{b}]")

    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0) -> "MeasureRep":
        def pdf(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)

        return cls(kind="analytic", pdf=pdf, support=(a, b),
                   name=f"uniform[{a},{b}]")

    @classmethod
    def semicircle(cls, radius: float = 1.0) -> "MeasureRep":
        r = radius

        def pdf(x):
            x = np.asarray(x, dtype=float)
            inside = np.abs(x) < r
            out = np.zeros_like(x)
            out[inside] = 2.0 / (np.pi * r * r) * np.sqrt(r * r - x[inside] ** 2)
            return out

        return cls(kind="analytic", pdf=pdf, support=(-r, r),
                   name=f"semicircle(r={r})")


def _angle_quad(mu: MeasureRep, phi: Callable) -> float:
    """int phi(x, f(x)) f(x) dx over the support [c - h, c + h] of an
    analytic mu with pdf f, as an integral over theta in [0, pi] with
    x = c + h cos(theta).  The Jacobian h sin(theta) cancels the inverse
    square-root edges of arcsine-like laws; points where f = 0 add 0."""
    from scipy import integrate

    lo, hi = mu.support
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def integrand(theta):
        x = c + h * np.cos(theta)
        fx = float(np.asarray(mu.pdf(x)))
        return h * np.sin(theta) * fx * phi(x, fx) if fx > 0.0 else 0.0

    val, _ = integrate.quad(integrand, 0.0, np.pi, limit=400)
    return float(val)


def moment_p(mu: MeasureRep, p: float) -> float:
    """The p-th absolute moment m_p(mu) = int |x|^p mu(dx)."""
    if mu.kind == "atoms":
        return float(np.sum(mu.weights * np.abs(mu.positions) ** p))
    if mu.kind == "grid":
        return float(np.trapezoid(np.abs(mu.grid) ** p * mu.density, mu.grid))
    return _angle_quad(mu, lambda x, fx: abs(x) ** p)


def relative_entropy_gen_gaussian(mu: MeasureRep, p: float) -> float:
    """H(mu || N_p) where N_p has density exp(-|x|^p)/(2 Gamma(1+1/p)).

    Purely atomic measures have infinite entropy relative to any
    absolutely continuous law.
    """
    if mu.kind == "atoms":
        return np.inf
    if mu.kind == "grid":
        g, d = mu.grid, mu.density
        pos = d > 0
        integrand = np.zeros_like(d)
        integrand[pos] = d[pos] * (np.log(d[pos]) - gen_gaussian_logpdf(p, g[pos]))
        return float(np.trapezoid(integrand, g))
    return _angle_quad(
        mu, lambda x, fx: np.log(fx) - float(gen_gaussian_logpdf(p, x)))


# --- logarithmic energy ------------------------------------------------------

def _psi_cell(s: np.ndarray) -> np.ndarray:
    """Antiderivative structure for the exact log-energy of a product of two
    uniform cells: Psi(s) = s^2 (2 log|s| - 3) / 4, with Psi(0) = 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    nz = s != 0.0
    out[nz] = s[nz] ** 2 * (2.0 * np.log(np.abs(s[nz])) - 3.0) / 4.0
    return out


def log_energy(mu: MeasureRep) -> float:
    """The logarithmic energy -int int log|x - y| mu(dx) mu(dy).

    Atoms: pairwise sum off the diagonal, over the row blocks of
    rng._row_blocks of the sorted atoms; coincident atoms give +inf.
    Grid: the trapezoid cell masses m, spread uniformly over their cells
    [a_i, b_i] of width w_i, give E = -m^T L m with

        L[i, j] = [Psi(b_i - a_j) - Psi(b_i - b_j) - Psi(a_i - a_j)
                   + Psi(a_i - b_j)] / (w_i w_j),

    the exact mean of log|x - y| over cell i x cell j (the log singularity
    integrated analytically), for all pairs of positive-mass cells at once.
    Analytic: on the support [c - h, c + h], t = (x - c) / h has density
    g(t) / (pi sqrt(1 - t^2)), g = sum_k a_k T_k with the a_k from one DCT-II at n Chebyshev points.
    T_k has log potential -T_k / k (-log 2 for k = 0), so E = log 2
    + sum_{k >= 1} (a_k / a_0)^2 / (2k) - log h, exact for a polynomial g.
    Richardson steps on n and 2n cancel the n^-2 error of square-root edges
    and kinks; n doubles from 2048 until two steps agree to _ENERGY_TOL, and
    a law unresolved at n = 2^18 (a cusp, far tails) raises ParameterError.
    """
    if mu.kind == "atoms":
        order = np.argsort(mu.positions)
        x, w = mu.positions[order], mu.weights[order]
        if x.size < 2 or np.any(np.diff(x) == 0.0):
            return np.inf
        # the standard convention for empirical measures drops the
        # diagonal; pairs j <= i get distance 1, so a block adds pairs i < j
        total = 0.0
        for b in _row_blocks(x.size - 1, x.size):
            d = x[b.start + 1:] - x[b, None]
            total += w[b] @ np.log(np.where(d > 0.0, d, 1.0)) @ w[b.start + 1:]
        return float(-2.0 * total)

    if mu.kind == "grid":
        g, dens = mu.grid, mu.density
        w = np.diff(g)
        # piecewise-constant cell masses from the trapezoid weights
        masses = 0.5 * (dens[1:] + dens[:-1]) * w
        masses = masses / masses.sum()
        # cells of zero mass add nothing; dropping them also drops the
        # zero-width cells of a repeated knot, where L would divide 0 by 0
        keep = masses > 0.0
        masses, w = masses[keep], w[keep]
        a, b = g[:-1][keep, None], g[1:][keep, None]
        pair = (_psi_cell(b - a.T) - _psi_cell(b - b.T)
                - _psi_cell(a - a.T) + _psi_cell(a - b.T)) / np.outer(w, w)
        return float(-(masses @ pair @ masses))

    from scipy.fft import dct

    lo, hi = mu.support
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = []
    for n in 2048 << np.arange(8):
        theta = np.pi * (np.arange(n) + 0.5) / n
        # DCT-II gives n a_k (2 n a_0 at k = 0); n cancels in a_k / a_0
        a = dct(np.sin(theta) * mu.pdf(c + h * np.cos(theta)), type=2)
        sums.append(np.sum((2.0 * a[1:] / a[0]) ** 2 / np.arange(2, 2 * n, 2)))
        rich = (4.0 * np.array(sums[1:]) - sums[:-1]) / 3.0
        if rich.size > 1 and abs(rich[-1] - rich[-2]) <= _ENERGY_TOL:
            return float(np.log(2.0) + rich[-1] - np.log(h))
    raise ParameterError(f"log energy of {mu.name} unresolved at {n} Chebyshev "
                         f"points: the last two estimates differ by "
                         f"{abs(rich[-1] - rich[-2]):.1e} > {_ENERGY_TOL}")
