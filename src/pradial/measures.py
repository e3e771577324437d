"""Representations of probability measures on the line and the functionals
entering the rate functions: p-th absolute moments, relative entropy with
respect to the generalized Gaussian, and the logarithmic energy.

Three representations are supported:

* atoms   -- a finite list of (position, weight) pairs (empirical measures);
* grid    -- a piecewise-linear density on a knot vector;
* analytic -- a named density with callables for pdf / quantile, used for
  high-accuracy reference values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from .distributions import ParameterError, gen_gaussian_logpdf


@dataclass
class MeasureRep:
    kind: str                    # "atoms" | "grid" | "analytic"
    positions: np.ndarray | None = None
    weights: np.ndarray | None = None
    grid: np.ndarray | None = None
    density: np.ndarray | None = None
    pdf: Callable | None = None
    quantile: Callable | None = None
    support: tuple = (-np.inf, np.inf)
    name: str = ""

    def __post_init__(self):
        if self.kind == "atoms":
            self.positions = np.asarray(self.positions, dtype=float)
            if self.weights is None:
                self.weights = np.full(self.positions.size,
                                       1.0 / self.positions.size)
            else:
                self.weights = np.asarray(self.weights, dtype=float)
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise ParameterError("atom weights must sum to 1")
        elif self.kind == "grid":
            self.grid = np.asarray(self.grid, dtype=float)
            self.density = np.asarray(self.density, dtype=float)
            if np.any(self.density < 0):
                raise ParameterError("grid density must be nonnegative")
            mass = np.trapezoid(self.density, self.grid)
            if abs(mass - 1.0) > 1e-6:
                raise ParameterError(f"grid density has mass {mass}, not 1")
            self.support = (float(self.grid[0]), float(self.grid[-1]))
        elif self.kind == "analytic":
            if self.pdf is None or self.quantile is None:
                raise ParameterError("analytic measures need pdf and quantile")
        else:
            raise ParameterError(f"unknown measure kind {self.kind!r}")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def from_atoms(cls, positions, weights=None) -> "MeasureRep":
        return cls(kind="atoms", positions=positions, weights=weights)

    @classmethod
    def from_grid(cls, grid, density) -> "MeasureRep":
        return cls(kind="grid", grid=grid, density=density)

    @classmethod
    def gen_gaussian_scaled(cls, p: float, z: float = 1.0) -> "MeasureRep":
        """Density proportional to exp(-|x|^p / z); z = 1 is the base law."""
        from scipy.special import gammaincinv

        log_norm = np.log(2.0) + gammaln(1.0 + 1.0 / p) + np.log(z) / p

        def pdf(x):
            return np.exp(-np.abs(x) ** p / z - log_norm)

        def quantile(u):
            u = np.asarray(u, dtype=float)
            tail = np.abs(2.0 * u - 1.0)
            r = (z * gammaincinv(1.0 / p, tail)) ** (1.0 / p)
            return np.sign(2.0 * u - 1.0) * r

        return cls(kind="analytic", pdf=pdf, quantile=quantile,
                   support=(-np.inf, np.inf),
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

        def quantile(u):
            return mid + half * np.sin(np.pi * (np.asarray(u) - 0.5))

        return cls(kind="analytic", pdf=pdf, quantile=quantile,
                   support=(a, b), name=f"arcsine[{a},{b}]")

    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0) -> "MeasureRep":
        def pdf(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)

        def quantile(u):
            return a + (b - a) * np.asarray(u)

        return cls(kind="analytic", pdf=pdf, quantile=quantile,
                   support=(a, b), name=f"uniform[{a},{b}]")

    @classmethod
    def beta_law(cls, a: float, b: float) -> "MeasureRep":
        from scipy.stats import beta as beta_dist

        return cls(kind="analytic", pdf=beta_dist(a, b).pdf,
                   quantile=beta_dist(a, b).ppf, support=(0.0, 1.0),
                   name=f"beta({a},{b})")

    @classmethod
    def semicircle(cls, radius: float = 1.0) -> "MeasureRep":
        r = radius

        def pdf(x):
            x = np.asarray(x, dtype=float)
            inside = np.abs(x) < r
            out = np.zeros_like(x)
            out[inside] = 2.0 / (np.pi * r * r) * np.sqrt(r * r - x[inside] ** 2)
            return out

        from scipy.optimize import brentq

        def cdf(x):
            t = np.clip(x / r, -1.0, 1.0)
            return 0.5 + (t * np.sqrt(1 - t * t) + np.arcsin(t)) / np.pi

        def quantile(u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            out = np.array([brentq(lambda x: cdf(x) - ui, -r, r) for ui in u])
            return out if out.size > 1 else float(out[0])

        return cls(kind="analytic", pdf=pdf, quantile=quantile,
                   support=(-r, r), name=f"semicircle(r={r})")

    # ---- projections ------------------------------------------------------

    def to_grid(self, n_bins: int = 256) -> "MeasureRep":
        """Histogram/evaluation projection onto a grid representation."""
        if self.kind == "grid":
            return self
        if self.kind == "atoms":
            lo, hi = self.positions.min(), self.positions.max()
            pad = 0.05 * max(hi - lo, 1e-12)
            edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
            hist, _ = np.histogram(self.positions, bins=edges,
                                   weights=self.weights, density=True)
            centers = 0.5 * (edges[:-1] + edges[1:])
            dens = hist / max(np.trapezoid(hist, centers), 1e-300)
            return MeasureRep.from_grid(centers, dens)
        lo, hi = self.support
        if not np.isfinite(lo):
            lo = float(self.quantile(1e-9))
        if not np.isfinite(hi):
            hi = float(self.quantile(1.0 - 1e-9))
        g = np.linspace(lo, hi, n_bins)
        d = np.asarray(self.pdf(g), dtype=float)
        d = d / np.trapezoid(d, g)
        return MeasureRep.from_grid(g, d)


def moment_p(mu: MeasureRep, p: float) -> float:
    """The p-th absolute moment m_p(mu) = int |x|^p mu(dx)."""
    if mu.kind == "atoms":
        return float(np.sum(mu.weights * np.abs(mu.positions) ** p))
    if mu.kind == "grid":
        return float(np.trapezoid(np.abs(mu.grid) ** p * mu.density, mu.grid))
    # analytic: integrate in quantile coordinates, which is singularity-free
    val, _ = integrate.quad(
        lambda u: np.abs(mu.quantile(u)) ** p, 0.0, 1.0, limit=200)
    return float(val)


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

    def integrand(x):
        fx = float(np.asarray(mu.pdf(x)))
        if fx <= 0.0:
            return 0.0
        return fx * (np.log(fx) - float(gen_gaussian_logpdf(p, x)))

    lo, hi = mu.support
    if not np.isfinite(lo):
        lo = float(mu.quantile(1e-12))
    if not np.isfinite(hi):
        hi = float(mu.quantile(1.0 - 1e-12))
    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return float(val)


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

    Atoms: pairwise sum off the diagonal; coincident atoms give +inf.
    Grid: the trapezoid cell masses m, spread uniformly over their cells
    [a_i, b_i] of width w_i, give E = -m^T L m with

        L[i, j] = [Psi(b_i - a_j) - Psi(b_i - b_j) - Psi(a_i - a_j)
                   + Psi(a_i - b_j)] / (w_i w_j),

    the exact mean of log|x - y| over cell i x cell j (the log singularity
    is integrated analytically), built for all pairs of cells with positive
    mass in one broadcast.
    Analytic: nested quadrature in quantile coordinates with the diagonal
    singularity split out.
    """
    if mu.kind == "atoms":
        x = mu.positions
        w = mu.weights
        n = x.size
        if n < 2:
            return np.inf
        diff = np.abs(x[:, None] - x[None, :])
        iu = np.triu_indices(n, k=1)
        d = diff[iu]
        if np.any(d == 0.0):
            return np.inf
        ww = (w[:, None] * w[None, :])[iu]
        # self-pairs carry log 0 = -inf; the standard convention for
        # empirical measures drops the diagonal
        return float(-2.0 * np.sum(ww * np.log(d)))

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

    # analytic: E = -int_0^1 int_0^1 log|Q(u) - Q(v)| du dv.  Split at the
    # diagonal so each inner integral sees the singularity only at an
    # endpoint.
    q = mu.quantile

    def inner(u):
        qu = float(np.asarray(q(u)))

        def f(v):
            d = abs(qu - float(np.asarray(q(v))))
            return np.log(d) if d > 0 else 0.0

        # quadpack flags the integrable endpoint log singularity as slow
        # convergence; the oracle tests pin the actual accuracy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            lo_val = integrate.quad(f, 0.0, u, limit=100)[0] if u > 0 else 0.0
            hi_val = integrate.quad(f, u, 1.0, limit=100)[0] if u < 1 else 0.0
        return lo_val + hi_val

    val, _ = integrate.quad(inner, 0.0, 1.0, limit=100)
    return float(-val)
