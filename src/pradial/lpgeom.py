"""Geometry and exact samplers on the Euclidean ell_p ball.

Implements the p-norm and the one exact sampler, sample_pnpw: the
radial mixture law obtained by dividing an n-vector of generalized
Gaussians by (||X||_p^p + W)^(1/p) for a mixing weight W.  The cone
measure on the sphere is the case W = delta_0 and the uniform measure on
the ball the case W = Exp(1).  At p = 2 X is drawn as N(0, 1/2); the
sampler holds its output plus row blocks (rng._row_blocks) of |X|^p and,
on the Gamma boost path (p > 1, p != 2), of uniforms.
Also provides the norm-split statistic

    B = ||X||_p^p / (||X||_p^p + W),

whose law is an explicit Dirac/Beta mixture, and the boundary density
psi describing how mass accumulates near the sphere.  For a tabulated W,
psi integrates its row blocks on one thread per CPU, with the bits of a
serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distributions import (
    ParameterError,
    RadialLawW,
    sample_gamma,
    sample_gen_gaussian,
    sample_W,
    _check_counts,
    _check_positive,
)
from .rng import RngStream, _row_blocks, _run_blocks

if TYPE_CHECKING:
    from .mcmc import ChainResult


@dataclass
class PBallSample:
    """Draws from a law on the ell_p ball plus bookkeeping.

    points has shape (size, n), a row on the sphere where W drew its atom
    at 0; chain holds the mcmc.ChainResult when X came from a chain, else
    None; degree is the homogeneity degree m of the weight that tilted X
    (0 for the exact samplers), so sum |x_i|^p over a row has the Beta
    shape (n + m)/p.
    """

    points: np.ndarray
    p: float
    chain: ChainResult | None = None
    degree: float = 0.0


def _finish_sample(x: np.ndarray, p: float, law: RadialLawW, rng: RngStream,
                   chain: ChainResult | None = None,
                   degree: float = 0.0) -> PBallSample:
    """The radial mixture step: W is drawn from rng under law, one value a
    row, and each row x becomes x / (||x||_p^p + W)^(1/p).

    The rows are divided in place and x becomes the sample's points, so the
    caller must pass an array it owns and does not read again; |x|^p is
    summed one row block of rng._row_blocks at a time.
    """
    w = sample_W(law, rng, size=len(x))
    r = np.empty(len(x))
    for b in _row_blocks(len(x), x.shape[-1]):
        a = np.abs(x[b])
        a **= p
        np.sum(a, axis=-1, out=r[b])
    x /= ((r + w) ** (1.0 / p))[:, None]
    return PBallSample(points=x, p=p, chain=chain, degree=degree)


def sample_pnpw(n: int, p: float, law: RadialLawW, rng: RngStream,
                size: int = 1, positive: bool = False) -> PBallSample:
    """The radial mixture law on the ball driven by the mixing weight W;
    with positive set, on the positive orthant of the ball.

    This is the one exact sampler on the ell_p ball: the cone measure on
    the sphere is W = delta_0 (RadialLawW.dirac()) and the uniform measure
    is W = Exp(1) (RadialLawW.exponential()).
    """
    _check_counts(n=n, size=size)
    x = sample_gen_gaussian(p, rng, size=(size, n), positive=positive)
    return _finish_sample(x, p, law, rng)


def norm_split_B(n: int, p: float, m: float, law: RadialLawW, rng: RngStream,
                 size: int = 1) -> np.ndarray:
    """Exact draws of B = G/(G+W) with G ~ Gamma((n+m)/p, 1).

    The law is theta * delta_1 + (1-theta) * Beta((n+m)/p, alpha) when W is
    the theta/alpha mixture.  This routine samples the construction
    directly so it also covers tabulated W.
    """
    _check_counts(n=n, size=size)
    _check_positive("n + m", n + m)
    g = sample_gamma((n + m) / p, rng, size=size)
    w = sample_W(law, rng, size=size)
    return g / (g + w)


@dataclass
class PsiSpec:
    """Parameters of the boundary density psi_f(s), s in [0, 1).

    psi depends on the data only through the combined degree
    d = (n + m)/p and the mixing law W.
    """

    n: int
    p: float
    m: float = 0.0
    law: RadialLawW | None = None

    def __post_init__(self):
        _check_positive("p", self.p)
        _check_positive("n + m", self.n + self.m)

    @property
    def d(self) -> float:
        return (self.n + self.m) / self.p


def psi_density(spec: PsiSpec, s) -> np.ndarray:
    """The density psi at radial coordinates s in [0, 1).

    Closed forms: psi == 0 for W = delta_0, psi == 1 for W = Exp(1), and

        psi(s) = Gamma(alpha + d) / (Gamma(alpha) Gamma(d + 1))
                 * (1 - s^p)^(alpha - 1)

    for W = Gamma(alpha, 1), with d = (n+m)/p.  Mixtures scale the gamma
    part by (1 - theta); tabulated laws are integrated numerically.
    """
    from scipy.special import gammaln

    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0) & (s <= 1)):  # a nan fails both
        raise ParameterError("psi is defined on [0, 1]")
    law = spec.law or RadialLawW.exponential()
    d = spec.d
    p = spec.p

    if law.variant == "tabulated":
        if np.any(s == 1.0):
            raise ParameterError(
                "psi at the boundary s = 1 is only available for the "
                "closed-form mixing laws")
        return _psi_tabulated(spec, law, s)

    theta = law.theta
    if theta == 1.0:
        return np.zeros_like(s)
    alpha = law.alpha
    log_c = gammaln(alpha + d) - gammaln(alpha) - gammaln(d + 1.0)
    # at s = 1 the factor (1-s^p)^(alpha-1) has analytic limit 0 / const /
    # +inf according to the sign of alpha - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.log1p(-s ** p)
        expo = (alpha - 1.0) * tail
    expo = np.where(np.isnan(expo), 0.0, expo)
    out = (1.0 - theta) * np.exp(log_c + expo)
    return out


def _psi_tabulated(spec: PsiSpec, law: RadialLawW, s: np.ndarray) -> np.ndarray:
    """psi for a tabulated W:

        psi(s) = (1 - s^p)^(-(d+1)) / Gamma(d+1)
                 * int w^d exp(-t w) W(dw),   t = s^p / (1 - s^p).

    The density part is integrated exactly cell by cell: int w^k e^{-t w} dw
    is Gamma(k+1) / t^(k+1) times the rise of the regularized incomplete
    gamma P(k+1, t w), one P(d+2, .) per (s, knot) pair and
    P(d+1, x) = P(d+2, x) + x^(d+1) e^{-x} / Gamma(d+2).  Where
    t max w < 1e-8, e^{-t w} is 1 - t w to O((t w)^2) and two polynomial
    moments give the integral.  The atoms are summed over the row blocks of
    rng._row_blocks, (s, atom) pairs its cells.

    The other rows of the grid part go in row blocks of (s, knot) pairs to
    rng._run_blocks, one worker per CPU.  Each worker works in
    three block-sized buffers of the runner's scratch and adds only into
    val at its own blocks' rows.  The blocks and each row's arithmetic are
    those of a serial loop, so psi has the same bits on any number of CPUs.
    """
    from scipy.special import gammainc, gammaln

    d = spec.d
    sp = np.ravel(s) ** spec.p
    t = sp / (1.0 - sp)
    val = np.zeros_like(t)
    if law.atoms:
        at, wgt = np.array(law.atoms, dtype=float).T
        pos = at > 0.0  # an atom at 0 adds w^d = 0 for d > 0
        at, wgt, log_at = at[pos], wgt[pos], d * np.log(at[pos])
        for b in _row_blocks(t.size, at.size):
            val[b] += np.exp(log_at - np.multiply.outer(t[b], at)) @ wgt
    if law.grid is not None:
        w, r = law.grid, law.density
        slope = np.diff(r) / np.diff(w)
        intercept = r[:-1] - slope * w[:-1]  # density = intercept + slope w
        poly = t * w[-1] < 1e-8
        mom = [intercept @ np.diff(w ** (k + 1.0)) / (k + 1.0)
               + slope @ np.diff(w ** (k + 2.0)) / (k + 2.0)
               for k in (d, d + 1.0)]  # int w^k (intercept + slope w) dw
        val[poly] += mom[0] - t[poly] * mom[1]
        rest = np.flatnonzero(~poly)
        blocks = _row_blocks(rest.size, w.size)
        g1, g2 = gammaln(d + 1.0), gammaln(d + 2.0)

        def run(mine, work):
            # numpy and scipy.special alone: a thread that called a public
            # pradial function would share the tracer's span stack.  Three
            # block-sized buffers: t w, P(d+2, t w) and P(d+1, t w); the
            # first and last then take the rises of P(d+1) and P(d+2)
            work = work.reshape(3, -1)
            for blk in (rest[b] for b in mine):
                x, p2, p1 = (a[:blk.size * w.size].reshape(blk.size, w.size)
                             for a in work)
                np.multiply(t[blk, None], w, out=x)
                gammainc(d + 2.0, x, out=p2)
                with np.errstate(divide="ignore"):
                    np.log(x, out=p1)
                p1 *= d + 1.0
                p1 -= x
                p1 -= g2
                np.exp(p1, out=p1)
                p1 += p2
                rise1, rise2 = (a[:blk.size * (w.size - 1)]
                                .reshape(blk.size, w.size - 1)
                                for a in work[::2])
                np.subtract(p1[:, 1:], p1[:, :-1], out=rise1)
                part = rise1 @ intercept
                np.subtract(p2[:, 1:], p2[:, :-1], out=rise2)
                part += (d + 1.0) / t[blk] * (rise2 @ slope)
                val[blk] += np.exp(g1 - (d + 1.0) * np.log(t[blk])) * part

        # a one-block call, such as each scalar call that
        # psi_normalization_defect's quadrature makes, starts no thread
        _run_blocks(blocks, run, 3 * blocks[0].stop * w.size)
    out = val * np.exp(-(d + 1.0) * np.log1p(-sp) - gammaln(d + 1.0))
    return out.reshape(np.shape(s)) if np.ndim(s) else float(out[0])


def psi_normalization_defect(spec: PsiSpec) -> float:
    """Distance of the total mass identity from 1, i.e. the absolute error in

        int_0^1 (n+m) s^(n+m-1) psi(s) ds + W({0})

    from 1.  The substitution u = s^(n+m) removes the steep polynomial
    factor, so the quadrature sees a flat integrand.
    """
    from scipy import integrate

    law = spec.law or RadialLawW.exponential()
    nm = spec.n + spec.m

    def integrand(u):
        s = u ** (1.0 / nm)
        return psi_density(spec, s)

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return abs(val + law.mass_at_zero() - 1.0)
