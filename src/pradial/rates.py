"""Large-deviation rate functions and asymptotic verifiers.

Covers three families of rate functions, each in a Euclidean, a
self-adjoint matrix ("H") and a non-self-adjoint matrix ("M") flavour:

* cone rates on probability measures -- relative entropy plus a moment
  penalty (Euclidean), or logarithmic energy plus a p-dependent constant
  (matrix flavours);
* beta rates on [0, 1] for the norm-split statistic B, in closed form;
* empirical-measure rates combining the cone rate with the mixture
  corrections.

The nine targets ("cone-H", "beta-euclid", "emp-M", ...) have one entry
point, rate(spec, mu, x), which picks the formula of spec's target and
names the branch that gave the value.  It calls rate_beta and rate_cone;
both read the shape-rate gate 1/p, beta/(2p) or beta/p from _gate.

The speed regime enters through the parameter ktheta: "critical" selects
the nondegenerate case (speed n for Euclidean targets, n^2 for matrix
targets); "greater" collapses the rate to the point mass at 1.

Also provided: a numerical Legendre-Fenchel transform that refines each
discrete maximum to the closed-form maximum of the cubic-spline
interpolant on the two grid cells beside it, a Monte-Carlo scaled
cumulant generating function with its analytic counterpart, and
Laplace / boundary-Laplace (Breitung) checks used by the desk-scale
verification experiments, each giving its ratio and its adapted
(estimate, limit) pair from one maximisation and one quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, logsumexp

from .distributions import ParameterError, _check_positive
from .measures import MeasureRep, log_energy, moment_p, relative_entropy_gen_gaussian

_LEGENDRE_BLOCK = 1 << 20  # cells per row block in legendre_transform

# slack of the moment gate m <= 1: moment_p's quadrature lands a hair
# above 1 on a law whose moment is exactly 1 (1 + 5.9e-14 on the
# semicircle of radius 2, the zero of the cone-H rate at p = 2)
MOMENT_TOL = 1e-9

_EUCLID_TARGETS = ("cone-euclid", "beta-euclid", "emp-euclid")
_MATRIX_TARGETS = ("cone-H", "beta-H", "emp-H", "cone-M", "beta-M", "emp-M")
TARGETS = _EUCLID_TARGETS + _MATRIX_TARGETS


def _gate(family: str, p: float, beta: float) -> float:
    """The beta-law shape rate of a family: 1/p, beta/(2p) or beta/p."""
    if family == "euclid":
        return 1.0 / p
    return beta / (2.0 * p) if family == "H" else beta / p


@dataclass
class RateFnSpec:
    """Parameter bundle selecting one of the rate functions.

    alpha is the limit of alpha_n / n (Euclidean targets) or alpha_n / n^2
    (matrix targets); c <= 0 is the limit of n^(-k) log(1 - theta_n);
    ktheta says whether the Dirac-weight decay exponent k equals the
    critical speed exponent or exceeds it.
    """

    target: str
    p: float
    beta: float = 2.0
    alpha: float = 0.0
    ktheta: str = "critical"  # "critical" | "greater"
    c: float = 0.0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ParameterError(f"unknown rate target {self.target!r}")
        _check_positive("p", self.p)
        if self.alpha < 0:
            raise ParameterError("alpha must be >= 0")
        if self.c > 0:
            raise ParameterError("correction c must be <= 0")
        if self.ktheta not in ("critical", "greater"):
            raise ParameterError("ktheta must be 'critical' or 'greater'")
        if self.target in _MATRIX_TARGETS and self.beta not in (1.0, 2.0, 4.0):
            raise ParameterError("matrix targets require beta in {1, 2, 4}")

    @property
    def kind(self) -> str:
        """The target's prefix: "cone", "beta" or "emp"."""
        return self.target.split("-", 1)[0]

    @property
    def family(self) -> str:
        """The target's suffix: "euclid", "H" or "M"."""
        return self.target.split("-", 1)[1]

    @property
    def gate(self) -> float:
        """The beta-law shape rate: 1/p, beta/(2p), or beta/p."""
        return _gate(self.family, self.p, self.beta)


# --- the one entry point ------------------------------------------------------

def rate(spec: RateFnSpec, mu: MeasureRep | None = None,
         x: float | None = None) -> dict:
    """The rate of spec's target and the branch that gave it: {"x",
    "value", "branch"} of a beta target at the point x; {"value",
    "branch"} of a cone target and, with "summands", of an emp target on
    the measure mu.  The input a target does not read is ignored.

    A cone branch is "finite", "moment-gate" (the gating moment exceeds
    1 + MOMENT_TOL) or "cone-infinite" (infinite entropy or energy below
    the gate).  An emp target with alpha > 0 is "moment-gate-saturated"
    from m = 1 on."""
    if spec.kind == "beta":
        if x is None:
            raise ParameterError(f"{spec.target} is evaluated at a point x")
        return {"x": x, "value": rate_beta(x, spec),
                "branch": _beta_branch(spec)}
    if mu is None:
        raise ParameterError(f"{spec.target} rates a measure mu")
    cone, m = rate_cone(mu, spec.family, spec.p, spec.beta)
    if spec.kind == "cone":
        branch = ("finite" if np.isfinite(cone) else "moment-gate"
                  if m > 1.0 + MOMENT_TOL else "cone-infinite")
        return {"value": cone, "branch": branch}
    if spec.alpha == 0.0:
        return {"value": cone - spec.c, "branch": "alpha-zero",
                "summands": {"cone": cone, "neg_c": -spec.c}}
    if m >= 1.0:
        return {"value": np.inf, "branch": "moment-gate-saturated",
                "summands": {}}
    if not np.isfinite(cone):
        return {"value": np.inf, "branch": "cone-infinite", "summands": {}}
    g, alpha = spec.gate, spec.alpha
    summands = {"cone": cone, "g_log_g": g * np.log(g),
                "neg_sum_log": -(g + alpha) * np.log(g + alpha),
                "alpha_term": -alpha * np.log((1.0 - m) / alpha),
                "neg_c": -spec.c}
    return {"value": sum(summands.values()), "branch": "alpha-positive",
            "summands": summands}


# --- beta rates ---------------------------------------------------------------

def _beta_branch(spec: RateFnSpec) -> str:
    if spec.ktheta == "greater":
        return "greater"
    return "alpha-zero" if spec.alpha == 0.0 else "alpha-positive"


def rate_beta(x: float, spec: RateFnSpec) -> float:
    """The closed-form rate of the norm-split statistic B at x.  The target
    enters only through spec.gate, the shape rate of B's Beta law."""
    if not (0.0 <= x <= 1.0):
        raise ParameterError("the norm-split statistic lives on [0, 1]")
    g, alpha, branch = spec.gate, spec.alpha, _beta_branch(spec)
    if branch == "greater":
        return 0.0 if x == 1.0 else np.inf
    if branch == "alpha-zero":
        return np.inf if x == 0.0 else -g * np.log(x) - spec.c
    if x == 0.0 or x == 1.0:
        return np.inf
    return (-g * np.log(x / g) - alpha * np.log((1.0 - x) / alpha)
            - (g + alpha) * np.log(g + alpha) - spec.c)


def rate_beta_argmin(spec: RateFnSpec) -> float:
    """x* where rate_beta takes its minimum -c: g/(g + alpha), or 1 when
    alpha = 0 or ktheta is "greater".  The rate decreases left of x*, so
    its infimum over {x <= b} is rate_beta(min(b, x*))."""
    if _beta_branch(spec) != "alpha-positive":
        return 1.0
    g = spec.gate
    return g / (g + spec.alpha)


# --- cone rates ---------------------------------------------------------------

def log_energy_constant(p: float) -> float:
    """log of sqrt(pi) p Gamma(p/2) / (2^p sqrt(e) Gamma((p+1)/2)), the
    p-dependent additive constant of the matrix cone rates, assembled via
    log-Gamma."""
    _check_positive("p", p)
    return (0.5 * np.log(np.pi) + np.log(p) + gammaln(p / 2.0)
            - p * np.log(2.0) - 0.5 - gammaln((p + 1.0) / 2.0))


def rate_cone(mu: MeasureRep, family: str, p: float,
              beta: float = 2.0) -> tuple[float, float]:
    """(cone rate, gating moment) of mu for a target family: "euclid", "H"
    or "M", a rate target's suffix.  The moment is m_p, or m_{p/2} for "M"
    (which requires nonnegative support); the rate is +inf where it
    exceeds 1 + MOMENT_TOL.  Below that it is H(mu || N_p) + (1 - m_p)
    for "euclid", and (beta/2) * log-energy + gate * log_energy_constant(p)
    for "H" and "M", with gate beta/(2p) and beta/p."""
    if family not in ("euclid", "H", "M"):
        raise ParameterError(f"unknown rate family {family!r}")
    if family == "M":
        _require_nonnegative_support(mu)
    m = moment_p(mu, p / 2.0 if family == "M" else p)
    if m > 1.0 + MOMENT_TOL:
        return np.inf, m
    if family == "euclid":
        return relative_entropy_gen_gaussian(mu, p) + (1.0 - m), m
    return ((beta / 2.0) * log_energy(mu)
            + _gate(family, p, beta) * log_energy_constant(p)), m


def _require_nonnegative_support(mu: MeasureRep):
    if mu.kind == "atoms":
        bad = np.any(mu.positions < 0)
    elif mu.kind == "grid":
        bad = mu.grid[0] < 0 and np.any(mu.density[mu.grid < 0] > 0)
    else:
        bad = mu.support[0] < 0
    if bad:
        raise ParameterError("this rate target requires nonnegative support")


def scaled_family_cone_minimum(p: float, n_grid: int = 400) -> tuple[float, float]:
    """Diagnostic: minimum of the Euclidean cone rate over the scaled
    generalized-Gaussian family (densities proportional to exp(-|x|^p/z)).

    Returns (z_min, value).  The closed form gives the minimum at z = p
    with value 1 - (1 + log p)/p, which vanishes at p = 1 and is positive
    otherwise; this is reported as-is, no recentering is applied.
    """
    zs = np.exp(np.linspace(np.log(0.2), np.log(5.0 * p), n_grid))
    vals = np.array([rate_cone(MeasureRep.gen_gaussian_scaled(p, z),
                               "euclid", p)[0] for z in zs])
    i = int(np.argmin(vals))
    return float(zs[i]), float(vals[i])


# --- Legendre-Fenchel transform -------------------------------------------

def legendre_transform(t: np.ndarray, f: np.ndarray, x) -> np.ndarray:
    """Lambda*(x) = sup_t [x t - Lambda(t)] for Lambda sampled on a grid.

    Lambda is treated as +inf outside the grid interval, so the supremum
    is over [t[0], t[-1]].  For each x the discrete maximiser t[i] of
    x t - f is found first.  The value is then refined to the exact
    maximum of x s - S(s), with S the cubic-spline interpolant, over the
    two cells [t[i-1], t[i+1]] beside it: on each cell S' = x is a
    quadratic, whose roots inside the cell are the interior candidates,
    and the knot values bound the rest.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if t.size < 4 or np.any(np.diff(t) <= 0):
        raise ParameterError("grid must be increasing with at least 4 knots")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.empty(xs.size, dtype=np.intp)
    best = np.empty_like(xs)
    # row blocks bound the (points x knots) array of x t - f
    rows = max(1, _LEGENDRE_BLOCK // t.size)
    for lo in range(0, xs.size, rows):
        h = np.multiply.outer(xs[lo:lo + rows], t)
        h -= f
        i = np.argmax(h, axis=1)
        idx[lo:lo + rows] = i
        best[lo:lo + rows] = h[np.arange(i.size), i]

    c = CubicSpline(t, f).c
    # cells i-1 and i, clipped to the grid; on cell k with u = s - t[k],
    # S'(u) = x  <=>  qa u^2 + qb u + qc = 0
    cell = np.clip(np.stack([idx - 1, idx], axis=1), 0, t.size - 2)
    xc = xs[:, None]
    a3, a2, a1, a0 = c[:, cell]
    qa, qb, qc = 3.0 * a3, 2.0 * a2, a1 - xc
    with np.errstate(divide="ignore", invalid="ignore"):
        # stable roots q/qa and qc/q; qa = 0 leaves the one root
        # -qc/qb in qc/q
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        roots = np.stack([q / qa, qc / q])
    inside = (roots >= 0.0) & (roots <= (t[cell + 1] - t[cell]))
    u = np.where(inside, roots, 0.0)
    vals = xc * (t[cell] + u) - (((a3 * u + a2) * u + a1) * u + a0)
    vals = np.where(inside, vals, -np.inf).max(axis=(0, 2))
    out = np.maximum(vals, best)
    return out if np.ndim(x) else float(out[0])


def legendre_biconjugate(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(Lambda*)* evaluated back on the original grid.

    The dual grid is taken over the range of one-sided slopes of Lambda,
    which is the effective domain of Lambda* seen by the data.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    slopes = np.diff(f) / np.diff(t)
    xs = np.linspace(slopes.min(), slopes.max(), max(8 * t.size, 512))
    fstar = legendre_transform(t, f, xs)
    return np.asarray(legendre_transform(xs, fstar, t))


# --- Gaertner-Ellis -----------------------------------------------------------

def scaled_cgf_estimate(samples: np.ndarray, t: float, n: int, k: int) -> float:
    """(1/n^k) log (1/N) sum exp(n^k t B_i), via log-sum-exp."""
    if k not in (1, 2):
        raise ParameterError("k must be 1 or 2")
    b = np.asarray(samples, dtype=float)
    if b.size == 0:
        raise ParameterError("need at least one sample")
    if np.any((b < 0) | (b > 1)):
        raise ParameterError("samples must lie in [0, 1]")
    s = float(n) ** k
    return float((logsumexp(s * t * b) - np.log(b.size)) / s)


def _psi_star(t: float, p: float, alpha: float) -> float:
    """Psi*(-t) = sup over y in (0,1) of [-t y + (1/p) log(1-y) + alpha log y],
    the Legendre term of the analytic scaled CGF."""
    g = 1.0 / p

    def obj(y):
        return -t * y + g * np.log1p(-y) + alpha * np.log(y)

    # stationary points solve t y^2 - (t + g + alpha) y + alpha = 0
    if t == 0.0:
        y = alpha / (g + alpha)
    else:
        disc = (t + g + alpha) ** 2 - 4.0 * t * alpha
        sq = np.sqrt(disc)
        roots = [(t + g + alpha - sq) / (2.0 * t),
                 (t + g + alpha + sq) / (2.0 * t)]
        cands = [y for y in roots if 0.0 < y < 1.0]
        if not cands:
            raise ParameterError(f"no stationary point in (0,1) for t={t}")
        y = max(cands, key=obj)
    return obj(y)


def analytic_scaled_cgf(t: float, p: float, alpha: float, c: float = 0.0) -> float:
    """The closed-form limit of the scaled CGF of B for the critical-speed
    mixture with alpha > 0:

        Lambda(t) = t + c - (1/p) log(1/p) - alpha log alpha
                    + (1/p + alpha) log(1/p + alpha) + Psi*(-t).
    """
    _check_positive("alpha", alpha)
    g = 1.0 / p
    return (t + c - g * np.log(g) - alpha * np.log(alpha)
            + (g + alpha) * np.log(g + alpha) + _psi_star(t, p, alpha))


# --- Laplace / boundary-Laplace verifiers ----------------------------------

def _interior_max(pfn, lo, hi):
    res = optimize.minimize_scalar(lambda x: -pfn(x), bounds=(lo, hi),
                                   method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(-res.fun)


def _checked(q, pfn, lo, hi, n, p0, log_den, c):
    """(ratio, estimate, limit) of the integral of q e^{n p} over [lo, hi]
    from one quadrature.  p0 is the maximum of p and log_den the log of
    the approximation less n p0; the estimate is (1/n) log [1 + e^{c n}
    integral], and the limit c + p0."""
    val, _ = integrate.quad(lambda x: q(x) * np.exp(n * (pfn(x) - p0)),
                            lo, hi, limit=400)
    log_num = np.log(val)
    est = float(np.logaddexp(0.0, c * n + (log_num + n * p0)) / n)
    return float(np.exp(log_num - log_den)), est, float(c + p0)


def laplace_check(q, pfn, interval, n, c: float) -> tuple[float, float, float]:
    """(ratio, estimate, limit) for integral q e^{n p} over the interval,
    from one maximisation of p and one quadrature.

    ratio is the integral over the interior Laplace approximation
    sqrt(2 pi / (n |p''(x0)|)) q(x0) e^{n p(x0)}; it tends to 1 as n
    grows.  estimate is the expanded two-coefficient form, with s1 = 1
    and s2 = e^{c n}, (1/n) log [s1 + s2 * integral]; it tends to limit,
    c + p(x0)."""
    lo, hi = interval
    x0, p0 = _interior_max(pfn, lo, hi)
    h = 1e-4
    d2 = (pfn(x0 + h) - 2.0 * pfn(x0) + pfn(x0 - h)) / h ** 2
    if d2 >= 0:
        raise ParameterError("pfn must have a strict interior maximum")
    log_den = 0.5 * np.log(2.0 * np.pi / (n * abs(d2))) + np.log(q(x0))
    return _checked(q, pfn, lo, hi, n, p0, log_den, c)


def breitung_check(q, pfn, n, c: float,
                   hi: float = 1.0) -> tuple[float, float, float]:
    """Boundary case of laplace_check: p maximal at 0 with p'(0) < 0.  The
    ratio is integral_0^hi q e^{n p} over n^{-1} |p'(0)|^{-1} q(0)
    e^{n p(0)}; the estimate of (1/n) log [1 + e^{c n} integral] tends to
    c + p(0)."""
    h = 1e-7
    dp0 = (pfn(h) - pfn(0.0)) / h
    if dp0 >= 0:
        raise ParameterError("pfn must decrease from the boundary")
    log_den = -np.log(n) - np.log(abs(dp0)) + np.log(q(0.0))
    return _checked(q, pfn, 0.0, hi, n, pfn(0.0), log_den, c)
