"""Metropolis-within-Gibbs sampling of weighted generalized-Gaussian
densities on R^n and on the positive orthant,

    pi(x) proportional to exp(-||x||_p^p) * f(x),

with f a homogeneous weight (see weights.py).  The chain state feeds the
radial mixture construction: dividing a draw X ~ pi by
(||X||_p^p + W)^(1/p) produces the weighted law on the ell_p ball.

The hot sweep lives in _kernels.py.  All randomness is pre-generated
from the counter-based stream, so a seed fixes the chain bit for bit.
After every sweep the kernel rescales each chain to a radius drawn here
from the exact law of ||X||_p^p, Gamma((n + m)/p) for f of degree m, so
only the direction is left to the Metropolis steps; burn-in, adaptation
and thinning all count sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, ndtri

from . import _kernels
from .distributions import ParameterError, RadialLawW, _check_positive
from .lpgeom import PBallSample, _finish_sample, sample_pnpw
from .rng import RngStream
from .weights import KIND_CONSTANT, KIND_CUSTOM, WeightFn


TARGET_ACCEPT = 0.35         # acceptance the proposal scales adapt toward
INIT_SCALE = 1.0             # proposal scale before adaptation
ACCEPT_WINDOW = (0.2, 0.6)   # acceptable mean acceptance band


@dataclass
class ChainConfig:
    n_samples: int = 1000
    burn_in: int = 100           # adaptation sweeps of n coordinate flips
    thin: int = 1                # post-burn-in sweeps between kept states
    n_chains: int = 16           # lockstep chains: burn-in is paid once


@dataclass
class ChainResult:
    samples: np.ndarray          # (n_samples, n), pooled across chains
    accept_rate: float
    accept_per_chain: np.ndarray  # (n_chains,) post-burn-in acceptance
    states: int                  # kept states the diagnostics cover,
                                 # n_chains * ceil(n_samples / n_chains)
    ess: float                   # per-chain ESS of ||x||_p^p, summed
    rhat: float                  # rank-normalised split-R-hat of ||x||_p^p
    ess_dir: float               # ess and rhat of max|x_i| / ||x||_p, the
    rhat_dir: float              # direction the radius refresh leaves alone
    ok: bool                     # acceptance inside the required window


def log_target(x: np.ndarray, p: float, weight: WeightFn) -> float:
    """log pi up to the normalization constant."""
    x = np.asarray(x, dtype=float)
    return -np.sum(np.abs(x) ** p, axis=-1) + weight.log_eval(x)


def _initial_state(n: int, p: float, weight: WeightFn, rng: RngStream):
    """A valid starting point: spread coordinates so repulsive weights are
    finite."""
    gen = rng.gen
    if weight.orthant_only:
        x = np.sort(gen.random(n)) + np.arange(n) * 0.5 + 0.1
    else:
        x = np.sort(gen.standard_normal(n)) + np.arange(n) * 0.5
    return x


def geyer_ess(series: np.ndarray) -> float:
    """Effective sample size via the initial monotone sequence estimator."""
    x = np.asarray(series, dtype=float)
    m = x.size
    if m < 4:
        return float(m)
    x = x - x.mean()
    var = np.dot(x, x) / m
    if var == 0.0:
        return float(m)
    # autocovariances via FFT
    nfft = int(2 ** np.ceil(np.log2(2 * m)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:m].real / m
    rho = acov / acov[0]
    # pair sums Gamma_k = rho_{2k} + rho_{2k+1}; keep while positive and
    # enforce monotonicity
    gamma_sum = 0.0
    prev = np.inf
    k = 0
    while 2 * k + 1 < m:
        g = rho[2 * k] + rho[2 * k + 1]
        if g <= 0.0:
            break
        g = min(g, prev)
        gamma_sum += g
        prev = g
        k += 1
    tau = max(2.0 * gamma_sum - 1.0, 1.0)
    return float(m / tau)


def split_rhat(chains: np.ndarray) -> float:
    """Rank-normalised split-R-hat of draws shaped (n_chains, n_draws),
    after Vehtari, Gelman, Simpson, Carpenter & Buerkner, "Rank-
    normalization, folding, and localization: an improved R-hat" (Bayesian
    Analysis 16, 2021).

    Each chain is cut into halves (dropping its middle draw when n_draws is
    odd).  The draws are replaced by the normal scores of their pooled
    ranks, ties taking their mean rank, and the classical R-hat of the
    halves is taken on those scores.  Values near 1 mean the halves agree;
    nan when a half holds fewer than two draws or the scores do not vary
    within the halves.
    """
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([x[:, :half], x[:, -half:]])
    _, inv, counts = np.unique(halves, return_inverse=True,
                               return_counts=True)
    rank = (np.cumsum(counts) - 0.5 * (counts - 1))[inv]
    z = ndtri((rank - 0.375) / (halves.size + 0.25)).reshape(halves.shape)
    within = z.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return float("nan")
    between = z.mean(axis=1).var(ddof=1)
    return float(np.sqrt((half - 1) / half + between / within))


def _check_config(cfg: ChainConfig) -> None:
    if cfg.n_chains < 1:
        raise ParameterError(f"n_chains must be >= 1, got {cfg.n_chains}")
    if cfg.thin < 1:
        raise ParameterError(f"thin must be >= 1, got {cfg.thin}")
    if cfg.burn_in < 0:
        raise ParameterError(f"burn_in must be >= 0, got {cfg.burn_in}")


def mcmc_sample(n: int, p: float, weight: WeightFn, rng: RngStream,
                config: ChainConfig | None = None) -> ChainResult:
    """Draw from pi(x) ~ exp(-||x||_p^p) f(x).

    Repulsive weights produce exchangeable coordinates; states are emitted
    sorted ascending so the output is the ordered vector.  The chains run
    in lockstep, each on its own substream, and are pooled chain by chain.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    _check_positive("p", p)
    cfg = config or ChainConfig()
    _check_config(cfg)
    if weight.kind == KIND_CUSTOM:
        raise ParameterError(
            "custom weights need a bespoke chain; only coded weights are "
            "supported by the chain kernel")
    if weight.kind == KIND_CONSTANT:
        raise ParameterError(
            "the constant weight needs no chain: lpgeom.sample_pnpw draws "
            "its law exactly")

    n_chains = cfg.n_chains
    per_chain = -(-cfg.n_samples // n_chains)  # ceil
    n_sweeps = cfg.burn_in + per_chain * cfg.thin
    n_adapt, n_steps = cfg.burn_in * n, n_sweeps * n  # in coordinate flips
    # R = ||X||_p^p is Gamma((n + m) / p) under pi, whatever the direction
    shape = (n + weight.degree(n)) / p

    # each chain's substream is drawn in the order a lone chain draws it:
    # coordinates, increments, uniforms, radii, then the start from a
    # rewound copy
    coord_idx = np.empty((n_steps, n_chains), dtype=np.int64)
    normals = np.empty((n_steps, n_chains))
    log_unifs = np.empty((n_steps, n_chains))
    radii = np.empty((n_sweeps, n_chains))
    x0 = np.empty((n_chains, n))
    for k, s in enumerate(rng.split(n_chains)):
        gen = s.gen
        coord_idx[:, k] = gen.integers(0, n, size=n_steps)
        normals[:, k] = gen.standard_normal(n_steps)
        log_unifs[:, k] = np.log(gen.random(n_steps))
        radii[:, k] = gen.standard_gamma(shape, size=n_sweeps)
        x0[k] = _initial_state(n, p, weight, s.fresh())
    # Robbins-Monro step sizes (1 + sweep)^(-0.6), frozen after burn-in
    adapt_rates = 1.0 / (1.0 + np.arange(n_adapt) // n) ** 0.6
    adapt_up = np.exp(adapt_rates * (1.0 - TARGET_ACCEPT))
    adapt_down = np.exp(adapt_rates * (0.0 - TARGET_ACCEPT))

    scales = np.full((n_chains, n), INIT_SCALE)
    out = np.empty((per_chain, n_chains, n))
    accepted = np.empty((n_steps, n_chains), dtype=bool)
    # thinning counts sweeps of n flips; translate to flip units
    _kernels.run_chain(x0, float(p), int(weight.kind), float(weight.beta),
                       coord_idx, normals, log_unifs, scales,
                       int(n_adapt), adapt_up, adapt_down,
                       int(cfg.thin * n), out, accepted, radii)

    # ordered emission: every state is reported sorted ascending; callers
    # that need exchangeable coordinates apply a uniform permutation
    pooled = out.transpose(1, 0, 2).reshape(n_chains * per_chain, n)
    samples = np.sort(pooled[:cfg.n_samples], axis=1)
    post = accepted[n_adapt:]
    rate = post.sum() / max(post.size, 1)
    per_chain_rate = post.sum(axis=0) / max(len(post), 1)
    # the diagnostics see every kept state of each chain, the few the pool
    # drops past n_samples included, so the chains have equal lengths
    norms = np.sum(np.abs(out) ** p, axis=2).T
    dirs = np.abs(out).max(axis=2).T / norms ** (1.0 / p)
    lo, hi = ACCEPT_WINDOW
    return ChainResult(samples=samples, accept_rate=float(rate),
                       accept_per_chain=per_chain_rate,
                       states=n_chains * per_chain,
                       ess=sum(geyer_ess(c) for c in norms),
                       rhat=split_rhat(norms),
                       ess_dir=sum(geyer_ess(c) for c in dirs),
                       rhat_dir=split_rhat(dirs), ok=bool(lo <= rate <= hi))


def sample_weighted_pnpw(n: int, p: float, weight: WeightFn, law: RadialLawW,
                         rng: RngStream, size: int = 1,
                         config: ChainConfig | None = None) -> PBallSample:
    """The weighted radial mixture on the ball: X ~ pi from the chain, then
    X / (||X||_p^p + W)^(1/p).  The chain's ChainResult rides along as
    ``chain``; the caller's config is left untouched."""
    cfg = replace(config or ChainConfig(), n_samples=size)
    r_chain, r_w = rng.split(2)
    res = mcmc_sample(n, p, weight, r_chain, cfg)
    return _finish_sample(res.samples.copy(), p, law, r_w, chain=res,
                          degree=weight.degree(n))


def estimate_norm_const(n: int, p: float, weight: WeightFn, rng: RngStream,
                        size: int = 100000) -> tuple[float, float, float]:
    """Monte-Carlo estimate of the normalization constant C making
    C * integral exp(-||x||_p^p) f(x) dx = 1.

    Importance-samples with the product generalized Gaussian Y (or its
    positive half on the orthant), with the radius integrated out:
    ||Y||_p^p ~ Gamma(n/p) is independent of Y / ||Y||_p, so for f of
    degree m, E f(Y) = Gamma((n+m)/p) / Gamma(n/p) * E f(Y / ||Y||_p).
    f is averaged over the directions in log space via log-sum-exp.
    Returns (log C, standard error of log C, ess): the error is the
    relative error of the underlying mean, and ess is the Kish effective
    sample size (sum v)^2 / sum v^2 of the importance weights
    v = f(y / ||y||_p).  An ess near 1 means one draw carries the whole
    estimate, and the standard error is then not to be trusted.
    """
    # the directions y / ||y||_p are cone draws, W = delta_0
    x = sample_pnpw(n, p, RadialLawW.dirac(), rng, size=size,
                    positive=weight.orthant_only).points
    logf = np.asarray(weight.log_eval(x), dtype=float)
    finite = np.isfinite(logf)
    # base normalization: the product density integrates
    # (2 Gamma(1+1/p))^n over R^n, halved per coordinate on the orthant;
    # then the radius's moment E ||Y||_p^m
    log_base = n * (np.log(2.0) + gammaln(1.0 + 1.0 / p))
    if weight.orthant_only:
        log_base -= n * np.log(2.0)
    log_base += gammaln((n + weight.degree(n)) / p) - gammaln(n / p)
    m = np.max(logf[finite]) if finite.any() else -np.inf
    if not np.isfinite(m):
        return -np.inf, np.inf, 0.0
    vals = np.exp(logf - m, where=finite, out=np.zeros_like(logf))
    # one draw has no spread to estimate: sd, se and ess are then nan
    mean, sd = vals.mean(), (vals.std(ddof=1) if size > 1 else np.nan)
    se = sd / np.sqrt(size)
    # sum v^2 = (size - 1) sd^2 + size mean^2, so ess needs no second pass
    ess = size / (1.0 + (1.0 - 1.0 / size) * (sd / mean) ** 2)
    log_c_inv = log_base + m + np.log(mean)
    return float(-log_c_inv), float(se / mean), float(ess)
