"""Metropolis-within-Gibbs sampling of weighted generalized-Gaussian
densities on R^n and on the positive orthant,

    pi(x) proportional to exp(-||x||_p^p) * f(x),

with f a homogeneous weight (see weights.py).  The chain state feeds the
radial mixture construction: dividing a draw X ~ pi by
(||X||_p^p + W)^(1/p) produces the weighted law on the ell_p ball.

The hot sweep lives in _kernels.py.  All randomness is pre-generated
from the counter-based stream, so a seed fixes the chain bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import _kernels
from .distributions import ParameterError, RadialLawW, sample_W, _check_positive
from .lpgeom import PBallSample, _finish_sample
from .rng import RngStream
from .weights import KIND_CONSTANT, KIND_CUSTOM, WeightFn


TARGET_ACCEPT = 0.35         # acceptance the proposal scales adapt toward
INIT_SCALE = 1.0             # proposal scale before adaptation
ACCEPT_WINDOW = (0.2, 0.6)   # acceptable mean acceptance band


@dataclass
class ChainConfig:
    n_samples: int = 1000
    burn_in: int = 2000          # adaptation steps (coordinate flips)
    thin: int = 1                # post-burn-in sweeps between kept states
    n_chains: int = 4


@dataclass
class ChainResult:
    samples: np.ndarray          # (n_samples, n), pooled across chains
    accept_rate: float
    accept_per_coord: np.ndarray
    accept_per_chain: np.ndarray  # (n_chains,) post-burn-in acceptance
    ess: float                   # effective sample size of ||x||_p^p
    ok: bool                     # acceptance inside the required window
    backend: str = _kernels.BACKEND


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
    n_adapt = cfg.burn_in
    n_steps = n_adapt + per_chain * cfg.thin * n  # sweeps -> coordinate flips

    # each chain's substream is drawn in the order a lone chain draws it:
    # coordinates, increments, uniforms, then the start from a rewound copy
    coord_idx = np.empty((n_steps, n_chains), dtype=np.int64)
    normals = np.empty((n_steps, n_chains))
    log_unifs = np.empty((n_steps, n_chains))
    x0 = np.empty((n_chains, n))
    for k, s in enumerate(rng.split(n_chains)):
        gen = s.gen
        coord_idx[:, k] = gen.integers(0, n, size=n_steps)
        normals[:, k] = gen.standard_normal(n_steps)
        log_unifs[:, k] = np.log(gen.random(n_steps))
        x0[k] = _initial_state(n, p, weight, s.fresh())
    # Robbins-Monro step sizes t^(-0.6), frozen after burn-in
    adapt_rates = 1.0 / (1.0 + np.arange(n_steps, dtype=np.float64)) ** 0.6
    adapt_up = np.exp(adapt_rates * (1.0 - TARGET_ACCEPT))
    adapt_down = np.exp(adapt_rates * (0.0 - TARGET_ACCEPT))

    scales = np.full((n_chains, n), INIT_SCALE)
    out = np.empty((per_chain, n_chains, n))
    acc = np.zeros((n_chains, n, 2), dtype=np.int64)
    # thinning counts sweeps of n flips; translate to flip units
    _kernels.run_chain(x0, float(p), int(weight.kind), float(weight.beta),
                       coord_idx, normals, log_unifs, scales,
                       int(n_adapt), adapt_up, adapt_down,
                       int(cfg.thin * n), out, acc)

    # ordered emission: every state is reported sorted ascending; callers
    # that need exchangeable coordinates apply a uniform permutation
    pooled = out.transpose(1, 0, 2).reshape(n_chains * per_chain, n)
    samples = np.sort(pooled[:cfg.n_samples], axis=1)
    tally = acc.sum(axis=0)
    rate = tally[:, 0].sum() / max(tally[:, 1].sum(), 1.0)
    per_coord = tally[:, 0] / np.maximum(tally[:, 1], 1.0)
    per_chain_rate = acc[..., 0].sum(axis=1) / np.maximum(
        acc[..., 1].sum(axis=1), 1.0)
    norm_series = np.sum(np.abs(samples) ** p, axis=1)
    ess = geyer_ess(norm_series)
    lo, hi = ACCEPT_WINDOW
    return ChainResult(samples=samples, accept_rate=float(rate),
                       accept_per_coord=per_coord,
                       accept_per_chain=per_chain_rate, ess=ess,
                       ok=bool(lo <= rate <= hi))


def sample_weighted_pnpw(n: int, p: float, weight: WeightFn, law: RadialLawW,
                         rng: RngStream, size: int = 1,
                         config: ChainConfig | None = None) -> PBallSample:
    """The weighted radial mixture on the ball: X ~ pi from the chain, then
    X / (||X||_p^p + W)^(1/p).  The chain's ChainResult rides along as
    ``chain``; the caller's config is left untouched."""
    cfg = replace(config or ChainConfig(), n_samples=size)
    r_chain, r_w = rng.split(2)
    res = mcmc_sample(n, p, weight, r_chain, cfg)
    w = np.atleast_1d(sample_W(law, r_w, size=size))
    return _finish_sample(res.samples, w, p, chain=res,
                          degree=weight.degree(n))


def estimate_norm_const(n: int, p: float, weight: WeightFn, rng: RngStream,
                        size: int = 100000) -> tuple[float, float]:
    """Monte-Carlo estimate of the normalization constant C making
    C * integral exp(-||x||_p^p) f(x) dx = 1.

    Importance-samples with the product generalized Gaussian (or its
    positive half on the orthant) and averages f in log space via
    log-sum-exp.  Returns (log C, standard error of log C), the latter
    being the relative error of the underlying mean.
    """
    from .distributions import sample_gen_gaussian, sample_gen_gaussian_positive

    sampler = (sample_gen_gaussian_positive if weight.orthant_only
               else sample_gen_gaussian)
    x = sampler(p, rng, size=(size, n))
    logf = np.asarray(weight.log_eval(x), dtype=float)
    finite = np.isfinite(logf)
    # base normalization: the product density integrates
    # (2 Gamma(1+1/p))^n over R^n, halved per coordinate on the orthant
    log_base = n * (np.log(2.0) + gammaln(1.0 + 1.0 / p))
    if weight.orthant_only:
        log_base -= n * np.log(2.0)
    m = np.max(logf[finite]) if finite.any() else -np.inf
    if not np.isfinite(m):
        return -np.inf, np.inf
    vals = np.exp(logf - m, where=finite, out=np.zeros_like(logf))
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(size)
    log_c_inv = log_base + m + np.log(mean)
    return float(-log_c_inv), float(se / mean)
