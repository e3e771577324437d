"""Hot chain kernel: random-scan Metropolis-within-Gibbs, K chains in
lockstep.

``run_chain`` is plain numpy.  All randomness arrives pre-generated from
the caller, one column per chain, so a seed fixes every chain bit for bit.

Target densities on R^n (or the positive orthant) of the form

    log pi(x) = -||x||_p^p + log f(x),

where f is one of the two repulsion weights of weights.py: Delta_beta,
prod |x_i - x_j|^beta on R^n, or, when the orthant flag is set, nabla_beta,
prod |x_i - x_j|^beta * prod x_i^(beta/2 - 1) on the positive orthant.

Layout: the K chain states are the rows of one (K, n) array.  Step t
moves every chain at once: chain k proposes a new value for its own
coordinate i = coord_idx[t, k], the change in log f is
beta * sum over j != i of (log|x_new - x_j| - log|x_old - x_j|), taken for
all chains as (K, n) arrays with the self entry's distance set to 1, plus
(beta/2 - 1) * log(x_new / x_old) for the orthant weight, and the accepted
moves are scattered back.

After every n steps (one sweep) each chain is rescaled to a pre-drawn
radius R = ||x||_p^p.  For f homogeneous of degree m, R ~ Gamma((n+m)/p)
independent of the direction x / ||x||_p, so the rescaling is an exact
Gibbs step on R.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def run_chain(x0, p, orthant, beta, coord_idx, normals, log_unifs, scales,
              adapt_until, adapt_up, adapt_down, thin, out, accepted, radii):
    """Run K chains in lockstep.  All randomness arrives pre-generated:

    x0            -- (K, n) starting states, one row per chain
    orthant       -- True for nabla_beta, whose proposals are reflected
                     into the orthant; False for Delta_beta
    coord_idx     -- (T, K) coordinate each chain updates at step t
    normals       -- (T, K) standard normal proposal increments
    log_unifs     -- (T, K) logs of the Metropolis uniforms
    scales        -- (K, n) C-contiguous per-chain, per-coordinate proposal
                     scales, updated in place; while t < adapt_until they
                     are driven multiplicatively by adapt_up[t] on an
                     accept and adapt_down[t] on a reject (Robbins-Monro
                     factors precomputed by the caller, shared by all
                     chains)
    thin          -- post-adapt steps between kept states
    out           -- (n_keep, K, n) buffer receiving every thin-th
                     post-adapt state of every chain
    accepted      -- (T, K) bool buffer receiving each chain's accept
                     decision at every step
    radii         -- (T // n, K) values of ||x||_p^p each chain is rescaled
                     to after each sweep of n steps, before the state at
                     that step is kept

    Returns nothing; results land in out / accepted / scales.
    """
    n_chains, n = x0.shape
    expo = beta / 2.0 - 1.0
    power = orthant and expo != 0.0
    x = np.array(x0, dtype=float)
    xf, sf = x.reshape(-1), scales.reshape(-1, copy=False)
    # flat position of each chain's coordinate in the (K, n) state, and of
    # its self-distance in the (2, K, n) distance array
    flat = coord_idx + np.arange(n_chains) * n
    self_pos = np.concatenate((flat, flat + n_chains * n), axis=1)
    v = np.empty((2, n_chains))     # proposed and current coordinate values
    d = np.empty((2, n_chains, n))  # their distances to every coordinate
    d_flat = d.reshape(-1)
    keep = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(coord_idx.shape[0]):
            f = flat[t]
            v[1] = xf[f]
            v[0] = v[1] + sf[f] * normals[t]
            if orthant:
                np.abs(v[0], out=v[0])  # reflect at the orthant boundary
            np.subtract(v[:, :, None], x, out=d)
            np.abs(d, out=d)
            d_flat[self_pos[t]] = 1.0
            np.log(d, out=d)
            dlog = beta * (d[0] - d[1]).sum(axis=1)
            ok = dlog != -np.inf  # a tie with another coordinate
            if power:
                dlog += expo * np.log(v[0] / v[1])
                ok &= v[0] > 0.0
            pw = np.abs(v) ** p
            dlog = dlog - pw[0] + pw[1]
            acc = ok & (log_unifs[t] <= dlog)
            accepted[t] = acc
            xf[f] = np.where(acc, v[0], v[1])
            if (t + 1) % n == 0:
                r = np.sum(np.abs(x) ** p, axis=1, keepdims=True)
                x *= (radii[t // n, :, None] / r) ** (1.0 / p)
            if t < adapt_until:
                sf[f] *= np.where(acc, adapt_up[t], adapt_down[t])
            elif (t - adapt_until + 1) % thin == 0 and keep < out.shape[0]:
                out[keep] = x
                keep += 1
