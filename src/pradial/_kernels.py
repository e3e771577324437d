"""Hot chain kernel: random-scan Metropolis-within-Gibbs, K chains in
lockstep.

``run_chain`` is plain numpy.  All randomness arrives pre-generated from
the caller, one column per chain, so a seed fixes every chain bit for bit.

Target densities on R^n (or the positive orthant) of the form

    log pi(x) = -||x||_p^p + log f(x),

where f is one of the coded weights: the pairwise repulsion
prod |x_i - x_j|^beta (1), or the orthant repulsion
prod |x_i - x_j|^beta * prod x_i^(beta/2 - 1) (2).

Layout: the K chain states are the rows of one (K, n) array.  Step t
moves every chain at once: chain k proposes a new value for its own
coordinate i = coord_idx[t, k], the change in log f is the sum over j != i
of beta * (log|x_new - x_j| - log|x_old - x_j|), taken for all chains as
(K, n) arrays, and the accepted moves are scattered back.  For the
orthant weight with beta != 2 the state carries one more column holding
0, so that the same arrays also hold the power term
(beta/2 - 1) * (log x_new - log x_old).  The result is the same float for
float as running the K chains one after another with a scalar loop:

* the self column of the distance arrays is set to 1, so its term is an
  exact zero;
* the sum over j runs left to right (``np.add.accumulate``), the order of
  a scalar ``+=`` loop, with the power term last; a pairwise ``sum``
  would round differently;
* |x|^p is a numpy scalar power, which calls the C library pow; numpy's
  vector power differs from it in the last bit for some inputs;
* the orthant reflection keeps -0.0 as it is (``np.abs`` would not).
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def run_chain(x0, p, kind, beta, coord_idx, normals, log_unifs, scales,
              adapt_until, adapt_up, adapt_down, thin, out, acc_count):
    """Run K chains in lockstep.  All randomness arrives pre-generated:

    x0            -- (K, n) starting states, one row per chain
    coord_idx     -- (T, K) coordinate each chain updates at step t
    normals       -- (T, K) standard normal proposal increments
    log_unifs     -- (T, K) logs of the Metropolis uniforms
    scales        -- (K, n) per-chain, per-coordinate proposal scales;
                     while t < adapt_until they are driven multiplicatively
                     by adapt_up[t] on an accept and adapt_down[t] on a
                     reject (Robbins-Monro factors precomputed by the
                     caller, shared by all chains)
    thin          -- post-adapt steps between kept states
    out           -- (n_keep, K, n) buffer receiving every thin-th
                     post-adapt state of every chain
    acc_count     -- (K, n, 2) per-chain, per-coordinate [accepts,
                     proposals] tallies (post-adapt), added to in place

    Returns nothing; results land in out / acc_count / scales.
    """
    n_chains, n = x0.shape
    n_steps = coord_idx.shape[0]
    expo = beta / 2.0 - 1.0
    # the power term's column holds 0: its distance |x_i - 0| is x_i
    power = kind == 2 and expo != 0.0
    m = n + power
    x = np.zeros((n_chains, m))
    x[:, :n] = x0
    sc = np.ones((n_chains, m))
    sc[:, :n] = scales
    xf, sf = x.reshape(-1), sc.reshape(-1)
    # flat position of each chain's coordinate in the (K, m) state, and of
    # its self-distance in the (2, K, m) distance array
    flat = coord_idx + np.arange(n_chains) * m
    self_pos = np.concatenate((flat, flat + n_chains * m), axis=1)
    coef = beta
    if power:
        coef = np.full(m, beta)
        coef[n] = expo
    v = np.empty((2, n_chains))     # proposed and current coordinate values
    d = np.empty((2, n_chains, m))  # their distances to every coordinate
    d_flat = d.reshape(-1)
    accepted = np.empty((n_steps, n_chains), dtype=bool)
    keep = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(n_steps):
            f = flat[t]
            xi_old = xf[f]
            xi_new = xi_old + sf[f] * normals[t]
            if kind == 2:
                # reflect at the orthant boundary
                xi_new = np.where(xi_new < 0.0, -xi_new, xi_new)
            v[0] = xi_new
            v[1] = xi_old
            np.subtract(v[:, :, None], x, out=d)
            np.abs(d, out=d)
            d_flat[self_pos[t]] = 1.0
            np.log(d, out=d)
            terms = coef * (d[0] - d[1])
            dlogf = np.add.accumulate(terms, axis=1)[:, -1]
            ok = dlogf != -np.inf  # a tie with another coordinate
            if power:
                ok &= xi_new > 0.0
            # |v|^p one numpy scalar at a time: the C library pow
            pw = np.array([a ** p for a in np.abs(v).ravel()]).reshape(2, -1)
            dlog = dlogf - pw[0] + pw[1]
            acc = ok & (log_unifs[t] <= dlog)
            accepted[t] = acc
            xf[f] = np.where(acc, xi_new, xi_old)
            if t < adapt_until:
                sf[f] = sf[f] * np.where(acc, adapt_up[t], adapt_down[t])
            elif (t - adapt_until + 1) % thin == 0 and keep < out.shape[0]:
                out[keep] = x[:, :n]
                keep += 1

    scales[...] = sc[:, :n]
    post = coord_idx[adapt_until:] + np.arange(n_chains) * n
    size = n_chains * n
    acc_count[..., 0] += np.bincount(post[accepted[adapt_until:]],
                                     minlength=size).reshape(n_chains, n)
    acc_count[..., 1] += np.bincount(post.ravel(),
                                     minlength=size).reshape(n_chains, n)
