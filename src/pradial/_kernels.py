"""Hot chain kernel: random-scan Metropolis-within-Gibbs sweeps.

``run_chain`` is plain numpy/python.  All randomness arrives pre-generated
from the caller, so a seed fixes the chain bit for bit.

Target densities on R^n (or the positive orthant) of the form

    log pi(x) = -||x||_p^p + log f(x),

where f is one of the coded weights: constant one (0), the pairwise
repulsion prod |x_i - x_j|^beta (1), or the orthant repulsion
prod |x_i - x_j|^beta * prod x_i^(beta/2 - 1) (2).  Each coordinate flip
updates the log target in O(n) using the single changed row of the
pairwise-distance structure.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
NEG_INF = -np.inf


def _delta_logf(x, i, xi_new, kind, beta):
    """Change in log f when coordinate i moves to xi_new.  -inf marks a
    forbidden proposal (tie, or boundary violation for kind 2)."""
    n = x.shape[0]
    out = 0.0
    if kind == 0:
        return 0.0
    xi_old = x[i]
    for j in range(n):
        if j == i:
            continue
        d_new = abs(xi_new - x[j])
        if d_new == 0.0:
            return NEG_INF
        d_old = abs(xi_old - x[j])
        out += beta * (np.log(d_new) - np.log(d_old))
    if kind == 2:
        expo = beta / 2.0 - 1.0
        if xi_new <= 0.0:
            if expo != 0.0 or xi_new < 0.0:
                return NEG_INF
        elif expo != 0.0:
            out += expo * (np.log(xi_new) - np.log(xi_old))
    return out


def run_chain(x0, p, kind, beta, coord_idx, normals, log_unifs, scales,
              adapt_until, adapt_up, adapt_down, thin, out, acc_count):
    """Run the chain.  All randomness arrives pre-generated:

    coord_idx[t]  -- coordinate to update at step t
    normals[t]    -- standard normal proposal increment
    log_unifs[t]  -- log of the Metropolis uniform
    scales        -- per-coordinate proposal scales; while t < adapt_until
                     they are driven multiplicatively by adapt_up[t] on an
                     accept and adapt_down[t] on a reject (Robbins-Monro
                     factors precomputed by the caller)
    out           -- (n_keep, n) buffer receiving every thin-th post-adapt state
    acc_count     -- per-coordinate [accepts, proposals] tallies (post-adapt)

    Returns nothing; results land in out / acc_count / scales.
    """
    n = x0.shape[0]
    n_steps = coord_idx.shape[0]
    x = x0.copy()
    keep = 0
    kept_steps = 0
    for t in range(n_steps):
        i = coord_idx[t]
        xi_old = x[i]
        xi_new = xi_old + scales[i] * normals[t]
        if kind == 2 and xi_new < 0.0:
            xi_new = -xi_new  # reflect at the orthant boundary
        dlogf = _delta_logf(x, i, xi_new, kind, beta)
        if dlogf == NEG_INF:
            accepted = False
        else:
            dlog = dlogf - abs(xi_new) ** p + abs(xi_old) ** p
            accepted = log_unifs[t] <= dlog
        if accepted:
            x[i] = xi_new
        if t < adapt_until:
            scales[i] = scales[i] * (adapt_up[t] if accepted else adapt_down[t])
        else:
            acc_count[i, 1] += 1
            if accepted:
                acc_count[i, 0] += 1
            kept_steps += 1
            if kept_steps % thin == 0 and keep < out.shape[0]:
                for j in range(n):
                    out[keep, j] = x[j]
                keep += 1

