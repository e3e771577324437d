"""Spectral distributions on matrix p-balls.

Two families of self-adjoint random matrices are covered, indexed by the
symmetry class beta in {1, 2, 4} (real symmetric / complex Hermitian /
quaternionic self-dual):

* the "H" family, matrices Z with ||Z||_{S_p} <= 1 whose eigenvalue
  vector has the weighted radial law on the ell_p ball with weight
  Delta_beta(x) = prod_{i<j} |x_i - x_j|^beta, and
* the "M" family, matrices of the form Z = U diag(s) V* with squared
  singular values s_i^2 carrying the weighted radial law on the positive
  orthant of the ell_q ball, q = p/2, with weight
  nabla_beta(x) = Delta_beta(x) * prod_i x_i^(beta/2 - 1).

weights.FAMILIES pairs each family with its weight and exponent.  One
sampler, sample_spectra, takes the family, n, p, beta and the mixing law
W, and returns the lpgeom.PBallSample of the weighted radial mixture,
whose p is the exponent (p for H, p/2 for M) and whose degree is the
weight's homogeneity degree.  At p = 2 the spectra under the radial
mixture are the Hermite and Laguerre beta-ensembles, which
beta_ensemble_spectra draws exactly from the tridiagonal models of
Dumitriu & Edelman, one dsterf call a row on one thread per CPU; the
sample's chain is then None.  At every other p the chain of
mcmc.mcmc_sample draws them.

Normalization constants from the Weyl integration formula are computed in
log space.
"""

from __future__ import annotations

import functools

import numpy as np

from .distributions import (ParameterError, RadialLawW, _check_counts,
                            _check_positive)
from .lpgeom import PBallSample, _finish_sample
from .mcmc import mcmc_sample
from .rng import RngStream, _row_blocks, _run_blocks
from .weights import family_weight


def _log_weyl_terms(n: int, beta: float) -> tuple[float, float]:
    """The terms the H and M constants share: -log(n!) - n * log(cell) and
    log prod_{k=1}^n 2 (2 pi)^(beta k / 2) / (2^(beta/2) Gamma(beta k / 2))."""
    from scipy.special import gammaln

    _check_positive("beta", beta)
    k = np.arange(1, n + 1)
    log_prod = np.sum(np.log(2.0) + (beta * k / 2.0) * np.log(2.0 * np.pi)
                      - (beta / 2.0) * np.log(2.0) - gammaln(beta * k / 2.0))
    log_cell = np.log(2.0) + (beta / 2.0) * np.log(np.pi) - gammaln(beta / 2.0)
    return -gammaln(n + 1.0) - n * log_cell, log_prod


def log_weyl_const_H(n: int, beta: float) -> float:
    """log of the eigenvalue-density normalization for the self-adjoint
    (H) symmetry class,

        c_H = (1/n!) * (2 pi^(beta/2)/Gamma(beta/2))^(-n)
              * prod_{k=1}^n 2 (2 pi)^(beta k / 2) / (2^(beta/2) Gamma(beta k / 2)).
    """
    head, log_prod = _log_weyl_terms(n, beta)
    return float(head + log_prod)


def log_weyl_const_M(n: int, beta: float) -> float:
    """log of the squared-singular-value normalization for the general
    (M) symmetry class, c_M of the density c_M nabla_beta(s) in s = sigma^2.
    Relative to the H constant the product is squared and a factor
    2^(-(beta/2) n (n-1) - n) appears; the 2^(-n) is d sigma = ds / (2 sigma)
    in each coordinate, so c_M is 1 at n = 1, beta = 1 (2 in sigma = |x|)."""
    head, log_prod = _log_weyl_terms(n, beta)
    return float(head + 2.0 * log_prod
                 - ((beta / 2.0) * n * (n - 1) + n) * np.log(2.0))


def sample_spectra(family: str, n: int, p: float, beta: float,
                   law: RadialLawW, rng: RngStream,
                   size: int = 1) -> PBallSample:
    """The weighted radial mixture of family "H" or "M", one sorted row a
    draw.  The spectrum comes from the first of rng.split(2) and W from
    the second."""
    if family not in ("H", "M"):
        raise ParameterError(f"family must be 'H' or 'M', got {family!r}")
    _check_positive("p", p)
    weight, q = family_weight(family, p, beta)
    r_x, r_w = rng.split(2)
    if p == 2.0:
        chain, x = None, beta_ensemble_spectra(family, n, beta, r_x, size)
    else:
        chain = mcmc_sample(n, q, weight, r_x, size)
        x = chain.samples.copy()  # the finisher divides it in place
    return _finish_sample(x, q, law, r_w, chain=chain,
                          degree=weight.degree(n))


# --- exact spectra at p = 2 ---------------------------------------------------

@functools.cache
def _dsterf():
    """LAPACK's dsterf(n, d, e, info) of scipy.linalg.cython_lapack as a
    ctypes function of four addresses: unlike scipy's f2py wrappers, a
    ctypes call releases the GIL.  Prototypes of its own read the capsule,
    so ctypes.pythonapi's keep their types, and refuse other signatures."""
    import ctypes
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule, api, obj = __pyx_capi__["dsterf"], ctypes.pythonapi, ctypes.py_object
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(
        ("PyCapsule_GetName", api))(capsule)
    d = b"__pyx_t_5scipy_6linalg_13cython_lapack_d *"  # Cython's double
    if name != b"void (int *, %s, %s, int *)" % (d, d):
        raise TypeError(f"not LAPACK's double dsterf: {name!r}")
    at = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    return ctypes.CFUNCTYPE(None, *4 * [ctypes.c_void_p])(at)


def beta_ensemble_spectra(family: str, n: int, beta: float, rng: RngStream,
                          size: int = 1) -> np.ndarray:
    """Exact draws of the spectral laws at p = 2, one sorted spectrum per
    row, from the tridiagonal matrix models of Dumitriu & Edelman, "Matrix
    models for beta ensembles" (J. Math. Phys. 43, 2002).

    "H": eigenvalues with density proportional to
    exp(-sum lambda_i^2) * Delta_beta(lambda): the Hermite model with
    diagonal N(0, 2) and off-diagonal chi_{beta(n-1)}, ..., chi_beta, all
    divided by 2.

    "M": squared singular values with density proportional to
    exp(-sum x_i) * nabla_beta(x) on the orthant: half the eigenvalues of
    B B^T, B lower bidiagonal with diagonal chi_{beta(n-k)} (k = 0..n-1)
    and subdiagonal chi_{beta(n-1)}, ..., chi_beta.  Rounding can take the
    smallest below 0, where the law has no mass, so they are clipped at 0.

    Each row costs O(n) variates and one LAPACK dsterf call on the
    tridiagonal; at n = 1 the spectrum is the diagonal.  The row blocks of
    rng._row_blocks, n^2 cells a row, go to rng._run_blocks, one thread
    per CPU, and give the same bits on any number of CPUs.
    """
    if family not in ("H", "M"):
        raise ParameterError(f"family must be 'H' or 'M', got {family!r}")
    _check_counts(n=n, size=size)
    _check_positive("beta", beta)
    gen = rng.gen
    sub_dof = beta * np.arange(n - 1, 0, -1)
    if family == "H":
        diag = gen.standard_normal((size, n)) * np.sqrt(2.0) / 2.0
        off = np.sqrt(gen.chisquare(sub_dof, size=(size, n - 1))) / 2.0
    else:
        b_diag = np.sqrt(gen.chisquare(beta * np.arange(n, 0, -1),
                                       size=(size, n)))
        b_sub = np.sqrt(gen.chisquare(sub_dof, size=(size, n - 1)))
        # B B^T is tridiagonal: diagonal d_k^2 + e_{k-1}^2, off-diagonal
        # d_k e_k
        diag = b_diag ** 2 / 2.0
        diag[:, 1:] += b_sub ** 2 / 2.0
        off = b_diag[:, :-1] * b_sub / 2.0
    if n > 1:
        # each row of diag becomes its sorted eigenvalues, in place
        dsterf = _dsterf()
        d_at, e_at = (range(a.ctypes.data, a.ctypes.data + a.nbytes,
                            a.strides[0]) for a in (diag, off))

        def run(mine, _):
            ni = np.array([n, 0], dtype=np.intc)  # n and this worker's info
            n_at, info_at = ni.ctypes.data, ni.ctypes.data + ni.itemsize
            for b in mine:
                for d, e in zip(d_at[b], e_at[b]):
                    dsterf(n_at, d, e, info_at)
                    if ni[1]:
                        raise np.linalg.LinAlgError(
                            f"dsterf returned info {ni[1]}")

        _run_blocks(_row_blocks(size, n * n), run)
    if family == "M":
        np.maximum(diag, 0.0, out=diag)
    return diag
