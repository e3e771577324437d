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

This module is the one place that pairs a family with its weight and
exponent.  Both samplers return the lpgeom.PBallSample of the weighted
radial mixture, whose p is the exponent (p for H, p/2 for M) and whose
degree is the weight's homogeneity degree.  At p = 2 the spectra under
the radial mixture are the Hermite and Laguerre beta-ensembles, which
beta_ensemble_spectra draws exactly from the tridiagonal models of
Dumitriu & Edelman; the sample's chain is then None.  At every other p
the chain of mcmc.sample_weighted_pnpw draws them.

Normalization constants from the Weyl integration formula are computed in
log space.  Matrix assembly (conjugating a spectrum by Haar-distributed
frames) is provided for beta in {1, 2}; beta = 4 is spectral-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import ParameterError, RadialLawW, _check_positive
from .lpgeom import PBallSample, _finish_sample
from .mcmc import ChainConfig, sample_weighted_pnpw
from .rng import RngStream
from .weights import WeightFn


def _log_weyl_terms(n: int, beta: float) -> tuple[float, float]:
    """The terms the H and M constants share: -log(n!) - n * log(cell) and
    log prod_{k=1}^n 2 (2 pi)^(beta k / 2) / (2^(beta/2) Gamma(beta k / 2))."""
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


@dataclass
class EnsembleSpec:
    n: int
    p: float
    beta: float = 2.0
    law: RadialLawW | None = None

    def __post_init__(self):
        if self.beta not in (1.0, 2.0, 4.0):
            raise ParameterError(f"beta must be 1, 2, or 4, got {self.beta}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        _check_positive("p", self.p)
        if self.law is None:
            self.law = RadialLawW.exponential()


def _sample_family(family: str, spec: EnsembleSpec, rng: RngStream,
                   size: int, config: ChainConfig | None) -> PBallSample:
    """The weighted radial mixture of one family.  At p = 2 the spectrum
    and W come from the two streams sample_weighted_pnpw splits off, and
    config is unused."""
    if family == "H":
        q, weight = spec.p, WeightFn.delta_beta(spec.beta)
    else:
        q, weight = spec.p / 2.0, WeightFn.nabla_beta(spec.beta)
    if spec.p != 2.0:
        return sample_weighted_pnpw(spec.n, q, weight, spec.law, rng,
                                    size=size, config=config)
    r_x, r_w = rng.split(2)
    x = beta_ensemble_spectra(family, spec.n, spec.beta, r_x, size=size)
    return _finish_sample(x, q, spec.law, r_w, degree=weight.degree(spec.n))


def sample_eigenvalues_PH(spec: EnsembleSpec, rng: RngStream, size: int = 1,
                          config: ChainConfig | None = None) -> PBallSample:
    """Eigenvalue vectors of the H-family matrix ball law: the weighted
    radial mixture with weight Delta_beta, exponent p.  Rows are sorted.
    Exact and independent at p = 2; elsewhere from the chain under
    config."""
    return _sample_family("H", spec, rng, size, config)


def sample_sq_singular_PM(spec: EnsembleSpec, rng: RngStream, size: int = 1,
                          config: ChainConfig | None = None) -> PBallSample:
    """Squared singular values of the M-family matrix ball law: the
    orthant weighted radial mixture with weight nabla_beta and exponent
    q = p/2, which the sample carries as its p.  Rows are sorted.  Exact
    and independent at p = 2; elsewhere from the chain under config."""
    return _sample_family("M", spec, rng, size, config)


def _haar_unitary(n: int, gen: np.random.Generator, beta: float) -> np.ndarray:
    """Haar orthogonal (beta = 1) or unitary (beta = 2) matrix via QR with
    the sign-fixed R."""
    if beta not in (1.0, 2.0):
        raise ParameterError(
            "matrix assembly is implemented for beta in {1, 2}; the "
            "beta = 4 ensemble is exposed through its spectrum only")
    if beta == 1.0:
        a = gen.standard_normal((n, n))
    else:
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def assemble_matrix_H(eigs: np.ndarray, beta: float, rng: RngStream) -> np.ndarray:
    """A self-adjoint matrix with the given spectrum, conjugated by a Haar
    frame.  Supported for beta in {1, 2}; beta = 4 is spectral-only."""
    eigs = np.asarray(eigs, dtype=float)
    u = _haar_unitary(eigs.shape[0], rng.gen, beta)
    return (u * eigs) @ u.conj().T


def assemble_matrix_M(sq_singular: np.ndarray, beta: float,
                      rng: RngStream) -> np.ndarray:
    """A matrix U diag(s) V* with the given squared singular values, U and
    V independent Haar frames.  beta in {1, 2} only."""
    s = np.sqrt(np.asarray(sq_singular, dtype=float))
    u = _haar_unitary(s.shape[0], rng.gen, beta)
    v = _haar_unitary(s.shape[0], rng.gen, beta)
    return (u * s) @ v.conj().T


def empirical_spectral_measure(values: np.ndarray, q: float):
    """The rescaled empirical spectral measure of one row of a sample on
    the ell_q ball: the values blown up by n^(1/q).  Eigenvalues take
    q = p and squared singular values q = p/2.  Returns a MeasureRep with
    uniform atom weights.
    """
    from .measures import MeasureRep

    values = np.asarray(values, dtype=float)
    return MeasureRep.from_atoms(values * values.size ** (1.0 / q))


def spectral_measures(sample: PBallSample):
    """empirical_spectral_measure applied to every row of a spectral sample."""
    return [empirical_spectral_measure(row, sample.p) for row in sample.points]


# --- exact spectra at p = 2 ---------------------------------------------------

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
    tridiagonal; at n = 1 the spectrum is the diagonal.
    """
    from scipy.linalg.lapack import dsterf

    if family not in ("H", "M"):
        raise ParameterError(f"family must be 'H' or 'M', got {family!r}")
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
        # each row of diag becomes its sorted eigenvalues
        for d, e in zip(diag, off):
            d[:], info = dsterf(d, e, overwrite_d=True, overwrite_e=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"dsterf returned info {info}")
    if family == "M":
        np.maximum(diag, 0.0, out=diag)
    return diag
