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

Normalization constants from the Weyl integration formula are computed in
log space.  Matrix assembly (conjugating a spectrum by Haar-distributed
frames) is provided for beta in {1, 2}; beta = 4 is spectral-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import ParameterError, RadialLawW, _check_positive
from .mcmc import ChainConfig, ChainResult, sample_weighted_pnpw
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
    (M) symmetry class; relative to the H constant the product is squared
    and a factor 2^(-(beta/2) n (n-1)) appears."""
    head, log_prod = _log_weyl_terms(n, beta)
    return float(head + 2.0 * log_prod
                 - (beta / 2.0) * n * (n - 1) * np.log(2.0))


@dataclass
class EnsembleSpec:
    n: int
    p: float
    beta: float = 2.0
    law: RadialLawW | None = None

    def __post_init__(self):
        if self.beta not in (1.0, 2.0, 4.0):
            raise ParameterError(f"beta must be 1, 2, or 4, got {self.beta}")
        _check_positive("p", self.p)
        if self.law is None:
            self.law = RadialLawW.exponential()


@dataclass
class SpectralSample:
    """Sorted spectra (eigenvalues or squared singular values), one row per
    draw, plus the chain diagnostics that produced them."""

    spectra: np.ndarray
    on_sphere: np.ndarray
    family: str  # "H" or "M"
    spec: EnsembleSpec
    chain: ChainResult

    @property
    def points(self) -> np.ndarray:
        """The spectra under the name PBallSample gives its rows."""
        return self.spectra

    @property
    def chain_ok(self) -> bool:
        return self.chain.ok

    @property
    def accept_rate(self) -> float:
        return self.chain.accept_rate


def _spectral_sample(spec: EnsembleSpec, family: str, weight: WeightFn,
                     exponent: float, rng: RngStream, size: int,
                     config: ChainConfig | None) -> SpectralSample:
    s = sample_weighted_pnpw(spec.n, exponent, weight, spec.law, rng,
                             size=size, config=config)
    # the chain emits sorted rows and the radial division keeps their order
    return SpectralSample(spectra=s.points, on_sphere=s.on_sphere,
                          family=family, spec=spec, chain=s.chain)


def sample_eigenvalues_PH(spec: EnsembleSpec, rng: RngStream, size: int = 1,
                          config: ChainConfig | None = None) -> SpectralSample:
    """Eigenvalue vectors of the H-family matrix ball law: the weighted
    radial mixture with weight Delta_beta, exponent p."""
    return _spectral_sample(spec, "H", WeightFn.delta_beta(spec.beta), spec.p,
                            rng, size, config)


def sample_sq_singular_PM(spec: EnsembleSpec, rng: RngStream, size: int = 1,
                          config: ChainConfig | None = None) -> SpectralSample:
    """Squared singular values of the M-family matrix ball law: the
    orthant weighted radial mixture with weight nabla_beta and exponent
    q = p/2."""
    return _spectral_sample(spec, "M", WeightFn.nabla_beta(spec.beta),
                            spec.p / 2.0, rng, size, config)


def _haar_unitary(n: int, gen: np.random.Generator, real: bool) -> np.ndarray:
    """Haar orthogonal/unitary matrix via QR with the sign-fixed R."""
    if real:
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
    if beta not in (1.0, 2.0):
        raise ParameterError(
            "matrix assembly is implemented for beta in {1, 2}; the "
            "beta = 4 ensemble is exposed through its spectrum only")
    eigs = np.asarray(eigs, dtype=float)
    u = _haar_unitary(eigs.shape[0], rng.gen, real=(beta == 1.0))
    return (u * eigs) @ u.conj().T


def assemble_matrix_M(sq_singular: np.ndarray, beta: float,
                      rng: RngStream) -> np.ndarray:
    """A matrix U diag(s) V* with the given squared singular values, U and
    V independent Haar frames.  beta in {1, 2} only."""
    if beta not in (1.0, 2.0):
        raise ParameterError(
            "matrix assembly is implemented for beta in {1, 2}; the "
            "beta = 4 ensemble is exposed through its spectrum only")
    s = np.sqrt(np.asarray(sq_singular, dtype=float))
    gen = rng.gen
    real = beta == 1.0
    u = _haar_unitary(s.shape[0], gen, real)
    v = _haar_unitary(s.shape[0], gen, real)
    return (u * s) @ v.conj().T


def empirical_spectral_measure(values: np.ndarray, p: float, kind: str):
    """The rescaled empirical spectral measure of one spectrum.

    Eigenvalues (kind "H") are blown up by n^(1/p); squared singular
    values (kind "M") by n^(2/p).  Returns a MeasureRep with uniform atom
    weights.
    """
    from .measures import MeasureRep

    values = np.asarray(values, dtype=float)
    n = values.size
    if kind == "H":
        scale = n ** (1.0 / p)
    elif kind == "M":
        scale = n ** (2.0 / p)
    else:
        raise ParameterError(f"kind must be 'H' or 'M', got {kind!r}")
    return MeasureRep.from_atoms(values * scale)


def spectral_measures(sample: SpectralSample):
    """empirical_spectral_measure applied to every row of a SpectralSample."""
    return [empirical_spectral_measure(row, sample.spec.p, sample.family)
            for row in sample.spectra]


# --- independent oracles ----------------------------------------------------

def gue_eigenvalue_oracle(n: int, rng: RngStream, size: int = 1) -> np.ndarray:
    """Sorted eigenvalues of an n x n GUE matrix scaled so the joint
    eigenvalue density is proportional to exp(-sum lambda_i^2) *
    prod |lambda_i - lambda_j|^2: diagonal N(0, 1/2), off-diagonal real
    and imaginary parts N(0, 1/4)."""
    gen = rng.gen
    out = np.empty((size, n))
    for k in range(size):
        d = gen.standard_normal(n) / np.sqrt(2.0)
        re = gen.standard_normal((n, n)) / 2.0
        im = gen.standard_normal((n, n)) / 2.0
        h = np.diag(d).astype(complex)
        iu = np.triu_indices(n, k=1)
        h[iu] = re[iu] + 1j * im[iu]
        h[(iu[1], iu[0])] = re[iu] - 1j * im[iu]
        out[k] = np.sort(np.linalg.eigvalsh(h))
    return out


def laguerre_sq_singular_oracle(n: int, rng: RngStream, size: int = 1) -> np.ndarray:
    """Sorted eigenvalues of A A* for A a complex n x n Ginibre matrix with
    entrywise Re/Im variance 1/2; the joint density is proportional to
    exp(-sum x_i) * prod |x_i - x_j|^2 on the positive orthant (beta = 2
    Laguerre with unit scale)."""
    gen = rng.gen
    out = np.empty((size, n))
    for k in range(size):
        a = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
        out[k] = np.sort(np.linalg.eigvalsh(a @ a.conj().T))
    return out
