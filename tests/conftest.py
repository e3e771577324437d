"""Closed forms and reference implementations that the tests check the
library against.  Only two touch pradial: beta_law wraps scipy's Beta pdf
in the library's analytic measure, and chain_ball runs the chain where
the library draws exactly."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc, gammaln

from pradial.lpgeom import _finish_sample
from pradial.mcmc import mcmc_sample
from pradial.measures import MeasureRep


def _log_mehta(n: int, beta: float) -> float:
    """log of Mehta's integral, int_{R^n} exp(-||x||_2^2) |Delta(x)|^beta dx
    = (2 pi)^(n/2) 2^(-(n + m)/2) prod_{j=1}^n Gamma(1 + j beta/2) /
    Gamma(1 + beta/2), with m = beta n (n-1)/2 the weight's degree."""
    m = beta * n * (n - 1) / 2.0
    j = np.arange(1, n + 1)
    return float((n / 2.0) * math.log(2.0 * math.pi)
                 + np.sum(gammaln(1.0 + j * beta / 2.0)
                          - gammaln(1.0 + beta / 2.0))
                 - ((n + m) / 2.0) * math.log(2.0))


@pytest.fixture
def log_mehta():
    return _log_mehta


def _gen_gaussian_pdf(p: float, x):
    """The generalized Gaussian density exp(-|x|^p) / (2 Gamma(1 + 1/p))."""
    x = np.asarray(x, dtype=float)
    return np.exp(-np.abs(x) ** p - math.log(2.0) - gammaln(1.0 + 1.0 / p))


@pytest.fixture
def gen_gaussian_pdf():
    return _gen_gaussian_pdf


def _gen_gaussian_cdf(p: float, x):
    """Its CDF: |X|^p ~ Gamma(1/p), so P(X <= x) = 1/2 + sign(x) P(1/p,
    |x|^p) / 2 with P the regularized incomplete gamma."""
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.5 * np.sign(x) * gammainc(1.0 / p, np.abs(x) ** p)


@pytest.fixture
def gen_gaussian_cdf():
    return _gen_gaussian_cdf


def _log_target(x, p: float, weight):
    """log of the chain's target exp(-||x||_p^p) f(x) up to its
    normalization constant, f the weight, rescored in full at x."""
    x = np.asarray(x, dtype=float)
    return -np.sum(np.abs(x) ** p, axis=-1) + weight.log_eval(x)


@pytest.fixture
def log_target():
    return _log_target


def _log_laguerre_selberg(n: int, beta: float) -> float:
    """log of the Laguerre-Selberg integral,
    int_{R_+^n} exp(-sum s_i) nabla_beta(s) ds
    = prod_{j=0}^{n-1} Gamma(beta/2 + j beta/2) Gamma(1 + (j+1) beta/2) /
    Gamma(1 + beta/2), with nabla_beta(s) = |Delta(s)|^beta
    prod_i s_i^(beta/2 - 1)."""
    j = np.arange(n)
    g = beta / 2.0
    return float(np.sum(gammaln(g + j * g) + gammaln(1.0 + (j + 1) * g)
                        - gammaln(1.0 + g)))


@pytest.fixture
def log_laguerre_selberg():
    return _log_laguerre_selberg


def _gaussian_matrices(beta: float, n: int, size: int, gen) -> np.ndarray:
    """size Gaussian n x n matrices of the symmetry class beta, every real
    component N(0, 1/2): real (beta = 1), complex (beta = 2), or quaternion
    (beta = 4) in its 2n x 2n complex form [[X, Y], [-conj Y, conj X]]."""
    def normal():
        return gen.standard_normal((size, n, n)) * math.sqrt(0.5)

    if beta == 1.0:
        return normal()
    x = normal() + 1j * normal()
    if beta == 2.0:
        return x
    y = normal() + 1j * normal()
    return np.block([[x, y], [-y.conj(), x.conj()]])


def _dense_spectra(family: str, n: int, beta: float, size: int, seed: int,
                   chunk: int = 100) -> np.ndarray:
    """Sorted spectra of dense Gaussian matrices by numpy.linalg.eigvalsh,
    sharing no code with the tridiagonal sampler.

    "H": eigenvalues of (G + G*)/2, the GOE, GUE or GSE, with density
    proportional to exp(-sum lambda_i^2) |Delta(lambda)|^beta.  "M":
    eigenvalues of G G*, the square real, complex or quaternion Wishart
    matrix, with density proportional to exp(-sum s_i) nabla_beta(s).  A
    quaternion matrix's 2n complex eigenvalues come in equal pairs, and one
    of each pair is kept.
    """
    gen = np.random.default_rng(seed)
    out = []
    for start in range(0, size, chunk):
        g = _gaussian_matrices(beta, n, min(chunk, size - start), gen)
        gt = g.conj().swapaxes(-1, -2)
        ev = np.linalg.eigvalsh((g + gt) / 2.0 if family == "H" else g @ gt)
        out.append(ev[:, ::2] if beta == 4.0 else ev)
    return np.concatenate(out)


@pytest.fixture
def dense_spectra():
    return _dense_spectra


def _beta_law(a: float, b: float) -> MeasureRep:
    """The Beta(a, b) law on [0, 1] as an analytic measure."""
    return MeasureRep(kind="analytic", pdf=stats.beta(a, b).pdf,
                      support=(0.0, 1.0), name=f"beta({a},{b})")


# session-scoped, so that hypothesis tests may take it too
@pytest.fixture(scope="session")
def beta_law():
    return _beta_law


def _chain_ball(n: int, p: float, weight, law, rng, size: int):
    """The weighted radial mixture with X from the chain at any p, p = 2
    included, where matrixball.sample_spectra draws the spectrum exactly:
    the chain runs on the first of rng.split(2) and W on the second, as in
    sample_spectra, so the two agree wherever both run the chain."""
    r_x, r_w = rng.split(2)
    res = mcmc_sample(n, p, weight, r_x, size)
    return _finish_sample(res.samples.copy(), p, law, r_w, chain=res,
                          degree=weight.degree(n))


@pytest.fixture
def chain_ball():
    return _chain_ball
