"""Homogeneous weight functions used to tilt the generalized-Gaussian base
density.

A weight is its kind and an exponent beta (WeightFn).  Each is
homogeneous of some degree m, i.e. f(t*x) = t^m f(x) for t > 0:

    "one"    the constant 1, degree 0;
    "delta"  Delta_beta(x) = prod_{i<j} |x_i - x_j|^beta, degree
             beta n (n - 1) / 2;
    "nabla"  nabla_beta(x) = Delta_beta(x) prod_i x_i^(beta/2 - 1) on the
             positive orthant, degree (beta/2) n^2 - n;
    "power"  prod_i |x_i|^beta, degree beta n, for beta > -1: at
             beta <= -1 the tilted density is not integrable at 0.

FAMILIES pairs each family with its weight and exponent: the ell_p ball
carries the constant weight at p, the eigenvalues of the self-adjoint (H)
matrix ball Delta_beta at p, and the squared singular values of the
non-self-adjoint (M) matrix ball nabla_beta at p/2.  family_weight reads it
for the matrix samplers and the rate functions alike.

Evaluation happens in log space; points where f vanishes return -inf,
which downstream samplers treat as forbidden states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ParameterError
from .rng import _row_blocks

KINDS = ("one", "delta", "nabla", "power")

# family -> (its weight's kind, d): the family's law has the exponent p / d
FAMILIES = {"euclid": ("one", 1.0), "H": ("delta", 1.0), "M": ("nabla", 2.0)}


def log_delta_beta(x: np.ndarray, beta: float) -> float:
    """log of prod_{i<j} |x_i - x_j|^beta over the last axis; -inf on ties,
    and 0 for every row when there are no pairs (n < 2).

    The pairs are taken directly as x_i - x_j in triu_indices order, in the
    row blocks of rng._row_blocks, pairs its cells, so the work space stays
    small however many rows x holds.  x is not modified.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    i, j = np.triu_indices(n, k=1)
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    out = np.empty(rows.shape[0])
    with np.errstate(divide="ignore"):
        for b in _row_blocks(rows.shape[0], i.size):
            d = rows[b, i]
            d -= rows[b, j]
            np.log(np.abs(d, out=d), out=d)
            np.sum(d, axis=-1, out=out[b])
    out *= beta
    out = out.reshape(x.shape[:-1])
    return out if out.ndim else float(out)


def log_nabla_beta(x: np.ndarray, beta: float) -> float:
    """log of prod_{i<j} |x_i - x_j|^beta * prod_i x_i^(beta/2 - 1).

    Defined on the closed positive orthant; -inf on ties, and on zero
    coordinates whenever beta != 2.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ParameterError("nabla_beta lives on the positive orthant")
    base = log_delta_beta(x, beta)
    expo = beta / 2.0 - 1.0
    if expo == 0.0:
        return base
    with np.errstate(divide="ignore"):
        extra = expo * np.sum(np.log(x), axis=-1)
    out = base + extra
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class WeightFn:
    """A homogeneous weight: its kind, one of KINDS, and its exponent beta
    (the m > -1 of |x|^m for "power", unused by "one")."""

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown weight kind {self.kind!r}")
        if not np.isfinite(self.beta):
            raise ParameterError(f"beta must be finite, got {self.beta}")
        if self.kind in ("delta", "nabla") and self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.kind == "power" and self.beta <= -1:
            raise ParameterError(
                f"the power weight needs m > -1, got {self.beta}")

    @property
    def orthant_only(self) -> bool:
        return self.kind == "nabla"

    @property
    def name(self) -> str:
        if self.kind == "one":
            return "constant-one"
        label = {"delta": "delta-beta({})", "nabla": "nabla-beta({})",
                 "power": "|x|^{}"}[self.kind]
        return label.format(self.beta)

    def degree(self, n: int) -> float:
        """The homogeneity degree m in dimension n."""
        beta = self.beta
        if self.kind == "delta":
            return beta * n * (n - 1) / 2.0
        if self.kind == "nabla":
            return (beta / 2.0) * n * n - n
        return beta * n if self.kind == "power" else 0.0

    def log_eval(self, x: np.ndarray):
        """log f over the last axis of x."""
        if self.kind == "delta":
            return log_delta_beta(x, self.beta)
        if self.kind == "nabla":
            return log_nabla_beta(x, self.beta)
        if self.kind == "power":
            return self.beta * np.sum(np.log(np.abs(x)), axis=-1)
        return np.zeros(np.shape(x)[:-1])


def family_weight(family: str, p: float,
                  beta: float) -> tuple[WeightFn, float]:
    """The weight and exponent of a family's law, from FAMILIES.  The
    matrix families, H and M, take beta in {1, 2, 4}: real symmetric,
    complex Hermitian and quaternionic self-dual matrices."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    kind, d = FAMILIES[family]
    if family != "euclid" and beta not in (1.0, 2.0, 4.0):
        raise ParameterError(f"beta must be 1, 2, or 4, got {beta}")
    return WeightFn(kind, beta), p / d
