"""Homogeneous weight functions used to tilt the generalized-Gaussian base
density.

Each weight f is homogeneous of some degree m, i.e. f(t*x) = t^m f(x) for
t > 0.  Evaluation happens in log space; points where f vanishes return
-inf, which downstream samplers treat as forbidden states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import ParameterError

# integer codes; the chain kernel runs the two repulsion weights (1 and 2)
KIND_CONSTANT = 0
KIND_DELTA_BETA = 1
KIND_NABLA_BETA = 2
KIND_CUSTOM = 3

_PAIR_BLOCK = 1 << 16  # (row, pair) cells per row block of log_delta_beta


def log_delta_beta(x: np.ndarray, beta: float) -> float:
    """log of prod_{i<j} |x_i - x_j|^beta over the last axis; -inf on ties,
    and 0 for every row when there are no pairs (n < 2).

    The pairs are taken directly as x_i - x_j in triu_indices order, in row
    blocks of at most _PAIR_BLOCK pair cells, so the work space stays small
    however many rows x holds.  x is not modified.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    i, j = np.triu_indices(n, k=1)
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    out = np.empty(rows.shape[0])
    step = max(1, _PAIR_BLOCK // max(i.size, 1))
    with np.errstate(divide="ignore"):
        for lo in range(0, rows.shape[0], step):
            blk = rows[lo:lo + step]
            d = blk[:, i]
            d -= blk[:, j]
            np.log(np.abs(d, out=d), out=d)
            np.sum(d, axis=-1, out=out[lo:lo + step])
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


@dataclass
class WeightFn:
    """A homogeneous weight with its degree and log-evaluator.

    kind is one of the KIND_* codes; degree(n) returns the homogeneity
    degree m as a function of the ambient dimension.
    """

    kind: int
    beta: float = 0.0
    degree_fn: Callable[[int], float] = field(default=lambda n: 0.0)
    log_eval: Callable[[np.ndarray], float] = field(default=lambda x: 0.0)
    orthant_only: bool = False
    name: str = "constant-one"

    def degree(self, n: int) -> float:
        return self.degree_fn(n)

    @classmethod
    def constant_one(cls) -> "WeightFn":
        return cls(kind=KIND_CONSTANT, degree_fn=lambda n: 0.0,
                   log_eval=lambda x: 0.0 * np.sum(np.asarray(x), axis=-1),
                   name="constant-one")

    @classmethod
    def delta_beta(cls, beta: float) -> "WeightFn":
        if beta <= 0:
            raise ParameterError(f"beta must be positive, got {beta}")
        return cls(kind=KIND_DELTA_BETA, beta=beta,
                   degree_fn=lambda n: beta * n * (n - 1) / 2.0,
                   log_eval=lambda x: log_delta_beta(x, beta),
                   name=f"delta-beta({beta})")

    @classmethod
    def nabla_beta(cls, beta: float) -> "WeightFn":
        if beta <= 0:
            raise ParameterError(f"beta must be positive, got {beta}")
        return cls(kind=KIND_NABLA_BETA, beta=beta,
                   degree_fn=lambda n: (beta / 2.0) * n * n - n,
                   log_eval=lambda x: log_nabla_beta(x, beta),
                   orthant_only=True,
                   name=f"nabla-beta({beta})")

    @classmethod
    def custom(cls, log_eval: Callable[[np.ndarray], float], degree: float,
               name: str = "custom") -> "WeightFn":
        return cls(kind=KIND_CUSTOM, degree_fn=lambda n: degree,
                   log_eval=log_eval, name=name)
