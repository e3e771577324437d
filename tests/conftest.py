"""Closed forms that more than one test module checks against."""

import math

import numpy as np
import pytest
from scipy.special import gammaln


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
