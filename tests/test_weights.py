"""Tests for the weights: the value a kind and an exponent fix, the family
table, and the Vandermonde-type blocked pair sums against a dense triu
oracle, bit for bit."""

import dataclasses

import numpy as np
import pytest

from pradial import weights
from pradial.distributions import ParameterError
from pradial.weights import (WeightFn, family_weight, log_delta_beta,
                             log_nabla_beta)


def dense_log_delta(x, beta):
    """The whole (..., n, n) difference cube, gathered by triu_indices."""
    x = np.asarray(x, dtype=float)
    diffs = np.abs(x[..., :, None] - x[..., None, :])
    iu = np.triu_indices(x.shape[-1], k=1)
    with np.errstate(divide="ignore"):
        out = beta * np.sum(np.log(diffs[..., iu[0], iu[1]]), axis=-1)
    return out if np.ndim(out) else float(out)


def dense_log_nabla(x, beta):
    x = np.asarray(x, dtype=float)
    if beta == 2.0:
        return dense_log_delta(x, beta)
    with np.errstate(divide="ignore"):
        extra = (beta / 2.0 - 1.0) * np.sum(np.log(x), axis=-1)
    out = dense_log_delta(x, beta) + extra
    return out if np.ndim(out) else float(out)


def draws(shape, seed=0):
    return np.abs(np.random.default_rng(seed).standard_normal(shape)) + 0.01


def same(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)


class TestBlockedPairs:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.7])
    def test_rows_not_a_multiple_of_the_block(self, beta):
        # n = 9 has 36 pairs, 1820 rows a block; 5000 rows leave 1360
        x = draws((5000, 9))
        step = weights._PAIR_BLOCK // 36
        assert x.shape[0] % step and x.shape[0] > 2 * step
        assert same(log_delta_beta(x, beta), dense_log_delta(x, beta))
        assert same(log_nabla_beta(x, beta), dense_log_nabla(x, beta))

    def test_more_pairs_than_one_block(self):
        # 2080 pairs at n = 65: 31 rows a block
        x = draws((100, 65), seed=1)
        assert same(log_delta_beta(x, 1.5), dense_log_delta(x, 1.5))

    def test_vector_returns_float(self):
        x = draws(7, seed=2)
        for f, oracle in ((log_delta_beta, dense_log_delta),
                          (log_nabla_beta, dense_log_nabla)):
            got = f(x, 3.0)
            assert type(got) is float
            assert got == oracle(x, 3.0)

    def test_three_d_batch(self):
        x = draws((3, 41, 6), seed=3)
        assert same(log_delta_beta(x, 2.0), dense_log_delta(x, 2.0))
        assert same(log_nabla_beta(x, 1.0), dense_log_nabla(x, 1.0))

    @pytest.mark.parametrize("n", [1, 2])
    def test_few_coordinates(self, n):
        x = draws((13, n), seed=4)
        for beta in (1.0, 2.0, 4.0):
            assert same(log_delta_beta(x, beta), dense_log_delta(x, beta))
            assert same(log_nabla_beta(x, beta), dense_log_nabla(x, beta))
        assert same(log_delta_beta(x[0], 2.0), dense_log_delta(x[0], 2.0))

    def test_ties_and_zeros(self):
        x = draws((6, 4), seed=5)
        x[1, 3] = x[1, 0]   # a tie: -inf
        x[2, 2] = 0.0       # a zero coordinate: -inf / +inf in nabla
        for beta in (1.0, 2.0, 3.0):
            got = log_nabla_beta(x, beta)
            assert same(log_delta_beta(x, beta), dense_log_delta(x, beta))
            assert same(got, dense_log_nabla(x, beta))
        assert log_delta_beta(x, 2.0)[1] == -np.inf
        assert log_nabla_beta(x, 1.0)[2] == np.inf
        assert log_nabla_beta(x, 3.0)[2] == -np.inf

    def test_inputs_are_not_modified(self):
        x = draws((3000, 5), seed=6)
        x[0, 1] = x[0, 2]
        keep = x.copy()
        log_delta_beta(x, 2.0)
        log_nabla_beta(x, 1.0)
        assert np.array_equal(x, keep)


class TestWeightFn:
    # the degrees and names each weight had while it carried them as
    # lambdas and strings: 0, beta n (n-1)/2, (beta/2) n^2 - n and beta n
    # at beta = 2.5, n = 1..5
    @pytest.mark.parametrize("kind, degrees, name", [
        ("one", [0.0] * 5, "constant-one"),
        ("delta", [0.0, 2.5, 7.5, 15.0, 25.0], "delta-beta(2.5)"),
        ("nabla", [0.25, 3.0, 8.25, 16.0, 26.25], "nabla-beta(2.5)"),
        ("power", [2.5, 5.0, 7.5, 10.0, 12.5], "|x|^2.5"),
    ])
    def test_degree_and_name(self, kind, degrees, name):
        w = WeightFn(kind, 2.5)
        assert [w.degree(n) for n in range(1, 6)] == degrees
        assert w.name == name
        assert w.orthant_only == (kind == "nabla")

    def test_two_fields(self):
        names = [f.name for f in dataclasses.fields(WeightFn)]
        assert names == ["kind", "beta"]

    @pytest.mark.parametrize("kind, beta", [
        ("frob", 2.0), ("delta", 0.0), ("delta", -1.0), ("nabla", 0.0),
        ("nabla", -2.0), ("power", -1.0), ("power", -1.5)])
    def test_invalid_weights(self, kind, beta):
        with pytest.raises(ParameterError):
            WeightFn(kind, beta)

    def test_power_above_minus_one(self):
        # |x|^m is integrable against e^{-|x|^p} at 0 for every m > -1
        assert WeightFn("power", -0.5).degree(3) == -1.5

    def test_log_eval_of_each_kind(self):
        x = draws((4, 3), seed=7)
        assert same(WeightFn("one").log_eval(x), np.zeros(4))
        assert same(WeightFn("delta", 1.5).log_eval(x), log_delta_beta(x, 1.5))
        assert same(WeightFn("nabla", 1.5).log_eval(x), log_nabla_beta(x, 1.5))
        assert np.allclose(WeightFn("power", 1.5).log_eval(x),
                           np.log(np.prod(x ** 1.5, axis=1)), rtol=1e-13)


class TestFamilies:
    # the ell_p ball carries the constant weight at p, the H eigenvalues
    # Delta_beta at p, and the M squared singular values nabla_beta at p/2
    @pytest.mark.parametrize("family, weight, q", [
        ("euclid", WeightFn("one", 2.0), 3.0),
        ("H", WeightFn("delta", 2.0), 3.0),
        ("M", WeightFn("nabla", 2.0), 1.5)])
    def test_weight_and_exponent(self, family, weight, q):
        assert family_weight(family, 3.0, 2.0) == (weight, q)

    @pytest.mark.parametrize("family", ["H", "M"])
    @pytest.mark.parametrize("beta", [0.5, 3.0, -1.0])
    def test_matrix_beta_rule(self, family, beta):
        with pytest.raises(ParameterError, match="1, 2, or 4"):
            family_weight(family, 2.0, beta)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            family_weight("h", 2.0, 2.0)
