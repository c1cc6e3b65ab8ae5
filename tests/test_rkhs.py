"""RKHS norms: Gram form, derivative series, penalty surrogate."""

import math

import numpy as np
import pytest

from smoothgan.divergences import KernelSpec, mmd_sq
from smoothgan.errors import (LengthMismatch, OrderTooLarge, PreconditionViolated,
                             ProblemTooLarge, QuadratureDomainTooSmall)
from smoothgan.measures import diff, make_discrete, make_signed, random_measure
from smoothgan.rkhs import EmbeddingFn, gp_penalty, truncated_series_norm

KC = KernelSpec.critical()


def _gram_norm_sq(xi) -> float:
    """The Gram-form RKHS norm of the expansion with a signed measure's atoms and weights."""
    return EmbeddingFn(xi.points[:, 0], xi.weights, KC).gram_norm_sq()


def test_embedding_norm_reproducing():
    # ||K(x, .)||^2 = K(x, x) = 1 for the kernel of peak 1
    assert _gram_norm_sq(make_signed([0.0], [1.0])) == pytest.approx(1.0, abs=1e-15)


def test_embedding_norm_zero():
    assert EmbeddingFn(np.zeros(0), np.zeros(0), KC).gram_norm_sq() == 0.0


def test_embedding_norm_matches_mmd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu, nu = random_measure(rng, 1), random_measure(rng, 1)
        assert _gram_norm_sq(diff(mu, nu)) == pytest.approx(mmd_sq(mu, nu, KC), abs=5e-16)
    assert _gram_norm_sq(diff(make_discrete([0.0], [1.0]), make_discrete([1.0], [1.0]))
                         ) == pytest.approx(2 - 2 * math.exp(-math.pi), abs=1e-15)


def test_series_reproducing_function():
    f = EmbeddingFn(np.array([0.0]), np.array([1.0]), KC)
    sums = truncated_series_norm(f, 20, -8.0, 8.0, 1e-3)
    assert sums[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert abs(sums[20] - 1.0) <= 0.01
    assert np.all(np.diff(sums) >= -1e-15)


def test_series_zero_function():
    f = EmbeddingFn(np.array([0.0]), np.array([0.0]), KC)
    sums = truncated_series_norm(f, 10, -8.0, 8.0, 1e-3)
    assert all(s == 0.0 for s in sums)


def test_series_converges_to_gram_norm():
    f = EmbeddingFn(np.array([-0.3, 0.5]), np.array([0.7, -0.2]), KC)
    sums = truncated_series_norm(f, 25, -9.0, 9.0, 1e-3)
    gram = f.gram_norm_sq()
    assert sums[-1] == pytest.approx(gram, rel=1e-6)
    # partial sums approach from below, up to quadrature error
    assert all(s <= gram + 1e-9 for s in sums)


def test_series_errors():
    f = EmbeddingFn(np.array([0.0]), np.array([1.0]), KC)
    with pytest.raises(OrderTooLarge):
        truncated_series_norm(f, 31, -8.0, 8.0)
    with pytest.raises(QuadratureDomainTooSmall):
        truncated_series_norm(f, 5, -1.0, 1.0)
    with pytest.raises(PreconditionViolated):
        truncated_series_norm(EmbeddingFn(np.array([0.0]), np.array([1.0]), KernelSpec(1.0)),
                              5, -8.0, 8.0)


def test_embedding_validation():
    with pytest.raises(LengthMismatch):
        EmbeddingFn(np.array([0.0, 1.0]), np.array([1.0]), KC)


def test_gp_penalty_values():
    assert gp_penalty([0.0], [[0.0]]) == 0.0
    assert gp_penalty([1.0], [[0.0]]) == pytest.approx(1.0, abs=1e-15)
    assert gp_penalty([0.0], [[2.0]]) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert gp_penalty([1.0, 0.0], [[0.0], [0.0]]) == 0.5           # the mean over points


def test_gp_penalty_permutation_invariant():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(6)
    grads = rng.standard_normal((6, 2))
    base = gp_penalty(vals, grads)
    perm = rng.permutation(6)
    assert gp_penalty(vals[perm], grads[perm]) == pytest.approx(base, abs=1e-15)


def test_gp_penalty_validation():
    with pytest.raises(LengthMismatch):
        gp_penalty([1.0, 2.0], [[0.0]])
    with pytest.raises(LengthMismatch):
        gp_penalty([], np.zeros((0, 2)))


@pytest.mark.parametrize("lo, hi", [(math.nan, 9.0), (-9.0, math.inf), (-math.inf, 9.0)])
def test_series_norm_rejects_non_finite_bounds(lo, hi):
    f = EmbeddingFn(np.array([0.0]), np.array([1.0]), KernelSpec.critical())
    with pytest.raises(PreconditionViolated):
        truncated_series_norm(f, 3, lo, hi)


def test_series_norm_caps_its_grid():
    f = EmbeddingFn(np.zeros(2), np.ones(2), KernelSpec.critical())
    with pytest.raises(ProblemTooLarge):
        truncated_series_norm(f, 3, -3e3, 3e3)          # 2 x 6e6 points
