"""The matmul-form Gram, the merge-free MMD, its kept reference term and the row-sum
particle gradient against the direct forms they replace, written out here as oracles."""

import dataclasses

import numpy as np
import pytest

from smoothgan import trainer
from smoothgan.cli import main
from smoothgan.discriminators import grad_phi_mmd
from smoothgan.divergences import KernelSpec, mmd_sq
from smoothgan.measures import DiscreteMeasure, diff, make_discrete, random_measure, sample_target
from smoothgan.trainer import mmd_particle_grad

KERNELS = (KernelSpec.critical(), KernelSpec(sigma_sq=0.3))


def gram_ref(k: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K[i, j] from the (n, m, d) difference tensor."""
    sq = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * k.sigma_sq))


def embedding_gram(xi: DiscreteMeasure, k: KernelSpec) -> float:
    """Double Gram sum of a signed measure: integral of K d(xi x xi)."""
    return float(xi.weights @ gram_ref(k, xi.points, xi.points) @ xi.weights)


def kernel_grad_sum_ref(k: KernelSpec, x: np.ndarray, y: np.ndarray, w) -> np.ndarray:
    """sum_j w_j grad_x K(x_i, y_j) from the difference tensor and gram_ref, which
    share no code with KernelSpec's Gram."""
    d = x[:, None, :] - y[None, :, :]
    return -np.einsum("nmd,nm,m->nd", d, gram_ref(k, x, y), w) / k.sigma_sq


def particle_grad_ref(theta: np.ndarray, mu0: DiscreteMeasure, k: KernelSpec) -> np.ndarray:
    """Gradient of (1/2) MMD^2 as the sum of per-pair kernel gradients."""
    n = theta.shape[0]
    self_grad = np.einsum("nmd->nd", k.grad_x(theta, theta)) / n
    target_grad = np.einsum("nmd,m->nd", k.grad_x(theta, mu0.points), mu0.weights)
    return (self_grad - target_grad) / n


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (8, 1), (8, 8), (17, 5), (64, 64),
                                 (300, 300)])
def test_gram_matches_difference_form(k, d, n, m):
    rng = np.random.default_rng(100 * d + n + m)
    x, y = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (m, d))
    assert np.abs(k.gram(x, y) - gram_ref(k, x, y)).max() <= 1e-13
    assert np.abs(k.gram(x, x) - gram_ref(k, x, x)).max() <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_self_gram_takes_the_cross_gram_path(d):
    # numpy sends x @ x.T to SYRK, which sums in its own order at d >= 4; the
    # Gram must go through the one GEMM path whether or not y is x
    x = np.random.default_rng(d).uniform(-1, 1, (257, d))
    for k in KERNELS:
        assert np.array_equal(k.gram(x, x), k.gram(x, x.copy()))


@pytest.mark.parametrize("k", KERNELS)
def test_mmd_matches_merged_form(k):
    rng = np.random.default_rng(3)
    for d in (1, 2):
        target = make_discrete(rng.uniform(-1, 1, (12, d)), rng.uniform(0.1, 1.0, 12))
        theta = rng.uniform(-1, 1, (20, d))
        theta[5] = theta[2]                  # duplicate particles
        theta[6] = theta[2]
        theta[:4] = target.points[:4]        # particles exactly on target atoms
        mu = DiscreteMeasure(theta, np.full(20, 1.0 / 20))
        merged = max(embedding_gram(diff(mu, target), k), 0.0)
        assert mmd_sq(mu, target, k) == pytest.approx(merged, abs=1e-14)
        assert mmd_sq(target, mu, k) == pytest.approx(merged, abs=1e-14)


def mmd_sq_uncached(mu: DiscreteMeasure, nu: DiscreteMeasure, k: KernelSpec) -> float:
    """mmd_sq with K(y, y) formed on every call, as before the reference term was kept."""
    x, y, wx, wy = mu.points, nu.points, mu.weights, nu.weights
    val = (wx @ (k.gram(x, np.vstack([x, y])) @ np.concatenate([wx, -2.0 * wy]))
           + wy @ k.gram(y, y) @ wy)
    return max(float(val), 0.0)


def _gram_calls(monkeypatch) -> list:
    calls = []
    gram = KernelSpec.gram
    monkeypatch.setattr(KernelSpec, "gram",
                        lambda self, x, y: calls.append((len(x), len(y))) or gram(self, x, y))
    return calls


def test_kept_reference_term_is_per_kernel():
    # one target under two kernels in turn: each value is the uncached one, bit for bit
    rng = np.random.default_rng(5)
    target = random_measure(rng, 2)
    for _ in range(4):
        mu = random_measure(rng, 2)
        for k in (KernelSpec.critical(), KernelSpec(sigma_sq=0.5)):
            assert repr(mmd_sq(mu, target, k)) == repr(mmd_sq_uncached(mu, target, k))


def test_kept_reference_term_starts_empty_on_a_new_measure(monkeypatch):
    calls = _gram_calls(monkeypatch)
    target = sample_target("ring", 8, 3)
    mu = DiscreteMeasure(np.zeros((3, 2)), np.full(3, 1.0 / 3))
    k = KernelSpec.critical()
    value = mmd_sq(mu, target, k)
    assert calls == [(3, 11), (8, 8)]
    calls.clear()
    assert mmd_sq(mu, target, k) == value and calls == [(3, 11)]
    for fresh in (DiscreteMeasure(target.points, target.weights), dataclasses.replace(target)):
        assert fresh == target
        calls.clear()
        assert mmd_sq(mu, fresh, k) == value and calls == [(3, 11), (8, 8)]


def test_a_measure_on_views_does_not_follow_their_base():
    # the kept term stays right only while the atoms cannot change: a view is copied
    base, w = np.zeros((2, 2)), np.array([0.5, 0.5])
    nu = DiscreteMeasure(base[:], w[:])
    mu = DiscreteMeasure(np.ones((1, 2)), np.ones(1))
    k = KernelSpec.critical()
    before = mmd_sq(mu, nu, k)
    base[0], w[0] = 0.7, 0.2
    assert np.array_equal(nu.points, np.zeros((2, 2))) and np.array_equal(nu.weights, [0.5, 0.5])
    assert mmd_sq(mu, nu, k) == mmd_sq_uncached(mu, nu, k) == before


@pytest.mark.parametrize("n,lr_ratio", [(1, 1.0), (8, 1.0), (64, 1.0), (1, 1e4), (8, 1e4),
                                        (64, 1e4), (8, 1e300)])
def test_particle_traces_match_the_uncached_step(tmp_path, monkeypatch, n, lr_ratio):
    # train particles' CSV and JSON outputs, with and without the kept target term
    def run(name, fmt):
        out = tmp_path / name
        assert main(["train", "particles", "--target", "gaussian_mixture", "--n", str(n),
                     "--steps", "150", "--seed", "11", "--lr-ratio", repr(lr_ratio),
                     "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    outputs = [run(f"new.{fmt}", fmt) for fmt in ("csv", "json")]
    with monkeypatch.context() as m:
        m.setattr(trainer, "mmd_sq", mmd_sq_uncached)
        assert outputs == [run(f"old.{fmt}", fmt) for fmt in ("csv", "json")]
    assert (b'"diverged": true' in outputs[1]) == (lr_ratio == 1e300)


def test_mmd_particles_on_target_is_zero():
    target = sample_target("ring", 16, 4)
    mu = DiscreteMeasure(target.points.copy(), np.full(16, 1.0 / 16))
    assert mmd_sq(mu, target, KernelSpec.critical()) <= 1e-15


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("n", [1, 16, 64, 256])
def test_particle_grad_matches_pairwise_form(k, n):
    rng = np.random.default_rng(n)
    target = sample_target("gaussian_mixture", 48, n)
    theta = rng.uniform(-1, 1, (n, 2))
    if n > 4:
        theta[1] = theta[0]                  # a duplicate particle
        theta[2] = target.points[0]          # one sitting on a target atom
    grad = mmd_particle_grad(theta, target, k)
    assert np.abs(grad - particle_grad_ref(theta, target, k)).max() <= 1e-13


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_witness_grad_matches_pairwise_form(k, d):
    rng = np.random.default_rng(7 + d)
    mu = make_discrete(rng.uniform(-1, 1, (9, d)), rng.uniform(0.1, 1.0, 9))
    mu0 = make_discrete(rng.uniform(-1, 1, (5, d)), rng.uniform(0.1, 1.0, 5))
    x = np.vstack([rng.uniform(-1, 1, (216, d)), mu.points, mu0.points])
    ref = (np.einsum("nmd,m->nd", k.grad_x(x, mu.points), mu.weights)
           - np.einsum("nmd,m->nd", k.grad_x(x, mu0.points), mu0.weights))
    assert np.abs(grad_phi_mmd(mu, mu0, k, x) - ref).max() <= 1e-13


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("d", [1, 2])
def test_gram_floor_zeroes_underflowing_entries(k, d):
    # exponents from -650 to -800 around the floor -700; with x at the origin and y on
    # an axis, the matmul-form exponent is -y^2 / (2 sigma_sq), rounded as written here
    y = np.zeros((301, d))
    y[:, 0] = np.sqrt(-2.0 * k.sigma_sq * np.linspace(-650.0, -800.0, 301))
    x = np.zeros((2, d))
    for a, b in ((x, y), (y, x)):
        expo = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1) * (-1.0 / (2.0 * k.sigma_sq))
        low = expo < -700.0
        assert 0 < low.sum() < low.size
        g = k.gram(a, b)
        assert np.all(g[low] == 0.0)
        assert np.array_equal(g[~low], np.exp(expo[~low]))
        assert not np.any((g != 0.0) & (np.abs(g) < np.finfo(float).tiny))    # no subnormal
        assert np.abs(g - gram_ref(k, a, b)).max() <= 1e-13


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_escaped_particle_grads_match_difference_form(k, d):
    # ten escaped particles 30-1000 apart in every coordinate, so every kernel value
    # between them sits far below the floor, one of them duplicated; near the target,
    # particles on target atoms, one of those duplicated, and free ones
    rng = np.random.default_rng(40 + d)
    target = make_discrete(rng.uniform(-1, 1, (12, d)), rng.uniform(0.1, 1.0, 12))
    theta = rng.uniform(-1, 1, (24, d))
    theta[:10] = np.cumsum(rng.uniform(30, 1000, (10, d)), axis=0) * rng.choice([-1, 1], d)
    theta[10] = theta[0]
    theta[11:14] = target.points[:3]
    theta[14] = theta[11]
    n = len(theta)
    ref = (kernel_grad_sum_ref(k, theta, theta, np.full(n, 1.0 / n))
           - kernel_grad_sum_ref(k, theta, target.points, target.weights)) / n
    assert np.abs(mmd_particle_grad(theta, target, k) - ref).max() <= 1e-13
    mu = DiscreteMeasure(theta, np.full(n, 1.0 / n))
    x = np.vstack([theta, rng.uniform(-1, 1, (20, d))])
    ref = (kernel_grad_sum_ref(k, x, theta, mu.weights)
           - kernel_grad_sum_ref(k, x, target.points, target.weights))
    assert np.abs(grad_phi_mmd(mu, target, k, x) - ref).max() <= 1e-13
