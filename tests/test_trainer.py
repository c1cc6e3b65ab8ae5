"""Particle descent, the stationarity bound, and the regularized loop."""

import math
import warnings

import numpy as np
import pytest

from smoothgan.divergences import KernelSpec, mmd_sq
from smoothgan.errors import ConfigError, DegenerateConstants, MalformedTrace
from smoothgan.measures import DiscreteMeasure, make_discrete, random_measure, sample_target
from smoothgan.nnsmooth import random_mlp, spectral_normalize
from smoothgan.trainer import (BETA1_MMD_BOUND, BETA2_MMD_BOUND, GanLoopConfig,
                               ParticleGenerator, TrainConfig, TrainTrace, _disc_grad,
                               _disc_objective, check_descent_inequality,
                               check_stationarity_bound, mmd_particle_grad, theoretical_lr,
                               trace_from_csv, trace_to_csv, train_gan2d, train_particles)

KC = KernelSpec.critical()


def test_particle_generator_constants():
    gen = ParticleGenerator(np.zeros((64, 2)))
    assert gen.lipschitz_a() == pytest.approx(1.0 / 8.0)
    m = gen.measure()
    assert np.allclose(m.weights, 1.0 / 64.0)


def test_grad_zero_at_target():
    target = sample_target("ring", 8, 2)
    gen = ParticleGenerator(target.points.copy())
    grad = mmd_particle_grad(gen, target, KC)
    assert np.abs(grad).max() <= 1e-14


def test_grad_single_particle_closed_form():
    gen = ParticleGenerator(np.array([[1.0]]))
    grad = mmd_particle_grad(gen, make_discrete([0.0], [1.0]), KC)
    assert grad[0, 0] == pytest.approx(2 * math.pi * math.exp(-math.pi), rel=1e-13)


def test_grad_finite_differences():
    for t in range(8):
        rng = np.random.default_rng(700 + t)
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        theta = rng.uniform(-1, 1, size=(n, d))
        target = sample_target("gaussian_mixture", 6, t, dim=d)
        grad = mmd_particle_grad(ParticleGenerator(theta), target, KC)
        w = np.full(n, 1.0 / n)
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(n):
            for j in range(d):
                e = np.zeros_like(theta)
                e[i, j] = h
                fd[i, j] = (0.5 * mmd_sq(DiscreteMeasure(theta + e, w.copy()), target, KC)
                            - 0.5 * mmd_sq(DiscreteMeasure(theta - e, w.copy()), target, KC)
                            ) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-6


def test_theoretical_lr():
    # seven-layer discriminator with unit output scale, 64 particles
    assert theoretical_lr(1 / 8, 0.0, 1.0, 7.0, 2 * math.pi) == pytest.approx(
        64.0 / (7.0 + 2 * math.pi), rel=1e-15)
    assert theoretical_lr(1 / 8, 0.0, 1.0, BETA1_MMD_BOUND, BETA2_MMD_BOUND) == pytest.approx(
        64.0 / (6 * math.pi), rel=1e-15)
    with pytest.raises(DegenerateConstants):
        theoretical_lr(0.0, 0.0, 1.0, 1.0, 1.0)


def test_lr_scale_structure():
    # doubling the particle count halves A^2 and doubles the step
    lr_n = theoretical_lr(1 / math.sqrt(32), 0.0, 1.0, 4.0, 2.0)
    lr_2n = theoretical_lr(1 / math.sqrt(64), 0.0, 1.0, 4.0, 2.0)
    assert lr_2n == pytest.approx(2 * lr_n, rel=1e-15)


def test_train_at_optimum_is_stationary():
    target = sample_target("ring", 8, 3)
    cfg = TrainConfig(target=target, kernel=KC, n_particles=8, n_steps=50, seed=1,
                      init=target.points.copy())
    trace = train_particles(cfg)
    assert np.abs(trace.grad_norm).max() <= 1e-13
    assert np.abs(trace.loss).max() <= 1e-13


def test_train_deterministic():
    cfg = TrainConfig(target=sample_target("ring", 8, 3), kernel=KC, n_particles=8,
                      n_steps=100, seed=42)
    a, b = train_particles(cfg), train_particles(cfg)
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.grad_norm, b.grad_norm)


def test_train_descent_and_stationarity():
    n = 16
    cfg = TrainConfig(target=sample_target("gaussian_mixture", n, 5), kernel=KC,
                      n_particles=n, n_steps=1500, seed=9)
    trace = train_particles(cfg)
    big_l = (BETA1_MMD_BOUND + BETA2_MMD_BOUND) / n
    assert check_descent_inequality(trace, big_l)
    assert check_stationarity_bound(trace, big_l, float(trace.loss[0]))
    assert trace.above_running_min_fraction() == 0.0
    assert not trace.diverged


def test_train_instability_detector():
    n = 16
    cfg = TrainConfig(target=sample_target("ring", n, 5), kernel=KC, n_particles=n,
                      n_steps=500, seed=9, lr_ratio=1e4)
    trace = train_particles(cfg)
    assert trace.diverged or trace.above_running_min_fraction() >= 0.10


def test_stationarity_bound_synthetic():
    zeros = TrainTrace(np.zeros(10), np.zeros(10), np.ones(10))
    assert check_stationarity_bound(zeros, 1.0, 0.0)
    flat = TrainTrace(np.full(10, 1e-4), np.ones(10), np.ones(10))
    assert not check_stationarity_bound(flat, 1.0, 1e-4)


def test_trace_validation_and_csv():
    with pytest.raises(MalformedTrace):
        TrainTrace(np.zeros(3), np.zeros(2), np.zeros(3))
    trace = TrainTrace(np.array([0.5, 0.4]), np.array([0.1, 0.05]), np.array([1.0, 1.0]),
                       diverged=True)
    back = trace_from_csv(trace_to_csv(trace))
    assert np.allclose(back.loss, trace.loss)
    assert back.diverged
    with pytest.raises(MalformedTrace):
        trace_from_csv("nope\n")
    with pytest.raises(MalformedTrace):
        trace_from_csv("step,loss,grad_norm,step_size,flags\n")


def test_penalty_coefficient_halves_at_critical_beta2():
    assert math.pi / BETA2_MMD_BOUND == pytest.approx(0.5, abs=1e-15)


def _gan_cfg(**kw):
    target = sample_target("ring", 8, 21)
    base = dict(generator_init=target.points.copy(), target=target, depth=2, width=6,
                final_scale=0.05, beta2=BETA2_MMD_BOUND, n_steps=6, seed=3,
                lr_disc=0.05, lr_gen=0.5)
    base.update(kw)
    return GanLoopConfig(**base)


def test_gan2d_deterministic():
    a = train_gan2d(_gan_cfg())
    b = train_gan2d(_gan_cfg())
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.grad_norm, b.grad_norm)
    assert len(a) == 6


def _disc_norms(cfg: GanLoopConfig) -> list[float]:
    """Largest operator norm of the discriminator after every update."""
    norms: list[float] = []
    train_gan2d(cfg, disc_probe=lambda net: norms.append(
        max(float(np.linalg.norm(w, 2)) for w, _ in net.layers)))
    return norms


def test_gan2d_disc_norms_bounded():
    norms = _disc_norms(_gan_cfg(n_steps=4))
    assert len(norms) == 4 * 2            # two discriminator steps per outer step
    assert max(norms) <= 1.0 + 1e-6


def test_gan2d_wide_deep_norms_bounded():
    # 3297 parameters: the exact loop has no size cap
    norms = _disc_norms(_gan_cfg(width=32, depth=5, n_steps=3))
    assert len(norms) == 3 * 2
    assert max(norms) <= 1.0 + 1e-6


def _disc_param_grad(net, theta, target, interp, penalty_coef, fd_step=1e-4):
    """Central finite differences over the flattened parameters (the oracle)."""
    flat = net.flatten_params()
    grad = np.empty_like(flat)
    for i in range(len(flat)):
        flat[i] += fd_step
        up = _disc_objective(net.with_params(flat), theta, target, interp, penalty_coef)
        flat[i] -= 2.0 * fd_step
        dn = _disc_objective(net.with_params(flat), theta, target, interp, penalty_coef)
        flat[i] += fd_step
        grad[i] = (up - dn) / (2.0 * fd_step)
    return grad


def test_disc_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    for t in range(20):
        d = int(rng.integers(1, 3))
        net = spectral_normalize(random_mlp(d, int(rng.integers(2, 17)), int(rng.integers(1, 6)),
                                            "elu", seed=t, final_scale=rng.uniform(0.05, 1.0)))
        theta = rng.uniform(-1, 1, size=(6, d))
        target = random_measure(rng, d)
        interp = rng.uniform(-1, 1, size=(6, d))
        coef = math.pi / BETA2_MMD_BOUND
        fd = _disc_param_grad(net, theta, target, interp, coef)
        assert np.abs(_disc_grad(net, theta, target, interp, coef) - fd).max() < 1e-6


def test_gan2d_config_validation():
    with pytest.raises(ConfigError):
        _gan_cfg(disc_steps_per_gen=0)


def test_gan2d_seven_layer_default_step():
    # the default generator step for a k-layer discriminator with output
    # scale alpha is N / (k alpha + beta2); for k = 7 this is the headline
    # configuration N / (7 alpha + 2 pi)
    target = sample_target("ring", 8, 33)
    cfg = GanLoopConfig(generator_init=target.points.copy(), target=target,
                        depth=7, width=6, final_scale=0.05, beta2=BETA2_MMD_BOUND,
                        n_steps=3, seed=5, lr_disc=0.05)
    trace = train_gan2d(cfg)
    expect = 8.0 / (7 * 0.05 + 2 * math.pi)
    assert trace.step_size[0] == pytest.approx(expect, rel=1e-12)
    assert len(trace) == 3 and not trace.diverged


def test_gan2d_config_defaults():
    target = sample_target("ring", 8, 21)
    cfg = GanLoopConfig(generator_init=target.points.copy(), target=target)
    assert (cfg.depth, cfg.width, cfg.final_scale, cfg.beta2, cfg.n_steps, cfg.seed) == (
        3, 8, 0.05, BETA2_MMD_BOUND, 100, 0)


@pytest.mark.parametrize("field, value", [
    ("depth", 0), ("width", 2.5), ("n_steps", True), ("n_steps", "3"), ("seed", -1),
    ("disc_steps_per_gen", -1), ("beta2", 0.0), ("lr_disc", math.nan), ("final_scale", math.inf),
    ("lr_gen", -0.5), ("lr_gen", "0.5"), ("interpolation", 1), ("interpolation", "no"),
])
def test_gan2d_config_rejects_bad_field(field, value):
    with pytest.raises(ConfigError, match=field):
        _gan_cfg(**{field: value})


def test_gan2d_non_finite_disc_params_diverge():
    # a 1e308 output scale overflows the first discriminator update, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = train_gan2d(_gan_cfg(final_scale=1e308, n_steps=3))
    assert trace.diverged and len(trace) == 1
