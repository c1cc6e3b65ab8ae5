"""Particle descent, the stationarity bound, and the regularized loop."""

import math
import warnings

import numpy as np
import pytest

from smoothgan import trainer
from smoothgan.discriminators import grad_phi_mmd
from smoothgan.divergences import KernelSpec, mmd_sq
from smoothgan.errors import (ConfigError, DegenerateConstants, MalformedTrace,
                              PreconditionViolated, ProblemTooLarge)
from smoothgan.measures import DiscreteMeasure, make_discrete, random_measure, sample_target
from smoothgan.nnsmooth import random_mlp, spectral_normalize
from smoothgan.trainer import (BETA1_MMD_BOUND, BETA2_MMD_BOUND, GanLoopConfig, TrainConfig,
                               TrainTrace, _disc_grad, _disc_objective, check_descent_inequality,
                               check_stationarity_bound, mmd_particle_grad, theoretical_lr,
                               trace_from_csv, trace_to_csv, train_gan2d, train_particles)

KC = KernelSpec.critical()


def test_grad_zero_at_target():
    target = sample_target("ring", 8, 2)
    grad = mmd_particle_grad(target.points.copy(), target, KC)
    assert np.abs(grad).max() <= 1e-14


def test_grad_single_particle_closed_form():
    grad = mmd_particle_grad(np.array([[1.0]]), make_discrete([0.0], [1.0]), KC)
    assert grad[0, 0] == pytest.approx(2 * math.pi * math.exp(-math.pi), rel=1e-13)


def test_grad_finite_differences():
    for t in range(8):
        rng = np.random.default_rng(700 + t)
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        theta = rng.uniform(-1, 1, size=(n, d))
        target = random_measure(rng, d)
        grad = mmd_particle_grad(theta, target, KC)
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


def test_train_config_refuses_a_non_critical_kernel():
    # the step 1/L comes from the critical kernel's beta1 and beta2 bounds
    with pytest.raises(PreconditionViolated, match="critical kernel"):
        TrainConfig(target=sample_target("ring", 8, 3), kernel=KernelSpec(sigma_sq=0.002),
                    n_particles=8, n_steps=5, seed=1)


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


def test_train_particle_escape_diverges():
    # at lr_ratio 1e8 the first move throws the particles past the escape threshold;
    # at 1e300 it throws them where the kernel's squared norms overflow
    n = 8
    for lr_ratio in (1e8, 1e300):
        cfg = TrainConfig(target=sample_target("ring", n, 5), kernel=KC, n_particles=n,
                          n_steps=50, seed=9, lr_ratio=lr_ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = train_particles(cfg)
        assert len(trace) == 2
        assert trace.diverged
        assert len(trace.step_size) == 2
        assert trace_to_csv(trace).rstrip("\n").endswith(",diverged")


@pytest.mark.parametrize("loss, bad, lr", [
    (math.nan, False, 1e-3), (math.inf, False, 1e-3), (2e6, False, 1e-3), (-2e6, False, 1e-3),
    (0.5, True, 1e-3), (0.5, False, 1e6)])
def test_descend_stop_rule(loss, bad, lr):
    # the one rule that ends a run, keeping the row: a bad step, a loss that is not finite
    # or past the divergence threshold in magnitude, or an iterate past the escape
    # threshold (at lr 1e6 the third iterate is -2e6)
    def step(kstep, th):
        return (0.5, np.ones_like(th), False) if kstep < 2 else (loss, np.ones_like(th), bad)

    trace = trainer._descend(step, np.zeros((2, 1)), 10, lr)
    assert trace.diverged and len(trace) == 3
    assert trace.loss[-1] == loss or math.isnan(loss)


def test_descend_silences_overflow_for_the_whole_run():
    # the first gradient overflows to inf inside the step; the iterate it gives is the
    # last row, with a loss of -inf
    def step(_kstep, th):
        return float(np.sum(th)), th * 1e305, False

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = trainer._descend(step, np.full((2, 1), 1e5), 5, 1.0)
    assert trace.diverged and trace.loss.tolist() == [2e5, -math.inf]


def test_gan2d_escaped_generator_diverges():
    # a generator step of 1e10 throws the particles to about 3e6, past the escape threshold
    target = sample_target("ring", 16, 3)
    cfg = GanLoopConfig(generator_init=target.points.copy(), target=target, n_steps=40,
                        lr_gen=1e10)
    trace = train_gan2d(cfg)
    assert trace.diverged and len(trace) == 2
    assert np.isfinite(trace.loss).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_train_rejects_bad_initial_iterate(bad):
    target = sample_target("ring", 8, 3)
    init = target.points.copy()
    init[3, 1] = bad
    with pytest.raises(ConfigError, match="initial iterate"):
        train_particles(TrainConfig(target=target, kernel=KC, n_particles=8, n_steps=5, seed=1,
                                    init=init))
    with pytest.raises(ConfigError, match="initial iterate"):
        train_gan2d(_gan_cfg(generator_init=init))


def test_both_trainers_share_one_descent_loop(monkeypatch):
    calls = []
    descend = trainer._descend

    def counted(*args, **kwargs):
        calls.append(1)
        return descend(*args, **kwargs)

    monkeypatch.setattr(trainer, "_descend", counted)
    train_particles(TrainConfig(target=sample_target("ring", 8, 3), kernel=KC, n_particles=8,
                                n_steps=2, seed=1))
    assert len(calls) == 1
    assert len(train_gan2d(_gan_cfg(n_steps=2))) == 2
    assert len(calls) == 2


def test_particle_step_takes_two_grams_and_one_target_gram(monkeypatch):
    # pooled supports: K(theta, [theta; Y]) for the loss and again for the gradient, K(Y, Y)
    # once for a fresh target, kept with it after, and one K(x, [mu; mu0]) for a witness gradient
    calls = []
    gram = KernelSpec.gram

    def counted(self, x, y):
        calls.append((len(x), len(y)))
        return gram(self, x, y)

    monkeypatch.setattr(KernelSpec, "gram", counted)
    target = sample_target("ring", 8, 3)
    trace = train_particles(TrainConfig(target=target, kernel=KC, n_particles=6, n_steps=5,
                                        seed=1))
    assert len(calls) == 2 * len(trace) + 1 == 11
    assert calls[:3] == [(6, 14), (8, 8), (6, 14)]
    assert set(calls[3:]) == {(6, 14)}
    mu = DiscreteMeasure(np.zeros((6, 2)), np.full(6, 1.0 / 6))
    calls.clear()
    mmd_sq(mu, target, KC)
    assert calls == [(6, 14)]
    calls.clear()
    grad_phi_mmd(mu, target, KC, np.zeros((4, 2)))
    assert calls == [(4, 14)]


def test_descent_refuses_oversized_step_counts():
    def no_step(*args):
        raise AssertionError("a step ran")

    with pytest.raises(ProblemTooLarge, match="exceed"):
        trainer._descend(no_step, np.zeros((2, 2)), 10 ** 7 + 1, 0.1)
    with pytest.raises(ProblemTooLarge, match="exceed"):
        train_gan2d(_gan_cfg(n_steps=10 ** 9))


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
    for text in ["step,loss,grad_norm,step_size,flags\n",
                 "step,loss,grad_norm,step_size,flags\n0,x,1,1,\n",
                 "step,loss,grad_norm,step_size,flags\n0,1,1,1,stopped\n",
                 "step,loss,grad_norm,step_size,flags\n0,1,1,1\n"]:
        with pytest.raises(MalformedTrace):
            trace_from_csv(text)


def test_trace_csv_golden_bytes():
    trace = TrainTrace(np.array([0.5, 1 / 3, 1e300]), np.array([2.0, 1e-7, 12345.6789]),
                       np.full(3, 0.1), diverged=True)
    assert trace_to_csv(trace) == ("step,loss,grad_norm,step_size,flags\n0,0.5,2,0.1,\n"
                                   "1,0.333333333333333,1e-07,0.1,\n"
                                   "2,1e+300,12345.6789,0.1,diverged\n")


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
    ("lr_gen", -0.5), ("lr_gen", "0.5"),
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
