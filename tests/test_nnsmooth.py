"""Spectral normalization, exact forward/gradient, empirical constant bounds."""

import numpy as np
import pytest

from smoothgan.errors import ConfigError, DimensionMismatch, NonSmoothActivation
from smoothgan.measures import BoxDomain
from smoothgan.nnsmooth import (MlpNet, empirical_lipschitz, empirical_smoothness,
                                mlp_forward, mlp_input_grad, mlp_param_grad, net_from_json,
                                net_to_json, power_iteration, random_mlp, spectral_normalize)

BOX2 = BoxDomain.unit(2)


def test_specnorm_diagonal():
    assert power_iteration(np.diag([3.0, 4.0]), 200, 1) == pytest.approx(4.0, abs=1e-10)


def test_specnorm_identity():
    assert power_iteration(np.eye(3), 50, 0) == pytest.approx(1.0, abs=1e-12)


def test_specnorm_svd_oracle():
    rng = np.random.default_rng(0)
    for t in range(10):
        w = rng.standard_normal((5, 5))
        est = power_iteration(w, 200, t)
        assert est == pytest.approx(np.linalg.norm(w, 2), abs=1e-6)
        assert est <= np.linalg.norm(w, 2) + 1e-12


def test_specnorm_zero_matrix():
    assert power_iteration(np.zeros((3, 2)), 10, 0) == 0.0


def test_power_iteration_monotone():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((8, 8))
    ests = [power_iteration(w, k, seed=4) for k in (1, 2, 5, 20, 100)]
    assert all(a <= b + 1e-14 for a, b in zip(ests, ests[1:]))


def test_spectral_normalize_norms():
    net = random_mlp(2, 16, 4, "elu", seed=3)
    normed = spectral_normalize(net)
    for w, _ in normed.layers:
        assert np.linalg.norm(w, 2) <= 1.0 + 1e-6
    again = spectral_normalize(normed)
    for (w1, _), (w2, _) in zip(normed.layers, again.layers):
        assert np.abs(w1 - w2).max() <= 1e-6


@pytest.mark.parametrize("gap", [1e-9, 3e-3])
def test_spectral_normalize_close_top_singular_values(gap):
    # close top singular values slow power iteration down, so an estimate
    # stays below the norm; the exact divisor lands every norm on 1
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    w = u @ np.diag([3.0, 3.0 - gap, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1]) @ v.T
    net = MlpNet(((w, np.zeros(8)), (np.ones((1, 8)), np.zeros(1))), "elu")
    for w_n, _ in spectral_normalize(net).layers:
        assert np.linalg.norm(w_n, 2) <= 1.0 + 1e-6


def test_spectral_normalize_single_layer():
    net = MlpNet(((np.array([[3.0, 0.0]]), np.zeros(1)),), "elu")
    normed = spectral_normalize(net)
    assert np.linalg.norm(normed.layers[0][0], 2) == pytest.approx(1.0, abs=1e-5)


def test_spectral_normalize_zero_layer():
    net = MlpNet(((np.zeros((1, 2)), np.zeros(1)),), "elu")
    normed = spectral_normalize(net)
    assert np.all(normed.layers[0][0] == 0.0)


def test_forward_linear_layer():
    w = np.array([[1.5, -2.0]])
    net = MlpNet(((w, np.array([0.25]),),), "elu", final_scale=2.0)
    x = np.array([0.4, 0.1])
    assert mlp_forward(net, x) == pytest.approx(2.0 * (w @ x + 0.25)[0], abs=1e-15)
    assert np.allclose(mlp_input_grad(net, x), 2.0 * w[0])


def test_sigmoid_unit_gradient():
    # one sigmoid unit feeding a pass-through: gradient at 0 is w / 4
    w = np.array([[0.8, -0.6]])
    net = MlpNet(((w, np.zeros(1)), (np.array([[1.0]]), np.zeros(1))), "sigmoid")
    g = mlp_input_grad(net, np.zeros(2))
    assert np.allclose(g, 0.25 * w[0], atol=1e-15)


def test_gradient_finite_differences():
    for t, act in enumerate(["elu", "sigmoid", "elu", "sigmoid"]):
        rng = np.random.default_rng(40 + t)
        d = int(rng.integers(1, 4))
        net = spectral_normalize(random_mlp(d, 8, int(rng.integers(1, 5)), act,
                                            seed=int(rng.integers(2 ** 31))))
        x = rng.uniform(-1, 1, size=d)
        g = mlp_input_grad(net, x)
        h = 1e-5
        fd = np.array([(mlp_forward(net, x + h * np.eye(d)[i])
                        - mlp_forward(net, x - h * np.eye(d)[i])) / (2 * h) for i in range(d)])
        assert np.abs(g - fd).max() < 1e-5


@pytest.mark.parametrize("act", ["sigmoid", "relu"])
def test_param_grad_finite_differences(act):
    # reverse mode, the input-gradient term included, against central
    # differences of sum_i a_i phi(x_i) + <G_i, grad phi(x_i)>; the elu
    # discriminator's case is tests/test_trainer.py's oracle test
    rng = np.random.default_rng(90)
    for t in range(6):
        d = int(rng.integers(1, 4))
        net = spectral_normalize(random_mlp(d, int(rng.integers(2, 9)), int(rng.integers(1, 5)),
                                            act, seed=t, final_scale=0.7))
        x = rng.uniform(-1, 1, size=(5, d))
        a, g = rng.standard_normal(5), rng.standard_normal((5, d))
        flat = net.flatten_params()

        def f(p):
            n = net.with_params(p)
            return float(a @ mlp_forward(n, x) + np.sum(g * mlp_input_grad(n, x)))

        h, eye = 1e-5, np.eye(len(flat))
        fd = np.array([(f(flat + h * e) - f(flat - h * e)) / (2 * h) for e in eye])
        assert np.abs(mlp_param_grad(net, x, a, g) - fd).max() < 1e-6


def test_batch_forward_matches_single():
    net = spectral_normalize(random_mlp(2, 8, 3, "elu", seed=9))
    rng = np.random.default_rng(10)
    xs = rng.uniform(-1, 1, size=(5, 2))
    batch = mlp_forward(net, xs)
    singles = [mlp_forward(net, x) for x in xs]
    assert np.allclose(batch, singles, atol=1e-15)
    gbatch = mlp_input_grad(net, xs)
    for i, x in enumerate(xs):
        assert np.allclose(gbatch[i], mlp_input_grad(net, x), atol=1e-15)


def test_smoothness_bound_per_depth():
    for k in range(1, 8):
        net = spectral_normalize(random_mlp(2, 32, k, "elu", seed=50 + k))
        sm = empirical_smoothness(net, BOX2, 500, seed=k)
        lip = empirical_lipschitz(net, BOX2, 500, seed=k)
        assert sm <= k * (1 + 1e-3)
        assert lip <= 1 + 1e-3


def test_scaling_linearity():
    net = spectral_normalize(random_mlp(2, 8, 3, "sigmoid", seed=60))
    scaled = MlpNet(net.layers, net.activation, final_scale=2.5)
    lip1 = empirical_lipschitz(net, BOX2, 300, seed=1)
    lip2 = empirical_lipschitz(scaled, BOX2, 300, seed=1)
    assert lip2 == pytest.approx(2.5 * lip1, rel=1e-12)
    sm1 = empirical_smoothness(net, BOX2, 300, seed=1)
    sm2 = empirical_smoothness(scaled, BOX2, 300, seed=1)
    assert sm2 == pytest.approx(2.5 * sm1, rel=1e-12)


def test_relu_lipschitz_only():
    net = spectral_normalize(random_mlp(2, 8, 2, "relu", seed=70))
    assert empirical_lipschitz(net, BOX2, 200, seed=2) <= 1 + 1e-3
    with pytest.raises(NonSmoothActivation):
        empirical_smoothness(net, BOX2, 200, seed=2)


def test_json_roundtrip():
    net = random_mlp(3, 4, 2, "sigmoid", seed=80, final_scale=0.7)
    back = net_from_json(net_to_json(net))
    assert back.activation == "sigmoid"
    assert back.final_scale == 0.7
    x = np.array([0.1, -0.2, 0.3])
    assert mlp_forward(back, x) == mlp_forward(net, x)


def test_shape_validation():
    with pytest.raises(ConfigError):
        MlpNet(((np.zeros((1, 2)), np.zeros(1)),), "elu", final_scale=float("nan"))
    with pytest.raises(ConfigError):
        MlpNet(((np.zeros((2, 2)), np.zeros(2)),), "elu")       # output dim 2
    with pytest.raises(ConfigError):
        MlpNet(((np.zeros((3, 2)), np.zeros(3)), (np.zeros((1, 4)), np.zeros(1))), "elu")
    with pytest.raises(DimensionMismatch):
        mlp_forward(random_mlp(2, 4, 2, "elu", seed=0), np.zeros(3))
