"""Optimal-discriminator oracles: values, gradients, duality, Lipschitz structure."""

import math

import numpy as np
import pytest

from smoothgan.discriminators import (_w1_sweep, grad_phi_mmd, grad_phi_w1_1d, phi_minimax,
                                      phi_mmd, phi_ns, phi_w1_1d, w1_slope_at)
from smoothgan.divergences import LOSSES, KernelSpec, mmd_sq, w1_1d
from smoothgan.errors import DimensionMismatch, GradientUnsupported, PointOffSupport
from smoothgan.measures import (DiscreteMeasure, diff, make_discrete, pack_measures,
                                random_measure)
from smoothgan.nnsmooth import mlp_forward, mlp_input_grad, random_mlp
from smoothgan.smoothness import OracleFamily

KC = KernelSpec.critical()
D0 = make_discrete([0.0], [1.0])
D1 = make_discrete([1.0], [1.0])
ALPHA_BOUND = 2.0 * math.sqrt(2.0 * math.pi) * math.exp(-0.5)   # sup of 2|K'| for critical


def test_phi_mmd_zero_at_equality():
    m = make_discrete([0.2, -0.4], [0.3, 0.7])
    xs = np.linspace(-1, 1, 11)[:, None]
    assert np.allclose(phi_mmd(m, m, KC, xs), 0.0, atol=1e-16)


def test_phi_mmd_values():
    assert phi_mmd(D1, D0, KC, [0.0]) == pytest.approx(math.exp(-math.pi) - 1.0, abs=1e-15)
    assert phi_mmd(D1, D0, KC, [0.5]) == pytest.approx(0.0, abs=1e-16)


def test_grad_phi_mmd_values():
    assert np.allclose(grad_phi_mmd(D0, D0, KC, [0.77]), 0.0)
    # both kernel bumps pull the same way at the midpoint
    expect = 2.0 * math.pi * math.exp(-math.pi / 4.0)
    assert grad_phi_mmd(D1, D0, KC, [0.5])[0] == pytest.approx(expect, rel=1e-14)


def test_grad_phi_mmd_finite_differences():
    for t in range(10):
        rng = np.random.default_rng(300 + t)
        d = int(rng.integers(1, 3))
        mu, mu0 = random_measure(rng, d), random_measure(rng, d)
        x = rng.uniform(-1, 1, size=d)
        g = grad_phi_mmd(mu, mu0, KC, x)
        h = 1e-4
        fd = np.array([(phi_mmd(mu, mu0, KC, x + h * np.eye(d)[i])
                        - phi_mmd(mu, mu0, KC, x - h * np.eye(d)[i])) / (2 * h)
                       for i in range(d)])
        assert np.abs(g - fd).max() < 1e-6


def test_mmd_dual_attainment():
    # pairing of the witness against mu - mu0 reproduces the squared MMD exactly
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
        xi = diff(mu, mu0)
        pairing = float(np.dot(phi_mmd(mu, mu0, KC, xi.points), xi.weights))
        assert pairing == pytest.approx(mmd_sq(mu, mu0, KC), abs=1e-10)


def test_grad_phi_mmd_sup_bound():
    grid = np.linspace(-1, 1, 101)[:, None]
    for t in range(50):
        rng = np.random.default_rng(500 + t)
        mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
        sup = np.abs(grad_phi_mmd(mu, mu0, KC, grid)).max()
        assert sup <= ALPHA_BOUND + 1e-12


def test_phi_minimax_values():
    assert phi_minimax(D0, D0, [0.0]) == pytest.approx(0.5 * math.log(0.5), abs=1e-15)
    mu = make_discrete([0.0, 1.0], [0.75, 0.25])
    mu0 = make_discrete([0.0, 1.0], [0.25, 0.75])
    assert phi_minimax(mu, mu0, [0.0]) == pytest.approx(0.5 * math.log(0.75), abs=1e-15)
    assert phi_minimax(mu0, mu, [1.0]) == pytest.approx(0.5 * math.log(0.75), abs=1e-15)


def test_phi_minimax_infinite_and_off_support():
    assert phi_minimax(D0, D1, [1.0]) == -math.inf
    with pytest.raises(PointOffSupport):
        phi_minimax(D0, D1, [0.5])


def test_phi_ns_values():
    assert phi_ns(D0, D0, [0.0]) == pytest.approx(-0.5 * math.log(0.5), abs=1e-15)
    assert phi_ns(D0, D1, [0.0]) == math.inf
    mu = make_discrete([0.0, 1.0], [0.75, 0.25])
    mu0 = make_discrete([0.0, 1.0], [0.25, 0.75])
    assert phi_ns(mu, mu0, [0.0]) == pytest.approx(-0.5 * math.log(0.25), abs=1e-15)


def test_density_ratio_witnesses_take_batches():
    mu = make_discrete([0.0, 1.0], [0.75, 0.25])
    mu0 = make_discrete([0.0, 2.0], [0.25, 0.75])
    xs = [[0.0], [1.0], [2.0]]
    for phi in (phi_minimax, phi_ns):
        vals = phi(mu, mu0, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == (3,)
        assert np.array_equal(vals, [phi(mu, mu0, x) for x in xs])
        with pytest.raises(PointOffSupport):      # one point off the union support
            phi(mu, mu0, [[0.0], [0.5], [2.0]])
    assert phi_minimax(mu, mu0, xs)[2] == -math.inf and phi_ns(mu, mu0, xs)[1] == math.inf
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    mu2, mu02 = make_discrete(pts, [0.75, 0.25]), make_discrete(pts, [0.25, 0.75])
    assert phi_minimax(mu2, mu02, pts) == pytest.approx(0.5 * np.log([0.75, 0.25]), abs=1e-15)
    assert isinstance(phi_minimax(mu2, mu02, pts[1]), float)


def test_w1_potential_is_abs():
    mu = make_discrete([-1.0, 1.0], [0.5, 0.5])
    xs = np.linspace(-1, 1, 41)
    assert np.allclose(phi_w1_1d(mu, D0, xs[:, None]), np.abs(xs), atol=1e-12)


def test_w1_potential_zero_at_equality():
    m = make_discrete([0.3, -0.6], [0.5, 0.5])
    xs = np.linspace(-1, 1, 21)[:, None]
    assert np.allclose(phi_w1_1d(m, m, xs), 0.0, atol=1e-12)


def test_w1_potential_two_deltas():
    xs = np.array([0.0, 0.25, 1.0])
    assert np.allclose(phi_w1_1d(D1, D0, xs[:, None]), xs, atol=1e-15)


def test_w1_potential_gauge():
    rng = np.random.default_rng(23)
    mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
    assert phi_w1_1d(mu, mu0, [0.0]) == 0.0


def test_w1_dual_attainment():
    rng = np.random.default_rng(29)
    for _ in range(25):
        mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
        xi = diff(mu, mu0)
        pairing = float(np.dot(phi_w1_1d(mu, mu0, xi.points), xi.weights))
        assert pairing == pytest.approx(w1_1d(mu, mu0), abs=1e-9)


def test_w1_potential_one_lipschitz():
    rng = np.random.default_rng(31)
    grid = np.linspace(-1, 1, 501)
    for _ in range(20):
        mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
        vals = phi_w1_1d(mu, mu0, grid[:, None])
        slopes = np.abs(np.diff(vals)) / (grid[1] - grid[0])
        assert slopes.max() <= 1.0 + 1e-9


def test_w1_potential_kink_divergence():
    # potential |x| has a slope jump at 0: finite-difference smoothness >= 1/h
    mu = make_discrete([-1.0, 1.0], [0.5, 0.5])
    for h in (1e-2, 1e-4, 1e-6):
        g_left = grad_phi_w1_1d(mu, D0, [-h / 2])[0]
        g_right = grad_phi_w1_1d(mu, D0, [h / 2])[0]
        assert abs(g_right - g_left) / h >= 1.0 / h


def test_oracle_dispatch_and_gradient_support():
    rng = np.random.default_rng(37)
    mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
    x = [0.1]
    assert LOSSES["mmd"].witness(mu, mu0, KC, x) == pytest.approx(phi_mmd(mu, mu0, KC, x))
    assert LOSSES["w1"].witness(mu, mu0, None, x) == pytest.approx(phi_w1_1d(mu, mu0, x))
    with pytest.raises(GradientUnsupported):
        OracleFamily("js").grad(mu, mu0, [x])


# name -> (oracle of (mu, mu0, net, x), whether it returns gradients, dimensions it takes)
QUERY_ORACLES = {
    "phi_mmd": (lambda mu, mu0, net, x: phi_mmd(mu, mu0, KC, x), False, (1, 2)),
    "grad_phi_mmd": (lambda mu, mu0, net, x: grad_phi_mmd(mu, mu0, KC, x), True, (1, 2)),
    "phi_minimax": (lambda mu, mu0, net, x: phi_minimax(mu, mu0, x), False, (1, 2)),
    "phi_ns": (lambda mu, mu0, net, x: phi_ns(mu, mu0, x), False, (1, 2)),
    "phi_w1_1d": (lambda mu, mu0, net, x: phi_w1_1d(mu, mu0, x), False, (1,)),
    "grad_phi_w1_1d": (lambda mu, mu0, net, x: grad_phi_w1_1d(mu, mu0, x), True, (1,)),
    "mlp_forward": (lambda mu, mu0, net, x: mlp_forward(net, x), False, (1, 2)),
    "mlp_input_grad": (lambda mu, mu0, net, x: mlp_input_grad(net, x), True, (1, 2)),
}
QUERY_CASES = [(name, d) for name, (_, _, dims) in QUERY_ORACLES.items() for d in dims]


@pytest.mark.parametrize("name, d", QUERY_CASES, ids=[f"{n}-d{d}" for n, d in QUERY_CASES])
def test_query_convention(name, d):
    # a point of shape (d,) or a batch of shape (n, d), nothing else
    oracle, is_grad, _ = QUERY_ORACLES[name]
    rng = np.random.default_rng(41 + d)
    mu, mu0 = random_measure(rng, d), random_measure(rng, d)
    net = random_mlp(d, 4, 2, "elu", seed=3)
    pts = np.vstack([mu.points, mu0.points])        # on the support, where every oracle is defined
    point = oracle(mu, mu0, net, pts[0])
    if is_grad:
        assert isinstance(point, np.ndarray) and point.shape == (d,)
    else:
        assert isinstance(point, float)
    for batch in (pts, pts[:1]):
        out = oracle(mu, mu0, net, batch)
        assert isinstance(out, np.ndarray)
        assert out.shape == ((len(batch), d) if is_grad else (len(batch),))
    np.testing.assert_allclose(oracle(mu, mu0, net, pts[:1])[0], point, rtol=1e-14)
    for bad in [np.float64(pts[0, 0]), pts[0, 0]] + [np.zeros(k) for k in {1, 2, 3} - {d}]:
        with pytest.raises(DimensionMismatch):
            oracle(mu, mu0, net, bad)


def test_w1_slope_rule_counts_breaks_as_searchsorted():
    # the slope at x is read after the count of breaks <= x, searchsorted's side="right", in
    # one row or stacked rows, with queries on, between and outside tied breaks
    rng = np.random.default_rng(41)
    breaks = np.sort(np.round(rng.uniform(-1, 1, (6, 9)), 1), axis=1)
    cdf = rng.choice([-0.5, -1e-13, 0.0, 1e-13, 0.25], size=(6, 9))
    x = np.concatenate([breaks, np.round(rng.uniform(-1.2, 1.2, (6, 30)), 1)], axis=1)
    slopes = np.where(np.abs(cdf) <= 1e-12, 0.0, np.sign(-cdf))
    for b, c, s, q, got in zip(breaks, cdf, slopes, x, w1_slope_at(breaks, cdf, x)):
        idx = np.searchsorted(b, q, side="right") - 1
        want = np.where(idx >= 0, s[np.maximum(idx, 0)], 0.0)
        assert np.array_equal(got, want) and np.array_equal(w1_slope_at(b, c, q), want)


def _ref_cdf_levels(xi):
    """The reference sweep: sorted 1-D atom positions and the running CDF value on each gap."""
    x = xi.points[:, 0]
    order = np.argsort(x)
    return x[order], np.cumsum(xi.weights[order])


def test_w1_sweep_rows_are_the_reference_sweep():
    # packed rows, merging or not, and one row alone: each row's breaks and running sums are
    # the reference sweep's bits, then padding that moves no running sum
    rng = np.random.default_rng(47)
    atoms = [rng.uniform(-1, 1, int(rng.integers(1, 12))) for _ in range(40)]
    atoms = [np.round(a, 1) if i % 3 == 0 else a for i, a in enumerate(atoms)]
    weights = [rng.dirichlet(np.ones(len(a))) for a in atoms]
    rows = np.repeat(np.arange(40), [len(a) for a in atoms])
    packed = pack_measures(np.concatenate(atoms)[:, None], np.concatenate(weights), rows, 40)
    mu, mu0 = tuple(a[0::2] for a in packed), tuple(a[1::2] for a in packed)
    breaks, cdf, n = _w1_sweep(mu, mu0)
    for t, k in enumerate(n):
        a, b = (DiscreteMeasure(m[0][t, :m[2][t]].copy(), m[1][t, :m[2][t]].copy())
                for m in (mu, mu0))
        ref_x, ref_cdf = _ref_cdf_levels(diff(a, b))
        assert np.array_equal(breaks[t, :k], ref_x) and np.array_equal(cdf[t, :k], ref_cdf)
        assert np.all(breaks[t, k:] >= breaks.max()) and np.all(cdf[t, k:] == cdf[t, k - 1])
        one = _w1_sweep(a.as_row(), b.as_row())
        assert np.array_equal(one[0], ref_x[None]) and np.array_equal(one[1], ref_cdf[None])


@pytest.mark.parametrize("oracle", [phi_w1_1d, grad_phi_w1_1d])
def test_w1_potential_and_slope_at_scale_are_one_searchsorted_per_query(oracle):
    # 10^4 queries on two 10^4-atom measures, past the old dense count's size cap: each value
    # is one searchsorted on the reference sweep, then the slope or the integral of the slopes
    rng = np.random.default_rng(53)
    lattice = np.linspace(-1.0, 1.0, 20001)[:, None]
    mu, mu0 = (make_discrete(lattice[rng.choice(20001, 10000)], rng.uniform(0.1, 1.0, 10000))
               for _ in range(2))
    x = np.concatenate([rng.uniform(-1.2, 1.2, 9000), mu.points[:500, 0], mu0.points[:500, 0]])
    breaks, cdf = _ref_cdf_levels(diff(mu, mu0))
    slopes = np.where(np.abs(cdf) <= 1e-12, 0.0, np.sign(-cdf))
    nodes = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(breaks))])

    def at(q):
        """The slope at q and the integral of the slopes from breaks[0] to q."""
        i = int(np.searchsorted(breaks, q, side="right")) - 1
        return (0.0, 0.0) if i < 0 else (slopes[i], nodes[i] + slopes[i] * (q - breaks[i]))

    if oracle is grad_phi_w1_1d:
        want = np.array([[at(q)[0]] for q in x])
    else:
        want = np.array([at(q)[1] for q in x]) - at(0.0)[1]
    assert np.array_equal(oracle(mu, mu0, x[:, None]), want)
