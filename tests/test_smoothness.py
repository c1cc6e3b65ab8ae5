"""Regularity-constant estimators, Bregman divergences, the cross-Hessian norm.

Analytic reference constants for the critical-kernel witness family:
- alpha bound  2 sqrt(2 pi) e^{-1/2} = 3.040694 (sup of twice the kernel slope)
- beta1 bound  4 pi  (two one-sided Hessian norms of 2 pi each)
- beta2 bound  2 pi  (cross-Hessian supremum)
"""

import math

import numpy as np
import pytest

from smoothgan import smoothness
from smoothgan.divergences import KernelSpec, LossKind, kr_norm_1d, mmd_sq
from smoothgan.errors import DimensionMismatch, GradientUnsupported, PointOffSupport
from smoothgan.measures import BoxDomain, diff, make_discrete, random_measure
from smoothgan.smoothness import (OracleFamily, SATURATION_THRESHOLD, bregman, build_report,
                                  estimate_alpha, estimate_beta1, estimate_beta2,
                                  kernel_cross_hessian_norm)
from smoothgan.measures import DiscreteMeasure

KC = KernelSpec.critical()
BOX = BoxDomain.unit(1)
ALPHA_BOUND = 2.0 * math.sqrt(2.0 * math.pi) * math.exp(-0.5)
MMD_FAM = OracleFamily("mmd", dim=1, kernel=KC)


@pytest.mark.parametrize("estimate", [estimate_alpha, estimate_beta1, estimate_beta2])
@pytest.mark.parametrize("fam_dim, box_dim", [(1, 2), (2, 1)])
def test_estimators_refuse_a_domain_of_another_dimension(estimate, fam_dim, box_dim):
    # every trial draws through random_measure, which refuses the pair before numpy does
    with pytest.raises(DimensionMismatch, match="cannot be drawn"):
        estimate(OracleFamily("mmd", dim=fam_dim, kernel=KC), BoxDomain.unit(box_dim), 3, 11,
                 seed=1)


def test_alpha_estimate_bounds():
    est = estimate_alpha(MMD_FAM, BOX, 500, 201, seed=7)
    assert est <= ALPHA_BOUND
    assert est >= 0.6 * ALPHA_BOUND


def test_alpha_w1_family():
    est = estimate_alpha(OracleFamily("w1", dim=1), BOX, 100, 201, seed=7)
    assert est <= 1.0 + 1e-9
    assert est >= 0.6


def test_alpha_trivial_family(monkeypatch):
    # every draw the same measure: mu = mu0, so the witness and its gradient vanish
    mu0 = make_discrete([0.25], [1.0])
    monkeypatch.setattr(smoothness, "random_measure", lambda rng, dim, domain: mu0)
    assert estimate_alpha(MMD_FAM, BOX, 10, 51, seed=1) == 0.0


def test_beta1_estimate_bounds():
    est = estimate_beta1(MMD_FAM, BOX, 500, 40, seed=7)
    assert est <= 4.0 * math.pi
    assert est >= 0.6 * 4.0 * math.pi


def test_beta1_saturates_on_kink():
    # the 1-D Kantorovich potential kinks at atoms, so its gradient jumps
    est = estimate_beta1(OracleFamily("w1", dim=1), BOX, 50, 40, seed=3)
    assert est > SATURATION_THRESHOLD


def test_beta2_estimate_range():
    est = estimate_beta2(MMD_FAM, BOX, 500, 201, seed=7)
    assert 0.6 * 2 * math.pi <= est <= 1.01 * 2 * math.pi


def test_beta2_other_bandwidth():
    fam = OracleFamily("mmd", dim=1, kernel=KernelSpec(1.0))
    est = estimate_beta2(fam, BOX, 200, 201, seed=7)
    assert est <= 1.01 * 1.0


def test_alpha_estimate_higher_dims():
    # the critical kernel's witness-gradient bound is radial, so it holds in any d;
    # the per-dimension estimates are reported without asserting a growth law
    for d in (2, 3):
        fam = OracleFamily("mmd", dim=d, kernel=KC)
        est = estimate_alpha(fam, BoxDomain.unit(d), 100, 400, seed=7)
        assert 0.0 < est <= ALPHA_BOUND


def test_beta2_w1_family_reported_not_asserted():
    # the Wasserstein loss has no established (D3) constant; the estimator must
    # still return a finite report value
    est = estimate_beta2(OracleFamily("w1", dim=1), BOX, 50, 101, seed=7)
    assert np.isfinite(est) and est >= 0.0


def test_beta2_two_dimensional_via_lp():
    # d = 2 routes the denominator through the exact transport LP
    fam = OracleFamily("mmd", dim=2, kernel=KC)
    est = estimate_beta2(fam, BoxDomain.unit(2), 40, 120, seed=7)
    assert 0.0 < est <= 1.01 * 2 * math.pi


def test_estimates_monotone_in_trials():
    small = estimate_alpha(MMD_FAM, BOX, 100, 101, seed=5)
    large = estimate_alpha(MMD_FAM, BOX, 300, 101, seed=5)
    assert small <= large + 1e-15


def test_gradient_unsupported():
    fam = OracleFamily("js", dim=1)
    with pytest.raises(GradientUnsupported):
        estimate_alpha(fam, BOX, 5, 11, seed=0)


def test_build_report_caps_saturation():
    rep = build_report(OracleFamily("w1", dim=1), BOX, 50, 101, seed=3)
    assert rep.beta1_saturated
    assert rep.beta1_hat == SATURATION_THRESHOLD
    assert rep.alpha_hat <= 1.0 + 1e-9
    d = rep.to_dict()
    assert d["n_trials"] == 50 and d["beta1_saturated"] is True


# --- Bregman ---

def test_bregman_mmd_identity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        nu, mu, mu0 = (random_measure(rng, 1) for _ in range(3))
        kind = LossKind("mmd_sq_half", mu0, KC)
        assert bregman(kind, nu, mu) == pytest.approx(0.5 * mmd_sq(nu, mu, KC), abs=1e-10)


def test_bregman_zero_at_equal():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 1)
    kind = LossKind("mmd_sq_half", random_measure(rng, 1), KC)
    assert bregman(kind, mu, mu) == pytest.approx(0.0, abs=1e-12)


def _three_on_support(rng, support):
    return tuple(make_discrete(support, rng.dirichlet(np.ones(len(support))))
                 for _ in range(3))


def _kl(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """KL(p || q) for measures with positive weights on one sorted support."""
    return float(np.sum(p.weights * np.log(p.weights / q.weights)))


def test_bregman_ns_identity():
    # closed form: KL of the two mixtures with the reference
    rng = np.random.default_rng(5)
    sup = np.array([0.0, 0.5, 1.0])
    for _ in range(20):
        nu, mu, mu0 = _three_on_support(rng, sup)
        kind = LossKind("non_saturating_kl", mu0)
        mid_nu = make_discrete(sup, 0.5 * nu.weights + 0.5 * mu0.weights)
        mid_mu = make_discrete(sup, 0.5 * mu.weights + 0.5 * mu0.weights)
        assert bregman(kind, nu, mu) == pytest.approx(_kl(mid_nu, mid_mu), abs=1e-12)


def test_bregman_minimax_identity():
    # definitional value equals KL(nu||mu)/2 - KL(mid_nu||mid_mu), and is >= 0
    rng = np.random.default_rng(6)
    sup = np.array([-0.5, 0.25, 0.75])
    for _ in range(20):
        nu, mu, mu0 = _three_on_support(rng, sup)
        kind = LossKind("minimax_js", mu0)
        mid_nu = make_discrete(sup, 0.5 * nu.weights + 0.5 * mu0.weights)
        mid_mu = make_discrete(sup, 0.5 * mu.weights + 0.5 * mu0.weights)
        val = bregman(kind, nu, mu)
        assert val == pytest.approx(0.5 * _kl(nu, mu) - _kl(mid_nu, mid_mu), abs=1e-12)
        assert val >= -1e-14


def test_bregman_nonnegative():
    rng = np.random.default_rng(8)
    for tag in ("mmd_sq_half", "non_saturating_kl", "minimax_js", "wasserstein1"):
        sup = np.sort(rng.uniform(-1, 1, 4))
        nu, mu, mu0 = _three_on_support(rng, sup)
        kind = LossKind(tag, mu0, KC if tag == "mmd_sq_half" else None)
        assert bregman(kind, nu, mu) >= -1e-12


def test_bregman_minimax_infinite():
    # nu puts mass on a reference atom that mu misses
    mu0 = make_discrete([0.0, 0.5], [0.5, 0.5])
    mu = make_discrete([0.0, 1.0], [0.5, 0.5])
    nu = make_discrete([0.5], [1.0])
    assert bregman(LossKind("minimax_js", mu0), nu, mu) == math.inf


def test_bregman_off_support_error():
    mu0 = make_discrete([0.0, 1.0], [0.5, 0.5])
    mu = make_discrete([0.0, 1.0], [0.5, 0.5])
    nu = make_discrete([0.5], [1.0])
    with pytest.raises(PointOffSupport):
        bregman(LossKind("minimax_js", mu0), nu, mu)


def test_bregman_constant_shift_invariance():
    # adding a constant to the witness leaves the pairing against nu - mu unchanged
    rng = np.random.default_rng(9)
    nu, mu, mu0 = (random_measure(rng, 1) for _ in range(3))
    from smoothgan.discriminators import phi_mmd
    xi = diff(nu, mu)
    base = float(np.dot(phi_mmd(mu, mu0, KC, xi.points), xi.weights))
    shifted = float(np.dot(phi_mmd(mu, mu0, KC, xi.points) + 5.0, xi.weights))
    assert shifted == pytest.approx(base, abs=1e-12)


def bregman_kr_bound_check(kind, pairs):
    """Worst ratio of Bregman divergence to (1/2) ||mu - nu||_KR^2 over the (nu, mu) pairs;
    math.inf for an unbounded (infinite-Bregman) pair."""
    worst = 0.0
    for nu, mu in pairs:
        kr = kr_norm_1d(diff(mu, nu))
        if kr <= 1e-12:
            continue
        d = bregman(kind, nu, mu)
        if math.isinf(d):
            return math.inf
        worst = max(worst, d / (0.5 * kr * kr))
    return worst


def test_bregman_kr_bound():
    rng = np.random.default_rng(10)
    pairs = [(random_measure(rng, 1), random_measure(rng, 1)) for _ in range(100)]
    mu0 = random_measure(rng, 1)
    worst = bregman_kr_bound_check(LossKind("mmd_sq_half", mu0, KC), pairs)
    assert worst <= 2 * math.pi


def test_bregman_kr_unbounded_minimax():
    mu0 = make_discrete([0.0, 0.5], [0.5, 0.5])
    mu = make_discrete([0.0, 1.0], [0.5, 0.5])
    nu = make_discrete([0.5], [1.0])
    worst = bregman_kr_bound_check(LossKind("minimax_js", mu0), [(nu, mu)])
    assert worst == math.inf


# --- cross-Hessian ---

def test_cross_hessian_at_coincidence():
    assert kernel_cross_hessian_norm(KC, 0.3, 0.3) == pytest.approx(2 * math.pi, abs=1e-15)
    assert kernel_cross_hessian_norm(KernelSpec(1.0), [0.1, 0.2], [0.1, 0.2]) == pytest.approx(
        1.0, abs=1e-15)


def test_cross_hessian_decay():
    k = KernelSpec(1.0)
    far = kernel_cross_hessian_norm(k, 0.0, 20.0)   # r^2 = 400 sigma_sq
    assert far <= 1e-40 / k.sigma_sq


def test_cross_hessian_unit_z():
    # at z = ||x-y||^2/(2 s2) = 1 both eigenvalues tie at e^{-1}/s2
    k = KC
    r = math.sqrt(2 * k.sigma_sq)
    assert kernel_cross_hessian_norm(k, 0.0, r) == pytest.approx(
        math.exp(-1) / k.sigma_sq, rel=1e-14)


def test_cross_hessian_grid_sup():
    grid = np.linspace(-1, 1, 41)
    vals = np.array([[kernel_cross_hessian_norm(KC, x, y) for y in grid] for x in grid])
    assert abs(vals.max() - 2 * math.pi) <= 1e-12
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert i == j


def test_cross_hessian_matches_dense_eigendecomposition():
    # closed form against numerically assembled mixed-derivative matrices
    k = KernelSpec(0.7)
    rng = np.random.default_rng(12)
    for _ in range(10):
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        d = x - y
        s2 = k.sigma_sq
        mat = math.exp(-np.dot(d, d) / (2 * s2)) * (np.outer(d, d) / s2 ** 2 - np.eye(3) / s2)
        assert kernel_cross_hessian_norm(k, x, y) == pytest.approx(
            np.linalg.norm(mat, 2), rel=1e-12)


# --- Bregman divergences against the per-atom loop form ---

def _bregman_loop(tag, wn_u, wm_u, w0_u):
    """Per-atom Bregman divergence on aligned weights (nu, mu, mu0): the former loop form."""
    if np.any((wn_u > 0) & (wm_u == 0) & (w0_u == 0)):
        raise PointOffSupport("nu has mass where neither mu nor mu0 does")
    total = 0.0
    if tag == "non_saturating_kl":
        for a, b in zip(0.5 * (wn_u + w0_u), 0.5 * (wm_u + w0_u)):
            if a == 0.0:
                total += b * math.log(2.0)
            elif b == 0.0:
                return math.inf
            else:
                total += a * math.log(a / (2.0 * b)) + b * math.log(2.0)
        return total
    for a, b, c in zip(wn_u, wm_u, w0_u):
        if a > 0:
            total += 0.5 * a * math.log(a / (0.5 * (a + c)))
        if c > 0:
            total += 0.5 * c * math.log(c / (0.5 * (a + c)))
        if b > 0:
            total -= 0.5 * b * math.log(b / (0.5 * (b + c)))
        if c > 0:
            total -= 0.5 * c * math.log(c / (0.5 * (b + c)))
        if a - b != 0.0:
            if b == 0.0 and c > 0:
                if a > 0:
                    return math.inf
            elif b > 0:
                total -= 0.5 * (a - b) * math.log(b / (b + c))
    return total


def _masked_weights(rng, k):
    w = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6)
    if not w.any():
        w[rng.integers(k)] = 1.0
    return w / w.sum()


@pytest.mark.parametrize("tag", ["minimax_js", "non_saturating_kl"])
def test_bregman_matches_loop_form(tag):
    rng = np.random.default_rng(11)
    outcomes = {"finite": 0, "inf": 0, "off_support": 0}
    for _ in range(300):
        k, d = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        support = rng.uniform(-1, 1, size=(k, d))
        wn, wm, w0 = (_masked_weights(rng, k) for _ in range(3))
        nu, mu, mu0 = (DiscreteMeasure(support[w > 0], w[w > 0]) for w in (wn, wm, w0))
        try:
            expected = _bregman_loop(tag, wn, wm, w0)
        except PointOffSupport:
            with pytest.raises(PointOffSupport):
                bregman(LossKind(tag, mu0), nu, mu)
            outcomes["off_support"] += 1
            continue
        got = bregman(LossKind(tag, mu0), nu, mu)
        if math.isinf(expected):
            assert got == expected
            outcomes["inf"] += 1
        else:
            assert got == pytest.approx(expected, abs=1e-12)
            outcomes["finite"] += 1
    assert outcomes["finite"] > 50 and outcomes["off_support"] > 10
    assert tag == "non_saturating_kl" or outcomes["inf"] > 10
