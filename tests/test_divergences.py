"""Divergence values against closed forms, the LP oracle, and metric axioms.

Derived constants frozen from independent oracles:
- kl((1/2,1/2), (1/4,3/4)) = log(2)/2 + log(2/3)/2        = 0.143841036225890
- js((1/2,1/2) vs delta_0) by definition                  = 0.215761554338836
- ns_kl: (3/8)log(3/4) + (5/8)log(5/4)                    = 0.031583942401963
- mmd_sq(delta_0, delta_1) critical = 2 - 2 e^{-pi}       = 1.913572163472455
- mmd_sq(half, delta_0) critical = (1 - e^{-pi}) / 2      = 0.478393040868114
"""

import argparse
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from smoothgan import divergences
from smoothgan.cli import build_parser
from smoothgan.divergences import (LOSSES, KernelSpec, LossKind, align_many, js, kr_norm_1d,
                                   loss_eval, mmd_sq, ns_kl, w1_1d, w1_lp)
from smoothgan.errors import (DimensionMismatch, NegativeWeight, NonZeroMass,
                              PreconditionViolated, ProblemTooLarge, SolverFailed,
                              UnknownKind)
from smoothgan.measures import diff, make_discrete, make_signed, random_measure
from smoothgan.measures import DiscreteMeasure
from smoothgan.smoothness import OracleFamily

atoms_1d = st.lists(st.tuples(st.floats(-1, 1), st.floats(0.05, 1.0)), min_size=1, max_size=6)


def _measure(atoms):
    return make_discrete([a for a, _ in atoms], [w for _, w in atoms])


def kl(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """KL divergence on the union support, with 0 log 0 = 0.

    Returns math.inf when mu has mass where nu has none.
    """
    _, (wm, wn) = align_many([mu, nu])
    pos = wm > 0
    if np.any(wn[pos] == 0):
        return math.inf
    return max(float(np.sum(wm[pos] * np.log(wm[pos] / wn[pos]))), 0.0)


D0 = make_discrete([0.0], [1.0])
D1 = make_discrete([1.0], [1.0])
HALF = make_discrete([0.0, 1.0], [0.5, 0.5])
KC = KernelSpec.critical()


def test_critical_kernel():
    assert KC.sigma_sq == pytest.approx(1.0 / (2 * math.pi), abs=1e-18)
    # K(x, y) = exp(-pi ||x - y||^2)
    g = KC.gram(np.array([[0.0]]), np.array([[1.0]]))
    assert g[0, 0] == pytest.approx(math.exp(-math.pi), rel=1e-15)


@pytest.mark.parametrize("sigma_sq", [5e-324, 1e-310, 5.5e-309])
def test_kernel_refuses_a_bandwidth_whose_reciprocal_overflows(sigma_sq):
    # the Gram's scale -1/(2 sigma_sq) would be -inf, and 0 * -inf NaN on coincident points
    with pytest.raises(PreconditionViolated, match="finite reciprocal"):
        KernelSpec(sigma_sq)
    floor = KernelSpec(5.6e-309)
    assert floor.gram(np.zeros((2, 1)), np.array([[0.0], [1.0]])).tolist() == [[1.0, 0.0]] * 2


def test_loss_kind_kernel_consistency():
    with pytest.raises(ValueError):
        LossKind("minimax_js", D0, KC)
    with pytest.raises(ValueError):
        LossKind("mmd_sq_half", D0)


def test_w1_1d_point_masses():
    assert w1_1d(make_discrete([0.3], [1.0]), D0) == pytest.approx(0.3, abs=1e-15)
    assert w1_1d(HALF, HALF) == 0.0
    assert w1_1d(HALF, make_discrete([0.5], [1.0])) == pytest.approx(0.5, abs=1e-15)


def test_w1_lp_examples():
    assert w1_lp(make_discrete([[0.0, 0.0]], [1.0]),
                 make_discrete([[3.0, 4.0]], [1.0])) == pytest.approx(5.0, abs=1e-12)
    m = make_discrete([[0.2, -0.1], [0.4, 0.3]], [0.5, 0.5])
    assert w1_lp(m, m) == pytest.approx(0.0, abs=1e-12)


def _random_measure(rng, dim, max_atoms):
    """k ~ U{2..max_atoms} atoms uniform in [-1, 1]^dim with Dirichlet weights, drawn in
    random_measure's order."""
    k = int(rng.integers(2, max_atoms + 1))
    pts = rng.uniform(-np.ones(dim), np.ones(dim), size=(k, dim))
    return make_discrete(pts, rng.dirichlet(np.ones(k)))


def test_w1_oracle_equivalence():
    for t in range(30):
        rng = np.random.default_rng(1000 + t)
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        assert w1_lp(mu, nu) == pytest.approx(w1_1d(mu, nu), abs=1e-9)


def test_w1_lp_metric_axioms():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b, c = (_random_measure(rng, 2, max_atoms=5) for _ in range(3))
        ab, ba = w1_lp(a, b), w1_lp(b, a)
        assert ab == pytest.approx(ba, abs=1e-10)
        assert ab <= w1_lp(a, c) + w1_lp(c, b) + 1e-9


def test_w1_too_large():
    big = make_discrete(np.linspace(-1, 1, 1001), np.ones(1001))
    with pytest.raises(ProblemTooLarge):
        w1_lp(big, make_discrete(np.linspace(-1, 1, 1001), np.ones(1001)))


def test_kr_norm():
    assert kr_norm_1d(diff(D1, D0)) == pytest.approx(1.0, abs=1e-15)
    assert kr_norm_1d(diff(D0, D0)) == 0.0
    scaled = make_signed([0.0, 1.0], [-0.5, 0.5])
    assert kr_norm_1d(scaled) == pytest.approx(0.5, abs=1e-15)


def test_kr_requires_mass_zero():
    with pytest.raises(NonZeroMass):
        kr_norm_1d(make_signed([0.0], [1.0]))


def test_kr_equals_w1():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu, nu = random_measure(rng, 1), random_measure(rng, 1)
        assert kr_norm_1d(diff(mu, nu)) == pytest.approx(w1_1d(mu, nu), abs=1e-12)


def test_kl_values():
    assert kl(HALF, HALF) == 0.0
    assert kl(D1, D0) == math.inf
    quarter = make_discrete([0.0, 1.0], [0.25, 0.75])
    assert kl(HALF, quarter) == pytest.approx(0.143841036225890, abs=1e-14)


def test_js_values():
    assert js(make_discrete([0.5], [1.0]), D0) == pytest.approx(math.log(2), abs=1e-15)
    assert js(HALF, HALF) == 0.0
    assert js(HALF, D0) == pytest.approx(0.215761554338836, abs=1e-14)


def test_js_range_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu, nu = random_measure(rng, 1), random_measure(rng, 1)
        v = js(mu, nu)
        assert 0.0 <= v <= math.log(2) + 1e-15
        assert v == pytest.approx(js(nu, mu), abs=1e-14)


def test_ns_kl_values():
    assert ns_kl(D0, D0) == 0.0
    assert ns_kl(make_discrete([0.5], [1.0]), D0) == math.inf
    mu = make_discrete([0.0, 1.0], [0.25, 0.75])
    assert ns_kl(mu, HALF) == pytest.approx(0.031583942401963, abs=1e-14)


def test_mmd_values():
    assert mmd_sq(HALF, HALF, KC) == 0.0
    assert mmd_sq(D0, D1, KC) == pytest.approx(1.913572163472455, abs=1e-14)
    assert mmd_sq(HALF, D0, KC) == pytest.approx(0.478393040868114, abs=1e-14)


def test_mmd_permutation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = rng.dirichlet(np.ones(6))
    mu = make_discrete(pts, w)
    perm = rng.permutation(6)
    mu_p = make_discrete(pts[perm], w[perm])
    nu = random_measure(rng, 2)
    assert mmd_sq(mu, nu, KC) == pytest.approx(mmd_sq(mu_p, nu, KC), abs=1e-14)


def test_mmd_zero_iff_equal():
    rng = np.random.default_rng(6)
    mu, nu = random_measure(rng, 1), random_measure(rng, 1)
    assert mmd_sq(mu, nu, KC) > 1e-6


def test_loss_eval_dispatch():
    assert loss_eval(LossKind("minimax_js", D0), D0) == 0.0
    assert loss_eval(LossKind("wasserstein1", D0),
                     make_discrete([0.3], [1.0])) == pytest.approx(0.3, abs=1e-15)
    assert loss_eval(LossKind("mmd_sq_half", D1, KC), D0) == pytest.approx(
        0.5 * 1.913572163472455, abs=1e-14)
    # d >= 2 routes through the LP
    a = make_discrete([[0.0, 0.0]], [1.0])
    b = make_discrete([[3.0, 4.0]], [1.0])
    assert loss_eval(LossKind("wasserstein1", b), a) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("name", list(LOSSES))
def test_loss_table_entry(name):
    loss = LOSSES[name]
    rng = np.random.default_rng(41)
    mu, mu0 = random_measure(rng, 1), random_measure(rng, 1)
    k = KC if loss.kernel else None
    kind = LossKind(loss.tag, mu0, k)
    assert loss.name == name and kind.loss is loss
    with pytest.raises(PreconditionViolated):          # a kernel exactly when the entry says
        LossKind(loss.tag, mu0, None if loss.kernel else KC)
    with pytest.raises(PreconditionViolated):
        OracleFamily(name, kernel=None if loss.kernel else KC)
    assert loss_eval(kind, mu) == loss.value(mu, mu0, k)
    xs = np.vstack([mu.points, mu0.points])            # a batch on the union support
    vals = loss.witness(mu, mu0, k, xs)
    assert isinstance(vals, np.ndarray) and vals.shape == (len(xs),)
    np.testing.assert_allclose(vals, [loss.witness(mu, mu0, k, x) for x in xs],
                               rtol=1e-15, atol=1e-15)
    assert (loss.grad is None) == (name in ("js", "ns"))
    assert OracleFamily(name, kernel=k).supports_gradients() == (loss.grad is not None)


def _loss_choices(*command):
    parser = build_parser()
    for word in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return next(a for a in parser._actions if a.dest == "loss").choices


def test_loss_table_names():
    assert _loss_choices("div", "eval") == _loss_choices("disc", "eval") == list(LOSSES)
    assert _loss_choices("smooth", "report") == [
        name for name, loss in LOSSES.items() if loss.grad is not None]
    with pytest.raises(UnknownKind):
        LossKind("minimax", D0)
    with pytest.raises(UnknownKind):
        OracleFamily("foo")


@settings(max_examples=60, deadline=None)
@given(atoms_1d, atoms_1d, atoms_1d)
def test_w1_1d_metric_properties(a, b, c):
    mu, nu, rho = _measure(a), _measure(b), _measure(c)
    assert w1_1d(mu, nu) >= 0.0
    assert w1_1d(mu, nu) == pytest.approx(w1_1d(nu, mu), abs=1e-12)
    assert w1_1d(mu, nu) <= w1_1d(mu, rho) + w1_1d(rho, nu) + 1e-12


@settings(max_examples=60, deadline=None)
@given(atoms_1d, atoms_1d)
def test_divergences_nonnegative(a, b):
    mu, nu = _measure(a), _measure(b)
    assert kl(mu, nu) >= 0.0
    assert 0.0 <= js(mu, nu) <= math.log(2) + 1e-15
    assert ns_kl(mu, nu) >= -1e-15
    assert mmd_sq(mu, nu, KC) >= 0.0


def test_divergences_nonnegative_merged_ulp():
    # three atoms at one point whose normalized weights once merged to 1 - 1 ulp
    mu, nu = make_discrete([0.0, 0.0, 0.0], [1.0, 0.25, 0.5]), make_discrete([0.0], [1.0])
    for a, b in ((mu, nu), (nu, mu)):
        assert kl(a, b) == 0.0
        assert js(a, b) == 0.0
        assert ns_kl(a, b) == 0.0
        assert mmd_sq(a, b, KC) == 0.0


def test_js_w1_incomparable():
    x = 1e-3
    ratio = js(make_discrete([x], [1.0]), D0) / w1_1d(make_discrete([x], [1.0]), D0)
    assert ratio >= 690.0


def test_mmd_bounded_by_kr():
    # kernel cross-difference bound, both critical and sigma_sq = 1
    for k in (KC, KernelSpec(1.0)):
        for t in range(50):
            rng = np.random.default_rng(2000 + t)
            mu, nu = random_measure(rng, 1), random_measure(rng, 1)
            assert mmd_sq(mu, nu, k) <= kr_norm_1d(diff(mu, nu)) ** 2 / k.sigma_sq + 1e-12


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        w1_1d(make_discrete([[0.0, 0.0]], [1.0]), make_discrete([[0.0, 0.0]], [1.0]))
    with pytest.raises(DimensionMismatch):
        mmd_sq(D0, make_discrete([[0.0, 0.0]], [1.0]), KC)


# --- transport LP: sparse constraints against the dense form ---

def _dense_constraints(m, n):
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    return a_eq


def _w1_lp_dense(mu, nu):
    cost = np.sqrt(np.sum((mu.points[:, None, :] - nu.points[None, :, :]) ** 2, axis=-1))
    a_eq = _dense_constraints(mu.n_atoms, nu.n_atoms)
    b_eq = np.concatenate([mu.weights, nu.weights])
    # at HiGHS's default tolerances reduced costs down to -1e-7 pass as optimal, which
    # left one 21-atom pair 5.8e-10 above the optimum that w1_lp finds
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    return float(res.fun)


def test_w1_lp_sparse_matches_dense_2d():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = _random_measure(rng, 2, max_atoms=12)
        nu = _random_measure(rng, 2, max_atoms=12)
        assert abs(w1_lp(mu, nu) - _w1_lp_dense(mu, nu)) <= 1e-12


def test_w1_lp_cap_raises_before_allocating():
    # the dense form would need (1001 + 1000) x 1001000 doubles, about 16 GB
    assert (1001 + 1000) * 1001 * 1000 * 8 > 16 * 10 ** 9
    mu = DiscreteMeasure(np.linspace(0, 1, 1001)[:, None], np.full(1001, 1 / 1001))
    nu = DiscreteMeasure(np.linspace(0, 1, 1000)[:, None], np.full(1000, 1 / 1000))
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge):
            w1_lp(mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_w1_lp_cost_matches_difference_tensor(dim):
    rng = np.random.default_rng(10 + dim)
    for _ in range(10):
        mu = _random_measure(rng, dim, max_atoms=12)
        nu = _random_measure(rng, dim, max_atoms=12)
        assert abs(w1_lp(mu, nu) - _w1_lp_dense(mu, nu)) <= 1e-12
        # between point masses the plan is the one cell, so the value is its cost
        tensor = np.sqrt(np.sum((mu.points[:, None, :] - nu.points[None, :, :]) ** 2, axis=-1))
        for i, j in np.ndindex(tensor.shape):
            one = w1_lp(make_discrete(mu.points[i:i + 1], [1.0]),
                        make_discrete(nu.points[j:j + 1], [1.0]))
            assert abs(one - tensor[i, j]) <= 1e-12


def test_w1_lp_setup_memory_independent_of_dimension():
    # no (m, n, d) temporary: the whole solve takes the same memory in 1-D and 8-D
    rng = np.random.default_rng(9)
    peaks = {}
    for dim in (1, 8):
        mu = DiscreteMeasure(rng.uniform(size=(200, dim)), np.full(200, 1 / 200))
        nu = DiscreteMeasure(rng.uniform(size=(200, dim)), np.full(200, 1 / 200))
        tracemalloc.start()
        try:
            w1_lp(mu, nu)
            peaks[dim] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.05 * peaks[1]


# masses 1/2 at 0 and 3 against 2 and 5: the cheapest cell (3, 2) first leaves
# 0 -> 5, so the matrix-minimum start is not optimal and the solve must pivot
PIVOT_MU = make_discrete([[0.0, 0.0], [3.0, 0.0]], [0.5, 0.5])
PIVOT_NU = make_discrete([[2.0, 0.0], [5.0, 0.0]], [0.5, 0.5])


def test_w1_lp_solver_failure_is_typed(monkeypatch):
    assert w1_lp(PIVOT_MU, PIVOT_NU) == pytest.approx(2.0, abs=1e-15)
    monkeypatch.setattr(divergences, "_LP_PIVOTS_PER_NODE", 0)
    with pytest.raises(SolverFailed, match="no optimum after 0 pivots"):
        w1_lp(PIVOT_MU, PIVOT_NU)
    # a start that is already optimal needs no pivot
    assert w1_lp(PIVOT_MU, make_discrete([[1.0, 0.0]], [1.0])) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_w1_lp_unequal_masses_raise(dim):
    def measure(xs, ws):
        return DiscreteMeasure(np.array([[x] + [0.0] * (dim - 1) for x in xs]), np.array(ws))

    mu = measure([0.0, 1.0], [0.5, 0.5])
    for ws in ([1.0, 0.5], [0.5, 1.0]):
        nu = measure([0.3, 2.0], ws)
        with pytest.raises(NonZeroMass):
            w1_lp(mu, nu)
        with pytest.raises(NonZeroMass):
            w1_lp(nu, mu)
        if dim == 1:
            with pytest.raises(NonZeroMass):
                w1_1d(mu, nu)
    # masses that differ by rounding are equal
    nu = measure([0.3, 2.0], [0.5, np.nextafter(0.5, 1.0)])
    assert w1_lp(mu, nu) == pytest.approx(0.5 * 0.3 + 0.5 * 1.0, abs=1e-12)


def test_w1_lp_weight_checks():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
    with pytest.raises(NegativeWeight):
        w1_lp(mu, make_discrete([0.0], [1.0]))
    # zero-weight atoms carry nothing on either side
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [4.0]]), np.array([0.5, 0.0, 0.5]))
    nu = DiscreteMeasure(np.array([[0.5], [9.0], [2.0]]), np.array([0.5, 0.0, 0.5]))
    assert w1_lp(mu, nu) == pytest.approx(w1_1d(mu, nu), abs=1e-15)
    assert w1_lp(nu, mu) == pytest.approx(w1_1d(mu, nu), abs=1e-15)
    zero = DiscreteMeasure(np.array([[0.0], [1.0]]), np.zeros(2))
    assert w1_lp(zero, zero) == 0.0


# --- transport LP against the HiGHS oracle, degenerate inputs included ---

@st.composite
def transport_pairs(draw):
    """(mu, nu) in d = 1..3 with up to 30 atoms each: random, uniform n x n,
    identical supports, lattice points with tied costs, 1 x n and m x 1, and
    masses that differ by rounding."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["random", "uniform", "identical", "lattice", "row", "column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if shape in ("uniform", "identical"):
        m = n
    elif shape == "row":
        m = 1
    elif shape == "column":
        n = 1

    def points(k):
        if shape == "lattice":
            return rng.integers(0, 3, (k, dim)).astype(float)
        return rng.uniform(-1.0, 1.0, (k, dim))

    def weights(k):
        return np.full(k, 1.0 / k) if shape == "uniform" else rng.dirichlet(np.ones(k))

    x = points(m)
    y = x.copy() if shape == "identical" else points(n)
    a, b = weights(m), weights(n)
    if draw(st.booleans()):
        b[-1] = np.nextafter(b[-1], 1.0)     # masses 1 ulp apart
    return DiscreteMeasure(x, a), DiscreteMeasure(y, b)


@settings(max_examples=200, deadline=None)
@given(transport_pairs())
def test_w1_lp_matches_highs(pair):
    mu, nu = pair
    assert abs(w1_lp(mu, nu) - _w1_lp_dense(mu, nu)) <= 1e-12
