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
from smoothgan.discriminators import grad_phi_mmd, grad_phi_w1_1d
from smoothgan.divergences import LOSSES, KernelSpec, LossKind, kr_norm_1d, mmd_sq
from smoothgan.errors import (DimensionMismatch, EmptySupport, GradientUnsupported, NegativeWeight,
                             PointOffSupport, PreconditionViolated)
from smoothgan.measures import (BoxDomain, _atoms, _merge_atoms, diff, make_discrete,
                                make_signed, measure_from_csv, pack_measures, random_atoms,
                                random_measure)
from smoothgan.rng import child_rng
from smoothgan.smoothness import (OracleFamily, SATURATION_THRESHOLD, bregman, build_report,
                                  estimate_alpha, estimate_beta1, estimate_beta2,
                                  kernel_cross_hessian_norm)
from smoothgan.measures import DiscreteMeasure
from smoothgan.verify import MASTER_SEED

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
    monkeypatch.setattr(smoothness, "random_atoms",
                        lambda rng, dim, domain: (np.array([[0.25]]), np.array([1.0])))
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


@pytest.mark.parametrize("estimate", [estimate_alpha, estimate_beta1, estimate_beta2])
def test_w1_gradients_need_one_dimension(estimate):
    with pytest.raises(DimensionMismatch, match="1-D"):
        estimate(OracleFamily("w1", dim=2), BoxDomain.unit(2), 3, 11, seed=1)


def test_estimates_over_a_nan_oracle_are_nan(monkeypatch):
    # one trial's gradients NaN, the others finite: a fold by max() would drop the NaN
    real_grad = OracleFamily.grad

    def nan_first_row(self, mu, mu0, x):
        g = real_grad(self, mu, mu0, x)
        g[0] = np.nan
        return g

    monkeypatch.setattr(OracleFamily, "grad", nan_first_row)
    fam = OracleFamily("mmd", dim=1, kernel=KC)
    for estimate in (estimate_alpha, estimate_beta1, estimate_beta2):
        assert math.isnan(estimate(fam, BOX, 6, 11, seed=1))
    rep = build_report(fam, BOX, 6, 11, seed=1)
    assert all(math.isnan(v) for v in (rep.alpha_hat, rep.beta1_hat, rep.beta2_hat))
    assert not (rep.alpha_saturated or rep.beta1_saturated or rep.beta2_saturated)


def test_build_report_caps_saturation():
    rep = build_report(OracleFamily("w1", dim=1), BOX, 50, 101, seed=3)
    assert rep.beta1_saturated
    assert rep.beta1_hat == SATURATION_THRESHOLD
    assert rep.alpha_hat <= 1.0 + 1e-9
    d = rep.to_dict()
    assert d["n_trials"] == 50 and d["beta1_saturated"] is True


# --- the batched estimators against the per-trial loops they replaced ---

def _ref_eval_points(domain, grid_pts, rng, extra):
    if domain.dim == 1:
        pts = np.linspace(domain.lo[0], domain.hi[0], grid_pts)[:, None]
    else:
        pts = rng.uniform(domain.lo, domain.hi, size=(grid_pts, domain.dim))
    return np.vstack([pts, extra])


def _ref_grad(family, mu, mu0, x):
    if family.kind == "mmd":
        return grad_phi_mmd(mu, mu0, family.kernel, x)
    return grad_phi_w1_1d(mu, mu0, x)


def ref_alpha(family, domain, n_measures, grid_pts, seed):
    """The per-trial loop: one oracle call on one measure pair per trial."""
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 0, t)
        mu = random_measure(rng, family.dim, domain)
        mu0 = random_measure(rng, family.dim, domain)
        pts = _ref_eval_points(domain, grid_pts, rng, np.vstack([mu.points, mu0.points]))
        best = max(best, float(np.linalg.norm(_ref_grad(family, mu, mu0, pts), axis=1).max()))
    return best


def ref_beta1(family, domain, n_measures, n_point_pairs, seed):
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 1, t)
        mu = random_measure(rng, family.dim, domain)
        mu0 = random_measure(rng, family.dim, domain)
        atoms = np.vstack([mu.points, mu0.points])
        use_atom = rng.random(n_point_pairs) < 0.5
        anchors = rng.uniform(domain.lo, domain.hi, size=(n_point_pairs, domain.dim))
        atom_ix = rng.integers(0, len(atoms), size=n_point_pairs)
        anchors[use_atom] = atoms[atom_ix[use_atom]]
        h = 10.0 ** rng.uniform(-7, 0, size=n_point_pairs)
        direc = rng.standard_normal((n_point_pairs, domain.dim))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        others = np.clip(anchors + h[:, None] * direc, domain.lo, domain.hi)
        sep = np.linalg.norm(anchors - others, axis=1)
        ok = sep > 0
        grads = _ref_grad(family, mu, mu0, np.concatenate([anchors, others]))
        gap = grads[:n_point_pairs] - grads[n_point_pairs:]
        ratios = np.linalg.norm(gap, axis=1)[ok] / sep[ok]
        if ratios.size:
            best = max(best, float(ratios.max()))
    return best


def _ref_beta2_pair(family, domain, rng, t):
    mu = random_measure(rng, family.dim, domain)
    if t % 2 == 0:
        return mu, random_measure(rng, family.dim, domain)
    h = 10.0 ** rng.uniform(-3, math.log10(0.5))
    direc = rng.standard_normal(domain.dim)
    direc /= np.linalg.norm(direc)
    nu_pts = np.clip(mu.points + h * direc, domain.lo, domain.hi)
    return mu, DiscreteMeasure(nu_pts, mu.weights.copy())


def ref_beta2(family, domain, n_measure_pairs, grid_pts, seed):
    best = 0.0
    for t in range(n_measure_pairs):
        rng = child_rng(seed, 2, t)
        mu, nu = _ref_beta2_pair(family, domain, rng, t)
        dist = LOSSES["w1"].value(mu, nu, None)
        if dist < 1e-12:
            continue
        mu0 = random_measure(rng, family.dim, domain)
        pts = _ref_eval_points(domain, grid_pts, rng, np.vstack([mu.points, nu.points]))
        gap = _ref_grad(family, mu, mu0, pts) - _ref_grad(family, nu, mu0, pts)
        sup = float(np.linalg.norm(gap, axis=1).max())
        best = max(best, sup / dist)
    return best


ESTIMATORS = {"alpha": (estimate_alpha, ref_alpha), "beta1": (estimate_beta1, ref_beta1),
              "beta2": (estimate_beta2, ref_beta2)}
# largest relative change of an MMD estimate against the per-trial loop: the batched kernel
# sums add zero-weight padding and so sum in another order, a few ulps per gradient.  beta2
# divides gradient gaps of jitters down to 1e-3 and beta1 of separations down to 1e-7, which
# magnify those ulps about 1e3 and 1e7 times
MMD_REL = {"alpha": 1e-13, "beta1": 1e-8, "beta2": 1e-12}
# the benchmark's nine estimator ops: family, dimension, trials, grid points
WORKBENCH = [("mmd", 1, 60, 201), ("mmd", 2, 15, 200), ("w1", 1, 60, 201)]


def _family(kind, dim):
    return OracleFamily(kind, dim=dim, kernel=None if kind == "w1" else KC)


def _assert_matches_loop(name, fam, box, trials, size, seed):
    batched, loop = (f(fam, box, trials, size, seed) for f in ESTIMATORS[name])
    if fam.kind == "w1":
        assert repr(batched) == repr(loop)
    else:
        assert batched == pytest.approx(loop, rel=MMD_REL[name], abs=0.0)
        assert batched > 0.0


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("kind, dim, trials, grid_pts", WORKBENCH)
@pytest.mark.parametrize("seed", [1, 2, 29])
def test_batched_estimates_match_the_per_trial_loop(name, kind, dim, trials, grid_pts, seed):
    # W1 equal by repr, MMD within MMD_REL; the sizes are the benchmark's
    size = max(grid_pts // 4, 8) if name == "beta1" else grid_pts
    _assert_matches_loop(name, _family(kind, dim), BoxDomain.unit(dim), trials, size, seed)


def test_verify_beta2_call_matches_the_per_trial_loop():
    _assert_matches_loop("beta2", MMD_FAM, BOX, 500, 201, MASTER_SEED)


@pytest.mark.parametrize("kind", ["mmd", "w1"])
def test_beta2_jitter_atoms_clipped_onto_one_boundary_point(kind):
    # seed 1's trial 1 jitters two atoms past the box: its nu holds one point twice,
    # so both of its pooled supports merge atoms, as diff does
    mu, nu = _ref_beta2_pair(MMD_FAM, BOX, child_rng(1, 2, 1), 1)
    assert len(np.unique(nu.points)) < nu.n_atoms
    _assert_matches_loop("beta2", _family(kind, 1), BOX, 2, 101, 1)


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("kind, dim", [("mmd", 1), ("mmd", 2), ("w1", 1)])
def test_chunks_cross_trial_boundaries_with_one_gram_each(monkeypatch, name, kind, dim):
    # a cap of 7 trials' cells splits 23 trials into chunks of 7, 7, 7 and 2; each
    # chunk makes one Gram call (MMD) over all its rows, and the estimate matches the loop
    size = 10 if name == "beta1" else 41
    rows = 2 if name == "beta2" else 1
    monkeypatch.setattr(smoothness, "_CHUNK_CELLS",
                        7 * rows * (2 * size if name == "beta1" else size + 16) * 16)
    calls = []
    gram = KernelSpec.gram

    def counted(self, x, y):
        calls.append(x.shape[:-2])
        return gram(self, x, y)

    batched, loop = ESTIMATORS[name]
    fam, box = _family(kind, dim), BoxDomain.unit(dim)
    monkeypatch.setattr(KernelSpec, "gram", counted)
    est = batched(fam, box, 23, size, 4)
    monkeypatch.setattr(KernelSpec, "gram", gram)
    assert calls == ([(7 * rows,)] * 3 + [(2 * rows,)] if kind == "mmd" else [])
    if kind == "w1":
        assert repr(est) == repr(loop(fam, box, 23, size, 4))
    else:
        assert est == pytest.approx(loop(fam, box, 23, size, 4), rel=MMD_REL[name], abs=0.0)


# --- the one measure builder against the one-measure constructors' former bodies ---

def _ref_make_discrete(points, weights) -> DiscreteMeasure:
    """The reference probability measure: make_discrete's body before it was one-row
    pack_measures.  Merge duplicate atoms, drop merged weight 0, divide by the total."""
    pts, w = _atoms(points, weights)
    if pts.shape[0] == 0:
        raise EmptySupport("a measure needs at least one atom")
    if (w < 0).any():
        raise NegativeWeight("probability weights must be nonnegative")
    if not w.any():
        raise NegativeWeight("weights must have positive total mass")
    with np.errstate(over="ignore"):
        pts, w = _merge_atoms(pts, w)
        if not w.all():
            pts, w = pts[w > 0], w[w > 0]
        total = w.sum()
    if not np.isfinite(total):
        raise PreconditionViolated("atom weights must have a finite total")
    return DiscreteMeasure(pts, w / total)


def _ref_make_signed(points, weights) -> DiscreteMeasure:
    """The reference signed measure: make_signed's body before it was one-row pack_measures."""
    return DiscreteMeasure(*_merge_atoms(*_atoms(points, weights)))


def _builder_case(rng, dim, signed):
    """Seeded atoms for a builder: 1 to 39 of them, most rounded to a grid and some of those
    moved by 1e-13 so that they merge, weights with zeros and -0.0 among them, and 1-D points
    now and then as a flat list."""
    k = int(rng.integers(1, 40))
    pts = rng.uniform(-1, 1, (k, dim))
    step = rng.choice([0.0, 0.1, 0.5])
    if step:
        pts = np.round(pts / step) * step + 1e-13 * (rng.random((k, dim)) < 0.3)
    w = rng.standard_normal(k) if signed else rng.dirichlet(np.ones(k))
    w[rng.random(k) < 0.2] = 0.0
    w[rng.random(k) < 0.1] = -0.0
    if not signed and not w.any():
        w[0] = 1.0
    if dim == 1 and rng.random() < 0.5:
        return pts[:, 0].tolist(), w.tolist()
    return pts, w


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_make_discrete_and_make_signed_are_the_reference_bytes(dim, signed):
    make, ref = (make_signed, _ref_make_signed) if signed else (make_discrete, _ref_make_discrete)
    rng = np.random.default_rng(101 + dim + 10 * signed)
    merged = dropped = 0
    for _ in range(300):
        pts, w = _builder_case(rng, dim, signed)
        m, r = make(pts, w), ref(pts, w)
        assert m.points.tobytes() == r.points.tobytes()
        assert m.weights.tobytes() == r.weights.tobytes()
        merged += m.n_atoms < len(w)
        dropped += not signed and np.count_nonzero(w) < len(w)
    assert merged > 50 and (signed or dropped > 50)


def test_signed_weights_that_overflow_when_merged_are_refused():
    # two coincident atoms of weight 1e308 merge to inf, refused with no numpy warning first;
    # apart, the same weights are a signed measure
    for build in (lambda: make_signed([0.0, 0.0], [1e308, 1e308]),
                  lambda: make_signed([[0.5, 0.1], [0.5, 0.1 + 1e-13]], [-1e308, -1e308]),
                  lambda: measure_from_csv("x_1,w\n0,1e308\n0,1e308\n", signed=True),
                  lambda: pack_measures(np.zeros((3, 1)), np.array([1.0, 1e308, 1e308]),
                                        np.array([0, 1, 1]), 2, signed=True)):
        with pytest.raises(PreconditionViolated, match="finite total"):
            build()
    assert make_signed([0.0, 1.0], [1e308, 1e308]).weights.tolist() == [1e308, 1e308]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_packed_measures_are_random_measure_bytes(dim):
    # every row of one pack equals the reference make_discrete of its own draw, byte for byte
    box = BoxDomain.unit(dim)
    draws = [random_atoms(child_rng(5, dim, t), dim, box) for t in range(400)]
    rows = np.repeat(np.arange(400), [len(w) for _, w in draws])
    pts, w, n = pack_measures(np.concatenate([p for p, _ in draws]),
                              np.concatenate([w for _, w in draws]), rows, 400)
    assert np.count_nonzero(n == 8) > 20 and pts.shape == (400, 8, dim)
    for t in range(400):
        m = _ref_make_discrete(*draws[t])
        assert n[t] == m.n_atoms
        assert pts[t, :n[t]].tobytes() == m.points.tobytes()
        assert w[t, :n[t]].tobytes() == m.weights.tobytes()
        assert not w[t, n[t]:].any()


def _assert_packed_rows_are_make_bytes(rows_in, signed):
    """pack_measures of rows_in, (points, weights) per row, against the reference make_* of
    each row alone; returns the counts."""
    make = _ref_make_signed if signed else _ref_make_discrete
    pts = np.concatenate([np.array(p, dtype=float) for p, _ in rows_in])
    wts = np.concatenate([np.array(w, dtype=float) for _, w in rows_in])
    rows = np.repeat(np.arange(len(rows_in)), [len(w) for _, w in rows_in])
    out_p, out_w, n = pack_measures(pts, wts, rows, len(rows_in), signed)
    for r, (p, w) in enumerate(rows_in):
        m = make(p, w)
        assert n[r] == m.n_atoms
        assert out_p[r, :n[r]].tobytes() == m.points.tobytes()
        assert out_w[r, :n[r]].tobytes() == m.weights.tobytes()
        assert not out_w[r, n[r]:].any()
    return n.tolist()


@pytest.mark.parametrize("signed", [False, True])
def test_packed_rows_that_merge_take_the_one_merge_kernel(signed):
    # atoms closer than MERGE_TOL, a zero weight and negative weights, against make_*; the
    # last row's first atom lies within MERGE_TOL of the row before's last, and stays apart
    rows_in = [([[0.5], [0.1], [0.5 + 1e-13], [-0.3]], [0.2, 0.3, 0.1, 0.4]),
               ([[0.2], [0.7]], [0.0, 1.0]),
               ([[0.9], [0.2], [0.4]], [0.5, 0.25, 0.25] if not signed else [0.5, -0.25, -0.25]),
               ([[0.95], [0.9 + 1e-13]], [0.5, 0.5])]
    assert _assert_packed_rows_are_make_bytes(rows_in, signed) == [3, 2 if signed else 1, 3, 2]


@pytest.mark.parametrize("signed", [False, True])
def test_packed_2d_rows_merge_by_the_second_coordinate_never_across_rows(signed):
    # row 0 merges two atoms whose first coordinates are equal and second ones within
    # MERGE_TOL; row 1's first atom lies within MERGE_TOL of row 0's last, and its two atoms
    # share a first coordinate to within MERGE_TOL but not the second
    rows_in = [([[0.3, 0.2], [0.3, 0.7], [0.3, 0.2 + 1e-13], [-0.1, 0.0]],
                [0.1, 0.3, 0.2, 0.4] if not signed else [0.1, -0.3, 0.2, -0.4]),
               ([[0.3 + 1e-13, -0.5], [0.3, 0.7 + 1e-13]], [0.5, 0.5])]
    assert _assert_packed_rows_are_make_bytes(rows_in, signed) == [3, 2]


@pytest.mark.parametrize("signed", [False, True])
def test_pack_refuses_weights_that_are_not_finite(signed):
    pts, rows = np.array([[0.1], [0.2], [0.3]]), np.array([0, 0, 1])
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionViolated):
            pack_measures(pts, np.array([0.5, bad, 1.0]), rows, 2, signed)


def test_pack_refuses_a_row_whose_weight_total_overflows():
    # probability rows divide by their total; signed rows do not, and pack as make_signed
    pts, w, rows = np.array([[0.1], [0.2], [0.3]]), np.array([1.0, 1e308, 1e308]), [0, 1, 1]
    with pytest.raises(PreconditionViolated, match="finite total"):
        pack_measures(pts, w, np.array(rows), 2)
    assert _assert_packed_rows_are_make_bytes([(pts[:1], w[:1]), (pts[1:], w[1:])], True) == [
        1, 2]


@pytest.mark.parametrize("signed", [False, True])
def test_pack_refuses_an_empty_row(signed):
    with pytest.raises(EmptySupport):
        pack_measures(np.array([[0.1], [0.2]]), np.array([0.5, 0.5]), np.array([0, 2]), 3, signed)


@pytest.mark.parametrize("weights", [[-0.5, 1.5], [0.0, 0.0]])
def test_pack_refuses_what_make_discrete_refuses(weights):
    # a negative probability weight, or a row of total mass 0, raised without a warning;
    # as signed rows both pack
    pts, w = np.array([[0.1], [0.2], [0.3]]), np.array([*weights, 1.0])
    with pytest.raises(NegativeWeight):
        make_discrete(pts[:2], w[:2])
    with pytest.raises(NegativeWeight):
        pack_measures(pts, w, np.array([0, 0, 1]), 2)
    assert _assert_packed_rows_are_make_bytes([(pts[:2], w[:2]), (pts[2:], w[2:])], True) == [
        2, 1]


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
