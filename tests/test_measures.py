"""Measure construction, arithmetic, CDFs, target sampling, CSV interchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from smoothgan.errors import (DimensionMismatch, EmptySupport, NegativeWeight, NonZeroMass,
                              PreconditionViolated, UnknownKind)
from smoothgan.measures import (BoxDomain, cdf_1d, diff, make_discrete, make_signed,
                                measure_from_csv, measure_to_csv, random_measure,
                                require_mass_zero, sample_target)
from smoothgan.divergences import align_many
from smoothgan.errors import ConfigError
from smoothgan.measures import MERGE_TOL, _merge_atoms


def test_single_atom():
    m = make_discrete([0.0], [1.0])
    assert m.n_atoms == 1
    assert m.weights[0] == 1.0
    assert m.dim == 1


def test_duplicates_merged():
    m = make_discrete([0.0, 0.0], [2.0, 2.0])
    assert m.n_atoms == 1
    assert m.weights[0] == 1.0


def test_normalization():
    m = make_discrete([0.0, 1.0], [1.0, 3.0])
    assert np.allclose(m.weights, [0.25, 0.75])


def test_weights_sum_to_one():
    rng = np.random.default_rng(0)
    m = make_discrete(rng.uniform(-1, 1, size=(6, 2)), rng.uniform(0.1, 2.0, 6))
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_construction_errors():
    with pytest.raises(EmptySupport):
        make_discrete(np.zeros((0, 1)), [])
    with pytest.raises(NegativeWeight):
        make_discrete([0.0, 1.0], [0.5, -0.1])
    with pytest.raises(DimensionMismatch):
        make_discrete([[0.0, 1.0]], [0.5, 0.5])


@pytest.mark.parametrize("make", [make_discrete, make_signed])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(make, bad):
    with pytest.raises(PreconditionViolated):
        make([0.0, bad], [0.5, 0.5])
    with pytest.raises(PreconditionViolated):
        make([[0.0, 1.0], [0.5, bad]], [0.5, 0.5])
    with pytest.raises(PreconditionViolated):
        make([0.0, 1.0], [0.5, bad])


def test_merged_weight_sums_to_one():
    # 1/1.75 + 0.25/1.75 + 0.5/1.75 is 1 - 1 ulp; merging first makes it exact
    m = make_discrete([0.0, 0.0, 0.0], [1.0, 0.25, 0.5])
    assert m.n_atoms == 1 and m.weights[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(0.01, 2.0)), min_size=1, max_size=8))
def test_make_discrete_idempotent(atoms):
    pts = [a for a, _ in atoms]
    ws = [w for _, w in atoms]
    m = make_discrete(pts, ws)
    m2 = make_discrete(m.points, m.weights)
    assert np.array_equal(m.points, m2.points)
    assert np.allclose(m.weights, m2.weights, atol=1e-15)


def test_diff_self_is_zero():
    m = make_discrete([0.0, 0.5], [0.4, 0.6])
    xi = diff(m, m)
    assert np.allclose(xi.weights, 0.0)
    assert xi.is_mass_zero


def test_diff_two_deltas():
    xi = diff(make_discrete([1.0], [1.0]), make_discrete([0.0], [1.0]))
    assert xi.is_mass_zero
    w_at = {float(p): w for p, w in zip(xi.points[:, 0], xi.weights)}
    assert w_at[1.0] == 1.0 and w_at[0.0] == -1.0


def test_diff_partial_overlap():
    xi = diff(make_discrete([0.0, 1.0], [0.5, 0.5]), make_discrete([0.0], [1.0]))
    w_at = {float(p): w for p, w in zip(xi.points[:, 0], xi.weights)}
    assert w_at[0.0] == -0.5 and w_at[1.0] == 0.5


def test_diff_antisymmetry():
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    fwd, bwd = diff(mu, nu), diff(nu, mu)
    both = make_signed(np.vstack([fwd.points, bwd.points]),
                       np.concatenate([fwd.weights, bwd.weights]))
    assert np.allclose(both.weights, 0.0, atol=1e-15)


def test_cdf_examples():
    d0 = make_discrete([0.0], [1.0])
    assert cdf_1d(d0, -1.0) == 0.0
    assert cdf_1d(d0, 0.0) == 1.0
    half = make_discrete([0.0, 1.0], [0.5, 0.5])
    assert cdf_1d(half, 0.5) == 0.5
    with pytest.raises(DimensionMismatch):
        cdf_1d(make_discrete([[0.0, 0.0]], [1.0]), 0.0)


def test_cdf_signed_measure():
    xi = diff(make_discrete([1.0], [1.0]), make_discrete([0.0], [1.0]))
    assert cdf_1d(xi, -0.5) == 0.0
    assert cdf_1d(xi, 0.5) == -1.0
    assert cdf_1d(xi, 1.5) == pytest.approx(0.0, abs=1e-15)


def test_cdf_nondecreasing_reaches_one():
    rng = np.random.default_rng(2)
    m = random_measure(rng, 1)
    grid = np.linspace(-1, 1, 101)
    vals = [cdf_1d(m, x) for x in grid]
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_sample_target_grid():
    m = sample_target("grid_uniform", 4, 0)
    assert m.n_atoms == 4
    assert np.allclose(m.weights, 0.25)


def test_sample_target_deterministic():
    a = sample_target("ring", 8, 5)
    b = sample_target("ring", 8, 5)
    assert np.array_equal(a.points, b.points)


def test_ring_radius():
    m = sample_target("ring", 100, 3)
    radii = np.linalg.norm(m.points, axis=1)
    assert np.all(np.abs(radii - 0.5) <= 1e-9)


def test_targets_inside_unit_box():
    box = BoxDomain.unit(2)
    for kind in ("ring", "gaussian_mixture", "grid_uniform"):
        assert box.contains(sample_target(kind, 50, 9).points)


def test_unknown_kind():
    with pytest.raises(UnknownKind):
        sample_target("spiral", 10, 0)


def test_csv_roundtrip():
    m = make_discrete([[0.1, -0.2], [0.3, 0.4]], [0.25, 0.75])
    m2 = measure_from_csv(measure_to_csv(m))
    assert np.allclose(m.points, m2.points)
    assert np.allclose(m.weights, m2.weights)


def test_csv_header_required():
    with pytest.raises(ValueError):
        measure_from_csv("0.1,0.9\n")


def test_signed_csv_roundtrip():
    xi = diff(make_discrete([0.0], [1.0]), make_discrete([1.0], [1.0]))
    xi2 = measure_from_csv(measure_to_csv(xi), signed=True)
    assert np.allclose(xi.weights, xi2.weights)


def test_require_mass_zero():
    with pytest.raises(NonZeroMass):
        require_mass_zero(make_signed([0.0], [0.5]))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain(np.array([1.0]), np.array([-1.0]))


# --- the atom-merge kernel against brute-force oracles ---

def _merge_loop(points, weights):
    """Sequential merge of lexicographic neighbours: the kernel's former loop form."""
    order = np.lexsort(points.T[::-1])
    pts, w = points[order], weights[order]
    keep_pts, keep_w = [], []
    for p, wi in zip(pts, w):
        if keep_pts and np.max(np.abs(p - keep_pts[-1])) < MERGE_TOL:
            keep_w[-1] += wi
        else:
            keep_pts.append(p)
            keep_w.append(wi)
    return np.array(keep_pts), np.array(keep_w)


def _sup_dist(points):
    return np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=-1)


def _components(points):
    """Connected components of the graph joining atoms closer than MERGE_TOL (O(n^2))."""
    _, labels = connected_components(_sup_dist(points) < MERGE_TOL, directed=False)
    return {frozenset(np.flatnonzero(labels == c)) for c in np.unique(labels)}


def _partition(points):
    """The kernel's groups, read off an identity weight matrix."""
    _, member = _merge_atoms(points, np.eye(len(points)))
    return {frozenset(np.flatnonzero(row)) for row in member}


def _lattice(rng, d, jitter):
    """Lattice points, each with 0-2 copies jittered by up to `jitter` per coordinate."""
    side = {1: 40, 2: 8, 3: 4}[d]
    grid = np.stack(np.meshgrid(*[np.linspace(-0.7, 0.7, side)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    copies = [grid]
    for _ in range(2):
        pick = grid[rng.random(len(grid)) < 0.5]
        if jitter:
            mag = 10.0 ** rng.uniform(-14, np.log10(jitter), size=pick.shape)
            pick = pick + rng.choice([-1.0, 1.0], size=pick.shape) * mag
        copies.append(pick)
    pts = np.vstack(copies)
    return pts[rng.permutation(len(pts))]


def _cloud(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1, 1, size=(150, d))
    return _lattice(rng, d, {"lattice": 0.0, "jitter_small": 1e-14, "jitter_large": 5e-13}[kind])


def _check_merged(points, weights, out_pts, out_w):
    assert np.isclose(out_w.sum(), weights.sum(), rtol=1e-13)
    gaps = _sup_dist(out_pts) + np.eye(len(out_pts)) * MERGE_TOL
    assert gaps.min() >= MERGE_TOL
    again_pts, again_w = _merge_atoms(out_pts, out_w)
    assert np.array_equal(again_pts, out_pts) and np.array_equal(again_w, out_w)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["uniform", "lattice", "jitter_small", "jitter_large"])
def test_merge_kernel_matches_components(kind, d):
    pts = _cloud(kind, d, seed=10 * d)
    w = np.random.default_rng(d).random(len(pts))
    assert _partition(pts) == _components(pts)
    _check_merged(pts, w, *_merge_atoms(pts, w))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["uniform", "lattice"])
def test_merge_kernel_bitwise_matches_loop(kind, d):
    # no near-duplicates: atoms are equal or at least MERGE_TOL apart
    pts = _cloud(kind, d, seed=d)
    w = np.random.default_rng(7 + d).random(len(pts))
    loop_pts, loop_w = _merge_loop(pts, w)
    out_pts, out_w = _merge_atoms(pts, w)
    assert np.array_equal(out_pts, loop_pts) and np.array_equal(out_w, loop_w)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_merge_kernel_on_dense_chains(d):
    # 40 atoms in a box a few MERGE_TOL wide: gaps below MERGE_TOL chain atoms
    # together, so groups can be coarser than the components, never finer
    rng = np.random.default_rng(d)
    pts = 0.3 + rng.uniform(0, 4 * MERGE_TOL, size=(40, d))
    w = rng.random(40)
    groups = _partition(pts)
    assert all(any(c <= g for g in groups) for c in _components(pts))
    if d == 1:
        assert groups == _components(pts)
    _check_merged(pts, w, *_merge_atoms(pts, w))


def test_merge_kernel_column_weights():
    pts = np.array([[0.5, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 1.0 + 1e-13]])
    w = np.arange(8.0).reshape(4, 2)
    out_pts, out_w = _merge_atoms(pts, w)
    assert np.array_equal(out_pts, [[0.0, 1.0], [0.5, 0.0]])
    assert np.array_equal(out_w, [[2.0 + 6.0, 3.0 + 7.0], [0.0 + 4.0, 1.0 + 5.0]])


def test_near_duplicates_merged():
    pts = [[0.0, 1.0], [5e-14, 0.0], [1e-13, 1.0]]
    m = make_discrete(pts, [1.0, 1.0, 1.0])
    assert m.n_atoms == 2
    assert np.array_equal(m.points, [[0.0, 1.0], [5e-14, 0.0]])
    assert np.allclose(m.weights, [2 / 3, 1 / 3])
    union, ws = align_many([make_discrete([p], [1.0]) for p in pts])
    assert np.array_equal(union, m.points)
    assert [w.tolist() for w in ws] == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("text", ["x_1,v\n0.3,1\n", "x_1,w\n0.3,abc\n",
                                  "x_1,x_2,w\n0.3,0.1,1\n0.5,1\n"])
def test_malformed_csv_config_error(text):
    with pytest.raises(ConfigError):
        measure_from_csv(text)


@pytest.mark.parametrize("n, seed", [(8, -1), (2.5, 0), (8, 1.5), (True, 0), ("8", 0)])
def test_sample_target_rejects_bad_n_or_seed(n, seed):
    with pytest.raises(ConfigError):
        sample_target("ring", n, seed)


def test_sample_target_takes_numpy_integers():
    assert np.array_equal(sample_target("ring", np.int64(8), np.int64(5)).points,
                          sample_target("ring", 8, 5).points)
