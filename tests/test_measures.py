"""Measure construction, arithmetic, CDFs, target sampling, CSV interchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgan.errors import (DimensionMismatch, EmptySupport, NegativeWeight, NonZeroMass,
                              PreconditionViolated, UnknownKind)
from smoothgan.measures import (BoxDomain, cdf_1d, diff, make_discrete, make_signed,
                                measure_from_csv, measure_to_csv, random_measure,
                                require_mass_zero, sample_target)


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
