"""Inf-convolution grid laboratory: envelopes, conjugates, invariance checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgan.envelopes import (GridFn, conjugate_sum_identity_check, grid_axes,
                                 gridfn_from_csv, gridfn_to_csv, inf_conv, legendre,
                                 minimizer_invariance_check, moreau, pasch_hausdorff)
from smoothgan.errors import (GridMismatch, NonPositiveAlpha, NonPositiveBeta,
                              PreconditionViolated, ProblemTooLarge)
from smoothgan.measures import BoxDomain

DOM = BoxDomain(np.array([-3.0]), np.array([3.0]))
STEP = 1e-3
XS = grid_axes(DOM, STEP)[0]


def _grid(values) -> GridFn:
    return GridFn(DOM, STEP, values)


def _chi_zero() -> GridFn:
    v = np.full(len(XS), np.inf)
    v[np.argmin(np.abs(XS))] = 0.0
    return _grid(v)


F_ABS = _grid(np.abs(XS))
F_QUAD = _grid(0.5 * XS ** 2)


def _random_convex(rng, lo=-2.0, hi=2.0) -> GridFn:
    slopes = np.sort(rng.uniform(lo, hi, len(XS) - 1))
    vals = np.concatenate([[0.0], np.cumsum(slopes * STEP)])
    return _grid(vals - vals.min())


def test_gridfn_shape_validation():
    with pytest.raises(GridMismatch):
        GridFn(DOM, STEP, np.zeros(10))
    with pytest.raises(ValueError):
        GridFn(DOM, STEP, np.full(len(XS), np.inf))


def test_infconv_huber_values():
    conv = inf_conv(F_ABS, F_QUAD)
    assert conv.values[np.argmin(np.abs(XS))] == pytest.approx(0.0, abs=1e-12)
    at2 = conv.values[np.argmin(np.abs(XS - 2.0))]
    assert at2 == pytest.approx(1.5, abs=1e-6)


def test_infconv_identity_element():
    conv = inf_conv(F_ABS, _chi_zero())
    assert np.array_equal(conv.values, F_ABS.values)


def test_infconv_requires_same_grid():
    other = GridFn(BoxDomain(np.array([-1.0]), np.array([1.0])), STEP,
                   np.abs(grid_axes(BoxDomain(np.array([-1.0]), np.array([1.0])), STEP)[0]))
    with pytest.raises(GridMismatch):
        inf_conv(F_ABS, other)


def test_infconv_commutative_associative():
    rng = np.random.default_rng(1)
    f, g, h = (_random_convex(rng) for _ in range(3))
    fg, gf = inf_conv(f, g), inf_conv(g, f)
    assert np.array_equal(fg.values, gf.values)
    left = inf_conv(inf_conv(f, g), h)
    right = inf_conv(f, inf_conv(g, h))
    assert np.allclose(left.values, right.values, atol=1e-12)


def test_infconv_dominated_by_f():
    rng = np.random.default_rng(2)
    f = _random_convex(rng)
    conv = inf_conv(f, F_ABS)   # g(0) = 0
    assert np.all(conv.values <= f.values + 1e-15)


def test_pasch_hausdorff_huber():
    ph = pasch_hausdorff(F_QUAD, 1.0)
    truth = np.where(np.abs(XS) <= 1.0, 0.5 * XS ** 2, np.abs(XS) - 0.5)
    assert np.abs(ph.values - truth).max() <= 2e-3


def test_pasch_hausdorff_fixed_point():
    gentle = _grid(0.3 * np.abs(XS))
    ph = pasch_hausdorff(gentle, 1.0)
    assert np.abs(ph.values - gentle.values).max() <= 1e-12


def test_pasch_hausdorff_of_indicator():
    ph = pasch_hausdorff(_chi_zero(), 1.0)
    assert np.abs(ph.values - np.abs(XS)).max() <= 1e-12


def test_pasch_hausdorff_lipschitz():
    rng = np.random.default_rng(3)
    f = _random_convex(rng, -5.0, 5.0)
    for alpha in (0.5, 1.0, 2.0):
        ph = pasch_hausdorff(f, alpha)
        assert np.abs(np.diff(ph.values)).max() / STEP <= alpha * (1 + 1e-9) + STEP


def test_pasch_hausdorff_monotone_in_alpha():
    rng = np.random.default_rng(4)
    f = _random_convex(rng, -5.0, 5.0)
    lo = pasch_hausdorff(f, 0.5)
    hi = pasch_hausdorff(f, 1.5)
    assert np.all(lo.values <= hi.values + 1e-15)


def test_moreau_huber_golden():
    mo = moreau(F_ABS, 1.0)
    truth = np.where(np.abs(XS) <= 1.0, 0.5 * XS ** 2, np.abs(XS) - 0.5)
    assert np.abs(mo.values - truth).max() <= 2e-3


def test_moreau_quadratic_shrink():
    mo = moreau(F_QUAD, 1.0)
    assert np.abs(mo.values - 0.25 * XS ** 2).max() <= 1e-6


def test_moreau_constant():
    c = _grid(np.full(len(XS), 1.75))
    mo = moreau(c, 2.0)
    assert np.allclose(mo.values, 1.75, atol=1e-15)


def test_moreau_below_f_same_min():
    rng = np.random.default_rng(5)
    f = _random_convex(rng)
    mo = moreau(f, 1.0)
    assert np.all(mo.values <= f.values + 1e-15)
    assert mo.values.min() == pytest.approx(f.values.min(), abs=1e-12)


def test_moreau_second_difference_sharp():
    # envelope with coefficient 1/(2 beta) is semiconcave with constant 1/beta;
    # dividing by step^2 amplifies value roundoff to ~1e-8
    rng = np.random.default_rng(6)
    f = _random_convex(rng, -5.0, 5.0)
    for beta in (0.5, 1.0, 2.0):
        mo = moreau(f, beta)
        second = np.abs(np.diff(mo.values, 2)).max() / STEP ** 2
        assert second <= 1.0 / beta + 1e-7


def test_envelope_parameter_validation():
    with pytest.raises(NonPositiveAlpha):
        pasch_hausdorff(F_ABS, 0.0)
    with pytest.raises(NonPositiveBeta):
        moreau(F_ABS, -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonPositiveAlpha):
            pasch_hausdorff(F_ABS, bad)
        with pytest.raises(NonPositiveBeta):
            moreau(F_ABS, bad)


def test_legendre_quadratic():
    lq = legendre(F_QUAD)
    zs = lq.axes()[0]
    assert np.abs(lq.values - 0.5 * zs ** 2).max() <= 1e-12


def test_legendre_abs():
    la = legendre(F_ABS, BoxDomain(np.array([-2.0]), np.array([2.0])), STEP)
    zs = la.axes()[0]
    inside = np.abs(zs) <= 1.0
    assert np.abs(la.values[inside]).max() == 0.0
    # grid-capped growth outside the unit interval
    assert la.values[-1] == pytest.approx(3.0, abs=1e-12)


def test_legendre_linear_gives_indicator_shape():
    lin = _grid(0.5 * XS)
    ll = legendre(lin, BoxDomain(np.array([-2.0]), np.array([2.0])), 0.5)
    zs = ll.axes()[0]
    at_a = np.argmin(np.abs(zs - 0.5))
    assert ll.values[at_a] == pytest.approx(0.0, abs=1e-12)
    assert np.all(ll.values >= -1e-12)
    # away from the slope the conjugate climbs at the domain radius: (z - 1/2) * (-3)
    assert ll.values[0] == pytest.approx(7.5, abs=1e-12)


def test_legendre_convex():
    rng = np.random.default_rng(7)
    f = _random_convex(rng)
    lf = legendre(f)
    slopes = np.diff(lf.values)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_biconjugate_is_convex_hull():
    # a nonconvex double well: biconjugate flattens the middle bump; the dual
    # grid must cover the hull's slope range (here up to 2 * (3 - 1) = 4)
    vals = np.minimum((XS - 1.0) ** 2, (XS + 1.0) ** 2)
    f = _grid(vals)
    dual = BoxDomain(np.array([-4.5]), np.array([4.5]))
    bi = legendre(legendre(f, dual, STEP), DOM, STEP)
    hull = np.where(np.abs(XS) <= 1.0, 0.0, vals)
    interior = slice(100, len(XS) - 100)
    assert np.abs(bi.values[interior] - hull[interior]).max() <= 5e-3


def test_conjugate_sum_identity():
    assert conjugate_sum_identity_check(F_ABS, F_QUAD) <= 2 * STEP
    assert conjugate_sum_identity_check(F_QUAD, _chi_zero()) == 0.0
    assert conjugate_sum_identity_check(F_QUAD, F_QUAD) <= 2 * STEP


def test_minimizer_invariance_examples():
    shifted = _grid((XS - 0.3) ** 2)
    assert minimizer_invariance_check(shifted, F_ABS)
    assert minimizer_invariance_check(shifted, _chi_zero())
    lifted = _grid(np.abs(XS) + 1.0)
    assert minimizer_invariance_check(lifted, _grid(XS ** 2))


def test_minimizer_invariance_precondition():
    bad = _grid(np.abs(XS) + 0.5)   # g(0) != 0
    with pytest.raises(PreconditionViolated):
        minimizer_invariance_check(F_QUAD, bad)


def test_minimizer_invariance_random_convex():
    rng = np.random.default_rng(8)
    for t in range(10):
        f = _random_convex(rng)
        g = _grid(np.abs(XS)) if t % 2 else _grid(XS ** 2)
        assert minimizer_invariance_check(f, g)


def test_gridfn_csv_roundtrip_with_inf():
    v = 0.5 * XS ** 2
    v = np.where(np.abs(XS) > 2.5, np.inf, v)
    f = _grid(v)
    f2 = gridfn_from_csv(gridfn_to_csv(f))
    assert np.array_equal(np.isinf(f.values), np.isinf(f2.values))
    finite = np.isfinite(f.values)
    assert np.allclose(f.values[finite], f2.values[finite], atol=1e-12)


def test_2d_moreau_separable():
    dom2 = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    step = 0.02
    ax = grid_axes(dom2, step)
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    f = GridFn(dom2, step, np.abs(xx) + np.abs(yy))
    mo = moreau(f, 1.0)
    hub = (np.where(np.abs(ax[0]) <= 1, 0.5 * ax[0] ** 2, np.abs(ax[0]) - 0.5)[:, None]
           + np.where(np.abs(ax[1]) <= 1, 0.5 * ax[1] ** 2, np.abs(ax[1]) - 0.5)[None, :])
    assert np.abs(mo.values - hub).max() <= 2 * step


def test_2d_pasch_hausdorff_cone():
    dom2 = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    step = 0.05
    ax = grid_axes(dom2, step)
    chi = np.full((len(ax[0]), len(ax[1])), np.inf)
    chi[len(ax[0]) // 2, len(ax[1]) // 2] = 0.0
    f = GridFn(dom2, step, chi)
    cone = pasch_hausdorff(f, 1.0)
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    assert np.abs(cone.values - np.hypot(xx, yy)).max() <= 1e-12


def test_gridfn_csv_2d_roundtrip():
    dom2 = BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    ax = grid_axes(dom2, 0.25)
    vals = np.arange(len(ax[0]) * len(ax[1]), dtype=float).reshape(len(ax[0]), len(ax[1]))
    f = GridFn(dom2, 0.25, vals)
    f2 = gridfn_from_csv(gridfn_to_csv(f))
    assert np.allclose(f.values, f2.values)


_COARSE_DOM = BoxDomain(np.array([-1.0]), np.array([1.0]))
_COARSE_XS = grid_axes(_COARSE_DOM, 0.05)[0]
values_strategy = st.lists(st.floats(-2.0, 2.0), min_size=len(_COARSE_XS),
                           max_size=len(_COARSE_XS))


@settings(max_examples=40, deadline=None)
@given(values_strategy, values_strategy)
def test_infconv_commutative_property(va, vb):
    f = GridFn(_COARSE_DOM, 0.05, np.array(va))
    g = GridFn(_COARSE_DOM, 0.05, np.array(vb))
    assert np.array_equal(inf_conv(f, g).values, inf_conv(g, f).values)


@settings(max_examples=40, deadline=None)
@given(values_strategy)
def test_envelopes_dominate_property(va):
    # any envelope with a shift function vanishing at the origin sits below f
    f = GridFn(_COARSE_DOM, 0.05, np.array(va))
    assert np.all(pasch_hausdorff(f, 1.0).values <= f.values + 1e-12)
    mo = moreau(f, 1.0)
    assert np.all(mo.values <= f.values + 1e-12)
    assert mo.values.min() == pytest.approx(f.values.min(), abs=1e-12)


def test_2d_scan_cell_cap():
    # a non-separable all-finite shift function on a grid large enough to blow
    # the pair budget must be rejected up front
    dom2 = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    step = 2.0 / 200
    ax = grid_axes(dom2, step)
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    f = GridFn(dom2, step, xx ** 2 + yy ** 2)
    g = GridFn(dom2, step, np.hypot(xx, yy))     # euclidean norm: not separable
    with pytest.raises(GridMismatch):
        inf_conv(f, g)


# --- the hull-based conjugate against the brute-force maximum ---

def _legendre_brute(f: GridFn, dual: BoxDomain, step: float) -> np.ndarray:
    """max over every finite grid point of <x, z> - f(x), by full enumeration."""
    zs = grid_axes(dual, step)
    if f.dim == 1:
        finite = np.isfinite(f.values)
        xs, vs = f.axes()[0][finite], f.values[finite]
        return np.max(zs[0][:, None] * xs - vs, axis=1)
    x0, x1 = f.axes()
    out = np.empty((len(zs[0]), len(zs[1])))
    for i, a in enumerate(zs[0]):
        for j, b in enumerate(zs[1]):
            out[i, j] = np.max(a * x0[:, None] + b * x1 - f.values)
    return out


def _bumpy(rng, xs):
    amp, freq, phase = rng.uniform(0.05, 0.5, 3), rng.uniform(1, 12, 3), rng.uniform(0, 6, 3)
    return (rng.uniform(0.2, 1.0) * xs ** 2 + rng.uniform(-1, 1) * xs
            + sum(amp[k] * np.cos(freq[k] * xs + phase[k]) for k in range(3)))


def _dom1(lo, hi):
    return BoxDomain(np.array([lo]), np.array([hi]))


def _holes(rng, vals, frac):
    out = vals.copy()
    out[rng.uniform(size=len(vals)) < frac] = np.inf
    if not np.any(np.isfinite(out)):
        out[rng.integers(len(out))] = vals[0]
    return out


_CASES_1D = {
    # label: (primal lo, hi, step, values(rng, xs), dual (lo, hi, step) or None)
    "two points": (0.0, 1.0, 1.0, lambda rng, xs: rng.normal(size=2), None),
    "three points": (-1.0, 1.0, 1.0, lambda rng, xs: rng.normal(size=3), (-4.0, 4.0, 0.5)),
    "single finite of two": (0.0, 1.0, 1.0, lambda rng, xs: np.array([np.inf, 0.3]), None),
    "single finite of 101": (-1.0, 1.0, 0.02,
                             lambda rng, xs: np.where(np.arange(101) == 37, -2.5, np.inf), None),
    "bumpy 101": (-1.0, 1.0, 0.02, _bumpy, None),
    "bumpy 6001": (-3.0, 3.0, 1e-3, _bumpy, None),
    "bumpy 6001 holes": (-3.0, 3.0, 1e-3, lambda rng, xs: _holes(rng, _bumpy(rng, xs), 0.3),
                         None),
    "bumpy 101 sparse": (-1.0, 1.0, 0.02, lambda rng, xs: _holes(rng, _bumpy(rng, xs), 0.9),
                         None),
    "bumpy 101 inf ends": (-1.0, 1.0, 0.02,
                           lambda rng, xs: np.where(np.abs(xs) > 0.6, np.inf, _bumpy(rng, xs)),
                           None),
    "linear": (-2.0, 2.0, 0.01, lambda rng, xs: 0.7 * xs - 0.2, None),
    "linear coarse dual": (-2.0, 2.0, 0.01, lambda rng, xs: -1.3 * xs, (-3.0, 3.0, 0.25)),
    "abs": (-3.0, 3.0, 1e-3, lambda rng, xs: np.abs(xs), (-2.0, 2.0, 1e-3)),
    "abs shifted, wide dual": (-1.0, 1.0, 0.02, lambda rng, xs: 2.0 * np.abs(xs - 0.3),
                               (-50.0, 50.0, 0.5)),
    "bumpy wide coarse dual": (-1.0, 1.0, 0.01, _bumpy, (-20.0, 20.0, 0.4)),
    "constant": (-1.0, 1.0, 0.05, lambda rng, xs: np.full(len(xs), 1.75), None),
}


@pytest.mark.parametrize("label", list(_CASES_1D))
def test_legendre_1d_matches_brute_force(label):
    lo, hi, step, values, dual = _CASES_1D[label]
    dom = _dom1(lo, hi)
    rng = np.random.default_rng(list(_CASES_1D).index(label))
    for _ in range(3):
        f = GridFn(dom, step, values(rng, grid_axes(dom, step)[0]))
        ddom, dstep = (_dom1(*dual[:2]), dual[2]) if dual else (dom, step)
        out = legendre(f, ddom, dstep)
        assert out.values.shape == (len(grid_axes(ddom, dstep)[0]),)
        assert np.abs(out.values - _legendre_brute(f, ddom, dstep)).max() <= 1e-12


_DOM2 = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def _grid2(step):
    ax = grid_axes(_DOM2, step)
    return np.meshgrid(ax[0], ax[1], indexing="ij")


def _with_inf_rows(vals):
    out = vals.copy()
    out[[0, 1, 7, 20, -1]] = np.inf
    return out


_CASES_2D = {
    # label: (step, values(gx, gy), dual (lo, hi, step) or None)
    "separable quadratic": (0.05, lambda gx, gy: 0.5 * gx ** 2 + 1.5 * gy ** 2, None),
    "non-separable quadratic": (
        0.05, lambda gx, gy: gx ** 2 + gx * gy + 0.75 * gy ** 2 + 0.3 * gx, None),
    "bumpy": (0.05, lambda gx, gy: 0.6 * gx ** 2 + 0.4 * gy ** 2
              + 0.5 * np.cos(4 * gx) * np.sin(3 * gy), None),
    "bumpy 101^2": (0.02, lambda gx, gy: 0.7 * gx ** 2 + 0.5 * gy ** 2
                    + 0.4 * np.cos(3 * gx) * np.sin(2 * gy), None),
    "inf outside a disk": (0.05, lambda gx, gy: np.where(np.hypot(gx - 0.2, gy) <= 0.55,
                                                         np.cos(5 * gx * gy) + gy, np.inf), None),
    "whole inf rows": (
        0.05, lambda gx, gy: _with_inf_rows(np.abs(gx) + 2 * np.abs(gy) + gx * gy), None),
    "one finite point": (0.05, lambda gx, gy: np.where((gx == gx[3, 0]) & (gy == gy[0, 9]),
                                                       0.25, np.inf), None),
    "bumpy, dual box": (0.05, lambda gx, gy: np.sin(3 * gx + gy) + gx ** 2,
                        ([-3.0, -0.5], [2.0, 4.0], 0.25)),
    "inf rows, wide dual": (0.05, lambda gx, gy: _with_inf_rows(gx ** 2 - gy ** 2),
                            ([-8.0, -8.0], [8.0, 8.0], 0.5)),
}


@pytest.mark.parametrize("label", list(_CASES_2D))
def test_legendre_2d_matches_brute_force(label):
    step, values, dual = _CASES_2D[label]
    f = GridFn(_DOM2, step, values(*_grid2(step)))
    ddom = _DOM2 if dual is None else BoxDomain(np.array(dual[0]), np.array(dual[1]))
    dstep = step if dual is None else dual[2]
    out = legendre(f, ddom, dstep)
    assert np.abs(out.values - _legendre_brute(f, ddom, dstep)).max() <= 1e-12


def test_legendre_holds_no_score_matrix():
    # 6001 x 6001 doubles would take 288 MB; the hull needs a few copies of n
    f = _grid(np.minimum((XS - 1.0) ** 2, (XS + 1.0) ** 2))
    tracemalloc.start()
    try:
        legendre(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21


@settings(max_examples=60, deadline=None)
@given(values_strategy, st.sets(st.integers(0, len(_COARSE_XS) - 1),
                                max_size=len(_COARSE_XS) - 1))
def test_legendre_matches_brute_force_property(va, holes):
    vals = np.array(va)
    vals[sorted(holes)] = np.inf
    f = GridFn(_COARSE_DOM, 0.05, vals)
    for dual, step in ((_COARSE_DOM, 0.05), (_dom1(-90.0, 90.0), 2.5)):
        assert np.abs(legendre(f, dual, step).values
                      - _legendre_brute(f, dual, step)).max() <= 1e-12


# --- grid values and grid steps the envelopes cannot read ---

@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_gridfn_rejects_nan_and_minus_inf(bad):
    v = 0.5 * XS ** 2
    v[3000] = bad
    with pytest.raises(PreconditionViolated):
        _grid(v)


def test_gridfn_rejects_all_plus_inf():
    with pytest.raises(PreconditionViolated):
        _grid(np.full(len(XS), np.inf))


@pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf])
def test_grid_axes_rejects_bad_step(step):
    with pytest.raises(GridMismatch):
        grid_axes(DOM, step)


@pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (0.5, 0.5), (np.nan, 1.0), (-1.0, np.inf),
                                    (-np.inf, 1.0)])
def test_box_rejects_empty_or_reversed(lo, hi):
    with pytest.raises(PreconditionViolated):
        BoxDomain(np.array([lo]), np.array([hi]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")   # 2e300 / 1e-300 is inf
@pytest.mark.parametrize("lo, hi, step", [(-1e6, 1e6, 1e-3), (-1e300, 1e300, 1e-300)])
def test_grid_axes_caps_the_cell_count(lo, hi, step):
    with pytest.raises(ProblemTooLarge):
        grid_axes(_dom1(lo, hi), step)


def test_grid_axes_caps_the_product_of_axes():
    assert [len(a) for a in grid_axes(_DOM2, 1e-3)] == [2001, 2001]
    with pytest.raises(ProblemTooLarge):
        grid_axes(_DOM2, 2e-4)                            # 10001^2 cells


# --- the min-plus kernel against the brute-force minimum over every pair of cells ---

def _infconv_brute(f: GridFn, g: GridFn) -> np.ndarray:
    """min over every pair of cells of f(x) + g(y), placed at the grid point x + y of f."""
    xf = np.stack(np.meshgrid(*f.axes(), indexing="ij"), axis=-1).reshape(-1, f.dim)
    yg = np.stack(np.meshgrid(*g.axes(), indexing="ij"), axis=-1).reshape(-1, g.dim)
    cell = np.rint((xf[:, None, :] + yg[None, :, :] - f.domain.lo) / f.step).astype(int)
    on_grid = np.all((cell >= 0) & (cell < f.values.shape), axis=-1)
    sums = f.values.reshape(-1, 1) + g.values.reshape(1, -1)
    out = np.full(f.values.shape, np.inf)
    np.minimum.at(out, tuple(cell[on_grid].T), sums[on_grid])
    return out


def _holey(rng, shape, frac, inf_rows=0):
    vals = rng.normal(size=shape)
    vals[rng.uniform(size=shape) < frac] = np.inf
    vals[rng.choice(shape[0], inf_rows, replace=False)] = np.inf
    vals.flat[rng.integers(vals.size)] = rng.normal()        # keep at least one finite cell
    return vals


def _difference_grid(f: GridFn) -> tuple[BoxDomain, list[np.ndarray]]:
    span = f.domain.hi - f.domain.lo
    dd = BoxDomain(-span, span)
    return dd, np.meshgrid(*grid_axes(dd, f.step), indexing="ij")


def _ph_pair(rng, f):
    alpha = rng.uniform(0.3, 3.0)
    dd, xs = _difference_grid(f)
    g = GridFn(dd, f.step, alpha * (np.abs(xs[0]) if f.dim == 1
                                    else np.sqrt(xs[0] ** 2 + xs[1] ** 2)))
    return pasch_hausdorff(f, alpha), g


def _moreau_pair(rng, f):
    beta = rng.uniform(0.3, 3.0)
    dd, xs = _difference_grid(f)
    return moreau(f, beta), GridFn(dd, f.step, sum(x ** 2 for x in xs) / (2.0 * beta))


def _shared_pair(frac):
    def pair(rng, f):
        g = GridFn(f.domain, f.step, _holey(rng, f.values.shape, frac))
        return inf_conv(f, g), g
    return pair


def _separable_pair(rng, f):
    ax = f.axes()
    vals = rng.normal(size=len(ax[0]))[:, None] + np.abs(ax[1] - rng.uniform(-1, 1))[None, :]
    g = GridFn(f.domain, f.step, vals)
    return inf_conv(f, g), g


_D1 = _dom1(-1.0, 1.0)                                               # 33 points
_D1_OFF = _dom1(0.25, 2.0)                                           # origin off the grid
_D2 = BoxDomain(np.array([-1.5, -1.5]), np.array([1.75, 1.75]))     # 14^2 points
_D2_OFF = BoxDomain(np.array([-3.0, 0.25]), np.array([-1.0, 2.0]))  # 9 x 8, origin off the grid

_KERNEL_CASES = {
    # label: (domain, step, f hole fraction, whole +inf rows of f, op -> (output, g), exact)
    "1-D ph, holes": (_D1, 1 / 16, 0.3, 0, _ph_pair, True),
    "1-D moreau, holes": (_D1, 1 / 16, 0.3, 0, _moreau_pair, True),
    "1-D ph, f sparser than g": (_D1, 1 / 16, 0.95, 0, _ph_pair, True),
    "1-D inf_conv, g sparser than f": (_D1, 1 / 16, 0.1, 0, _shared_pair(0.9), True),
    "1-D inf_conv, f sparser than g": (_D1, 1 / 16, 0.9, 0, _shared_pair(0.1), True),
    "1-D inf_conv, origin off the grid": (_D1_OFF, 1 / 16, 0.2, 0, _shared_pair(0.2), True),
    "2-D ph, holes and inf rows": (_D2, 0.25, 0.3, 3, _ph_pair, True),
    "2-D ph, f sparser than g": (_D2, 0.25, 0.97, 0, _ph_pair, True),
    "2-D moreau, holes and inf rows": (_D2, 0.25, 0.3, 3, _moreau_pair, False),
    "2-D inf_conv, g sparser than f": (_D2, 0.25, 0.2, 2, _shared_pair(0.9), True),
    "2-D inf_conv, f sparser than g": (_D2, 0.25, 0.9, 0, _shared_pair(0.0), True),
    "2-D inf_conv, separable g": (_D2, 0.25, 0.3, 3, _separable_pair, False),
    "2-D inf_conv, separable g, origin off the grid": (_D2_OFF, 0.25, 0.2, 0, _separable_pair,
                                                       False),
    "2-D inf_conv, origin off the grid": (_D2_OFF, 0.25, 0.2, 1, _shared_pair(0.5), True),
}


@pytest.mark.parametrize("label", list(_KERNEL_CASES))
def test_infconv_matches_brute_force(label):
    dom, step, frac, inf_rows, pair, exact = _KERNEL_CASES[label]
    rng = np.random.default_rng(list(_KERNEL_CASES).index(label))
    shape = tuple(len(a) for a in grid_axes(dom, step))
    for _ in range(4):
        f = GridFn(dom, step, _holey(rng, shape, frac, inf_rows))
        out, g = pair(rng, f)
        brute = _infconv_brute(f, g)
        if exact:
            assert np.array_equal(out.values, brute)
        else:
            assert np.array_equal(np.isinf(out.values), np.isinf(brute))
            finite = np.isfinite(brute)
            assert np.abs(out.values[finite] - brute[finite]).max() <= 1e-12
