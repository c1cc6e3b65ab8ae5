"""Finite-dimensional inf-convolution on uniform grids.

Grid functions may take the value +inf (indicators are first class); a grid
function is +inf off its grid, so every discrete infimum below is the exact
infimum of the grid-truncated extended-real function.  The Pasch-Hausdorff
envelope (inf-convolution with alpha * Euclidean norm) produces an
alpha-Lipschitz function; the Moreau envelope (with a quadratic) produces one
with Lipschitz gradient.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, EmptyDomain, GridMismatch, NonPositiveAlpha, NonPositiveBeta,
                     PreconditionViolated)
from .measures import BoxDomain

_CELL_PAIR_CAP = 10 ** 9


def grid_axes(domain: BoxDomain, step: float) -> list[np.ndarray]:
    """Per-axis coordinate arrays; endpoints must be whole numbers of steps apart."""
    if not (math.isfinite(step) and step > 0):
        raise GridMismatch(f"grid step must be finite and positive, got {step}")
    axes = []
    for lo, hi in zip(domain.lo, domain.hi):
        n_float = (hi - lo) / step
        n = int(round(n_float))
        if abs(n_float - n) > 1e-6:
            raise GridMismatch(f"domain [{lo}, {hi}] is not a whole number of steps {step}")
        axes.append(lo + step * np.arange(n + 1))
    return axes


@dataclass(frozen=True)
class GridFn:
    """Function sampled on a uniform 1-D or 2-D grid; +inf entries allowed."""

    domain: BoxDomain
    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.domain.dim not in (1, 2):
            raise GridMismatch("grids are 1-D or 2-D")
        axes = grid_axes(self.domain, self.step)
        shape = tuple(len(a) for a in axes)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (shape if len(shape) > 1 else (shape[0],)):
            raise GridMismatch(f"values shape {vals.shape} does not match grid {shape}")
        if np.any(np.isnan(vals) | (vals == -np.inf)):
            raise PreconditionViolated("grid values must be finite or +inf, not NaN or -inf")
        if not np.any(np.isfinite(vals)):
            raise PreconditionViolated("grid function must be proper (some finite value)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.domain.dim

    def axes(self) -> list[np.ndarray]:
        return grid_axes(self.domain, self.step)

    def same_grid(self, other: "GridFn") -> bool:
        return (self.dim == other.dim
                and abs(self.step - other.step) < 1e-12
                and np.allclose(self.domain.lo, other.domain.lo, atol=1e-12)
                and np.allclose(self.domain.hi, other.domain.hi, atol=1e-12))


def _origin_offsets(g: GridFn) -> list[int]:
    """Integer index of coordinate 0 relative to g's lower corner, per axis."""
    offsets = []
    for lo in g.domain.lo:
        m = -lo / g.step
        mi = int(round(m))
        if abs(m - mi) > 1e-6:
            raise GridMismatch("shift grid must be aligned with the origin")
        offsets.append(mi)
    return offsets


def _infconv_1d(f_vals: np.ndarray, g_vals: np.ndarray, g_zero_ix: int) -> np.ndarray:
    """out[i] = min_j f[j] + g[i - j + g_zero_ix]; g is +inf off its index range."""
    n, m = len(f_vals), len(g_vals)
    out = np.full(n, np.inf)
    for j in np.flatnonzero(np.isfinite(f_vals)):
        lo_i = max(0, j - g_zero_ix)
        hi_i = min(n - 1, j - g_zero_ix + m - 1)
        if lo_i > hi_i:
            continue
        sl = slice(lo_i - j + g_zero_ix, hi_i - j + g_zero_ix + 1)
        np.minimum(out[lo_i:hi_i + 1], f_vals[j] + g_vals[sl], out=out[lo_i:hi_i + 1])
    return out


def _infconv_kernel(f: GridFn, g: GridFn) -> GridFn:
    """Exact discrete inf-convolution; g may live on a different origin-aligned grid."""
    if abs(f.step - g.step) > 1e-12 or f.dim != g.dim:
        raise GridMismatch("inf-convolution needs equal steps and dimensions")
    zero = _origin_offsets(g)
    if f.dim == 1:
        return GridFn(f.domain, f.step, _infconv_1d(f.values, g.values, zero[0]))

    fv, gv = f.values, g.values
    n1, n2 = fv.shape
    m1, m2 = gv.shape
    finite = np.argwhere(np.isfinite(fv))
    if len(finite) * n1 * n2 > _CELL_PAIR_CAP:
        raise GridMismatch(f"2-D scan exceeds {_CELL_PAIR_CAP} cell pairs")

    # separable shift function: two 1-D sweeps instead of the full scan
    if np.all(np.isfinite(gv)):
        sep = gv[:, :1] + gv[:1, :] - gv[0, 0]
        if np.allclose(sep, gv, atol=1e-12, rtol=0.0):
            g_col = gv[:, zero[1]] - gv[zero[0], zero[1]]
            g_row = gv[zero[0], :]
            mid = np.stack([_infconv_1d(fv[:, j2], g_col, zero[0]) for j2 in range(n2)], axis=1)
            out = np.stack([_infconv_1d(mid[i1, :], g_row, zero[1]) for i1 in range(n1)], axis=0)
            return GridFn(f.domain, f.step, out)

    out = np.full((n1, n2), np.inf)
    for j1, j2 in finite:
        lo1, hi1 = max(0, j1 - zero[0]), min(n1 - 1, j1 - zero[0] + m1 - 1)
        lo2, hi2 = max(0, j2 - zero[1]), min(n2 - 1, j2 - zero[1] + m2 - 1)
        if lo1 > hi1 or lo2 > hi2:
            continue
        gs = gv[lo1 - j1 + zero[0]:hi1 - j1 + zero[0] + 1,
                lo2 - j2 + zero[1]:hi2 - j2 + zero[1] + 1]
        np.minimum(out[lo1:hi1 + 1, lo2:hi2 + 1], fv[j1, j2] + gs,
                   out=out[lo1:hi1 + 1, lo2:hi2 + 1])
    return GridFn(f.domain, f.step, out)


def inf_conv(f: GridFn, g: GridFn) -> GridFn:
    """Inf-convolution of two functions on the same grid."""
    if not f.same_grid(g):
        raise GridMismatch("inf_conv requires identical grids")
    return _infconv_kernel(f, g)


def _difference_domain(domain: BoxDomain) -> BoxDomain:
    span = domain.hi - domain.lo
    return BoxDomain(-span, span)


def _norm_on_grid(domain: BoxDomain, step: float) -> np.ndarray:
    axes = grid_axes(domain, step)
    if domain.dim == 1:
        return np.abs(axes[0])
    return np.sqrt(axes[0][:, None] ** 2 + axes[1][None, :] ** 2)


def pasch_hausdorff(f: GridFn, alpha: float) -> GridFn:
    """Lipschitz regularization: inf-convolution with alpha * ||.||.

    The shift function is sampled on the full difference domain so no
    admissible shift is truncated away; the result is alpha-Lipschitz on the
    grid (exactly, by the triangle inequality of the sampled norm).
    """
    if alpha <= 0:
        raise NonPositiveAlpha("alpha must be positive")
    dd = _difference_domain(f.domain)
    g = GridFn(dd, f.step, alpha * _norm_on_grid(dd, f.step))
    return _infconv_kernel(f, g)


def moreau(f: GridFn, beta: float) -> GridFn:
    """Quadratic regularization: inf-convolution with ||.||^2 / (2 beta)."""
    if beta <= 0:
        raise NonPositiveBeta("beta must be positive")
    dd = _difference_domain(f.domain)
    g = GridFn(dd, f.step, _norm_on_grid(dd, f.step) ** 2 / (2.0 * beta))
    return _infconv_kernel(f, g)


def _conjugate_1d(x: np.ndarray, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max_j z_i x_j - v_j for increasing x, finite v and increasing z.

    Only vertices of the lower convex hull of (x, v) can attain the maximum,
    and the vertex k attains it for the z between the slopes of its two hull
    edges.  One monotone-chain pass builds the hull, and a binary search
    places each z among the edge slopes.
    """
    xl, vl = x.tolist(), v.tolist()
    hull, slopes = [0], []
    for j in range(1, len(xl)):
        s = (vl[j] - vl[hull[-1]]) / (xl[j] - xl[hull[-1]])
        while slopes and slopes[-1] >= s:      # hull[-1] lies on or above the chord
            slopes.pop()
            hull.pop()
            s = (vl[j] - vl[hull[-1]]) / (xl[j] - xl[hull[-1]])
        hull.append(j)
        slopes.append(s)
    k = np.asarray(hull)[np.searchsorted(slopes, z)]
    return z * x[k] - v[k]


def legendre(f: GridFn, dual_domain: BoxDomain | None = None,
             dual_step: float | None = None) -> GridFn:
    """Discrete Legendre conjugate: f*(z) = max over grid x of <x, z> - f(x).

    A maximum of affine functions of z, hence exactly convex on the dual
    grid.  The dual grid defaults to the primal one.

    Exact, in the manner of Lucet's linear-time Legendre transform: in 1-D
    the maximum is taken over the lower convex hull of the finite samples,
    located by binary search among its edge slopes, in O(n + m log h) time
    for n samples, m dual points and h hull vertices, with no n x m
    intermediate.  In 2-D the maximum over the product grid factors as
    f*(z0, z1) = max_i z0 x0_i + max_j (z1 x1_j - f_ij): the 1-D conjugate of
    each row with a finite value, then of each dual column of those.
    """
    dom = dual_domain if dual_domain is not None else f.domain
    step = dual_step if dual_step is not None else f.step
    if dom.dim != f.dim:
        raise EmptyDomain("dual domain dimension mismatch")
    axes = grid_axes(dom, step)
    if f.dim == 1:
        finite = np.isfinite(f.values)
        vals = _conjugate_1d(f.axes()[0][finite], f.values[finite], axes[0])
        return GridFn(dom, step, vals)
    x0, x1 = f.axes()
    z0, z1 = axes
    rows = np.flatnonzero(np.isfinite(f.values).any(axis=1))
    inner = np.empty((len(rows), len(z1)))        # inner[r, c] = (f row r)*(z1_c)
    for r, i in enumerate(rows):
        finite = np.isfinite(f.values[i])
        inner[r] = _conjugate_1d(x1[finite], f.values[i, finite], z1)
    out = np.empty((len(z0), len(z1)))
    for c in range(len(z1)):
        out[:, c] = _conjugate_1d(x0[rows], -inner[:, c], z0)
    return GridFn(dom, step, out)


def _slope_range_1d(f: GridFn) -> tuple[float, float]:
    """Range of adjacent-difference slopes over the finite part of f."""
    finite = np.isfinite(f.values)
    idx = np.flatnonzero(finite)
    if len(idx) < 2:
        return 0.0, 0.0
    block = f.values[idx[0]:idx[-1] + 1]
    d = np.diff(block) / f.step          # +-inf where the finite region has holes
    d = d[np.isfinite(d)]
    if d.size == 0:
        return 0.0, 0.0
    return float(d.min()), float(d.max())


def conjugate_sum_identity_check(f: GridFn, g: GridFn,
                                 dual_domain: BoxDomain | None = None,
                                 dual_step: float | None = None) -> float:
    """Max interior error of (f (+) g)* versus f* + g* on the dual grid.

    The identity holds in the continuum; on a truncated grid it is only
    observable where both conjugate sups are attained inside the domain, so
    the default dual grid is the intersection of the slope ranges of f and g
    (one further boundary cell excluded against discretization of the sup).
    1-D only unless an explicit dual domain is given.
    """
    conv = inf_conv(f, g)
    if dual_domain is None:
        if f.dim != 1:
            raise EmptyDomain("default dual domain is available in 1-D only")
        ranges = [_slope_range_1d(h) for h in (f, g, conv)]
        lo = max(r[0] for r in ranges)
        hi = min(r[1] for r in ranges)
        step = dual_step if dual_step is not None else f.step
        lo, hi = math.ceil(lo / step) * step, math.floor(hi / step) * step
        if hi - lo < 2 * step:
            lo, hi = lo - step, lo + step
        dual_domain = BoxDomain(np.array([lo]), np.array([hi]))
    c_all = legendre(conv, dual_domain, dual_step)
    c_sum = legendre(f, dual_domain, dual_step).values + legendre(g, dual_domain, dual_step).values
    err = np.abs(c_all.values - c_sum)
    if f.dim == 1:
        core = err[1:-1] if len(err) > 2 else err
    else:
        core = err[1:-1, 1:-1] if min(err.shape) > 2 else err
    return float(np.max(core))


def minimizer_invariance_check(f: GridFn, g: GridFn, tol: float = 1e-9) -> bool:
    """True iff inf-convolution with g preserves min value and argmin set of f.

    Requires g(0) = 0 with g >= 0 (so g has min 0 at the origin).
    """
    zero = _origin_offsets(g)
    g0 = g.values[zero[0]] if g.dim == 1 else g.values[zero[0], zero[1]]
    if abs(float(g0)) > tol or np.min(g.values) < -tol:
        raise PreconditionViolated("need g(0) = 0 and g >= 0")
    conv = _infconv_kernel(f, g)
    fmin, cmin = float(np.min(f.values)), float(np.min(conv.values))
    if abs(fmin - cmin) > tol:
        return False
    f_arg = np.flatnonzero(f.values.ravel() <= fmin + tol)
    c_arg = np.flatnonzero(conv.values.ravel() <= cmin + tol)
    return np.array_equal(f_arg, c_arg)


# --- CSV interchange: columns x[,y],value with "inf" for +infinity ---

def gridfn_to_csv(f: GridFn) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    axes = f.axes()
    if f.dim == 1:
        writer.writerow(["x", "value"])
        for x, v in zip(axes[0], f.values):
            writer.writerow([f"{x:.15g}", "inf" if np.isinf(v) else f"{v:.15g}"])
    else:
        writer.writerow(["x", "y", "value"])
        for i, x in enumerate(axes[0]):
            for j, y in enumerate(axes[1]):
                v = f.values[i, j]
                writer.writerow([f"{x:.15g}", f"{y:.15g}", "inf" if np.isinf(v) else f"{v:.15g}"])
    return buf.getvalue()


def gridfn_from_csv(text: str) -> GridFn:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise EmptyDomain("empty grid CSV")
    header = [h.strip().lower() for h in rows[0]]
    dim = 1 if header == ["x", "value"] else 2 if header == ["x", "y", "value"] else None
    if dim is None:
        raise GridMismatch("grid CSV header must be x,value or x,y,value")
    body = [r for r in rows[1:] if r]
    if not body:
        raise EmptyDomain("grid CSV has no rows")
    try:
        coords = np.array([[float(v) for v in r[:dim]] for r in body])
        vals = np.array([np.inf if r[dim].strip().lower() == "inf" else float(r[dim])
                         for r in body])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"grid CSV rows must hold {dim + 1} numbers: {exc}") from exc
    if dim == 1:
        xs = np.unique(coords[:, 0])
        step = float(np.min(np.diff(xs))) if len(xs) > 1 else 1.0
        dom = BoxDomain(np.array([xs[0]]), np.array([xs[-1]]))
        order = np.argsort(coords[:, 0])
        return GridFn(dom, step, vals[order])
    xs, ys = np.unique(coords[:, 0]), np.unique(coords[:, 1])
    step = float(np.min(np.diff(xs))) if len(xs) > 1 else float(np.min(np.diff(ys)))
    dom = BoxDomain(np.array([xs[0], ys[0]]), np.array([xs[-1], ys[-1]]))
    grid = np.full((len(xs), len(ys)), np.inf)
    ix = np.searchsorted(xs, coords[:, 0])
    iy = np.searchsorted(ys, coords[:, 1])
    grid[ix, iy] = vals
    return GridFn(dom, step, grid)
