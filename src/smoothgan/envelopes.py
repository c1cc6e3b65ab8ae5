"""Finite-dimensional inf-convolution on uniform grids.

Grid functions may take the value +inf (indicators are first class); a grid
function is +inf off its grid, so every discrete infimum below is the exact
infimum of the grid-truncated extended-real function.  The Pasch-Hausdorff
envelope (inf-convolution with alpha * Euclidean norm) produces an
alpha-Lipschitz function; the Moreau envelope (with a quadratic) produces one
with Lipschitz gradient.

One test, `_whole_steps` (within 1e-6 of a step of a whole number of steps),
decides what lies on a grid: a domain's width, `inf_conv`'s g (of f's step, on
any box) against the origin, and each grid CSV point against its box's corner.

Every inf-convolution is a minimum of sums f(x) + g(y), each the same single
addition however it is reached.  The general kernel `_minplus` forms them
all, looping over the finite cells of whichever operand has fewer and
lowering one shifted window of the output per cell; a separable 2-D shift
function takes two such passes.  Other paths form fewer sums:

- 1-D inf_conv and Moreau with a convex operand: `_monotone_minplus`, a
  monotone matrix search (Aggarwal et al. 1987) over rows by levels,
  O(n log n);
- 1-D Pasch-Hausdorff: running minima name one cell on each side, O(n);
- 2-D Pasch-Hausdorff: `_minplus` over the cells that an l1 envelope
  (Felzenszwalb & Huttenlocher 2012) does not rule out.

`_minplus`, the monotone search and the 2-D pruning give the minimum over
every sum bit for bit, exact ties included: the search needs an operand
convex in exact arithmetic and sums that cannot overflow, and otherwise
leaves the input to the scan.  The 1-D Pasch-Hausdorff running minima locate
the minimizer in exact arithmetic: on exact ties (f linear with slope
+-alpha, values on a lattice commensurate with alpha * step) the sum they
pick may exceed the smallest rounded sum by a few eps * (max|f| + max g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionMismatch, GridMismatch, NonPositiveAlpha,
                     NonPositiveBeta, PreconditionViolated, need_positive, refuse_over)
from .measures import BoxDomain, table_from_csv, table_to_csv

_CELL_PAIR_CAP = 10 ** 9


def _whole_steps(x: np.ndarray, step: float, what: str) -> np.ndarray:
    """x / step in whole steps; GridMismatch naming what if any is NaN or over 1e-6 steps off."""
    k = np.round(x / step)
    off = ~(np.abs(x / step - k) <= 1e-6)
    if off.any():
        raise GridMismatch(f"{what} is not a whole number of steps {step:.15g}: {x[off][0]:.15g}")
    return k.astype(np.intp)


def grid_axes(domain: BoxDomain, step: float) -> list[np.ndarray]:
    """Per-axis coordinate arrays; endpoints must be whole numbers of steps apart.

    A grid of more than CELL_CAP cells raises ProblemTooLarge before any axis exists.
    """
    need_positive(step, "grid step", GridMismatch)
    width = domain.hi - domain.lo
    refuse_over(np.prod(width / step + 1), "grid cells")
    n = _whole_steps(width, step, "the domain's width")
    return [lo + step * np.arange(k + 1) for lo, k in zip(domain.lo, n.tolist())]


@dataclass(frozen=True)
class GridFn:
    """Function sampled on a uniform 1-D or 2-D grid; +inf entries allowed."""

    domain: BoxDomain
    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.domain.dim not in (1, 2):
            raise GridMismatch("grids are 1-D or 2-D")
        shape = tuple(len(a) for a in grid_axes(self.domain, self.step))
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != shape:
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


def _origin_offsets(g: GridFn) -> list[int]:
    """Integer index of coordinate 0 relative to g's lower corner, per axis."""
    return _whole_steps(-g.domain.lo, g.step, "g's offset from the origin").tolist()


def _minplus(fv: np.ndarray, gv: np.ndarray, zero) -> np.ndarray:
    """out[i] = min_j f[j] + g[i - j + zero] on every axis; g is +inf off its index range.

    The candidate f[j] + g[k] lands at i = j + k - zero from either side, so
    the loop runs over the finite cells of whichever operand has fewer.  Cell c
    adds its value to the other operand laid over the output from c - zero on:
    one clipped window per cell, every bound computed before the loop.  IEEE
    addition commutes, so both ways form the same sums and the same minimum.
    A scan of more than _CELL_PAIR_CAP (looped cell, output cell) pairs is
    refused before it starts.
    """
    a, b = sorted((fv, gv), key=lambda v: np.count_nonzero(np.isfinite(v)))
    finite = np.isfinite(a)
    shift = np.argwhere(finite) - np.asarray(zero)      # output index of b's first cell
    lo, hi = np.maximum(shift, 0), np.minimum(shift + b.shape, fv.shape)
    keep = np.all(lo < hi, axis=1)
    refuse_over(np.count_nonzero(keep) * fv.size, "inf-convolution cell pairs", _CELL_PAIR_CAP)
    out = np.full(fv.shape, np.inf)
    for v, ol, oh, bl, bh in zip(a[finite][keep].tolist(), lo[keep].tolist(), hi[keep].tolist(),
                                 (lo - shift)[keep].tolist(), (hi - shift)[keep].tolist()):
        win = out[tuple(map(slice, ol, oh))]
        np.minimum(win, v + b[tuple(map(slice, bl, bh))], out=win)
    return out


def _is_convex(v: np.ndarray) -> bool:
    """True iff v's finite cells are contiguous and convex in exact arithmetic.

    v[k - 1] + v[k + 1] >= 2 v[k] is decided on the rounded sum s and its exact
    error (TwoSum): s > 2 v[k] implies the exact sum is larger too, and s ==
    2 v[k] leaves the sign of the error to decide.
    """
    fin = np.flatnonzero(np.isfinite(v))
    if fin[-1] - fin[0] + 1 != len(fin):
        return False
    u = v[fin[0]:fin[-1] + 1]
    a, b, twice = u[2:], u[:-2], 2 * u[1:-1]
    s = a + b
    z = s - a
    err = (a - (s - z)) + (b - z)
    return bool(np.all((s > twice) | ((s == twice) & (err >= 0))))


def _monotone_operands(fv: np.ndarray, gv: np.ndarray):
    """(h, c) for `_monotone_minplus` with c convex, or None where the scan is the better choice.

    The scan forms (fewer finite cells) x len(f) sums, each in a contiguous
    window; the search about 2 len(f) per level, each gathered, at about eight
    times the cost.  So the search is taken when the sparser operand has more
    than 16 finite cells per level.  Of two convex operands the one with fewer
    finite cells (then the smaller bytes) is c, whatever the argument order.
    No sum may overflow, so that every sum and its rounding error are exact.
    """
    finite = [np.isfinite(v) for v in (fv, gv)]
    counts = [np.count_nonzero(m) for m in finite]
    if min(counts) <= 16 * len(fv).bit_length():
        return None
    top = sum(float(np.max(np.abs(v), where=m, initial=0.0)) for v, m in zip((fv, gv), finite))
    if not math.isfinite(2 * top):
        return None
    convex = [(n, v.tobytes(), i) for i, (v, n) in enumerate(zip((fv, gv), counts))
              if _is_convex(v)]
    if not convex:
        return None
    return (gv, fv) if min(convex)[2] == 0 else (fv, gv)


def _monotone_minplus(hv: np.ndarray, cv: np.ndarray, zero: int, n: int) -> np.ndarray:
    """out[i] = min_p h[p] + c[i - p + zero] for i < n, 1-D, for c convex on its finite cells.

    Convex c makes the sums Monge, so the leftmost column attaining the exact
    minimum of row i, J[i], never decreases with i, and no column left of it
    (or right of it, for rows above) holds a smaller rounded sum.  Rows are
    solved by levels, every other row of the stride at a time: a row searches
    columns J[up] to J[down] of its nearest solved rows, clipped to where c is
    finite, so a level forms at most len(h) + n sums.  The rounded minimum over
    those is the scan's minimum bit for bit; J is the leftmost column of that
    rounded minimum whose rounding error (TwoSum) is least.  A row with no
    finite sum passes on the first column of its band, which no finite row
    above it exceeds and no finite row below it undercuts.
    """
    refuse_over(len(hv) + n, "inf-convolution sums per level")
    band = np.flatnonzero(np.isfinite(cv))
    out = np.full(n, np.inf)
    best = np.empty(n + 2, dtype=np.intp)        # best[r] = J[r - 1]; rows 0 and n + 1 bound
    best[0], best[n + 1] = 0, len(hv) - 1
    stride = 1 << (n.bit_length() - 1)
    while stride:
        r = np.arange(stride, n + 1, 2 * stride)
        up, down = best[r - stride], best[np.minimum(r + stride, n + 1)]
        t = r - 1 + zero                               # h[p] + c[t - p] lands on row r - 1
        lo, hi = np.maximum(up, t - band[-1]), np.minimum(down, t - band[0])
        best[r] = np.minimum(lo, down)                 # the first column of the band, clipped
        rows = np.flatnonzero(lo <= hi)
        if len(rows):
            width = (hi - lo + 1)[rows]
            start = np.cumsum(width) - width
            p = np.arange(start[-1] + width[-1]) + np.repeat(lo[rows] - start, width)
            hp, cq = hv[p], cv[np.repeat(t[rows], width) - p]
            sums = hp + cq
            low = np.minimum.reduceat(sums, start)
            k = np.flatnonzero(sums == np.repeat(low, width))     # >= 1 per row
            if len(k) > len(rows):                     # a rounded tie: least error wins
                with np.errstate(invalid="ignore"):    # inf - inf on rows with no finite sum
                    z = sums[k] - hp[k]
                    err = np.nan_to_num((hp[k] - (sums[k] - z)) + (cq[k] - z))
                at = np.searchsorted(k, start)
                least = np.minimum.reduceat(err, at)
                hit = np.flatnonzero(err == np.repeat(least, np.diff(at, append=len(k))))
                k = k[hit[np.searchsorted(hit, at)]]
            out[r[rows] - 1] = low
            finite = np.isfinite(low)
            best[r[rows[finite]]] = p[k[finite]]
        stride >>= 1
    return out


def inf_conv(f: GridFn, g: GridFn) -> GridFn:
    """Exact inf-convolution on f's grid, for any g of f's step and dimension on a box
    a whole number of steps from the origin (a grid function is +inf off its grid).

    The steps are equal when g's farthest point from the origin, read in f's step,
    drifts by at most 1e-6 of a step: the one grid rule's tolerance.
    """
    reach = np.abs(np.concatenate([g.domain.lo, g.domain.hi])).max() / g.step
    if f.dim != g.dim or not abs(f.step - g.step) * reach <= 1e-6 * f.step:
        raise GridMismatch("inf-convolution needs equal steps and dimensions")
    zero = _origin_offsets(g)
    fv, gv = f.values, g.values
    if f.dim == 1 and (pair := _monotone_operands(fv, gv)) is not None:
        return GridFn(f.domain, f.step, _monotone_minplus(*pair, zero[0], len(fv)))
    if f.dim == 2:
        if np.all(np.isfinite(gv)) and np.allclose(gv[:, :1] + gv[:1, :] - gv[0, 0], gv,
                                                   atol=1e-12, rtol=0.0):
            # g(x, y) = g(x, b) - g(a, b) + g(a, y) for any cell (a, b); the origin's,
            # wrapped onto g's grid when the grid does not hold it, is the one used
            a, b = zero[0] % gv.shape[0], zero[1] % gv.shape[1]
            fv = _minplus(fv, gv[:, b, None] - gv[a, b], (zero[0], 0))
            gv, zero = gv[None, a, :], [0, zero[1]]
    return GridFn(f.domain, f.step, _minplus(fv, gv, zero))


def _difference_norm(f: GridFn) -> tuple[BoxDomain, np.ndarray]:
    """The grid of every difference of two points of f's grid, and ||.|| on it."""
    span = f.domain.hi - f.domain.lo
    dd = BoxDomain(-span, span)
    axes = grid_axes(dd, f.step)
    if f.dim == 1:
        return dd, np.abs(axes[0])
    return dd, np.sqrt(axes[0][:, None] ** 2 + axes[1][None, :] ** 2)


def _gathered_min(fv: np.ndarray, gv: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """out[i] = min over c of f[j] + g[i - j + zero] at j = cand[i, c], 1-D.

    g lives on the difference domain of f's grid, whose origin is at index
    len(f) - 1.  Each sum is the very addition the full scan forms for that
    pair; the candidates decide only which pairs are formed.
    """
    i = np.arange(len(fv))[:, None]
    return np.min(fv[cand] + gv[i - cand + len(fv) - 1], axis=1)


def _running_argmin(a: np.ndarray) -> np.ndarray:
    """Index of min(a[:i + 1]) for every i, the latest one on ties."""
    hit = np.where(a == np.minimum.accumulate(a), np.arange(len(a)), 0)
    return np.maximum.accumulate(hit)


def _l1_prune(fv: np.ndarray, slope: float, g_max: float) -> np.ndarray:
    """f on a 2-D grid, +inf at each cell that min-plus with slope * ||.||_2 never needs.

    A cell j with f_j > f_k + slope ||j - k||_1 for some k never attains the
    minimum: ||.||_1 >= ||.||_2 and the triangle inequality give
    f_j + slope ||i - j|| > f_k + slope ||i - k|| for every i.  The l1
    envelope min_k f_k + slope ||j - k||_1 is taken one axis at a time, as
    the smaller of a running minimum of v_r - slope r from the left (plus
    slope i) and of v_r + slope r from the right (minus slope i).  The margin
    is >= 100x the rounding error of these sweeps and of the sums f + g, so a
    dropped cell's sum exceeds the minimum in floating point too, and min-plus
    over the cells kept is bitwise the scan over every cell.
    """
    env = fv
    for axis in (0, 1):
        r = slope * np.arange(fv.shape[axis]).reshape((-1, 1) if axis == 0 else (1, -1))
        left = np.minimum.accumulate(env - r, axis=axis) + r
        right = np.flip(np.minimum.accumulate(np.flip(env + r, axis), axis=axis), axis) - r
        env = np.minimum(left, right)
    margin = 1e-12 * (np.max(np.abs(fv[np.isfinite(fv)])) + g_max)
    return np.where(fv <= env + margin, fv, np.inf)


def pasch_hausdorff(f: GridFn, alpha: float) -> GridFn:
    """Lipschitz regularization: inf-convolution with alpha * ||.||.

    The shift function is sampled on the full difference domain so no
    admissible shift is truncated away; the result is alpha-Lipschitz on the
    grid (exactly, by the triangle inequality of the sampled norm).

    In 1-D, min_j f_j + alpha step |i - j| splits at j = i: the left running
    minimum of f_j - alpha step j and the right one of f_j + alpha step j give
    one candidate cell on each side, in O(n).  In 2-D the min-plus scan runs
    over the cells that `_l1_prune` keeps: all N of them, O(N^2), when f is
    alpha-Lipschitz already, and a few when f is much steeper than alpha.
    """
    need_positive(alpha, "alpha", NonPositiveAlpha)
    fv, gv = f.values, alpha * _difference_norm(f)[1]
    if f.dim == 1:
        r = alpha * f.step * np.arange(len(fv))
        left = _running_argmin(fv - r)
        right = len(fv) - 1 - _running_argmin((fv + r)[::-1])[::-1]
        return GridFn(f.domain, f.step, _gathered_min(fv, gv, np.stack([left, right], axis=1)))
    kept = _l1_prune(fv, alpha * f.step, np.max(gv))
    return GridFn(f.domain, f.step, _minplus(kept, gv, [n - 1 for n in fv.shape]))


def moreau(f: GridFn, beta: float) -> GridFn:
    """Quadratic regularization: inf-convolution with ||.||^2 / (2 beta).

    The quadratic is sampled on the full difference domain, of f's step and
    through the origin, as `inf_conv`'s grid rule asks.  In 1-D it is convex
    in exact arithmetic, so `inf_conv` takes the monotone search (the scan,
    when f has few finite cells), with the scan's bits either way.  In 2-D it
    is separable: two min-plus passes.
    """
    need_positive(beta, "beta", NonPositiveBeta)
    dd, norm = _difference_norm(f)
    return inf_conv(f, GridFn(dd, f.step, norm ** 2 / (2.0 * beta)))


def _lower_hull(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Vertices of the lower convex hull of (x, v) for increasing x, and its edge slopes.

    One monotone-chain pass; a point on or above the chord of its neighbours
    is not a vertex.
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
    return np.asarray(hull), slopes


def _conjugate_1d(x: np.ndarray, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max_j z_i x_j - v_j for increasing x, finite v and increasing z.

    Only vertices of the lower convex hull of (x, v) can attain the maximum,
    and the vertex k attains it for the z between the slopes of its two hull
    edges, found by binary search.
    """
    hull, slopes = _lower_hull(x, v)
    k = hull[np.searchsorted(slopes, z)]
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
        raise DimensionMismatch("dual domain dimension mismatch")
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
    idx = np.flatnonzero(np.isfinite(f.values))
    block = f.values[idx[0]:idx[-1] + 1]
    d = np.diff(block) / f.step          # +-inf where the finite region has holes
    d = d[np.isfinite(d)]
    if d.size == 0:
        return 0.0, 0.0
    return float(d.min()), float(d.max())


def conjugate_sum_identity_check(f: GridFn, g: GridFn) -> float:
    """Max interior error of (f (+) g)* versus f* + g* on the dual grid, 1-D only.

    The identity holds in the continuum; on a truncated grid it is only
    observable where both conjugate sups are attained inside the domain, so
    the dual grid, of f's step, is the intersection of the slope ranges of f,
    g and f (+) g, widened to two steps if narrower, and its two end points
    are excluded against discretization of the sup.
    """
    if f.dim != 1:
        raise DimensionMismatch("the conjugate-sum identity check is 1-D only")
    conv = inf_conv(f, g)
    ranges = [_slope_range_1d(h) for h in (f, g, conv)]
    lo = max(r[0] for r in ranges)
    hi = min(r[1] for r in ranges)
    step = f.step
    lo, hi = math.ceil(lo / step) * step, math.floor(hi / step) * step
    if hi - lo < 2 * step:
        lo, hi = lo - step, lo + step
    dual = BoxDomain(np.array([lo]), np.array([hi]))
    err = np.abs(legendre(conv, dual).values - (legendre(f, dual).values
                                                + legendre(g, dual).values))
    return float(np.max(err[1:-1]))


def minimizer_invariance_check(f: GridFn, g: GridFn) -> bool:
    """True iff inf-convolution with g preserves min value and argmin set of f,
    both to within 1e-9.

    Requires g(0) = 0 with g >= 0 (so g has min 0 at the origin).
    """
    tol = 1e-9
    zero = _origin_offsets(g)                  # g is +inf at 0 when its grid does not hold 0
    held = all(0 <= z < n for z, n in zip(zero, g.values.shape))
    if not held or abs(float(g.values[tuple(zero)])) > tol or np.min(g.values) < -tol:
        raise PreconditionViolated("need g(0) = 0 and g >= 0")
    conv = inf_conv(f, g)
    fmin, cmin = float(np.min(f.values)), float(np.min(conv.values))
    if abs(fmin - cmin) > tol:
        return False
    f_arg = np.flatnonzero(f.values.ravel() <= fmin + tol)
    c_arg = np.flatnonzero(conv.values.ravel() <= cmin + tol)
    return np.array_equal(f_arg, c_arg)


# --- CSV interchange: columns x[,y],value with "inf" for +infinity ---

def gridfn_to_csv(f: GridFn) -> str:
    points = np.stack(np.meshgrid(*f.axes(), indexing="ij"), axis=-1).reshape(-1, f.dim)
    return table_to_csv(["x", "y"][:f.dim] + ["value"],
                        np.column_stack([points, f.values.ravel()]).tolist())


def gridfn_from_csv(text: str) -> GridFn:
    """A x[,y],value CSV on the box its points span at their least gap; +inf where no row is."""
    header, table = table_from_csv(text)
    if [h.strip().lower() for h in header] not in (["x", "value"], ["x", "y", "value"]):
        raise GridMismatch("grid CSV header must be x,value or x,y,value")
    dim = len(header) - 1
    coords, vals = table[:, :dim], table[:, dim]
    axes = [np.unique(c) for c in coords.T]
    if min(len(a) for a in axes) < 2:
        raise ConfigError("grid CSV needs two distinct coordinates along each axis")
    step = float(min(np.min(np.diff(a)) for a in axes))
    dom = BoxDomain(np.array([a[0] for a in axes]), np.array([a[-1] for a in axes]))
    shape = tuple(len(a) for a in grid_axes(dom, step))
    cells = np.ravel_multi_index(_whole_steps(coords - dom.lo, step, "a grid CSV point's "
                                              "offset from the grid's corner").T, shape)
    _, first, counts = np.unique(cells, return_index=True, return_counts=True)
    if np.any(counts > 1):
        raise ConfigError(f"grid CSV repeats the point {coords[first[counts > 1][0]].tolist()}")
    grid = np.full(shape, np.inf)
    grid.flat[cells] = vals
    return GridFn(dom, step, grid)
