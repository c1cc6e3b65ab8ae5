"""Loss functions J(mu) on discrete measures, and the table of losses.

Implements the minimax (Jensen-Shannon), non-saturating KL, Wasserstein-1 and
half-squared-MMD losses, each against a fixed reference measure, together
with the Kantorovich-Rubinstein norm on mass-zero signed measures, and the
table LOSSES of their properties.  Infinite values are legitimate returns
(math.inf), never exceptions.  The transport LP is a network simplex in
numpy; scipy loads on first use, inside the JS/NS Bregman divergences, so code
that does not call them never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discriminators import (phi_minimax, phi_mmd, phi_ns, phi_w1_1d, witness_grad_mmd,
                             witness_grad_w1)
from .errors import (DimensionMismatch, NegativeWeight, NonZeroMass, PointOffSupport,
                     PreconditionViolated, SolverFailed, UnknownKind, need_positive,
                     refuse_over)
from .measures import (MASS_TOL, DiscreteMeasure, _cdf_sweep, _merge_atoms, _require_same_dim,
                       require_mass_zero)

_LP_MAX_CELLS = 10 ** 6
_LP_TOL = 1e-12                  # optimal once every reduced cost is >= -_LP_TOL * max C
_LP_PIVOTS_PER_NODE = 50         # a safety net: measured solves need under 2 per node
_EXP_FLOOR = -700.0              # exp(-700) ~ 1e-304 is normal; numpy's exp is slow near underflow


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel K(x,y) = exp(-||x-y||^2 / (2 sigma_sq)), of peak value 1.

    The critical bandwidth sigma_sq = 1/(2 pi) gives the dimension-free kernel
    K(x,y) = exp(-pi ||x-y||^2).  A bandwidth whose reciprocal overflows is refused.
    """

    sigma_sq: float = 1.0 / (2.0 * math.pi)

    def __post_init__(self):
        need_positive(self.sigma_sq, "sigma_sq", PreconditionViolated)
        if not math.isfinite(1.0 / self.sigma_sq):
            raise PreconditionViolated(f"sigma_sq must be finite and positive with a finite "
                                       f"reciprocal, got {self.sigma_sq!r}")

    @staticmethod
    def critical() -> "KernelSpec":
        return KernelSpec(sigma_sq=1.0 / (2.0 * math.pi))

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel matrix K[..., i, j] = K(x_i, y_j) for (..., n, d) and (..., m, d) inputs,
        whose leading axes, if any, are batch axes of one shape.

        Squared distances in matmul form ||x||^2 + ||y||^2 - 2 x.y, clipped at 0
        against cancellation; every step after the product works in place.  An
        entry whose exponent lies below -700 is exactly 0 (its true value is under
        e^-700 times the kernel's peak), so no entry is subnormal; every other entry
        is np.exp of its exponent.  A block whose row norms rule out such an
        exponent skips the check over its entries.
        More than CELL_CAP cells raise ProblemTooLarge before anything is allocated.
        """
        refuse_over(x.size // x.shape[-1] * y.shape[-2], "kernel Gram cells")
        xx, yy = np.vecdot(x, x), np.vecdot(y, y)
        g = (-2.0 * x) @ y.mT      # a GEMM even when y is x: numpy sends x @ x.T to slower SYRK
        g += xx[..., None]
        g += yy if y.ndim == 2 else yy[..., None, :]     # a (1, m) operand slows the 2-D add
        np.maximum(g, 0.0, out=g)
        scale = -1.0 / (2.0 * self.sigma_sq)
        g *= scale
        # ||x_i - y_j|| <= |x|max + |y|max clears most blocks without a pass over g;
        # the unit of slack covers the rounding of the matmul form
        reach = (math.sqrt(xx.max(initial=0.0)) + math.sqrt(yy.max(initial=0.0))) ** 2 * scale
        if reach < _EXP_FLOOR + 1.0 and g.min(initial=0.0) < _EXP_FLOOR:
            # np.exp runs its slow path on exponents near underflow: clamp them to
            # the floor, then zero them by a multiply, exact on every other entry
            keep = g >= _EXP_FLOOR
            np.maximum(g, _EXP_FLOOR, out=g)
            np.exp(g, out=g)
            g *= keep
        else:
            np.exp(g, out=g)
        return g

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """grad_x K(x_i, y_j) = -(x_i - y_j) K(x_i, y_j) / sigma_sq, shape (n, m, d)."""
        d = x[:, None, :] - y[None, :, :]
        return -d * self.gram(x, y)[:, :, None] / self.sigma_sq

    def grad_x_sum(self, x: np.ndarray, y: np.ndarray, w) -> np.ndarray:
        """sum_j w_j grad_x K(x_i, y_j) = ((K diag(w) y)_i - x_i (K w)_i) / sigma_sq,
        shape (..., n, d), for weights w of shape (m,), or (..., 1, m) with batch axes as in gram."""
        kw = self.gram(x, y)
        kw *= w
        return (kw @ y - x * kw.sum(axis=-1)[..., None]) / self.sigma_sq


def _is_critical(k: KernelSpec) -> bool:
    return abs(k.sigma_sq - 1.0 / (2.0 * math.pi)) < 1e-15


@dataclass(frozen=True)
class Loss:
    """One GAN loss: short name (CLI --loss, OracleFamily kind), LossKind tag, whether
    it takes a kernel k, J(mu) = value(mu, mu0, k), the optimal discriminator
    witness(mu, mu0, k, x), bregman(kind, nu, mu) and grad(mu, mu0, k, x), the loss's one
    rule for the witness gradient on pack_measures rows (None for density ratios on atoms).
    That is the witness's gradient in x: MMD's particle gradient is it divided by N, while
    W1's differs at atoms (mu = delta_0.5, mu0 = delta_0: 0 at 0.5, but dW1/dtheta = 1).
    Entries call package functions by name inside lambdas, never hold them, so that a
    wrapper installed on a module attribute sees every call."""

    name: str
    tag: str
    kernel: bool
    value: Callable
    witness: Callable
    bregman: Callable
    grad: Callable | None = None

    def check_kernel(self, kernel: KernelSpec | None) -> None:
        if (kernel is not None) != self.kernel:
            raise PreconditionViolated(
                f"the {self.name} loss takes {'a' if self.kernel else 'no'} kernel")


@dataclass(frozen=True)
class LossKind:
    """A GAN loss: tag, reference measure mu0, and (for MMD) a kernel."""

    tag: str  # the tag of an entry of LOSSES
    reference: DiscreteMeasure
    kernel: KernelSpec | None = None
    loss: Loss = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loss = next((e for e in LOSSES.values() if e.tag == self.tag), None)
        if loss is None:
            raise UnknownKind(f"unknown loss tag {self.tag!r}")
        loss.check_kernel(self.kernel)
        object.__setattr__(self, "loss", loss)


def align_many(measures: list[DiscreteMeasure]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map measures onto their union support (atoms merged as in make_discrete).

    Returns (points, weight_vectors), one aligned weight vector per input.
    """
    for m in measures[1:]:
        _require_same_dim(measures[0], m)
    pts = np.vstack([m.points for m in measures])
    w = np.zeros((len(pts), len(measures)))
    start = 0
    for j, m in enumerate(measures):
        w[start:start + m.n_atoms, j] = m.weights
        start += m.n_atoms
    pts, w = _merge_atoms(pts, w)
    return pts, list(w.T)


# --- Wasserstein-1 ---

def w1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact 1-D Wasserstein-1 distance: the KR norm of mu - nu."""
    _require_same_dim(mu, nu)
    if mu.dim != 1:
        raise DimensionMismatch("w1_1d requires 1-D measures")
    # mu - nu unmerged: the sweep merges its atoms as diff would
    return kr_norm_1d(DiscreteMeasure(np.concatenate([mu.points, nu.points]),
                                      np.concatenate([mu.weights, -nu.weights])))


def kr_norm_1d(xi: DiscreteMeasure) -> float:
    """Kantorovich-Rubinstein norm of a mass-zero 1-D signed measure.

    Equals the integral of |F_xi|; for xi = mu - nu this is W1(mu, nu).
    Mass must vanish: over 1-Lipschitz test functions with free constants the
    supremum is infinite otherwise.
    """
    if xi.dim != 1:
        raise DimensionMismatch("kr_norm_1d requires a 1-D measure")
    require_mass_zero(xi)
    return float(_w1_rows(*_cdf_sweep(xi.points, xi.weights))[0])


def _w1_rows(breaks: np.ndarray, cdf: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The one 1-D distance rule on a CDF sweep: per row, the integral of |F|, a finite sum
    since F is constant between breaks, each row by its own sum."""
    terms = np.abs(cdf[:, :-1]) * np.diff(breaks, axis=-1)
    return np.array([row[:k - 1].sum() for row, k in zip(terms, n.tolist())])


def w1_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact optimal transport cost with Euclidean ground distance, in any dimension.

    A primal network simplex on the m x n transportation tableau.  The basis
    is a spanning tree over the m rows and n columns, started by the
    matrix-minimum rule; each pivot enters the cell of least reduced cost
    (Dantzig) and leaves by the strongly-feasible-tree rule (Cunningham 1976),
    so degenerate pivots cannot cycle.  It stops once every reduced cost is at
    least -1e-12 max C and returns sum C x over the basis.  The m*n cells are
    capped at 1e6; at the cap a solve peaks near 28 MB in any dimension, mostly
    the cost, the sorted cells and the reduced costs at 8 MB each, with no
    constraint matrix.  Larger problems raise ProblemTooLarge, and masses that
    differ by more than MASS_TOL raise NonZeroMass, before anything is
    allocated; a negative weight raises NegativeWeight, and a solve that
    reaches the pivot cap SolverFailed.
    """
    _require_same_dim(mu, nu)
    m, n = mu.n_atoms, nu.n_atoms
    refuse_over(m * n, "transport cells", _LP_MAX_CELLS)
    gap = float(mu.weights.sum()) - float(nu.weights.sum())
    if not abs(gap) <= MASS_TOL:
        raise NonZeroMass(f"transport between masses that differ by {gap:g}")
    if (mu.weights < 0).any() or (nu.weights < 0).any():
        raise NegativeWeight("transport weights must be nonnegative")
    # a zero column would leave its tree arc empty and pointing down, so drop it
    keep = nu.weights > 0
    y, b = nu.points[keep], nu.weights[keep]
    if m == 0 or len(b) == 0:
        return 0.0                      # no mass to move
    cost = np.zeros((m, len(b)))        # Euclidean distances, one axis at a time
    sq = np.empty_like(cost)
    for x_k, y_k in zip(mu.points.T, y.T):
        np.subtract.outer(x_k, y_k, out=sq)
        sq *= sq
        cost += sq
    del sq
    np.sqrt(cost, out=cost)
    return _network_simplex(cost, mu.weights, b)


def _network_simplex(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """min sum C x over x >= 0 with row sums a and column sums b (b > 0).

    Nodes 0..m-1 are the rows and m..m+n-1 the columns.  Each non-root node v
    holds the basic cell joining it to parent[v] and that cell's flow[v]; the
    tree is kept in preorder, so subtree(v) is order[pos[v]:pos[v] + size[v]].
    The tree stays strongly feasible: an arc with zero flow runs from a row
    child to its column parent.  Reduced costs are updated in place after each
    pivot and recomputed from the tree before the solve may stop.
    """
    m, n = cost.shape
    big = m + n
    parent, flow = _matrix_minimum_tree(cost, a, b)
    children = [[] for _ in range(big)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    order, stack = [], [parent.index(-1)]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    size = [1] * big
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    order = np.array(order)
    pos = np.empty(big, dtype=np.intp)
    pos[order] = np.arange(big)

    def exact_reduced_costs():
        # dual potentials with u_i + v_j = C_ij on every basic cell, the root's at 0
        pot = [0.0] * big
        for v in order[1:].tolist():
            p = parent[v]
            pot[v] = (cost[v, p - m] if v < m else cost[p, v - m]) - pot[p]
        reduced = cost - np.array(pot[:m])[:, None]
        reduced -= pot[m:]
        return reduced

    tol = _LP_TOL * cost.max(initial=0.0)
    reduced, exact = exact_reduced_costs(), True
    for _ in range(_LP_PIVOTS_PER_NODE * big + 1):
        cell = int(reduced.argmin())
        r = float(reduced.flat[cell])
        if r >= -tol:
            if not exact:
                reduced, exact = exact_reduced_costs(), True
                continue
            up = np.array(parent)
            v = np.flatnonzero(up >= 0)
            rows, cols = np.where(v < m, v, up[v]), np.where(v < m, up[v], v) - m
            return float(cost[rows, cols] @ np.array(flow)[v])
        exact = False
        # the cycle closed by cell (i, j): the tree paths up from row i and from
        # column j to their apex, each node standing for the arc to its parent
        i, j = divmod(cell, n)
        col = m + j
        posl = pos.tolist()
        at = posl[col]
        up_i, v = [], i
        while not posl[v] <= at < posl[v] + size[v]:
            up_i.append(v)
            v = parent[v]
        apex, up_j, v = v, [], col
        while v != apex:
            up_j.append(v)
            v = parent[v]
        # flow around the cycle runs i -> j, so it falls on the row arcs of the
        # i side and the column arcs of the j side
        theta = min([flow[v] for v in up_i if v < m] + [flow[v] for v in up_j if v >= m])
        # leave by the last blocking arc met from the apex along that orientation:
        # the j-side one nearest the apex, else the i-side one nearest row i
        hit = [t for t, v in enumerate(up_j) if v >= m and flow[v] == theta]
        if hit:
            t = hit[-1]
            path, shrink, grow, enter, other = up_j[:t + 1], up_j[t + 1:], up_i, col, i
        else:
            t = next(t for t, v in enumerate(up_i) if v < m and flow[v] == theta)
            path, shrink, grow, enter, other = up_i[:t + 1], up_i[t + 1:], up_j, i, col
        if theta > 0:
            for v in up_i:
                flow[v] += theta if v >= m else -theta
            for v in up_j:
                flow[v] += theta if v < m else -theta
        # cut subtree(q) off at the leaving arc and hang it from `other` by the
        # entering cell: u += r, v -= r in it (signs swapped if `enter` is a
        # column) makes that cell's reduced cost 0.  Shifting the rest the other
        # way gives the same prices, so the smaller side moves.
        q = path[-1]
        start, cut = posl[q], size[q]
        shift = r if enter < m else -r
        if 2 * cut <= big:
            moved = order[start:start + cut]
        else:
            moved, shift = np.concatenate([order[:start], order[start + cut:]]), -shift
        reduced[moved[moved < m]] -= shift
        dv = np.zeros(n)
        dv[moved[moved >= m] - m] = shift
        reduced += dv
        # the subtree's preorder from `enter`: each path node's old subtree
        # without the branch the path came up by, in path order
        pieces = [order[posl[enter]:posl[enter] + size[enter]]]
        for below, v in zip(path, path[1:]):
            pieces += [order[posl[v]:posl[below]],
                       order[posl[below] + size[below]:posl[v] + size[v]]]
        seg = np.concatenate(pieces)
        # re-hang the path: each arc passes to the node it led up to
        acc = 0
        for t in range(len(path) - 1, 0, -1):
            acc += size[path[t]] - size[path[t - 1]]
            parent[path[t]], flow[path[t]], size[path[t]] = path[t - 1], flow[path[t - 1]], acc
        parent[enter], flow[enter], size[enter] = other, theta, cut
        for v in shrink:
            size[v] -= cut
        for v in grow:
            size[v] += cut
        at = posl[other]
        if at < start:
            lo, hi = at + 1, start + cut
            order[lo:hi] = np.concatenate([seg, order[lo:start]])
        else:
            lo, hi = start, at + 1
            order[lo:hi] = np.concatenate([order[start + cut:hi], seg])
        pos[order[lo:hi]] = np.arange(lo, hi)
    raise SolverFailed(f"transport LP failed: no optimum after "
                       f"{_LP_PIVOTS_PER_NODE * big} pivots")


def _matrix_minimum_tree(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Initial basis: allocate to cells in increasing cost, each allocation crossing
    out one line, so the m + n - 1 cells span rows and columns as a tree.

    A tie crosses out the column and keeps the row with nothing left, so every
    empty cell crosses out its row: rooted at the last line standing, each
    empty arc runs from a row child up to its column parent.  The cells come
    from one sort, scanned in blocks that numpy filters down to those whose row
    and column are both still open.  Returns parent and flow lists as in
    _network_simplex.
    """
    m, n = cost.shape
    ranked = np.argsort(cost, axis=None)
    rows_open, cols_open = np.ones(m, dtype=bool), np.ones(n, dtype=bool)
    ra, rb = a.tolist(), b.tolist()
    parent, flow = [-1] * (m + n), [0.0] * (m + n)
    rows_left, cols_left, start, block = m, n, 0, m + n
    while rows_left + cols_left > 1:
        cells = ranked[start:start + block]
        start += block
        block *= 2
        i_all, j_all = np.divmod(cells, n)
        live = rows_open[i_all] & cols_open[j_all]
        for i, j in zip(i_all[live].tolist(), j_all[live].tolist()):
            if not (rows_open[i] and cols_open[j]):
                continue
            # the last open row or column stays open for the lines still to attach,
            # and absorbs the rounding of the masses
            if cols_left > 1 and (rows_left == 1 or rb[j] <= ra[i]):
                ra[i] -= rb[j]
                cols_open[j] = False
                cols_left -= 1
                parent[m + j], flow[m + j] = i, rb[j]
            else:
                rb[j] -= ra[i]
                rows_open[i] = False
                rows_left -= 1
                parent[i], flow[i] = m + j, max(ra[i], 0.0)
            if rows_left + cols_left == 1:
                break
    return parent, flow


# --- f-divergences ---

def js(mu: DiscreteMeasure, mu0: DiscreteMeasure) -> float:
    """Jensen-Shannon divergence; lies in [0, log 2]."""
    _, (wm, w0) = align_many([mu, mu0])
    mid = 0.5 * (wm + w0)
    val = 0.0
    for w in (wm, w0):
        pos = w > 0
        val += 0.5 * float(np.sum(w[pos] * np.log(w[pos] / mid[pos])))
    return max(val, 0.0)


def ns_kl(mu: DiscreteMeasure, mu0: DiscreteMeasure) -> float:
    """Non-saturating loss: KL( (mu + mu0)/2 || mu0 )."""
    _, (wm, w0) = align_many([mu, mu0])
    mid = 0.5 * (wm + w0)
    pos = mid > 0
    if np.any(w0[pos] == 0):
        return math.inf
    return max(float(np.sum(mid[pos] * np.log(mid[pos] / w0[pos]))), 0.0)


# Bregman divergences of the density-ratio losses: the pieces of J(nu) - J(mu) - <Phi_mu, nu - mu>
# carry opposing infinities in degenerate configurations, so they are combined per atom.

def _ratio_weights(nu: DiscreteMeasure, mu: DiscreteMeasure, mu0: DiscreteMeasure):
    """Weights of nu, mu, mu0 on their union support; PointOffSupport where Phi_mu is undefined."""
    _, (wn_u, wm_u, w0_u) = align_many([nu, mu, mu0])
    if np.any((wn_u > 0) & (wm_u == 0) & (w0_u == 0)):
        raise PointOffSupport("nu has mass where neither mu nor mu0 does")
    return wn_u, wm_u, w0_u


def _js_bregman(nu: DiscreteMeasure, mu: DiscreteMeasure, mu0: DiscreteMeasure) -> float:
    from scipy.special import rel_entr
    wn_u, wm_u, w0_u = _ratio_weights(nu, mu, mu0)
    # Phi_mu = (1/2) log(b / (b + c)) is -inf where nu moves mass onto b = 0 < c
    if np.any((wn_u > 0) & (wm_u == 0) & (w0_u > 0)):
        return math.inf
    mid_n = 0.5 * (wn_u + w0_u)
    mid_m = 0.5 * (wm_u + w0_u)
    js_nu = rel_entr(wn_u, mid_n) + rel_entr(w0_u, mid_n)
    js_mu = rel_entr(wm_u, mid_m) + rel_entr(w0_u, mid_m)
    # <Phi_mu, nu - mu> per atom; where b = 0 also a = 0, so the term is 0
    phi = 0.5 * np.log(np.where(wm_u > 0, wm_u, 1.0) / np.where(wm_u > 0, wm_u + w0_u, 1.0))
    pair = (wn_u - wm_u) * phi
    return float(np.sum(0.5 * (js_nu - js_mu) - pair))


def _ns_bregman(nu: DiscreteMeasure, mu: DiscreteMeasure, mu0: DiscreteMeasure) -> float:
    from scipy.special import rel_entr
    wn_u, wm_u, w0_u = _ratio_weights(nu, mu, mu0)
    # per-atom reduction of J(nu) - J(mu) - <Phi_mu, nu - mu>:
    #   m_nu log(m_nu / (2 m_mu)) + m_mu log 2,  m = (w + w0)/2
    m_nu = 0.5 * (wn_u + w0_u)
    m_mu = 0.5 * (wm_u + w0_u)
    if np.any((m_nu > 0) & (m_mu == 0)):
        return math.inf
    return float(np.sum(rel_entr(m_nu, 2.0 * m_mu) + m_mu * math.log(2.0)))


# --- MMD ---

def mmd_sq(mu: DiscreteMeasure, nu: DiscreteMeasure, k: KernelSpec) -> float:
    """Squared maximum mean discrepancy (the loss itself is half of this).

    The bilinear form w_mu' K w_mu - 2 w_mu' K w_nu + w_nu' K w_nu needs no
    merging of coincident atoms.  Its first two terms come from one Gram block
    against the pooled support [x; y], weighted [w_mu; -2 w_nu]: one Gram call per
    evaluation.  The last term depends on nu and k alone, so K(y, y) is formed once
    per (nu, k) and its term kept with nu, where a fixed reference pays it once.
    """
    _require_same_dim(mu, nu)
    x, y, wx, wy = mu.points, nu.points, mu.weights, nu.weights
    cross = wx @ (k.gram(x, np.vstack([x, y])) @ np.concatenate([wx, -2.0 * wy]))
    own = nu._self_terms.get(k)
    if own is None:
        own = nu._self_terms[k] = wy @ k.gram(y, y) @ wy
    return max(float(cross + own), 0.0)


def loss_eval(kind: LossKind, mu: DiscreteMeasure) -> float:
    """Evaluate J(mu) for the given loss kind against its reference."""
    return kind.loss.value(mu, kind.reference, kind.kernel)


def _pairing_bregman(kind: LossKind, nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """J(nu) - J(mu) - <Phi_mu, nu - mu>, the witness summed against each measure."""
    mu0, k = kind.reference, kind.kernel
    pair = (float(np.dot(kind.loss.witness(mu, mu0, k, nu.points), nu.weights))
            - float(np.dot(kind.loss.witness(mu, mu0, k, mu.points), mu.weights)))
    return loss_eval(kind, nu) - loss_eval(kind, mu) - pair


LOSSES = {loss.name: loss for loss in (
    Loss("js", "minimax_js", False,
         value=lambda mu, mu0, k: js(mu, mu0),
         witness=lambda mu, mu0, k, x: phi_minimax(mu, mu0, x),
         bregman=lambda kind, nu, mu: _js_bregman(nu, mu, kind.reference)),
    Loss("ns", "non_saturating_kl", False,
         value=lambda mu, mu0, k: ns_kl(mu, mu0),
         witness=lambda mu, mu0, k, x: phi_ns(mu, mu0, x),
         bregman=lambda kind, nu, mu: _ns_bregman(nu, mu, kind.reference)),
    Loss("w1", "wasserstein1", False,
         value=lambda mu, mu0, k: w1_1d(mu, mu0) if mu.dim == 1 else w1_lp(mu, mu0),
         witness=lambda mu, mu0, k, x: phi_w1_1d(mu, mu0, x),
         bregman=lambda kind, nu, mu: _pairing_bregman(kind, nu, mu),
         grad=lambda mu, mu0, k, x: witness_grad_w1(mu, mu0, x)),
    Loss("mmd", "mmd_sq_half", True,
         value=lambda mu, mu0, k: 0.5 * mmd_sq(mu, mu0, k),
         witness=lambda mu, mu0, k, x: phi_mmd(mu, mu0, k, x),
         bregman=lambda kind, nu, mu: _pairing_bregman(kind, nu, mu),
         grad=lambda mu, mu0, k, x: witness_grad_mmd(mu, mu0, k, x)),
)}
