"""Closed-form optimal discriminators and their spatial gradients.

For the MMD loss the optimal discriminator is the witness function
Phi(x) = E_mu[K(x, .)] - E_mu0[K(x, .)], defined and differentiable on the
whole box.  The minimax / non-saturating discriminators are density-ratio
functions, defined only on the union support.  The 1-D Wasserstein potential
and its slope read the sign of the CDF difference through one sweep and one
gap lookup.  Each witness gradient has one rule on pack_measures rows, LOSSES'
grad, which grad_phi_* call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, PointOffSupport, refuse_over
from .measures import (MERGE_TOL, DiscreteMeasure, Packed, _as_batch, _cdf_sweep, _real,
                       _require_coords, _require_same_dim)

if TYPE_CHECKING:
    from .divergences import KernelSpec


def _query(x, mu: DiscreteMeasure, mu0: DiscreteMeasure) -> tuple[np.ndarray, bool]:
    """x as an (n, d) batch for measures of one dimension d, and whether x is one point.

    Every coordinate must be within COORD_MAX, as the atoms' are: past it the
    kernel Gram overflows to NaN.
    """
    _require_same_dim(mu, mu0)
    pts, single = _as_batch(x, mu.dim)
    _require_coords(pts, "query coordinates")
    return pts, single


def phi_mmd(mu: DiscreteMeasure, mu0: DiscreteMeasure, k: KernelSpec, x) -> float | np.ndarray:
    """MMD witness E_mu[K(x, .)] - E_mu0[K(x, .)], exact weighted kernel sums: one
    Gram block against the pooled support [mu; mu0], weighted [w; -w0]."""
    pts, single = _query(x, mu, mu0)
    val = (k.gram(pts, np.vstack([mu.points, mu0.points]))
           @ np.concatenate([mu.weights, -mu0.weights]))
    return float(val[0]) if single else val


def witness_grad_mmd(mu: Packed, mu0: Packed, k: KernelSpec, x: np.ndarray) -> np.ndarray:
    """The MMD witness gradient at x (..., P, d) for pack_measures rows with any leading axes
    or none: one kernel-gradient sum over the pooled support [mu; mu0], weighted [w; -w0]."""
    return k.grad_x_sum(x, np.concatenate([mu[0], mu0[0]], axis=-2),
                        np.concatenate([mu[1], -mu0[1]], axis=-1)[..., None, :])


def grad_phi_mmd(mu: DiscreteMeasure, mu0: DiscreteMeasure, k: KernelSpec, x) -> np.ndarray:
    """Spatial gradient of the MMD witness via the analytic kernel gradient."""
    pts, single = _query(x, mu, mu0)
    g = witness_grad_mmd((mu.points, mu.weights, mu.n_atoms),
                         (mu0.points, mu0.weights, mu0.n_atoms), k, pts)
    return g[0] if single else g


def _atom_weights(mu: DiscreteMeasure, mu0: DiscreteMeasure, x):
    """Weights of mu and mu0 at each point of x (atoms within MERGE_TOL in sup-norm)
    and whether x is one point; PointOffSupport if any point is off both supports.  More
    than CELL_CAP query-atom coordinate differences raise ProblemTooLarge before any exists."""
    pts, single = _query(x, mu, mu0)
    refuse_over(pts.size * (len(mu.points) + len(mu0.points)), "query-atom differences")
    hits = [np.max(np.abs(pts[:, None, :] - m.points), axis=2) < MERGE_TOL for m in (mu, mu0)]
    if not np.all(hits[0].any(axis=1) | hits[1].any(axis=1)):
        raise PointOffSupport("density ratio undefined off the union support")
    return hits[0] @ mu.weights, hits[1] @ mu0.weights, single


def phi_minimax(mu: DiscreteMeasure, mu0: DiscreteMeasure, x) -> float | np.ndarray:
    """Minimax discriminator (1/2) log( mu(x) / (mu(x) + mu0(x)) ) at support atoms."""
    wm, w0, single = _atom_weights(mu, mu0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(wm > 0, 0.5 * np.log(wm / (wm + w0)), -np.inf)
    return float(val[0]) if single else val


def phi_ns(mu: DiscreteMeasure, mu0: DiscreteMeasure, x) -> float | np.ndarray:
    """Non-saturating discriminator -(1/2) log( mu0(x) / (mu(x) + mu0(x)) ) at support atoms."""
    wm, w0, single = _atom_weights(mu, mu0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(w0 > 0, -0.5 * np.log(w0 / (wm + w0)), np.inf)
    return float(val[0]) if single else val


def _w1_slopes(cdf: np.ndarray) -> np.ndarray:
    """Per-gap slopes of the 1-D Kantorovich potential from the running CDF difference
    F_mu - F_mu0 on each gap between pooled atoms.

    The potential maximizing the dual pairing has derivative sign(F_mu0 - F_mu) on each
    gap (and 0 outside the atoms' convex hull, where the CDFs agree).
    """
    # zero out fp noise so the potential is flat wherever the CDFs agree,
    # in particular right of the last atom (mass-zero cancellation)
    return np.where(np.abs(cdf) <= 1e-12, 0.0, np.sign(-cdf))


def _w1_sweep(mu: Packed, mu0: Packed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CDF sweep of diff(mu_t, mu0_t), F_mu - F_mu0, for every packed row t: breaks,
    running sums and counts as _cdf_sweep returns them.  One row is swept unpadded."""
    if len(mu[2]) == 1:         # one row: slices, since masks would add 40% to its sweep
        (k,), (k0,) = mu[2], mu0[2]
        return _cdf_sweep(np.concatenate([mu[0][0, :k], mu0[0][0, :k0]]),
                          np.concatenate([mu[1][0, :k], -mu0[1][0, :k0]]))
    real, real0 = _real(mu), _real(mu0)
    # from the (T, W) view of the 1-D atoms: a (T, W) mask on (T, W, 1) takes 10x as long
    pts = np.concatenate([mu[0][..., 0][real], mu0[0][..., 0][real0]])
    w = np.concatenate([mu[1][real], -mu0[1][real0]])
    rows = np.concatenate([np.nonzero(real)[0], np.nonzero(real0)[0]])
    return _cdf_sweep(pts, w, rows, len(mu[2]))


def _gap_at(breaks: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one gap lookup, one searchsorted per row of sorted breaks (..., B) and queries
    (..., P): the gap that starts at the last break <= x, and whether one does."""
    b, q = breaks.reshape(-1, breaks.shape[-1]), x.reshape(-1, x.shape[-1])
    count = np.reshape([np.searchsorted(r, s, side="right") for r, s in zip(b, q)], x.shape)
    return np.maximum(count - 1, 0), count > 0


def w1_slope_at(breaks: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The one slope rule of the 1-D potential: at each x, the slope of the gap that starts
    at the last break <= x, and 0 left of the first break.

    breaks (..., B) are sorted pooled atoms, cdf (..., B) the running CDF difference after
    each, x (..., P) the queries; leading axes are batch axes.
    """
    gap, inside = _gap_at(breaks, x)
    return np.where(inside, np.take_along_axis(_w1_slopes(cdf), gap, axis=-1), 0.0)


def phi_w1_1d(mu: DiscreteMeasure, mu0: DiscreteMeasure, x) -> float | np.ndarray:
    """1-D Kantorovich potential, 1-Lipschitz by construction, gauged psi(0) = 0."""
    if mu.dim != 1 or mu0.dim != 1:
        raise DimensionMismatch("phi_w1_1d requires 1-D measures")
    pts, single = _query(x, mu, mu0)
    breaks, cdf, _ = _w1_sweep(mu.as_row(), mu0.as_row())
    b, slopes = breaks[0], _w1_slopes(cdf[0])
    # the integral of the slope field from b[0] (slope 0 left of it) at each
    # query and then at the gauge point 0; the sweep holds at least one break
    t = np.append(pts[:, 0], 0.0)
    node_vals = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(b))])
    gap, inside = _gap_at(b, t)
    integral = np.where(inside, node_vals[gap] + slopes[gap] * (t - b[gap]), 0.0)
    vals = integral[:-1] - integral[-1]
    return float(vals[0]) if single else vals


def witness_grad_w1(mu: Packed, mu0: Packed, x: np.ndarray) -> np.ndarray:
    """The slopes (T, P, 1) of the 1-D Kantorovich potentials of T packed measure pairs at
    their (T, P, 1) queries: w1_slope_at after one CDF sweep of all the rows."""
    if x.shape[-1] != 1:
        raise DimensionMismatch("the W1 potential's gradient requires 1-D measures")
    breaks, cdf, _ = _w1_sweep(mu, mu0)
    return w1_slope_at(breaks, cdf, x[..., 0])[..., None]


def grad_phi_w1_1d(mu: DiscreteMeasure, mu0: DiscreteMeasure, x) -> np.ndarray:
    """Almost-everywhere derivative of the 1-D potential (piecewise -1/0/+1)."""
    pts, single = _query(x, mu, mu0)
    g = witness_grad_w1(mu.as_row(), mu0.as_row(), pts[None])[0]
    return g[0] if single else g
