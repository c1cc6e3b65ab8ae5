"""Gaussian-RKHS norms of kernel expansions and the derivative-series norm.

For the dimension-free kernel K(x,y) = exp(-pi (x-y)^2) the squared RKHS
norm of f admits the series sum_k (4 pi)^(-k) / k! * ||f^(k)||_{L2}^2, all
terms nonnegative, so truncations approach the Gram-form norm from below.
Derivatives of Gaussian bumps are taken analytically through the Hermite
recursion (finite differences are numerically dead past order ~5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import KernelSpec
from .envelopes import GRID_CELL_CAP
from .errors import (LengthMismatch, OrderTooLarge, PreconditionViolated, ProblemTooLarge,
                     QuadratureDomainTooSmall)

MAX_ORDER = 30


@dataclass(frozen=True)
class EmbeddingFn:
    """Kernel expansion f = sum_i c_i K(x_i, .) with 1-D centers."""

    centers: np.ndarray
    coeffs: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.centers, dtype=float))
        a = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.shape != a.shape or c.ndim != 1:
            raise LengthMismatch("centers and coeffs must be equal-length vectors")
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "coeffs", a)

    def gram_norm_sq(self) -> float:
        """Squared RKHS norm in Gram form: c^T K c."""
        g = self.kernel.gram(self.centers[:, None], self.centers[:, None])
        return float(self.coeffs @ g @ self.coeffs)


def _is_critical(k: KernelSpec) -> bool:
    return not k.normalized and abs(k.sigma_sq - 1.0 / (2.0 * math.pi)) < 1e-15


def truncated_series_norm(f: EmbeddingFn, order: int, quad_lo: float, quad_hi: float,
                          quad_step: float = 1e-3) -> list[float]:
    """Partial sums S_0 <= S_1 <= ... <= S_order of the derivative-series norm.

    S_K = sum_{k<=K} (4 pi)^(-k) / k! * ||f^(k)||_{L2}^2, critical kernel
    only.  The quadrature domain must cover the centers by at least six
    bandwidths; note that high orders spread the integrand further (the k-th
    Hermite factor reaches out to roughly sqrt(2k+1) scaled widths), so give
    generous domains for order > 10.
    """
    if order > MAX_ORDER:
        raise OrderTooLarge(f"series order capped at {MAX_ORDER}")
    if order < 0 or not 0 < quad_step < math.inf or not np.isfinite([quad_lo, quad_hi]).all():
        raise PreconditionViolated(f"need order >= 0, a finite quad_step > 0 and finite bounds, "
                                   f"got {order}, {quad_step}, [{quad_lo}, {quad_hi}]")
    if not _is_critical(f.kernel):
        raise ValueError("series coefficients hold for the critical kernel only")
    sigma = math.sqrt(f.kernel.sigma_sq)
    margin = 6.0 * sigma
    if quad_lo > f.centers.min() - margin or quad_hi < f.centers.max() + margin:
        raise QuadratureDomainTooSmall(
            f"need [{f.centers.min() - margin:.3f}, {f.centers.max() + margin:.3f}]")

    if len(f.centers) * ((quad_hi - quad_lo) / quad_step + 1) > GRID_CELL_CAP:
        raise ProblemTooLarge(f"centers x quadrature points exceed {GRID_CELL_CAP}")
    x = np.arange(quad_lo, quad_hi + 0.5 * quad_step, quad_step)
    t = math.sqrt(math.pi) * (x[None, :] - f.centers[:, None])   # (centers, grid)
    bump = np.exp(-t ** 2)

    def trapz_sq(vals: np.ndarray) -> float:
        return float(np.trapezoid(vals ** 2, dx=quad_step))

    sums: list[float] = []
    h_prev = np.zeros_like(t)       # H_{-1} placeholder
    h_cur = np.ones_like(t)         # H_0
    total = 0.0
    log4pi = math.log(4.0 * math.pi)
    for k in range(order + 1):
        # f^(k)(x) = sum_i c_i (-1)^k pi^(k/2) H_k(t_i) exp(-t_i^2)
        deriv = (math.pi ** (k / 2.0)) * (f.coeffs @ (h_cur * bump))
        norm_sq = trapz_sq(deriv)
        if norm_sq > 0:
            total += math.exp(-k * log4pi - math.lgamma(k + 1) + math.log(norm_sq))
        sums.append(total)
        h_prev, h_cur = h_cur, 2.0 * t * h_cur - 2.0 * k * h_prev
    return sums


def gp_penalty(phi_values, phi_grads, weights) -> float:
    """Two-term RKHS-norm surrogate: sum_i w_i (phi_i^2 + ||grad phi_i||^2 / 4 pi)."""
    v = np.atleast_1d(np.asarray(phi_values, dtype=float))
    g = np.asarray(phi_grads, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if not (len(v) == len(g) == len(w)):
        raise LengthMismatch(f"lengths {len(v)}, {len(g)}, {len(w)} differ")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must form a probability vector")
    return float(np.sum(w * (v ** 2 + np.sum(g ** 2, axis=1) / (4.0 * math.pi))))
