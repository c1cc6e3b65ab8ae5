"""Loss functions J(mu) on discrete measures.

Implements the minimax (Jensen-Shannon), non-saturating KL, Wasserstein-1 and
half-squared-MMD losses, each against a fixed reference measure, together
with the Kantorovich-Rubinstein norm on mass-zero signed measures.  Infinite
values are legitimate returns (math.inf), never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, ProblemTooLarge, UnknownKind
from .measures import DiscreteMeasure, SignedMeasure, _merge_atoms, diff, require_mass_zero

_LP_MAX_CELLS = 10 ** 6


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel K(x,y) = c * exp(-||x-y||^2 / (2 sigma_sq)).

    c = (2 pi sigma_sq)^(-d/2) when normalized, else 1.  The critical
    bandwidth sigma_sq = 1/(2 pi) gives the dimension-free kernel
    K(x,y) = exp(-pi ||x-y||^2), whose normalization prefactor is exactly 1.
    """

    sigma_sq: float = 1.0 / (2.0 * math.pi)
    normalized: bool = False

    def __post_init__(self):
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")

    @staticmethod
    def critical() -> "KernelSpec":
        return KernelSpec(sigma_sq=1.0 / (2.0 * math.pi), normalized=False)

    def prefactor(self, dim: int) -> float:
        if not self.normalized:
            return 1.0
        return (2.0 * math.pi * self.sigma_sq) ** (-dim / 2.0)

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel matrix K[i, j] = K(x_i, y_j) for (n, d) and (m, d) inputs.

        Squared distances in matmul form ||x||^2 + ||y||^2 - 2 x.y, clipped at 0
        against cancellation; every step after the product works in place.
        """
        g = x @ y.T
        g *= -2.0
        g += np.vecdot(x, x)[:, None]
        g += np.vecdot(y, y)
        np.maximum(g, 0.0, out=g)
        g *= -1.0 / (2.0 * self.sigma_sq)
        np.exp(g, out=g)
        if self.normalized:
            g *= self.prefactor(x.shape[1])
        return g

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """grad_x K(x_i, y_j) = -(x_i - y_j) K(x_i, y_j) / sigma_sq, shape (n, m, d)."""
        d = x[:, None, :] - y[None, :, :]
        return -d * self.gram(x, y)[:, :, None] / self.sigma_sq


@dataclass(frozen=True)
class LossKind:
    """A GAN loss: tag, reference measure mu0, and (for MMD) a kernel."""

    tag: str  # minimax_js | non_saturating_kl | wasserstein1 | mmd_sq_half
    reference: DiscreteMeasure
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.tag not in ("minimax_js", "non_saturating_kl", "wasserstein1", "mmd_sq_half"):
            raise UnknownKind(f"unknown loss tag {self.tag!r}")
        if (self.kernel is not None) != (self.tag == "mmd_sq_half"):
            raise ValueError("kernel must be present iff tag is mmd_sq_half")


def _check_dims(mu: DiscreteMeasure | SignedMeasure, nu: DiscreteMeasure | SignedMeasure):
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dim {mu.dim} vs {nu.dim}")


def align_many(measures: list[DiscreteMeasure]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map measures onto their union support (atoms merged as in make_discrete).

    Returns (points, weight_vectors), one aligned weight vector per input.
    """
    for m in measures[1:]:
        _check_dims(measures[0], m)
    pts = np.vstack([m.points for m in measures])
    w = np.zeros((len(pts), len(measures)))
    start = 0
    for j, m in enumerate(measures):
        w[start:start + m.n_atoms, j] = m.weights
        start += m.n_atoms
    pts, w = _merge_atoms(pts, w)
    return pts, list(w.T)


# --- Wasserstein-1 ---

def _cdf_levels(xi: SignedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Sorted 1-D atom positions and the running CDF value on each gap."""
    x = xi.points[:, 0]
    order = np.argsort(x)
    return x[order], np.cumsum(xi.weights[order])


def w1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact 1-D Wasserstein-1 distance: the KR norm of mu - nu."""
    _check_dims(mu, nu)
    if mu.dim != 1:
        raise DimensionMismatch("w1_1d requires 1-D measures")
    return kr_norm_1d(diff(mu, nu))


def kr_norm_1d(xi: SignedMeasure) -> float:
    """Kantorovich-Rubinstein norm of a mass-zero 1-D signed measure.

    Equals the integral of |F_xi|; for xi = mu - nu this is W1(mu, nu).
    Mass must vanish: over 1-Lipschitz test functions with free constants the
    supremum is infinite otherwise.
    """
    if xi.dim != 1:
        raise DimensionMismatch("kr_norm_1d requires a 1-D measure")
    require_mass_zero(xi)
    # F_xi is constant between sorted atoms, so the integral is a finite sum
    x, cdf = _cdf_levels(xi)
    return float(np.sum(np.abs(cdf[:-1]) * np.diff(x)))


def w1_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact optimal transport cost with Euclidean ground distance.

    Solves the transport linear program on the discrete supports with an
    exact simplex method (HiGHS); any dimension.  The m*n cells are capped at
    1e6: at the cap the cost takes 8 MB and the sparse constraints 24 MB, and
    building them peaks near 36 MB in any dimension, where a dense constraint
    matrix would take 16 GB.  Larger problems raise ProblemTooLarge before
    anything is allocated.
    """
    _check_dims(mu, nu)
    m, n = mu.n_atoms, nu.n_atoms
    if m * n > _LP_MAX_CELLS:
        raise ProblemTooLarge(f"{m} x {n} transport cells exceed {_LP_MAX_CELLS}")
    cost = cdist(mu.points, nu.points)
    # CSR rows: row marginals kron(I_m, 1_n'), then column marginals kron(1_m', I_n)
    # without the last, redundant one; 24 bytes per cell
    cells = np.arange(m * n, dtype=np.int32)
    cols = np.concatenate([cells, cells.reshape(m, n).T.ravel()[:-m]])
    starts = np.concatenate([np.arange(m, dtype=np.int32) * n,
                             m * n + np.arange(n, dtype=np.int32) * m])
    a_eq = sparse.csr_array((np.ones(len(cols)), cols, starts), shape=(m + n - 1, m * n))
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


# --- f-divergences ---

def kl(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """KL divergence on the union support, with 0 log 0 = 0.

    Returns math.inf when mu has mass where nu has none.
    """
    _, (wm, wn) = align_many([mu, nu])
    pos = wm > 0
    if np.any(wn[pos] == 0):
        return math.inf
    return max(float(np.sum(wm[pos] * np.log(wm[pos] / wn[pos]))), 0.0)


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


# --- MMD ---

def embedding_gram(xi: SignedMeasure, k: KernelSpec) -> float:
    """Double Gram sum of a signed measure: integral of K d(xi x xi)."""
    if xi.n_atoms == 0:
        return 0.0
    g = k.gram(xi.points, xi.points)
    return float(xi.weights @ g @ xi.weights)


def mmd_sq(mu: DiscreteMeasure, nu: DiscreteMeasure, k: KernelSpec) -> float:
    """Squared maximum mean discrepancy (the loss itself is half of this).

    The bilinear form w_mu' K w_mu - 2 w_mu' K w_nu + w_nu' K w_nu needs no
    merging of coincident atoms.
    """
    _check_dims(mu, nu)
    x, y, wx, wy = mu.points, nu.points, mu.weights, nu.weights
    val = wx @ k.gram(x, x) @ wx - 2.0 * (wx @ k.gram(x, y) @ wy) + wy @ k.gram(y, y) @ wy
    return max(float(val), 0.0)


def loss_eval(kind: LossKind, mu: DiscreteMeasure) -> float:
    """Evaluate J(mu) for the given loss kind against its reference."""
    mu0 = kind.reference
    if kind.tag == "minimax_js":
        return js(mu, mu0)
    if kind.tag == "non_saturating_kl":
        return ns_kl(mu, mu0)
    if kind.tag == "wasserstein1":
        if mu.dim == 1:
            return w1_1d(mu, mu0)
        return w1_lp(mu, mu0)
    if kind.tag == "mmd_sq_half":
        return 0.5 * mmd_sq(mu, mu0, kind.kernel)
    raise UnknownKind(kind.tag)
