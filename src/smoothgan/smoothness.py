"""Empirical estimators for the discriminator regularity constants.

Three constants govern stability: the Lipschitz constant of the optimal
discriminator (alpha), the Lipschitz constant of its spatial gradient
(beta1), and the Lipschitz constant of the gradient as a function of the
measure, in Wasserstein-1 distance (beta2).  The estimators here are
sup-sampling lower bounds: random measures (2..8 atoms uniform in the box,
Dirichlet(1,..,1) weights), random evaluation points, deterministic per-trial
seeds.  Analytic upper bounds come from the Gaussian-kernel cross-Hessian,
whose operator norm is available in closed form from its two eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
from scipy.special import rel_entr

from .discriminators import DiscOracle, phi_mmd, phi_w1_1d
from .divergences import KernelSpec, LossKind, align_many, kr_norm_1d, loss_eval, w1_1d, w1_lp
from .errors import GradientUnsupported, PointOffSupport
from .measures import BoxDomain, DiscreteMeasure, diff, random_measure
from .rng import child_rng

SATURATION_THRESHOLD = 1e6


@dataclass(frozen=True)
class SmoothnessReport:
    """Estimated regularity constants with the sampling configuration."""

    alpha_hat: float
    beta1_hat: float
    beta2_hat: float
    n_trials: int
    grid_step: float
    seed: int
    alpha_saturated: bool = False
    beta1_saturated: bool = False
    beta2_saturated: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OracleFamily:
    """A family of discriminator oracles indexed by the generator measure.

    kind 'mmd' supports any dimension; 'w1' is 1-D only.  The reference
    measure is resampled per trial unless mu0 is pinned.  A custom sampler
    lets tests drive the estimators with hand-picked measures.
    """

    kind: str                                   # mmd | w1 | minimax | ns
    dim: int = 1
    kernel: KernelSpec | None = None
    mu0: DiscreteMeasure | None = None
    sampler: Callable[[np.random.Generator], DiscreteMeasure] | None = field(
        default=None, compare=False)

    def supports_gradients(self) -> bool:
        return self.kind in ("mmd", "w1")

    def _draw(self, rng: np.random.Generator, domain: BoxDomain) -> DiscreteMeasure:
        if self.sampler is not None:
            return self.sampler(rng)
        return random_measure(rng, self.dim, domain)

    def oracle(self, mu: DiscreteMeasure, mu0: DiscreteMeasure) -> DiscOracle:
        return DiscOracle(self.kind, mu, mu0, self.kernel)


def _require_gradients(family: OracleFamily) -> None:
    if not family.supports_gradients():
        raise GradientUnsupported(
            f"{family.kind} oracles are density ratios on atoms; gradient queries unsupported")


def _eval_points(domain: BoxDomain, grid_pts: int, rng: np.random.Generator,
                 extra: np.ndarray | None = None) -> np.ndarray:
    """Evaluation points: a grid (1-D) or uniform cloud (d > 1), plus atoms."""
    if domain.dim == 1:
        pts = np.linspace(domain.lo[0], domain.hi[0], grid_pts)[:, None]
    else:
        pts = rng.uniform(domain.lo, domain.hi, size=(grid_pts, domain.dim))
    if extra is not None and len(extra):
        pts = np.vstack([pts, extra])
    return pts


def _grad_norms(oracle: DiscOracle, pts: np.ndarray) -> np.ndarray:
    g = oracle.grad(pts)
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        return np.abs(g)
    return np.linalg.norm(g, axis=1)


def estimate_alpha(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   grid_pts: int, seed: int) -> float:
    """Lower bound on the discriminator Lipschitz constant: sup of gradient norms."""
    _require_gradients(family)
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 0, t)
        mu = family._draw(rng, domain)
        mu0 = family.mu0 if family.mu0 is not None else family._draw(rng, domain)
        pts = _eval_points(domain, grid_pts, rng, np.vstack([mu.points, mu0.points]))
        best = max(best, float(_grad_norms(family.oracle(mu, mu0), pts).max()))
    return best


def estimate_beta1(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   n_point_pairs: int, seed: int) -> float:
    """Lower bound on the spatial gradient Lipschitz constant.

    Point pairs mix uniform anchors with anchors at atoms (where curvature
    peaks) and log-uniform separations down to 1e-7, so a gradient
    discontinuity shows up as a ratio ~1/h and trips the saturation flag.
    """
    _require_gradients(family)
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 1, t)
        mu = family._draw(rng, domain)
        mu0 = family.mu0 if family.mu0 is not None else family._draw(rng, domain)
        oracle = family.oracle(mu, mu0)
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
        ga = np.asarray(oracle.grad(anchors), dtype=float).reshape(n_point_pairs, -1)
        gb = np.asarray(oracle.grad(others), dtype=float).reshape(n_point_pairs, -1)
        ratios = np.linalg.norm(ga - gb, axis=1)[ok] / sep[ok]
        if ratios.size:
            best = max(best, float(ratios.max()))
    return best


def estimate_beta2(family: OracleFamily, domain: BoxDomain, n_measure_pairs: int,
                   grid_pts: int, seed: int) -> float:
    """Lower bound on the measure-gradient Lipschitz constant w.r.t. W1.

    Alternates independent measure pairs with jittered pairs (same weights,
    atoms shifted by a common offset), whose ratio approaches the true
    constant as the jitter shrinks.  Pairs with W1 below 1e-12 are skipped.
    """
    _require_gradients(family)
    best = 0.0
    for t in range(n_measure_pairs):
        rng = child_rng(seed, 2, t)
        mu = family._draw(rng, domain)
        if t % 2 == 0:
            nu = family._draw(rng, domain)
        else:
            h = 10.0 ** rng.uniform(-3, math.log10(0.5))
            direc = rng.standard_normal(domain.dim)
            direc /= np.linalg.norm(direc)
            nu_pts = np.clip(mu.points + h * direc, domain.lo, domain.hi)
            nu = DiscreteMeasure(nu_pts, mu.weights.copy())
        w1 = w1_1d(mu, nu) if domain.dim == 1 else w1_lp(mu, nu)
        if w1 < 1e-12:
            continue
        mu0 = family.mu0 if family.mu0 is not None else family._draw(rng, domain)
        o_mu = family.oracle(mu, mu0)
        o_nu = family.oracle(nu, mu0)
        pts = _eval_points(domain, grid_pts, rng, np.vstack([mu.points, nu.points]))
        gm = np.asarray(o_mu.grad(pts), dtype=float).reshape(len(pts), -1)
        gn = np.asarray(o_nu.grad(pts), dtype=float).reshape(len(pts), -1)
        sup = float(np.linalg.norm(gm - gn, axis=1).max())
        best = max(best, sup / w1)
    return best


def build_report(family: OracleFamily, domain: BoxDomain, n_trials: int,
                 grid_pts: int, seed: int) -> SmoothnessReport:
    """Run all three estimators; cap divergent values at the saturation threshold."""
    raw = (
        estimate_alpha(family, domain, n_trials, grid_pts, seed),
        estimate_beta1(family, domain, n_trials, max(grid_pts // 4, 8), seed),
        estimate_beta2(family, domain, n_trials, grid_pts, seed),
    )
    capped = [min(v, SATURATION_THRESHOLD) for v in raw]
    flags = [v > SATURATION_THRESHOLD for v in raw]
    step = float((domain.hi[0] - domain.lo[0]) / max(grid_pts - 1, 1))
    return SmoothnessReport(capped[0], capped[1], capped[2], n_trials, step, seed,
                            flags[0], flags[1], flags[2])


# --- Bregman divergences ---

def bregman(kind: LossKind, nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """Bregman divergence J(nu) - J(mu) - <Phi_mu, nu - mu>, nonnegative by convexity.

    For the density-ratio kinds the three pieces carry opposing infinities in
    degenerate configurations, so their per-atom contributions are combined
    algebraically before summation.  Raises PointOffSupport when nu puts mass
    where the discriminator is undefined.
    """
    mu0 = kind.reference
    if kind.tag == "mmd_sq_half":
        vals_nu = phi_mmd(mu, mu0, kind.kernel, nu.points)
        vals_mu = phi_mmd(mu, mu0, kind.kernel, mu.points)
        pair = float(np.dot(vals_nu, nu.weights) - np.dot(vals_mu, mu.weights))
        return loss_eval(kind, nu) - loss_eval(kind, mu) - pair

    if kind.tag == "wasserstein1":
        pair = (float(np.dot(phi_w1_1d(mu, mu0, nu.points[:, 0]), nu.weights))
                - float(np.dot(phi_w1_1d(mu, mu0, mu.points[:, 0]), mu.weights)))
        return loss_eval(kind, nu) - loss_eval(kind, mu) - pair

    # density-ratio kinds on the union support of (nu, mu, mu0)
    _, (wn_u, wm_u, w0_u) = align_many([nu, mu, mu0])

    if np.any((wn_u > 0) & (wm_u == 0) & (w0_u == 0)):
        raise PointOffSupport("nu has mass where neither mu nor mu0 does")

    if kind.tag == "non_saturating_kl":
        # per-atom reduction of J(nu) - J(mu) - <Phi_mu, nu - mu>:
        #   m_nu log(m_nu / (2 m_mu)) + m_mu log 2,  m = (w + w0)/2
        m_nu = 0.5 * (wn_u + w0_u)
        m_mu = 0.5 * (wm_u + w0_u)
        if np.any((m_nu > 0) & (m_mu == 0)):
            return math.inf
        return float(np.sum(rel_entr(m_nu, 2.0 * m_mu) + m_mu * math.log(2.0)))

    if kind.tag == "minimax_js":
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

    raise ValueError(f"bregman undefined for kind {kind.tag!r}")


def bregman_kr_bound_check(kind: LossKind, pairs: list[tuple[DiscreteMeasure, DiscreteMeasure]],
                           beta2: float) -> float:
    """Worst ratio of Bregman divergence to (1/2) ||mu - nu||_KR^2 over the pairs.

    A finite return <= beta2 certifies the quadratic bound on the sample;
    math.inf reports an unbounded (infinite-Bregman) pair.
    """
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


def kernel_cross_hessian_norm(k: KernelSpec, x, y) -> float:
    """Operator norm of the mixed second derivative matrix of the Gaussian kernel.

    The matrix (1/s2) e^{-z} [ (x-y)(x-y)^T / s2 - I ], z = ||x-y||^2/(2 s2),
    has eigenvalue (1/s2) e^{-z} (2z - 1) along x - y and -(1/s2) e^{-z} on
    the complement, so its norm is (1/s2) e^{-z} max(|2z - 1|, 1), times the
    normalization prefactor when the kernel carries one.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    s2 = k.sigma_sq
    z = float(np.sum((xv - yv) ** 2)) / (2.0 * s2)
    return k.prefactor(xv.size) / s2 * math.exp(-z) * max(abs(2.0 * z - 1.0), 1.0)
