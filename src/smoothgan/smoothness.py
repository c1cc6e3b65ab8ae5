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
from dataclasses import asdict, dataclass

import numpy as np

from .divergences import LOSSES, KernelSpec, LossKind
from .errors import GradientUnsupported, PreconditionViolated, UnknownKind, need_count, refuse_over
from .measures import BoxDomain, DiscreteMeasure, random_measure
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

    kind names an entry of LOSSES; gradient queries need one with a witness
    gradient: 'mmd' in any dimension, 'w1' in 1-D.  The estimators draw the
    generator and the reference measure afresh in each trial.
    """

    kind: str
    dim: int = 1
    kernel: KernelSpec | None = None

    def __post_init__(self):
        need_count(self.dim, "dim", 1, PreconditionViolated)
        if self.kind not in LOSSES:
            raise UnknownKind(f"unknown loss {self.kind!r}")
        LOSSES[self.kind].check_kernel(self.kernel)

    def supports_gradients(self) -> bool:
        return LOSSES[self.kind].grad is not None

    def grad(self, mu: DiscreteMeasure, mu0: DiscreteMeasure, x) -> np.ndarray:
        """Spatial gradients (n, d) of the optimal discriminator for (mu, mu0) at an (n, d) batch x."""
        if not self.supports_gradients():
            raise GradientUnsupported(
                f"{self.kind} oracles are density ratios on atoms; gradient queries unsupported")
        return LOSSES[self.kind].grad(mu, mu0, self.kernel, x)


def _eval_points(domain: BoxDomain, grid_pts: int, rng: np.random.Generator,
                 extra: np.ndarray) -> np.ndarray:
    """Evaluation points: a grid (1-D) or uniform cloud (d > 1), then the atoms extra."""
    if domain.dim == 1:
        pts = np.linspace(domain.lo[0], domain.hi[0], grid_pts)[:, None]
    else:
        pts = rng.uniform(domain.lo, domain.hi, size=(grid_pts, domain.dim))
    return np.vstack([pts, extra])


def estimate_alpha(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   grid_pts: int, seed: int) -> float:
    """Lower bound on the discriminator Lipschitz constant: sup of gradient norms."""
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 0, t)
        mu = random_measure(rng, family.dim, domain)
        mu0 = random_measure(rng, family.dim, domain)
        pts = _eval_points(domain, grid_pts, rng, np.vstack([mu.points, mu0.points]))
        best = max(best, float(np.linalg.norm(family.grad(mu, mu0, pts), axis=1).max()))
    return best


def estimate_beta1(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   n_point_pairs: int, seed: int) -> float:
    """Lower bound on the spatial gradient Lipschitz constant.

    Point pairs mix uniform anchors with anchors at atoms (where curvature
    peaks) and log-uniform separations down to 1e-7, so a gradient
    discontinuity shows up as a ratio ~1/h and trips the saturation flag.
    """
    best = 0.0
    for t in range(n_measures):
        rng = child_rng(seed, 1, t)
        mu = random_measure(rng, family.dim, domain)
        mu0 = random_measure(rng, family.dim, domain)
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
        grads = family.grad(mu, mu0, np.concatenate([anchors, others]))
        gap = grads[:n_point_pairs] - grads[n_point_pairs:]
        ratios = np.linalg.norm(gap, axis=1)[ok] / sep[ok]
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
    best = 0.0
    for t in range(n_measure_pairs):
        rng = child_rng(seed, 2, t)
        mu = random_measure(rng, family.dim, domain)
        if t % 2 == 0:
            nu = random_measure(rng, family.dim, domain)
        else:
            h = 10.0 ** rng.uniform(-3, math.log10(0.5))
            direc = rng.standard_normal(domain.dim)
            direc /= np.linalg.norm(direc)
            nu_pts = np.clip(mu.points + h * direc, domain.lo, domain.hi)
            nu = DiscreteMeasure(nu_pts, mu.weights.copy())
        dist = LOSSES["w1"].value(mu, nu, None)
        if dist < 1e-12:
            continue
        mu0 = random_measure(rng, family.dim, domain)
        pts = _eval_points(domain, grid_pts, rng, np.vstack([mu.points, nu.points]))
        gap = family.grad(mu, mu0, pts) - family.grad(nu, mu0, pts)
        sup = float(np.linalg.norm(gap, axis=1).max())
        best = max(best, sup / dist)
    return best


def build_report(family: OracleFamily, domain: BoxDomain, n_trials: int,
                 grid_pts: int, seed: int) -> SmoothnessReport:
    """Run all three estimators; cap divergent values at the saturation threshold.

    An evaluation cloud of more than CELL_CAP coordinates, or more than
    CELL_CAP trials, raises ProblemTooLarge before the first trial.
    """
    need_count(n_trials, "n_trials", 1, PreconditionViolated)
    need_count(grid_pts, "grid_pts", 2, PreconditionViolated)
    refuse_over(grid_pts * domain.dim, "evaluation-cloud coordinates")
    refuse_over(n_trials, "trials")
    raw = (
        estimate_alpha(family, domain, n_trials, grid_pts, seed),
        estimate_beta1(family, domain, n_trials, max(grid_pts // 4, 8), seed),
        estimate_beta2(family, domain, n_trials, grid_pts, seed),
    )
    capped = [min(v, SATURATION_THRESHOLD) for v in raw]
    flags = [v > SATURATION_THRESHOLD for v in raw]
    step = float((domain.hi[0] - domain.lo[0]) / (grid_pts - 1))
    return SmoothnessReport(capped[0], capped[1], capped[2], n_trials, step, seed,
                            flags[0], flags[1], flags[2])


# --- Bregman divergences ---

def bregman(kind: LossKind, nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """Bregman divergence J(nu) - J(mu) - <Phi_mu, nu - mu>, nonnegative by convexity.

    Raises PointOffSupport when nu puts mass where the discriminator is undefined.
    """
    return kind.loss.bregman(kind, nu, mu)


def kernel_cross_hessian_norm(k: KernelSpec, x, y) -> float:
    """Operator norm of the mixed second derivative matrix of the Gaussian kernel.

    The matrix (1/s2) e^{-z} [ (x-y)(x-y)^T / s2 - I ], z = ||x-y||^2/(2 s2),
    has eigenvalue (1/s2) e^{-z} (2z - 1) along x - y and -(1/s2) e^{-z} on
    the complement, so its norm is (1/s2) e^{-z} max(|2z - 1|, 1).
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    s2 = k.sigma_sq
    z = float(np.sum((xv - yv) ** 2)) / (2.0 * s2)
    return 1.0 / s2 * math.exp(-z) * max(abs(2.0 * z - 1.0), 1.0)
