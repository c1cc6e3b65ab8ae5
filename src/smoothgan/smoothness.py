"""Empirical estimators for the discriminator regularity constants.

Three constants govern stability: the Lipschitz constant of the optimal
discriminator (alpha), the Lipschitz constant of its spatial gradient
(beta1), and the Lipschitz constant of the gradient as a function of the
measure, in Wasserstein-1 distance (beta2).  The estimators here are
sup-sampling lower bounds: random measures (2..8 atoms uniform in the box,
Dirichlet(1,..,1) weights), random evaluation points, deterministic per-trial
seeds.  Analytic upper bounds come from the Gaussian-kernel cross-Hessian,
whose operator norm is available in closed form from its two eigenvalues.

Each trial draws from its own stream, child_rng(seed, k, t), in a fixed order;
only the draws run trial by trial.  The trials' measures are then packed as
plain padded arrays (pack_measures, byte-equal to make_discrete per trial) and
evaluated in batches of at most 2^20 query-atom cells: one call of
the loss's gradient rule, LOSSES[kind].grad, per batch, with masks in place of
the per-trial skips.  W1 estimates equal the per-trial loop's by repr.  MMD
kernel sums over zero-weight padding add in another order: over the
benchmark's estimator calls on seeds 1-20 that moved alpha by at most 4e-16
relative, beta2 by 9.3e-14 and beta1, whose ratios at separations down to
1e-7 magnify last-bit changes, by 5.9e-10.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .discriminators import _w1_sweep
from .divergences import LOSSES, KernelSpec, LossKind, _w1_rows, w1_lp
from .errors import GradientUnsupported, PreconditionViolated, UnknownKind, need_count, refuse_over
from .measures import BoxDomain, DiscreteMeasure, Packed, _real, pack_measures, random_atoms
from .rng import child_rng

SATURATION_THRESHOLD = 1e6
# a chunk of trials is sized for pooled supports of two draws of at most 8 atoms each, and
# for at most 2^20 cells, 8 MB a float array: at CELL_CAP one chunk's Gram alone would take 80 MB
_POOLED_ATOMS = 16
_CHUNK_CELLS = 2 ** 20


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

    def grad(self, mu: Packed, mu0: Packed, x: np.ndarray) -> np.ndarray:
        """Spatial gradients (T, P, d) of the optimal discriminators of T pack_measures row
        pairs (mu_t, mu0_t) at their (T, P, d) queries x, by the loss's one gradient rule."""
        if not self.supports_gradients():
            raise GradientUnsupported(
                f"{self.kind} oracles are density ratios on atoms; gradient queries unsupported")
        return LOSSES[self.kind].grad(mu, mu0, self.kernel, x)


def _chunks(n_trials: int, cells: int) -> list[range]:
    """Consecutive trial ranges of at most _CHUNK_CELLS / cells trials each, at least one;
    a trial over CELL_CAP cells is refused by the kernel."""
    size = max(1, _CHUNK_CELLS // cells)
    return [range(s, min(s + size, n_trials)) for s in range(0, n_trials, size)]


def _pack(draws: list[tuple[np.ndarray, np.ndarray]]) -> Packed:
    """make_discrete of each raw (points, weights) draw, packed as pack_measures packs them."""
    rows = np.repeat(np.arange(len(draws)), [len(w) for _, w in draws])
    return pack_measures(np.concatenate([p for p, _ in draws]),
                         np.concatenate([w for _, w in draws]), rows, len(draws))


def _draw_pairs(family: OracleFamily, domain: BoxDomain, seed: int, k: int,
                trials: range) -> tuple[list[np.random.Generator], Packed, Packed]:
    """Each trial's stream child_rng(seed, k, t), and the measures mu and mu0 it draws first."""
    rngs = [child_rng(seed, k, t) for t in trials]
    packed = _pack([random_atoms(rng, family.dim, domain) for rng in rngs for _ in range(2)])
    return rngs, _rows(packed, slice(0, None, 2)), _rows(packed, slice(1, None, 2))


def _rows(m: Packed, sel) -> Packed:
    return m[0][sel], m[1][sel], m[2][sel]


def _cat(a: Packed, b: Packed) -> Packed:
    """The rows of a, then those of b (of one width)."""
    return tuple(np.concatenate(z) for z in zip(a, b))


def _eval_points(domain: BoxDomain, grid_pts: int, rngs: list[np.random.Generator],
                 mu: Packed, nu: Packed) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's evaluation points (T, P, d), and which are real: a grid (1-D) or a
    uniform cloud drawn from the trial's stream (d > 1), then the atoms of mu and nu."""
    if domain.dim == 1:
        grid = np.linspace(domain.lo[0], domain.hi[0], grid_pts)[:, None]
        cloud = np.broadcast_to(grid, (len(rngs), grid_pts, 1))
    else:
        cloud = np.stack([rng.uniform(domain.lo, domain.hi, size=(grid_pts, domain.dim))
                          for rng in rngs])
    pts = np.concatenate([cloud, mu[0], nu[0]], axis=1)
    real = np.concatenate([np.ones(cloud.shape[:2], dtype=bool), _real(mu), _real(nu)], axis=1)
    return pts, real


def estimate_alpha(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   grid_pts: int, seed: int) -> float:
    """Lower bound on the discriminator Lipschitz constant: sup of gradient norms."""
    need_count(n_measures, "n_measures", 1, PreconditionViolated)
    best = 0.0
    for trials in _chunks(n_measures, (grid_pts + _POOLED_ATOMS) * _POOLED_ATOMS):
        rngs, mu, mu0 = _draw_pairs(family, domain, seed, 0, trials)
        pts, real = _eval_points(domain, grid_pts, rngs, mu, mu0)
        norms = np.linalg.norm(family.grad(mu, mu0, pts), axis=-1)
        best = np.maximum(best, np.max(norms, where=real, initial=0.0))  # NaN propagates
    return float(best)


def estimate_beta1(family: OracleFamily, domain: BoxDomain, n_measures: int,
                   n_point_pairs: int, seed: int) -> float:
    """Lower bound on the spatial gradient Lipschitz constant.

    Point pairs mix uniform anchors with anchors at atoms (where curvature
    peaks) and log-uniform separations down to 1e-7, so a gradient
    discontinuity shows up as a ratio ~1/h and trips the saturation flag.
    """
    need_count(n_measures, "n_measures", 1, PreconditionViolated)
    need_count(n_point_pairs, "n_point_pairs", 1, PreconditionViolated)
    n, lo, hi = n_point_pairs, domain.lo, domain.hi
    best = 0.0
    for trials in _chunks(n_measures, 2 * n * _POOLED_ATOMS):
        rngs, mu, mu0 = _draw_pairs(family, domain, seed, 1, trials)
        # the rest of each trial's stream: which anchors sit at atoms, the uniform anchors,
        # which atom of vstack([mu.points, mu0.points]), separations and directions
        coin, anchors, atom_ix, h, direc = (np.stack(a) for a in zip(*[
            (rng.random(n), rng.uniform(lo, hi, size=(n, domain.dim)),
             rng.integers(0, k, size=n), 10.0 ** rng.uniform(-7, 0, size=n),
             rng.standard_normal((n, domain.dim)))
            for rng, k in zip(rngs, (mu[2] + mu0[2]).tolist())]))
        width = mu[1].shape[1]
        col = np.where(atom_ix < mu[2][:, None], atom_ix, atom_ix - mu[2][:, None] + width)
        atoms = np.take_along_axis(np.concatenate([mu[0], mu0[0]], axis=1), col[..., None], axis=1)
        anchors = np.where(coin[..., None] < 0.5, atoms, anchors)
        direc /= np.linalg.norm(direc, axis=-1, keepdims=True)
        others = np.clip(anchors + h[..., None] * direc, lo, hi)
        sep = np.linalg.norm(anchors - others, axis=-1)
        grads = family.grad(mu, mu0, np.concatenate([anchors, others], axis=1))
        gap = np.linalg.norm(grads[:, :n] - grads[:, n:], axis=-1)
        ratios = np.divide(gap, sep, out=np.zeros_like(gap), where=sep > 0)
        best = np.maximum(best, ratios.max())  # NaN propagates
    return float(best)


def estimate_beta2(family: OracleFamily, domain: BoxDomain, n_measure_pairs: int,
                   grid_pts: int, seed: int) -> float:
    """Lower bound on the measure-gradient Lipschitz constant w.r.t. W1.

    Alternates independent measure pairs with jittered pairs (same weights,
    atoms shifted by a common offset), whose ratio approaches the true
    constant as the jitter shrinks.  Pairs with W1 below 1e-12 are skipped.
    """
    need_count(n_measure_pairs, "n_measure_pairs", 1, PreconditionViolated)
    best = 0.0
    for trials in _chunks(n_measure_pairs, 2 * (grid_pts + _POOLED_ATOMS) * _POOLED_ATOMS):
        rngs = [child_rng(seed, 2, t) for t in trials]
        draws, shifts = [], []
        for t, rng in zip(trials, rngs):
            draws.append(random_atoms(rng, family.dim, domain))               # mu
            if t % 2 == 0:
                draws.append(random_atoms(rng, family.dim, domain))           # nu
            else:
                h = 10.0 ** rng.uniform(-3, math.log10(0.5))
                direc = rng.standard_normal(domain.dim)
                direc /= np.linalg.norm(direc)
                shifts.append(h * direc)
            draws.append(random_atoms(rng, family.dim, domain))               # mu0
        packed = _pack(draws)
        even = np.array([t % 2 == 0 for t in trials])
        first = np.cumsum(2 + even) - (2 + even)                # each trial's mu row
        mu, mu0 = _rows(packed, first), _rows(packed, first + 1 + even)
        # a jittered nu is mu's row, weights and atom order kept, unmerged, its atoms shifted
        nu = _rows(packed, first + even)
        nu[0][~even] = np.clip(nu[0][~even] + np.reshape(shifts, (-1, 1, domain.dim)),
                               domain.lo, domain.hi)
        if domain.dim == 1:
            dist = _w1_rows(*_w1_sweep(mu, nu))
        else:
            dist = np.array([w1_lp(DiscreteMeasure(mu[0][t, :mu[2][t]], mu[1][t, :mu[2][t]]),
                                   DiscreteMeasure(nu[0][t, :nu[2][t]], nu[1][t, :nu[2][t]]))
                             for t in range(len(trials))])
        pts, real = _eval_points(domain, grid_pts, rngs, mu, nu)
        grads = family.grad(_cat(mu, nu), _cat(mu0, mu0), np.concatenate([pts, pts]))
        gap = np.linalg.norm(grads[:len(trials)] - grads[len(trials):], axis=-1)
        sup = np.max(gap, axis=-1, where=real, initial=0.0)
        keep = dist >= 1e-12
        if keep.any():
            best = np.maximum(best, np.max(sup[keep] / dist[keep]))  # NaN propagates
    return float(best)


def build_report(family: OracleFamily, domain: BoxDomain, n_trials: int,
                 grid_pts: int, seed: int) -> SmoothnessReport:
    """Run all three estimators; cap divergent values at the saturation threshold.
    An estimate over a NaN oracle value is NaN, not capped.

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
