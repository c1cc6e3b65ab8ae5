"""Particle-generator training and the stationarity guarantee.

The generator is an N x d parameter matrix whose rows are the particles; the
pushforward of the uniform latent is the equal-weight measure on the rows.
This generator is A-Lipschitz in expectation with A = 1/sqrt(N) and has
constant Jacobian (B = 0), so gradient descent on half the squared MMD at
step size 1/L with L = (beta1 + beta2)/N must drive the minimum observed
gradient norm below sqrt(2 L J_0 / n) after n steps.  The regularized
adversarial loop alternates discriminator ascent (ELU net, exactly
spectrally normalized after every step; output-plus-gradient penalty on
random interpolates; reverse-mode parameter gradient) with particle descent
along the discriminator's input gradient.  Both run through _descend, which ends runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminators import witness_grad_mmd
from .divergences import KernelSpec, _is_critical, mmd_sq
from .errors import (ConfigError, DegenerateConstants, DimensionMismatch, MalformedTrace,
                     PreconditionViolated, need_count, need_positive, refuse_over)
from .measures import DiscreteMeasure, table_from_csv, table_to_csv
from .nnsmooth import (MlpNet, mlp_forward, mlp_input_grad, mlp_param_grad, random_mlp,
                       spectral_normalize)
from .rkhs import gp_penalty
from .rng import child_rng

DIVERGENCE_THRESHOLD = 1e6
ESCAPE_THRESHOLD = 1e6            # iterate sup-norm beyond which a run is unrecoverable
BETA1_MMD_BOUND = 4.0 * math.pi   # two-sided kernel-Hessian bound for the critical kernel
BETA2_MMD_BOUND = 2.0 * math.pi


@dataclass(frozen=True)
class TrainConfig:
    target: DiscreteMeasure
    kernel: KernelSpec
    n_particles: int
    n_steps: int
    seed: int
    lr_ratio: float = 1.0
    init: np.ndarray | None = None     # default: particles uniform in [-1, 1]^d

    def __post_init__(self):
        need_positive(self.lr_ratio, "lr_ratio", ConfigError)
        for name, least in (("n_particles", 1), ("n_steps", 1), ("seed", 0)):
            need_count(getattr(self, name), name, least, ConfigError)
        # the step 1/L is built from the critical kernel's beta1 and beta2 bounds
        if not _is_critical(self.kernel):
            raise PreconditionViolated(f"particle descent takes the critical kernel, "
                                       f"not sigma_sq = {self.kernel.sigma_sq}")


@dataclass(frozen=True)
class TrainTrace:
    """Per-step record of the run; entries are finite unless diverged is set."""

    loss: np.ndarray
    grad_norm: np.ndarray
    step_size: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        if not (len(self.loss) == len(self.grad_norm) == len(self.step_size)):
            raise MalformedTrace("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.loss)

    @property
    def min_grad_norm(self) -> float:
        """The least finite gradient norm: a diverged run's overflowed last row does not
        hide the others.  NaN only if no row is finite."""
        finite = self.grad_norm[np.isfinite(self.grad_norm)]
        return float(np.min(finite)) if finite.size else math.nan

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1])

    def above_running_min_fraction(self) -> float:
        """Fraction of steps with loss more than 1e-12 above its running minimum.

        Exactly 0 for a monotone-nonincreasing loss, so this measures how
        much of the run sits on undone progress.  For the bounded kernel
        loss the unstable regime shows up here: a wild step raises the loss
        and the gradients die before it can recover, rather than the loss
        growing past any fixed threshold.
        """
        run_min = np.minimum.accumulate(self.loss)
        return float(np.mean(self.loss > run_min + 1e-12))


def mmd_particle_grad(theta: np.ndarray, mu0: DiscreteMeasure, k: KernelSpec) -> np.ndarray:
    """Gradient of theta -> (1/2) MMD^2(mu_theta, mu0) for the N x d particle
    matrix theta, whose measure weights each row 1/N: row i is the witness
    gradient at particle i scaled by 1/N.  Coordinates are not bounded: an escaped
    run's last row is recorded, inf or nan."""
    if theta.ndim != 2 or theta.shape[1] != mu0.dim:
        raise DimensionMismatch(f"particles of shape {theta.shape} vs target dim {mu0.dim}")
    n = len(theta)
    return witness_grad_mmd((theta, np.full(n, 1.0 / n), n),
                            (mu0.points, mu0.weights, mu0.n_atoms), k, theta) / n


def theoretical_lr(a: float, b: float, alpha: float, beta1: float, beta2: float) -> float:
    """Step size 1/L with L = alpha * B + A^2 (beta1 + beta2)."""
    big_l = alpha * b + a * a * (beta1 + beta2)
    if big_l <= 0:
        raise DegenerateConstants("smoothness constant L must be positive")
    return 1.0 / big_l


def _descend(step, theta: np.ndarray, n_steps: int, lr: float) -> TrainTrace:
    """Gradient descent theta <- theta - lr * grad: the one loop of both trainers, and
    the one place that ends a run.

    step(k, theta) returns (loss, grad, bad) at the k-th iterate; the trace records
    the loss and the gradient's Frobenius norm.  A bad step, an iterate past the
    escape threshold, or a loss that is not finite or past the divergence threshold in
    magnitude stops the run as diverged, keeping its row, which overflow (silent for
    the whole loop) may leave inf or nan.  More than CELL_CAP steps raise
    ProblemTooLarge before the trace arrays exist; an initial iterate that is
    not finite or lies past the escape threshold is refused before the first step.
    """
    refuse_over(n_steps, "steps")
    if not np.all(np.abs(theta) <= ESCAPE_THRESHOLD):
        raise ConfigError(f"the initial iterate must be finite with entries of size at most "
                          f"{ESCAPE_THRESHOLD:g}")
    losses = np.empty(n_steps)
    gnorms = np.empty(n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for kstep in range(n_steps):
            loss, grad, bad = step(kstep, theta)
            losses[kstep] = loss
            gnorms[kstep] = np.linalg.norm(grad)
            # NaN fails both comparisons: it propagates through max and is never <=
            if bad or not (np.abs(theta).max() <= ESCAPE_THRESHOLD
                           and abs(loss) <= DIVERGENCE_THRESHOLD):
                n = kstep + 1
                return TrainTrace(losses[:n], gnorms[:n], np.full(n, lr), diverged=True)
            theta = theta - lr * grad
    return TrainTrace(losses, gnorms, np.full(n_steps, lr))


def train_particles(cfg: TrainConfig) -> TrainTrace:
    """Plain gradient descent on half the squared MMD at gamma = lr_ratio / L.

    Records loss and gradient Frobenius norm before each step; _descend's stop
    rule ends the run.  (The kernel loss itself is bounded, so for this trainer
    the diverged flag in practice fires on escape or numeric overflow only.)
    """
    d = cfg.target.dim
    if cfg.init is not None:
        theta = np.array(cfg.init, dtype=float)
        if theta.shape != (cfg.n_particles, d):
            raise ConfigError(f"init must have shape ({cfg.n_particles}, {d})")
    else:
        theta = child_rng(cfg.seed, 7).uniform(-1.0, 1.0, size=(cfg.n_particles, d))

    a = 1.0 / math.sqrt(cfg.n_particles)
    gamma = cfg.lr_ratio * theoretical_lr(a, 0.0, 1.0, BETA1_MMD_BOUND, BETA2_MMD_BOUND)
    gen_measure_w = np.full(cfg.n_particles, 1.0 / cfg.n_particles)

    def step(_kstep, theta):
        loss = 0.5 * mmd_sq(DiscreteMeasure(theta, gen_measure_w), cfg.target, cfg.kernel)
        return loss, mmd_particle_grad(theta, cfg.target, cfg.kernel), False

    return _descend(step, theta, cfg.n_steps, gamma)


def check_stationarity_bound(trace: TrainTrace, big_l: float, j0: float,
                             rel_tol: float = 1e-9) -> bool:
    """min_{k<n} g_k^2 <= (2 L / n) * J0 for every n up to the trace length.

    J0 should be the initial loss when the infimum is zero (realizable
    target); pass j0 = J(theta_0) - J_best otherwise for the surrogate form.
    """
    g_sq = np.asarray(trace.grad_norm, dtype=float) ** 2
    running_min = np.minimum.accumulate(g_sq)
    n = np.arange(1, len(g_sq) + 1, dtype=float)
    return bool(np.all(running_min * n <= 2.0 * big_l * j0 * (1.0 + rel_tol) + 1e-300))


def check_descent_inequality(trace: TrainTrace, big_l: float, tol: float = 1e-9) -> bool:
    """J_{k+1} <= J_k - g_k^2 / (2 L) at every recorded step."""
    j = np.asarray(trace.loss, dtype=float)
    g = np.asarray(trace.grad_norm, dtype=float)
    lhs = j[1:]
    rhs = j[:-1] - g[:-1] ** 2 / (2.0 * big_l)
    return bool(np.all(lhs <= rhs + tol))


# --- regularized adversarial loop ---

@dataclass(frozen=True)
class GanLoopConfig:
    """The adversarial loop's settings; the gan2d JSON config holds these fields."""

    generator_init: np.ndarray          # N x d particle matrix
    target: DiscreteMeasure
    depth: int = 3
    width: int = 8
    final_scale: float = 0.05           # the output multiplier alpha
    beta2: float = BETA2_MMD_BOUND
    n_steps: int = 100
    seed: int = 0
    disc_steps_per_gen: int = 2
    lr_disc: float = 0.05
    lr_gen: float | None = None         # default: N / (depth * alpha + beta2)

    def __post_init__(self):
        ints = {"depth": 1, "width": 1, "n_steps": 1, "disc_steps_per_gen": 1, "seed": 0}
        for name, least in ints.items():
            need_count(getattr(self, name), name, least, ConfigError)
        rates = ("final_scale", "beta2", "lr_disc") + (() if self.lr_gen is None else ("lr_gen",))
        for name in rates:
            need_positive(getattr(self, name), name, ConfigError)


def _disc_objective(net: MlpNet, theta: np.ndarray, target: DiscreteMeasure,
                    interp: np.ndarray, penalty_coef: float) -> float:
    """E_mu[phi] - E_mu0[phi] - penalty_coef * E_interp[phi^2 + ||grad phi||^2/(4 pi)]."""
    gen_term = float(np.mean(mlp_forward(net, theta)))
    tgt_term = float(np.dot(mlp_forward(net, target.points), target.weights))
    pen = gp_penalty(mlp_forward(net, interp), mlp_input_grad(net, interp))
    return gen_term - tgt_term - penalty_coef * pen


def _disc_grad(net: MlpNet, theta: np.ndarray, target: DiscreteMeasure,
               interp: np.ndarray, penalty_coef: float) -> np.ndarray:
    """Exact parameter gradient of _disc_objective, one reverse-mode pass."""
    m = len(interp)
    pts = np.vstack([theta, target.points, interp])
    out_grad = np.concatenate([np.full(len(theta), 1.0 / len(theta)), -target.weights,
                               -2.0 * penalty_coef / m * mlp_forward(net, interp)])
    in_grad = np.zeros_like(pts)
    in_grad[-m:] = -penalty_coef / (2.0 * math.pi * m) * mlp_input_grad(net, interp)
    return mlp_param_grad(net, pts, out_grad, in_grad)


def train_gan2d(cfg: GanLoopConfig, disc_probe=None) -> TrainTrace:
    """Alternating loop for the inf-convolution-regularized trivial loss.

    The discriminator is an ELU net.  Each outer step runs disc_steps_per_gen
    ascent steps on the discriminator objective (exact reverse-mode parameter
    gradient over N penalty samples, exact spectral re-normalization after
    every step), then one particle step along the discriminator's input
    gradient.  The trace records the minimax surrogate value and the
    generator gradient norm.  disc_probe, when given, is called with the
    network after every discriminator update.  Non-finite discriminator
    parameters make the step bad, and _descend's stop rule ends the run.
    """
    theta = np.array(cfg.generator_init, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != cfg.target.dim:
        raise ConfigError("generator_init must be N x d matching the target dimension")
    n = theta.shape[0]
    net = spectral_normalize(random_mlp(cfg.target.dim, cfg.width, cfg.depth, "elu",
                                        child_rng(cfg.seed, 11).integers(2 ** 31),
                                        cfg.final_scale))

    penalty_coef = math.pi / cfg.beta2
    lr_gen = cfg.lr_gen
    if lr_gen is None:
        lr_gen = n / (cfg.depth * cfg.final_scale + cfg.beta2)

    def step(kstep, theta):
        nonlocal net
        rng = child_rng(cfg.seed, 13, kstep)
        bad = False
        for _ in range(cfg.disc_steps_per_gen):
            u = theta[rng.integers(0, n, size=n)]
            v = cfg.target.points[rng.choice(len(cfg.target.points), size=n,
                                             p=cfg.target.weights)]
            t = rng.uniform(0.0, 1.0, size=(n, 1))
            interp = t * u + (1.0 - t) * v
            params = net.flatten_params() + cfg.lr_disc * _disc_grad(net, theta, cfg.target,
                                                                     interp, penalty_coef)
            if not np.all(np.isfinite(params)):
                bad = True          # no finite net to normalize: the step stays the last
                break
            net = spectral_normalize(net.with_params(params))
            if disc_probe is not None:
                disc_probe(net)
        obj = _disc_objective(net, theta, cfg.target, interp, penalty_coef)
        return obj, mlp_input_grad(net, theta) / n, bad

    return _descend(step, theta, cfg.n_steps, lr_gen)


# --- trace CSV: step,loss,grad_norm,step_size,flags ---

_TRACE_HEADER = ["step", "loss", "grad_norm", "step_size", "flags"]


def trace_to_csv(trace: TrainTrace) -> str:
    n = len(trace)
    flags = [""] * (n - 1) + ["diverged" if trace.diverged else ""]
    return table_to_csv(_TRACE_HEADER, zip(range(n), trace.loss.tolist(), trace.grad_norm.tolist(),
                                           trace.step_size.tolist(), flags))


def trace_from_csv(text: str) -> TrainTrace:
    header, table = table_from_csv(text, {"flags": ("", "diverged")}, MalformedTrace)
    if header != _TRACE_HEADER:
        raise MalformedTrace(f"trace CSV must carry the header {','.join(_TRACE_HEADER)}")
    _, loss, gnorm, step_size, flags = table.T
    return TrainTrace(loss, gnorm, step_size, bool(flags.any()))
