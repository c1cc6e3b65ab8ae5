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
along the discriminator's input gradient.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .divergences import KernelSpec, mmd_sq
from .errors import ConfigError, DegenerateConstants, DimensionMismatch, MalformedTrace
from .measures import DiscreteMeasure, _is_int
from .nnsmooth import (MlpNet, mlp_forward, mlp_input_grad, mlp_param_grad, random_mlp,
                       spectral_normalize)
from .rkhs import gp_penalty
from .rng import child_rng

DIVERGENCE_THRESHOLD = 1e6
ESCAPE_THRESHOLD = 1e6            # iterate sup-norm beyond which a run is unrecoverable
BETA1_MMD_BOUND = 4.0 * math.pi   # two-sided kernel-Hessian bound for the critical kernel
BETA2_MMD_BOUND = 2.0 * math.pi


@dataclass(frozen=True)
class ParticleGenerator:
    """Rows of theta are the particles; the generated measure weights them 1/N."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 2:
            raise ConfigError("theta must be an N x d matrix")
        t.setflags(write=False)
        object.__setattr__(self, "theta", t)

    @property
    def n_particles(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def measure(self) -> DiscreteMeasure:
        # direct construction: coincident particles keep separate rows so the
        # weights stay exactly 1/N
        return DiscreteMeasure(np.array(self.theta),
                               np.full(self.n_particles, 1.0 / self.n_particles))

    def lipschitz_a(self) -> float:
        return 1.0 / math.sqrt(self.n_particles)


@dataclass(frozen=True)
class TrainConfig:
    target: DiscreteMeasure
    kernel: KernelSpec
    n_particles: int
    n_steps: int
    seed: int
    lr_ratio: float = 1.0
    beta1_bound: float = BETA1_MMD_BOUND
    beta2_bound: float = BETA2_MMD_BOUND
    init: np.ndarray | None = None     # default: particles uniform in [-1, 1]^d

    def __post_init__(self):
        if not 0 < self.lr_ratio < math.inf or self.n_steps < 1 or self.n_particles < 1:
            raise ConfigError("need finite lr_ratio > 0, n_steps >= 1, n_particles >= 1")


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
        return float(np.min(self.grad_norm))

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1])

    def above_running_min_fraction(self, tol: float = 1e-12) -> float:
        """Fraction of steps with loss strictly above its running minimum.

        Exactly 0 for a monotone-nonincreasing loss, so this measures how
        much of the run sits on undone progress.  For the bounded kernel
        loss the unstable regime shows up here: a wild step raises the loss
        and the gradients die before it can recover, rather than the loss
        growing past any fixed threshold.
        """
        run_min = np.minimum.accumulate(self.loss)
        return float(np.mean(self.loss > run_min + tol))


def mmd_particle_grad(gen: ParticleGenerator, mu0: DiscreteMeasure, k: KernelSpec) -> np.ndarray:
    """Gradient of theta -> (1/2) MMD^2(mu_theta, mu0): row i is the witness
    gradient at particle i scaled by 1/N."""
    if gen.dim != mu0.dim:
        raise DimensionMismatch(f"particles dim {gen.dim} vs target {mu0.dim}")
    theta, n = gen.theta, gen.n_particles
    return (k.grad_x_sum(theta, theta, 1.0 / n)
            - k.grad_x_sum(theta, mu0.points, mu0.weights)) / n


def theoretical_lr(a: float, b: float, alpha: float, beta1: float, beta2: float) -> float:
    """Step size 1/L with L = alpha * B + A^2 (beta1 + beta2)."""
    big_l = alpha * b + a * a * (beta1 + beta2)
    if big_l <= 0:
        raise DegenerateConstants("smoothness constant L must be positive")
    return 1.0 / big_l


def train_particles(cfg: TrainConfig) -> TrainTrace:
    """Plain gradient descent on half the squared MMD at gamma = lr_ratio / L.

    Records loss and gradient Frobenius norm before each step.  A non-finite
    loss, a loss above the divergence threshold, or particles escaping past
    the escape threshold stops the run with the diverged flag; the trace
    keeps the rows up to and including the bad step.  (The kernel loss
    itself is bounded, so for this trainer the flag in practice fires on
    escape or numeric overflow only.)
    """
    d = cfg.target.dim
    if cfg.init is not None:
        theta = np.array(cfg.init, dtype=float)
        if theta.shape != (cfg.n_particles, d):
            raise ConfigError(f"init must have shape ({cfg.n_particles}, {d})")
    else:
        theta = child_rng(cfg.seed, 7).uniform(-1.0, 1.0, size=(cfg.n_particles, d))

    a = 1.0 / math.sqrt(cfg.n_particles)
    gamma = cfg.lr_ratio * theoretical_lr(a, 0.0, 1.0, cfg.beta1_bound, cfg.beta2_bound)

    losses = np.empty(cfg.n_steps)
    gnorms = np.empty(cfg.n_steps)
    steps = np.full(cfg.n_steps, gamma)
    gen_measure_w = np.full(cfg.n_particles, 1.0 / cfg.n_particles)
    diverged = False
    for kstep in range(cfg.n_steps):
        gen = ParticleGenerator(theta)
        loss = 0.5 * mmd_sq(DiscreteMeasure(theta, gen_measure_w), cfg.target, cfg.kernel)
        grad = mmd_particle_grad(gen, cfg.target, cfg.kernel)
        gnorm = float(np.linalg.norm(grad))
        losses[kstep] = loss
        gnorms[kstep] = gnorm
        bad = (not np.isfinite(loss) or loss > DIVERGENCE_THRESHOLD
               or not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > ESCAPE_THRESHOLD)
        if bad:
            diverged = True
            losses, gnorms, steps = losses[:kstep + 1], gnorms[:kstep + 1], steps[:kstep + 1]
            break
        theta = theta - gamma * grad
    return TrainTrace(losses, gnorms, steps, diverged)


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

def _is_positive(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < math.inf


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
    interpolation: bool = True
    lr_disc: float = 0.05
    lr_gen: float | None = None         # default: N / (depth * alpha + beta2)

    def __post_init__(self):
        ints = {"depth": 1, "width": 1, "n_steps": 1, "disc_steps_per_gen": 1, "seed": 0}
        rates = ("final_scale", "beta2", "lr_disc") + (() if self.lr_gen is None else ("lr_gen",))
        bad = [f"{k} must be an int >= {least}" for k, least in ints.items()
               if not _is_int(getattr(self, k), least)]
        bad += [f"{k} must be finite and > 0" for k in rates if not _is_positive(getattr(self, k))]
        bad += [] if isinstance(self.interpolation, bool) else ["interpolation must be a bool"]
        if bad:
            raise ConfigError("; ".join(bad))


def _disc_objective(net: MlpNet, theta: np.ndarray, target: DiscreteMeasure,
                    interp: np.ndarray, penalty_coef: float) -> float:
    """E_mu[phi] - E_mu0[phi] - penalty_coef * E_interp[phi^2 + ||grad phi||^2/(4 pi)]."""
    gen_term = float(np.mean(mlp_forward(net, theta)))
    tgt_term = float(np.dot(mlp_forward(net, target.points), target.weights))
    pen = gp_penalty(mlp_forward(net, interp), mlp_input_grad(net, interp),
                     np.full(len(interp), 1.0 / len(interp)))
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
    parameters or objective, or an objective past the divergence threshold,
    stop the run as diverged, keeping the rows up to the bad step.
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

    losses = np.empty(cfg.n_steps)
    gnorms = np.empty(cfg.n_steps)
    steps = np.full(cfg.n_steps, lr_gen)
    diverged = False
    for kstep in range(cfg.n_steps):
        with np.errstate(over="ignore", invalid="ignore"):      # finiteness is checked below
            rng = child_rng(cfg.seed, 13, kstep)
            for _ in range(cfg.disc_steps_per_gen):
                u = theta[rng.integers(0, n, size=n)]
                v = cfg.target.points[rng.choice(len(cfg.target.points), size=n,
                                                 p=cfg.target.weights)]
                if cfg.interpolation:
                    t = rng.uniform(0.0, 1.0, size=(n, 1))
                    interp = t * u + (1.0 - t) * v
                else:
                    interp = np.vstack([u[:n // 2], v[:n - n // 2]])
                params = net.flatten_params() + cfg.lr_disc * _disc_grad(net, theta, cfg.target,
                                                                         interp, penalty_coef)
                if not np.all(np.isfinite(params)):
                    diverged = True         # no finite net to normalize: the step stays the last
                    break
                net = spectral_normalize(net.with_params(params))
                if disc_probe is not None:
                    disc_probe(net)
            obj = _disc_objective(net, theta, cfg.target, interp, penalty_coef)
            gen_grad = mlp_input_grad(net, theta) / n
            gnorm = float(np.linalg.norm(gen_grad))
            losses[kstep] = obj
            gnorms[kstep] = gnorm
            if diverged or not np.isfinite(obj) or abs(obj) > DIVERGENCE_THRESHOLD:
                diverged = True
                losses, gnorms, steps = losses[:kstep + 1], gnorms[:kstep + 1], steps[:kstep + 1]
                break
            theta = theta - lr_gen * gen_grad
    return TrainTrace(losses, gnorms, steps, diverged)


# --- trace CSV: step,loss,grad_norm,step_size,flags ---

def trace_to_csv(trace: TrainTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "loss", "grad_norm", "step_size", "flags"])
    for i in range(len(trace)):
        flag = "diverged" if (trace.diverged and i == len(trace) - 1) else ""
        writer.writerow([i, f"{trace.loss[i]:.15g}", f"{trace.grad_norm[i]:.15g}",
                         f"{trace.step_size[i]:.15g}", flag])
    return buf.getvalue()


def trace_from_csv(text: str) -> TrainTrace:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["step", "loss", "grad_norm", "step_size"]:
        raise MalformedTrace("trace CSV must carry the standard header")
    body = [r for r in rows[1:] if r]
    if not body:
        raise MalformedTrace("trace CSV has no rows")
    loss = np.array([float(r[1]) for r in body])
    gnorm = np.array([float(r[2]) for r in body])
    step = np.array([float(r[3]) for r in body])
    diverged = any(len(r) > 4 and r[4] == "diverged" for r in body)
    return TrainTrace(loss, gnorm, step, diverged)
