"""The benchmark's workloads: inputs made from a seed, timed ops and their checks.

A workload is a fixed list of ops.  Its shape (sizes, step counts, op mix)
does not depend on the seed; the seed only draws the data (targets, initial
particles, measures, grid functions, estimator and network seeds), so every
seed costs the same work.  Each op is a zero-argument call into smoothgan's
public functions and a check on its output; the runner times the call and
runs the check outside the timed interval.  Calls go through module
attributes (``trainer.train_particles``) so that the tracer's rebinding sees
them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from harness import ROOT, InputDigest
from smoothgan import (cli, divergences, envelopes, measures, nnsmooth, rkhs, smoothness,
                       trainer)

CRITICAL = divergences.KernelSpec.critical()
SIGMA = math.sqrt(CRITICAL.sigma_sq)
# sup |grad_x K| = exp(-1/2) / sigma for the Gaussian kernel, twice that for a witness
ALPHA_MMD_BOUND = 2.0 * math.exp(-0.5) / SIGMA
# verify.check_beta2_certificate accepts estimates up to 1.01 * 2 pi
BETA2_MMD_CERT = 1.01 * trainer.BETA2_MMD_BOUND
NORM_BOUND = 1.0 + 1e-6             # verify.check_gan2d_equilibrium
BREGMAN_FLOOR = -1e-12
TMP_ROOT = ROOT / ".perfbench"
CLI_LOSSES = {"js": "minimax_js", "ns": "non_saturating_kl", "w1": "wasserstein1",
              "mmd": "mmd_sq_half"}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digest: str
    tmpdir: Path | None = None

    def close(self) -> None:
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


class Gen:
    """Seeded input generator; every array it hands out enters the input digest."""

    def __init__(self, workload: str, seed: int):
        self.rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
        self.digest = InputDigest()

    def uniform(self, lo, hi, size):
        return self.digest.add(self.rng.uniform(lo, hi, size))

    def normal(self, size):
        return self.digest.add(self.rng.standard_normal(size))

    def dirichlet(self, k: int):
        return self.digest.add(self.rng.dirichlet(np.ones(k)))

    def seed(self) -> int:
        return int(self.digest.add(self.rng.integers(0, 2 ** 31)))

    def choice(self, n: int, k: int):
        return self.digest.add(np.sort(self.rng.choice(n, size=k, replace=False)))


def _target(gen: Gen, kind: str, n: int):
    """The trainer's ring and four-bump targets, drawn by the benchmark."""
    if kind == "ring":
        angles = np.sort(gen.uniform(0.0, 2.0 * np.pi, n))
        pts = 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        centers = 0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        labels = np.floor(gen.uniform(0.0, 4.0, n)).astype(int)
        pts = np.clip(centers[labels] + 0.1 * gen.normal((n, 2)), -1.0, 1.0)
    return measures.make_discrete(pts, np.full(n, 1.0 / n))


# --- descent: particle training at the trainer acceptance grid, shortened ---

def _descent_op(gen: Gen, kind: str, n: int, steps: int, lr_ratio: float) -> Op:
    target = _target(gen, kind, n)
    cfg = trainer.TrainConfig(target=target, kernel=CRITICAL, n_particles=n, n_steps=steps,
                              seed=gen.seed(), lr_ratio=lr_ratio,
                              init=gen.uniform(-1.0, 1.0, (n, 2)))
    big_l = (trainer.BETA1_MMD_BOUND + trainer.BETA2_MMD_BOUND) / n

    def check(trace) -> bool:
        if lr_ratio == 1.0:
            # verify.check_stationarity_and_descent, same tolerances
            return (len(trace) == steps
                    and trainer.check_stationarity_bound(trace, big_l, float(trace.loss[0]),
                                                         rel_tol=1e-9)
                    and trainer.check_descent_inequality(trace, big_l, tol=1e-9))
        # verify.check_instability_contrast
        return trace.diverged or trace.above_running_min_fraction() >= 0.10

    return Op(f"train_particles {kind} N={n} lr={lr_ratio:g}",
              lambda: trainer.train_particles(cfg), check)


def build_descent(seed: int) -> Workload:
    gen = Gen("descent", seed)
    ops = []
    # N=64 ops are the majority, so the median op is one of them
    for n, steps, reps in ((16, 100, 2), (64, 25, 4)):
        for kind in ("ring", "gaussian_mixture"):
            for lr in (1.0, 1e4):
                ops.extend(_descent_op(gen, kind, n, steps, lr) for _ in range(reps))
    # the minority of N=256 runs sets the latency tail
    for kind, lr in (("ring", 1.0), ("gaussian_mixture", 1e4),
                     ("gaussian_mixture", 1.0), ("ring", 1e4)):
        ops.append(_descent_op(gen, kind, 256, 5, lr))
    return Workload("descent", ops, gen.digest.hexdigest())


# --- adversarial: short regularized GAN runs, finite-difference discriminator ---

def _gan_op(gen: Gen, depth: int, width: int, steps: int) -> Op:
    target = _target(gen, "ring", 16)
    init = np.clip(target.points + 0.05 * gen.normal(target.points.shape), -1.0, 1.0)
    # verify.check_gan2d_equilibrium's loop settings
    cfg = trainer.GanLoopConfig(generator_init=init, target=target, depth=depth, width=width,
                                final_scale=0.05, beta2=trainer.BETA2_MMD_BOUND,
                                n_steps=steps, seed=gen.seed(), lr_disc=0.05, lr_gen=0.5)

    def run():
        nets = []
        return trainer.train_gan2d(cfg, disc_probe=nets.append), nets

    def check(out) -> bool:
        trace, nets = out
        if len(trace) != steps or len(nets) != steps * cfg.disc_steps_per_gen:
            return False
        worst = max(float(np.linalg.norm(w, 2)) for net in nets for w, _ in net.layers)
        return worst <= NORM_BOUND and bool(np.all(np.isfinite(trace.loss)))

    return Op(f"train_gan2d depth={depth} width={width} steps={steps}", run, check)


def build_adversarial(seed: int) -> Workload:
    gen = Gen("adversarial", seed)
    ops = []
    # parameter counts 65, 105 and 361 under the 500-parameter finite-difference cap
    # P=105 runs are the majority, so the median op is one of them whichever of
    # P=65 and P=105 costs more; the p90 op is a P=361 run
    for depth, width, steps, reps in ((2, 16, 2, 3), (3, 8, 1, 7), (4, 12, 1, 2)):
        ops.extend(_gan_op(gen, depth, width, steps) for _ in range(reps))
    return Workload("adversarial", ops, gen.digest.hexdigest())


# --- workbench: everything but training ---

def _grid1(lo: float, hi: float, step: float):
    dom = measures.BoxDomain(np.array([lo]), np.array([hi]))
    return dom, envelopes.grid_axes(dom, step)[0]


def _bumpy(gen: Gen, xs: np.ndarray) -> np.ndarray:
    """A nonconvex profile: a random quadratic plus three random cosines."""
    a, b = gen.uniform(0.2, 1.0, 2)
    amp, freq, phase = gen.uniform(0.05, 0.3, 3), gen.uniform(1.0, 6.0, 3), gen.uniform(0, 6, 3)
    return a * xs ** 2 + b * xs + sum(amp[i] * np.cos(freq[i] * xs + phase[i]) for i in range(3))


def _bumpy2(gen: Gen, xs: np.ndarray) -> np.ndarray:
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    c = gen.uniform(0.3, 1.0, 3)
    w = gen.uniform(1.0, 5.0, 2)
    return c[0] * gx ** 2 + c[1] * gy ** 2 + c[2] * np.cos(w[0] * gx) * np.sin(w[1] * gy)


def _slope_ok(vals: np.ndarray, axis: int, step: float, bound: float) -> bool:
    return float(np.abs(np.diff(vals, axis=axis)).max()) / step <= bound


def _curvature_ok(vals: np.ndarray, axis: int, step: float, bound: float) -> bool:
    """Largest second difference <= bound (one-sided: kinks of a min are concave)."""
    return float(np.diff(vals, 2, axis=axis).max()) / step ** 2 <= bound


def _below(out, f, tol: float = 1e-12) -> bool:
    return bool(np.all(out.values <= f.values + tol))


def _envelope_ops(gen: Gen) -> list[Op]:
    ops = []
    # 1-D Moreau at 6001 points: second difference <= 1/beta, envelope <= f
    step = 1e-3
    dom, xs = _grid1(-3.0, 3.0, step)
    f = envelopes.GridFn(dom, step, _bumpy(gen, xs))
    beta = float(gen.uniform(0.5, 2.0, 1)[0])
    ops.append(Op("moreau 1-D 6001", lambda f=f, beta=beta: envelopes.moreau(f, beta),
                  lambda out, f=f, beta=beta: _below(out, f)
                  and _curvature_ok(out.values, 0, step, 1.0 / beta + 2 * step)))

    # 1-D Pasch-Hausdorff at 4001 points: slope <= alpha + 2 step (verify's bound)
    dom, xs = _grid1(-2.0, 2.0, step)
    f = envelopes.GridFn(dom, step, _bumpy(gen, xs))
    alpha = float(gen.uniform(0.5, 2.0, 1)[0])
    ops.append(Op("pasch_hausdorff 1-D 4001",
                  lambda f=f, alpha=alpha: envelopes.pasch_hausdorff(f, alpha),
                  lambda out, f=f, alpha=alpha: _below(out, f)
                  and _slope_ok(out.values, 0, step, alpha + 2 * step)))

    # 1-D Legendre at 6001 and 3001 points: output convex on the dual grid.  The
    # five 6001-point transforms (with 2-D Pasch-Hausdorff, of similar cost) hold
    # the 90th-percentile position, so op_p90_ref does not jump between op kinds
    for lo, hi in ((-3.0, 3.0),) * 5 + ((-1.5, 1.5),):
        dom, xs = _grid1(lo, hi, step)
        f = envelopes.GridFn(dom, step, _bumpy(gen, xs))
        ops.append(Op(f"legendre 1-D {len(xs)}", lambda f=f: envelopes.legendre(f),
                      lambda out: float(np.diff(out.values, 2).min()) >= -1e-9))

    # 1-D inf-convolution on verify's instances at 2001 points
    step = 2e-3
    dom, xs = _grid1(-2.0, 2.0, step)
    a, b = gen.uniform(0.5, 2.0, 2)
    f_abs = envelopes.GridFn(dom, step, a * np.abs(xs))
    f_q = envelopes.GridFn(dom, step, 0.5 * b * xs ** 2)
    ops.append(Op("inf_conv 1-D |x| (+) x^2/2",
                  lambda: envelopes.inf_conv(f_abs, f_q),
                  lambda out: _below(out, f_abs)
                  and envelopes.conjugate_sum_identity_check(f_abs, f_q) <= 2 * step))
    chi = np.full(len(xs), np.inf)
    chi[np.argmin(np.abs(xs))] = 0.0
    for g_vals in (np.abs(xs), xs ** 2, chi):
        slopes = np.sort(gen.uniform(-2.0, 2.0, len(xs) - 1))
        vals = np.concatenate([[0.0], np.cumsum(slopes * step)])
        f = envelopes.GridFn(dom, step, vals - vals.min())
        g = envelopes.GridFn(dom, step, g_vals)
        ops.append(Op("inf_conv 1-D random convex",
                      lambda f=f, g=g: envelopes.inf_conv(f, g),
                      lambda out, f=f, g=g: _below(out, f)
                      and envelopes.minimizer_invariance_check(f, g)))

    # 2-D grids of 101 x 101: Moreau takes the separable path, Pasch-Hausdorff
    # (Euclidean norm) the full scan
    step = 0.02
    dom2 = measures.BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    xs = envelopes.grid_axes(dom2, step)[0]
    f2 = envelopes.GridFn(dom2, step, _bumpy2(gen, xs))
    beta = float(gen.uniform(0.5, 2.0, 1)[0])
    ops.append(Op("moreau 2-D 101^2", lambda: envelopes.moreau(f2, beta),
                  lambda out: _below(out, f2) and all(
                      _curvature_ok(out.values, ax, step, 1.0 / beta + 2 * step) for ax in (0, 1))))
    alpha = float(gen.uniform(0.5, 2.0, 1)[0])
    ops.append(Op("pasch_hausdorff 2-D 101^2", lambda: envelopes.pasch_hausdorff(f2, alpha),
                  lambda out: _below(out, f2) and all(
                      _slope_ok(out.values, ax, step, alpha + 2 * step) for ax in (0, 1))))
    ops.append(Op("legendre 2-D 101^2", lambda: envelopes.legendre(f2),
                  lambda out: all(float(np.diff(out.values, 2, axis=ax).min()) >= -1e-9
                                  for ax in (0, 1))))
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    g_sep = envelopes.GridFn(dom2, step, gen.uniform(0.5, 2.0, 1)[0] * (np.abs(gx) + np.abs(gy)))
    ops.append(Op("inf_conv 2-D separable", lambda: envelopes.inf_conv(f2, g_sep),
                  lambda out: _below(out, f2)))
    return ops


def _estimator_ops(gen: Gen) -> list[Op]:
    ops = []
    mmd_bounds = (ALPHA_MMD_BOUND, trainer.BETA1_MMD_BOUND, BETA2_MMD_CERT)
    for kind, dim, trials, grid_pts in (("mmd", 1, 60, 201), ("mmd", 2, 15, 200),
                                       ("w1", 1, 60, 201)):
        fam = smoothness.OracleFamily(kind, dim=dim,
                                      kernel=CRITICAL if kind == "mmd" else None)
        box = measures.BoxDomain.unit(dim)
        est_seed = gen.seed()
        calls = (
            ("estimate_alpha", lambda fam=fam, box=box, t=trials, g=grid_pts, s=est_seed:
             smoothness.estimate_alpha(fam, box, t, g, s)),
            ("estimate_beta1", lambda fam=fam, box=box, t=trials, g=grid_pts, s=est_seed:
             smoothness.estimate_beta1(fam, box, t, max(g // 4, 8), s)),
            ("estimate_beta2", lambda fam=fam, box=box, t=trials, g=grid_pts, s=est_seed:
             smoothness.estimate_beta2(fam, box, t, g, s)),
        )
        for i, (label, call) in enumerate(calls):
            if kind == "mmd":
                bound = mmd_bounds[i]
            else:
                # the 1-D Kantorovich potential is 1-Lipschitz; its gradient jumps,
                # so the beta estimates have no finite bound to meet
                bound = 1.0 + 1e-12 if i == 0 else math.inf
            ops.append(Op(f"{label} {kind} d={dim}", call,
                          lambda est, bound=bound: 0.0 <= est <= bound))
    return ops


def _random_measure(gen: Gen, dim: int, k: int):
    return measures.make_discrete(gen.uniform(-1.0, 1.0, (k, dim)), gen.dirichlet(k))


def _bregman_ops(gen: Gen) -> list[Op]:
    ops = []
    n_triples = 60
    # kernel loss: Bregman equals half the squared MMD (verify.check_bregman_identity)
    triples = [tuple(_random_measure(gen, 1, int(gen.uniform(2, 9, 1)[0])) for _ in range(3))
               for _ in range(n_triples)]

    def run_mmd():
        return [smoothness.bregman(divergences.LossKind("mmd_sq_half", mu0, CRITICAL), nu, mu)
                for nu, mu, mu0 in triples]

    def check_mmd(vals):
        return all(v >= BREGMAN_FLOOR and abs(v - 0.5 * divergences.mmd_sq(nu, mu, CRITICAL))
                   <= 1e-10 for v, (nu, mu, _) in zip(vals, triples))

    ops.append(Op("bregman mmd_sq_half x60", run_mmd, check_mmd))

    def run_w1():
        return [smoothness.bregman(divergences.LossKind("wasserstein1", mu0), nu, mu)
                for nu, mu, mu0 in triples]

    ops.append(Op("bregman wasserstein1 x60", run_w1,
                  lambda vals: all(v >= BREGMAN_FLOOR for v in vals)))

    # density-ratio losses need nu on the union support of mu and mu0: all three
    # measures share one random support with positive Dirichlet weights
    shared = []
    for _ in range(n_triples):
        k = int(gen.uniform(2, 9, 1)[0])
        pts = gen.uniform(-1.0, 1.0, (k, 1))
        shared.append(tuple(measures.make_discrete(pts, gen.dirichlet(k)) for _ in range(3)))
    for tag in ("minimax_js", "non_saturating_kl"):
        def run(tag=tag):
            return [smoothness.bregman(divergences.LossKind(tag, mu0), nu, mu)
                    for nu, mu, mu0 in shared]
        ops.append(Op(f"bregman {tag} x60", run,
                      lambda vals: all(v >= BREGMAN_FLOOR for v in vals)))
    return ops


def _lattice_measure(gen: Gen, lattice: np.ndarray, k: int):
    idx = gen.choice(len(lattice), k)
    return measures.make_discrete(lattice[idx], gen.uniform(0.1, 1.0, k))


def _ref_f_divergence(tag: str, mu, mu0) -> float:
    """JS or NS-KL on the exact union support, independent of align_many."""
    pts, inv = np.unique(np.vstack([mu.points, mu0.points]), axis=0, return_inverse=True)
    wm = np.bincount(inv[:mu.n_atoms], mu.weights, len(pts))
    w0 = np.bincount(inv[mu.n_atoms:], mu0.weights, len(pts))
    mid = 0.5 * (wm + w0)
    if tag == "minimax_js":
        return sum(0.5 * float(np.sum(w[w > 0] * np.log(w[w > 0] / mid[w > 0])))
                   for w in (wm, w0))
    pos = mid > 0
    return float(np.sum(mid[pos] * np.log(mid[pos] / w0[pos])))


def _ref_w1_1d(mu, mu0) -> float:
    from scipy.stats import wasserstein_distance
    return float(wasserstein_distance(mu.points[:, 0], mu0.points[:, 0], mu.weights, mu0.weights))


def _ref_mmd_half(mu, mu0) -> float:
    from scipy.spatial.distance import cdist
    x = np.vstack([mu.points, mu0.points])
    w = np.concatenate([mu.weights, -mu0.weights])
    return 0.5 * max(float(w @ np.exp(-math.pi * cdist(x, x, "sqeuclidean")) @ w), 0.0)


def _loss_op(label: str, kind, mu, reference, tol: float) -> Op:
    """loss_eval checked against an independent computation of the same loss."""
    return Op(label, lambda: divergences.loss_eval(kind, mu),
              lambda v: abs(v - reference(mu, kind.reference)) <= tol)


def _divergence_ops(gen: Gen) -> list[Op]:
    ops = []
    # transport LP against the closed form in 1-D (verify's 1e-9) ...
    pairs = [(_random_measure(gen, 1, 40), _random_measure(gen, 1, 60)) for _ in range(4)]
    ops.append(Op("w1_lp 1-D 40x60 x4",
                  lambda: [divergences.w1_lp(mu, nu) for mu, nu in pairs],
                  lambda vals: all(abs(v - divergences.w1_1d(mu, nu)) <= 1e-9
                                   for v, (mu, nu) in zip(vals, pairs))))
    # ... and against an assignment solver on uniform 2-D pairs
    for n in (60, 100):
        a, b = gen.uniform(-1.0, 1.0, (n, 2)), gen.uniform(-1.0, 1.0, (n, 2))
        mu = measures.make_discrete(a, np.full(n, 1.0 / n))
        nu = measures.make_discrete(b, np.full(n, 1.0 / n))

        def check_assign(val, a=a, b=b):
            from scipy.optimize import linear_sum_assignment
            from scipy.spatial.distance import cdist
            cost = cdist(a, b)
            rows, cols = linear_sum_assignment(cost)
            return abs(val - float(cost[rows, cols].mean())) <= 1e-9

        ops.append(Op(f"w1_lp 2-D {n}x{n}", lambda mu=mu, nu=nu: divergences.w1_lp(mu, nu),
                      check_assign))

    # loss_eval on large overlapping measures drawn from one lattice
    side = np.linspace(-1.0, 1.0, 101)
    lattice2 = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    mu, mu0 = _lattice_measure(gen, lattice2, 6000), _lattice_measure(gen, lattice2, 6000)
    ops.append(_loss_op("loss_eval minimax_js 2-D 6000 atoms",
                        divergences.LossKind("minimax_js", mu0), mu,
                        lambda a, b: _ref_f_divergence("minimax_js", a, b), 1e-12))
    # NS-KL is finite only where mu0 covers mu: mu lives on half of mu0's atoms
    mu0 = _lattice_measure(gen, lattice2, 6000)
    mu = _lattice_measure(gen, mu0.points, 3000)
    ops.append(_loss_op("loss_eval non_saturating_kl 2-D 3000 atoms",
                        divergences.LossKind("non_saturating_kl", mu0), mu,
                        lambda a, b: _ref_f_divergence("non_saturating_kl", a, b), 1e-12))
    lattice1 = np.linspace(-1.0, 1.0, 20001)[:, None]
    mu, mu0 = _lattice_measure(gen, lattice1, 10000), _lattice_measure(gen, lattice1, 10000)
    ops.append(_loss_op("loss_eval wasserstein1 1-D 10000 atoms",
                        divergences.LossKind("wasserstein1", mu0), mu, _ref_w1_1d, 1e-9))
    mu, mu0 = _lattice_measure(gen, lattice2, 1000), _lattice_measure(gen, lattice2, 1000)
    ops.append(_loss_op("loss_eval mmd_sq_half 2-D 1000 atoms",
                        divergences.LossKind("mmd_sq_half", mu0, CRITICAL), mu,
                        _ref_mmd_half, 1e-12))
    return ops


def _rkhs_nn_ops(gen: Gen) -> list[Op]:
    ops = []
    # derivative-series norm of a positive three-bump expansion (verify: monotone
    # partial sums, S_20 within 1% of the Gram-form norm)
    for _ in range(2):
        f = rkhs.EmbeddingFn(gen.uniform(-1.0, 1.0, 3), gen.uniform(0.2, 1.0, 3), CRITICAL)

        def check_series(sums, f=f):
            ref = f.gram_norm_sq()
            return bool(np.all(np.diff(sums) >= -1e-15)) and abs(sums[20] - ref) <= 0.01 * ref

        ops.append(Op("truncated_series_norm order 20",
                      lambda f=f: rkhs.truncated_series_norm(f, 20, -9.0, 9.0, 1e-3),
                      check_series))
    # spectral normalization and sampled bounds of width-32 nets (verify's 1.001)
    box = measures.BoxDomain.unit(2)
    for depth, act, scale in ((3, "elu", 1.0), (4, "sigmoid", 0.7), (6, "elu", 0.7)):
        net_seed, pair_seed = gen.seed(), gen.seed()

        def run(depth=depth, act=act, scale=scale, net_seed=net_seed, pair_seed=pair_seed):
            net = nnsmooth.spectral_normalize(
                nnsmooth.random_mlp(2, 32, depth, act, seed=net_seed, final_scale=scale))
            return (nnsmooth.empirical_smoothness(net, box, 2000, seed=pair_seed),
                    nnsmooth.empirical_lipschitz(net, box, 2000, seed=pair_seed))

        ops.append(Op(f"spectral_normalize width=32 depth={depth} {act}", run,
                      lambda out, depth=depth, scale=scale:
                      out[0] / (depth * scale) <= 1.0 + 1e-3 and out[1] / scale <= 1.0 + 1e-3))
    return ops


def _cli_ops(gen: Gen, tmp: Path) -> list[Op]:
    """div eval and env subcommands on CSV files; output must equal the in-process result."""
    ops = []
    side = np.linspace(-1.0, 1.0, 41)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    paths = {}
    for name, k in (("mu", 300), ("mu0", 300), ("mu_small", 40), ("mu0_small", 40)):
        paths[name] = tmp / f"{name}.csv"
        paths[name].write_text(measures.measure_to_csv(_lattice_measure(gen, lattice, k)))
    for loss in ("js", "ns", "w1", "mmd"):
        # 2-D W1 is the transport LP: keep it small
        suffix = "_small" if loss == "w1" else ""
        argv = ["div", "eval", "--loss", loss, "--mu", str(paths["mu" + suffix]),
                "--mu0", str(paths["mu0" + suffix])]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out, argv=argv):
            mu = measures.measure_from_csv(Path(argv[5]).read_text())
            mu0 = measures.measure_from_csv(Path(argv[7]).read_text())
            tag = CLI_LOSSES[argv[3]]
            kind = divergences.LossKind(tag, mu0, CRITICAL if tag == "mmd_sq_half" else None)
            return out[0] == 0 and out[1].strip() == f"{divergences.loss_eval(kind, mu):.15g}"

        ops.append(Op(f"cli div eval --loss {loss}", run, check))

    step = 2e-3
    dom, xs = _grid1(-2.0, 2.0, step)
    f_path, g_path = tmp / "f.csv", tmp / "g.csv"
    f_path.write_text(envelopes.gridfn_to_csv(envelopes.GridFn(dom, step, _bumpy(gen, xs))))
    g_path.write_text(envelopes.gridfn_to_csv(envelopes.GridFn(dom, step, xs ** 2)))
    alpha, beta = gen.uniform(0.5, 2.0, 2)
    specs = (
        (["moreau", "--beta", repr(float(beta))], lambda f: envelopes.moreau(f, float(beta))),
        (["ph", "--alpha", repr(float(alpha))],
         lambda f: envelopes.pasch_hausdorff(f, float(alpha))),
        (["legendre"], lambda f: envelopes.legendre(f)),
        (["infconv", "--g", str(g_path)],
         lambda f: envelopes.inf_conv(f, envelopes.gridfn_from_csv(g_path.read_text()))),
    )
    for extra, ref in specs:
        out_path = tmp / f"env-{extra[0]}.csv"
        argv = ["env", extra[0], "--f", str(f_path), *extra[1:], "--out", str(out_path)]

        def check(code, ref=ref, out_path=out_path):
            f = envelopes.gridfn_from_csv(f_path.read_text())
            return code == 0 and out_path.read_text() == envelopes.gridfn_to_csv(ref(f))

        ops.append(Op(f"cli env {extra[0]}", lambda argv=argv: cli.main(argv), check))
    return ops


def build_workbench(seed: int) -> Workload:
    gen = Gen("workbench", seed)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=TMP_ROOT))
    try:
        ops = (_envelope_ops(gen) + _estimator_ops(gen) + _bregman_ops(gen)
               + _divergence_ops(gen) + _rkhs_nn_ops(gen) + _cli_ops(gen, tmp))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return Workload("workbench", ops, gen.digest.hexdigest(), tmpdir=tmp)


BUILDERS = {"descent": build_descent, "workbench": build_workbench,
            "adversarial": build_adversarial}
