"""Acceptance checks: every guarantee the package claims, run end to end.

Each check returns records that hold one observed number and the closed
interval [lo, hi] it must lie in; a record passes iff lo <= observed <= hi,
so a NaN observation fails.  The CLI prints one PASS/FAIL line per record
and pytest asserts them individually.  All randomness is pinned through the
seed-derivation scheme, so a check either always passes or always fails on
a given build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .discriminators import grad_phi_mmd, phi_mmd
from .divergences import KernelSpec, LossKind, js, kr_norm_1d, mmd_sq, w1_1d, w1_lp
from .envelopes import (BoxDomain, GridFn, conjugate_sum_identity_check,
                        minimizer_invariance_check, moreau, pasch_hausdorff)
from .measures import DiscreteMeasure, diff, make_discrete, random_measure, sample_target
from .nnsmooth import (empirical_lipschitz, empirical_smoothness, mlp_forward, mlp_input_grad,
                       random_mlp, spectral_normalize)
from .rkhs import EmbeddingFn, truncated_series_norm
from .rng import child_rng
from .smoothness import OracleFamily, bregman, estimate_beta2, kernel_cross_hessian_norm
from .trainer import (BETA1_MMD_BOUND, BETA2_MMD_BOUND, GanLoopConfig, ParticleGenerator,
                      TrainConfig, check_descent_inequality, check_stationarity_bound,
                      mmd_particle_grad, train_gan2d, train_particles)

MASTER_SEED = 20_26


@dataclass(frozen=True)
class CheckResult:
    """One acceptance record: the observed value must lie in [lo, hi]."""

    name: str
    observed: float
    lo: float = -math.inf
    hi: float = math.inf
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.lo <= self.observed <= self.hi)        # False for NaN

    def line(self) -> str:
        if self.lo == -math.inf:
            bound = f"<= {self.hi:.10g}"
        elif self.hi == math.inf:
            bound = f">= {self.lo:.10g}"
        else:
            bound = f"in [{self.lo:.10g}, {self.hi:.10g}]"
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag}  {self.name}: observed {self.observed:.10g}, bound {bound}"
                f" ({self.seconds:.1f}s)")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _central_diff(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences of the scalar fn at x, one coordinate of x at a time."""
    fd = np.zeros_like(x)
    for ix in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[ix] = h
        fd[ix] = (fn(x + e) - fn(x - e)) / (2 * h)
    return fd


# --- divergences suite ---

def check_w1_oracle_equivalence() -> list[CheckResult]:
    def body():
        errs = []
        for t in range(100):
            rng = child_rng(MASTER_SEED, 100, t)
            mu = random_measure(rng, 1, max_atoms=8)
            nu = random_measure(rng, 1, max_atoms=8)
            errs.append(abs(w1_1d(mu, nu) - w1_lp(mu, nu)))
        return np.max(errs)

    worst, dt = _timed(body)
    x = 1e-3
    ratio = js(make_discrete([x], [1.0]), make_discrete([0.0], [1.0])) / x
    return [CheckResult("w1 closed form vs transport LP (100 pairs)", worst, hi=1e-9, seconds=dt),
            CheckResult("JS/W1 ratio at x=1e-3 (no finite Lipschitz constant)", ratio, lo=690.0)]


# --- smoothness suite ---

def check_beta2_certificate() -> list[CheckResult]:
    fam = OracleFamily("mmd", dim=1, kernel=KernelSpec.critical())
    est, dt = _timed(lambda: estimate_beta2(fam, BoxDomain.unit(1), 500, 201, MASTER_SEED))
    return [CheckResult("beta2 estimate for critical-kernel MMD (500 pairs)", est,
                        lo=0.6 * 2 * math.pi, hi=1.01 * 2 * math.pi, seconds=dt),
            CheckResult("beta2 estimate runtime in seconds", dt, hi=30.0)]


def check_bregman_identity() -> list[CheckResult]:
    kc = KernelSpec.critical()

    def body():
        errs = []
        for t in range(200):
            rng = child_rng(MASTER_SEED, 200, t)
            nu = random_measure(rng, 1)
            mu = random_measure(rng, 1)
            mu0 = random_measure(rng, 1)
            kind = LossKind("mmd_sq_half", mu0, kc)
            errs.append(abs(bregman(kind, nu, mu) - 0.5 * mmd_sq(nu, mu, kc)))
        return np.max(errs)

    worst, dt = _timed(body)
    return [CheckResult("Bregman(kernel loss) equals half squared MMD (200 pairs)", worst,
                        hi=1e-10, seconds=dt)]


def check_cross_hessian() -> list[CheckResult]:
    results = []
    grid = np.linspace(-1.0, 1.0, 41)
    for k, label in ((KernelSpec.critical(), "critical"), (KernelSpec(1.0), "sigma_sq=1")):
        vals = np.array([[kernel_cross_hessian_norm(k, x, y) for y in grid] for x in grid])
        arg = np.unravel_index(np.argmax(vals), vals.shape)
        results.append(CheckResult(f"|cross-Hessian sup - 1/sigma^2| ({label})",
                                   abs(np.max(vals) - 1.0 / k.sigma_sq), hi=1e-12))
        results.append(CheckResult(f"cross-Hessian argmax distance from the diagonal ({label})",
                                   abs(int(arg[0]) - int(arg[1])), hi=0))

        def body():
            gaps = []
            for t in range(200):
                rng = child_rng(MASTER_SEED, 300, t)
                mu = random_measure(rng, 1)
                nu = random_measure(rng, 1)
                gaps.append(mmd_sq(mu, nu, k) - kr_norm_1d(diff(mu, nu)) ** 2 / k.sigma_sq)
            return np.max(gaps)

        worst, dt = _timed(body)
        results.append(CheckResult(f"MMD^2 - KR^2 / sigma^2 on 200 random pairs ({label})",
                                   worst, hi=1e-12, seconds=dt))
    return results


# --- envelopes suite ---

def check_envelopes() -> list[CheckResult]:
    step = 1e-3
    dom = BoxDomain(np.array([-3.0]), np.array([3.0]))
    xs = np.arange(-3.0, 3.0 + step / 2, step)

    f_abs = GridFn(dom, step, np.abs(xs))
    hub, dt = _timed(lambda: moreau(f_abs, 1.0))
    truth = np.where(np.abs(xs) <= 1.0, 0.5 * xs ** 2, np.abs(xs) - 0.5)
    res = [CheckResult("Huber golden values (step 1e-3)", np.max(np.abs(hub.values - truth)),
                       hi=2e-3, seconds=dt)]

    f_q = GridFn(dom, step, 0.5 * xs ** 2)
    for alpha in (0.5, 1.0, 2.0):
        ph = pasch_hausdorff(f_q, alpha)
        res.append(CheckResult(f"Pasch-Hausdorff slope bound (alpha={alpha})",
                               np.max(np.abs(np.diff(ph.values))) / step, hi=alpha + 2 * step))

    for beta in (1.0, 2.0):
        mo = moreau(f_abs, beta)          # inf-convolution with |x|^2 / (2 beta): 1/beta-smooth
        res.append(CheckResult(f"Moreau second-difference bound (beta={beta})",
                               np.max(np.abs(np.diff(mo.values, 2))) / step ** 2,
                               hi=1.0 / beta + 2 * step))

    res.append(CheckResult("conjugate of inf-convolution equals sum of conjugates",
                           conjugate_sum_identity_check(f_abs, f_q), hi=2 * step))

    def random_convex(rng) -> GridFn:
        slopes = np.sort(rng.uniform(-2.0, 2.0, len(xs) - 1))
        vals = np.concatenate([[0.0], np.cumsum(slopes * step)])
        return GridFn(dom, step, vals - vals.min())

    def body():
        broken = 0
        for t in range(20):
            rng = child_rng(MASTER_SEED, 400, t)
            f = random_convex(rng)
            if t % 3 == 0:
                g = GridFn(dom, step, np.abs(xs))
            elif t % 3 == 1:
                g = GridFn(dom, step, xs ** 2)
            else:
                chi = np.full(len(xs), np.inf)
                chi[np.argmin(np.abs(xs))] = 0.0
                g = GridFn(dom, step, chi)
            broken += not minimizer_invariance_check(f, g)
        return broken

    broken, dt = _timed(body)
    res.append(CheckResult("minimizer invariance broken, of 20 random convex instances", broken,
                           hi=0, seconds=dt))
    return res


# --- rkhs suite ---

def check_rkhs_series() -> list[CheckResult]:
    f = EmbeddingFn(np.array([0.0]), np.array([1.0]), KernelSpec.critical())
    sums, dt = _timed(lambda: truncated_series_norm(f, 20, -8.0, 8.0, 1e-3))
    return [
        CheckResult("least increment of the series partial sums", np.min(np.diff(sums)),
                    lo=-1e-15, seconds=dt),
        CheckResult("|S_0 - 1/sqrt(2)|", abs(sums[0] - 1 / math.sqrt(2)), hi=1e-6),
        CheckResult("|S_20 - 1|, the reproducing norm", abs(sums[20] - 1.0), hi=0.01),
    ]


# --- nnsmooth suite ---

def check_network_bounds() -> list[CheckResult]:
    box = BoxDomain.unit(2)

    def body():
        smooth, lip = [], []
        for k in range(1, 8):
            for act in ("elu", "sigmoid"):
                scale = 1.0 if k % 2 else 0.7
                net = spectral_normalize(
                    random_mlp(2, 32, k, act, seed=MASTER_SEED + k, final_scale=scale))
                smooth.append(empirical_smoothness(net, box, 2000, seed=k) / (k * scale))
                lip.append(empirical_lipschitz(net, box, 2000, seed=k) / scale)
        return np.max(smooth), np.max(lip)

    (worst_smooth, worst_lip), dt = _timed(body)
    return [CheckResult("k-layer smoothness ratio, k in 1..7 (2000 pairs)", worst_smooth,
                        hi=1.0 + 1e-3, seconds=dt),
            CheckResult("k-layer smoothness runtime in seconds", dt, hi=60.0),
            CheckResult("normalized-net Lipschitz ratio (2000 pairs)", worst_lip, hi=1.0 + 1e-3)]


def check_gradient_oracles() -> list[CheckResult]:
    kc = KernelSpec.critical()

    def particle_err(rng, t):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 17))
        theta = rng.uniform(-1, 1, size=(n, d))
        mu0 = random_measure(rng, d)
        grad = mmd_particle_grad(ParticleGenerator(theta), mu0, kc)
        w = np.full(n, 1.0 / n)
        fd = _central_diff(lambda th: 0.5 * mmd_sq(DiscreteMeasure(th, w.copy()), mu0, kc),
                           theta, 1e-6)
        return np.max(np.abs(grad - fd))

    def net_err(rng, t):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 5))
        act = "elu" if t % 2 else "sigmoid"
        net = spectral_normalize(random_mlp(d, int(rng.integers(2, 17)), depth, act,
                                            seed=int(rng.integers(2 ** 31))))
        x = rng.uniform(-1, 1, size=d)
        fd = _central_diff(lambda y: mlp_forward(net, y), x, 1e-5)
        return np.max(np.abs(mlp_input_grad(net, x) - fd))

    def witness_err(rng, t):
        d = int(rng.integers(1, 3))
        mu = random_measure(rng, d)
        mu0 = random_measure(rng, d)
        x = rng.uniform(-1, 1, size=d)
        fd = _central_diff(lambda y: phi_mmd(mu, mu0, kc, y), x, 1e-4)
        return np.max(np.abs(grad_phi_mmd(mu, mu0, kc, x) - fd))

    res = []
    for label, stream, err, tol in (("particle gradient", 500, particle_err, 1e-6),
                                    ("network input gradient", 600, net_err, 1e-5),
                                    ("MMD witness gradient", 650, witness_err, 1e-6)):
        errs, dt = _timed(lambda: [err(child_rng(MASTER_SEED, stream, t), t) for t in range(20)])
        res.append(CheckResult(f"{label} vs finite differences (20 configs)", np.max(errs),
                               hi=tol, seconds=dt))
    return res


# --- trainer suite ---

def _acceptance_runs(lr_ratio: float, n_steps: int):
    """(N, trace, seconds) for each of the 12 acceptance configs at this step-size ratio."""
    kc = KernelSpec.critical()
    for kind in ("ring", "gaussian_mixture"):
        for n in (16, 64):
            for seed in (1, 2, 3):
                cfg = TrainConfig(target=sample_target(kind, n, MASTER_SEED + seed), kernel=kc,
                                  n_particles=n, n_steps=n_steps, seed=seed, lr_ratio=lr_ratio)
                trace, dt = _timed(lambda: train_particles(cfg))
                yield n, trace, dt


def check_stationarity_and_descent(n_steps: int = 10_000) -> list[CheckResult]:
    stat_broken, descent_broken, seconds = 0, 0, []
    for n, trace, dt in _acceptance_runs(1.0, n_steps):
        big_l = (BETA1_MMD_BOUND + BETA2_MMD_BOUND) / n
        stat_broken += not check_stationarity_bound(trace, big_l, float(trace.loss[0]),
                                                    rel_tol=1e-9)
        descent_broken += not check_descent_inequality(trace, big_l, tol=1e-9)
        seconds.append(dt)
    return [
        CheckResult(f"runs breaking min grad^2 <= 2LJ0/n, of 12 x {n_steps} steps", stat_broken,
                    hi=0, seconds=float(np.sum(seconds))),
        CheckResult("slowest of those runs in seconds", np.max(seconds), hi=60.0),
        CheckResult("runs breaking J(k+1) <= J(k) - g^2/(2L) + 1e-9, of the same 12",
                    descent_broken, hi=0),
    ]


def check_instability_contrast(n_steps: int = 10_000) -> list[CheckResult]:
    # a diverged run counts as fully triggered
    fractions, dt = _timed(lambda: [1.0 if trace.diverged else trace.above_running_min_fraction()
                                    for _, trace, _ in _acceptance_runs(1e4, n_steps)])
    return [CheckResult("least fraction of steps above the running min at lr_ratio=1e4, "
                        "of 12 configs", np.min(fractions), lo=0.10, seconds=dt)]


def check_gan2d_equilibrium() -> list[CheckResult]:
    target = sample_target("ring", 16, MASTER_SEED)
    cfg = GanLoopConfig(generator_init=target.points.copy(), target=target,
                        depth=3, width=8, final_scale=0.05, beta2=BETA2_MMD_BOUND,
                        n_steps=100, seed=MASTER_SEED, lr_disc=0.05, lr_gen=0.5)
    norms: list[float] = []
    trace, dt = _timed(lambda: train_gan2d(cfg, disc_probe=lambda net: norms.extend(
        np.linalg.norm(w, 2) for w, _ in net.layers)))
    return [CheckResult("equilibrium run's max generator gradient / initial",
                        np.max(trace.grad_norm) / trace.grad_norm[0], hi=10.0, seconds=dt),
            CheckResult("equilibrium run length in steps", len(trace), lo=100, hi=100),
            CheckResult("largest discriminator operator norm after any update", np.max(norms),
                        hi=1.0 + 1e-6)]


SUITES = {
    "divergences": (check_w1_oracle_equivalence,),
    "smoothness": (check_beta2_certificate, check_bregman_identity, check_cross_hessian),
    "envelopes": (check_envelopes,),
    "rkhs": (check_rkhs_series,),
    "nnsmooth": (check_network_bounds, check_gradient_oracles),
    "trainer": (check_stationarity_and_descent, check_instability_contrast,
                check_gan2d_equilibrium),
}


def run_suite(name: str) -> list[CheckResult]:
    """The records of one suite, or of every suite for "all"."""
    return [r for suite in (SUITES if name == "all" else (name,))
            for check in SUITES[suite] for r in check()]
