"""Acceptance checks: every guarantee the package claims, run end to end.

Each check returns a record with the observed value and the bound it must
meet; the CLI prints one PASS/FAIL line per check and pytest asserts them
individually.  All randomness is pinned through the seed-derivation scheme,
so a check either always passes or always fails on a given build.
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
    name: str
    passed: bool
    observed: str
    bound: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}: observed {self.observed}, bound {self.bound} ({self.seconds:.1f}s)"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# --- divergences suite ---

def check_w1_oracle_equivalence() -> list[CheckResult]:
    def body():
        worst = 0.0
        for t in range(100):
            rng = child_rng(MASTER_SEED, 100, t)
            mu = random_measure(rng, 1, max_atoms=8)
            nu = random_measure(rng, 1, max_atoms=8)
            worst = max(worst, abs(w1_1d(mu, nu) - w1_lp(mu, nu)))
        return worst

    worst, dt = _timed(body)
    res = [CheckResult("w1 closed form vs transport LP (100 pairs)", worst <= 1e-9,
                       f"{worst:.3e}", "<= 1e-9", dt)]

    x = 1e-3
    ratio = js(make_discrete([x], [1.0]), make_discrete([0.0], [1.0])) / x
    res.append(CheckResult("JS/W1 ratio at x=1e-3 (no finite Lipschitz constant)",
                           ratio >= 690.0, f"{ratio:.2f}", ">= 690", 0.0))
    return res


# --- smoothness suite ---

def check_beta2_certificate() -> list[CheckResult]:
    fam = OracleFamily("mmd", dim=1, kernel=KernelSpec.critical())
    est, dt = _timed(lambda: estimate_beta2(fam, BoxDomain.unit(1), 500, 201, MASTER_SEED))
    lo, hi = 0.6 * 2 * math.pi, 1.01 * 2 * math.pi
    ok = lo <= est <= hi and dt < 30.0
    return [CheckResult("beta2 estimate for critical-kernel MMD (500 pairs)", ok,
                        f"{est:.4f}", f"in [{lo:.3f}, {hi:.3f}], < 30s", dt)]


def check_bregman_identity() -> list[CheckResult]:
    kc = KernelSpec.critical()

    def body():
        worst = 0.0
        for t in range(200):
            rng = child_rng(MASTER_SEED, 200, t)
            nu = random_measure(rng, 1)
            mu = random_measure(rng, 1)
            mu0 = random_measure(rng, 1)
            kind = LossKind("mmd_sq_half", mu0, kc)
            worst = max(worst, abs(bregman(kind, nu, mu) - 0.5 * mmd_sq(nu, mu, kc)))
        return worst

    worst, dt = _timed(body)
    return [CheckResult("Bregman(kernel loss) equals half squared MMD (200 pairs)",
                        worst <= 1e-10, f"{worst:.3e}", "<= 1e-10", dt)]


def check_cross_hessian() -> list[CheckResult]:
    results = []
    for k, label in ((KernelSpec.critical(), "critical"), (KernelSpec(1.0), "sigma_sq=1")):
        grid = np.linspace(-1.0, 1.0, 41)
        vals = np.array([[kernel_cross_hessian_norm(k, x, y) for y in grid] for x in grid])
        sup = float(vals.max())
        arg = np.unravel_index(np.argmax(vals), vals.shape)
        on_diag = arg[0] == arg[1]
        err = abs(sup - 1.0 / k.sigma_sq)
        results.append(CheckResult(
            f"cross-Hessian sup equals 1/sigma^2 on the diagonal ({label})",
            err <= 1e-12 and on_diag, f"{sup:.12f} (diag={on_diag})",
            f"= {1.0 / k.sigma_sq:.12f} +- 1e-12", 0.0))

        def body():
            worst = -math.inf
            for t in range(200):
                rng = child_rng(MASTER_SEED, 300, t)
                mu = random_measure(rng, 1)
                nu = random_measure(rng, 1)
                gap = mmd_sq(mu, nu, k) - kr_norm_1d(diff(mu, nu)) ** 2 / k.sigma_sq
                worst = max(worst, gap)
            return worst

        worst, dt = _timed(body)
        results.append(CheckResult(
            f"MMD^2 <= KR^2 / sigma^2 on 200 random pairs ({label})",
            worst <= 1e-12, f"max gap {worst:.3e}", "<= 1e-12", dt))
    return results


# --- envelopes suite ---

def check_envelopes() -> list[CheckResult]:
    res = []
    step = 1e-3
    dom = BoxDomain(np.array([-3.0]), np.array([3.0]))
    xs = np.arange(-3.0, 3.0 + step / 2, step)

    f_abs = GridFn(dom, step, np.abs(xs))
    hub, dt = _timed(lambda: moreau(f_abs, 1.0))
    truth = np.where(np.abs(xs) <= 1.0, 0.5 * xs ** 2, np.abs(xs) - 0.5)
    err = float(np.abs(hub.values - truth).max())
    res.append(CheckResult("Huber golden values (step 1e-3)", err <= 2e-3,
                           f"{err:.3e}", "<= 2e-3", dt))

    f_q = GridFn(dom, step, 0.5 * xs ** 2)
    for alpha in (0.5, 1.0, 2.0):
        ph = pasch_hausdorff(f_q, alpha)
        slope = float(np.abs(np.diff(ph.values)).max() / step)
        res.append(CheckResult(f"Pasch-Hausdorff slope bound (alpha={alpha})",
                               slope <= alpha + 2 * step, f"{slope:.6f}",
                               f"<= {alpha + 2 * step:.6f}", 0.0))

    for beta in (1.0, 2.0):
        mo = moreau(f_abs, beta)
        second = float(np.abs(np.diff(mo.values, 2)).max() / step ** 2)
        res.append(CheckResult(f"Moreau second-difference bound (beta={beta})",
                               second <= beta + 2 * step, f"{second:.6f}",
                               f"<= {beta + 2 * step:.6f}", 0.0))

    err = conjugate_sum_identity_check(f_abs, f_q)
    res.append(CheckResult("conjugate of inf-convolution equals sum of conjugates",
                           err <= 2 * step, f"{err:.3e}", f"<= {2 * step:.0e}", 0.0))

    def random_convex(rng) -> GridFn:
        slopes = np.sort(rng.uniform(-2.0, 2.0, len(xs) - 1))
        vals = np.concatenate([[0.0], np.cumsum(slopes * step)])
        return GridFn(dom, step, vals - vals.min())

    def body():
        ok = True
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
            ok = ok and minimizer_invariance_check(f, g)
        return ok

    ok, dt = _timed(body)
    res.append(CheckResult("minimizer invariance on 20 random convex instances",
                           ok, str(ok), "all preserved", dt))
    return res


# --- rkhs suite ---

def check_rkhs_series() -> list[CheckResult]:
    f = EmbeddingFn(np.array([0.0]), np.array([1.0]), KernelSpec.critical())
    sums, dt = _timed(lambda: truncated_series_norm(f, 20, -8.0, 8.0, 1e-3))
    res = [
        CheckResult("series partial sums nondecreasing",
                    bool(np.all(np.diff(sums) >= -1e-15)), "monotone", "all increments >= 0", dt),
        CheckResult("S_0 equals 1/sqrt(2)", abs(sums[0] - 1 / math.sqrt(2)) <= 1e-6,
                    f"{sums[0]:.9f}", f"{1 / math.sqrt(2):.9f} +- 1e-6", 0.0),
        CheckResult("S_20 within 1% of the reproducing norm 1",
                    abs(sums[20] - 1.0) <= 0.01, f"{sums[20]:.9f}", "1 +- 0.01", 0.0),
    ]
    return res


# --- nnsmooth suite ---

def check_network_bounds() -> list[CheckResult]:
    res = []
    box = BoxDomain.unit(2)

    def body():
        worst_smooth, worst_lip = 0.0, 0.0
        for k in range(1, 8):
            for act in ("elu", "sigmoid"):
                scale = 1.0 if k % 2 else 0.7
                net = spectral_normalize(
                    random_mlp(2, 32, k, act, seed=MASTER_SEED + k, final_scale=scale))
                sm = empirical_smoothness(net, box, 2000, seed=k)
                lip = empirical_lipschitz(net, box, 2000, seed=k)
                worst_smooth = max(worst_smooth, sm / (k * scale))
                worst_lip = max(worst_lip, lip / scale)
        return worst_smooth, worst_lip

    (worst_smooth, worst_lip), dt = _timed(body)
    res.append(CheckResult("k-layer smoothness bound, k in 1..7 (2000 pairs)",
                           worst_smooth <= 1.0 + 1e-3 and dt < 60.0,
                           f"max ratio {worst_smooth:.6f}", "<= 1.001, < 60s", dt))
    res.append(CheckResult("normalized-net Lipschitz bound (2000 pairs)",
                           worst_lip <= 1.0 + 1e-3, f"max ratio {worst_lip:.6f}", "<= 1.001", 0.0))
    return res


def check_gradient_oracles() -> list[CheckResult]:
    kc = KernelSpec.critical()

    def particle_body():
        worst = 0.0
        for t in range(20):
            rng = child_rng(MASTER_SEED, 500, t)
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 17))
            theta = rng.uniform(-1, 1, size=(n, d))
            mu0 = random_measure(rng, d)
            gen = ParticleGenerator(theta)
            grad = mmd_particle_grad(gen, mu0, kc)
            w = np.full(n, 1.0 / n)
            h = 1e-6
            fd = np.zeros_like(theta)
            for i in range(n):
                for j in range(d):
                    e = np.zeros_like(theta)
                    e[i, j] = h
                    up = 0.5 * mmd_sq(DiscreteMeasure(theta + e, w.copy()), mu0, kc)
                    dn = 0.5 * mmd_sq(DiscreteMeasure(theta - e, w.copy()), mu0, kc)
                    fd[i, j] = (up - dn) / (2 * h)
            worst = max(worst, float(np.abs(grad - fd).max()))
        return worst

    worst_p, dt_p = _timed(particle_body)
    res = [CheckResult("particle gradient vs finite differences (20 configs)",
                       worst_p <= 1e-6, f"{worst_p:.3e}", "<= 1e-6", dt_p)]

    def net_body():
        worst = 0.0
        for t in range(20):
            rng = child_rng(MASTER_SEED, 600, t)
            d = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 5))
            act = "elu" if t % 2 else "sigmoid"
            net = spectral_normalize(random_mlp(d, int(rng.integers(2, 17)), depth, act,
                                                seed=int(rng.integers(2 ** 31))))
            x = rng.uniform(-1, 1, size=d)
            g = mlp_input_grad(net, x)
            h = 1e-5
            fd = np.array([(mlp_forward(net, x + h * np.eye(d)[i])
                            - mlp_forward(net, x - h * np.eye(d)[i])) / (2 * h)
                           for i in range(d)])
            worst = max(worst, float(np.abs(g - fd).max()))
        return worst

    worst_n, dt_n = _timed(net_body)
    res.append(CheckResult("network input gradient vs finite differences (20 configs)",
                           worst_n <= 1e-5, f"{worst_n:.3e}", "<= 1e-5", dt_n))

    def witness_body():
        worst = 0.0
        for t in range(20):
            rng = child_rng(MASTER_SEED, 650, t)
            d = int(rng.integers(1, 3))
            mu = random_measure(rng, d)
            mu0 = random_measure(rng, d)
            x = rng.uniform(-1, 1, size=d)
            g = grad_phi_mmd(mu, mu0, kc, x)
            h = 1e-4
            fd = np.array([(phi_mmd(mu, mu0, kc, x + h * np.eye(d)[i])
                            - phi_mmd(mu, mu0, kc, x - h * np.eye(d)[i])) / (2 * h)
                           for i in range(d)])
            worst = max(worst, float(np.abs(g - fd).max()))
        return worst

    worst_w, dt_w = _timed(witness_body)
    res.append(CheckResult("MMD witness gradient vs finite differences (20 configs)",
                           worst_w <= 1e-6, f"{worst_w:.3e}", "<= 1e-6", dt_w))
    return res


# --- trainer suite ---

def _trainer_configs() -> list[tuple[str, int, int]]:
    return [(kind, n, seed) for kind in ("ring", "gaussian_mixture")
            for n in (16, 64) for seed in (1, 2, 3)]


def check_stationarity_and_descent(n_steps: int = 10_000) -> list[CheckResult]:
    kc = KernelSpec.critical()
    stat_ok, descent_ok, runtime_ok = True, True, True
    max_run = 0.0
    worst_cfg = ""
    for kind, n, seed in _trainer_configs():
        target = sample_target(kind, n, MASTER_SEED + seed)
        cfg = TrainConfig(target=target, kernel=kc, n_particles=n, n_steps=n_steps,
                          seed=seed, lr_ratio=1.0)
        t0 = time.perf_counter()
        trace = train_particles(cfg)
        dt = time.perf_counter() - t0
        max_run = max(max_run, dt)
        runtime_ok = runtime_ok and dt < 60.0
        big_l = (BETA1_MMD_BOUND + BETA2_MMD_BOUND) / n
        s_ok = check_stationarity_bound(trace, big_l, float(trace.loss[0]), rel_tol=1e-9)
        d_ok = check_descent_inequality(trace, big_l, tol=1e-9)
        if not (s_ok and d_ok):
            worst_cfg = f"{kind} N={n} seed={seed}"
        stat_ok = stat_ok and s_ok
        descent_ok = descent_ok and d_ok
    return [
        CheckResult(f"stationarity bound over 12 runs x {n_steps} steps",
                    stat_ok and runtime_ok,
                    worst_cfg or f"all hold, slowest run {max_run:.1f}s",
                    "min grad^2 <= 2LJ0/n for all n; < 60s/run", max_run),
        CheckResult("per-step descent inequality on the same runs", descent_ok,
                    worst_cfg or "all hold", "J(k+1) <= J(k) - g^2/(2L) + 1e-9", 0.0),
    ]


def check_instability_contrast(n_steps: int = 10_000) -> list[CheckResult]:
    kc = KernelSpec.critical()
    all_trigger = True
    detail = ""
    t0 = time.perf_counter()
    for kind, n, seed in _trainer_configs():
        target = sample_target(kind, n, MASTER_SEED + seed)
        cfg = TrainConfig(target=target, kernel=kc, n_particles=n, n_steps=n_steps,
                          seed=seed, lr_ratio=1e4)
        trace = train_particles(cfg)
        triggered = trace.diverged or trace.above_running_min_fraction() >= 0.10
        if not triggered:
            detail = f"{kind} N={n} seed={seed} failed to trigger"
        all_trigger = all_trigger and triggered
    dt = time.perf_counter() - t0
    return [CheckResult("instability trigger at lr_ratio=1e4 on all 12 configs",
                        all_trigger, detail or "all triggered",
                        "diverged or >= 10% of steps above running min", dt)]


def check_gan2d_equilibrium() -> list[CheckResult]:
    target = sample_target("ring", 16, MASTER_SEED)
    cfg = GanLoopConfig(generator_init=target.points.copy(), target=target,
                        depth=3, width=8, final_scale=0.05, beta2=BETA2_MMD_BOUND,
                        n_steps=100, seed=MASTER_SEED, lr_disc=0.05, lr_gen=0.5)
    norms: list[float] = []
    trace, dt = _timed(lambda: train_gan2d(cfg, disc_probe=lambda net: norms.append(
        max(float(np.linalg.norm(w, 2)) for w, _ in net.layers))))
    ratio = float(np.max(trace.grad_norm) / trace.grad_norm[0])
    res = [CheckResult("equilibrium run keeps generator gradient <= 10x initial",
                       ratio <= 10.0 and len(trace) == 100, f"max ratio {ratio:.3f}",
                       "<= 10 over 100 steps", dt)]
    worst = max(norms)
    res.append(CheckResult("discriminator operator norms after every update",
                           worst <= 1.0 + 1e-6, f"{worst:.9f}", "<= 1 + 1e-6", 0.0))
    return res


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
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(run_suite(suite))
        return out
    if name not in SUITES:
        raise KeyError(name)
    out = []
    for check in SUITES[name]:
        out.extend(check())
    return out
