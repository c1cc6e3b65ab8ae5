"""Command-line interface.

One binary exposing the whole laboratory: divergence evaluation, witness
queries, smoothness reports, envelope transforms, series norms, spectral
checks, training runs, learning-rate sweeps, and the acceptance suite.
Every output file gets a sibling manifest recording the command, seeds,
config hash, and wall time; identical command and seed reproduce
byte-identical numeric outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .divergences import LOSSES, KernelSpec, LossKind, loss_eval
from .envelopes import (gridfn_from_csv, gridfn_to_csv, inf_conv, legendre, moreau,
                        pasch_hausdorff)
from .errors import (ConfigError, DimensionMismatch, MalformedTrace, SmoothganError,
                     UnknownKind, need_count, refuse_over)
from .measures import (BoxDomain, fmt_number, measure_from_csv, sample_target, table_from_csv,
                       table_to_csv)
from .nnsmooth import net_from_json, net_to_json, power_iteration, random_mlp, spectral_normalize
from .rkhs import EmbeddingFn, truncated_series_norm
from .smoothness import OracleFamily, build_report
from .trainer import (GanLoopConfig, TrainConfig, trace_from_csv, trace_to_csv, train_gan2d,
                      train_particles)
from .verify import SUITES, run_suite

_GAN2D_TARGET_KEYS = {"kind", "n", "seed"}


def _write_with_manifest(out_path: str, content: str, args: argparse.Namespace) -> None:
    """Write the finished output plus its manifest; nothing is written on error paths."""
    path = Path(out_path)
    path.write_text(content)
    payload = {k: v for k, v in vars(args).items() if k not in ("func", "argv", "t_start")}
    manifest = {
        "command": shlex.join(["smoothgan", *args.argv]),
        "args": payload,
        "seed": payload.get("seed"),
        "seed_derivation": "splitmix64 child streams (smoothgan.rng)",
        "config_hash": hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest(),
        "version": __version__,
        "outputs": [str(path)],
        "wall_time_s": round(time.perf_counter() - args.t_start, 3),
    }
    Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _json(payload, indent: int | None = None) -> str:
    """payload as strict JSON: a number that is not finite (NaN, Infinity) reads back as null."""
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, indent=indent, allow_nan=False)


def _read(path: str) -> str:
    """The text of an input file; one that is not UTF-8 raises ConfigError naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_measure(path: str, signed: bool = False):
    return measure_from_csv(_read(path), signed=signed)


def _kernel_for(args) -> KernelSpec | None:
    """The kernel of the --loss entry: --sigma-sq or the critical one; None if it takes none."""
    if not LOSSES[args.loss].kernel:
        return None
    return KernelSpec.critical() if args.sigma_sq is None else KernelSpec(sigma_sq=args.sigma_sq)


def _need(value, flag: str):
    """The value of an option this command cannot run without."""
    if value is None:
        raise ConfigError(f"this command needs {flag}")
    return value


def _floats(text: str, flag: str) -> np.ndarray:
    """A comma-separated list of finite numbers."""
    try:
        vals = np.array([float(v) for v in text.split(",")])
        if not np.isfinite(vals).all():
            raise ValueError(text)
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated finite numbers: {exc}") from exc
    return vals


# --- subcommand bodies ---

def cmd_div(args) -> int:
    mu = _load_measure(args.mu)
    mu0 = _load_measure(args.mu0)
    val = loss_eval(LossKind(LOSSES[args.loss].tag, mu0, _kernel_for(args)), mu)
    print(fmt_number(val))
    return 0


def cmd_disc(args) -> int:
    mu = _load_measure(args.mu)
    mu0 = _load_measure(args.mu0)
    x = _floats(args.at, "--at")                # one point, as many coordinates as the measures
    loss, kernel = LOSSES[args.loss], _kernel_for(args)
    print("phi:", fmt_number(loss.witness(mu, mu0, kernel, x)))
    if loss.grad is not None:
        grad = loss.grad(mu.as_row(), mu0.as_row(), kernel, x[None, None])[0, 0]
        print("grad:", ",".join(fmt_number(v) for v in grad.tolist()))
    return 0


def cmd_smooth(args) -> int:
    fam = OracleFamily(args.loss, dim=args.d, kernel=_kernel_for(args))
    # before the domain's 2 d coordinates exist
    refuse_over(args.grid_pts * args.d, "evaluation-cloud coordinates")
    report = build_report(fam, BoxDomain.unit(args.d), args.trials, args.grid_pts, args.seed)
    payload = report.to_dict()
    if args.format == "csv":                   # floats at 15 digits, ints and bools as words
        text = table_to_csv(list(payload), [[fmt_number(v) if isinstance(v, float) else str(v)
                                             for v in payload.values()]])
    else:
        text = _json(payload, indent=2) + "\n"
    if args.out:
        _write_with_manifest(args.out, text, args)
    print(text, end="")
    return 0


def cmd_env(args) -> int:
    f = gridfn_from_csv(_read(args.f))
    if args.op == "infconv":
        g = gridfn_from_csv(_read(_need(args.g, "--g")))
        out = inf_conv(f, g)
    elif args.op == "ph":
        out = pasch_hausdorff(f, _need(args.alpha, "--alpha"))
    elif args.op == "moreau":
        out = moreau(f, _need(args.beta, "--beta"))
    elif args.op == "legendre":
        dual = None
        if (args.dual_lo is None) != (args.dual_hi is None):
            raise ConfigError("--dual-lo and --dual-hi must be given together")
        if args.dual_lo is not None:
            dual = BoxDomain(np.array([args.dual_lo]), np.array([args.dual_hi]))
        out = legendre(f, dual, args.dual_step)
    else:
        raise UnknownKind(args.op)
    _write_with_manifest(args.out, gridfn_to_csv(out), args)
    return 0


def cmd_rkhs(args) -> int:
    m = _load_measure(args.centers, signed=True)
    if m.dim != 1:
        raise DimensionMismatch(f"rkhs series takes 1-D centers, got {m.dim}-D ones")
    f = EmbeddingFn(m.points[:, 0], m.weights, KernelSpec.critical())
    lo = args.quad_lo if args.quad_lo is not None else float(m.points.min() - 8.0)
    hi = args.quad_hi if args.quad_hi is not None else float(m.points.max() + 8.0)
    sums = truncated_series_norm(f, args.order, lo, hi, args.quad_step)
    text = table_to_csv(["order", "partial_sum"], enumerate(sums))
    if args.out:
        _write_with_manifest(args.out, text, args)
    print(text, end="")
    return 0


def cmd_nn(args) -> int:
    if args.op == "init":
        net = random_mlp(args.input_dim, args.width, args.depth, args.activation, args.seed,
                         args.final_scale)
        if args.normalize:
            net = spectral_normalize(net)
        _write_with_manifest(_need(args.out, "--out"), net_to_json(net) + "\n", args)
        return 0
    net = net_from_json(_read(_need(args.net, "--net")))
    for i, (w, _b) in enumerate(net.layers):
        print(f"layer {i}: specnorm {fmt_number(power_iteration(w, seed=args.seed))}")
    if args.normalize:
        out = spectral_normalize(net)
        _write_with_manifest(_need(args.out, "--out"), net_to_json(out) + "\n", args)
    return 0


def _gan2d_config(path: str | None) -> dict:
    """The gan2d JSON config, with every key checked against the known ones."""
    try:
        blob = json.loads(_read(_need(path, "--config")))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(blob, dict) or not isinstance(blob.get("target"), dict):
        raise ConfigError("gan2d config must be a JSON object with a 'target' object")
    unknown = sorted(set(blob) - {f.name for f in dataclasses.fields(GanLoopConfig)}) + sorted(
        f"target.{k}" for k in set(blob["target"]) - _GAN2D_TARGET_KEYS)
    if unknown:
        raise ConfigError(f"unknown gan2d config keys: {', '.join(unknown)}")
    return blob


def _particle_trace(args, seed: int, lr_ratio: float):
    """Particle descent on the --target sample of --n atoms, for --steps steps."""
    target = sample_target(args.target, args.n, seed)
    return train_particles(TrainConfig(target=target, kernel=KernelSpec.critical(),
                                       n_particles=args.n, n_steps=args.steps, seed=seed,
                                       lr_ratio=lr_ratio))


def cmd_train(args) -> int:
    if args.mode == "particles":
        trace = _particle_trace(args, args.seed, args.lr_ratio)
    else:
        blob = _gan2d_config(args.config)
        tgt = blob["target"]
        target = sample_target(tgt.get("kind", "ring"), tgt.get("n", 16),
                               tgt.get("seed", blob.get("seed", GanLoopConfig.seed)))
        init = blob.get("generator_init", "atoms")
        try:
            theta0 = target.points.copy() if init == "atoms" else np.array(init, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"generator_init must be 'atoms' or an N x d matrix: {exc}") from exc
        trace = train_gan2d(GanLoopConfig(**{**blob, "generator_init": theta0, "target": target}))
    if args.format == "json":
        body = _json({"loss": trace.loss.tolist(), "grad_norm": trace.grad_norm.tolist(),
                      "step_size": trace.step_size.tolist(), "diverged": trace.diverged}) + "\n"
    else:
        body = trace_to_csv(trace)
    _write_with_manifest(args.out, body, args)
    print(f"steps {len(trace)}  final_loss {fmt_number(trace.final_loss)}  "
          f"min_grad_norm {fmt_number(trace.min_grad_norm)}  diverged {trace.diverged}")
    return 0


def cmd_sweep(args) -> int:
    ratios = _floats(args.ratios, "--ratios")
    need_count(args.seeds, "--seeds", 1, ConfigError)
    rows = []
    for ratio in ratios:
        for seed in range(args.seeds):
            trace = _particle_trace(args, args.seed + seed, ratio)
            rows.append([ratio, seed, trace.min_grad_norm, trace.final_loss, int(trace.diverged)])
    text = table_to_csv(["ratio", "seed", "min_grad_norm", "final_loss", "diverged"], rows)
    _write_with_manifest(args.out, text, args)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    n_fail = sum(not r.passed for r in results)
    if args.format == "json":
        print(_json([r.to_dict() for r in results], indent=2))
    else:
        for r in results:
            print(r.line())
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def cmd_plotdata(args) -> int:
    text = _read(args.trace)
    if text.startswith("step,loss,"):                    # a trace: step grad_norm
        trace = trace_from_csv(text)
        lines = [f"{i} {fmt_number(g)}\n" for i, g in enumerate(trace.grad_norm.tolist())]
    else:                                                 # a sweep: ratio min_grad_norm
        header, table = table_from_csv(text, error=MalformedTrace)
        if header[:3] != ["ratio", "seed", "min_grad_norm"]:
            raise MalformedTrace(f"unrecognized trace header {header}")
        # within one ratio, rows sort by the text of min_grad_norm
        rows = sorted((ratio, fmt_number(g)) for ratio, g in table[:, [0, 2]].tolist())
        lines = [f"{fmt_number(ratio)} {g}\n" for ratio, g in rows]
    _write_with_manifest(args.out, "".join(lines), args)
    return 0


@functools.cache       # one parse tree per process: building it costs milliseconds
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="smoothgan",
                                description="GAN-loss smoothness laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("div", help="evaluate a divergence loss")
    ds = d.add_subparsers(dest="op", required=True)
    de = ds.add_parser("eval")
    de.add_argument("--loss", required=True, choices=list(LOSSES))
    de.add_argument("--mu", required=True)
    de.add_argument("--mu0", required=True)
    de.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    de.set_defaults(func=cmd_div)

    c = sub.add_parser("disc", help="query an optimal discriminator")
    cs = c.add_subparsers(dest="op", required=True)
    ce = cs.add_parser("eval")
    ce.add_argument("--loss", required=True, choices=list(LOSSES))
    ce.add_argument("--mu", required=True)
    ce.add_argument("--mu0", required=True)
    ce.add_argument("--at", required=True, help="comma-separated point")
    ce.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    ce.set_defaults(func=cmd_disc)

    s = sub.add_parser("smooth", help="estimate regularity constants")
    ss = s.add_subparsers(dest="op", required=True)
    sr = ss.add_parser("report")
    sr.add_argument("--loss", required=True,
                    choices=[name for name, loss in LOSSES.items() if loss.grad is not None])
    sr.add_argument("--d", type=int, default=1)
    sr.add_argument("--trials", type=int, default=500)
    sr.add_argument("--grid-pts", type=int, default=201, dest="grid_pts")
    sr.add_argument("--seed", type=int, default=7)
    sr.add_argument("--sigma-sq", type=float, dest="sigma_sq")
    sr.add_argument("--format", default="json", choices=["csv", "json"])
    sr.add_argument("--out")
    sr.set_defaults(func=cmd_smooth)

    e = sub.add_parser("env", help="envelope transforms on grid functions")
    e.add_argument("op", choices=["infconv", "ph", "moreau", "legendre"])
    e.add_argument("--f", required=True)
    e.add_argument("--g")
    e.add_argument("--alpha", type=float)
    e.add_argument("--beta", type=float)
    e.add_argument("--dual-lo", type=float, dest="dual_lo")
    e.add_argument("--dual-hi", type=float, dest="dual_hi")
    e.add_argument("--dual-step", type=float, dest="dual_step")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_env)

    r = sub.add_parser("rkhs", help="derivative-series norm of a kernel expansion")
    rs = r.add_subparsers(dest="op", required=True)
    rr = rs.add_parser("series")
    rr.add_argument("--centers", required=True, help="measure CSV: centers and coefficients")
    rr.add_argument("--order", type=int, default=20)
    rr.add_argument("--quad-lo", type=float, dest="quad_lo")
    rr.add_argument("--quad-hi", type=float, dest="quad_hi")
    rr.add_argument("--quad-step", type=float, default=1e-3, dest="quad_step")
    rr.add_argument("--out")
    rr.set_defaults(func=cmd_rkhs)

    n = sub.add_parser("nn", help="network spectral checks and initialization")
    n.add_argument("op", choices=["specnorm", "init"])
    n.add_argument("--net")
    n.add_argument("--input-dim", type=int, default=2, dest="input_dim")
    n.add_argument("--width", type=int, default=8)
    n.add_argument("--depth", type=int, default=3)
    n.add_argument("--activation", default="elu", choices=["elu", "sigmoid", "relu"])
    n.add_argument("--final-scale", type=float, default=1.0, dest="final_scale")
    n.add_argument("--normalize", action="store_true")
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--out")
    n.set_defaults(func=cmd_nn)

    t = sub.add_parser("train", help="training runs")
    t.add_argument("mode", choices=["particles", "gan2d"])
    t.add_argument("--target", default="ring", choices=["ring", "gaussian_mixture",
                                                        "grid_uniform"])
    t.add_argument("--n", type=int, default=64)
    t.add_argument("--lr-ratio", type=float, default=1.0, dest="lr_ratio")
    t.add_argument("--steps", type=int, default=10_000)
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("--config", help="JSON config (gan2d)")
    t.add_argument("--format", default="csv", choices=["csv", "json"])
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    w = sub.add_parser("sweep", help="learning-rate ratio sweep")
    w.add_argument("--ratios", default="0.1,1,10,100,1000")
    w.add_argument("--seeds", type=int, default=5)
    w.add_argument("--target", default="ring")
    w.add_argument("--n", type=int, default=64)
    w.add_argument("--steps", type=int, default=2000)
    w.add_argument("--seed", type=int, default=7)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--suite", default="all", choices=["all", *SUITES])
    v.add_argument("--format", default="text", choices=["text", "json"])
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("plotdata", help="extract plot series from traces")
    g.add_argument("trace")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_plotdata)

    return p


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv, args.t_start = argv, t_start      # the manifest's command and clock, not args
    try:
        return args.func(args)
    except (SmoothganError, OSError) as exc:   # OSError: unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
