"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 20 --trace 0

A closed loop with one client: ops run back to back in this one process,
each starting when the previous one returns, over whole passes of the
workload's fixed op list until the next pass would end after --seconds.
Every op's output is checked outside its timed interval.  With --trace 0 the
last line of standard output carries the end-to-end metrics; with --trace 1
the run spends half its time untraced, then one pass with every listed
smoothgan function wrapped, and reports the per-layer metrics.

Op times are given in units of harness.Reference, a fixed computation timed
just before and just after each op: every op's time is divided by the mean
of those two.  The raw times are printed on '#' lines.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from harness import (ROOT, SRC, Reference, blas_threads, environment, percentile,
                     samples_beyond)

SETUP_PROBES = 3            # fresh processes timed for setup_s, besides this one
MIN_PASSES = 3
MIN_OPS = 100               # so that at least ten op latencies lie beyond p90


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    """Import smoothgan from this checkout's src/ and nowhere else."""
    pkg = SRC / "smoothgan"
    if not (pkg / "__init__.py").is_file():
        fail(f"no smoothgan sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import smoothgan
    import smoothgan.cli      # noqa: F401  (loads every submodule the tracer wraps)
    if os.path.dirname(os.path.realpath(smoothgan.__file__)) != os.path.realpath(pkg):
        fail(f"imported smoothgan from {smoothgan.__file__}, not from {pkg}")


def _release_heap():
    """Hand freed heap pages back to the OS, so that the peak RSS of a later op
    does not depend on how earlier ops fragmented the heap."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_op(op, tracer=None) -> tuple[float, bool, str]:
    """Time one op; check its output afterwards, untimed and untraced."""
    if tracer is not None:
        tracer.active = True
    out = None
    start = time.perf_counter()
    try:
        out = op.run()
        err = ""
    except Exception:
        err = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if not err:
        try:
            if not op.check(out):
                err = "output check failed"
        except Exception:
            err = traceback.format_exc()
    del out
    _release_heap()
    return elapsed, not err, err


class Loop:
    """Whole passes over the op list, with per-op latencies and failures.

    Untraced passes time the reference kernel between ops and keep each op's
    latency both in seconds and in reference units."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference or Reference()
        self.latencies: list[float] = []
        self.rel_latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.rel_pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def one_pass(self, tracer=None) -> float:
        wall = rel_wall = 0.0
        ref_before = self.reference() if tracer is None else 0.0
        for op in self.workload.ops:
            elapsed, ok, err = run_op(op, tracer)
            self.attempted += 1
            wall += elapsed
            if tracer is None:
                ref_after = self.reference()
                rel = elapsed / (0.5 * (ref_before + ref_after))
                ref_before = ref_after
                self.latencies.append(elapsed)
                self.rel_latencies.append(rel)
                rel_wall += rel
            if not ok:
                self.failed += 1
                if op.label not in self._reported:
                    self._reported.add(op.label)
                    print(f"perfbench: op failed: {op.label}\n{err}", file=sys.stderr)
        if tracer is None:
            self.pass_walls.append(wall)
            self.rel_pass_walls.append(rel_wall)
        return wall

    def run_for(self, seconds: float) -> None:
        """Untraced passes while the next one is expected to end within seconds,
        and at least MIN_PASSES passes and MIN_OPS ops."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.one_pass()
            last = time.perf_counter() - t0
            if (len(self.pass_walls) >= MIN_PASSES and len(self.latencies) >= MIN_OPS
                    and time.perf_counter() - start + last > seconds):
                break


def setup_probe(name: str, seed: int) -> float:
    """Import smoothgan, generate the inputs, run and check one op; seconds taken.
    A failing warm-up op is not fatal: the measured passes count it."""
    start = time.perf_counter()
    load_package()
    from workloads import BUILDERS
    workload = BUILDERS[name](seed)
    try:
        run_op(workload.ops[0])
    finally:
        workload.close()
    return time.perf_counter() - start


def probe_subprocess(name: str, seed: int) -> float:
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                          "--seed", str(seed), "--setup-probe"],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    if res.returncode != 0:
        fail(f"setup probe exited {res.returncode}:\n{res.stderr}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["descent", "workbench", "adversarial"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="how long to measure")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # pin the BLAS pool before numpy loads; probes inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    if args.seconds is None:
        p.error("--seconds is required")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    load_package()
    from workloads import BUILDERS
    workload = BUILDERS[args.workload](args.seed)
    try:
        run_op(workload.ops[0])          # warm-up; the measured passes count failures
        setups = [time.perf_counter() - start]
        setups += [probe_subprocess(args.workload, args.seed) for _ in range(SETUP_PROBES)]

        env = environment(args.seed, workload.digest)
        print("# environment " + json.dumps(env))
        loop = Loop(workload)
        if args.trace:
            metrics = traced_run(loop, args, spec, env)
        else:
            loop.run_for(args.seconds)
            metrics = end_to_end(loop, setups, spec)
    finally:
        workload.close()

    frac = loop.failed / loop.attempted
    print(f"# {args.workload}: {len(loop.pass_walls)} untraced passes, {loop.attempted} ops, "
          f"failed_frac {frac:.6g} ratio ({loop.failed}/{loop.attempted})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def end_to_end(loop: Loop, setups: list[float], spec: dict) -> dict:
    lat, rel = sorted(loop.latencies), sorted(loop.rel_latencies)
    n = len(rel)
    print(f"# op latency samples {n}; {samples_beyond(n, 0.9)} beyond p90")
    print(f"# in seconds: pass wall median {statistics.median(loop.pass_walls):.4f} s, "
          f"op p50 {1e3 * percentile(lat, 0.5):.3f} ms, op p90 {1e3 * percentile(lat, 0.9):.3f} ms")
    print("# pass walls " + " ".join(f"{w:.4f}" for w in loop.pass_walls))
    values = {
        "wall_ref": statistics.median(loop.rel_pass_walls),
        "op_p50_ref": percentile(rel, 0.5),
        "op_p90_ref": percentile(rel, 0.9),
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def traced_run(loop: Loop, args, spec: dict, env: dict) -> dict:
    from tracer import Tracer, layer_metrics
    loop.run_for(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = loop.one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.dump(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json.gz", env)
    values = layer_metrics(tracer, spec["per_layer"])
    values["trace.overhead_frac"] = traced_wall / statistics.median(loop.pass_walls) - 1.0
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
