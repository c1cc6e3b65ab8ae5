"""Run every workload over a range of seeds and summarize each end-to-end metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with tracing off, run one after
another so runs do not compete for the CPU.  The summary holds, per workload
and metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runner = [sys.executable, str(Path(__file__).with_name("run.py"))]
    summary = {"run_seconds": spec["run_seconds"], "seeds": seed_range(args.seeds),
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seed_range(args.seeds):
            res = subprocess.run(runner + ["--workload", name, "--seed", str(seed), "--seconds",
                                           str(spec["run_seconds"]), "--trace", "0"],
                                 capture_output=True, text=True, cwd=ROOT, timeout=600)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            out = json.loads(res.stdout.strip().splitlines()[-1])
            attempted += out["attempted"]
            failed += out["failed"]
            for metric, m in out["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                + f" failed {out['failed']}/{out['attempted']}", flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "bound": bounds[metric], "values": vals}
            print(f"  {metric:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {bounds[metric]}")
        summary["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
