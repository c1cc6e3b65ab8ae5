"""Span tracing of smoothgan's public functions, installed from outside the package.

Each traced function is rebound in the module that defines it and in every
smoothgan module that imported it by name (``from .divergences import
mmd_sq`` binds a second reference in ``trainer``); methods are rebound on
their class.  A wrapper records one span per call (name, start, end, parent
span) into an in-memory list and, for some functions, adds work counts
derived from the call's arguments and result.  ``uninstall`` puts every
original binding back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

from harness import percentile


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_atoms(counts, args, kwargs, out):
    counts["measures.atoms_in"] += len(_arg(args, kwargs, 0, "points"))
    counts["measures.atoms_out"] += out.n_atoms


def _cells(key):
    def count(counts, args, kwargs, out):
        # methods: args[0] is the KernelSpec, then the (n, d) and (m, d) inputs
        counts[key] += len(_arg(args, kwargs, 1, "x")) * len(_arg(args, kwargs, 2, "y"))
    return count


def _count_lp(counts, args, kwargs, out):
    counts["divergences.w1_lp.cells"] += (_arg(args, kwargs, 0, "mu").n_atoms
                                          * _arg(args, kwargs, 1, "nu").n_atoms)


def _count_grid(counts, args, kwargs, out):
    counts["envelopes.cells_out"] += out.values.size


def _count_steps(counts, args, kwargs, out):
    counts["trainer.steps_done"] += len(out)
    counts["trainer.steps_requested"] += _arg(args, kwargs, 0, "cfg").n_steps


# (module, attribute path, work counter); the span name is module.function
TRACED = (
    ("measures", "make_signed", _count_atoms),
    ("measures", "make_discrete", _count_atoms),
    ("measures", "measure_from_csv", None),
    ("divergences", "KernelSpec.gram", _cells("divergences.gram.cells")),
    ("divergences", "KernelSpec.grad_x", _cells("divergences.grad_x.cells")),
    ("divergences", "mmd_sq", None),
    ("divergences", "w1_lp", _count_lp),
    ("divergences", "align_many", None),
    ("divergences", "loss_eval", None),
    ("discriminators", "phi_mmd", None),
    ("discriminators", "grad_phi_mmd", None),
    ("discriminators", "phi_w1_1d", None),
    ("discriminators", "grad_phi_w1_1d", None),
    ("smoothness", "estimate_alpha", None),
    ("smoothness", "estimate_beta1", None),
    ("smoothness", "estimate_beta2", None),
    ("smoothness", "bregman", None),
    ("envelopes", "moreau", _count_grid),
    ("envelopes", "pasch_hausdorff", _count_grid),
    ("envelopes", "legendre", _count_grid),
    ("envelopes", "inf_conv", _count_grid),
    ("envelopes", "gridfn_from_csv", None),
    ("envelopes", "gridfn_to_csv", None),
    ("rkhs", "truncated_series_norm", None),
    ("rkhs", "gp_penalty", None),
    ("nnsmooth", "spectral_normalize", None),
    ("nnsmooth", "power_iteration", None),
    ("nnsmooth", "mlp_forward", None),
    ("nnsmooth", "mlp_input_grad", None),
    ("nnsmooth", "MlpNet.with_params", None),
    ("trainer", "train_particles", _count_steps),
    ("trainer", "mmd_particle_grad", None),
    ("trainer", "train_gan2d", _count_steps),
    ("cli", "main", None),
)

def package_modules() -> dict[str, object]:
    """Every loaded smoothgan submodule by short name."""
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("smoothgan.")}


class Tracer:
    """Records spans while ``active``; wrappers pass calls straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list = []            # (name, start, end, parent index or -1)
        self.disc_updates: list = []     # (time, enclosing train_gan2d span index)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []           # (owner, attribute, original) to restore

    # --- recording ---

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "trainer.train_gan2d":
                args, kwargs = tracer._probe_marks(args, kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end,
                                     tracer._stack[-1] if tracer._stack else -1)
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        return traced

    def _probe_marks(self, args, kwargs):
        """Chain a marker in front of train_gan2d's disc_probe (positional or keyword);
        the probe runs at the end of each discriminator update."""
        probe = args[1] if len(args) > 1 else kwargs.get("disc_probe")

        def marked(net):
            self.disc_updates.append((time.perf_counter(), self._stack[-1]))
            if probe is not None:
                probe(net)

        return (args[0],), {**{k: v for k, v in kwargs.items() if k != "disc_probe"},
                            "disc_probe": marked}

    # --- installation ---

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        for mod_name, path, counter in TRACED:
            owner = mods[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{mod_name}.{attr}", original, counter))
                continue
            original = owner.__dict__[path]
            wrapper = self._wrap(f"{mod_name}.{path}", original, counter)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- output ---

    def dump(self, path, environment: dict) -> None:
        """Write the recorded spans and update marks, with the run's environment,
        as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"environment": environment, "spans": self.spans,
                       "disc_updates": self.disc_updates}, fh)


def self_times(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self time per span name; self time is the span's duration
    minus the durations of its direct children (children nest inside their
    parent because the program is single-threaded)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
    return calls, self_s


def update_intervals_ms(marks) -> list[float]:
    """Gaps between consecutive discriminator updates inside one train_gan2d call."""
    out = []
    last: dict[int, float] = {}
    for t, span in marks:
        if span in last:
            out.append(1e3 * (t - last[span]))
        last[span] = t
    return out


def layer_metrics(tracer: Tracer, per_layer: list[dict]) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, from one traced pass."""
    calls, self_s = self_times(tracer.spans)
    gaps = update_intervals_ms(tracer.disc_updates)
    derived = {
        "trainer.disc_updates": len(tracer.disc_updates),
        "trainer.disc_update.p50_ms": percentile(sorted(gaps), 0.5) if gaps else 0.0,
    }
    out = {}
    for entry in per_layer:
        name = entry["name"]
        if name in derived:
            out[name] = derived[name]
        elif name in tracer.counts:
            out[name] = tracer.counts[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name != "trace.overhead_frac":
            out[name] = 0       # a work count whose function was not called
    return out
