"""Small helpers shared by the runner, the workloads and the tests.

numpy is imported inside functions only: run.py imports this module, then
pins the BLAS thread pool, which must happen before numpy loads.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent     # root of the checkout
SRC = ROOT / "src"


def blas_threads() -> int:
    """Thread count the BLAS pool is pinned to.  One: the load is a single client
    doing small dense algebra, and a second pool thread on a shared host of few
    cores adds scheduler noise, not speed."""
    return 1


class Reference:
    """A fixed computation timed next to every op, as the unit op times are
    given in.

    On a shared host, other tenants slow the same op on the same inputs by up
    to 2x for minutes at a time, in CPU time as much as in wall time.  Code
    timed at the same moment slows with it, so the ratio of an op's time to
    this kernel's holds still.  Its four parts take 1.5-3 ms each and
    stand for the kinds of work smoothgan does: interpreter-bound Python,
    many calls on tiny arrays, dense algebra on mid-size arrays, and a stream
    through memory larger than the caches.  Its inputs are fixed, not drawn
    from the workload seed, so that every run measures the same unit.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._tiny = rng.uniform(size=(40, 2))
        self._a, self._b = rng.uniform(-1.0, 1.0, (2, 128, 2))
        self._m = rng.uniform(size=(200, 200))
        self._stream = rng.uniform(size=2_000_000)          # 16 MB

    def _python(self) -> float:
        acc, table = 0.0, {}
        for i in range(9000):
            acc += i * 0.5
            table[i & 63] = acc
        return acc

    def _tiny_arrays(self) -> float:
        import numpy as np
        acc = 0.0
        for _ in range(100):
            x = self._tiny * 1.5 + 0.1
            acc += float(np.sum(x * x)) + float(np.concatenate([x, self._tiny]).max())
        return acc

    def _dense(self) -> float:
        import numpy as np
        d = ((self._a[:, None, :] - self._b[None, :, :]) ** 2).sum(-1)
        return float((np.exp(-d) @ self._a).sum() + (self._m @ self._m).sum())

    def _memory(self) -> float:
        return float(self._stream.sum())

    def __call__(self) -> float:
        """Seconds taken by one run of the kernel."""
        start = time.perf_counter()
        self._python()
        self._tiny_arrays()
        self._dense()
        self._memory()
        return time.perf_counter() - start


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of an ascending list."""
    if not sorted_vals:
        raise ValueError("percentile of no samples")
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of samples strictly above the q-percentile's interpolation point."""
    return n - 1 - math.floor(q * (n - 1))


class InputDigest:
    """Running SHA-256 over every generated input, so two runs can show that
    they measured the same inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        import numpy as np
        for item in items:
            arr = np.ascontiguousarray(np.asarray(item))
            self._h.update(str((arr.dtype.str, arr.shape)).encode())
            self._h.update(arr.tobytes())
        return items[0] if len(items) == 1 else items

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "smoothgan").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or None


def environment(seed: int, inputs_digest: str) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "inputs_sha256": inputs_digest,
    }
