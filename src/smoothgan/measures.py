"""Discrete probability and signed measures on a compact box.

Measures are finitely supported: a continuous target only ever enters as a
large equal-weight sample.  All types are immutable after construction and
every operation is pure.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionMismatch, EmptySupport, NegativeWeight, NonZeroMass,
                     PreconditionViolated, UnknownKind)

MERGE_TOL = 1e-12   # sup-norm distance below which atoms are considered equal
MASS_TOL = 1e-12


def _is_int(v, least: int) -> bool:
    """An integer (not a bool) of at least least."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be (n, d), got shape {pts.shape}")
    return pts


def _require_finite(pts: np.ndarray, w: np.ndarray) -> None:
    if not (np.isfinite(pts).all() and np.isfinite(w).all()):
        raise PreconditionViolated("atom points and weights must be finite")


def _merge_atoms(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine atoms closer than MERGE_TOL in sup-norm, adding their weights.

    weights is (n,) or (n, k), k weight vectors on the same atoms.  Each
    coordinate in turn splits every group where its sorted values jump by
    MERGE_TOL or more.  Atoms within MERGE_TOL of each other therefore share a
    group, and output atoms are at least MERGE_TOL apart; a chain of sub-MERGE_TOL
    gaps can also join atoms a few MERGE_TOL apart.  Output atoms are in
    lexicographic order, each the lexicographically first atom of its group,
    and each group's weights are summed one by one in that order.
    """
    order = np.lexsort(points.T[::-1])
    pts, w = points[order], weights[order]
    label = np.zeros(len(pts), dtype=np.intp)
    new = np.ones(len(pts), dtype=bool)
    for x in pts.T:
        o = np.lexsort((x, label))
        lab, xs = label[o], x[o]
        new[1:] = (lab[1:] != lab[:-1]) | (xs[1:] - xs[:-1] >= MERGE_TOL)
        label[o] = np.cumsum(new)
    head = np.minimum.reduceat(o, np.flatnonzero(new))    # each group's first atom
    merged = np.zeros((len(head),) + w.shape[1:])
    np.add.at(merged, label - 1, w)                         # sums in lexicographic order
    g = np.argsort(head)
    return pts[head[g]], merged[g]


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DimensionMismatch("lo and hi must be nonempty vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(lo < hi)):
            raise PreconditionViolated("box corners must be finite with lo < hi componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> bool:
        pts = _as_points(points)
        return bool(np.all(pts >= self.lo - tol) and np.all(pts <= self.hi + tol))

    @staticmethod
    def unit(dim: int) -> "BoxDomain":
        """The default domain [-1, 1]^d."""
        return BoxDomain(-np.ones(max(dim, 0)), np.ones(max(dim, 0)))   # dim < 1: empty box


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support: weighted atoms in R^d."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SignedMeasure:
    """Finite signed measure: weighted atoms with weights of any sign."""

    points: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        object.__setattr__(self, "total_mass", float(self.weights.sum()))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def is_mass_zero(self) -> bool:
        return abs(self.total_mass) <= MASS_TOL


def make_discrete(points, weights) -> DiscreteMeasure:
    """Build a probability measure: merge duplicate atoms, renormalize weights.

    Idempotent: applying it to the output's (points, weights) changes nothing.
    """
    pts = _as_points(points)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if pts.shape[0] == 0:
        raise EmptySupport("a measure needs at least one atom")
    if pts.shape[0] != w.shape[0]:
        raise DimensionMismatch(f"{pts.shape[0]} points vs {w.shape[0]} weights")
    _require_finite(pts, w)
    if np.any(w < 0):
        raise NegativeWeight("probability weights must be nonnegative")
    if w.sum() <= 0:
        raise NegativeWeight("weights must have positive total mass")
    pts, w = _merge_atoms(pts, w)
    # drop atoms whose merged weight is exactly zero, keeping at least one
    if np.any(w > 0):
        keep = w > 0
        pts, w = pts[keep], w[keep]
    # normalize after merging: weights normalized first can merge to 1 - 1 ulp,
    # which turns KL(mu, mu) negative
    return DiscreteMeasure(pts, w / w.sum())


def make_signed(points, weights) -> SignedMeasure:
    """Build a signed measure, merging coincident atoms."""
    pts = _as_points(points)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if pts.shape[0] != w.shape[0]:
        raise DimensionMismatch(f"{pts.shape[0]} points vs {w.shape[0]} weights")
    if pts.shape[0] == 0:
        return SignedMeasure(np.zeros((0, 1)), np.zeros(0))
    _require_finite(pts, w)
    pts, w = _merge_atoms(pts, w)
    return SignedMeasure(pts, w)


def diff(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SignedMeasure:
    """The signed measure mu - nu (always mass-zero)."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dim {mu.dim} vs {nu.dim}")
    pts = np.vstack([mu.points, nu.points])
    w = np.concatenate([mu.weights, -nu.weights])
    return make_signed(pts, w)


def cdf_1d(m: DiscreteMeasure | SignedMeasure, x: float) -> float:
    """Right-continuous CDF of a 1-D measure: total weight of atoms <= x."""
    if m.dim != 1:
        raise DimensionMismatch("cdf_1d requires a 1-D measure")
    return float(m.weights[m.points[:, 0] <= x].sum())


def _cdf_levels(xi: SignedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Sorted 1-D atom positions and the running CDF value on each gap."""
    x = xi.points[:, 0]
    order = np.argsort(x)
    return x[order], np.cumsum(xi.weights[order])


def sample_target(kind: str, n: int, seed: int, dim: int = 2) -> DiscreteMeasure:
    """Deterministic synthetic target measures inside the unit box.

    kind 'ring': n points on the circle of radius 0.5 centered at the origin
    (jittered angles, d = 2 only).  kind 'gaussian_mixture': clipped draws
    from 4 symmetric Gaussian bumps.  kind 'grid_uniform': the first n points
    of a regular lattice.
    """
    if not (_is_int(n, 1) and _is_int(seed, 0)):
        raise ConfigError(f"target n must be an int >= 1 and seed an int >= 0, got {n!r}, {seed!r}")
    rng = np.random.default_rng(seed)
    if kind == "ring":
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        pts = 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    elif kind == "gaussian_mixture":
        centers = 0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        if dim == 1:
            centers = np.array([[-0.5], [0.5], [-0.25], [0.25]])
        labels = rng.integers(0, len(centers), size=n)
        pts = centers[labels] + 0.1 * rng.standard_normal((n, centers.shape[1]))
        pts = np.clip(pts, -1.0, 1.0)
    elif kind == "grid_uniform":
        side = int(np.ceil(n ** (1.0 / dim)))
        axes = [np.linspace(-0.8, 0.8, side) for _ in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        pts = mesh[:n]
    else:
        raise UnknownKind(f"unknown target kind {kind!r}")
    return make_discrete(pts, np.full(len(pts), 1.0 / len(pts)))


def random_measure(rng: np.random.Generator, dim: int, domain: BoxDomain | None = None,
                   min_atoms: int = 2, max_atoms: int = 8) -> DiscreteMeasure:
    """Random test measure: k ~ U{min..max} atoms uniform in the box, Dirichlet weights."""
    box = domain if domain is not None else BoxDomain.unit(dim)
    k = int(rng.integers(min_atoms, max_atoms + 1))
    pts = rng.uniform(box.lo, box.hi, size=(k, dim))
    w = rng.dirichlet(np.ones(k))
    return make_discrete(pts, w)


# --- CSV interchange: one row per atom, header x_1..x_d,w ---

def measure_to_csv(m: DiscreteMeasure | SignedMeasure) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x_{i + 1}" for i in range(m.dim)] + ["w"])
    for p, w in zip(m.points, m.weights):
        writer.writerow([f"{v:.15g}" for v in p] + [f"{w:.15g}"])
    return buf.getvalue()


def measure_from_csv(text: str, signed: bool = False) -> DiscreteMeasure | SignedMeasure:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0] or not rows[0][-1].strip().lower() == "w":
        raise ConfigError("measure CSV must carry a header row ending in 'w'")
    try:
        data = [[float(v) for v in row] for row in rows[1:] if row]
        arr = np.array(data)
    except ValueError as exc:
        raise ConfigError(f"measure CSV rows must be equal-length numbers: {exc}") from exc
    if not data:
        raise EmptySupport("measure CSV has no atom rows")
    pts, w = arr[:, :-1], arr[:, -1]
    return make_signed(pts, w) if signed else make_discrete(pts, w)


def require_mass_zero(xi: SignedMeasure) -> None:
    if not xi.is_mass_zero:
        raise NonZeroMass(f"signed measure has total mass {xi.total_mass:g}")
