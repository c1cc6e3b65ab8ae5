"""Discrete measures on a compact box: probability measures and signed ones.

Measures are finitely supported: a continuous target only ever enters as a
large equal-weight sample.  One type, DiscreteMeasure, holds every weighted
set of atoms.  pack_measures is the one measure builder: it refuses and
normalizes many measures of either kind at once, as padded arrays, and
make_discrete (a probability measure) and make_signed (a signed one) are its
one-row calls; diff builds a signed measure through make_signed.  The builder
and _cdf_sweep, the running CDF of 1-D signed atoms, merge through one kernel.
All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionMismatch, EmptySupport, NegativeWeight, NonZeroMass,
                     PreconditionViolated, SmoothganError, UnknownKind, need_count, refuse_over)

MERGE_TOL = 1e-12   # sup-norm distance below which atoms are considered equal
MASS_TOL = 1e-12
# largest atom coordinate: past ~1.3e154 the kernel Gram's ||x||^2 + ||y||^2 - 2 x.y
# overflows to inf - inf
COORD_MAX = 1e150
Packed = tuple[np.ndarray, np.ndarray, np.ndarray]      # atoms, weights, counts: pack_measures


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """A query as an (n, dim) batch, and whether it was one point of shape (dim,).

    Every oracle reads a query this way; any other shape raises DimensionMismatch.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise DimensionMismatch(f"a query is a point of shape ({dim},) or a batch of shape "
                                f"(n, {dim}), got {pts.shape}")
    return (pts[None, :], True) if pts.ndim == 1 else (pts, False)


def _merge_atoms(points: np.ndarray, weights: np.ndarray, rows: np.ndarray | None = None):
    """Combine atoms closer than MERGE_TOL in sup-norm, adding their weights.

    weights is (n,) or (n, k), k weight vectors on the same atoms.  Each
    coordinate in turn splits every group where its sorted values jump by
    MERGE_TOL or more.  Atoms within MERGE_TOL of each other therefore share a
    group, and output atoms are at least MERGE_TOL apart; a chain of sub-MERGE_TOL
    gaps can also join atoms a few MERGE_TOL apart.  Output atoms are in
    lexicographic order, each the lexicographically first atom of its group,
    and each group's weights are summed one by one in that order.  Row labels (n,), if given,
    lead the sort and split groups, so each row merges alone; the output's rows come third.

    The first coordinate is already sorted by the lexicographic order, so it
    splits without a second sort.  When that leaves every atom alone in its
    group, the sorted atoms return at once with weights + 0.0: the same bits
    as summing one-atom groups from zero, which also turns -0.0 into +0.0.
    """
    order = np.lexsort(points.T[::-1] if rows is None else (*points.T[::-1], rows))
    pts, w, r = points[order], weights[order], None if rows is None else rows[order]
    x = pts[:, 0]
    new = np.empty(len(pts), dtype=bool)
    new[:1] = True
    np.greater_equal(x[1:] - x[:-1], MERGE_TOL, out=new[1:])
    if r is not None:
        new[1:] |= r[1:] != r[:-1]
    if new.all():
        head, w = slice(None), w + 0.0
    else:
        label = np.cumsum(new)
        o = np.arange(len(pts))
        for x in pts.T[1:]:
            o = np.lexsort((x, label))
            lab, xs = label[o], x[o]
            new[1:] = (lab[1:] != lab[:-1]) | (xs[1:] - xs[:-1] >= MERGE_TOL)
            label[o] = np.cumsum(new)
        head = np.minimum.reduceat(o, np.flatnonzero(new))    # each group's first atom
        merged = np.zeros((len(head),) + w.shape[1:])
        np.add.at(merged, label - 1, w)                         # sums in lexicographic order
        g = np.argsort(head)
        head, w = head[g], merged[g]
    return (pts[head], w) if r is None else (pts[head], w, r[head])


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

    @staticmethod
    def unit(dim: int) -> "BoxDomain":
        """The default domain [-1, 1]^d."""
        need_count(dim, "dim", 1, DimensionMismatch)
        return BoxDomain(-np.ones(dim), np.ones(dim))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: weighted atoms in R^d.

    make_discrete builds a probability measure (positive weights summing to 1);
    make_signed and diff build signed ones (weights of any sign).  Its arrays are
    read-only from construction (a view is copied first: its base could still be
    written), so a value computed from them may be kept with the measure: _self_terms
    holds w' K(y, y) w per kernel, which divergences.mmd_sq alone reads and writes.  It
    takes no part in construction, repr or comparison, and a new measure,
    dataclasses.replace included, starts with it empty.
    """

    points: np.ndarray
    weights: np.ndarray
    _self_terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("points", "weights"):
            a = getattr(self, name)
            if a.base is not None:
                a = a.copy()
                object.__setattr__(self, name, a)
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def as_row(self) -> Packed:
        """The measure as one row packed as pack_measures packs rows, with no padding."""
        return self.points[None], self.weights[None], np.array([self.n_atoms])


def _require_coords(pts: np.ndarray, what: str) -> None:
    """Every coordinate of pts at most COORD_MAX in magnitude (NaN fails the test too)."""
    if not np.abs(pts).max(initial=0.0) <= COORD_MAX:
        raise PreconditionViolated(f"{what} must be finite and at most {COORD_MAX:g} in magnitude")


def _atoms(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """The one atom parser: (n, d) points (a vector is n 1-D points) and (n,) weights,
    every coordinate within COORD_MAX and every weight finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise DimensionMismatch(f"points must be (n, d) with d >= 1, got shape {pts.shape}")
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (pts.shape[0],):
        raise DimensionMismatch(f"{pts.shape[0]} points vs weights of shape {w.shape}")
    _require_coords(pts, "atom coordinates")
    if not np.isfinite(w).all():
        raise PreconditionViolated("atom weights must be finite")
    return pts, w


def _require_same_dim(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dim {mu.dim} vs {nu.dim}")


def make_discrete(points, weights) -> DiscreteMeasure:
    """Build a probability measure: pack_measures of one row, as a DiscreteMeasure.

    Idempotent: applying it to the output's (points, weights) changes nothing.
    """
    pts, w, _ = pack_measures(points, weights, np.zeros(np.size(weights), dtype=int), 1)
    return DiscreteMeasure(pts[0], w[0])


def make_signed(points, weights) -> DiscreteMeasure:
    """Build a signed measure (weights of any sign): pack_measures of one signed row."""
    pts, w, _ = pack_measures(points, weights, np.zeros(np.size(weights), dtype=int), 1, True)
    return DiscreteMeasure(pts[0], w[0])


def diff(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """The signed measure mu - nu (always mass-zero)."""
    _require_same_dim(mu, nu)
    pts = np.concatenate([mu.points, nu.points])
    w = np.concatenate([mu.weights, -nu.weights])
    return make_signed(pts, w)


def sample_target(kind: str, n: int, seed: int) -> DiscreteMeasure:
    """Deterministic synthetic 2-D target measures inside the unit box.

    kind 'ring': n points on the circle of radius 0.5 centered at the origin
    (jittered angles).  kind 'gaussian_mixture': clipped draws from 4
    symmetric Gaussian bumps.  kind 'grid_uniform': the first n points of a
    regular lattice.  More than CELL_CAP coordinates raise ProblemTooLarge
    before any point is drawn.
    """
    need_count(n, "target n", 1, ConfigError)
    need_count(seed, "target seed", 0, ConfigError)
    refuse_over(2 * n, "target coordinates")
    rng = np.random.default_rng(seed)
    if kind == "ring":
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        pts = 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    elif kind == "gaussian_mixture":
        centers = 0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        labels = rng.integers(0, len(centers), size=n)
        pts = centers[labels] + 0.1 * rng.standard_normal((n, 2))
        pts = np.clip(pts, -1.0, 1.0)
    elif kind == "grid_uniform":
        axis = np.linspace(-0.8, 0.8, int(np.ceil(n ** 0.5)))
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)[:n]
    else:
        raise UnknownKind(f"unknown target kind {kind!r}")
    return make_discrete(pts, np.full(len(pts), 1.0 / len(pts)))


def random_atoms(rng: np.random.Generator, dim: int,
                 domain: BoxDomain | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one random draw of a test measure: k ~ U{2..8} atoms uniform in the box
    (the unit box by default), Dirichlet(1,..,1) weights, as raw (k, dim) and (k,) arrays."""
    box = domain if domain is not None else BoxDomain.unit(dim)
    if box.dim != dim:
        raise DimensionMismatch(f"a {dim}-D measure cannot be drawn in a {box.dim}-D domain")
    k = int(rng.integers(2, 9))
    # rng.uniform(box.lo, box.hi) and rng.dirichlet(ones(k)) without their argument checks:
    # the same draws, as gamma(1) is an exponential and dirichlet sums in order
    pts = box.lo + (box.hi - box.lo) * rng.random((k, dim))
    e = rng.standard_exponential(k)
    total = 0.0
    for v in e.tolist():    # in order: e.sum() pairs from 8 terms; sum() compensates from 3.12
        total += v
    return pts, e * (1.0 / total)


def random_measure(rng: np.random.Generator, dim: int,
                   domain: BoxDomain | None = None) -> DiscreteMeasure:
    """Random test measure: make_discrete of one random_atoms draw."""
    return make_discrete(*random_atoms(rng, dim, domain))


def pack_measures(points: np.ndarray, weights: np.ndarray, rows: np.ndarray, n_rows: int,
                  signed: bool = False) -> Packed:
    """The one measure builder: many measures at once as plain arrays, row r of the atoms
    points[rows == r] with weights weights[rows == r].  make_discrete and make_signed (signed
    True) are its one-row calls.

    Every measure has at least one atom, read by _atoms, and atoms closer than MERGE_TOL
    merge by _merge_atoms into weights that must be finite.  A probability row also needs
    nonnegative weights of positive total mass; it drops atoms of merged weight 0 and is
    divided by its total after merging, which must be finite too.

    Returns atoms (n_rows, width, d), weights (n_rows, width) and atom counts (n_rows,).  Each
    row's atoms come first, in lexicographic order, then padding of weight 0 placed at the
    largest coordinate of any input atom.
    """
    points, weights = _atoms(points, weights)
    if not np.bincount(rows, minlength=n_rows).all():
        raise EmptySupport("every measure needs at least one atom")
    if not signed and ((weights < 0).any() or not np.bincount(rows, weights, n_rows).all()):
        raise NegativeWeight("probability weights must be nonnegative with positive total mass")
    with np.errstate(over="ignore"):        # a sum that overflows is refused below, unwarned
        pts, w, r = _merge_atoms(points, weights, rows)
        if not signed and not w.all():                  # drop atoms of merged weight 0
            pts, w, r = pts[w > 0], w[w > 0], r[w > 0]
        n = np.bincount(r, minlength=n_rows)
        start = np.cumsum(n) - n
        # a signed row's merged weights, or each probability row's total by its own sum:
        # numpy sums a zero-padded row in another order
        sums = w if signed else np.array([w[s:s + k].sum()
                                          for s, k in zip(start.tolist(), n.tolist())])
    if not np.isfinite(sums).all():
        raise PreconditionViolated("atom weights must have a finite total, per merged atom "
                                   "and per probability measure")
    if not signed:
        # normalize after merging: weights normalized first can merge to 1 - 1 ulp,
        # which turns KL(mu, mu) negative
        w = w / np.repeat(sums, n)
    col = np.arange(len(r)) - start[r]
    out_p = np.empty((n_rows, n.max(), points.shape[1]))
    out_p[:] = points.max(axis=0)
    out_p[r, col] = pts
    out_w = np.zeros(out_p.shape[:2])
    out_w[r, col] = w
    return out_p, out_w, n


def _cdf_sweep(points: np.ndarray, weights: np.ndarray, rows: np.ndarray | None = None,
               n_rows: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one CDF sweep of 1-D signed atoms, merged: breaks (R, B) in order, the running
    sum of the weights after each (the CDF on the gap right of it) and break counts (R,).
    Row labels (n,), if given, sweep n_rows measures at once, padded as pack_measures pads
    them, which moves no running sum; without them the atoms are one unpadded row."""
    if rows is None:
        x, w = _merge_atoms(points, weights)
        return x.T, np.cumsum(w)[None], np.array([len(w)])
    x, w, n = pack_measures(points, weights, rows, n_rows, signed=True)
    return x[..., 0], np.cumsum(w, axis=-1), n


def _real(m: Packed) -> np.ndarray:
    """Which atom slots of each packed row are atoms, not padding."""
    return np.arange(m[1].shape[1]) < m[2][:, None]


# --- CSV: the one codec for every table the package reads or writes ---

def fmt_number(v) -> str:
    """A number as every output writes it: 15 significant digits, inf by name."""
    return f"{v:.15g}"


def table_to_csv(header: list[str], rows) -> str:
    """A header line, then one line per row: numbers through fmt_number, text as given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([c if isinstance(c, str) else fmt_number(c) for c in row] for row in rows)
    return buf.getvalue()


def table_from_csv(text: str, words: dict[str, tuple[str, ...]] | None = None,
                   error: type[SmoothganError] = ConfigError) -> tuple[list[str], np.ndarray]:
    """The header row and an (n, width) array of the nonblank rows below it.

    There must be at least one such row, each as wide as the header and every
    cell a number; a column named in words may also hold one of its words,
    read as the word's index.  Anything else raises error.
    """
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:                   # a field over csv's size limit
        raise error(f"unreadable CSV: {exc}") from exc
    if len(rows) < 2:
        raise error("CSV needs a header row and at least one data row")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise error(f"CSV data row {i + 1} has {len(row)} cells but the header has "
                        f"{len(header)}")
    table = np.empty((len(body), len(header)))
    for j, name in enumerate(header):
        vocab = (words or {}).get(name, ())
        try:
            table[:, j] = [vocab.index(r[j]) if r[j] in vocab else float(r[j]) for r in body]
        except ValueError as exc:
            raise error(f"CSV column {name!r} must hold numbers: {exc}") from exc
    return header, table


# measures: one row per atom, header x_1..x_d,w

def measure_to_csv(m: DiscreteMeasure) -> str:
    return table_to_csv([f"x_{i + 1}" for i in range(m.dim)] + ["w"],
                        np.column_stack([m.points, m.weights]).tolist())


def measure_from_csv(text: str, signed: bool = False) -> DiscreteMeasure:
    header, table = table_from_csv(text)
    if len(header) < 2 or header[-1].strip().lower() != "w":
        raise ConfigError("measure CSV needs a header row of coordinates ending in 'w'")
    pts, w = table[:, :-1], table[:, -1]
    return make_signed(pts, w) if signed else make_discrete(pts, w)


def require_mass_zero(xi: DiscreteMeasure) -> None:
    mass = float(xi.weights.sum())
    if not abs(mass) <= MASS_TOL:
        raise NonZeroMass(f"signed measure has total mass {mass:g}")
