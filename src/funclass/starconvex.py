"""Star-convexity of sampled functions and of regions built from their graphs.

A grid point ``p`` is a center when, for every other grid point ``q``, the
straight segment from ``(x_p, v[p])`` to ``(x_q, v[q])`` stays on one side of
the graph: entirely on or above it (inside the epigraph) or entirely on or
below it (inside the hypograph), checked at every grid abscissa in between.
The set of all centers is the central set; it is non-empty exactly when the
function is star-convex, and it is the whole grid for convex or concave input.

Chords are decided by slope visibility.  Walking outward from ``p``, the
chord to ``q`` stays in the epigraph iff its slope is at least the largest
``(v[m] - v[p] - margin) / |m - p|`` over the points ``m`` passed so far, and
in the hypograph iff it is at most the smallest ``(v[m] - v[p] + margin) /
|m - p|``; one running maximum and one running minimum per side decide every
chord from ``p``, so a center costs O(N) and the central set O(N^2).  Slopes
round differently from the chord ordinates, so the slope test runs with a
slack a few ulps of ``2 * max|v| + margin`` smaller, and a chord it does not
pass is decided by evaluating its ordinates, as the definition reads.  A chord
that passes only over points equal to ``v[p]`` needs no such check: its
ordinates round to one side of ``v[p]``, so it is one-sided at any slack.

``classify_shape`` reads the one-sided curvature at a split point from second
differences; the four two-sided sign patterns correspond to epigraph or
hypograph regions (or split unions of both) that are star-shaped from the
graph point, which ``region_star_check`` verifies by sampling with the same
slope bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction, Tolerance

__all__ = [
    "RegionCheckReport",
    "RegionKind",
    "RegionSpec",
    "ShapeClass",
    "StarReport",
    "StarWitness",
    "central_set",
    "classify_shape",
    "is_center",
    "region_star_check",
]

# Slopes and chord ordinates round differently, each within a few ulps of
# ``2 * max|v| + margin`` at every chord point.  A chord that passes the slope
# test with this many such ulps less slack passes the ordinate test too, and
# one that fails it with as many more fails the ordinate test.
_BAND_ULPS = 16


class ShapeClass(str, enum.Enum):
    """Curvature pattern (left side, right side) around a split point.

    Linear stretches are both convex and concave; ties resolve in declaration
    order, so an affine function classifies as convex-convex.
    """

    CONVEX_CONVEX = "conv-conv"
    CONCAVE_CONCAVE = "conc-conc"
    CONVEX_CONCAVE = "conv-conc"
    CONCAVE_CONVEX = "conc-conv"
    MIXED = "mixed"


class RegionKind(str, enum.Enum):
    EPI = "epi"
    HYPO = "hypo"
    SPLIT_EPI_HYPO = "split-epi-hypo"  # epigraph left of the split, hypograph right
    SPLIT_HYPO_EPI = "split-hypo-epi"  # hypograph left of the split, epigraph right

    @property
    def is_split(self) -> bool:
        """Epigraph on one side of a split index and hypograph on the other."""
        return self in (RegionKind.SPLIT_EPI_HYPO, RegionKind.SPLIT_HYPO_EPI)


@dataclass(frozen=True)
class RegionSpec:
    """A planar region derived from the graph, bounded vertically for sampling.

    ``vertical_extent`` pads the sampled value range above and below;
    ``vertical_samples`` levels are placed across that padded range.  Split
    kinds need ``split_index``; the split column belongs to both sides.
    ``kind`` may also be given as its string value, such as ``"epi"``.
    """

    kind: RegionKind
    split_index: int | None = None
    vertical_extent: float = 1.0
    vertical_samples: int = 64

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", RegionKind(self.kind))
        except ValueError:
            kinds = ", ".join(k.value for k in RegionKind)
            raise GridError(f"unknown region kind {self.kind!r}; expected {kinds}") from None
        if self.kind.is_split and self.split_index is None:
            raise GridError(f"region kind {self.kind.value!r} requires split_index")
        if not self.vertical_extent > 0.0:
            raise GridError(f"vertical_extent must be > 0, got {self.vertical_extent!r}")
        if self.vertical_samples < 2:
            raise GridError(f"vertical_samples must be >= 2, got {self.vertical_samples!r}")


@dataclass(frozen=True)
class StarWitness:
    """A sampled region point whose segment to the center leaves the region."""

    column: int  # grid index of the sampled point
    level: float  # its ordinate
    crossing: int  # grid index where the segment exits
    segment_value: float  # segment ordinate at the crossing
    graph_value: float  # function value at the crossing

    def to_dict(self) -> dict:
        return {
            "q": self.column,
            "level": self.level,
            "m": self.crossing,
            "segment": self.segment_value,
            "f": self.graph_value,
        }


@dataclass(frozen=True)
class RegionCheckReport:
    ok: bool
    witness: StarWitness | None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class StarReport:
    centers: tuple[int, ...]
    per_center_class: dict[int, ShapeClass]
    is_star_convex: bool

    def to_dict(self) -> dict:
        return {
            "centers": list(self.centers),
            "classes": {str(p): cls.value for p, cls in self.per_center_class.items()},
            "is_star_convex": self.is_star_convex,
        }


def _rounding_band(v: np.ndarray, margin: float) -> float:
    """How far, in value units, the slope and ordinate tests may round apart."""
    scale = 2.0 * float(np.max(np.abs(v))) + margin
    return _BAND_ULPS * float(np.finfo(np.float64).eps) * scale


def _chord_bounds(
    v: np.ndarray, p: int, slack: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slope bounds for chords from ``(p, v[p])``, slopes in value per grid step.

    Returns ``rise = v - v[p]``, ``dist = |q - p|`` (1 at ``p`` so slopes stay
    finite) and per ``q`` the bounds ``lower``/``upper``: a chord towards ``q``
    with slope ``s`` stays on or above ``v - slack`` at every grid point
    strictly between iff ``s >= lower[q]``, and on or below ``v + slack`` iff
    ``s <= upper[q]`` (in exact arithmetic).  With no grid point between, the
    bounds are infinite.
    """
    dist = np.abs(np.arange(v.size, dtype=np.float64) - p)
    dist[p] = 1.0
    rise = v - v[p]
    lower = np.full(v.size, -np.inf)
    upper = np.full(v.size, np.inf)
    # right side, then left side, each as a view walking outward from p
    sides = [(a[p + 1:], a[:p][::-1]) for a in (rise, dist, lower, upper)]
    for r, d, lo, up in zip(*sides):
        np.maximum.accumulate((r[:-1] - slack) / d[:-1], out=lo[1:])
        np.minimum.accumulate((r[:-1] + slack) / d[:-1], out=up[1:])
    return rise, dist, lower, upper


def _chord_one_sided(v: np.ndarray, p: int, q: int, margin: float) -> bool:
    """The chord from ``p`` to ``q``, evaluated at every grid point between, is one-sided."""
    lo, hi = (p, q) if p < q else (q, p)
    between = np.arange(lo + 1, hi)
    t = (between - p) / (q - p)
    chord = v[p] + (v[q] - v[p]) * t
    seg = v[between]
    return bool(np.all(chord >= seg - margin)) or bool(np.all(chord <= seg + margin))


def _flat_reach(v: np.ndarray, p: int) -> tuple[int, int]:
    """The widest ``[lo, hi]`` around ``p`` whose chords from ``p`` pass only over
    grid points equal to ``v[p]``.
    """
    changes = np.flatnonzero(v != v[p])
    k = int(np.searchsorted(changes, p))
    lo = int(changes[k - 1]) if k > 0 else 0
    hi = int(changes[k]) if k < changes.size else v.size - 1
    return lo, hi


def is_center(f: GridFunction, p: int, tol: Tolerance | None = None) -> bool:
    """Is ``(x_p, v[p])`` a center: every chord one-sided against the graph?

    Chords are evaluated only at grid abscissas strictly between the endpoints,
    with a one-sided slack of ``tol.abs + tol.rel * max|v|``.  O(N) time and
    memory: one slope test per chord, and an ordinate check for the chords
    that fail it or pass it only within rounding, unless every point they pass
    over equals ``v[p]``.
    """
    tol = tol or Tolerance()
    v = f.values
    if not 0 <= p < v.size:
        raise GridError(f"center index {p} out of range [0, {v.size - 1}]")
    margin = tol.grid_slack(v)
    band = _rounding_band(v, margin)
    rise, dist, lower, upper = _chord_bounds(v, p, margin - band)
    slope = rise / dist
    # slack margin + band moves each bound term by 2 * band / |m - p| <= 2 * band,
    # so a chord this far past both bounds fails the ordinate test
    if np.any((slope < lower - 2.0 * band) & (slope > upper + 2.0 * band)):
        return False
    undecided = np.flatnonzero(~((slope >= lower) | (slope <= upper)))  # NaN: undecided
    if undecided.size:
        # Over a stretch where v equals v[p] exactly, the chord ordinates
        # v[p] + rise * t round to one side of v[p], so any slack >= 0 holds.
        lo, hi = _flat_reach(v, p)
        undecided = undecided[(undecided < lo) | (undecided > hi)]
    return all(_chord_one_sided(v, p, int(q), margin) for q in undecided)


def central_set(f: GridFunction, tol: Tolerance | None = None) -> StarReport:
    """All centers with their curvature classes (O(N^2) time, O(N) memory)."""
    tol = tol or Tolerance()
    centers = tuple(p for p in range(f.values.size) if is_center(f, p, tol))
    classes = {p: classify_shape(f, p, tol) for p in centers}
    return StarReport(
        centers=centers, per_center_class=classes, is_star_convex=bool(centers)
    )


def classify_shape(f: GridFunction, p: int, tol: Tolerance | None = None) -> ShapeClass:
    """Second-difference curvature pattern of the two sides around index ``p``.

    A side with fewer than three points constrains nothing, so it counts as
    both convex and concave and the other side decides alone.
    """
    tol = tol or Tolerance()
    v = f.values
    if not 0 <= p < v.size:
        raise GridError(f"split index {p} out of range [0, {v.size - 1}]")
    margin = tol.grid_slack(f.values)
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]  # second difference at interior index i+1
    left = d2[: max(p - 1, 0)]  # interior indices 1 .. p-1
    right = d2[p:]  # interior indices p+1 .. N-1

    def convex(side: np.ndarray) -> bool:
        return bool(np.all(side >= -margin))

    def concave(side: np.ndarray) -> bool:
        return bool(np.all(side <= margin))

    if convex(left) and convex(right):
        return ShapeClass.CONVEX_CONVEX
    if concave(left) and concave(right):
        return ShapeClass.CONCAVE_CONCAVE
    if convex(left) and concave(right):
        return ShapeClass.CONVEX_CONCAVE
    if concave(left) and convex(right):
        return ShapeClass.CONCAVE_CONVEX
    return ShapeClass.MIXED


def _column_kinds(region: RegionSpec, size: int) -> np.ndarray:
    """Per-column membership rule: +1 epigraph, -1 hypograph, 0 unconstrained."""
    kinds = np.empty(size, dtype=np.int8)
    if region.kind is RegionKind.EPI:
        kinds[:] = 1
    elif region.kind is RegionKind.HYPO:
        kinds[:] = -1
    else:
        s = region.split_index
        assert s is not None
        left, right = (1, -1) if region.kind is RegionKind.SPLIT_EPI_HYPO else (-1, 1)
        kinds[:s] = left
        kinds[s + 1:] = right
        kinds[s] = 0  # the split column lies in both sides, so any ordinate is inside
    return kinds


def region_star_check(
    f: GridFunction,
    region: RegionSpec,
    center_p: int,
    tol: Tolerance | None = None,
) -> RegionCheckReport:
    """Sampled test that the region is star-shaped from ``(x_p, v[p])``.

    Points on ``vertical_samples`` levels are taken over every grid column that
    lies inside the region; each is joined to the center and the segment's
    ordinate is checked against the membership rule at every grid column it
    crosses.  The first failing sample (column, then level, then crossing) is
    returned as witness.
    """
    tol = tol or Tolerance()
    v = f.values
    size = v.size
    if not 0 <= center_p < size:
        raise GridError(f"center index {center_p} out of range [0, {size - 1}]")
    if region.kind.is_split and region.split_index != center_p:
        raise GridError(f"split_index {region.split_index} must equal the center {center_p}")
    if region.split_index is not None and not 0 <= region.split_index < size:
        raise GridError(f"split index {region.split_index} out of range")

    margin = tol.grid_slack(f.values)
    kinds = _column_kinds(region, size)
    levels = np.linspace(
        float(np.min(v)) - region.vertical_extent,
        float(np.max(v)) + region.vertical_extent,
        region.vertical_samples,
    )
    cp = float(v[center_p])

    # The crossings of a column lie on its side of the center and share its
    # kind, and a segment's slope grows with its level: an epigraph column
    # holds iff its lowest selected level does, a hypograph column iff its
    # highest does.  Columns not surely holding get the sampled check.
    _, dist, lower, upper = _chord_bounds(v, center_p, margin - _rounding_band(v, margin))
    ordered = np.sort(levels)  # searchsorted needs ascending levels
    lowest = ordered[np.minimum(np.searchsorted(ordered, v, "left"), ordered.size - 1)]
    highest = ordered[np.maximum(np.searchsorted(ordered, v, "right") - 1, 0)]
    clear = np.where(
        kinds == 1,
        (lowest - cp) / dist >= lower,
        (kinds == -1) & ((highest - cp) / dist <= upper),
    )
    for q in np.flatnonzero(~clear):
        witness = _column_witness(v, kinds, levels, center_p, int(q), margin)
        if witness is not None:
            return RegionCheckReport(ok=False, witness=witness)
    return RegionCheckReport(ok=True, witness=None)


def _column_witness(
    v: np.ndarray, kinds: np.ndarray, levels: np.ndarray, p: int, q: int, margin: float
) -> StarWitness | None:
    """First failing sample of column ``q`` (level, then crossing), or ``None``."""
    if kinds[q] == 1:
        selected = levels[levels >= v[q]]
    elif kinds[q] == -1:
        selected = levels[levels <= v[q]]
    else:
        selected = levels
    lo, hi = (p, q) if p < q else (q, p)
    if hi - lo < 2 or selected.size == 0:
        return None
    cp = float(v[p])
    between = np.arange(lo + 1, hi)
    frac = (between - p) / (q - p)
    seg = cp + np.outer(selected - cp, frac)  # levels x crossings
    col_kinds = kinds[between]
    ok = np.where(
        col_kinds == 1,
        seg >= v[between] - margin,
        np.where(col_kinds == -1, seg <= v[between] + margin, True),
    )
    bad = np.argwhere(~ok)
    if not bad.size:
        return None
    li, mi = bad[0]
    m_idx = int(between[mi])
    return StarWitness(
        column=q,
        level=float(selected[li]),
        crossing=m_idx,
        segment_value=float(seg[li, mi]),
        graph_value=float(v[m_idx]),
    )
