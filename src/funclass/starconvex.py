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
Where a difference of two values could overflow, both tests run on the values
and the margin at quarter scale, an exact power of two.  ``_centers`` decides
``is_center`` (one row) and ``central_set`` (every row) alike: the slope test
for blocks of consecutive centers at once, over strided views of padded
copies of ``v``, then the ordinate check of the chords it leaves undecided.

``region_star_check`` samples points of an epigraph or hypograph region (or
of a split union of both, its side given by ``RegionKind.sides``) and joins
each to the center ``(x_p, v[p])``.  The same slope bounds clear a whole
column at once, and a column they do not clear goes through the same ordinate
check as a chord: one segment test, the paper's ``t(x, f(x)) + (1 - t)(p, f(p))``
in the epigraph or hypograph, serves both.  ``classify_shape`` reads the
one-sided curvature at a split point from second differences.  One table of
(left, right) signs gives the four shape classes and the four region kinds,
and one side test decides both a crossing and a second difference.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction, Tolerance, _strided_rows

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
_EPS = 2.0**-52  # double-precision machine epsilon

# Consecutive candidate centers that central_set decides in one block.  Each
# block costs a fixed number of numpy calls, which four rows share; the block's
# temporaries hold about four rows of N.
CENTER_BLOCK = 4


# The (left, right) sides of a center: +1 convex or epigraph, -1 concave or
# hypograph.  ShapeClass and RegionKind list their members in this order.
_SIDES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def _scale_for(*magnitudes: float) -> float:
    """1, or 1/4 where four times the largest magnitude overflows.

    Differences of values, a margin and chord ordinates built from them stay
    below four times the largest; quarter scale keeps them finite and is exact
    for every value from 2^-1020 up, so no comparison changes.
    """
    return 1.0 if math.isfinite(4.0 * max(magnitudes)) else 0.25


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
    def sides(self) -> tuple[int, int]:
        """Membership rule (left, right) of the center: +1 epigraph, -1 hypograph."""
        return _REGION_SIDES[self]

    @property
    def is_split(self) -> bool:
        """Epigraph on one side of a split index and hypograph on the other."""
        left, right = self.sides
        return left != right


_REGION_SIDES = dict(zip(RegionKind, _SIDES))

# Levels a RegionSpec may place per column.  A column's ordinate check holds
# one segment per level and crossing, so this bounds it at 32 KiB per crossing.
MAX_VERTICAL_SAMPLES = 1 << 12


def _integer(value: object, name: str) -> int:
    """``value`` as an ``int``; a bool, float or other non-integer is a ``GridError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise GridError(f"{name} must be an integer, got {value!r}") from None


def _index(value: object, name: str, size: int) -> int:
    """``value`` as a grid index in ``[0, size)``, else a ``GridError``."""
    p = _integer(value, name)
    if not 0 <= p < size:
        raise GridError(f"{name} {p} out of range [0, {size - 1}]")
    return p


def _real(value: object, name: str) -> float:
    """``value`` as a ``float``; a bool or other non-real value is a ``GridError``.

    A real past the float range, such as ``10**400``, becomes an infinity.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise GridError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class RegionSpec:
    """A planar region derived from the graph, bounded vertically for sampling.

    ``vertical_extent``, a positive finite real kept as a float, pads the
    sampled value range above and below;
    ``vertical_samples`` levels, an integer from 2 to ``MAX_VERTICAL_SAMPLES``,
    are placed across that padded range.  Split kinds need ``split_index``; the
    split column belongs to both sides.
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
        if self.split_index is not None:
            object.__setattr__(self, "split_index", _integer(self.split_index, "split_index"))
        extent = _real(self.vertical_extent, "vertical_extent")
        if not extent > 0.0:
            raise GridError(f"vertical_extent must be > 0, got {self.vertical_extent!r}")
        if not math.isfinite(extent):
            raise GridError(f"vertical_extent must be finite, got {self.vertical_extent!r}")
        object.__setattr__(self, "vertical_extent", extent)
        samples = _integer(self.vertical_samples, "vertical_samples")
        if samples < 2:
            raise GridError(f"vertical_samples must be >= 2, got {samples!r}")
        if samples > MAX_VERTICAL_SAMPLES:
            raise GridError(f"vertical_samples must be <= {MAX_VERTICAL_SAMPLES}, got {samples!r}")
        object.__setattr__(self, "vertical_samples", samples)


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


def _rounding_band(margin: float, top: float) -> float:
    """How far slopes and chord ordinates may round apart, for ``max|v| = top``."""
    # the ulps of 2 * max|v| + margin, taken at half scale so they stay finite
    half = top + 0.5 * margin
    return 2.0 * (_BAND_ULPS * _EPS * half)


def _side_bounds(
    rise: np.ndarray, steps: np.ndarray, slack: float, lower: np.ndarray, upper: np.ndarray
) -> None:
    """Slope bounds along rows of points that walk outward from their centers.

    ``rise[..., k]`` is ``v[m] - v[p]`` for the row's center ``p`` and the
    point ``m`` that lies ``steps[k] = k + 1`` grid steps from it on one side;
    a single row may be 1-D.  Writes the largest ``(rise[..., j] - slack) /
    steps[j]`` over ``j <= k`` into ``lower[..., k]`` and the smallest
    ``(rise[..., j] + slack) / steps[j]`` into ``upper[..., k]``: the bounds of
    the chord that passes over those points and ends ``k + 2`` steps from ``p``.
    """
    np.maximum.accumulate((rise - slack) / steps, -1, out=lower)
    np.minimum.accumulate((rise + slack) / steps, -1, out=upper)


def _chord_bounds(
    v: np.ndarray, p: int, margin: float, top: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope bounds for chords from ``(p, v[p])``, slopes in value per grid step.

    ``top`` is ``max|v|``.  Returns ``dist = |q - p|`` (1 at ``p`` so slopes
    stay finite) and the per-``q`` bounds ``lower``/``upper``.  With ``slack =
    margin - band``, ``band`` how far slopes and chord ordinates may round
    apart, a chord towards ``q`` with slope ``s`` stays on or above
    ``v - slack`` at every grid point strictly between iff ``s >= lower[q]``,
    and on or below ``v + slack`` iff ``s <= upper[q]`` (in exact
    arithmetic).  With no grid point between, the bounds are infinite.
    """
    band = _rounding_band(margin, top)
    dist = np.abs(np.arange(v.size, dtype=np.float64) - p)
    dist[p] = 1.0
    rise = v - v[p]
    lower = np.full(v.size, -np.inf)
    upper = np.full(v.size, np.inf)
    # right side, then left side, each as a one-row view walking outward from p:
    # the points passed over, and the chord ends one step further out
    sides = [(a[p + 1:], a[:p][::-1]) for a in (rise, dist, lower, upper)]
    for r, d, lo, up in zip(*sides):
        _side_bounds(r[:-1], d[:-1], margin - band, lo[1:], up[1:])
    return dist, lower, upper


def _on_side(a: np.ndarray, b: np.ndarray | float, sign: int, margin: float) -> np.ndarray:
    """Side test: ``a >= b - margin`` for sign +1, ``a <= b + margin`` for -1."""
    return a >= b - margin if sign > 0 else a <= b + margin


def _first_exit(
    v: np.ndarray, p: int, q: int, ends: np.ndarray, sign: int, margin: float
) -> StarWitness | None:
    """First segment from ``(p, v[p])`` to ``(q, ends[k])`` that leaves the
    epigraph (``sign`` +1) or hypograph (-1) at a grid point strictly between,
    by end, then crossing; ``None`` if every segment stays inside.
    """
    cp = v[p]
    between = np.arange(min(p, q) + 1, max(p, q))
    frac = (between - p) / (q - p)
    seg = cp + np.outer(ends - cp, frac)  # ends x crossings
    bad = np.argwhere(~_on_side(seg, v[between], sign, margin))
    if not bad.size:
        return None
    k, i = bad[0]
    m = int(between[i])
    return StarWitness(q, float(ends[k]), m, float(seg[k, i]), float(v[m]))


def _centers(f: GridFunction, tol: Tolerance, first: int, stop: int) -> list[int]:
    """The centers among grid indices ``first .. stop - 1``.

    Candidate centers are taken in blocks of ``CENTER_BLOCK`` consecutive
    indices.  Each side of a block is one strided view: row ``r`` holds the
    values outward from center ``p0 + r``, read from a copy of ``v`` padded
    with ``+inf`` on the right and from a reversed padded copy on the left,
    cropped to the block's reach.  The slope bounds are ``_side_bounds``'
    running maximum and minimum, which are exact, so every bound has the
    bits it would have for that center alone; a ``+inf`` pad always passes
    the slope test and never surely fails.  A row with a sure fail is not a
    center, and a row with no undecided chord is one.  The rest, near ties
    and flat stretches, are settled by ``_settled`` on the chords their
    ``open_`` masks leave undecided.
    """
    v = f.values
    n = v.size
    margin = tol.grid_slack(v)
    top = float(np.abs(v).max())
    scale = _scale_for(top, margin)
    if scale != 1.0:
        v, margin, top = scale * v, scale * margin, scale * top
    band = _rounding_band(margin, top)
    slack = margin - band
    rows = min(CENTER_BLOCK, stop - first)
    pads = np.full(rows - 1, np.inf)  # the rows past a side's end read these
    right = np.concatenate((v, pads))  # right[q] = v[q]
    left = np.concatenate((v[::-1], pads))  # left[n - 1 - q] = v[q]
    steps = np.arange(1.0, n)
    # rise to the points passed, lower, upper and the chords' slopes, reused by every block
    work = np.empty((4, rows * (n - 1)))
    centers = []
    for p0 in range(first, stop, rows):
        b = min(rows, stop - p0)
        fails = np.zeros(b, dtype=bool)
        undecided = np.zeros(b, dtype=bool)
        opens = []  # each side's direction and undecided chords
        # Row r's point k + 1 steps out is right[p0 + r + 1 + k] = v[p0 + r + 1 + k]
        # and left[n - p0 - r + k] = v[p0 + r - 1 - k].  Only chords ending 2 or
        # more steps out pass over a grid point.  The longer side goes first: once
        # every row has a sure fail, the other side cannot change a verdict.
        sides = sorted(((right, p0 + 1, 1, n - 1 - p0), (left, n - p0, -1, p0 + b - 1)),
                       key=lambda side: side[3], reverse=True)
        center = v[p0:p0 + b, None]
        for table, start, step, reach in sides:
            cols = reach - 1
            if cols <= 0 or fails.all():
                continue
            rise, lower, upper, slope = (w[:b * cols].reshape(b, cols) for w in work)
            np.subtract(_strided_rows(table, start, step, b, cols), center, out=rise)
            _side_bounds(rise, steps[:cols], slack, lower, upper)
            np.subtract(_strided_rows(table, start + 1, step, b, cols), center, out=slope)
            np.divide(slope, steps[1:reach], out=slope)
            # slack margin + band moves each bound term by 2 * band / |m - p| <= 2 * band,
            # so a chord this far past both bounds fails the ordinate test
            fails |= ((slope < lower - 2.0 * band) & (slope > upper + 2.0 * band)).any(axis=1)
            open_ = ~((slope >= lower) | (slope <= upper))  # NaN: undecided
            undecided |= open_.any(axis=1)
            opens.append((step, open_))
        centers += [
            p0 + r for r in range(b)
            if not fails[r] and (not undecided[r] or _settled(
                v, p0 + r, [(step, open_[r]) for step, open_ in opens], margin))
        ]
    return centers


def _settled(
    v: np.ndarray, p: int, opens: list[tuple[int, np.ndarray]], margin: float
) -> bool:
    """Are the chords from ``(p, v[p])`` that the slope test leaves undecided one-sided?

    ``opens`` holds, per side, its direction (+1 right, -1 left) and the mask
    of its undecided chords, the ``k``-th ending ``k + 2`` steps out.  Over a
    stretch where ``v`` equals ``v[p]`` exactly, the chord ordinates
    ``v[p] + rise * t`` round to one side of ``v[p]``, so any slack ``>= 0``
    holds; the other chords get the ordinate check.
    """
    ends = np.concatenate([p + step * (2 + np.flatnonzero(mask)) for step, mask in opens])
    changes = np.flatnonzero(v != v[p])  # chords up to the nearest of these pass over v[p] alone
    k = int(np.searchsorted(changes, p))
    lo = changes[k - 1] if k > 0 else 0
    hi = changes[k] if k < changes.size else v.size - 1
    return all(
        _first_exit(v, p, q, v[q:q + 1], 1, margin) is None
        or _first_exit(v, p, q, v[q:q + 1], -1, margin) is None
        for q in map(int, ends[(ends < lo) | (ends > hi)])
    )


def is_center(f: GridFunction, p: int, tol: Tolerance = Tolerance()) -> bool:
    """Is ``(x_p, v[p])`` a center: every chord one-sided against the graph?

    Chords are evaluated only at grid abscissas strictly between the endpoints,
    with a one-sided slack of ``tol.abs + tol.rel * max|v|``.  O(N) time and
    memory: ``central_set``'s test on the single row ``p``, one slope test per
    chord and an ordinate check for the chords that fail it or pass it only
    within rounding, unless every point they pass over equals ``v[p]``.
    """
    p = _index(p, "center index", f.values.size)
    return bool(_centers(f, tol, p, p + 1))


def central_set(f: GridFunction, tol: Tolerance = Tolerance()) -> StarReport:
    """All centers with their curvature classes (O(N^2) time, O(N) memory).

    Every center is decided by the test ``is_center`` runs on one row, here
    for blocks of ``CENTER_BLOCK`` consecutive candidates at once (see
    ``_centers``).
    """
    centers = tuple(_centers(f, tol, 0, f.values.size))
    classes = dict(zip(centers, _shape_classes(f, centers, tol)))
    return StarReport(
        centers=centers, per_center_class=classes, is_star_convex=bool(centers)
    )


def classify_shape(f: GridFunction, p: int, tol: Tolerance = Tolerance()) -> ShapeClass:
    """Second-difference curvature pattern of the two sides around index ``p``.

    A side with fewer than three points constrains nothing, so it counts as
    both convex and concave and the other side decides alone.
    """
    return _shape_classes(f, (_index(p, "split index", f.values.size),), tol)[0]


def _shape_classes(f: GridFunction, points: tuple[int, ...], tol: Tolerance) -> list[ShapeClass]:
    """``classify_shape`` at each of ``points``, from one pass over the grid.

    The left side of ``p`` holds the second differences at interior indices
    1 .. p-1, the right side those at p+1 .. N-1.  A side has a sign iff none
    of its second differences lies on the wrong side, so the first and the
    last wrong one per sign decide every point.
    """
    v = f.values
    margin = tol.grid_slack(v)
    scale = _scale_for(float(np.max(np.abs(v))))  # |second difference| <= 4 max|v|
    d2 = scale * v[2:] - 2.0 * scale * v[1:-1] + scale * v[:-2]  # at interior index i+1
    wrong = {sign: np.flatnonzero(~_on_side(d2, 0.0, sign, scale * margin)) for sign in (1, -1)}
    first = {sign: int(w[0]) if w.size else d2.size for sign, w in wrong.items()}
    last = {sign: int(w[-1]) if w.size else -1 for sign, w in wrong.items()}
    return [
        next(
            (shape for shape, (left, right) in zip(ShapeClass, _SIDES)
             if max(p - 1, 0) <= first[left] and last[right] < p),
            ShapeClass.MIXED,
        )
        for p in points
    ]


def region_star_check(
    f: GridFunction,
    region: RegionSpec,
    center_p: int,
    tol: Tolerance = Tolerance(),
) -> RegionCheckReport:
    """Sampled test that the region is star-shaped from ``(x_p, v[p])``.

    Points on ``vertical_samples`` levels are taken over every grid column that
    lies inside the region; each is joined to the center and the segment's
    ordinate is checked against the membership rule at every grid column it
    crosses.  The first failing sample (column, then level, then crossing) is
    returned as witness.
    """
    v = f.values
    size = v.size
    center_p = _index(center_p, "center index", size)
    if region.kind.is_split and region.split_index != center_p:
        raise GridError(f"split_index {region.split_index} must equal the center {center_p}")
    if region.split_index is not None and not 0 <= region.split_index < size:
        raise GridError(f"split index {region.split_index} out of range")

    margin = tol.grid_slack(f.values)
    left, right = region.kind.sides
    lo = float(np.min(v)) - region.vertical_extent
    hi = float(np.max(v)) + region.vertical_extent
    if not (math.isfinite(lo) and math.isfinite(hi)):  # the levels would be NaN
        raise GridError(
            f"vertical_extent {region.vertical_extent!r} takes the sampled levels "
            "past the float range on this grid"
        )
    scale = _scale_for(abs(lo), abs(hi), margin)  # both bound max|v|
    if scale != 1.0:
        v, margin = scale * v, scale * margin
    levels = np.linspace(scale * lo, scale * hi, region.vertical_samples)
    cp = v[center_p]

    # The crossings of a column lie on its side of the center and share its
    # sign, and a segment's slope grows with its level: an epigraph column
    # holds iff its lowest selected level does, a hypograph column iff its
    # highest does.  Columns not surely holding get the sampled check.
    dist, lower, upper = _chord_bounds(v, center_p, margin, float(np.abs(v).max()))
    ordered = np.sort(levels)  # searchsorted needs ascending levels
    lowest = ordered[np.minimum(np.searchsorted(ordered, v, "left"), ordered.size - 1)]
    highest = ordered[np.maximum(np.searchsorted(ordered, v, "right") - 1, 0)]
    clear = {1: (lowest - cp) / dist >= lower, -1: (highest - cp) / dist <= upper}
    columns = np.concatenate((clear[left][:center_p], clear[right][center_p:]))
    for q in map(int, np.flatnonzero(~columns)):
        sign = left if q < center_p else right
        ends = levels[_on_side(levels, v[q], sign, 0.0)]
        w = _first_exit(v, center_p, q, ends, sign, margin)
        if w is not None:
            witness = StarWitness(
                q, w.level / scale, w.crossing, w.segment_value / scale, w.graph_value / scale
            )
            return RegionCheckReport(ok=False, witness=witness)
    return RegionCheckReport(ok=True, witness=None)
