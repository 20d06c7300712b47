"""Brute-force ground truth for tests: slow, obvious, production code never calls it.

``minorant_bruteforce`` enumerates every ordered partition of an index into
positive parts and folds the values left to right, which is exactly the set of
sums the min-plus recurrence minimizes over, so the two agree bit for bit.
The size cap keeps the exponential enumeration honest.
``minorant_recurrence`` is the plain per-sample loop of that recurrence, one
numpy sum and one ``np.min`` per index, with no size cap: the blocked
``subadd.subadditive_minorant`` must match it bit for bit.

``pair_scan_bruteforce`` is the scalar double loop behind every
subadditivity-family pair scan: one ``ratio_coefficient`` and one
``Tolerance.leq`` per pair, so the blocked kernel must match it bit for bit.
``minimal_order_bruteforce`` runs that loop at every order from 1 upwards.
``periodic_witnesses_bruteforce`` rescans the suffix of every index with
scalar comparisons and one ``Tolerance.leq``, the reference for the
vectorised periodic witnesses.

``read_csv_rows`` reads a CSV file one line at a time, the reference for
the block parser of ``grid.read_csv``: the same rows, bit for bit, and the
same ``GridError`` text for the first bad line.  ``write_columns_repr``
writes each cell as its ``repr``, joined by ``,`` and ``\n``: the reference
that ``grid.write_csv`` and every ``--plot-csv`` file must match byte for
byte.

``is_center_bruteforce`` and ``region_star_check_bruteforce`` evaluate every
chord (and every sampled segment) at every grid point it crosses: the cubic
transcription of the definitions that the slope-visibility test in
``starconvex`` must match verdict for verdict and witness for witness.  Where
four times the largest magnitude overflows, they evaluate chords and the
margin at quarter scale, an exact power of two, so a chord from ``-1e308`` to
``1e308`` is not an infinite ordinate that passes every test.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .grid import GridError, GridFunction, Tolerance, Witness, _grid_from_rows, _read_text, sample
from .periodic import PeriodSpec
from .starconvex import RegionCheckReport, RegionKind, RegionSpec, StarWitness
from .subadd import ratio_coefficient

__all__ = [
    "center_check_hires",
    "is_center_bruteforce",
    "minimal_order_bruteforce",
    "minorant_bruteforce",
    "minorant_recurrence",
    "pair_scan_bruteforce",
    "periodic_check_bruteforce",
    "periodic_witnesses_bruteforce",
    "read_csv_rows",
    "region_star_check_bruteforce",
    "write_columns_repr",
]

MAX_BRUTEFORCE_N = 14


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def minorant_bruteforce(f: GridFunction, k: int) -> float:
    """Exact minimum of the summed values over all partitions of index ``k``."""
    if f.origin != 0.0:
        raise GridError(f"grid must start at 0, got origin {f.origin!r}")
    if f.n > MAX_BRUTEFORCE_N:
        raise GridError(
            f"brute-force enumeration is capped at N <= {MAX_BRUTEFORCE_N}, grid has N = {f.n}"
        )
    if not 0 <= k <= f.n:
        raise GridError(f"index {k} out of range [0, {f.n}]")
    v = f.values
    if k == 0:
        return float(v[0])
    return float(min(sum(v[part] for part in comp) for comp in _compositions(k)))


def minorant_recurrence(f: GridFunction) -> np.ndarray:
    """``S[k] = min(v[k], min_{1 <= j < k} S[j] + v[k - j])``, one index at a time.

    ``S[k]`` keeps ``v[k]`` unless the smallest candidate is strictly smaller.
    Partition sums that overflow are +inf, never the minimum.
    """
    if f.origin != 0.0:
        raise GridError(f"grid must start at 0, got origin {f.origin!r}")
    v = f.values
    sigma = v.copy()
    with np.errstate(over="ignore"):
        for k in range(2, v.size):
            best = float(np.min(sigma[1:k] + v[k - 1:0:-1]))
            if best < sigma[k]:
                sigma[k] = best
    return sigma


def read_csv_rows(path: str | Path) -> GridFunction:
    """``grid.read_csv`` one ``str.splitlines`` line at a time.

    A stripped line is blank (skipped) or two comma-separated cells, each
    stripped and read by ``float``; a line 1 whose cells do not parse is a
    header.  The rows then go through the same grid checks as ``read_csv``.
    """
    xs, ys, row_lines = array("d"), array("d"), array("q")
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise GridError(f"line {lineno}: expected two columns, got {len(parts)}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if not xs and lineno == 1:
                continue  # header row
            raise GridError(f"line {lineno}: could not parse numbers from {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GridError(f"line {lineno}: non-finite entry in {line!r}")
        xs.append(x)
        ys.append(y)
        row_lines.append(lineno)
    return _grid_from_rows(np.frombuffer(xs), np.frombuffer(ys), np.frombuffer(row_lines, np.int64))


def write_columns_repr(
    path: str | Path, columns: Sequence[np.ndarray], header: str | None = None
) -> None:
    """Write equal-length columns as rows of ``repr``s, one ``repr`` per cell.

    The line ``header`` comes first when one is given.
    """
    with Path(path).open("w", encoding="utf-8") as out:
        if header is not None:
            out.write(header + "\n")
        cells = (map(repr, column.tolist()) for column in columns)
        out.writelines(",".join(row) + "\n" for row in zip(*cells))


def pair_scan_bruteforce(
    f: GridFunction, n: int, tol: Tolerance = Tolerance(), weak: bool = False
) -> tuple[Witness, ...]:
    """Failing pairs of the order-``n`` inequality, or of the weak bound, in ``(i, j)`` order.

    The grid may start ``m`` whole steps from 0; witness indices are then step
    multiples.  Order ``n``: ``f(x+y) <= f(x) + r(x, y, n) f(y)`` for ``y > 0``.
    Weak bound: ``f(x+y) <= max(f(x) + q f(y), q f(x) + f(y))``, ``q = 2^n - 1``,
    for ``x, y > 0``.
    """
    m = round(f.origin / f.step)
    if m < 0 or f.origin != m * f.step:
        raise GridError(f"grid origin {f.origin!r} is not a non-negative multiple of the step")
    v = [float(value) for value in f.values]
    q = float(2**n - 1)
    witnesses = []
    for i in range(len(v)):
        for j in range(len(v)):
            a, b = i + m, j + m
            if b == 0 or (weak and a == 0) or a + b > m + f.n:
                continue
            lhs = v[i + j + m]
            if weak:
                rhs = max(v[i] + q * v[j], q * v[i] + v[j])
            else:
                rhs = v[i] + ratio_coefficient(f.x(i), f.x(j), n) * v[j]
            if not tol.leq(lhs, rhs):
                witnesses.append(Witness(indices=(a, b), lhs=lhs, rhs=rhs))
    return tuple(witnesses)


def minimal_order_bruteforce(
    f: GridFunction, n_max: int, tol: Tolerance = Tolerance()
) -> int | None:
    """The first order ``k`` in ``[1, n_max]`` whose scalar pair scan finds no failure."""
    for k in range(1, n_max + 1):
        if pair_scan_bruteforce(f, k, tol) == ():
            return k
    return None


def periodic_check_bruteforce(
    f: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> bool:
    """All-pairs transcription of the definition: ``v[i] <= v[t]`` when ``t - i >= w``."""
    v = f.values
    i = np.arange(v.size)[:, None]
    t = np.arange(v.size)[None, :]
    applies = t - i >= p.w
    return bool(np.all(~applies | tol.leq_array(v[:, None], v[None, :])))


def periodic_witnesses_bruteforce(
    f: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> tuple[Witness, ...]:
    """Indices ``i`` failing ``v[i] <= min(v[i+w:])``, each paired with the first minimizer."""
    v = [float(value) for value in f.values]
    witnesses = []
    for i in range(len(v) - p.w):
        t = i + p.w
        for u in range(i + p.w, len(v)):
            if v[u] < v[t]:
                t = u
        if not tol.leq(v[i], v[t]):
            witnesses.append(Witness(indices=(i, t), lhs=v[i], rhs=v[t]))
    return tuple(witnesses)


def _scale(*magnitudes: float) -> float:
    """1, or 1/4 where a difference of two of ``magnitudes`` could overflow."""
    return 1.0 if math.isfinite(4.0 * max(magnitudes)) else 0.25


def is_center_bruteforce(f: GridFunction, p: int, tol: Tolerance = Tolerance()) -> bool:
    """Every chord from ``p``, evaluated at every grid point between, is one-sided."""
    v = f.values
    if not 0 <= p < v.size:
        raise GridError(f"center index {p} out of range [0, {v.size - 1}]")
    margin = tol.grid_slack(f.values)
    scale = _scale(float(np.max(np.abs(v))), margin)
    v, margin = scale * v, scale * margin
    for q in range(v.size):
        lo, hi = (p, q) if p < q else (q, p)
        if hi - lo < 2:
            continue
        between = np.arange(lo + 1, hi)
        t = (between - p) / (q - p)
        chord = v[p] + (v[q] - v[p]) * t
        seg = v[between]
        in_epi = bool(np.all(chord >= seg - margin))
        in_hypo = bool(np.all(chord <= seg + margin))
        if not (in_epi or in_hypo):
            return False
    return True


def region_star_check_bruteforce(
    f: GridFunction,
    region: RegionSpec,
    center_p: int,
    tol: Tolerance = Tolerance(),
) -> RegionCheckReport:
    """Every sampled region point, every crossing: first failure (column, level, crossing)."""
    v = f.values
    size = v.size
    if not 0 <= center_p < size:
        raise GridError(f"center index {center_p} out of range [0, {size - 1}]")
    if region.kind in (RegionKind.SPLIT_EPI_HYPO, RegionKind.SPLIT_HYPO_EPI):
        if region.split_index != center_p:
            raise GridError(
                f"split_index {region.split_index} must equal the center {center_p}"
            )
    if region.split_index is not None and not 0 <= region.split_index < size:
        raise GridError(f"split index {region.split_index} out of range")

    margin = tol.grid_slack(f.values)
    lo = float(np.min(v)) - region.vertical_extent
    hi = float(np.max(v)) + region.vertical_extent
    scale = _scale(abs(lo), abs(hi), margin)
    v, margin = scale * v, scale * margin
    kinds = np.empty(size, dtype=np.int8)  # +1 epigraph, -1 hypograph, 0 unconstrained
    if region.kind is RegionKind.EPI:
        kinds[:] = 1
    elif region.kind is RegionKind.HYPO:
        kinds[:] = -1
    else:
        s = region.split_index
        left, right = (1, -1) if region.kind is RegionKind.SPLIT_EPI_HYPO else (-1, 1)
        kinds[:s] = left
        kinds[s + 1:] = right
        kinds[s] = 0
    levels = np.linspace(scale * lo, scale * hi, region.vertical_samples)
    cp = float(v[center_p])

    for q in range(size):
        if kinds[q] == 1:
            selected = levels[levels >= v[q]]
        elif kinds[q] == -1:
            selected = levels[levels <= v[q]]
        else:
            selected = levels
        lo, hi = (center_p, q) if center_p < q else (q, center_p)
        if hi - lo < 2 or selected.size == 0:
            continue
        between = np.arange(lo + 1, hi)
        frac = (between - center_p) / (q - center_p)
        seg = cp + np.outer(selected - cp, frac)  # levels x crossings
        col_kinds = kinds[between]
        ok = np.where(
            col_kinds == 1,
            seg >= v[between] - margin,
            np.where(col_kinds == -1, seg <= v[between] + margin, True),
        )
        bad = np.argwhere(~ok)
        if bad.size:
            li, mi = bad[0]
            m_idx = int(between[mi])
            return RegionCheckReport(
                ok=False,
                witness=StarWitness(
                    column=q,
                    level=float(selected[li]) / scale,
                    crossing=m_idx,
                    segment_value=float(seg[li, mi]) / scale,
                    graph_value=float(v[m_idx]) / scale,
                ),
            )
    return RegionCheckReport(ok=True, witness=None)


def center_check_hires(
    source: str | Callable[[float], float] | Sequence[float],
    f: GridFunction,
    p: int,
    factor: int = 4,
    tol: Tolerance = Tolerance(),
) -> bool:
    """Re-run the center test on a ``factor`` times denser resampling of ``source``.

    The source must be an expression or callable (a denser grid cannot be read
    off stored samples); the coarse abscissas land exactly on the fine grid.
    """
    if factor < 2:
        raise GridError(f"resampling factor must be >= 2, got {factor}")
    fine = sample(source, f.origin, f.step / factor, f.n * factor + 1)
    return is_center_bruteforce(fine, p * factor, tol)
