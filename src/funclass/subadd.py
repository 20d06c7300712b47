"""Higher-order subadditivity: decisions, transforms, and the largest minorant.

A non-negative function on a grid starting at 0 is subadditive of order ``n``
when ``f(x+y) <= f(x) + r(x, y, n) * f(y)`` for every on-grid pair with
``y > 0``, where ``r(x, y, n) = ((x+y)^n - x^n) / y^n``.  Order 1 is ordinary
subadditivity.  The minimal passing order is found in one pass over the pairs
that raises a candidate order while a pair fails it, then confirmed by one scan.

The largest subadditive minorant ``sigma`` of ``f`` is the infimum of
``f(u_1) + ... + f(u_m)`` over grid partitions ``u_1 + ... + u_m = x``.  It is
computed here by the min-plus recurrence

    S[k] = min(v[k], min_{1 <= j <= k-1} S[j] + v[k-j])

which reaches exactly the left-nested partial sums of every ordered partition,
so it matches the brute-force enumeration bit for bit.  The gap
``defect = max(f - sigma)`` is the least additive slack for which the
partition inequality holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import GridError, GridFunction, Tolerance, Witness

__all__ = [
    "MinorantResult",
    "PowerFit",
    "SubadditivityReport",
    "check_order",
    "check_order_offset",
    "check_weak_bound",
    "fit_power",
    "functional_equation_residual",
    "minimal_order",
    "nth_root_transform",
    "ratio_coefficient",
    "ratio_transform",
    "subadditive_minorant",
]

MAX_ORDER = 60  # binomial coefficients stay within double-precision range
PAIR_BLOCK = 1 << 13  # pairs per scan block; bounds every pair-scan temporary independently of N
PairBound = Callable[[np.ndarray, np.ndarray], np.ndarray]  # rhs(rows, cols) over one pair block


@dataclass(frozen=True)
class SubadditivityReport:
    """Outcome of an order-``n`` check; ``holds`` iff ``violations`` is empty.

    Witness indices are multiples of the grid step, so on a grid starting at 0
    they coincide with array indices.
    """

    order_tested: int
    holds: bool
    violations: tuple[Witness, ...]
    minimal_order: int | None = None

    def to_dict(self) -> dict:
        return {
            "order": self.order_tested,
            "holds": self.holds,
            "minimal_order": self.minimal_order,
            "violations": [w.to_dict() for w in self.violations],
        }


@dataclass(frozen=True)
class MinorantResult:
    """Largest subadditive minorant ``sigma``, residual ``f - sigma``, and defect."""

    sigma: GridFunction
    residual: GridFunction
    defect: float
    bounded_variation: bool


class PowerFit(NamedTuple):
    """Least-squares power coefficient and worst symmetry residual."""

    c: float
    max_residual: float


def _validate_order(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
        raise GridError(f"order must be an integer in [1, {MAX_ORDER}], got {n!r}")


def ratio_coefficient(x: float, y: float, n: int) -> float:
    """``((x+y)^n - x^n) / y^n`` evaluated stably as a polynomial in ``x/y``.

    The quotient equals ``(u+1)^n - u^n`` with ``u = x/y``, a polynomial with
    binomial coefficients, evaluated by Horner's rule.  This avoids the
    cancellation of the direct form when ``y`` is small.
    """
    _validate_order(n)
    if y <= 0.0:
        raise GridError(f"ratio coefficient requires y > 0, got y={y!r}")
    if x < 0.0:
        raise GridError(f"ratio coefficient requires x >= 0, got x={x!r}")
    u = x / y
    acc = float(math.comb(n, n - 1))
    for i in range(n - 2, -1, -1):
        acc = acc * u + math.comb(n, i)
    return acc


def _coefficient_poly(u: np.ndarray, n: int) -> np.ndarray:
    """Vectorized Horner evaluation of ``(u+1)^n - u^n``; matches the scalar op."""
    acc = np.full_like(u, float(math.comb(n, n - 1)))
    for i in range(n - 2, -1, -1):
        acc = acc * u + float(math.comb(n, i))
    return acc


def _offset_multiple(f: GridFunction) -> int:
    ratio = f.origin / f.step
    m = round(ratio)
    if m < 0 or ratio != m:
        raise GridError(
            f"grid origin {f.origin!r} must be a non-negative integer multiple of "
            f"the step {f.step!r} for subadditivity checks"
        )
    return m


def _require_zero_origin(f: GridFunction) -> None:
    if f.origin != 0.0:
        raise GridError(
            f"grid must start at 0, got origin {f.origin!r}; re-sample the function from 0"
        )


def _require_non_negative(f: GridFunction) -> None:
    bad = np.flatnonzero(f.values < 0.0)
    if bad.size:
        i = int(bad[0])
        raise GridError(f"values must be non-negative, got {float(f.values[i])!r} at index {i}")


def _pair_blocks(
    size: int, m: int, first: int, second: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield array positions ``(rows, cols)`` of the pair triangle in ``(i, j)`` order.

    The triangle holds every pair of step multiples ``a = i + m >= first`` and
    ``b = j + m >= second`` with ``a + b <= m + N`` on a grid of ``size = N + 1``
    samples that starts ``m`` steps from 0.  Blocks hold at most ``PAIR_BLOCK``
    pairs and continue the row-major order, splitting rows where they must.
    """
    i0, j0 = max(first - m, 0), max(second - m, 0)
    counts = np.maximum(size - m - j0 - np.arange(i0, size), 0)  # row i: j0 <= j <= N - m - i
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for start in range(0, total, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, total)
        first_row, last_row = np.searchsorted(ends, [start, stop - 1], side="right")
        k = np.arange(first_row, last_row + 1)
        row_start = ends[k] - counts[k]
        lengths = np.minimum(ends[k], stop) - np.maximum(row_start, start)
        cols = np.arange(start, stop) - np.repeat(row_start - j0, lengths)
        yield np.repeat(i0 + k, lengths), cols


def _violations(
    v: np.ndarray, m: int, first: int, second: int, rhs: PairBound, tol: Tolerance
) -> tuple[Witness, ...]:
    """Pairs where ``Tolerance.leq(v[i + j + m], rhs(i, j))`` fails, in ``(i, j)`` order."""
    found: list[Witness] = []
    for rows, cols in _pair_blocks(v.size, m, first, second):
        lhs = v[rows + cols + m]
        bound = rhs(rows, cols)
        bad = ~tol.leq_array(lhs, bound)
        pairs = zip((rows[bad] + m).tolist(), (cols[bad] + m).tolist())
        found += map(Witness, pairs, lhs[bad].tolist(), bound[bad].tolist())
    return tuple(found)


def _order_bound(v: np.ndarray, x: np.ndarray, n: int) -> PairBound:
    """The order-``n`` right-hand side ``v[i] + r(x_i, x_j, n) * v[j]`` over one pair block."""

    def rhs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return v[rows] + _coefficient_poly(x[rows] / x[cols], n) * v[cols]

    return rhs


def _order_report(f: GridFunction, n: int, tol: Tolerance | None, m: int) -> SubadditivityReport:
    """Order-``n`` pair scan on a grid that starts ``m`` steps from 0."""
    _require_non_negative(f)
    v = f.values
    violations = _violations(v, m, m, max(m, 1), _order_bound(v, f.xs(), n), tol or Tolerance())
    return SubadditivityReport(order_tested=n, holds=not violations, violations=violations)


def check_order(f: GridFunction, n: int, tol: Tolerance | None = None) -> SubadditivityReport:
    """Decide order-``n`` subadditivity on a grid that starts at 0.

    Scans every pair ``i >= 0``, ``j >= 1`` with ``i + j <= N``; pairs with
    ``y = 0`` are skipped.  Violations are reported sorted by ``(i, j)``.
    """
    _validate_order(n)
    _require_zero_origin(f)
    return _order_report(f, n, tol, 0)


def check_order_offset(
    f: GridFunction, n: int, tol: Tolerance | None = None
) -> SubadditivityReport:
    """Order-``n`` check for grids whose origin is a positive multiple of the step.

    Used for ratio-transformed functions, whose domain starts one step in.
    Witness indices are multiples of the step, not array positions.
    """
    _validate_order(n)
    return _order_report(f, n, tol, _offset_multiple(f))


def minimal_order(
    f: GridFunction, n_max: int, tol: Tolerance | None = None
) -> SubadditivityReport:
    """The smallest ``k`` in ``[1, n_max]`` with ``check_order(f, k, tol).holds``, if any.

    One pass over the pair blocks starts at order 1 and, while some pair of a
    block fails the current order, moves one order up (to at most ``n_max``).
    Each order passed over has a failing pair, so none below the candidate holds.
    The candidate is then confirmed by a full scan, moving one order up wherever
    rounding breaks the nesting, so the result assumes no monotonicity in ``n``.
    When no order holds, the failing order-``n_max`` report is returned.
    """
    _validate_order(n_max)
    _require_zero_origin(f)
    _require_non_negative(f)
    tol = tol or Tolerance()
    v, x = f.values, f.xs()
    n = 1
    for rows, cols in _pair_blocks(v.size, 0, 0, 1):
        lhs = v[rows + cols]
        while n < n_max and not np.all(tol.leq_array(lhs, _order_bound(v, x, n)(rows, cols))):
            n += 1
    while True:
        report = check_order(f, n, tol)
        if report.holds or n == n_max:
            return replace(report, minimal_order=n if report.holds else None)
        n += 1


def nth_root_transform(f: GridFunction, n: int) -> GridFunction:
    """Pointwise n-th root of a non-negative grid function."""
    _validate_order(n)
    _require_non_negative(f)
    if n == 1:
        values = f.values.copy()
    elif n == 2:
        values = np.sqrt(f.values)
    elif n == 3:
        values = np.cbrt(f.values)
    else:
        values = np.power(f.values, 1.0 / n)
    return f.with_values(values)


def ratio_transform(f: GridFunction, n: int) -> GridFunction:
    """Divide non-negative values by the abscissa's n-th power; the result starts one step in.

    The value at index 0 has no quotient, so the returned grid has origin equal
    to the step and one fewer sample.
    """
    _validate_order(n)
    _require_zero_origin(f)
    if f.values.size < 3:
        raise GridError("ratio transform needs at least 3 samples (2 beyond x = 0)")
    _require_non_negative(f)
    x = f.xs()[1:]
    denom = x**n
    if not np.all(np.isfinite(denom)):
        raise GridError(f"abscissa power x^{n} overflows on this grid")
    values = f.values[1:] / denom
    return GridFunction(origin=f.step, step=f.step, values=values)


def check_weak_bound(
    f: GridFunction, n: int, tol: Tolerance | None = None
) -> SubadditivityReport:
    """Check ``f(x+y) <= max(f(x) + q f(y), q f(x) + f(y))`` with ``q = 2^n - 1``.

    This is the coefficient-free relaxation of the order-``n`` inequality;
    both ``x`` and ``y`` must be positive here.
    """
    tol = tol or Tolerance()
    _validate_order(n)
    _require_zero_origin(f)
    _require_non_negative(f)

    v = f.values
    q = float(2**n - 1)

    def rhs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        va, vb = v[rows], v[cols]
        return np.maximum(va + q * vb, q * va + vb)

    witnesses = _violations(v, 0, 1, 1, rhs, tol)
    return SubadditivityReport(order_tested=n, holds=not witnesses, violations=witnesses)


def functional_equation_residual(f: GridFunction, n: int, i: int, j: int) -> float:
    """Absolute gap between the two sides of the order-``n`` symmetry equation.

    The equation ``f(x) + r(x,y,n) f(y) = f(y) + r(y,x,n) f(x)`` holds for all
    positive pairs exactly when ``f`` is a multiple of ``x^n`` (for n >= 2).
    """
    if not isinstance(n, int) or n < 2:
        raise GridError(f"the symmetry equation needs integer n >= 2, got {n!r}")
    _validate_order(n)
    _require_zero_origin(f)
    size = f.values.size
    if i < 1 or j < 1:
        raise GridError(f"both indices must be >= 1 (x, y > 0), got i={i}, j={j}")
    if i + j > size - 1:
        raise GridError(f"i + j = {i + j} exceeds the grid (N = {size - 1})")
    xi, xj = f.x(i), f.x(j)
    vi, vj = float(f.values[i]), float(f.values[j])
    lhs = vi + ratio_coefficient(xi, xj, n) * vj
    rhs = vj + ratio_coefficient(xj, xi, n) * vi
    return abs(lhs - rhs)


def fit_power(f: GridFunction, n: int) -> PowerFit:
    """Least-squares fit ``v[i] ~ c * x_i^n`` plus the worst symmetry residual.

    ``max_residual`` vanishes (up to roundoff scaled by ``max|v|``) exactly on
    the ``c * x^n`` family, so it measures distance from that solution set.
    """
    if not isinstance(n, int) or n < 2:
        raise GridError(f"power fit needs integer n >= 2, got {n!r}")
    _validate_order(n)
    _require_zero_origin(f)
    v = f.values
    size = v.size
    if size < 3:
        raise GridError("power fit needs at least 3 samples (2 beyond x = 0)")

    x = f.xs()
    xn = x[1:] ** n
    if not np.all(np.isfinite(xn)):
        raise GridError(f"abscissa power x^{n} overflows on this grid")
    c = float(np.dot(v[1:], xn) / np.dot(xn, xn))

    bound = _order_bound(v, x, n)

    def gap(rows: np.ndarray, cols: np.ndarray) -> float:
        return np.max(np.abs(bound(rows, cols) - bound(cols, rows)))

    return PowerFit(c, float(np.max([gap(*block) for block in _pair_blocks(size, 0, 1, 1)])))


def subadditive_minorant(f: GridFunction, tol: Tolerance | None = None) -> MinorantResult:
    """Largest subadditive minorant of ``f`` via the min-plus recurrence.

    ``sigma[k]`` is the exact minimum over all grid partitions of ``x_k`` into
    parts of index >= 1 of the summed values (left-nested addition), so
    ``sigma <= f`` and ``residual = f - sigma >= 0`` hold without tolerance.
    ``bounded_variation`` records whether the input was non-decreasing, in
    which case the residual is a difference of two monotone functions.
    """
    tol = tol or Tolerance()
    _require_zero_origin(f)
    _require_non_negative(f)

    v = f.values
    sigma = v.copy()
    for k in range(2, v.size):
        best = float(np.min(sigma[1:k] + v[k - 1:0:-1]))
        if best < sigma[k]:
            sigma[k] = best

    residual = v - sigma
    defect = float(np.max(residual))
    non_decreasing = bool(np.all(tol.leq_array(v[:-1], v[1:])))
    return MinorantResult(
        sigma=f.with_values(sigma),
        residual=f.with_values(residual),
        defect=defect,
        bounded_variation=non_decreasing,
    )
