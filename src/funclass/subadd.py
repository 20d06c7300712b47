"""Higher-order subadditivity: decisions, transforms, and the largest minorant.

A non-negative function on a grid starting at 0 is subadditive of order ``n``
when ``f(x+y) <= f(x) + r(x, y, n) * f(y)`` for every on-grid pair with
``y > 0``, where ``r(x, y, n) = ((x+y)^n - x^n) / y^n``.  Order 1 is ordinary
subadditivity.  The minimal passing order is found in one pass over the pairs
that raises a candidate order while a pair fails it, then confirmed by one scan.

Every pair check walks the triangle of pairs along anti-diagonals ``k = i + j``:
the pairs of one diagonal share the left side ``v[k]`` and read contiguous
runs of ``v`` and ``x``, so a band of consecutive diagonals is one strided view,
with no index arrays.  Bands hold at most ``PAIR_BLOCK`` pairs, so the scans
take O(N^2) time in memory independent of N, plus 32 bytes per failing pair.
A band passes iff each diagonal's smallest bound passes, since ``Tolerance``
acceptance is monotone in the bound; only a failing band is compared pair by
pair, and its witnesses are sorted back into ``(i, j)`` order and kept as
the columns ``(i, j, lhs, rhs)`` of a ``grid.Witnesses``.

Before that scan, an O(N) certificate may decide a check: if ``f(x) / x^n``
is non-increasing, then ``f`` is subadditive of order ``n`` (and meets the
weak bound of order ``n``), since ``f(x+y) = x^n g(x+y) + ((x+y)^n - x^n)
g(x+y) <= f(x) + r(x, y, n) f(y)`` with ``g = f / x^n``.  The certificate
compares each ratio with the running minimum of the ratios before it, within
a slack of a few ulps that the tolerance must cover (``_certified``).  It only
ever answers "holds": certified implies the scan passes, and otherwise the
scan decides.  ``minimal_order`` stops its sweep at the lowest certified order.

The largest subadditive minorant ``sigma`` of ``f`` is the infimum of
``f(u_1) + ... + f(u_m)`` over grid partitions ``u_1 + ... + u_m = x``.  It is
computed here by the min-plus recurrence

    S[k] = min(v[k], min_{1 <= j <= k-1} S[j] + v[k-j])

which reaches exactly the left-nested partial sums of every ordered partition,
so it matches the brute-force enumeration bit for bit.  The recurrence is
blocked: for ``MINORANT_BLOCK = B`` consecutive indices at a time, the
candidates of every finished index form one strided tile, the same view of a
reversed copy of ``v`` as a band of anti-diagonals, reduced by row minimum;
the few candidates inside the block follow on Python floats.  That is N^2/2
pairs in tiles of at most ``PAIR_BLOCK`` entries plus about N*B/2 scalar
additions, instead of one numpy call per sample.  The gap
``defect = max(f - sigma)`` is the least additive slack for which the
partition inequality holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import GridError, GridFunction, Tolerance, Witnesses, _strided_rows

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
PAIR_BLOCK = 1 << 15  # pairs per tile; bounds every pair-scan temporary independently of N
# minorant samples settled per block.  Its full tiles have rows PAIR_BLOCK // 8 = 4096 long;
# numpy (2.4) runs a 2-D add with rows of at most 2730, a third of its 8192-element buffer,
# through that buffer at about 1.5x the cost per pair, so 12 (2730) or 16 is slower at large N
MINORANT_BLOCK = 8
# rhs(va, xa, vb, xb, out, spare) over one tile: the x-operand row (v[i], x[i]) and the
# y-operands (v[j], x[j]); the bound is written to out, and spare, of out's shape, is
# scratch (both are fresh arrays when omitted)
PairBound = Callable[..., np.ndarray]
_NO_WITNESSES = Witnesses((), (), (), ())
_EPS = 2.0**-52  # double-precision machine epsilon; the unit roundoff is eps / 2
_SLACK = 16  # ulps a ratio may exceed the running minimum by and still certify
_TINY = 2.0**-1022  # smallest normal double
_FLOOR = 2.0**-960  # smallest nonzero value or ratio the certificate accepts


@dataclass(frozen=True)
class SubadditivityReport:
    """Outcome of an order-``n`` check; ``holds`` iff ``violations`` is empty.

    Witness indices are multiples of the grid step, so on a grid starting at 0
    they coincide with array indices.  ``to_dict`` keeps the ``Witnesses``
    columns as they are: the CLI's JSON writer reads them column by column,
    and ``[w.to_dict() for w in report.violations]`` expands them for ``json``.
    """

    order_tested: int
    holds: bool
    violations: Witnesses
    minimal_order: int | None = None

    def to_dict(self) -> dict:
        return {
            "order": self.order_tested,
            "holds": self.holds,
            "minimal_order": self.minimal_order,
            "violations": self.violations,
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


class _Tile(NamedTuple):
    """A band of anti-diagonals of the pair triangle, as operand views.

    Entry ``[r, c]`` is the pair of array positions ``(i + c, k + r - i - c)``:
    row ``r`` is the diagonal ``k + r``, whose pairs share the left side
    ``lhs[r]``.  ``va``/``xa`` hold the x-operands ``v[i + c]``/``x[i + c]``,
    one row broadcast over the band, and ``vb``/``xb`` the y-operands.  A
    y-position outside the triangle is a pad reading ``(x, v) = (1, +inf)``,
    so an order or weak bound there is ``+inf``.
    """

    k: int
    i: int
    lhs: np.ndarray
    va: np.ndarray
    xa: np.ndarray
    vb: np.ndarray
    xb: np.ndarray


def _tiles(v: np.ndarray, x: np.ndarray, m: int, first: int, second: int) -> Iterator[_Tile]:
    """Cover the pair triangle once, in tiles of at most ``PAIR_BLOCK`` entries, pads included.

    The triangle holds every pair of step multiples ``a = i + m >= first`` and
    ``b = j + m >= second`` with ``a + b <= m + N`` on a grid of ``N + 1``
    samples that starts ``m`` steps from 0.  Diagonal ``k = i + j`` holds the
    pairs ``(i, k - i)`` with ``i0 <= i <= k - j0``, one more than the diagonal
    before.  A band of consecutive diagonals is one strided view of a reversed
    copy of ``v`` (and of ``x``), so that each row runs forward in memory, with
    the pads of its shorter rows past the copy's end.  A diagonal longer than
    ``PAIR_BLOCK`` is cut into column chunks.
    """
    top = v.size - 1 - m  # last diagonal: its left side is the last sample
    i0, j0 = max(first - m, 0), max(second - m, 0)
    pad = math.isqrt(PAIR_BLOCK)  # a band has at most this many rows
    # the y-operand of pair (i, k - i) sits at position top + m - k + i
    vr = np.concatenate((v[j0:][::-1], np.full(j0 + pad, np.inf)))
    xr = np.concatenate((x[j0:][::-1], np.ones(j0 + pad)))
    k = i0 + j0
    while k <= top:
        # diagonal k holds w + 1 pairs; take the most rows with rows * (w + rows) <= PAIR_BLOCK
        w = k - i0 - j0
        rows = min(max((math.isqrt(w * w + 4 * PAIR_BLOCK) - w) // 2, 1), top - k + 1)
        width = w + rows  # pairs on the band's last diagonal
        span = PAIR_BLOCK // rows
        for i in range(i0, i0 + width, span):
            cols = min(span, i0 + width - i)
            # row r reads the reversed copies from one entry before row r - 1:
            # the y-operands of consecutive anti-diagonals k + r
            start = top + m - k + i
            yield _Tile(
                k, i, v[k + m:k + m + rows], v[i:i + cols], x[i:i + cols],
                _strided_rows(vr, start, -1, rows, cols), _strided_rows(xr, start, -1, rows, cols),
            )
        k += rows


class _TileBuffers:
    """``count`` float64 buffers of ``PAIR_BLOCK`` entries, reused by every tile of one scan.

    A tile's temporaries are 256 KiB each.  Allocated fresh per tile, they sit
    at the top of the C heap, and whether ``free`` hands that memory back to
    the system, to be faulted in again by the next tile, depends on the heap's
    layout when the process started, not on the scan: a passing order-1 scan
    at N = 1024 then took about 345 minor page faults and 40% longer.
    """

    def __init__(self, count: int) -> None:
        self._flat = np.empty((count, PAIR_BLOCK))

    def __call__(self, shape: tuple[int, int]) -> list[np.ndarray]:
        """Each buffer's first ``rows * cols`` entries as a C-contiguous array of ``shape``."""
        size = shape[0] * shape[1]
        return [buffer[:size].reshape(shape) for buffer in self._flat]


def _order_bound(n: int) -> PairBound:
    """The order-``n`` right-hand side ``va + r(xa, xb, n) * vb`` over one tile.

    Horner's rule runs in place, in ``ratio_coefficient``'s operation order,
    so every entry has the scalar bits.  An abscissa past the float range
    makes the coefficient +inf or NaN, and +inf times a zero value is NaN, as
    in the scalar arithmetic: NaN fails every acceptance test, so such a pair
    is reported, not passed.
    """
    coefficients = [float(math.comb(n, i)) for i in range(n - 1, -1, -1)]

    def rhs(va: np.ndarray, xa: np.ndarray, vb: np.ndarray, xb: np.ndarray,
            out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
        if n == 1:  # the coefficient is exactly 1, and 1.0 * vb == vb
            return np.add(va, vb, out=out)
        with np.errstate(invalid="ignore"):
            u = np.divide(xa, xb, out=spare)
            acc = np.multiply(u, coefficients[0], out=out)
            acc += coefficients[1]
            for c in coefficients[2:]:
                acc *= u
                acc += c
            acc *= vb
        acc += va
        return acc

    return rhs


def _weak_bound(n: int) -> PairBound:
    """The weak right-hand side ``max(va + q vb, q va + vb)``, ``q = 2^n - 1``, over one tile."""
    q = float(2**n - 1)

    def rhs(va: np.ndarray, xa: np.ndarray, vb: np.ndarray, xb: np.ndarray,
            out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
        ahead = np.multiply(vb, q, out=out)
        ahead += va
        return np.maximum(ahead, np.add(q * va, vb, out=spare), out=ahead)

    return rhs


def _certified(f: GridFunction, n: int, tol: Tolerance, m: int) -> bool:
    """An O(N) proof that every pair of an order-``n`` or weak scan passes.

    ``m`` is the grid's origin in steps.  With ``G_p = fl(v_p / fl(x_p^n))``
    over the samples with ``x > 0``, the grid is certified when each
    ``G_k <= fl(M_{k-1} * (1 + c eps))``, ``M`` the running minimum of ``G``
    and ``c = _SLACK``.  Comparing with the running minimum bounds each ratio by
    every earlier one within one slack; a neighbour rule would let the slack
    compound over N steps.  A pair with ``x = 0`` (``m = 0``) passes without
    the argument: its bound ``v[0] + 1 * v[j]`` is at least ``v[j]``.

    Rounding argument, with unit roundoff ``u = eps / 2`` and ``n <= 60``.  An
    abscissa is ``x_p = p h (1 + a_p)`` with ``|a_p| <= eps`` for its step
    multiple ``p`` (one rounding each for ``p * step`` and ``origin + ...``;
    the origin is ``m h`` within ``u``).  Guards below keep every quantity
    finite and normal, so each operation has relative error at most ``u``, and
    ``fl(x^n)`` at most ``eps``.  Then, for positions ``j < k``:

    * the test gives ``g_k <= g_j (1 + (c + 3.5) eps)`` for the exact ratios
      ``g = v / x^n`` of the float abscissae (the comparison, its product,
      two divisions and two powers);
    * ``X = x_{a+b}`` is at most ``(x_a + x_b)(1 + 2 eps)``, so
      ``v_X = X^n g_X <= (1 + 2n eps)(x_a^n g_X + R x_b^n g_X)``, where ``R``
      is the exact ``r(x_a, x_b, n)``, and ``g_X`` is at most ``g_a`` and
      ``g_b`` times ``1 + (c + 3.5) eps``;
    * the order bound is computed from ``x_a / x_b`` by Horner's rule with
      rounded binomials, then ``* v_b + v_a``: all terms are non-negative,
      so it is at least ``(v_a + R v_b)(1 - 1.5n eps)``.  The weak bound, two
      roundings of ``v_a + q v_b`` with ``q >= R`` when ``a <= b`` (and the
      mirror when ``a > b``), is at least that too;
    * acceptance adds ``fl(rel * max(lhs, bound))`` within three roundings.

    So ``lhs <= bound (1 + (c + 3.5n + 3.5) eps)``, and the scan accepts
    whenever ``rel >= (c + 3.5n + 5) eps`` plus second-order terms below
    ``eps``; ``(c + 4n + 8) eps`` is required.  An overflowing bound is +inf
    and accepts; values are finite by ``GridFunction``.  Guards, or the scan
    decides:

    * ``tol.rel >= (c + 4n + 8) eps``;
    * the step and every ``fl(x^n)`` are normal and finite;
    * the largest coefficient ``r(x_last, x_first, n)`` is finite: the scan
      fails an infinite coefficient times a zero value (a NaN bound);
    * nonzero values and ratios are at least ``2^-960``, and ``M_0 (1 + c eps)``
      is finite, so no product, ratio or margin leaves the normal range.
    """
    skip = 0 if m else 1  # the pairs with x = 0 need no argument
    v = f.values[skip:]
    if v.size < 2 or tol.rel < (_SLACK + 4 * n + 8) * _EPS or f.step < _TINY:
        return False
    x = f.xs()[skip:]
    with np.errstate(over="ignore"):
        powers = x**n
        if not (_TINY <= powers.min() and powers.max() < math.inf):
            return False
        if not math.isfinite(ratio_coefficient(float(x[-1]), float(x[0]), n)):
            return False
        g = v / powers
        bound = np.minimum.accumulate(g[:-1])
        bound *= 1.0 + _SLACK * _EPS
    positive = v > 0.0
    return bool(
        bound[0] < math.inf  # the running minimum only falls, so every bound is finite
        and np.all(g[1:] <= bound)
        and np.min(v, where=positive, initial=math.inf) >= _FLOOR
        and np.min(g, where=positive, initial=math.inf) >= _FLOOR
    )


def _decide(
    f: GridFunction, n: int, tol: Tolerance, m: int, first: int, rhs: PairBound
) -> SubadditivityReport:
    """The pair check of ``_scan``: passed by the certificate where it holds, else scanned.

    ``rhs`` is the order-``n`` or the weak bound of order ``n``; the certificate
    proves both.
    """
    _require_non_negative(f)
    if _certified(f, n, tol, m):
        return SubadditivityReport(order_tested=n, holds=True, violations=_NO_WITNESSES)
    return _scan(f, n, tol, m, first, rhs)


def _scan(
    f: GridFunction, n: int, tol: Tolerance, m: int, first: int, rhs: PairBound
) -> SubadditivityReport:
    """Report the pairs ``a >= first``, ``b >= max(first, 1)`` failing ``v[a + b] <= rhs``.

    Values must be non-negative (``_decide`` checks).
    Each band of anti-diagonals is decided by its smallest bound per diagonal:
    ``Tolerance`` acceptance is monotone in the bound, and a NaN bound makes
    the minimum NaN and fails.  Only a failing band compares entry by entry.
    Values are non-negative, so a bound, or its threshold ``bound + margin``,
    that overflows is +inf: still an upper bound, so that overflow is ignored.
    So is an abscissa past the float range: it is +inf, as the scalar ``x(i)``
    is, and the order bound meets it as ``ratio_coefficient`` does.
    """
    v = f.values
    failing: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    buffers = _TileBuffers(2)
    with np.errstate(over="ignore"):
        for t in _tiles(v, f.xs(), m, first, max(first, 1)):
            bound = rhs(t.va, t.xa, t.vb, t.xb, *buffers(t.vb.shape))
            rows = np.flatnonzero(~tol.leq_array(t.lhs, bound.min(axis=1)))
            if rows.size:
                r, c = np.nonzero(~tol.leq_array(t.lhs[rows, None], bound[rows]))
                failing.append((t.k + rows[r], t.i + c, bound[rows[r], c]))
    if not failing:
        return SubadditivityReport(order_tested=n, holds=True, violations=_NO_WITNESSES)
    k, i, bound = (np.concatenate(parts) for parts in zip(*failing))
    del failing  # copied: free the parts before the sort
    order = np.lexsort((k, i))  # by i, then by j = k - i
    k, i = k[order], i[order]
    found = Witnesses(i + m, k - i + m, v[k + m], bound[order])
    return SubadditivityReport(order_tested=n, holds=False, violations=found)


def check_order(f: GridFunction, n: int, tol: Tolerance = Tolerance()) -> SubadditivityReport:
    """Decide order-``n`` subadditivity on a grid that starts at 0.

    Scans every pair ``i >= 0``, ``j >= 1`` with ``i + j <= N``; pairs with
    ``y = 0`` are skipped.  Violations are reported sorted by ``(i, j)``.
    """
    _validate_order(n)
    _require_zero_origin(f)
    return _decide(f, n, tol, 0, 0, _order_bound(n))


def check_order_offset(
    f: GridFunction, n: int, tol: Tolerance = Tolerance()
) -> SubadditivityReport:
    """Order-``n`` check for grids whose origin is a positive multiple of the step.

    Used for ratio-transformed functions, whose domain starts one step in.
    Witness indices are multiples of the step, not array positions.
    """
    _validate_order(n)
    m = _offset_multiple(f)
    return _decide(f, n, tol, m, m, _order_bound(n))


def minimal_order(
    f: GridFunction, n_max: int, tol: Tolerance = Tolerance()
) -> SubadditivityReport:
    """The smallest ``k`` in ``[1, n_max]`` with ``check_order(f, k, tol).holds``, if any.

    One pass over the bands of anti-diagonals starts at order 1 and, while some
    pair of a band fails the current order, moves one order up (to at most
    ``n_max``); a band fails iff one of its diagonals' smallest bounds does, as
    in ``_scan``.  Each order passed over has a failing pair, so none below the
    candidate holds.
    The pass stops once the candidate reaches the lowest order the certificate
    proves, where no pair can fail.
    The candidate is then confirmed by ``check_order``, moving one order up wherever
    rounding breaks the nesting, so the result assumes no monotonicity in ``n``.
    When no order holds, the failing order-``n_max`` report is returned.
    """
    _validate_order(n_max)
    _require_zero_origin(f)
    _require_non_negative(f)
    certified = next((k for k in range(1, n_max + 1) if _certified(f, k, tol, 0)), None)
    n, bound = 1, _order_bound(1)  # a bound is built once per candidate order
    buffers = _TileBuffers(2)
    with np.errstate(over="ignore"):  # an overflowing bound is +inf, as in _scan
        for t in _tiles(f.values, f.xs(), 0, 0, 1):
            out, spare = buffers(t.vb.shape)
            while n < n_max and n != certified and not np.all(
                tol.leq_array(t.lhs, bound(t.va, t.xa, t.vb, t.xb, out, spare).min(axis=1))
            ):
                n += 1
                bound = _order_bound(n)
            if n == certified:
                break
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


def _abscissa_powers(f: GridFunction, n: int, what: str) -> np.ndarray:
    """``x^n`` at every sample beyond ``x = 0``; ``what`` names the operation in errors."""
    if f.values.size < 3:
        raise GridError(f"{what} needs at least 3 samples (2 beyond x = 0)")
    with np.errstate(over="ignore"):  # an overflowing power is rejected below
        powers = f.xs()[1:] ** n
    if not np.all(np.isfinite(powers)):
        raise GridError(f"abscissa power x^{n} overflows on this grid")
    return powers


def ratio_transform(f: GridFunction, n: int) -> GridFunction:
    """Divide non-negative values by the abscissa's n-th power; the result starts one step in.

    The value at index 0 has no quotient, so the returned grid has origin equal
    to the step and one fewer sample.
    """
    _validate_order(n)
    _require_zero_origin(f)
    _require_non_negative(f)
    values = f.values[1:] / _abscissa_powers(f, n, "ratio transform")
    return GridFunction(origin=f.step, step=f.step, values=values)


def check_weak_bound(
    f: GridFunction, n: int, tol: Tolerance = Tolerance()
) -> SubadditivityReport:
    """Check ``f(x+y) <= max(f(x) + q f(y), q f(x) + f(y))`` with ``q = 2^n - 1``.

    This is the coefficient-free relaxation of the order-``n`` inequality;
    both ``x`` and ``y`` must be positive here.
    """
    _validate_order(n)
    _require_zero_origin(f)
    return _decide(f, n, tol, 0, 1, _weak_bound(n))


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
    The residual of ``(i, j)`` is that of ``(j, i)``, bit for bit: the two sides
    swap, computed by the same operations, and ``fl(a - b) = -fl(b - a)``.  So
    only the pairs with ``i <= j`` are evaluated.
    """
    if not isinstance(n, int) or n < 2:
        raise GridError(f"power fit needs integer n >= 2, got {n!r}")
    _validate_order(n)
    _require_zero_origin(f)
    xn = _abscissa_powers(f, n, "power fit")
    v = f.values
    # x^n scaled by a power of two to below 1, so its squares cannot overflow
    _, e = np.frexp(np.max(xn))
    xs = np.ldexp(xn, -e)
    with np.errstate(over="ignore"):  # an overflowing quotient is rejected below
        c = float(np.ldexp(np.dot(v[1:], xs) / np.dot(xs, xs), -e))
    if not math.isfinite(c):
        raise GridError("power fit coefficient overflows on this grid")

    bound = _order_bound(n)
    buffers = _TileBuffers(3)
    worst = 0.0
    # a side or a difference past the float range makes the difference +-inf or NaN
    # (inf - inf), rejected below; the pads' NaN is zeroed first
    with np.errstate(over="ignore", invalid="ignore"):
        for t in _tiles(v, f.xs(), 0, 1, 1):
            # columns i <= j of some row: i <= (last diagonal) / 2
            cols = (t.k + t.lhs.size - 1) // 2 - t.i + 1
            if cols <= 0:
                continue
            va, xa, vb, xb = t.va[:cols], t.xa[:cols], t.vb[:, :cols], t.xb[:, :cols]
            ahead, spare, behind = buffers(vb.shape)
            gap = np.subtract(bound(va, xa, vb, xb, ahead, spare),
                              bound(vb, xb, va, xa, behind, spare), out=ahead)
            gap[np.isinf(vb)] = 0.0  # pads, outside the triangle, where both sides are +inf
            hi, lo = float(gap.max()), float(gap.min())
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise GridError("symmetry residual overflows on this grid")
            worst = max(worst, hi, -lo)
    return PowerFit(c, worst)


def subadditive_minorant(f: GridFunction, tol: Tolerance = Tolerance()) -> MinorantResult:
    """Largest subadditive minorant of ``f`` via the min-plus recurrence.

    ``sigma[k]`` is the exact minimum over all grid partitions of ``x_k`` into
    parts of index >= 1 of the summed values (left-nested addition), so
    ``sigma <= f`` and ``residual = f - sigma >= 0`` hold without tolerance.
    ``bounded_variation`` records whether the input was non-decreasing, in
    which case the residual is a difference of two monotone functions.

    The recurrence ``S[k] = min(v[k], min_{1 <= j < k} S[j] + v[k - j])`` is
    settled in blocks of ``MINORANT_BLOCK`` consecutive indices.  A block's
    candidates from the finished ``j`` below it form one strided tile over a
    reversed copy of ``v`` (``grid._strided_rows``), reduced by row minimum in
    chunks of at most ``PAIR_BLOCK`` pairs.  The at most ``B(B-1)/2``
    candidates with ``j`` inside the block (``B = MINORANT_BLOCK``) are then
    taken in order on Python floats, the same IEEE doubles.  Every candidate is the rounded sum
    ``fl(S[j] + v[k - j])`` that a loop over one index at a time computes, and
    ``min`` is exact, so the grouping cannot change a value.  The cost is
    N^2/2 pairs in tiles plus about N*B/2 scalar additions; the memory is O(N)
    plus one tile of at most ``PAIR_BLOCK`` doubles.

    Signed zeros: ``sigma[k]`` keeps ``v[k]``, bits included, unless some
    candidate is strictly smaller, so a zero ``v[k]`` keeps its sign.  A zero
    that replaces a positive ``v[k]`` is ``+0.0``, whatever the signs of the
    zero candidates.  So ``sigma`` does not depend on the order in which the
    candidates are reduced, and equals the loop's bit for bit on grids without
    ``-0.0`` (with one, the loop's sign follows ``np.min``'s order).
    """
    _require_zero_origin(f)
    _require_non_negative(f)

    v = f.values
    top = v.size - 1
    sigma = v.copy()
    rev = v[::-1].copy()  # rev[top - p] = v[p]
    near = v[:MINORANT_BLOCK].tolist()  # the y-operands v[k - j] of the in-block candidates
    workspace = np.empty(min(max(PAIR_BLOCK, MINORANT_BLOCK), top * MINORANT_BLOCK))  # one tile, reused
    # Values are non-negative, so a partition sum that overflows is +inf, never
    # the minimum, and a threshold v + margin that does accepts: both are ignored.
    with np.errstate(over="ignore"):
        for start in range(1, top + 1, MINORANT_BLOCK):
            rows = min(MINORANT_BLOCK, top + 1 - start)
            span = max(PAIR_BLOCK // rows, 1)
            # row minima of the candidates sigma[j] + v[start + r - j] of the finished j < start
            outer = None
            for j in range(1, start, span):
                cols = min(span, start - j)
                band = _strided_rows(rev, top - start + j, -1, rows, cols)
                tile = np.add(sigma[j:j + cols], band, out=workspace[:rows * cols].reshape(rows, cols))
                mins = tile.min(axis=1)
                outer = mins if outer is None else np.minimum(outer, mins, out=outer)
            best = [math.inf] * rows if outer is None else outer.tolist()
            block = sigma[start:start + rows].tolist()
            for r in range(rows):
                low = best[r]
                for q in range(r):  # j = start + q
                    t = block[q] + near[r - q]
                    if t < low:
                        low = t
                if low < block[r]:
                    block[r] = low + 0.0  # a replacing zero is +0.0
            sigma[start:start + rows] = block
        non_decreasing = bool(np.all(tol.leq_array(v[:-1], v[1:])))

    residual = v - sigma
    defect = float(np.max(residual))
    return MinorantResult(
        sigma=f.with_values(sigma),
        residual=f.with_values(residual),
        defect=defect,
        bounded_variation=non_decreasing,
    )
