"""Brute-force ground truth for tests: slow, obvious, production code never calls it.

``minorant_bruteforce`` enumerates every ordered partition of an index into
positive parts and folds the values left to right, which is exactly the set of
sums the min-plus recurrence minimizes over, so the two agree bit for bit.
The size cap keeps the exponential enumeration honest.

``pair_scan_bruteforce`` is the scalar double loop behind every
subadditivity-family pair scan: one ``ratio_coefficient`` and one
``Tolerance.leq`` per pair, so the blocked kernel must match it bit for bit.
``periodic_witnesses_bruteforce`` rescans the suffix of every index with
scalar comparisons and one ``Tolerance.leq``, the reference for the
vectorised periodic witnesses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .grid import GridError, GridFunction, Tolerance, Witness, sample
from .periodic import PeriodSpec
from .starconvex import is_center
from .subadd import ratio_coefficient

__all__ = [
    "center_check_hires",
    "minorant_bruteforce",
    "pair_scan_bruteforce",
    "periodic_check_bruteforce",
    "periodic_witnesses_bruteforce",
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


def pair_scan_bruteforce(
    f: GridFunction, n: int, tol: Tolerance | None = None, weak: bool = False
) -> tuple[Witness, ...]:
    """Failing pairs of the order-``n`` inequality, or of the weak bound, in ``(i, j)`` order.

    The grid may start ``m`` whole steps from 0; witness indices are then step
    multiples.  Order ``n``: ``f(x+y) <= f(x) + r(x, y, n) f(y)`` for ``y > 0``.
    Weak bound: ``f(x+y) <= max(f(x) + q f(y), q f(x) + f(y))``, ``q = 2^n - 1``,
    for ``x, y > 0``.
    """
    tol = tol or Tolerance()
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


def periodic_check_bruteforce(
    f: GridFunction, p: PeriodSpec, tol: Tolerance | None = None
) -> bool:
    """All-pairs transcription of the definition: ``v[i] <= v[t]`` when ``t - i >= w``."""
    tol = tol or Tolerance()
    v = f.values
    i = np.arange(v.size)[:, None]
    t = np.arange(v.size)[None, :]
    applies = t - i >= p.w
    return bool(np.all(~applies | tol.leq_array(v[:, None], v[None, :])))


def periodic_witnesses_bruteforce(
    f: GridFunction, p: PeriodSpec, tol: Tolerance | None = None
) -> tuple[Witness, ...]:
    """Indices ``i`` failing ``v[i] <= min(v[i+w:])``, each paired with the first minimizer."""
    tol = tol or Tolerance()
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


def center_check_hires(
    source: str | Callable[[float], float] | Sequence[float],
    f: GridFunction,
    p: int,
    factor: int = 4,
    tol: Tolerance | None = None,
) -> bool:
    """Re-run the center test on a ``factor`` times denser resampling of ``source``.

    The source must be an expression or callable (a denser grid cannot be read
    off stored samples); the coarse abscissas land exactly on the fine grid.
    """
    if factor < 2:
        raise GridError(f"resampling factor must be >= 2, got {factor}")
    fine = sample(source, f.origin, f.step / factor, f.n * factor + 1)
    return is_center(fine, p * factor, tol)
