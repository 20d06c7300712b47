"""Distance-gated monotonicity: a function increases by a period ``d`` when
``f(x) <= f(y)`` for every pair with ``y - x >= d``.

The grid realization requires ``d`` to be an exact whole number ``w`` of steps.
The fast decision compares each value against the minimum of the suffix that
starts ``w`` steps later, which is equivalent to the all-pairs definition
because the acceptance rule is monotone in the right-hand side.

Heights measure oscillation: ``window_heights[i]`` is max minus min of the
values over ``[i, i+w]`` clipped to the grid, ``global_d`` is the largest
window height, and ``overall`` the full-range oscillation.  The monotone
envelopes (suffix minima and prefix maxima) bracket any ``d``-periodically
increasing function within ``global_d / 2`` of their average.

Everything is built from two O(N) array primitives: suffix minima (one
``np.minimum.accumulate``), which serve the decision, its witnesses, the
greatest periodic minorant and the envelopes; and sliding-window extrema by
the van Herk / Gil-Werman block method, which serve the heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridError, GridFunction, Tolerance, Witnesses

__all__ = [
    "EnvelopeSet",
    "HatBoundReport",
    "HeightProfile",
    "PeriodSpec",
    "PeriodicCheckResult",
    "PeriodicDecomposition",
    "PerturbationReport",
    "check_hat_bound",
    "decompose",
    "envelopes",
    "greatest_periodic_minorant",
    "heights",
    "is_periodically_increasing",
    "perturbation_check",
]


@dataclass(frozen=True)
class PeriodSpec:
    """A period ``d`` that is exactly ``w`` grid steps, with ``1 <= w <= N``."""

    d: float
    w: int

    @classmethod
    def for_grid(
        cls, f: GridFunction, d: float, tol: Tolerance = Tolerance()
    ) -> "PeriodSpec":
        """Validate ``d`` against the grid and snap it to ``w * step``.

        ``d`` must be within tolerance of a whole number of steps and fit
        inside the sampled interval; otherwise the nearest representable
        period is suggested.
        """
        if not (math.isfinite(d) and d > 0.0):
            raise GridError(f"period must be finite and positive, got {d!r}")
        steps = d / f.step  # inf when a huge d meets a tiny step
        if steps > f.n + 0.5:  # rounds past the grid, so ``round`` cannot overflow
            raise GridError(
                f"period {d!r} spans {steps:.6g} steps but the grid has only {f.n} intervals"
            )
        w = round(steps)
        snapped = w * f.step
        if w < 1 or not tol.eq(snapped, d):
            below = max(w, 1) * f.step
            above = (max(w, 1) + 1) * f.step
            nearest = below if abs(below - d) <= abs(above - d) else above
            raise GridError(
                f"period {d!r} is not a whole number of grid steps "
                f"(step {f.step!r}); nearest valid d is {nearest!r}"
            )
        return cls(d=snapped, w=w)


class PeriodicCheckResult(NamedTuple):
    holds: bool
    witnesses: Witnesses


@dataclass(frozen=True)
class HeightProfile:
    """Oscillation of the values over sliding windows of ``w`` steps.

    ``window_heights[i]`` covers indices ``[i, i+w]`` clipped to the grid
    (windows near the right edge shrink); ``global_d`` is their maximum and
    ``overall`` the oscillation over the whole grid.
    """

    window_heights: np.ndarray
    global_d: float
    overall: float


class EnvelopeSet(NamedTuple):
    f_lower: GridFunction
    f_upper: GridFunction
    f_hat: GridFunction


class HatBoundReport(NamedTuple):
    bound: float
    sup_err: float
    holds: bool


@dataclass(frozen=True)
class PerturbationReport:
    """Verdicts for perturbing an increasing ``g`` by a bounded ``k``.

    When every full window of ``g`` rises at least as much as ``k`` oscillates,
    both ``g + k`` and ``g - k`` must pass the periodic check; otherwise no
    claim is made and the verdict fields stay ``None``.
    """

    hypothesis_holds: bool
    min_window_height: float
    k_height: float
    plus: PeriodicCheckResult | None
    minus: PeriodicCheckResult | None


@dataclass(frozen=True)
class PeriodicDecomposition:
    """Split ``f = g + h`` with ``g`` non-decreasing and ``h`` ``d``-periodic.

    ``l`` is the common step ``f(x + d) - f(x)``; ``periodicity_error`` is the
    worst observed gap ``|h[i+w] - h[i]|``.
    """

    g: GridFunction
    h: GridFunction
    l: float
    periodicity_error: float


def _suffix_min(v: np.ndarray) -> np.ndarray:
    """``mins[t] = min(v[t:])``."""
    return np.minimum.accumulate(v[::-1])[::-1]


def is_periodically_increasing(
    f: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> PeriodicCheckResult:
    """Decide whether ``f(x) <= f(y)`` whenever ``y - x >= d`` on the grid.

    Each index is compared against the minimum over all indices at least ``w``
    steps later; a failure is witnessed by the pair ``(i, t)``, where ``t`` is
    the smallest index attaining that minimum.
    """
    _require_period(f, p)
    v = f.values
    mins = _suffix_min(v)
    starts = np.flatnonzero(~tol.leq_array(v[: -p.w], mins[p.w :]))
    ends = starts
    if starts.size:  # partners are looked up only for a failing check
        # the first index >= i + w that attains its own suffix minimum attains mins[i + w]
        at_min = np.flatnonzero(v == mins)
        ends = at_min[np.searchsorted(at_min, starts + p.w)]
    witnesses = Witnesses(starts, ends, v[starts], v[ends])
    return PeriodicCheckResult(holds=not witnesses, witnesses=witnesses)


def _require_period(f: GridFunction, p: PeriodSpec) -> None:
    if p.w < 1 or p.w > f.n:
        raise GridError(f"period of {p.w} steps does not fit a grid with {f.n} intervals")


def _require_periodically_increasing(f: GridFunction, p: PeriodSpec, tol: Tolerance) -> None:
    verdict = is_periodically_increasing(f, p, tol)
    if not verdict.holds:
        w = verdict.witnesses[0]
        raise GridError(
            f"function is not {p.d!r}-periodically increasing "
            f"(f({f.x(w.indices[0])!r}) = {w.lhs!r} > f({f.x(w.indices[1])!r}) = {w.rhs!r})"
        )


def _window_extremum(v: np.ndarray, w: int, ufunc: np.ufunc, pad: float) -> np.ndarray:
    """``ufunc`` over every window ``[i, i+w]`` clipped to the grid (van Herk / Gil-Werman).

    Blocks of ``w + 1`` samples, padded with ``pad``, hold each window in one
    block or across two adjacent ones, so its extremum is that of the suffix
    of ``i``'s block and the prefix of ``(i+w)``'s block.
    """
    width = w + 1
    blocks = np.full(-(-(v.size + w) // width) * width, pad)
    blocks[: v.size] = v
    blocks = blocks.reshape(-1, width)
    suffix = np.empty_like(blocks)
    ufunc.accumulate(blocks[:, ::-1], axis=1, out=suffix[:, ::-1])
    prefix = ufunc.accumulate(blocks, axis=1, out=blocks)
    return ufunc(suffix.reshape(-1)[: v.size], prefix.reshape(-1)[w : w + v.size])


def _window_heights(v: np.ndarray, w: int) -> np.ndarray:
    """``max - min`` over every window ``[i, i+w]``, +inf where it passes the float range."""
    out = _window_extremum(v, w, np.maximum, -np.inf)
    with np.errstate(over="ignore"):
        out -= _window_extremum(v, w, np.minimum, np.inf)
    return out


def heights(f: GridFunction, p: PeriodSpec) -> HeightProfile:
    """Sliding-window oscillation from block prefix and suffix extrema, O(N) overall.

    A height past the float range is a ``GridError``.  ``global_d`` is the
    largest window height, so checking it and ``overall`` covers every height
    without another pass over the grid.
    """
    _require_period(f, p)
    v = f.values
    out = _window_heights(v, p.w)
    global_d = float(np.max(out))
    overall = float(np.max(v)) - float(np.min(v))  # Python floats overflow to inf silently
    if not (math.isfinite(global_d) and math.isfinite(overall)):
        raise GridError("window heights overflow on this grid")
    return HeightProfile(window_heights=out, global_d=global_d, overall=overall)


def greatest_periodic_minorant(f: GridFunction, p: PeriodSpec) -> GridFunction:
    """Largest ``d``-periodically increasing function below ``f``.

    Cap each value by the minimum of everything at least ``w`` steps to the
    right; where no such point exists the value is kept.
    """
    _require_period(f, p)
    v = f.values
    mins = _suffix_min(v)
    out = v.copy()
    cut = v.size - p.w
    out[:cut] = np.minimum(v[:cut], mins[p.w:])
    return f.with_values(out)


def envelopes(f: GridFunction) -> EnvelopeSet:
    """Largest increasing minorant, smallest increasing majorant, and their mean."""
    v = f.values
    lower = _suffix_min(v)
    upper = np.maximum.accumulate(v)
    hat = (lower + upper) / 2.0
    return EnvelopeSet(
        f_lower=f.with_values(lower),
        f_upper=f.with_values(upper),
        f_hat=f.with_values(hat),
    )


def check_hat_bound(
    f: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> HatBoundReport:
    """Verify ``sup |f - f_hat| <= global_d / 2`` for a periodically increasing f."""
    _require_periodically_increasing(f, p, tol)
    bound = heights(f, p).global_d / 2.0
    v = f.values
    with np.errstate(over="ignore"):  # a mean past the float range fails in with_values
        hat = f.with_values((_suffix_min(v) + np.maximum.accumulate(v)) / 2.0)  # envelopes' f_hat
    sup_err = float(np.max(np.abs(v - hat.values)))
    return HatBoundReport(bound=bound, sup_err=sup_err, holds=tol.leq(sup_err, bound))


def perturbation_check(
    g: GridFunction, k: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> PerturbationReport:
    """Check that ``g + k`` and ``g - k`` stay periodically increasing.

    Requires ``g`` non-decreasing on the same grid as ``k``.  The hypothesis
    compares the smallest full-window rise of ``g`` against the oscillation of
    ``k``; if it fails, the perturbed functions are not judged.  An oscillation
    of ``k`` past the float range is a ``GridError``.
    """
    g._require_same_grid(k)
    _require_period(g, p)
    v = g.values
    rising = tol.leq_array(v[:-1], v[1:])
    if not np.all(rising):
        i = int(np.flatnonzero(~rising)[0])
        raise GridError(f"g must be non-decreasing, but g[{i}] > g[{i + 1}]")

    full = _window_heights(v, p.w)[: v.size - p.w]  # +inf past the float range, still a bound
    min_window = float(np.min(full))
    with np.errstate(over="ignore"):
        k_height = float(np.max(k.values) - np.min(k.values))
    if not math.isfinite(k_height):
        raise GridError("the height of k overflows on this grid")
    hypothesis = tol.geq(min_window, k_height)
    if not hypothesis:
        return PerturbationReport(False, min_window, k_height, plus=None, minus=None)
    return PerturbationReport(
        hypothesis_holds=True,
        min_window_height=min_window,
        k_height=k_height,
        plus=is_periodically_increasing(g + k, p, tol),
        minus=is_periodically_increasing(g - k, p, tol),
    )


def decompose(
    f: GridFunction, p: PeriodSpec, tol: Tolerance = Tolerance()
) -> PeriodicDecomposition:
    """Split a periodically increasing ``f`` with constant step into ``g + h``.

    Requires the sampled interval to be longer than ``2d`` and the shift
    differences ``f(x + d) - f(x)`` to be constant (checked with a margin ten
    times looser than the base tolerance, since this is a hypothesis on data).
    ``g`` is the largest increasing minorant; ``h = f - g`` is ``d``-periodic.
    A shift difference past the float range is a ``GridError``.
    """
    _require_period(f, p)
    if f.n <= 2 * p.w:
        raise GridError(
            f"interval of {f.n} steps is not longer than twice the period ({2 * p.w} steps)"
        )
    _require_periodically_increasing(f, p, tol)

    v = f.values
    with np.errstate(over="ignore"):  # an overflowing difference is +-inf, rejected below
        diffs = v[p.w:] - v[: v.size - p.w]
    hi = int(np.argmax(diffs))
    lo = int(np.argmin(diffs))
    if not (math.isfinite(diffs[hi]) and math.isfinite(diffs[lo])):
        raise GridError("shift differences overflow on this grid")
    scaled = 10.0 * tol.abs
    if not math.isfinite(scaled):
        raise GridError(
            f"absolute tolerance must be finite and >= 0 when scaled tenfold for the "
            f"constant-shift check, got {tol.abs!r} (10 * {tol.abs!r} overflows)"
        )
    allowed = Tolerance(scaled, tol.rel).grid_slack(v)
    if diffs[hi] - diffs[lo] > allowed:
        raise GridError(
            f"shift difference is not constant: f(x+d) - f(x) is {float(diffs[hi])!r} "
            f"at index {hi} but {float(diffs[lo])!r} at index {lo}"
        )
    step_l = float(np.mean(diffs))

    g = f.with_values(_suffix_min(v))
    h = f - g
    hv = h.values
    per_err = float(np.max(np.abs(hv[p.w:] - hv[: hv.size - p.w])))
    return PeriodicDecomposition(g=g, h=h, l=step_l, periodicity_error=per_err)
