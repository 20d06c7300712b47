"""Uniformly sampled real functions and the tolerance policy shared by all checks.

A :class:`GridFunction` stores a left endpoint (``origin``), a positive grid
spacing (``step``) and an array of sampled values.  Abscissas are always
recomputed as ``origin + i * step`` from the integer index, never accumulated,
so the index-to-abscissa mapping carries no drift.  Pairwise inequalities are
accepted by :meth:`Tolerance.leq` (elementwise: :meth:`Tolerance.leq_array`);
star-convexity and the power-fit verdict use the one-sided, grid-wide slack
:meth:`Tolerance.grid_slack` (``abs + rel * max|v|``) instead.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridError",
    "GridFunction",
    "Tolerance",
    "Witness",
    "read_csv",
    "read_json",
    "sample",
    "write_csv",
    "write_json",
]


MAX_SPACING_DEVIATION = 1e-3  # in steps: far above abscissa roundoff, far below a misplaced row


class GridError(ValueError):
    """Raised when input data violates a precondition of an operation."""


@dataclass(frozen=True)
class Tolerance:
    """Acceptance rule for floating-point inequalities.

    ``X <= Y`` is accepted iff ``X <= Y + abs + rel * max(|X|, |Y|)``.
    Equality is accepted iff both directions are.  ``rel`` must stay below 1,
    otherwise acceptance would not be monotone in ``Y``.
    """

    abs: float = 1e-9
    rel: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs) and self.abs >= 0.0):
            raise GridError(f"absolute tolerance must be finite and >= 0, got {self.abs}")
        if not (math.isfinite(self.rel) and 0.0 <= self.rel < 1.0):
            raise GridError(f"relative tolerance must be in [0, 1), got {self.rel}")

    def margin(self, x: float, y: float) -> float:
        if self.rel == 0.0:  # 0 * inf would make the margin NaN
            return self.abs
        return self.abs + self.rel * max(abs(x), abs(y))

    def leq(self, x: float, y: float) -> bool:
        return x <= y + self.margin(x, y)

    def leq_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`leq` with the same operation order, so bit for bit equal.

        Builds at most two temporaries of the broadcast shape besides the result.
        """
        if self.rel == 0.0:
            return x <= y + self.abs
        rhs = np.abs(x, out=np.empty(np.broadcast_shapes(np.shape(x), np.shape(y))))
        np.maximum(rhs, np.abs(y), out=rhs)
        np.multiply(rhs, self.rel, out=rhs)
        np.add(rhs, self.abs, out=rhs)
        np.add(rhs, y, out=rhs)
        return x <= rhs

    def grid_slack(self, values: np.ndarray) -> float:
        """One-sided slack ``abs + rel * max|values|`` shared by a whole grid."""
        return self.abs + self.rel * float(np.max(np.abs(values)))

    def geq(self, x: float, y: float) -> bool:
        return self.leq(y, x)

    def eq(self, x: float, y: float) -> bool:
        return self.leq(x, y) and self.leq(y, x)


@dataclass(frozen=True, slots=True)
class Witness:
    """A failing instance of an inequality: ``lhs <= rhs`` did not hold.

    ``indices`` identifies the grid points involved (meaning depends on the
    check that produced the witness; for pair scans it is ``(i, j)``).
    """

    indices: tuple[int, ...]
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        i, j = (self.indices + (None, None))[:2]
        return {"i": i, "j": j, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on ``origin + i * step`` for ``i = 0..N``.

    Immutable after construction; the value array is marked read-only so
    instances can be shared freely.  At least two samples are required and
    every value must be finite.
    """

    origin: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if vals.size < 2:
            raise GridError(f"need at least 2 samples, got {vals.size}")
        if not math.isfinite(self.origin):
            raise GridError(f"origin must be finite, got {self.origin}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise GridError(f"step must be finite and > 0, got {self.step}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise GridError(f"non-finite value {vals[i]} at index {i}")
        vals.flags.writeable = False
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        """Number of grid intervals (index of the last sample)."""
        return self.values.size - 1

    def x(self, i: int) -> float:
        return self.origin + i * self.step

    def xs(self) -> np.ndarray:
        return self.origin + np.arange(self.values.size) * self.step

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.origin, self.step, values)

    # --- structural equality (bit-exact) ---

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.step == other.step
            and np.array_equal(self.values, other.values)
        )

    # --- pointwise arithmetic on a shared grid ---

    def _require_same_grid(self, other: "GridFunction") -> None:
        if (
            self.origin != other.origin
            or self.step != other.step
            or self.values.size != other.values.size
        ):
            raise GridError("grid mismatch: origin, step and sample count must agree")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return self.with_values(self.values - other.values)

    def __neg__(self) -> "GridFunction":
        return self.with_values(-self.values)

    def __mul__(self, c: float) -> "GridFunction":
        return self.with_values(self.values * float(c))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GridFunction":
        if not isinstance(k, int) or k < 1:
            raise GridError(f"pointwise power expects a positive integer, got {k!r}")
        return self.with_values(self.values**k)

    def to_dict(self) -> dict:
        return {
            "origin": self.origin,
            "step": self.step,
            "values": [float(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, d: object) -> "GridFunction":
        """Inverse of :meth:`to_dict`; every field must hold JSON numbers only."""
        if not isinstance(d, dict):
            raise GridError(f"grid-function JSON must be an object, got {type(d).__name__}")
        try:
            origin, step, values = d["origin"], d["step"], d["values"]
        except KeyError as exc:
            raise GridError(f"missing key {exc} in grid-function JSON") from None
        if not isinstance(values, list):
            raise GridError(f"'values' must be a list of numbers, got {type(values).__name__}")
        for name, v in (("origin", origin), ("step", step), *(("values", v) for v in values)):
            if type(v) not in (int, float):  # bool, str, null and nested lists are not numbers
                raise GridError(f"non-numeric '{name}' in grid-function JSON: {type(v).__name__}")
        try:
            return cls(float(origin), float(step), np.array(values, dtype=np.float64))
        except OverflowError:
            raise GridError("an integer in grid-function JSON overflows a double") from None


def sample(
    source: str | Callable[[float], float] | Sequence[float],
    origin: float,
    step: float,
    count: int,
) -> GridFunction:
    """Build a GridFunction from an expression string, a callable, or a table.

    Expression strings are parsed by :mod:`funclass.expr`.  A table must have
    exactly ``count`` entries.  Evaluation that produces a non-finite value is
    rejected with the offending abscissa in the message.
    """
    if count < 2:
        raise GridError(f"need at least 2 samples, got count={count}")
    if not (math.isfinite(step) and step > 0.0):
        raise GridError(f"step must be finite and > 0, got {step}")

    if isinstance(source, str):
        from . import expr  # local import: expr depends on nothing here

        ast = expr.parse(source)
        fn: Callable[[float], float] = lambda t: expr.evaluate(ast, t)
    elif callable(source):
        fn = source
    else:
        table = np.asarray(list(source), dtype=np.float64)
        if table.size != count:
            raise GridError(f"table has {table.size} entries, expected count={count}")
        return GridFunction(origin, step, table)

    from .expr import EvalError

    vals = np.empty(count, dtype=np.float64)
    for i in range(count):
        xi = origin + i * step
        try:
            vals[i] = float(fn(xi))
        except EvalError as exc:
            raise GridError(f"evaluation failed at x={xi!r}: {exc}") from exc
        if not math.isfinite(vals[i]):
            raise GridError(f"non-finite value {vals[i]} at x={xi!r}")
    return GridFunction(origin, step, vals)


def write_csv(f: GridFunction, path: str | Path) -> None:
    """Write rows ``x,y`` with shortest round-trip float formatting."""
    lines = [f"{f.x(i)!r},{float(v)!r}" for i, v in enumerate(f.values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte offset {exc.start}"
        raise GridError(f"{path}: not UTF-8 text ({where})") from None


def read_csv(path: str | Path, tol: Tolerance | None = None) -> GridFunction:
    """Read a two-column ``x,y`` CSV (header optional) into a GridFunction.

    The x column must be strictly increasing and uniformly spaced: each x may
    deviate from ``origin + k * step`` within ``tol`` and by at most
    ``MAX_SPACING_DEVIATION`` steps.  The first offending line is reported.
    """
    tol = tol or Tolerance()
    text = _read_text(path)
    xs, ys, row_lines = array("d"), array("d"), array("q")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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

    if len(xs) < 2:
        raise GridError(f"need at least 2 data rows, got {len(xs)}")

    origin = xs[0]
    step = xs[1] - xs[0]
    if step <= 0.0:
        raise GridError(f"line {row_lines[1]}: x column must be strictly increasing")
    xv = np.frombuffer(xs, dtype=np.float64)
    expected = origin + np.arange(xv.size) * step
    off_grid = ~(tol.leq_array(xv, expected) & tol.leq_array(expected, xv))
    off_grid |= np.abs(xv - expected) > MAX_SPACING_DEVIATION * step
    backwards = np.concatenate(([False], xv[1:] <= xv[:-1]))
    bad = np.flatnonzero(off_grid | backwards)
    if bad.size:  # the first offending row; spacing is reported before order
        k = int(bad[0])
        if off_grid[k]:
            raise GridError(
                f"line {row_lines[k]}: non-uniform spacing, "
                f"x={xs[k]!r} but expected {float(expected[k])!r}"
            )
        raise GridError(f"line {row_lines[k]}: x column must be strictly increasing")
    return GridFunction(origin, step, np.frombuffer(ys, dtype=np.float64))


def write_json(f: GridFunction, path: str | Path) -> None:
    Path(path).write_text(json.dumps(f.to_dict()) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> GridFunction:
    text = _read_text(path)
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also the integer-digit limit and deep nesting
        raise GridError(f"invalid JSON: {exc}") from exc
    return GridFunction.from_dict(d)
