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

import functools
import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridError",
    "GridFunction",
    "Tolerance",
    "Witness",
    "Witnesses",
    "read_csv",
    "read_json",
    "sample",
    "write_csv",
    "write_json",
]


class GridError(ValueError):
    """Raised when input data violates a precondition of an operation."""


@dataclass(frozen=True)
class Tolerance:
    """Acceptance rule for floating-point inequalities.

    ``X <= Y`` is accepted iff ``X <= Y + abs + rel * max(|X|, |Y|)``, except
    that an infinite ``X``, whose margin is infinite too, is accepted only
    against ``Y = +inf``.  Equality is accepted iff both directions are.
    ``rel`` must stay below 1, otherwise acceptance would not be monotone in ``Y``.
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
        if math.isinf(x):
            return y == math.inf
        return x <= y + self.margin(x, y)

    def leq_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`leq` with the same operation order, so bit for bit equal.

        Builds at most two temporaries of the broadcast shape besides the result
        when every ``x`` is finite; the test for that reads ``x`` alone.
        """
        infinite = np.isinf(x)
        if infinite.any():  # those entries are decided by y alone; their stand-in 0 may meet y = inf
            with np.errstate(over="ignore", invalid="ignore"):
                rest = self.leq_array(np.where(infinite, 0.0, x), y)
            return np.where(infinite, y == np.inf, rest)
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


_ABSCISSA_TOL = Tolerance()  # read_csv: each x equals origin + k * step under the default rule
MAX_SPACING_DEVIATION = 1e-3  # in steps: far above abscissa roundoff, far below a misplaced row
# Points per array pass of an expression in sample(), and about the lines per
# block read from a CSV file: bounds every temporary independently of the grid
# size, a deep expression's stack of operand arrays included.
_CHUNK = 1 << 14


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


class Witnesses(Sequence[Witness]):
    """Failing pairs as four columns: indices ``i``, ``j`` and sides ``lhs``, ``rhs``.

    A read-only sequence of ``Witness((i, j), lhs, rhs)`` at 32 bytes per pair:
    ``len`` is O(1), an item is built only when it is read, and the sequence
    equals the tuple of the same witnesses, so ``report.violations == ()``
    holds when nothing failed.
    """

    __slots__ = ("i", "j", "lhs", "rhs")

    def __init__(self, i: np.ndarray, j: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> None:
        columns = (np.asarray(i, np.int64), np.asarray(j, np.int64),
                   np.asarray(lhs, np.float64), np.asarray(rhs, np.float64))
        if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
            raise GridError("witness columns must be 1-D and of one length")
        self.i, self.j, self.lhs, self.rhs = (column.view() for column in columns)
        for column in (self.i, self.j, self.lhs, self.rhs):  # views: the caller's keep their flags
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.i.size

    def __getitem__(self, k: int) -> Witness:  # type: ignore[override]
        if not -len(self) <= k < len(self):
            raise IndexError(f"witness index {k} out of range for {len(self)} witnesses")
        return Witness((int(self.i[k]), int(self.j[k])), float(self.lhs[k]), float(self.rhs[k]))

    def __iter__(self) -> Iterator[Witness]:
        pairs = zip(self.i.tolist(), self.j.tolist())
        return map(Witness, pairs, self.lhs.tolist(), self.rhs.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Witnesses, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented


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
        """Every abscissa; one past the float range is ``inf``, without a warning."""
        with np.errstate(over="ignore"):
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
            "values": self.values.tolist(),
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

    Expression strings are parsed by :mod:`funclass.expr` and evaluated over
    ``_CHUNK`` points at a time with :func:`funclass.expr.evaluate_array`,
    which gives the bits :func:`funclass.expr.evaluate` gives point by point.
    A callable is called once per point.  A table must have exactly ``count``
    entries.  Evaluation that fails or produces a non-finite value is rejected
    with the first offending abscissa in the message, and a ``count`` whose
    value array numpy refuses to allocate with the bytes it needs.
    """
    if count < 2:
        raise GridError(f"need at least 2 samples, got count={count}")
    if not (math.isfinite(step) and step > 0.0):
        raise GridError(f"step must be finite and > 0, got {step}")

    try:
        vals = np.empty(count, dtype=np.float64)
    except (ValueError, MemoryError):  # numpy refuses the size before allocating
        raise GridError(f"cannot hold {count} samples: {8 * count} bytes needed") from None
    if isinstance(source, str):
        from . import expr  # local import: expr depends on nothing here

        ast = expr.parse(source)
        for start in range(0, count, _CHUNK):
            stop = min(start + _CHUNK, count)
            with np.errstate(over="ignore"):  # x past the float range is inf, as in the loop
                xs = origin + np.arange(start, stop) * step
            try:
                chunk = expr.evaluate_array(ast, xs)
            except expr.EvalError:
                chunk = None
            if chunk is not None and np.isfinite(chunk).all():
                vals[start:stop] = chunk
            else:  # the scalar loop names the first failing x, with evaluate's message
                _sample_points(lambda t: expr.evaluate(ast, t), origin, step, vals, start, stop)
    elif callable(source):
        _sample_points(source, origin, step, vals, 0, count)
    else:
        vals = np.asarray(list(source), dtype=np.float64)
        if vals.size != count:
            raise GridError(f"table has {vals.size} entries, expected count={count}")
    return GridFunction(origin, step, vals)


def _sample_points(
    fn: Callable[[float], float],
    origin: float,
    step: float,
    vals: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Fill ``vals[start:stop]`` one point at a time; the first failing point raises."""
    from .expr import EvalError

    for i in range(start, stop):
        xi = origin + i * step
        try:
            vals[i] = float(fn(xi))
        except EvalError as exc:
            raise GridError(f"evaluation failed at x={xi!r}: {exc}") from exc
        if not math.isfinite(vals[i]):
            raise GridError(f"non-finite value {vals[i]} at x={xi!r}")


def write_csv(f: GridFunction, path: str | Path) -> None:
    """Write rows ``x,y``, each float as its ``repr`` (see :func:`repr_bytes`)."""
    _write_columns(path, (f.xs(), f.values))


def _write_columns(
    path: str | Path, columns: Sequence[np.ndarray], header: str | None = None
) -> None:
    """Write equal-length float64 columns as rows of ``repr``s, ``_REPR_BLOCK`` rows per write.

    The line ``header`` comes first when one is given.  Cells are separated
    by ``,`` and rows end in ``\n``; the blocks come from :func:`_repr_rows`.
    """
    with Path(path).open("w", encoding="utf-8") as out:
        if header is not None:
            out.write(header + "\n")
        for block in _repr_rows(columns, b"," * (len(columns) - 1) + b"\n"):
            out.write(block.decode("ascii"))


# --- repr bytes of float64 columns ---------------------------------------------

_REPR_BLOCK = 8192  # entries per pass of repr_bytes: 64 KiB per float64 temporary
_REPR_WORDS = 6  # uint64 words per record: 48 bytes
_REPR_SEP = 45  # the separator's byte in a record
_REPR_MARGIN = 1e-9  # a rounding or interval test this close to its boundary falls back
_REPR_RANGE = (1e-280, 1e280)  # |x| the scaling covers; see repr_bytes
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW_MIN, _POW_MAX = -300, 300  # the tabled powers of ten
_EXP_MAX = 300  # the tabled exponent texts e-300 .. e+300
# Entries of the word table: 4-digit groups, then (sign, head, first digit), then exponents
_WORD_HEAD = 10_000
_WORD_EXP = _WORD_HEAD + 100 + _EXP_MAX
_WORD_NO_EXP = _WORD_EXP + _EXP_MAX + 1


class _ReprTables(NamedTuple):
    hi: np.ndarray  # fl(10^s) for s = _POW_MIN .. _POW_MAX
    lo: np.ndarray  # fl(10^s - hi)
    hi_upper: np.ndarray  # hi's Veltkamp split: hi_upper + hi_lower = hi, 26 bits each
    hi_lower: np.ndarray
    words: np.ndarray  # uint64 record words, as bytes, by the _WORD_* layout
    last: np.ndarray  # [g * 10000 + v]: the place of the last nonzero digit if group g+1 holds v
    keep: np.ndarray  # [w, k]: word w of the mask that keeps digits 1..k and every non-digit byte
    dot: np.ndarray  # [w, p]: word w of the record with "." after digit p, 0 for none


@functools.cache
def _repr_tables() -> _ReprTables:
    """The tables of :func:`repr_bytes`, built on first use: about 150 KB."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi.append(num / den)  # int / int division rounds correctly
        m, d = hi[-1].as_integer_ratio()
        lo.append((num * d - m * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    upper = c - (c - hi)
    v = np.arange(10_000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], 1)
    groups = np.zeros((10_000, 8), np.uint8)
    groups[:, ::2] = ord("0") + digits  # each digit with a zero byte after it
    heads = [(sign + head).ljust(6, b"\0") + bytes((ord("0") + top, 0))
             for sign in (b"", b"-") for head in (b"", b"0.", b"0.0", b"0.00", b"0.000")
             for top in range(10)]
    exponents = [(b"e%+03d" % e).ljust(8, b"\0") for e in range(-_EXP_MAX, _EXP_MAX + 1)]
    words = groups.tobytes() + b"".join(heads + exponents) + bytes(8)
    used = 4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0)  # digits up to the last nonzero one
    last = np.concatenate([np.where(v > 0, used + first, first == 1) for first in (1, 5, 9, 13)])
    keep = [b"\xff" * 8 + b"".join(b"\xff\0" if digit <= k else bytes(2) for digit in range(2, 18))
            + b"\xff" * 8 for k in range(18)]
    dot = [bytes(5 + 2 * p) + b"." + bytes(42 - 2 * p) if p else bytes(48) for p in range(17)]
    tables = _ReprTables(
        hi, lo, upper, hi - upper, np.frombuffer(words, np.uint64), last.astype(np.int8),
        np.frombuffer(b"".join(keep), np.uint64).reshape(-1, _REPR_WORDS).T.copy(),
        np.frombuffer(b"".join(dot), np.uint64).reshape(-1, _REPR_WORDS).T.copy())
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def repr_bytes(column: np.ndarray, sep: bytes = b"\n") -> bytes:
    """The ASCII ``repr`` of each entry of a float64 column, each followed by ``sep``.

    Byte for byte ``b"".join(repr(v).encode() + sep for v in column.tolist())``
    for a one-byte ``sep``, computed ``_REPR_BLOCK`` entries at a time by
    :func:`_repr_records` in whole-array float and int64 passes.  Entries the
    argument below does not cover are formatted by ``repr`` itself.

    ``repr`` writes the shortest decimal that reads back as ``x``, and of
    those the nearest to ``x`` (David Gay's shortest mode, as in Ryu: Adams,
    PLDI 2018).  For ``a = |x| = m * 2**(e-53)``, ``2**52 <= m < 2**53``, the
    neighbours of ``a`` lie ``2**(e-53)`` away, so a decimal ``v`` reads back
    as ``a`` iff ``|v - a| < 2**(e-54)``, or ``=`` when ``m`` is even.

    * ``E = floor(log10 a)`` comes from ``floor((e - 1) log10 2)``, taken as
      ``(e - 1) * 78913 >> 18``, plus one where ``a >= fl(10**(E + 1))``.
    * ``y = a * 10**s``, ``s = 16 - E``, is a double-double ``hi + lo``: the
      power is tabled as ``P_hi + P_lo``, correctly rounded from the exact
      value, with ``P_hi`` split in advance; a Veltkamp split (``2**27 + 1``)
      of ``a`` makes ``a * P_hi`` exact as ``p + err`` (Dekker, Numer. Math.
      18, 1971); ``a * P_lo``, the table's rounding and the sum add errors of
      about ``2**-105 * y``, so ``hi + lo`` is within about 5e-15 of ``y``
      while ``y < 1e17``.
    * ``D = int64(hi) + rint(lo)`` is the integer nearest ``y`` once ``hi`` is
      an integer, as every double from ``2**53`` on is, and
      ``f = lo - rint(lo)`` is ``y - D``.  ``E`` is moved by one, and ``y``
      recomputed, where ``D`` falls outside ``[1e16, 1e17)``; an entry still
      outside falls back.  ``D`` then has 17 digits, those ``repr`` writes
      when no shorter decimal reads back; ``y`` may lie just below ``1e16``.
    * The half-spacing scales to ``h = ldexp(10**s, e - 54)``, taken as
      ``P_hi * 2**(e-54)``.  From ``2**(e-1) <= a < 2**e``,
      ``y * 2**-54 < h <= y * 2**-53``: ``h`` lies in ``(0.555, 11.1]``.
    * Scaled, the decimals that read back are those in ``(y - h, y + h)``.
      Where that holds ``1e16`` or ``1e17``, the power is the shortest of
      them and the multiple of 100 nearest ``y``.  Elsewhere each of them
      with at most 17 significant digits is an integer, and with ``17 - k``
      a multiple of ``10**k``.  So at ``k = 1`` only the multiple of 10
      nearest ``y`` can be ``repr``'s, and at every ``k >= 2`` only the
      multiple of 100 nearest ``y`` can, since the interval is narrower than
      100; that multiple's trailing zeros give the rest of ``k``.  The 17 digits are
      those of the multiple of 100 when it is within ``h``, else those of the
      multiple of 10 when it is, else ``D``; ``1e17`` is written as ``1e16``
      with ``E + 1``.
    * The text is ``repr``'s layout of the digits with their trailing zeros
      dropped and ``decpt = E + 1``: exponent form iff ``decpt <= -4`` or
      ``decpt > 16``, with at least two exponent digits and no ``.`` after a
      one-digit mantissa; fixed form otherwise, ``0.`` and ``-decpt`` zeros
      before the digits when ``decpt <= 0``, and ``.0`` after an integral value.

    Entries that fall back to ``repr``, and why:

    * zeros, subnormals and ``|x|`` outside ``_REPR_RANGE``: zero has no
      ``E``, subnormals fewer than 53 bits, and beyond about 1e-284 and
      1.3e300 the split of the tabled power or of ``a`` overflows and the
      power's ``lo`` part loses bits; inf and NaN fail the range test too;
    * exact powers of two (``m = 2**52``): the neighbour below lies half as
      far away, so the interval is not symmetric;
    * a rounding or interval test within ``_REPR_MARGIN`` of its boundary,
      far above the 5e-15 error: ``|f|`` near 1/2 (which way ``D`` rounds),
      ``y`` near halfway between two multiples of 10 (``repr`` takes the
      even digit), and a distance to the nearest multiple of 10 or 100 near
      ``h`` (whether the boundary reads back depends on ``m``'s parity).
    """
    return b"".join(_repr_rows([np.asarray(column, dtype=np.float64)], sep))


def _repr_rows(columns: Sequence[np.ndarray], seps: bytes) -> Iterator[bytes]:
    """Blocks of ``_REPR_BLOCK`` rows: in each row, each column's ``repr`` and its byte of ``seps``.

    A block is one array of rows, each row the columns' records from
    :func:`_repr_records` with their separator bytes set, so one
    ``bytes.translate`` drops every pad byte of the block.  The array is
    allocated once and reused by every block.
    """
    size = columns[0].size
    rows = np.empty((min(size, _REPR_BLOCK), len(columns), _REPR_WORDS), np.uint64)
    for start in range(0, size, _REPR_BLOCK):
        block = rows[:min(size - start, _REPR_BLOCK)]
        for k, column in enumerate(columns):
            _repr_records(column[start:start + _REPR_BLOCK], block[:, k])
        block.view(np.uint8)[:, :, _REPR_SEP] = np.frombuffer(seps, np.uint8)
        yield block.tobytes().translate(None, b"\0")


def _repr_records(values: np.ndarray, out: np.ndarray) -> None:
    """Write one 48-byte record per entry into the rows of ``out``, ``(n, 6)`` uint64.

    A record is the entry's ``repr`` padded with zero bytes, and its words
    are built one at a time, so no temporary holds more than ``n`` of them.

    Word 0 holds the sign, the ``0.000`` head of fixed-form values below 1,
    the first digit and its dot slot; words 1 to 4 the other 16 digits, each
    followed by its dot slot; word 5 the exponent text (5 bytes), the
    separator byte ``_REPR_SEP`` (left 0) and two pad bytes.  Digits past
    those ``repr`` writes are masked to 0, and the ``.`` goes into one dot
    slot.  An entry that falls back has ``repr``'s text at the start of its
    record.  See :func:`repr_bytes` for the argument.
    """
    t = _repr_tables()
    n = values.size
    a = np.abs(values)
    fast = (a >= _REPR_RANGE[0]) & (a <= _REPR_RANGE[1])
    fast &= (values.view(np.int64) & ((1 << 52) - 1)) != 0  # not a power of two
    a = np.where(fast, a, 1.5)  # a stand-in keeps the passes below finite
    e = (a.view(np.int64) >> 52) - 1022  # a in [2^(e-1), 2^e)
    E = (e - 1) * 78913 >> 18  # floor((e - 1) log10 2)
    E += a >= t.hi[E + 1 - _POW_MIN]
    D, f, scale = _scaled(a, E, t)
    shift = (D >= 10**17).astype(np.int64) - (D < 10**16)
    moved = np.flatnonzero(shift)
    if moved.size:
        E[moved] += shift[moved]
        D[moved], f[moved], scale[moved] = _scaled(a[moved], E[moved], t)
        fast[moved] &= (D[moved] >= 10**16) & (D[moved] < 10**17)
    h = scale * ((e + (1023 - 54)) << 52).view(np.float64)  # 10^s * 2^(e-54)
    D100 = D // 100 * 100
    r100 = (D - D100) + f  # y - D100, in [-0.5, 99.5]
    up100 = r100 > 50
    dist100 = np.abs(r100 - 100 * up100)
    D10 = D // 10 * 10
    r10 = (D - D10) + f
    up10 = r10 > 5
    dist10 = np.abs(r10 - 10 * up10)
    fast &= np.abs(f) < 0.5 - _REPR_MARGIN
    fast &= np.abs(r10 - 5) > _REPR_MARGIN
    fast &= np.abs(dist10 - h) > _REPR_MARGIN
    fast &= np.abs(dist100 - h) > _REPR_MARGIN
    # the 17 digits: the multiple of 100 nearest y if it reads back, else that of 10, else D
    N = np.where(dist100 < h, D100 + 100 * up100, np.where(dist10 < h, D10 + 10 * up10, D))
    over = N == 10**17  # written as 1e16 with E + 1
    N[over] = 10**16
    decpt = E + 1 + over

    # the digits as four groups of 4 after the first, looked up as words
    idx = np.empty((_REPR_WORDS, n), np.int64)
    upper = N // 10**8
    lower = N - upper * 10**8
    top = upper // 10**8
    upper -= top * 10**8
    idx[1] = upper // 10**4
    idx[2] = upper - idx[1] * 10**4
    idx[3] = lower // 10**4
    idx[4] = lower - idx[3] * 10**4
    digits = np.maximum(np.maximum(t.last[idx[1]], t.last[idx[2] + 10_000]),  # up to the last
                        np.maximum(t.last[idx[3] + 20_000], t.last[idx[4] + 30_000]))  # nonzero
    fixed = (decpt > -4) & (decpt <= 16)
    whole = fixed & (decpt >= 1)
    head = np.where(fixed & (decpt <= 0), 1 - decpt, 0)
    idx[0] = (np.signbit(values) * 5 + head) * 10 + top + _WORD_HEAD
    idx[5] = np.where(fixed, _WORD_NO_EXP, decpt - 1 + _WORD_EXP)
    # fixed form keeps the zeros up to one past the point; "." follows digit `dot`, if any
    keep = np.where(whole, np.maximum(digits, decpt + 1), digits)
    dot = np.where(whole, decpt, np.where(fixed, 0, digits > 1))
    for k, column in enumerate(idx):
        word = t.words[column]
        word &= t.keep[k, keep]
        word |= t.dot[k, dot]
        out[:, k] = word

    slow = np.flatnonzero(~fast)
    if slow.size:  # repr once per distinct bit pattern: a column of zeros is common
        distinct, at = np.unique(values[slow].view(np.int64), return_inverse=True)
        texts = [repr(v).encode() for v in distinct.view(np.float64).tolist()]
        padded = np.array(texts, f"S{8 * _REPR_WORDS}").view(np.uint64)
        out[slow] = padded.reshape(-1, _REPR_WORDS)[at]


def _scaled(a: np.ndarray, E: np.ndarray, t: _ReprTables) -> tuple[np.ndarray, ...]:
    """For ``y = a * 10**(16 - E)``: the integer ``D`` nearest ``y``, ``y - D``, and ``fl(10**(16 - E))``.

    ``y`` is the double-double ``hi + lo``; ``D`` is right where ``hi`` is an
    integer, as it is from ``2**53`` on.
    """
    k = 16 - E - _POW_MIN
    scale, scale_upper, scale_lower = t.hi[k], t.hi_upper[k], t.hi_lower[k]
    c = a * _SPLIT
    upper = c - (c - a)
    lower = a - upper
    p = a * scale
    lo = ((upper * scale_upper - p) + upper * scale_lower + lower * scale_upper
          + lower * scale_lower) + a * t.lo[k]
    hi = p + lo
    lo -= hi - p
    near = np.rint(lo)
    return hi.astype(np.int64) + near.astype(np.int64), lo - near, scale


def _read_text(path: str | Path) -> str:
    """The file decoded as UTF-8, universal newlines, without a leading byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # utf-8, not utf-8-sig: offsets count the mark's bytes
        where = f"{exc.reason} at byte offset {exc.start}"
        raise GridError(f"{path}: not UTF-8 text ({where})") from None
    return text.removeprefix("\ufeff")


_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' breaks besides "\n"


def read_csv(path: str | Path) -> GridFunction:
    """Read a two-column ``x,y`` CSV (header optional) into a GridFunction.

    Lines are those of ``str.splitlines``; blank lines are skipped, a line 1
    whose cells do not parse is a header, and each cell is read by ``float``
    after ``str.strip``.  The x column must be strictly increasing and
    uniformly spaced: each x must equal ``origin + k * step`` under the
    default :class:`Tolerance` and lie within ``MAX_SPACING_DEVIATION`` steps
    of it.  The first offending line is reported.
    """
    values, row_lines = _csv_rows(_read_text(path))
    return _grid_from_rows(values[:, 0], values[:, 1], row_lines)


def _csv_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, y)`` rows of a CSV text and their 1-based line numbers.

    The text is cut into blocks of about ``_CHUNK`` lines of 32 characters,
    each ending at a line end, and each block is parsed by :func:`_csv_block`.
    """
    if any(mark in text for mark in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())  # one "\n" per break: line numbers stay
    strip = "\x1f" in text  # whitespace to str.strip(), not to float()
    start = _header_end(text)
    lineno = 2 if start else 1
    blocks, lines = [np.empty((0, 2))], [np.empty(0, np.int64)]
    while start < len(text):
        stop = text.find("\n", start + 32 * _CHUNK)
        stop = len(text) if stop < 0 else stop
        values, rows, count = _csv_block(text[start:stop], lineno, strip)
        blocks.append(values)
        lines.append(rows)
        start, lineno = stop + 1, lineno + count
    return np.concatenate(blocks), np.concatenate(lines)


def _header_end(text: str) -> int:
    """Where the data start: past line 1 if it has two cells that do not parse."""
    end = text.find("\n")
    end = len(text) if end < 0 else end
    cells = text[:end].split(",")
    if len(cells) == 2:
        try:
            float(cells[0].strip()), float(cells[1].strip())
        except ValueError:
            return end + 1
    return 0


def _csv_block(block: str, first: int, strip: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``(x, y)`` rows of whole lines, their line numbers, and the line count.

    The block's first line is line ``first``.  A line holding one comma is a
    row, and a line holding none must be blank.  Commas and line ends are
    found in the UTF-8 bytes, where neither occurs inside a multi-byte
    character, and every cell goes through one ``float`` pass.  Only
    comma-free lines and the error path are looked at one by one.  The first
    bad line raises the :class:`GridError` that reading line by line raises
    for it.
    """
    codes = np.frombuffer(block.encode("utf-8"), np.uint8)
    ends = np.append(np.flatnonzero(codes == 10), codes.size)
    commas = np.diff(np.searchsorted(np.flatnonzero(codes == 44), ends), prepend=0)
    rows = np.flatnonzero(commas == 1)
    if rows.size == ends.size:
        cells = block.replace("\n", ",").split(",")
        ragged = ends.size
    else:
        lines = block.split("\n")
        filled = [k for k in np.flatnonzero(commas == 0).tolist() if lines[k].strip()]
        ragged = min(filled + np.flatnonzero(commas > 1)[:1].tolist(), default=ends.size)
        cells = ",".join(compress(lines, commas == 1)).split(",") if rows.size else []
    if strip:
        cells = list(map(str.strip, cells))
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:  # keep the rows before the first cell that float() rejects
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                break
        values = np.array(parsed[: len(parsed) // 2 * 2], np.float64)
    values = values.reshape(-1, 2)
    infinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    good = int(infinite[0]) if infinite.size else len(values)  # rows before the first bad one
    bad = min(ragged, int(rows[good]) if good < rows.size else ends.size)
    if bad < ends.size:
        line = block.split("\n")[bad].strip()
        if bad == ragged:
            message = f"expected two columns, got {commas[bad] + 1}"
        elif infinite.size:
            message = f"non-finite entry in {line!r}"
        else:
            message = f"could not parse numbers from {line!r}"
        raise GridError(f"line {first + bad}: {message}")
    return values, rows + first, ends.size


def _grid_from_rows(xv: np.ndarray, yv: np.ndarray, row_lines: np.ndarray) -> GridFunction:
    """The grid of CSV rows ``(xv[k], yv[k])`` read from lines ``row_lines[k]``.

    Checks that there are two rows and that the x column is a uniform,
    strictly increasing grid, naming the line of the first offending row.
    """
    if xv.size < 2:
        raise GridError(f"need at least 2 data rows, got {xv.size}")

    origin, second = float(xv[0]), float(xv[1])
    step = second - origin
    if step <= 0.0:
        raise GridError(f"line {row_lines[1]}: x column must be strictly increasing")
    if not math.isfinite(step):
        raise GridError(f"line {row_lines[1]}: x step {second!r} - {origin!r} overflows")
    # Near the float range, grid abscissae and margins may overflow to inf: a
    # row whose expected x is inf is off the grid, and an inf margin accepts.
    with np.errstate(over="ignore"):
        expected = origin + np.arange(xv.size) * step
        off_grid = ~(_ABSCISSA_TOL.leq_array(xv, expected) & _ABSCISSA_TOL.leq_array(expected, xv))
        off_grid |= np.abs(xv - expected) > MAX_SPACING_DEVIATION * step
    backwards = np.concatenate(([False], xv[1:] <= xv[:-1]))
    bad = np.flatnonzero(off_grid | backwards)
    if bad.size:  # the first offending row; spacing is reported before order
        k = int(bad[0])
        if off_grid[k]:
            raise GridError(
                f"line {row_lines[k]}: non-uniform spacing, "
                f"x={float(xv[k])!r} but expected {float(expected[k])!r}"
            )
        raise GridError(f"line {row_lines[k]}: x column must be strictly increasing")
    return GridFunction(origin, step, yv)


def write_json(f: GridFunction, path: str | Path) -> None:
    Path(path).write_text(json.dumps(f.to_dict()) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> GridFunction:
    text = _read_text(path)
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also the integer-digit limit and deep nesting
        raise GridError(f"invalid JSON: {exc}") from exc
    return GridFunction.from_dict(d)


def _strided_rows(table: np.ndarray, start: int, step: int, rows: int, cols: int) -> np.ndarray:
    """The view of ``table`` whose entry ``[r, c]`` is ``table[start + step * r + c]``.

    No copy is made: each row runs forward in memory and starts ``step``
    entries after the row above.  numpy checks that the view lies within
    ``table``.
    """
    size = table.itemsize
    return np.ndarray((rows, cols), table.dtype, table, start * size, (step * size, size))
