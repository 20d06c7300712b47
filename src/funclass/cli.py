"""Command-line front end: build a grid from an expression or CSV, run one
analysis, print a JSON report on stdout.

Reports are byte-identical to ``json.dumps(report, indent=2, allow_nan=False)``
with witnesses expanded to ``[w.to_dict() for w in witnesses]``, but come from
one writer here, ``_to_json``: with ``indent``, ``json`` runs a pure-Python
encoder that spends a generator step per value, which made it the slowest
stage of a large report.  Reports hold value arrays as the handlers' numpy
float64 columns, the same objects as the plot columns, and witnesses as
``grid.Witnesses`` columns; the writer encodes both column by column.  It
appends the text's fragments to one list and joins it once, witness rows
a block at a time.  Every column, a value array's or a witness list's,
comes as ``_ROW_BLOCK`` texts at a time from ``_repr_blocks``, which formats
a long column once per distinct value when at most 3/4 of a float column's
entries, or half of an int column's, are distinct, and long float blocks
with ``grid.repr_bytes``.

Exit codes: 0 when the checked property holds or the construction succeeded,
1 when a property fails (the report carries witnesses), 2 for usage or data
errors.  Tolerances default from the environment variables FUNCLASS_TOL_ABS
and FUNCLASS_TOL_REL, read on every call; flags override both.

``COMMANDS`` is the one table of commands: it drives both the parser and the
dispatch, so adding a command means adding one entry (name, help, handler,
flags).  The grammar is static, so ``run`` builds the parser once per process
and reuses it.  A handler returns whether the property holds, the JSON report
and any plot columns beyond ``x`` and ``f``; columns that include ``x`` replace
those two, and ``x`` and ``f`` are added only for ``--plot-csv``, whose file
comes from the CSV writer behind ``grid.write_csv``.  Commands that take
``--d`` find it validated against the grid as the ``PeriodSpec``
``args.period``, and their reports start with ``d`` and ``w``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import periodic, starconvex, subadd
from .expr import EvalError, ParseError
from .grid import (
    GridError, GridFunction, Tolerance, Witnesses, _write_columns, read_csv, repr_bytes, sample,
)

__all__ = ["build_parser", "main", "run"]

Columns = dict[str, np.ndarray]
Outcome = tuple[bool, dict, Columns]
Flag = tuple[tuple[str, ...], dict]  # add_argument's names and options


def _flag(*names: str, **options) -> Flag:
    return names, options


ORDER = _flag("--n", type=int, required=True, help="order n (1..60)")
PERIOD = _flag("--d", type=float, required=True, help="period (whole steps)")
INDEX = _flag("--p", type=int, required=True, help="center or split grid index")


class Command(NamedTuple):
    help: str
    handler: Callable[[GridFunction, argparse.Namespace, Tolerance], Outcome]
    flags: tuple[Flag, ...] = ()


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="expression in x, e.g. 'x^2 + 0.3*sin(2*pi*x)'")
    src.add_argument("--csv", help="path to a two-column x,y CSV file")
    p.add_argument("--from", dest="from_", type=float, default=0.0,
                   help="left endpoint for --expr sampling (default 0)")
    p.add_argument("--to", dest="to", type=float,
                   help="right endpoint for --expr sampling")
    p.add_argument("--samples", type=int, help="number of samples for --expr")
    p.add_argument("--tol-abs", type=float, default=None,
                   help="absolute tolerance (default 1e-9 or FUNCLASS_TOL_ABS)")
    p.add_argument("--tol-rel", type=float, default=None,
                   help="relative tolerance (default 1e-12 or FUNCLASS_TOL_REL)")
    p.add_argument("--plot-csv", dest="plot_csv", default=None,
                   help="also write per-point columns to this CSV path")


# Handlers look library functions up through their modules at call time, so
# anything that patches a module attribute also sees the CLI's calls.
def _check_order(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    rep = subadd.check_order(f, args.n, tol)
    return rep.holds, rep.to_dict(), {}


def _min_order(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    rep = subadd.minimal_order(f, args.n_max, tol)
    return rep.minimal_order is not None, rep.to_dict(), {}


def _root(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    g = subadd.nth_root_transform(f, args.n)
    rep = subadd.check_order(g, 1, tol)
    return rep.holds, {"transform": "root", "n": args.n, **rep.to_dict()}, {"root": g.values}


def _ratio(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    g = subadd.ratio_transform(f, args.n)
    rep = subadd.check_order_offset(g, 1, tol)
    out = {"transform": "ratio", "n": args.n, **rep.to_dict()}
    return rep.holds, out, {"x": g.xs(), "g": g.values}


def _weak_bound(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    rep = subadd.check_weak_bound(f, args.n, tol)
    return rep.holds, rep.to_dict(), {}


def _power_fit(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    fit = subadd.fit_power(f, args.n)
    holds = fit.max_residual <= tol.grid_slack(f.values)
    return holds, {"n": args.n, "c": fit.c, "max_residual": fit.max_residual, "holds": holds}, {}


def _minorant(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    res = subadd.subadditive_minorant(f, tol)
    columns = {"sigma": res.sigma.values, "residual": res.residual.values}
    out = {
        "defect": res.defect,
        "bounded_variation": res.bounded_variation,
        "sigma_subadditive": subadd.check_order(res.sigma, 1, tol).holds,
        **columns,
    }
    return True, out, columns


def _periodic_check(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    verdict = periodic.is_periodically_increasing(f, args.period, tol)
    out = {
        "periodic_increasing": verdict.holds,
        "witnesses": verdict.witnesses,
    }
    return verdict.holds, out, {}


def _heights(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    prof = periodic.heights(f, args.period)
    out = {
        "heights": {"global": prof.overall, "global_d": prof.global_d},
        "window_heights": prof.window_heights,
    }
    return True, out, {"window_height": prof.window_heights}


def _periodic_minorant(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    tilde = periodic.greatest_periodic_minorant(f, args.period).values
    return True, {"f_tilde": tilde}, {"f_tilde": tilde}


def _envelope(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    hat = periodic.check_hat_bound(f, args.period, tol)
    out = {"hat_bound": {"bound": hat.bound, "sup_err": hat.sup_err, "holds": hat.holds}}
    if not args.plot_csv:
        return hat.holds, out, {}
    return hat.holds, out, {name: g.values for name, g in periodic.envelopes(f)._asdict().items()}


def _decompose(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    dec = periodic.decompose(f, args.period, tol)
    columns = {"g": dec.g.values, "h": dec.h.values}
    out = {"decomposition": {"l": dec.l, "h_periodicity_error": dec.periodicity_error}, **columns}
    return True, out, columns


def _star_centers(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    rep = starconvex.central_set(f, tol)
    center = np.zeros(f.values.size)
    center[list(rep.centers)] = 1.0
    return rep.is_star_convex, rep.to_dict(), {"center": center}


def _star_classify(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    cls = starconvex.classify_shape(f, args.p, tol)
    return cls is not starconvex.ShapeClass.MIXED, {"p": args.p, "class": cls.value}, {}


def _star_region(f: GridFunction, args: argparse.Namespace, tol: Tolerance) -> Outcome:
    kind = starconvex.RegionKind(args.kind)
    split = args.p if kind.is_split else None
    region = starconvex.RegionSpec(kind, split, args.vertical_extent, args.vertical_samples)
    rep = starconvex.region_star_check(f, region, args.p, tol)
    check = {
        "kind": kind.value,
        "p": args.p,
        "ok": rep.ok,
        "witness": rep.witness.to_dict() if rep.witness else None,
    }
    return rep.ok, {"region_checks": [check]}, {}


COMMANDS: dict[str, Command] = {
    "check-order": Command("decide subadditivity of a given order", _check_order, (ORDER,)),
    "min-order": Command("smallest passing subadditivity order", _min_order, (
        _flag("--n-max", dest="n_max", type=int, required=True, help="largest order to consider"),
    )),
    "root": Command("n-th root transform, then order-1 check", _root, (ORDER,)),
    "ratio": Command("divide by x^n, then order-1 check on the shifted grid", _ratio, (ORDER,)),
    "weak-bound": Command(
        "coefficient-free relaxation with factor 2^n - 1", _weak_bound, (ORDER,)),
    "power-fit": Command("least-squares c*x^n fit and symmetry residual", _power_fit, (ORDER,)),
    "minorant": Command("largest subadditive minorant, residual, and defect", _minorant),
    "periodic-check": Command(
        "is the function increasing by the period d", _periodic_check, (PERIOD,)),
    "heights": Command(
        "sliding-window and global oscillation for period d", _heights, (PERIOD,)),
    "periodic-minorant": Command(
        "greatest d-periodically increasing minorant", _periodic_minorant, (PERIOD,)),
    "envelope": Command("monotone envelopes and the half-height bound", _envelope, (PERIOD,)),
    "decompose": Command("split into increasing plus d-periodic parts", _decompose, (PERIOD,)),
    "star-centers": Command("central set and per-center curvature classes", _star_centers),
    "star-classify": Command("curvature pattern around a split index", _star_classify, (INDEX,)),
    "star-region": Command("sampled star-shape test of a graph region", _star_region, (
        _flag("--kind", required=True, choices=[k.value for k in starconvex.RegionKind]),
        INDEX,
        _flag("--vertical-extent", dest="vertical_extent", type=float, default=1.0),
        _flag("--vertical-samples", dest="vertical_samples", type=int, default=64),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funclass",
        description="Analyze grid-sampled functions: subadditivity orders, "
        "periodic monotonicity, and star-convexity.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_source_args(p)
        for names, options in command.flags:
            p.add_argument(*names, **options)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and then reused: the grammar is static."""
    return build_parser()


def _tolerance(args: argparse.Namespace) -> Tolerance:
    """Each field from its flag, else its environment variable, else ``Tolerance()``'s."""
    fields = {}
    for field, flag in (("abs", args.tol_abs), ("rel", args.tol_rel)):
        var = f"FUNCLASS_TOL_{field.upper()}"
        if flag is not None:
            fields[field] = flag
        elif var in os.environ:
            try:
                fields[field] = float(os.environ[var])
            except ValueError:
                raise GridError(f"{var} must be a number, got {os.environ[var]!r}") from None
    return Tolerance(**fields)


def _load_grid(args: argparse.Namespace) -> GridFunction:
    if args.csv is not None:
        return read_csv(args.csv)
    if args.to is None or args.samples is None:
        raise GridError("--expr needs --to and --samples (and optionally --from)")
    if args.samples < 2:
        raise GridError(f"--samples must be at least 2, got {args.samples}")
    step = (args.to - args.from_) / (args.samples - 1)
    return sample(args.expr, args.from_, step, args.samples)


_CONSTANTS = {None: "null", True: "true", False: "false"}
# Below this many entries, np.unique's fixed cost (about 5 us) exceeds what
# formatting each distinct value once can save.
_DEDUP_MIN = 256
# At or above this many entries, a float64 column's texts come from
# grid.repr_bytes, below it from repr per entry: repr_bytes has a fixed cost
# of about 120 us a call, and measured on 17-digit values it breaks even with
# repr near 300 entries; on values of a few digits, whose repr is cheaper,
# only near 1,500.
_REPR_MIN = 1024
# Entries per block of _repr_blocks, which is also the witness rows per join
# in _witness_rows: a block's strings are joined and freed before the next
# block's are made.
_ROW_BLOCK = 16_384


class _NotFinite(Exception):
    """A float of the report is inf or NaN, which JSON cannot hold."""


def _finite(column: np.ndarray) -> np.ndarray:
    if not np.isfinite(column).all():
        raise _NotFinite
    return column


def _repr_blocks(column: np.ndarray) -> Iterator[list[str]]:
    """The ``repr`` of each entry of a 1-D int64 or float64 column, as ``json``
    writes it, in lists of ``_ROW_BLOCK`` entries, the last one shorter.

    A column of at least ``_DEDUP_MIN`` entries has each distinct value
    formatted once, and looked up per entry, when at most 3/4 of a float64
    column's entries are distinct, or at most half of an int64 column's.
    The cuts come from the costs per entry: a 17-digit float ``repr`` takes
    about 380 ns, a small int's about 60 ns, and a lookup about 25 ns.  The
    weak bound's mirrored pairs ``(i, j)``/``(j, i)`` share their ``rhs`` and
    ``slack`` bits: 65,536 distinct values in 130,816.  Values are told apart
    by their bits, so -0.0 is not 0.0.  The sort that counts them runs only
    when a sample of the column (see ``_has_repeats``) holds a repeat.
    Otherwise each block is formatted on its own.  Float64 values, a block or
    the distinct ones, of ``_REPR_MIN`` entries or more are formatted by
    ``grid.repr_bytes``, others by ``repr`` per entry.
    """
    def texts(values: np.ndarray) -> list[str]:
        if values.dtype == np.float64 and values.size >= _REPR_MIN:
            return repr_bytes(values).decode("ascii").split("\n")[:-1]  # none after the last
        return list(map(repr, values.tolist()))

    if column.size >= _DEDUP_MIN and _has_repeats(column):
        distinct, at = np.unique(column.view(np.int64), return_inverse=True)
        if distinct.size <= (0.75 if column.dtype == np.float64 else 0.5) * column.size:
            table = texts(distinct.view(column.dtype))
            for start in range(0, at.size, _ROW_BLOCK):
                yield list(map(table.__getitem__, at[start:start + _ROW_BLOCK].tolist()))
            return
    for start in range(0, column.size, _ROW_BLOCK):
        yield texts(column[start:start + _ROW_BLOCK])


def _has_repeats(column: np.ndarray) -> bool:
    """Whether a sample of about ``16 * sqrt(n)`` entries repeats a bit pattern.

    A column of at most 3/4 distinct entries has at least ``n/4`` entries
    that repeat another's bits.  A sample of ``m`` entries at random places
    then holds about ``m**2 / (4 n) = 64`` repeated pairs, so a sample
    without one says that a sort would find the column all but distinct.
    The places come from a fixed seed: a strided sample misses every pair of
    a mirrored column whose members lie an odd number of strides apart.
    Short columns are their own sample.  A wrong answer costs only time,
    never a byte.
    """
    size = 16 * math.isqrt(column.size)
    if size < column.size:
        places = np.sort(np.random.default_rng(0).integers(0, column.size, size))
        column = column[places[np.append(places[1:] != places[:-1], True)]]  # each place once
    sample = np.sort(column.view(np.int64))
    return bool((sample[1:] == sample[:-1]).any())


def _witness_rows(witnesses: Witnesses, indent: str, out: list[str]) -> None:
    """Append ``[w.to_dict() for w in witnesses]``'s items at ``indent``, as ``json`` writes them.

    The items come out joined by ``"," + indent``, from the columns: each
    block of ``_ROW_BLOCK`` rows is one list of ten strings per row, a key's
    text before each of the five values, with the columns' blocks from
    ``_repr_blocks`` assigned by slice between the keys, and is joined once.
    ``slack`` is ``lhs - rhs`` in numpy, the bits of ``Witness.slack``; it is
    finite only where both sides are.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slack = _finite(witnesses.lhs - witnesses.rhs)
    inner = indent + "  "
    columns = (witnesses.i, witnesses.j, witnesses.lhs, witnesses.rhs, slack)
    sep = "," + inner
    opener = "{" + inner + '"i": '
    # i's key text also closes the row before; the list's first row has just the opener
    row = [indent + "}," + indent + opener, None, sep + '"j": ', None, sep + '"lhs": ', None,
           sep + '"rhs": ', None, sep + '"slack": ', None]
    for b, texts in enumerate(zip(*map(_repr_blocks, columns))):
        block = row * len(texts[0])
        for k, column in enumerate(texts):
            block[2 * k + 1::10] = column
        if b == 0:
            block[0] = opener
        out.append("".join(block))
    out.append(indent + "}")


def _scalar(o: object) -> str | None:
    """``o`` as ``json`` writes it when it is a str, None, bool, int or float, else None."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise _NotFinite
        return float.__repr__(o)
    return None


def _key(key: object) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + _scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(o: object, indent: str, out: list[str]) -> None:
    """Append ``o`` to ``out`` as ``json.dumps(o, indent=2, allow_nan=False)`` writes it at ``indent``.

    A 1-D float64 ndarray is written as its ``tolist()``, and a ``Witnesses``
    as ``[w.to_dict() for w in o]``, column by column.  Containers append
    their brackets and separators around their items' fragments, so no text
    is copied on its way up.
    """
    text = _scalar(o)
    if text is not None:
        out.append(text)
        return
    inner = indent + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{" + inner)
        for k, v in o.items():
            out.append(_key(k) + ": ")
            _encode(v, inner, out)
            out.append(sep)
        out[-1] = indent + "}"  # the last separator
        return
    column = isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim == 1
    if not (column or isinstance(o, (list, tuple, Witnesses))):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not len(o):
        out.append("[]")
        return
    out.append("[" + inner)
    if isinstance(o, Witnesses):
        _witness_rows(o, inner, out)
    elif column:
        for texts in _repr_blocks(_finite(o)):
            out.append(sep.join(texts))
            out.append(sep)
        out.pop()  # the last separator
    else:
        for item in o:
            _encode(item, inner, out)
            out.append(sep)
        out.pop()
    out.append(indent + "]")


def _to_json(report: dict) -> str:
    """``report`` as ``json.dumps(report, indent=2, allow_nan=False)`` writes it, byte for byte.

    Value arrays (1-D float64 ndarrays) are written as their ``tolist()`` and a
    ``grid.Witnesses`` as ``[w.to_dict() for w in witnesses]``, both column by
    column; anything else goes through ``_encode`` value by value.  Every
    fragment goes into one list, joined once.  A non-finite float is a
    ``GridError``, and an unsupported type, another ndarray included, raises
    ``TypeError`` as in ``json``.
    """
    out: list[str] = []
    try:
        _encode(report, "\n", out)
    except _NotFinite:
        raise GridError("a result overflowed to inf or NaN, which JSON cannot hold") from None
    return "".join(out)


def _dispatch(args: argparse.Namespace) -> tuple[int, dict, Columns]:
    tol = _tolerance(args)
    f = _load_grid(args)
    command = COMMANDS[args.command]
    period = periodic.PeriodSpec.for_grid(f, args.d, tol) if PERIOD in command.flags else None
    args.period = period
    holds, report, columns = command.handler(f, args, tol)
    if period is not None:
        report = {"d": period.d, "w": period.w, **report}
    if args.plot_csv and "x" not in columns:
        columns = {"x": f.xs(), "f": f.values, **columns}
    return (0 if holds else 1), report, columns


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        code, report, plot = _dispatch(args)
        text = _to_json(report)
        if args.plot_csv:
            _write_columns(args.plot_csv, list(plot.values()), ",".join(plot))
    except (GridError, ParseError, EvalError) as exc:
        print(f"funclass: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"funclass: i/o error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def main() -> None:
    sys.exit(run())
