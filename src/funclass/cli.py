"""Command-line front end: build a grid from an expression or CSV, run one
analysis, print a JSON report on stdout.

Exit codes: 0 when the checked property holds or the construction succeeded,
1 when a property fails (the report carries witnesses), 2 for usage or data
errors.  Tolerances default from the environment variables FUNCLASS_TOL_ABS
and FUNCLASS_TOL_REL; flags override both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import periodic, starconvex, subadd
from .expr import EvalError, ParseError
from .grid import GridError, GridFunction, Tolerance, read_csv, sample

__all__ = ["build_parser", "main", "run"]


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funclass",
        description="Analyze grid-sampled functions: subadditivity orders, "
        "periodic monotonicity, and star-convexity.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        _add_source_args(p)
        return p

    p = command("check-order", "decide subadditivity of a given order")
    p.add_argument("--n", type=int, required=True, help="order to test (1..60)")

    p = command("min-order", "smallest passing subadditivity order")
    p.add_argument("--n-max", dest="n_max", type=int, required=True,
                   help="largest order to consider")

    p = command("root", "n-th root transform, then order-1 check")
    p.add_argument("--n", type=int, required=True)

    p = command("ratio", "divide by x^n, then order-1 check on the shifted grid")
    p.add_argument("--n", type=int, required=True)

    p = command("weak-bound", "coefficient-free relaxation with factor 2^n - 1")
    p.add_argument("--n", type=int, required=True)

    p = command("power-fit", "least-squares c*x^n fit and symmetry residual")
    p.add_argument("--n", type=int, required=True)

    command("minorant", "largest subadditive minorant, residual, and defect")

    p = command("periodic-check", "is the function increasing by the period d")
    p.add_argument("--d", type=float, required=True, help="period (whole steps)")

    p = command("heights", "sliding-window and global oscillation for period d")
    p.add_argument("--d", type=float, required=True)

    p = command("periodic-minorant", "greatest d-periodically increasing minorant")
    p.add_argument("--d", type=float, required=True)

    p = command("envelope", "monotone envelopes and the half-height bound")
    p.add_argument("--d", type=float, required=True)

    p = command("decompose", "split into increasing plus d-periodic parts")
    p.add_argument("--d", type=float, required=True)

    command("star-centers", "central set and per-center curvature classes")

    p = command("star-classify", "curvature pattern around a split index")
    p.add_argument("--p", type=int, required=True, help="split grid index")

    p = command("star-region", "sampled star-shape test of a graph region")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in starconvex.RegionKind])
    p.add_argument("--p", type=int, required=True, help="center grid index")
    p.add_argument("--vertical-extent", dest="vertical_extent", type=float, default=1.0)
    p.add_argument("--vertical-samples", dest="vertical_samples", type=int, default=64)

    return ap


def _tolerance(args: argparse.Namespace) -> Tolerance:
    abs_tol = args.tol_abs
    rel_tol = args.tol_rel
    if abs_tol is None:
        abs_tol = float(os.environ.get("FUNCLASS_TOL_ABS", 1e-9))
    if rel_tol is None:
        rel_tol = float(os.environ.get("FUNCLASS_TOL_REL", 1e-12))
    return Tolerance(abs=abs_tol, rel=rel_tol)


def _load_grid(args: argparse.Namespace) -> GridFunction:
    if args.csv is not None:
        return read_csv(args.csv)
    if args.to is None or args.samples is None:
        raise GridError("--expr needs --to and --samples (and optionally --from)")
    if args.samples < 2:
        raise GridError(f"--samples must be at least 2, got {args.samples}")
    step = (args.to - args.from_) / (args.samples - 1)
    return sample(args.expr, args.from_, step, args.samples)


def _floats(a: np.ndarray) -> list[float]:
    return [float(v) for v in a]


def _write_plot_csv(path: str, columns: dict[str, Sequence[float]]) -> None:
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    lines = [",".join(names)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dispatch(args: argparse.Namespace) -> tuple[int, dict, dict]:
    tol = _tolerance(args)
    f = _load_grid(args)
    plot: dict[str, Sequence[float]] = {"x": _floats(f.xs()), "f": _floats(f.values)}
    cmd = args.command

    if cmd == "check-order":
        rep = subadd.check_order(f, args.n, tol)
        return (0 if rep.holds else 1), rep.to_dict(), plot

    if cmd == "min-order":
        rep = subadd.minimal_order(f, args.n_max, tol)
        return (0 if rep.minimal_order is not None else 1), rep.to_dict(), plot

    if cmd == "root":
        g = subadd.nth_root_transform(f, args.n)
        rep = subadd.check_order(g, 1, tol)
        out = {"transform": "root", "n": args.n, **rep.to_dict()}
        plot["root"] = _floats(g.values)
        return (0 if rep.holds else 1), out, plot

    if cmd == "ratio":
        g = subadd.ratio_transform(f, args.n)
        rep = subadd.check_order_offset(g, 1, tol)
        out = {"transform": "ratio", "n": args.n, **rep.to_dict()}
        plot = {"x": _floats(g.xs()), "g": _floats(g.values)}
        return (0 if rep.holds else 1), out, plot

    if cmd == "weak-bound":
        rep = subadd.check_weak_bound(f, args.n, tol)
        return (0 if rep.holds else 1), rep.to_dict(), plot

    if cmd == "power-fit":
        fit = subadd.fit_power(f, args.n)
        holds = fit.max_residual <= tol.grid_slack(f.values)
        out = {"n": args.n, "c": fit.c, "max_residual": fit.max_residual, "holds": holds}
        return (0 if holds else 1), out, plot

    if cmd == "minorant":
        res = subadd.subadditive_minorant(f, tol)
        cert = subadd.check_order(res.sigma, 1, tol).holds
        out = {
            "defect": res.defect,
            "bounded_variation": res.bounded_variation,
            "sigma_subadditive": cert,
            "sigma": _floats(res.sigma.values),
            "residual": _floats(res.residual.values),
        }
        plot["sigma"] = _floats(res.sigma.values)
        plot["residual"] = _floats(res.residual.values)
        return 0, out, plot

    # periodic commands share the validated period
    if cmd in ("periodic-check", "heights", "periodic-minorant", "envelope", "decompose"):
        spec = periodic.PeriodSpec.for_grid(f, args.d, tol)

    if cmd == "periodic-check":
        verdict = periodic.is_periodically_increasing(f, spec, tol)
        out = {
            "d": spec.d,
            "w": spec.w,
            "periodic_increasing": verdict.holds,
            "witnesses": [w.to_dict() for w in verdict.witnesses],
        }
        return (0 if verdict.holds else 1), out, plot

    if cmd == "heights":
        prof = periodic.heights(f, spec)
        out = {
            "d": spec.d,
            "w": spec.w,
            "heights": {"global": prof.overall, "global_d": prof.global_d},
            "window_heights": _floats(prof.window_heights),
        }
        plot["window_height"] = _floats(prof.window_heights)
        return 0, out, plot

    if cmd == "periodic-minorant":
        tilde = periodic.greatest_periodic_minorant(f, spec)
        out = {"d": spec.d, "w": spec.w, "f_tilde": _floats(tilde.values)}
        plot["f_tilde"] = _floats(tilde.values)
        return 0, out, plot

    if cmd == "envelope":
        env = periodic.envelopes(f)
        hat = periodic.check_hat_bound(f, spec, tol)
        out = {
            "d": spec.d,
            "w": spec.w,
            "hat_bound": {"bound": hat.bound, "sup_err": hat.sup_err, "holds": hat.holds},
        }
        plot["f_lower"] = _floats(env.f_lower.values)
        plot["f_upper"] = _floats(env.f_upper.values)
        plot["f_hat"] = _floats(env.f_hat.values)
        return (0 if hat.holds else 1), out, plot

    if cmd == "decompose":
        dec = periodic.decompose(f, spec, tol)
        out = {
            "d": spec.d,
            "w": spec.w,
            "decomposition": {"l": dec.l, "h_periodicity_error": dec.periodicity_error},
            "g": _floats(dec.g.values),
            "h": _floats(dec.h.values),
        }
        plot["g"] = _floats(dec.g.values)
        plot["h"] = _floats(dec.h.values)
        return 0, out, plot

    if cmd == "star-centers":
        rep = starconvex.central_set(f, tol)
        centers = set(rep.centers)
        plot["center"] = [1.0 if i in centers else 0.0 for i in range(f.values.size)]
        return (0 if rep.is_star_convex else 1), rep.to_dict(), plot

    if cmd == "star-classify":
        cls = starconvex.classify_shape(f, args.p, tol)
        out = {"p": args.p, "class": cls.value}
        return (0 if cls is not starconvex.ShapeClass.MIXED else 1), out, plot

    if cmd == "star-region":
        kind = starconvex.RegionKind(args.kind)
        split = args.p if kind in (
            starconvex.RegionKind.SPLIT_EPI_HYPO,
            starconvex.RegionKind.SPLIT_HYPO_EPI,
        ) else None
        region = starconvex.RegionSpec(
            kind=kind,
            split_index=split,
            vertical_extent=args.vertical_extent,
            vertical_samples=args.vertical_samples,
        )
        rep = starconvex.region_star_check(f, region, args.p, tol)
        out = {
            "region_checks": [
                {
                    "kind": kind.value,
                    "p": args.p,
                    "ok": rep.ok,
                    "witness": rep.witness.to_dict() if rep.witness else None,
                }
            ]
        }
        return (0 if rep.ok else 1), out, plot

    raise GridError(f"unknown command {cmd!r}")


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        code, report, plot = _dispatch(args)
        if args.plot_csv:
            _write_plot_csv(args.plot_csv, plot)
    except (GridError, ParseError, EvalError) as exc:
        print(f"funclass: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"funclass: i/o error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return code


def main() -> None:
    sys.exit(run())
