"""The four seeded workloads: inputs, request lists, warm-up calls and checks.

A workload is a fixed list of requests.  Each request is one call into the
library (or one ``funclass.cli.run``), made by a single client that waits for
the previous request before sending the next one (a closed loop).  The seed
only moves values inside fixed ranges: request names, sizes, orders, periods
and expected verdicts are the same for every seed, so every seed asks for the
same amount of work.

Every request carries a check that runs outside the timed interval.  It
compares the verdict with what the generator guarantees, recomputes a bounded
sample of failing witnesses, and may return a deferred oracle check (the
brute-force references in ``funclass.oracle``), which the worker runs once per
request after peak RSS has been read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import funclass as fc
from funclass import cli, oracle
from funclass.starconvex import RegionKind, RegionSpec, ShapeClass

NAMES = ("subadd-scan", "periodic-long", "star-centers", "cli-reports")

WITNESS_SAMPLE = 256  # failing witnesses recomputed per request
MINORANT_PREFIX = 15  # sigma[:15] against the exhaustive enumeration (N = 14)
PERIODIC_PREFIX = 2048  # largest grid handed to the all-pairs periodic oracle
ORACLE_STEP = 0.001  # periodic grids are thinned to this step before the oracle, so d = 1 fits
GRID_STEP = 1 / 64  # subadditivity grids: x in [0, N / 64], as in the power-rule test


@dataclass
class Outcome:
    """What a check found: the verdict, witness count and any wrong result."""

    verdict: str  # "pass", "fail" or "built" for constructions
    witnesses: int = 0
    problems: list[str] = field(default_factory=list)
    oracle: Callable[[], list[str]] | None = None
    report_bytes: int = 0

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


@dataclass
class Request:
    name: str  # identical for every seed
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    alloc: bool = False  # also run in the tracemalloc pass


@dataclass
class Workload:
    name: str
    requests: list[Request]
    warmups: list[Callable[[], Any]]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    index = NAMES.index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    make = {
        "subadd-scan": _subadd_scan,
        "periodic-long": _periodic_long,
        "star-centers": _star_centers,
        "cli-reports": _cli_reports,
    }[name]
    return make(rng, workdir)


def _spread(n: int, k: int = WITNESS_SAMPLE) -> range | np.ndarray:
    """Up to ``k`` evenly spaced positions in ``range(n)``, first and last included."""
    if n <= k:
        return range(n)
    return np.unique(np.linspace(0, n - 1, k).astype(int))


# --- subadd-scan ---------------------------------------------------------------

# (kind, order range of each power) per grid slot; orders are fixed per slot so
# that every seed scans the same pairs and builds the same number of witnesses.
_SUBADD_SLOTS = {
    "power": ((1.2, 1.8),),
    "sum": ((0.2, 0.8), (2.2, 2.8)),
    "max": ((1.2, 1.8), (3.2, 3.7)),
    "minorant": (),
}


def _subadd_grid(rng: np.random.Generator, n: int, kind: str) -> tuple[fc.GridFunction, int]:
    """A grid of ``kind`` built as in ``tests/support.random_order_subadditive``.

    Returns the grid and an order at which it is subadditive in exact
    arithmetic: ``ceil(p)`` for a power, the largest such order for sums and
    maxima (the class is closed under both), 1 for a min-plus minorant.
    """
    x = np.arange(n + 1) * GRID_STEP
    if kind == "minorant":
        rough = fc.GridFunction(0.0, GRID_STEP, rng.uniform(0.0, 3.0, n + 1))
        return fc.subadditive_minorant(rough).sigma, 1
    parts, order = [], 1
    for lo, hi in _SUBADD_SLOTS[kind]:
        p = float(rng.uniform(lo, hi))
        parts.append(float(rng.uniform(0.1, 3.0)) * x**p)
        order = max(order, math.ceil(p))
    vals = parts[0] if kind == "power" else (
        parts[0] + parts[1] if kind == "sum" else np.maximum(parts[0], parts[1])
    )
    return fc.GridFunction(0.0, GRID_STEP, vals), order


def _check_holds(rep: fc.SubadditivityReport) -> Outcome:
    out = Outcome("pass" if rep.holds else "fail", len(rep.violations))
    out.expect(rep.holds and not rep.violations, f"expected to hold, got {len(rep.violations)} witnesses")
    return out


def _check_minimal_order(expected: int) -> Callable[[fc.SubadditivityReport], Outcome]:
    def check(rep: fc.SubadditivityReport) -> Outcome:
        out = Outcome("pass" if rep.minimal_order is not None else "fail")
        out.expect(rep.minimal_order == expected, f"minimal order {rep.minimal_order}, expected ceil(p) = {expected}")
        out.expect(rep.holds and not rep.violations, "report at the minimal order must hold")
        return out

    return check


def _check_fit(c: float, scale: float) -> Callable[[fc.PowerFit], Outcome]:
    # c * x^n is the exact solution family; the residual vanishes up to
    # roundoff scaled by max|v| (the bound below is about 10^7 ulp of that scale).
    def check(fit: fc.PowerFit) -> Outcome:
        out = Outcome("pass")
        out.expect(abs(fit.c - c) <= 1e-9 * abs(c), f"fitted c = {fit.c!r}, generated c = {c!r}")
        out.expect(fit.max_residual <= 1e-9 * scale, f"symmetry residual {fit.max_residual!r} on the exact family")
        return out

    return check


def _check_minorant(f: fc.GridFunction) -> Callable[[fc.MinorantResult], Outcome]:
    def check(res: fc.MinorantResult) -> Outcome:
        out = Outcome("built")
        sigma = res.sigma.values
        out.expect(bool(np.all(sigma <= f.values)), "sigma is not below f")
        out.expect(bool(np.array_equal(res.residual.values, f.values - sigma)), "residual != f - sigma")
        head = sigma[:MINORANT_PREFIX].copy()
        prefix = fc.GridFunction(0.0, f.step, f.values[:MINORANT_PREFIX])

        def reference() -> list[str]:
            # sigma[k] depends only on v[0..k], so a prefix is exact
            return [
                f"sigma[{k}] = {head[k]!r}, brute force gives {ref!r}"
                for k in range(MINORANT_PREFIX)
                if (ref := oracle.minorant_bruteforce(prefix, k)) != float(head[k])
            ]

        out.oracle = reference
        return out

    return check


def _subadd_scan(rng: np.random.Generator, workdir: Path) -> Workload:
    reqs: list[Request] = []
    plan = {512: tuple(_SUBADD_SLOTS), 1024: tuple(_SUBADD_SLOTS), 2048: ("power", "sum")}
    for n, kinds in plan.items():
        for kind in kinds:
            f, k = _subadd_grid(rng, n, kind)
            tag = f"N={n}/{kind}/n={k}"
            reqs += [
                Request(f"check_order/{tag}", lambda f=f, k=k: fc.check_order(f, k), _check_holds,
                        alloc=n >= 2048),
                Request(f"check_weak_bound/{tag}", lambda f=f, k=k: fc.check_weak_bound(f, k), _check_holds),
                Request(f"root+check_order/{tag}",
                        lambda f=f, k=k: fc.check_order(fc.nth_root_transform(f, k), 1), _check_holds),
                Request(f"ratio+check_order_offset/{tag}",
                        lambda f=f, k=k: fc.check_order_offset(fc.ratio_transform(f, k), 1), _check_holds),
                Request(f"subadditive_minorant/{tag}", lambda f=f: fc.subadditive_minorant(f),
                        _check_minorant(f)),
            ]
        order = 2 if n < 2048 else 3
        c = float(rng.uniform(0.5, 2.0))
        exact = fc.GridFunction(0.0, GRID_STEP, c * (np.arange(n + 1) * GRID_STEP) ** order)
        reqs.append(Request(f"fit_power/N={n}/exact/n={order}",
                            lambda g=exact, o=order: fc.fit_power(g, o),
                            _check_fit(c, float(np.max(exact.values)))))
    # minimal_order probes 8, 4, 2 (fails on every pair with i >= 1) and 3
    for idx, n in enumerate((512, 512, 1024)):
        p = float(rng.uniform(2.2, 2.8))
        f = fc.GridFunction(0.0, GRID_STEP, float(rng.uniform(0.5, 2.0)) * (np.arange(n + 1) * GRID_STEP) ** p)
        reqs.append(Request(f"minimal_order/N={n}/power#{idx}/n_max=8", lambda f=f: fc.minimal_order(f, 8),
                            _check_minimal_order(3)))
    big, k = _subadd_grid(rng, 4096, "power")
    reqs.append(Request(f"check_order/N=4096/power/n={k}", lambda: fc.check_order(big, k), _check_holds,
                        alloc=True))

    tiny, _ = _subadd_grid(np.random.default_rng(0), 8, "sum")
    warmups = [
        lambda: fc.check_order(tiny, 3),
        lambda: fc.minimal_order(tiny, 8),
        lambda: fc.check_weak_bound(tiny, 3),
        lambda: fc.fit_power(tiny, 3),
        lambda: fc.check_order(fc.nth_root_transform(tiny, 3), 1),
        lambda: fc.check_order_offset(fc.ratio_transform(tiny, 3), 1),
        lambda: fc.subadditive_minorant(tiny),
    ]
    return Workload("subadd-scan", reqs, warmups)


# --- periodic-long -------------------------------------------------------------

SPAN = 50.0  # periodic grids cover [0, 50]; d = 1 and d = 0.1 are whole steps


def _np_eval(kind: str, x: np.ndarray, coef: tuple[float, float]) -> np.ndarray:
    if kind == "sin":
        return x + coef[0] * np.sin(2 * np.pi * x)
    b, c = coef
    return x + b * np.log(2 + np.cos(2 * np.pi * x)) + c * np.exp(np.sin(2 * np.pi * x))


def _expr_text(kind: str, coef: tuple[float, float]) -> str:
    if kind == "sin":
        return f"x + {coef[0]!r}*sin(2*pi*x)"
    return f"x + {coef[0]!r}*log(2 + cos(2*pi*x)) + {coef[1]!r}*exp(sin(2*pi*x))"


def _check_sample(ref: np.ndarray, step: float) -> Callable[[fc.GridFunction], Outcome]:
    # exp/log/cos from numpy and math may differ in the last bits
    def check(g: fc.GridFunction) -> Outcome:
        out = Outcome("built")
        out.expect(g.origin == 0.0 and g.step == step and g.values.size == ref.size, "wrong grid shape")
        if g.values.size == ref.size:
            err = np.abs(g.values - ref) / np.maximum(1.0, np.abs(ref))
            out.expect(float(np.max(err)) <= 1e-12, f"sampled values off by {float(np.max(err)):.3g}")
        return out

    return check


def _check_written(path: Path) -> Callable[[None], Outcome]:
    def check(_: None) -> Outcome:
        out = Outcome("built")
        out.expect(path.is_file() and path.stat().st_size > 0, f"{path.name} was not written")
        return out

    return check


def _check_roundtrip(f: fc.GridFunction) -> Callable[[fc.GridFunction], Outcome]:
    def check(g: fc.GridFunction) -> Outcome:
        out = Outcome("built")
        out.expect(g == f, "read_csv(write_csv(f)) differs from f")
        return out

    return check


def _periodic_verdict(
    f: fc.GridFunction, spec: fc.PeriodSpec, expect_holds: bool
) -> Callable[[fc.PeriodicCheckResult], Outcome]:
    tol = fc.Tolerance()
    v = f.values

    def check(res: fc.PeriodicCheckResult) -> Outcome:
        out = Outcome("pass" if res.holds else "fail", len(res.witnesses))
        out.expect(res.holds == expect_holds, f"holds = {res.holds}, expected {expect_holds}")
        out.expect(res.holds == (not res.witnesses), "verdict disagrees with the witness list")
        for k in _spread(len(res.witnesses)):
            w = res.witnesses[k]
            i, t = w.indices
            out.expect(
                t - i >= spec.w and w.lhs == v[i] and w.rhs == v[t] and not tol.leq(w.lhs, w.rhs),
                f"witness {w.indices} does not fail f(x) <= f(y)",
            )
        # every r-th point of a prefix: a subset of the grid with the same
        # distances, so it must hold whenever the full grid holds
        r = round(ORACLE_STEP / f.step)
        thin = fc.GridFunction(f.origin, f.step * r, v[: r * PERIODIC_PREFIX : r])
        thin_spec = fc.PeriodSpec(d=spec.d, w=spec.w // r)

        def reference() -> list[str]:
            lib = fc.is_periodically_increasing(thin, thin_spec).holds
            brute = oracle.periodic_check_bruteforce(thin, thin_spec)
            problems = [] if lib == brute else [f"thinned prefix verdict {lib}, brute force {brute}"]
            if res.holds and not brute:
                problems.append("full grid holds but its thinned prefix fails the brute force")
            return problems

        out.oracle = reference
        return out

    return check


def _check_heights(f: fc.GridFunction, spec: fc.PeriodSpec) -> Callable[[fc.HeightProfile], Outcome]:
    v = f.values

    def check(prof: fc.HeightProfile) -> Outcome:
        out = Outcome("built")
        h = prof.window_heights
        out.expect(prof.global_d == float(np.max(h)), "global_d != max window height")
        out.expect(prof.overall == float(np.max(v) - np.min(v)), "overall != max - min")
        for i in _spread(v.size, 16):
            win = v[i : i + spec.w + 1]
            out.expect(h[i] == win.max() - win.min(), f"window height at {i} is wrong")
        return out

    return check


def _check_minorant_cap(f: fc.GridFunction, spec: fc.PeriodSpec) -> Callable[[fc.GridFunction], Outcome]:
    v = f.values

    def check(g: fc.GridFunction) -> Outcome:
        out = Outcome("built")
        for i in _spread(v.size, 16):
            want = min(v[i], v[i + spec.w :].min()) if i + spec.w < v.size else v[i]
            out.expect(g.values[i] == want, f"periodic minorant at {i} is wrong")
        return out

    return check


def _check_envelopes(f: fc.GridFunction) -> Callable[[fc.EnvelopeSet], Outcome]:
    v = f.values

    def check(env: fc.EnvelopeSet) -> Outcome:
        out = Outcome("built")
        for i in _spread(v.size, 16):
            lo, hi = v[i:].min(), v[: i + 1].max()
            out.expect(env.f_lower.values[i] == lo and env.f_upper.values[i] == hi, f"envelope at {i} is wrong")
            out.expect(env.f_hat.values[i] == (lo + hi) / 2.0, f"f_hat at {i} is wrong")
        return out

    return check


def _check_hat(rep: fc.HatBoundReport) -> Outcome:
    out = Outcome("pass" if rep.holds else "fail")
    out.expect(rep.holds, f"sup |f - f_hat| = {rep.sup_err!r} above half the height {rep.bound!r}")
    return out


def _check_perturbation(hypothesis: bool) -> Callable[[fc.PerturbationReport], Outcome]:
    def check(rep: fc.PerturbationReport) -> Outcome:
        judged = rep.plus is not None and rep.minus is not None
        ok = judged and rep.plus.holds and rep.minus.holds
        out = Outcome("pass" if ok else "fail", 0 if not judged else len(rep.plus.witnesses) + len(rep.minus.witnesses))
        out.expect(rep.hypothesis_holds == hypothesis, f"hypothesis {rep.hypothesis_holds}, expected {hypothesis}")
        out.expect(ok == hypothesis, "g + k or g - k lost periodic monotonicity under the hypothesis")
        return out

    return check


def _check_decompose(f: fc.GridFunction) -> Callable[[fc.PeriodicDecomposition], Outcome]:
    v = f.values
    scale = float(np.max(np.abs(v)))

    def check(dec: fc.PeriodicDecomposition) -> Outcome:
        out = Outcome("built")
        g = dec.g.values
        out.expect(abs(dec.l - 1.0) <= 1e-9, f"step l = {dec.l!r}, expected 1 (slope 1 times d = 1)")
        out.expect(dec.periodicity_error <= 1e-9 * max(1.0, scale), f"h is not periodic: {dec.periodicity_error!r}")
        out.expect(bool(np.all(g[:-1] <= g[1:])), "g is not non-decreasing")
        out.expect(float(np.max(np.abs(g + dec.h.values - v))) <= 1e-12 * scale, "g + h != f")
        return out

    return check


def _periodic_long(rng: np.random.Generator, workdir: Path) -> Workload:
    reqs: list[Request] = []
    # Both functions are x plus a 1-periodic wiggle of height below 1, and
    # f(50) is the minimum of f on [50, 51]: f is 1-periodically increasing,
    # f(x + 1) - f(x) = 1, and the suffix-minimum g makes h = f - g periodic.
    plan = (
        ("sin", 100_001, (float(rng.uniform(0.27, 0.29)), 0.0)),
        ("explogcos", 200_001, (float(rng.uniform(0.15, 0.2)), float(rng.uniform(0.2, 0.25)))),
    )
    for kind, count, coef in plan:
        step = SPAN / (count - 1)
        ref = _np_eval(kind, np.arange(count) * step, coef)
        f = fc.GridFunction(0.0, step, ref)
        text = _expr_text(kind, coef)
        path = workdir / f"{kind}.csv"
        tag = f"{kind}/N={count - 1}"
        reqs += [
            Request(f"sample/{tag}", lambda t=text, s=step, c=count: fc.sample(t, 0.0, s, c),
                    _check_sample(ref, step)),
            Request(f"write_csv/{tag}", lambda f=f, p=path: fc.write_csv(f, p), _check_written(path)),
            Request(f"read_csv/{tag}", lambda p=path: fc.read_csv(p), _check_roundtrip(f)),
        ]
        lin = f.with_values(f.xs())
        wiggle = f - lin
        for d in (1.0, 0.1):
            spec = fc.PeriodSpec.for_grid(f, d)
            dtag = f"{tag}/d={d}"
            reqs += [
                Request(f"is_periodically_increasing/{dtag}",
                        lambda f=f, s=spec: fc.is_periodically_increasing(f, s),
                        _periodic_verdict(f, spec, expect_holds=d == 1.0)),
                Request(f"heights/{dtag}", lambda f=f, s=spec: fc.heights(f, s), _check_heights(f, spec)),
                Request(f"greatest_periodic_minorant/{dtag}",
                        lambda f=f, s=spec: fc.greatest_periodic_minorant(f, s), _check_minorant_cap(f, spec)),
                # x increases by exactly d per period and the wiggle oscillates
                # by less than 1, so the hypothesis holds for d = 1 only
                Request(f"perturbation_check/{dtag}",
                        lambda g=lin, k=wiggle, s=spec: fc.perturbation_check(g, k, s),
                        _check_perturbation(hypothesis=d == 1.0)),
            ]
            if d == 1.0:  # both raise when f is not d-periodically increasing
                reqs += [
                    Request(f"check_hat_bound/{dtag}", lambda f=f, s=spec: fc.check_hat_bound(f, s), _check_hat),
                    Request(f"decompose/{dtag}", lambda f=f, s=spec: fc.decompose(f, s), _check_decompose(f)),
                ]
        reqs.append(Request(f"envelopes/{tag}", lambda f=f: fc.envelopes(f), _check_envelopes(f)))

    small = fc.GridFunction(0.0, 0.05, _np_eval("sin", np.arange(81) * 0.05, (0.28, 0.0)))
    spec = fc.PeriodSpec.for_grid(small, 1.0)
    lin = small.with_values(small.xs())
    tiny_csv = workdir / "warmup.csv"
    warmups = [
        lambda: fc.sample(_expr_text("explogcos", (0.2, 0.2)), 0.0, 0.05, 81),
        lambda: fc.write_csv(small, tiny_csv),
        lambda: fc.read_csv(tiny_csv),
        lambda: fc.is_periodically_increasing(small, spec),
        lambda: fc.heights(small, spec),
        lambda: fc.greatest_periodic_minorant(small, spec),
        lambda: fc.perturbation_check(lin, small - lin, spec),
        lambda: fc.check_hat_bound(small, spec),
        lambda: fc.decompose(small, spec),
        lambda: fc.envelopes(small),
    ]
    return Workload("periodic-long", reqs, warmups)


# --- star-centers --------------------------------------------------------------


def _star_grid(rng: np.random.Generator, n: int, kind: str) -> fc.GridFunction:
    """Concave left of index n/2 and convex right of it, so n/2 is a center."""
    c = float(rng.uniform(0.5, 2.0))
    i = np.arange(n + 1)
    if kind == "sin":
        return fc.GridFunction(0.0, 2 * np.pi / n, c * np.sin(i * (2 * np.pi / n)))
    if kind == "cube":
        return fc.GridFunction(-1.0, 2.0 / n, c * (-1.0 + i * (2.0 / n)) ** 3)
    # random second differences: negative left of n/2, positive right of it
    mag = rng.uniform(0.5, 1.5, n - 1) / n**2
    d2 = np.where(np.arange(1, n) < n // 2, -mag, mag)
    d2[n // 2 - 1] = 0.0
    slope = np.concatenate([[0.0], np.cumsum(d2)])
    return fc.GridFunction(0.0, 1.0 / n, c * np.concatenate([[0.0], np.cumsum(slope)]))


def _check_central(f: fc.GridFunction, p: int) -> Callable[[fc.StarReport], Outcome]:
    def check(rep: fc.StarReport) -> Outcome:
        out = Outcome("pass" if rep.is_star_convex else "fail")
        centers = set(rep.centers)
        out.expect(p in centers, f"the inflection index {p} is missing from the central set")
        out.expect(set(rep.per_center_class) == centers, "classes do not match the centers")
        outside = [q for q in range(f.values.size) if q not in centers]
        sample = [(q, True) for q in sorted(centers)[:2]] + [(q, False) for q in (outside[:1] + outside[-1:])]

        def reference() -> list[str]:
            return [f"is_center({q}) disagrees with the central set" for q, want in sample if fc.is_center(f, q) != want]

        out.oracle = reference
        return out

    return check


def _check_classify(cls: ShapeClass) -> Outcome:
    out = Outcome("pass" if cls is ShapeClass.CONCAVE_CONVEX else "fail")
    out.expect(cls is ShapeClass.CONCAVE_CONVEX, f"class {cls.value}, expected conc-conv")
    return out


def _check_region(f: fc.GridFunction, region: RegionSpec, p: int) -> Callable[[fc.RegionCheckReport], Outcome]:
    # Concave left of p and convex right of it: the hypograph-left/epigraph-right
    # union is star-shaped from the graph point at p, and each of the other
    # three regions has a chord to a graph point that leaves it.
    expect_ok = region.kind is RegionKind.SPLIT_HYPO_EPI
    v = f.values
    margin = fc.Tolerance().abs + fc.Tolerance().rel * float(np.max(np.abs(v)))

    def check(rep: fc.RegionCheckReport) -> Outcome:
        out = Outcome("pass" if rep.ok else "fail", 0 if rep.ok else 1)
        out.expect(rep.ok == expect_ok, f"region ok = {rep.ok}, expected {expect_ok}")
        w = rep.witness
        if w is not None:
            seg = v[p] + (w.level - v[p]) * (w.crossing - p) / (w.column - p)
            leaves_epi = seg < v[w.crossing] - margin
            leaves_hypo = seg > v[w.crossing] + margin
            out.expect(math.isclose(seg, w.segment_value, rel_tol=1e-12, abs_tol=1e-12) and (leaves_epi or leaves_hypo),
                       f"witness {w.to_dict()} does not leave the region")
        return out

    return check


def _star_centers(rng: np.random.Generator, workdir: Path) -> Workload:
    reqs: list[Request] = []
    for n in (128, 256, 512):
        for kind in ("sin", "cube", "random"):
            f = _star_grid(rng, n, kind)
            p = n // 2
            tag = f"{kind}/N={n}"
            reqs += [
                Request(f"central_set/{tag}", lambda f=f: fc.central_set(f), _check_central(f, p)),
                Request(f"classify_shape/{tag}", lambda f=f, p=p: fc.classify_shape(f, p), _check_classify),
            ]
            # levels padded by the function's own size: the same geometry, and so
            # the same work before the first failing sample, for every amplitude
            extent = float(np.max(np.abs(f.values)))
            for kind_ in RegionKind:
                region = RegionSpec(kind_, split_index=p if kind_.value.startswith("split") else None,
                                    vertical_extent=extent)
                reqs.append(Request(f"region_star_check/{kind_.value}/{tag}",
                                    lambda f=f, r=region, p=p: fc.region_star_check(f, r, p),
                                    _check_region(f, region, p)))
    tiny = _star_grid(np.random.default_rng(0), 16, "sin")
    warmups = [
        lambda: fc.central_set(tiny),
        lambda: fc.classify_shape(tiny, 8),
        lambda: fc.region_star_check(tiny, RegionSpec(RegionKind.SPLIT_HYPO_EPI, split_index=8), 8),
    ]
    return Workload("star-centers", reqs, warmups)


# --- cli-reports ---------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def _run_cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return CliResult(code, buf.getvalue())


def _source(expr: str, lo: float, hi: float, samples: int) -> list[str]:
    return ["--expr", expr, "--from", repr(lo), "--to", repr(hi), "--samples", str(samples)]


def _check_cli(
    code: int, fields: dict[str, Any] | None = None, arrays: dict[str, int] | None = None,
    witnesses: tuple[str, Callable[[dict], list[str]]] | None = None,
) -> Callable[[CliResult], Outcome]:
    """Exit code, selected report fields, array lengths, and sampled witnesses."""

    def check(res: CliResult) -> Outcome:
        out = Outcome("pass" if res.code == 0 else "fail", report_bytes=len(res.stdout.encode()))
        out.expect(res.code == code, f"exit code {res.code}, expected {code}")
        if res.code not in (0, 1):
            return out
        report = json.loads(res.stdout)
        for key, want in (fields or {}).items():
            got = report
            for part in key.split("."):
                got = got[part]
            out.expect(want(got) if callable(want) else got == want, f"report[{key}] = {got!r}")
        for key, size in (arrays or {}).items():
            out.expect(len(report[key]) == size, f"len(report[{key}]) = {len(report[key])}, expected {size}")
        if witnesses is not None:
            key, verify = witnesses
            out.witnesses = len(report[key])
            out.problems += verify(report)
        return out

    return check


def _order_witnesses(coef: float, p: float, step: float, n: int, count: int, weak: bool) -> Callable[[dict], list[str]]:
    """Recompute sampled (i, j) witnesses of an order-n or weak-bound report."""
    tol = fc.Tolerance()
    q = float(2**n - 1)

    def value(k: int) -> float:
        return coef * (k * step) ** p

    def verify(report: dict) -> list[str]:
        ws = report["violations"]
        problems = [] if len(ws) == count else [f"{len(ws)} witnesses, expected {count}"]
        keys = [(w["i"], w["j"]) for w in ws]
        if keys != sorted(keys):
            problems.append("witnesses are not ordered by (i, j)")
        for k in _spread(len(ws)):
            w = ws[k]
            i, j = w["i"], w["j"]
            if weak:
                rhs = max(value(i) + q * value(j), q * value(i) + value(j))
            else:
                rhs = value(i) + fc.ratio_coefficient(i * step, j * step, n) * value(j)
            lhs = value(i + j)
            if not (math.isclose(w["lhs"], lhs, rel_tol=1e-12) and math.isclose(w["rhs"], rhs, rel_tol=1e-12)
                    and not tol.leq(w["lhs"], w["rhs"])):
                problems.append(f"witness ({i}, {j}) does not recompute as a violation")
        return problems

    return verify


def _periodic_witnesses(d_steps: int) -> Callable[[dict], list[str]]:
    tol = fc.Tolerance()

    def verify(report: dict) -> list[str]:
        return [
            f"witness ({w['i']}, {w['j']}) does not fail f(x) <= f(y)"
            for k in _spread(len(report["witnesses"]))
            if (w := report["witnesses"][k])["j"] - w["i"] < d_steps or tol.leq(w["lhs"], w["rhs"])
        ]

    return verify


def _cli_reports(rng: np.random.Generator, workdir: Path) -> Workload:
    reqs: list[Request] = []
    c = float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(2.2, 2.8))  # minimal order 3
    power = f"{c!r}*x^{p!r}"
    cube = f"{c!r}*x^3"
    a = float(rng.uniform(0.27, 0.29))
    wavy = f"x + {a!r}*sin(2*pi*x)"  # 1-periodically increasing, fails for d = 0.1
    sine = f"{c!r}*sin(x)"
    two_pi = 2 * math.pi
    csv_rows = 20_001
    csv_path = workdir / "wavy.csv"
    step = 5.0 / (csv_rows - 1)
    xs = np.arange(csv_rows) * step
    csv_path.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), (xs + a * np.sin(2 * np.pi * xs)).tolist())))

    def add(name: str, argv: list[str], check: Callable[[CliResult], Outcome]) -> None:
        reqs.append(Request(f"cli/{name}", lambda argv=argv: _run_cli(argv), check))

    # the 15 commands at README scale, then at a medium scale; all pass but the first
    for scale, (k_sub, k_per, k_star) in (("small", (65, 61, 33)), ("medium", (257, 2001, 129))):
        sub = _source(power, 0.0, (k_sub - 1) / 64, k_sub)
        per = _source(wavy, 0.0, (k_per - 1) / 20, k_per)
        star = _source(sine, 0.0, two_pi, k_star)
        mid = str((k_star - 1) // 2)
        if scale == "small":
            add("check-order/x^2/N=4/n=1", ["check-order", *_source("x^2", 0.0, 1.0, 5), "--n", "1"],
                _check_cli(1, {"holds": False},
                           witnesses=("violations", _order_witnesses(1.0, 2.0, 0.25, 1, 6, False))))
        else:
            add(f"check-order/{scale}/n=3", ["check-order", *sub, "--n", "3"], _check_cli(0, {"holds": True}))
        add(f"min-order/{scale}", ["min-order", *sub, "--n-max", "8"], _check_cli(0, {"minimal_order": 3}))
        add(f"root/{scale}/n=3", ["root", *sub, "--n", "3"], _check_cli(0, {"holds": True}))
        add(f"ratio/{scale}/n=3", ["ratio", *sub, "--n", "3"], _check_cli(0, {"holds": True}))
        add(f"weak-bound/{scale}/n=3", ["weak-bound", *sub, "--n", "3"], _check_cli(0, {"holds": True}))
        add(f"power-fit/{scale}/n=3", ["power-fit", *_source(cube, 0.0, (k_sub - 1) / 64, k_sub), "--n", "3"],
            _check_cli(0, {"holds": True, "c": lambda got: math.isclose(got, c, rel_tol=1e-9)}))
        add(f"minorant/{scale}", ["minorant", *sub],
            _check_cli(0, {"sigma_subadditive": True}, arrays={"sigma": k_sub, "residual": k_sub}))
        add(f"periodic-check/{scale}/d=1", ["periodic-check", *per, "--d", "1"],
            _check_cli(0, {"periodic_increasing": True}))
        add(f"heights/{scale}/d=1", ["heights", *per, "--d", "1"], _check_cli(0, arrays={"window_heights": k_per}))
        add(f"periodic-minorant/{scale}/d=1", ["periodic-minorant", *per, "--d", "1"],
            _check_cli(0, arrays={"f_tilde": k_per}))
        add(f"envelope/{scale}/d=1", ["envelope", *per, "--d", "1"], _check_cli(0, {"hat_bound.holds": True}))
        add(f"decompose/{scale}/d=1", ["decompose", *per, "--d", "1"],
            _check_cli(0, {"decomposition.l": lambda got: abs(got - 1.0) <= 1e-9}, arrays={"g": k_per, "h": k_per}))
        add(f"star-centers/{scale}", ["star-centers", *star],
            _check_cli(0, {"centers": lambda got, p=int(mid): p in got}))
        add(f"star-classify/{scale}", ["star-classify", *star, "--p", mid], _check_cli(0, {"class": "conc-conv"}))
        add(f"star-region/{scale}/split-hypo-epi", ["star-region", *star, "--kind", "split-hypo-epi", "--p", mid],
            _check_cli(0, {"region_checks": lambda got: got[0]["ok"] is True}))

    # large reports: every failing pair with i >= 1 is reported
    big = 513
    step_big = 1 / 64
    sub = _source(power, 0.0, (big - 1) * step_big, big)
    pairs = (big - 2) * (big - 1) // 2
    add("check-order/large/n=2", ["check-order", *sub, "--n", "2"],
        _check_cli(1, {"holds": False}, witnesses=("violations", _order_witnesses(c, p, step_big, 2, pairs, False))))
    add("weak-bound/large/n=1", ["weak-bound", *sub, "--n", "1"],
        _check_cli(1, {"holds": False}, witnesses=("violations", _order_witnesses(c, p, step_big, 1, pairs, True))))
    add("min-order/large", ["min-order", *sub, "--n-max", "8"], _check_cli(0, {"minimal_order": 3}))
    add("minorant/large", ["minorant", *_source(power, 0.0, 1024 / 64, 1025)],
        _check_cli(0, {"sigma_subadditive": True}, arrays={"sigma": 1025}))
    add("heights/large/d=1", ["heights", *_source(wavy, 0.0, 50.0, 100_001), "--d", "1"],
        _check_cli(0, arrays={"window_heights": 100_001}))
    add("decompose/large/d=1", ["decompose", *_source(wavy, 0.0, 25.0, 50_001), "--d", "1"],
        _check_cli(0, arrays={"g": 50_001, "h": 50_001}))
    add("periodic-check/large/d=0.1", ["periodic-check", *_source(wavy, 0.0, 25.0, 50_001), "--d", "0.1"],
        _check_cli(1, {"periodic_increasing": False}, witnesses=("witnesses", _periodic_witnesses(200))))
    add("periodic-minorant/csv/d=1", ["periodic-minorant", "--csv", str(csv_path), "--d", "1"],
        _check_cli(0, arrays={"f_tilde": csv_rows}))
    add("envelope/csv/d=1", ["envelope", "--csv", str(csv_path), "--d", "1"], _check_cli(0, {"hat_bound.holds": True}))

    warmups = [r.call for r in reqs if "/small" in r.name or r.name.startswith("cli/check-order/x^2")]
    return Workload("cli-reports", reqs, warmups)
