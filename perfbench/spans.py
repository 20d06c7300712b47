"""Spans around every call into a funclass layer, recorded from outside ``src/``.

``Tracer.installed()`` replaces each public function of the layer modules by a
wrapper, everywhere a caller looks it up: the defining module, the package
re-exports, and other modules' own bindings (``funclass.cli.sample`` and
``funclass.cli.read_csv``).  Calls inside the library go through module
globals, so ``minimal_order``'s probes show up as ``subadd.check_order`` child
spans and ``check_hat_bound``'s helpers as ``periodic.*`` children.

A span is ``[name, start, end, parent, request, counts]``; spans are recorded
only while a request is open and stay in memory until ``dump``.
``expr.evaluate`` is left unwrapped: it runs once per AST node per sample
point, and its cost shows in ``grid.sample.ns_per_point`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from statistics import median
from typing import Any

LAYERS = {
    "expr": ("parse",),
    "grid": ("sample", "read_csv", "write_csv"),
    "subadd": (
        "check_order", "check_order_offset", "check_weak_bound", "fit_power", "minimal_order",
        "nth_root_transform", "ratio_transform", "subadditive_minorant",
    ),
    "periodic": (
        "is_periodically_increasing", "heights", "greatest_periodic_minorant", "envelopes",
        "check_hat_bound", "perturbation_check", "decompose",
    ),
    "starconvex": ("central_set", "is_center", "classify_shape", "region_star_check"),
    "cli": ("run",),
}

PER_LAYER = (
    "grid.sample.ms", "grid.sample.points", "grid.sample.ns_per_point", "expr.parse.ms",
    "grid.read_csv.ms", "grid.write_csv.ms", "grid.read_csv.rows",
    "subadd.check_order.pass_ms", "subadd.check_order.fail_ms", "subadd.check_order.calls",
    "subadd.check_order.peak_alloc_mb", "subadd.pairs", "subadd.ns_per_pair", "subadd.witnesses",
    "subadd.minimal_order.self_ms", "subadd.check_weak_bound.ms", "subadd.fit_power.ms",
    "subadd.check_order_offset.ms", "subadd.transform.ms", "subadd.subadditive_minorant.ms",
    *(f"periodic.{fn}.ms" for fn in LAYERS["periodic"]),
    "periodic.ns_per_point", "periodic.witnesses",
    "starconvex.central_set.ms", "starconvex.is_center.calls", "starconvex.is_center.ms",
    "starconvex.chord_points", "starconvex.centers", "starconvex.region_star_check.ms",
    "starconvex.classify_shape.ms",
    "cli.run.ms", "cli.self_ms", "cli.report_bytes",
    "trace.overhead_pct", "trace.coverage_pct", "trace.spans",
)

UNITS = {"ms": "ms", "points": "count", "rows": "count", "calls": "count", "pairs": "count",
         "witnesses": "count", "centers": "count", "chord_points": "count", "report_bytes": "bytes",
         "ns_per_point": "ns", "ns_per_pair": "ns", "peak_alloc_mb": "MB", "overhead_pct": "%",
         "coverage_pct": "%", "spans": "count"}


def unit(metric: str) -> str:
    tail = metric.rsplit(".", 1)[-1]
    return "ms" if tail.endswith("ms") else UNITS[tail]


def pairs_required(name: str, f: Any) -> int:
    """Grid pairs the definition asks a pair scan to test (a computed count)."""
    n = f.n
    if name == "check_order":
        return n * (n + 1) // 2  # i >= 0, j >= 1, i + j <= N
    if name == "check_order_offset":
        m = round(f.origin / f.step)  # multiples a >= m, b >= max(m, 1), a + b <= m + N
        t = n - max(m, 1) + 1
        return t * (t + 1) // 2 if t > 0 else 0
    return (n - 1) * n // 2  # weak bound and power fit: a, b >= 1, a + b <= N


def chord_points(size: int) -> int:
    """Grid points strictly inside all chords between pairs of a size-point grid."""
    return sum(2 * (size - gap) * (gap - 1) for gap in range(2, size))


def _counts(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, int] | None:
    """Counters read at the layer boundary from arguments and results."""
    if name == "grid.sample":
        return {"points": int(args[3] if len(args) > 3 else kwargs["count"])}
    if name == "grid.read_csv":
        return {"rows": int(result.values.size)}
    layer, fn = name.split(".")
    if fn in ("check_order", "check_order_offset", "check_weak_bound"):
        return {"pairs": pairs_required(fn, args[0]), "witnesses": len(result.violations),
                "holds": int(result.holds)}
    if fn == "fit_power":
        return {"pairs": pairs_required(fn, args[0])}
    if fn == "is_periodically_increasing":
        return {"points": int(args[0].values.size), "witnesses": len(result.witnesses)}
    if layer == "periodic":
        return {"points": int(args[0].values.size)}
    if fn == "central_set":
        return {"centers": len(result.centers), "chord_points": chord_points(args[0].values.size)}
    return None


class Tracer:
    """Span recorder; one per traced worker process.

    The client sets ``request`` to the index of the open request, or ``None``
    between requests, when wrapped calls pass straight through.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _counts(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every binding of every layer function; restore them on exit."""
        originals = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"funclass.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                originals[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "funclass" and not modname.startswith("funclass."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def dump(self, path: Path, request_names: list[str]) -> None:
        keys = ("name", "start", "end", "parent", "request", "counts")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            json.dump({"requests": request_names, "spans": [dict(zip(keys, s)) for s in self.spans]}, out)


def layer_metrics(spans: list[list], base: int, request_time_s: float, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans, which start at index ``base``.

    A span's self time is its duration minus its children's durations; child
    spans never overlap because the client is single-threaded.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    incl = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    check_order_ms = {0: 0.0, 1: 0.0}
    periodic_points = 0
    top_level = 0.0
    for k, s in enumerate(spans):
        name, t0, t1, parent = s[0], s[1], s[2], s[3]
        dur = t1 - t0
        incl[name] += dur
        self_[name] += dur - child_time[base + k]
        calls[name] += 1
        c = s[5] or {}  # no counts when the call raised
        for key in ("pairs", "witnesses", "centers", "chord_points", "rows"):
            if key in c:
                counts[f"{name.split('.')[0]}.{key}"] += c[key]
        if name == "grid.sample":
            counts["grid.sample.points"] += c.get("points", 0)
        if name == "subadd.check_order" and c:
            check_order_ms[c["holds"]] += dur
        if name.startswith("periodic.") and (parent < 0 or not spans[parent - base][0].startswith("periodic.")):
            periodic_points += c.get("points", 0)
        if parent < 0:
            top_level += dur
    ms = 1e3
    scan_s = sum(incl[f"subadd.{fn}"] for fn in ("check_order_offset", "check_weak_bound", "fit_power")) + sum(
        check_order_ms.values())
    periodic_self = sum(self_[f"periodic.{fn}"] for fn in LAYERS["periodic"])
    return {
        "grid.sample.ms": incl["grid.sample"] * ms,
        "grid.sample.points": counts["grid.sample.points"],
        "grid.sample.ns_per_point": incl["grid.sample"] * 1e9 / max(counts["grid.sample.points"], 1),
        "expr.parse.ms": incl["expr.parse"] * ms,
        "grid.read_csv.ms": incl["grid.read_csv"] * ms,
        "grid.write_csv.ms": incl["grid.write_csv"] * ms,
        "grid.read_csv.rows": counts["grid.rows"],
        "subadd.check_order.pass_ms": check_order_ms[1] * ms,
        "subadd.check_order.fail_ms": check_order_ms[0] * ms,
        "subadd.check_order.calls": calls["subadd.check_order"],
        "subadd.pairs": counts["subadd.pairs"],
        "subadd.ns_per_pair": scan_s * 1e9 / max(counts["subadd.pairs"], 1),
        "subadd.witnesses": counts["subadd.witnesses"],
        "subadd.minimal_order.self_ms": self_["subadd.minimal_order"] * ms,
        "subadd.check_weak_bound.ms": incl["subadd.check_weak_bound"] * ms,
        "subadd.fit_power.ms": incl["subadd.fit_power"] * ms,
        "subadd.check_order_offset.ms": incl["subadd.check_order_offset"] * ms,
        "subadd.transform.ms": (incl["subadd.nth_root_transform"] + incl["subadd.ratio_transform"]) * ms,
        "subadd.subadditive_minorant.ms": incl["subadd.subadditive_minorant"] * ms,
        **{f"periodic.{fn}.ms": self_[f"periodic.{fn}"] * ms for fn in LAYERS["periodic"]},
        "periodic.ns_per_point": periodic_self * 1e9 / max(periodic_points, 1),
        "periodic.witnesses": counts["periodic.witnesses"],
        "starconvex.central_set.ms": incl["starconvex.central_set"] * ms,
        "starconvex.is_center.calls": calls["starconvex.is_center"],
        "starconvex.is_center.ms": incl["starconvex.is_center"] * ms,
        "starconvex.chord_points": counts["starconvex.chord_points"],
        "starconvex.centers": counts["starconvex.centers"],
        "starconvex.region_star_check.ms": incl["starconvex.region_star_check"] * ms,
        "starconvex.classify_shape.ms": incl["starconvex.classify_shape"] * ms,
        "cli.run.ms": incl["cli.run"] * ms,
        "cli.self_ms": self_["cli.run"] * ms,
        "cli.report_bytes": report_bytes,
        "trace.coverage_pct": 100.0 * top_level / request_time_s if request_time_s else 0.0,
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}


class AllocProbe:
    """Peak traced allocation inside ``subadd.check_order``, for a tracemalloc pass.

    tracemalloc slows Python allocation by an order of magnitude, so this never
    runs in a timed pass.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        module, package = sys.modules["funclass.subadd"], sys.modules["funclass"]
        original = module.check_order

        @functools.wraps(original)
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - start)

        bindings = [(m, "check_order") for m in (module, package) if m.check_order is original]
        for m, attr in bindings:
            setattr(m, attr, probed)
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()
            for m, attr in bindings:
                setattr(m, attr, original)
