"""One fresh process per setup or measurement; started by ``run.py``.

The worker imports funclass from the checkout's ``src``, generates the
workload's inputs from the seed, makes one warm-up call per function and
prints ``ready``.  A setup-only worker then exits; ``run.py`` times it from
process start to ``ready``.  A measuring worker then runs the request list in
passes and prints one JSON line with latencies, verdicts and metrics.

Timed intervals hold only the request's call.  The check of each result, the
deferred oracle checks and the tracemalloc pass all run outside them, and the
oracle checks run after peak RSS has been read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median


def _import_funclass(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import funclass

    if Path(funclass.__file__).resolve().parent != (src / "funclass").resolve():
        raise ImportError(f"funclass was imported from {funclass.__file__}, not from {src}")


# Passes start while one more fits in the run's seconds, but at least this
# many run, so a slow host still gives every request a median of two samples.
# A traced run splits its seconds between untraced and traced passes and
# needs only one of each.
MIN_PASSES = 2
# After the first pass, requests under a quarter of the mean request time run
# this many more times per pass, interleaved with the others.
EXTRA_RUNS = 4


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Measurement:
    """Runs passes over one workload's requests and checks every result."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.samples: list[list[float]] = [[] for _ in workload.requests]  # untraced latencies
        self.failures: list[str] = []
        self.failed: set[int] = set()  # executions that raised or returned a wrong result
        self.first: dict[int, tuple[int, object]] = {}  # request -> (execution, outcome)

    def _fail(self, execution: int, idx: int, message: str) -> None:
        name = self.workload.requests[idx].name
        self.failed.add(execution)
        self.failures.append(f"{name}: {message}")
        print(f"perfbench: wrong result in {self.workload.name} request {name}: {message}", file=sys.stderr)

    def execute(self, idx: int, traced: bool = False):
        """Time one request, then check its result outside the timed interval."""
        req = self.workload.requests[idx]
        execution = self.attempted
        self.attempted += 1
        if traced:
            self.tracer.request = idx
        t0 = time.perf_counter()
        try:
            result, error = req.call(), None
        except Exception as exc:  # a raising request is a failed request, and the loop goes on
            result, error = None, exc
        latency = time.perf_counter() - t0
        if traced:
            self.tracer.request = None
        else:
            self.samples[idx].append(latency)
        if error is not None:
            self._fail(execution, idx, f"raised {type(error).__name__}: {error}")
            traceback.print_exception(error, file=sys.stderr)
            return latency, None
        outcome = req.check(result)
        del result
        if idx not in self.first:
            self.first[idx] = (execution, outcome)
        else:
            first = self.first[idx][1]
            if (outcome.verdict, outcome.witnesses) != (first.verdict, first.witnesses):
                outcome.problems.append("verdict or witness count changed between executions")
            outcome.oracle = None
        for problem in outcome.problems:
            self._fail(execution, idx, problem)
        return latency, outcome

    def run_pass(self, traced: bool = False, extras: list[list[int]] | None = None):
        """Every request once in list order, each followed by its slot's extra executions."""
        latencies, outcomes = [], []
        for idx in range(len(self.workload.requests)):
            latency, outcome = self.execute(idx, traced)
            latencies.append(latency)
            outcomes.append(outcome)
            for extra in extras[idx] if extras else ():
                self.execute(extra)
        return latencies, outcomes

    def run_oracles(self) -> None:
        for idx, (execution, outcome) in self.first.items():
            if outcome.oracle is not None:
                for problem in outcome.oracle():
                    self._fail(execution, idx, problem)
                outcome.oracle = None


def _extra_slots(latencies: list[float]) -> list[list[int]]:
    """Spread EXTRA_RUNS more executions of each cheap request evenly over a pass.

    Host speed drifts over seconds, so a request of a few milliseconds needs
    samples from many points of the run for a steady median.
    """
    n = len(latencies)
    cheap = [i for i, t in enumerate(latencies) if t < sum(latencies) / n / 4]
    queue = cheap * EXTRA_RUNS
    return [queue[j * len(queue) // n : (j + 1) * len(queue) // n] for j in range(n)]


def _fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass of the average length so far ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _per_request(passes: list[list[float]]) -> list[float]:
    """Median latency of each request over the passes."""
    return [median(p[i] for p in passes) for i in range(len(passes[0]))]


def _percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile, as numpy's default method."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _tail_pct(requests: int) -> float:
    """The highest percentile with ten of the workload's requests beyond it."""
    return 100.0 * max(requests - 10, 0) / requests


def measure(args, root: Path, workload) -> dict:
    import spans

    tracer = spans.Tracer() if args.trace else None
    m = Measurement(workload, tracer)
    passes: list[list[float]] = []
    extras = None
    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    start = time.perf_counter()
    while len(passes) < min_passes or _fits(start, len(passes), budget):
        lat, _ = m.run_pass(extras=extras)
        passes.append(lat)
        extras = extras or _extra_slots(lat)
    result: dict = {"passes": len(passes), "pass_walls_s": [sum(p) for p in passes]}
    per_request = [median(s) for s in m.samples]
    wall = sum(per_request)

    if args.trace:
        traced_passes, per_pass = [], []
        start = time.perf_counter()
        with tracer.installed():
            while not traced_passes or _fits(start, len(traced_passes), budget):
                base = len(tracer.spans)
                lat, outs = m.run_pass(traced=True)
                traced_passes.append(lat)
                report_bytes = sum(o.report_bytes for o in outs if o is not None)
                per_pass.append(spans.layer_metrics(tracer.spans[base:], base, sum(lat), report_bytes))
        metrics = spans.median_metrics(per_pass)
        metrics["trace.overhead_pct"] = 100.0 * (sum(_per_request(traced_passes)) - wall) / wall
        probe = spans.AllocProbe()
        with probe.installed():
            for req in workload.requests:
                if req.alloc:
                    req.call()
        metrics["subadd.check_order.peak_alloc_mb"] = probe.peak_bytes / 2**20
        result["per_layer"] = {k: metrics[k] for k in spans.PER_LAYER}
        result["traced_passes"] = len(traced_passes)
        out = root / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(out, [r.name for r in workload.requests])
        print(f"perfbench: spans written to {out.relative_to(root)}", file=sys.stderr)
    else:
        result["rss_mb"] = _peak_rss_mb()

    m.run_oracles()
    pct = _tail_pct(len(workload.requests))
    first = [m.first[i][1] if i in m.first else None for i in range(len(workload.requests))]
    result.update(
        attempted=m.attempted,
        failed=len(m.failed),
        failures=m.failures[:50],
        wall_s=wall,
        req_p50_ms=median(per_request) * 1e3,
        req_tail_ms=_percentile(per_request, pct) * 1e3,
        tail_pct=pct,
        requests=len(per_request),
        verdicts={v: sum(1 for o in first if o is not None and o.verdict == v) for v in ("pass", "fail", "built")},
        witnesses=sum(o.witnesses for o in first if o is not None),
        per_request_ms={r.name: t * 1e3 for r, t in zip(workload.requests, per_request)},
        samples_per_request={r.name: len(s) for r, s in zip(workload.requests, m.samples)},
    )
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--describe", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root)

    _import_funclass(root)
    import workloads

    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.describe:
            names = [r.name for r in workload.requests]
            digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
            print(json.dumps({"workload": args.workload, "seed": args.seed, "mix_sha256": digest, "requests": names}))
            return 0
        for warm in workload.warmups:
            warm()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, root, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
