"""funclass benchmark: seeded closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload subadd-scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one after the other
    python3 perfbench/run.py --describe --seed 1         # request mix of each workload, no timing

Each workload is a fixed list of requests sent by one client in one process,
each request after the previous one returned.  This script starts several
fresh worker processes that only set up (interpreter start, import, input
generation, one warm-up call per function) and one that also measures.  The
setup time is the median over all of them; the measuring worker's peak RSS is
its own ``ru_maxrss``.

Each request's latency is its median over its executions: one per pass, plus
extra ones spread through later passes for requests of a few milliseconds,
whose single samples the host's drift would dominate.  ``wall_s`` sums them,
``req_p50_ms`` is their median and ``req_tail_ms`` their highest percentile
that leaves ten requests beyond it (both interpolated linearly).  Percentiles
over the fixed request list keep the same requests on each side of a gap
between latency clusters, which percentiles over all executions do not.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run (the spans are
also written under ``.perfbench/spans/``).  Each run's full worker result,
with per-request median latencies, is kept under ``.perfbench/results/``.
The script exits with code 2 and prints no result when funclass is not found
next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("subadd-scan", "periodic-long", "star-centers", "cli-reports")
SETUPS = (4, 4)  # setup-only workers started before and after the measuring one
RUN_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # one client, one process: keep any BLAS pool behind numpy to one thread
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class WorkerError(RuntimeError):
    pass


def _start(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Run a worker; return its setup time in seconds and its stdout after ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker for {workload} did not get ready (exit code {proc.wait()})")
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker for {workload} exited with code {proc.returncode}")
    return setup_s, out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # setups before and after the measurement sample more than one phase of a
    # noisy host; a traced run reports no setup_s and skips them
    before, after = (0, 0) if trace else SETUPS
    setups = [_start(workload, seed, seconds, trace, True, deadline)[0] for _ in range(before)]
    setup_s, out = _start(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    setups += [_start(workload, seed, seconds, trace, True, deadline)[0] for _ in range(after)]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = median(setups)
    result["setups_s"] = setups
    result["peak_rss_mb"] = result.get("rss_mb")
    saved = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _metrics(result: dict, trace: int) -> dict[str, dict]:
    if trace:
        return {k: {"value": v, "unit": spans.unit(k)} for k, v in result["per_layer"].items()}
    return {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}


def _print_summary(workload: str, result: dict, metrics: dict[str, dict]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {result['requests']} requests per pass, {result['passes']} untraced passes, "
          f"verdicts {result['verdicts']}, {result['witnesses']} witnesses per pass")
    for name, m in metrics.items():
        note = f"  (p{result['tail_pct']:.0f} of {result['requests']} requests)" if name == "req_tail_ms" else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'error_rate':36s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} requests)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true", help="print each workload's request mix and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "funclass" / "__init__.py").is_file():
        print(f"perfbench: no funclass sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.describe:
        for name in names:
            cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name,
                   "--seed", str(args.seed), "--seconds", "0", "--describe"]
            code = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
            if code:
                return code
        return 0

    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = _metrics(result, args.trace)
        _print_summary(name, result, metrics)
        for failure in result["failures"]:
            print(f"  wrong: {failure}")
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update(metrics if len(names) == 1 else {f"{name}/{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
