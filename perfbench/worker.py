"""One benchmark process: set up a workload, warm it up, then time operations.

Started by ``run.py`` in a fresh interpreter, so that set-up includes the
imports.  The moment set-up ends (after the untimed warm-up operation) is
reported as a ``time.monotonic`` reading, which the parent compares with the
moment it started this process.  Results go to the JSON file named by
``--out``.

With ``--trace 1`` the timed operations are split in two halves: the first
runs untraced and the second with the tracer installed, so the difference of
their median wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(workload, tracer=None) -> dict:
    """Run and check one operation; only ``op`` is inside the timed region."""
    mark = tracer.mark() if tracer else None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer:
            with tracer.span("bench.op"):
                result = workload.op()
        else:
            result = workload.op()
    except Exception:
        wall = time.perf_counter() - t0
        problems = [traceback.format_exc()]
    else:
        wall = time.perf_counter() - t0
        try:
            problems = workload.check(result)
        except Exception:
            problems = [traceback.format_exc()]
    record = {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "problems": problems}
    if tracer:
        record["layers"] = tracer.layer_metrics(mark)
    return record


def run_ops(workload, budget_s: float, tracer=None) -> list[dict]:
    """Time operations while the next one, at the mean time so far, still
    fits in ``budget_s`` of wall time; at least one."""
    records = [run_op(workload, tracer)]
    spent = records[0]["wall_s"]
    while spent * (len(records) + 1) / len(records) <= budget_s:
        records.append(run_op(workload, tracer))
        spent += records[-1]["wall_s"]
    return records


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, Path(args.workdir))
    warmup = run_op(workload)
    ready_at = time.monotonic()

    out = {"ready_at": ready_at, "warmup": warmup, "environment": environment()}
    if args.trace:
        out["untraced"] = run_ops(workload, args.budget / 2)
        tracer = tracing.install()
        try:
            out["traced"] = run_ops(workload, args.budget / 2, tracer)
        finally:
            tracer.uninstall()
        out["spans"] = tracer.spans
        untraced_wall = statistics.median(r["wall_s"] for r in out["untraced"])
        traced_wall = statistics.median(r["wall_s"] for r in out["traced"])
        layers = {name: statistics.median(r["layers"][name] for r in out["traced"])
                  for name in out["traced"][0]["layers"]}
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        out["layers"] = layers
    else:
        out["timed"] = run_ops(workload, args.budget)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
