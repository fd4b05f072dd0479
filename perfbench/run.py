"""ndcsim benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload witness --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run starts ``WORKERS`` fresh worker processes one
after another.  Each imports ndcsim, builds the workload's inputs from the
seed, runs one untimed warm-up operation and then times operations for its
share of ``--seconds`` (at least one).  ``setup_s`` is the median over the
workers of the time from starting the process to the end of its warm-up;
``wall_s`` and ``cpu_s`` are medians over all timed operations;
``peak_rss_mb`` is the median of the workers' peak resident memory.

With ``--trace 1`` one worker times half of its operations untraced and half
with spans around every layer (see ``tracing.py``) and the run prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from ``BENCHMARK.json``.  The line before it is the run's record:
machine, environment, seed and sample counts.  The full result, including
every operation and, when traced, every span, is kept under
``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 3
DEADLINE_S = 170.0
# BLAS and OpenMP pools are capped at one thread each and scipy.fft runs on
# one worker by default, so a workload uses at most two threads: the
# operation's and, in dense_two_site, the terminal's collect thread.
# A fixed mmap threshold stops glibc from moving it with the allocation
# history, so that every array above 128 KiB is returned to the system when
# freed and peak RSS measures live memory rather than heap fragmentation
# (which otherwise varies by up to 20% between seeds and runs).
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "worker_env": WORKER_ENV,
        "fft_workers": 1,
    }


def spawn_worker(args, budget_s: float, rundir: Path, index: int, deadline: float) -> dict:
    out = rundir / f"worker{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget_s), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--workdir", str(rundir), "--out", str(out)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not out.is_file():
        raise BenchError(f"worker {index} exited with code {code}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_at"] - started
    return result


def summarize(workers: list[dict], trace: bool) -> tuple[dict, dict, list[dict]]:
    """Metric values, sample counts and every checked operation."""
    timed_key = ("untraced", "traced") if trace else ("timed",)
    timed = [r for w in workers for key in timed_key for r in w[key]]
    ops = [w["warmup"] for w in workers] + timed
    failed = sum(1 for r in ops if r["problems"])
    if trace:
        values = dict(workers[0]["layers"])
        samples = {"traced_ops": len(workers[0]["traced"]),
                   "untraced_ops": len(workers[0]["untraced"])}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "success_ratio": (len(ops) - failed) / len(ops),
        }
        samples = {"wall_s": len(timed), "cpu_s": len(timed),
                   "peak_rss_mb": len(workers), "setup_s": len(workers),
                   "success_ratio": len(ops)}
    return values, samples, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ndcsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; below 1 only in the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "ndcsim" / "__init__.py").is_file():
        print(f"error: no ndcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = BENCH / ".work"
    rundir = work / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    n_workers = 1 if args.trace else WORKERS
    try:
        workers = [spawn_worker(args, args.seconds / n_workers, rundir, i, deadline)
                   for i in range(n_workers)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    values, samples, ops = summarize(workers, bool(args.trace))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = [r for r in ops if r["problems"]]
    for r in failed:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "workers": n_workers,
        "samples": samples, **machine_record(), **workers[0]["environment"],
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "ops": ops,
                    "workers": [{k: w[k] for k in ("setup_s", "peak_rss_mb")} for w in workers],
                    "spans": workers[0].get("spans")}))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
