#!/usr/bin/env python3
"""Run every headline-result preset on each seed and print every report.

Prints each target and seed's full report on stdout, then the number of
failures, and each run's wall time on stderr, so the stdout of two commits
diffs to exactly the values that moved.  Exits nonzero if any reproduction
misses its target, so this doubles as an end-to-end check after changing the
simulation or analysis code (e.g. ``--seed 0 1 2 3 4 5 6 7 8 9``).
"""

import argparse
import sys
import time

from ndcsim.reproduce import TARGETS, reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="acquisition-time multiplier (1.0 = 5 s per run)")
    parser.add_argument("--targets", nargs="*", default=sorted(TARGETS))
    args = parser.parse_args()

    failures = 0
    for target in args.targets:
        for seed in args.seed:
            t0 = time.perf_counter()
            report = reproduce(target, seed=seed, scale=args.scale)
            elapsed = time.perf_counter() - t0
            print(f"{target} seed {seed}: {elapsed:.1f} s", file=sys.stderr, flush=True)
            print(f"seed {seed} {report.text()}", flush=True)
            failures += not report.passed
    runs = len(args.targets) * len(args.seed)
    print(f"{failures} of {runs} reproductions failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
