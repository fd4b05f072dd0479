#!/usr/bin/env python3
"""Run every headline-result preset and print the pass/fail reports.

Exits nonzero if any reproduction misses its target, so this doubles as a
quick end-to-end check after changing the simulation or analysis code.
"""

import argparse
import sys
import time

from ndcsim.reproduce import TARGETS, reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="acquisition-time multiplier (1.0 = 5 s per run)")
    parser.add_argument("--targets", nargs="*", default=sorted(TARGETS))
    args = parser.parse_args()

    all_ok = True
    for target in args.targets:
        t0 = time.perf_counter()
        report = reproduce(target, seed=args.seed, scale=args.scale)
        elapsed = time.perf_counter() - t0
        print(f"{report.text()}\n  ({elapsed:.1f} s)\n")
        all_ok = all_ok and report.passed
    print("all reproductions passed" if all_ok else "SOME REPRODUCTIONS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
