"""Command-line entry point.

Exit codes: 0 success, 1 a ``reproduce`` run outside its bounds or a closed
stdout, 2 configuration or input error, 3 no coincidence peak, 4 fit failure,
5 transport error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, closing

from . import presets, tagio
from .analyze import evaluate_wasak, fit_gaussian, fit_report_text, wasak_report_text
from .config import parse_config
from .correlate import check_search_span, read_histogram_csv, write_histogram_csv
from .errors import (ConfigError, FitError, NdcError, NoPeakError, ParameterError,
                     TagFormatError, TransportError, check_range)
from .pipeline import acquisition_span_fs, measure_peak, simulate_blocks
# cmd_simulate streams its blocks; run_simulation stays importable from here
# because the benchmark's tracer (perfbench/tracing.py) wraps cli.run_simulation.
from .pipeline import run_simulation  # noqa: F401
from .reproduce import TARGETS, reproduce

# Exit code and stderr label of each package error; the classes are disjoint.
_EXITS = {ConfigError: (2, "config error"), ParameterError: (2, "invalid parameter"),
          TagFormatError: (2, "bad tag data"), NoPeakError: (3, "no peak"),
          FitError: (4, "fit failed"), TransportError: (5, "transport error")}


def _write_manifest(manifest, path):
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    paths = {arm: f"{args.out}_{arm}.tags" for arm in ("a", "b")}
    try:
        counts = _simulate_to_files(cfg, args.seed, paths.values())
    except OSError as exc:
        raise ParameterError(f"cannot write {args.out}_*.tags: {exc}") from exc
    manifest = {"seed": args.seed, "config": cfg.manifest(),
                "files": paths, "tags": dict(zip(paths, counts))}
    _write(_write_manifest, manifest, f"{args.out}_manifest.json")
    print(f"wrote {paths['a']} ({counts[0]} tags), {paths['b']} ({counts[1]} tags)")
    return 0


def _simulate_to_files(cfg, seed: int, paths) -> list[int]:
    """Append each simulated block's tags to the arms' files as it comes;
    returns the tag counts.  A run that fails leaves neither file behind."""
    with ExitStack() as stack:
        writers = [stack.enter_context(tagio.TagWriter(path, timer.resolution_fs, timer.site_id))
                   for path, timer in zip(paths, (cfg.timer_a, cfg.timer_b))]
        # closed on any exit: a failed run joins the simulation's worker
        # thread here, not whenever the generator is collected
        for tags in stack.enter_context(closing(simulate_blocks(cfg, seed))):
            for writer, block_tags in zip(writers, tags):
                writer.append(block_tags)
            # Freed before the generator resumes to make the next block's tags:
            # held across that, they would be one block more in memory and pin
            # glibc's heap, whose resident size then grows block by block.
            del tags, block_tags
        for writer in writers:
            writer.close(acquisition_span_fs(cfg.run.duration_s, writer.last))
    return [writer.count for writer in writers]


def _read(reader, path):
    """reader(path); a missing, unreadable or non-numeric file is exit 2."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _write(writer, data, path, *rest):
    """writer(data, path, *rest); a path that cannot be written is exit 2."""
    try:
        writer(data, path, *rest)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _read_tags(path):
    return _read(tagio.read_tags, path)


def _report_peak(args, a, b, csv_path) -> int:
    """Measure the peak of a and b, write its histogram CSV when a path is
    given, then print the offset and fit; a CSV that cannot be written leaves
    stdout without a fit."""
    meas = measure_peak(a, b, args.search_span_ms)
    if csv_path:
        _write(write_histogram_csv, meas.histogram, csv_path, a, b)
    print(f"recovered_offset_fs = {meas.offset_fs}")
    print(fit_report_text(meas.fit))
    if csv_path:
        print(f"histogram -> {csv_path}")
    return 0


def cmd_correlate(args) -> int:
    check_search_span(args.search_span_ms)
    return _report_peak(args, _read_tags(args.stream_a), _read_tags(args.stream_b), args.out)


def cmd_analyze(args) -> int:
    print(fit_report_text(fit_gaussian(_read(read_histogram_csv, args.histogram))))
    return 0


def cmd_wasak(args) -> int:
    check_search_span(args.search_span_ms)
    check_range("two_beta_l_ps2", args.two_beta_l, 0)
    before, after = (measure_peak(_read_tags(a), _read_tags(b), args.search_span_ms)
                     for a, b in ((args.before_a, args.before_b), (args.after_a, args.after_b)))
    print(wasak_report_text(evaluate_wasak(before.fit, after.fit, args.two_beta_l)))
    return 0


def cmd_reproduce(args) -> int:
    """Each target on each seed: ``seed N <report>`` on stdout, the wall time on
    stderr, then the failures; the seeds and scale are checked before any run."""
    check_range("scale", args.scale, 0, above=True)
    for seed in args.seed:
        check_range("seed", seed, 0)
    failures = 0
    for target in args.target:
        for seed in args.seed:
            t0 = time.perf_counter()
            report = reproduce(target, seed=seed, scale=args.scale)
            print(f"{target} seed {seed}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
            print(f"seed {seed} {report.text()}", flush=True)
            failures += not report.passed
    print(f"{failures} of {len(args.target) * len(args.seed)} reproductions failed")
    return 1 if failures else 0


def cmd_site(args) -> int:
    host, _, port = args.terminal.rpartition(":")
    if not port.isdigit():
        raise ParameterError(f"--terminal must be host:port, got {args.terminal!r}")
    check_range("port", int(port), 0, 65535)
    stream = _read_tags(args.tags)
    tagio.send_to_terminal(stream, (host or "127.0.0.1", int(port)))
    print(f"sent {len(stream)} tags from site {stream.site_id}")
    return 0


def cmd_terminal(args) -> int:
    check_range("port", args.port, 0, 65535)
    check_search_span(args.search_span_ms)
    terminal = tagio.Terminal(port=args.port)
    print(f"listening on port {terminal.port}", flush=True)
    streams = terminal.collect(n_sites=2)
    ids = sorted(streams)
    a, b = streams[ids[0]], streams[ids[1]]
    for suffix, stream in (("a", a), ("b", b)):
        _write(tagio.write_tags, stream, f"{args.out}_{suffix}.tags")
    return _report_peak(args, a, b, f"{args.out}_hist.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ndcsim")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_span(p):
        p.add_argument("--search-span-ms", type=float, default=1.0)

    p = sub.add_parser("simulate", help="simulate two tag streams from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output file prefix")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="correlate two tag files and fit the peak")
    p.add_argument("stream_a")
    p.add_argument("stream_b")
    add_search_span(p)
    p.add_argument("--out", default=None, help="histogram CSV path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("analyze", help="fit a Gaussian to a histogram CSV")
    p.add_argument("histogram")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("wasak", help="witness test from two pairs of tag files")
    p.add_argument("before_a")
    p.add_argument("before_b")
    p.add_argument("after_a")
    p.add_argument("after_b")
    p.add_argument("--two-beta-l", type=float, default=presets.wasak_two_beta_l_ps2(),
                   help="dispersion magnitude 2*beta*l in ps^2")
    add_search_span(p)
    p.set_defaults(func=cmd_wasak)

    p = sub.add_parser("reproduce", help="run headline-result presets end to end")
    p.add_argument("target", nargs="+", choices=sorted(TARGETS))
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    p.add_argument("--scale", type=float, default=1.0, help="acquisition-time multiplier")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("site", help="send one tag file to a terminal")
    p.add_argument("--terminal", required=True, help="host:port")
    p.add_argument("--tags", required=True)
    p.set_defaults(func=cmd_site)

    p = sub.add_parser("terminal", help="receive two site streams and correlate them")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--out", required=True, help="output file prefix")
    add_search_span(p)
    p.set_defaults(func=cmd_terminal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader went away (`| head`): send the rest of the output to
        # devnull, as the Python docs do, so that the exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except NdcError as exc:
        code, label = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
