"""Command-line entry point.

Exit codes: 0 success, 2 configuration or input error, 3 no coincidence peak,
4 fit failure, 5 transport error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack

from . import presets, tagio
from .analyze import evaluate_wasak, fit_gaussian, fit_report_text, wasak_report_text
from .config import parse_config
from .correlate import read_histogram_csv, write_histogram_csv
from .errors import (ConfigError, FitError, NoPeakError, ParameterError, TagFormatError,
                     TransportError, check_range)
# cmd_simulate streams its blocks; run_simulation stays importable from here
# because the benchmark's tracer (perfbench/tracing.py) wraps cli.run_simulation.
from .pipeline import measure_peak, min_span_fs, run_simulation, simulate_blocks  # noqa: F401
from .reproduce import TARGETS, reproduce

EXIT_CONFIG = 2
EXIT_NO_PEAK = 3
EXIT_FIT_FAILED = 4
EXIT_TRANSPORT = 5


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
        writers = [stack.enter_context(tagio.TagWriter(
            path, timer.resolution_fs, timer.site_id, min_span_fs(cfg)))
            for path, timer in zip(paths, (cfg.timer_a, cfg.timer_b))]
        for tags in simulate_blocks(cfg, seed):
            for writer, block_tags in zip(writers, tags):
                writer.append(block_tags)
            # Freed before the next block's draws: a block's tags held across
            # them pin glibc's heap, whose resident size then grows block by block.
            del tags, block_tags
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


def _measure_files(args, path_a, path_b):
    return measure_peak(_read(tagio.read_tags, path_a), _read(tagio.read_tags, path_b),
                        args.search_span_ms)


def _report_peak(meas, csv_path) -> int:
    """Write the histogram CSV when a path is given, then print the offset and
    fit; a CSV that cannot be written leaves stdout without a fit."""
    if csv_path:
        _write(write_histogram_csv, meas.histogram, csv_path, meas.g2)
    print(f"recovered_offset_fs = {meas.offset_fs}")
    print(fit_report_text(meas.fit))
    if csv_path:
        print(f"histogram -> {csv_path}")
    return 0


def cmd_correlate(args) -> int:
    return _report_peak(_measure_files(args, args.stream_a, args.stream_b), args.out)


def cmd_analyze(args) -> int:
    print(fit_report_text(fit_gaussian(_read(read_histogram_csv, args.histogram))))
    return 0


def cmd_wasak(args) -> int:
    before = _measure_files(args, args.before_a, args.before_b)
    after = _measure_files(args, args.after_a, args.after_b)
    result = evaluate_wasak(before.fit, after.fit, args.two_beta_l)
    print(wasak_report_text(result))
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.target, seed=args.seed, scale=args.scale)
    print(report.text())
    return 0 if report.passed else 1


def cmd_site(args) -> int:
    host, _, port = args.terminal.rpartition(":")
    if not port.isdigit():
        raise ParameterError(f"--terminal must be host:port, got {args.terminal!r}")
    check_range("port", int(port), 0, 65535)
    stream = _read(tagio.read_tags, args.tags)
    tagio.send_to_terminal(stream, (host or "127.0.0.1", int(port)))
    print(f"sent {len(stream)} tags from site {stream.site_id}")
    return 0


def cmd_terminal(args) -> int:
    check_range("port", args.port, 0, 65535)
    terminal = tagio.Terminal(port=args.port)
    print(f"listening on port {terminal.port}", flush=True)
    streams = terminal.collect(n_sites=2)
    ids = sorted(streams)
    a, b = streams[ids[0]], streams[ids[1]]
    for suffix, stream in (("a", a), ("b", b)):
        _write(tagio.write_tags, stream, f"{args.out}_{suffix}.tags")
    return _report_peak(measure_peak(a, b, args.search_span_ms), f"{args.out}_hist.csv")


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

    p = sub.add_parser("reproduce", help="run a headline-result preset end to end")
    p.add_argument("target", choices=sorted(TARGETS))
    p.add_argument("--seed", type=int, default=0)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoPeakError as exc:
        print(f"no peak: {exc}", file=sys.stderr)
        return EXIT_NO_PEAK
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILED
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ParameterError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TagFormatError as exc:
        print(f"bad tag data: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
