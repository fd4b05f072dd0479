"""In-memory span tracer for the traced benchmark run.

The tracer measures ndcsim from outside: ``install`` replaces public functions
with timing wrappers at the place where their callers look them up (a module
global or a class attribute), and ``uninstall`` puts the originals back.
Nothing in the package itself is changed.

Each span records its name, start, end, parent span and thread.  Parents are
tracked per thread, so a span opened on the terminal's collect thread never
becomes the child of a span on the sending thread.  A span's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager

from ndcsim import cli, correlate, pipeline, simulate, tagio

# Spans reported as "<name>.s" (summed duration per operation).
SPAN_NAMES = (
    "simulate.generate_pairs",
    "simulate.propagate",
    "simulate.detect",
    "simulate.digitize",
    "correlate.coarse_offset",
    "correlate.fft",
    "correlate.window_diffs.coarse",
    "correlate.window_diffs.fine",
    "correlate.fine_histogram",
    "analyze.fit_gaussian",
    "tagio.send",
    "tagio.collect",
    "tagio.write_tags",
    "config.parse_config",
    "pipeline.run_simulation",
    "pipeline.measure_peak",
)
# Spans reported as "<name>.self_s"; bench.op is the operation as a whole.
SELF_NAMES = (
    "correlate.coarse_offset",
    "pipeline.run_simulation",
    "pipeline.measure_peak",
    "bench.op",
)
COUNT_NAMES = (
    "simulate.pairs",
    "simulate.tags",
    "correlate.fft.points",
    "correlate.window_diffs.coarse.pairs",
    "correlate.window_diffs.fine.pairs",
    "correlate.fine_histogram.pairs",
    "analyze.fit_gaussian.calls",
    "tagio.bytes",
    "tagio.write_tags.bytes",
)

# Which caller a window_diffs generator serves, by the span that drives it.
_DIFF_PASS = {"correlate.coarse_offset": "coarse", "correlate.fine_histogram": "fine"}


class Tracer:
    """Collects spans and counts; both stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, thread name]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.current_thread().name])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr``; ``count(args, kwargs, result)``
        returns the counts one call adds."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                self.add(count(args, kwargs, result))
            return result

        self._patch(owner, attr, original, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each step of a generator function, split by the span that
        drives it, and count the elements of the arrays it yields."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = f"{name}.{_DIFF_PASS.get(self.current(), 'other')}"
            inner = original(*args, **kwargs)
            while True:
                with self.span(span_name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                self.add({f"{span_name}.pairs": int(item.size)})
                yield item

        self._patch(owner, attr, original, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        with self._lock:
            return len(self.spans), dict(self.counts)

    def layer_metrics(self, mark: tuple[int, dict]) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``mark``."""
        first, counts_before = mark
        spans = self.spans[first:]
        child_time = Counter()
        for _name, start, end, parent, _thread in spans:
            if parent is not None:
                child_time[parent] += end - start
        total = Counter()
        own = Counter()
        for index, (name, start, end, _parent, _thread) in enumerate(spans, first):
            total[name] += end - start
            own[name] += end - start - child_time[index]
        with self._lock:
            counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}

        metrics = {f"{name}.s": total[name] for name in SPAN_NAMES}
        metrics.update({f"{name}.self_s": own[name] for name in SELF_NAMES})
        metrics.update({name: float(counts.get(name, 0)) for name in COUNT_NAMES})
        pairs = metrics["simulate.pairs"]
        metrics["simulate.tags_per_pair"] = metrics["simulate.tags"] / (2 * pairs) if pairs else 0.0
        # Self time of every span on the thread that runs the operation: the
        # blocking path.  Spans of the collect thread overlap the sends.
        op_thread = threading.current_thread().name
        metrics["trace.blocking_self_s"] = math.fsum(
            end - start - child_time[index]
            for index, (name, start, end, _p, thread) in enumerate(spans, first)
            if thread == op_thread and name != "bench.op"
        )
        return metrics


def _fft_points(args, kwargs, _result) -> dict:
    n = args[1] if len(args) > 1 else kwargs.get("n", len(args[0]))
    return {"correlate.fft.points": int(n)}


def _wire_bytes(args, kwargs, _result) -> dict:
    n = len(args[0])
    batch = args[2] if len(args) > 2 else kwargs.get("batch", tagio.DEFAULT_BATCH)
    frames = -(-n // batch) + 1  # data frames plus the zero-length sentinel
    return {"tagio.bytes": tagio.HEADER_SIZE + 8 * n + 4 * frames}


def install() -> Tracer:
    """Wrap ndcsim's layer entry points where their callers look them up."""
    tracer = Tracer()
    w = tracer.wrap
    # pipeline looks up the layer functions in its own namespace.
    w(pipeline, "run_simulation", "pipeline.run_simulation")
    w(pipeline, "measure_peak", "pipeline.measure_peak")
    w(pipeline, "generate_pairs", "simulate.generate_pairs",
      lambda a, k, r: {"simulate.pairs": len(r)})
    w(pipeline, "coarse_offset", "correlate.coarse_offset")
    w(pipeline, "fine_histogram", "correlate.fine_histogram",
      lambda a, k, r: {"correlate.fine_histogram.pairs": r.total_pairs})
    w(pipeline, "fit_gaussian", "analyze.fit_gaussian",
      lambda a, k, r: {"analyze.fit_gaussian.calls": 1})
    # simulate_arm looks up the per-arm stages in simulate's namespace.
    w(simulate, "propagate", "simulate.propagate")
    w(simulate, "detect", "simulate.detect")
    w(simulate, "digitize", "simulate.digitize", lambda a, k, r: {"simulate.tags": len(r)})
    # coarse_offset and fine_histogram look these up in correlate's namespace.
    w(correlate, "rfft", "correlate.fft", _fft_points)
    w(correlate, "irfft", "correlate.fft", _fft_points)
    tracer.wrap_generator(correlate, "window_diffs", "correlate.window_diffs")
    # The CLI imports these two by name; tag I/O goes through the module.
    w(cli, "run_simulation", "pipeline.run_simulation")
    w(cli, "parse_config", "config.parse_config")
    w(tagio, "write_tags", "tagio.write_tags",
      lambda a, k, r: {"tagio.write_tags.bytes": r})
    w(tagio, "send_to_terminal", "tagio.send", _wire_bytes)
    w(tagio.Terminal, "collect", "tagio.collect")
    return tracer
