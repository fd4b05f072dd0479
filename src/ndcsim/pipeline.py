"""End-to-end orchestration: simulate, correlate, fit, witness.

A simulation's blocks of emission time are cut here, once, as the whole-fs
``Window``s of the acquisition span (``simulate_blocks``); the simulate
stages take each window as given.  One loop detects the blocks in order; on
two or more CPUs the next block is drawn on one worker thread meanwhile.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import presets, simulate
from .analyze import GaussianFit, fit_gaussian
from .config import ExperimentConfig
from .correlate import COARSE_BIN_FS, Histogram, coarse_offset, fine_histogram
from .errors import ParameterError
from .simulate import INT64_MAX, INT64_MIN, ArmChain, Window, arm_shifts, generate_pairs
from .streams import FS_PER_PS, FS_PER_S, TagStream

_SEED_BINS = 250  # seed-pass bins either side of the coarse offset
_SEED_PAIRS = 1 << 18  # expected pairs of the seed pass that sizes the reported one
# Emission time simulated at once: the paper's acquisition, so a run of at
# most 5 s is one block and draws exactly as an unblocked simulation.
_BLOCK_FS = round(presets.ACQUISITION_S * FS_PER_S)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PeakMeasurement:
    offset_fs: int
    histogram: Histogram
    fit: GaussianFit


def simulate_blocks(cfg: ExperimentConfig, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Simulate one acquisition _BLOCK_FS of emission time at a time, yielding
    each block's tags of both arms, ``(tags_a, tags_b)``.

    The blocks are cut here, once, in whole fs: block k's ``Window`` holds
    the emissions in [k * _BLOCK_FS, min((k + 1) * _BLOCK_FS, span)), the
    span being the duration's (``acquisition_span_fs``).  Each block draws
    each stage from its own stream (simulate.stage_rng), Poisson over its own
    length, so the streams are exact in distribution; each arm's blocks,
    concatenated, are its tag stream.

    One loop detects and digitizes each block's arms in turn, in block order
    on the calling thread, as detection carries state from block to block.
    ``draw(block)`` gives a block's window and both arms' arrivals, the pairs
    freed on return; each arm's arrivals are handed over once.  On two or
    more usable CPUs block k + 1 is drawn on one worker thread while block k
    is detected and used: at most two blocks are in flight, and the worker is
    joined when the generator ends, raises or is closed.  A run of one block,
    or on one CPU, starts no thread: each block is drawn once the one before
    is used.
    """
    span = acquisition_span_fs(cfg.run.duration_s, None)
    p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
    p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
    dets = (cfg.detector_a, cfg.detector_b)
    shifts = arm_shifts(cfg.source, cfg.run.mode, (cfg.smf, cfg.dcf), dets)
    arms = [ArmChain(shift, det, timer, seed, span)
            for shift, det, timer in zip(shifts, dets, (cfg.timer_a, cfg.timer_b))]

    def draw(block: int) -> tuple[Window, list[np.ndarray]]:
        start = block * _BLOCK_FS
        window = Window(start, min(start + _BLOCK_FS, span), block)
        pairs = generate_pairs(cfg.source, window, seed, p_a, p_b)
        return window, [simulate.propagate(pairs, arm.shift) for arm in arms]

    with ExitStack() as stack:
        worker = None
        if span > _BLOCK_FS and _usable_cpus() >= 2:
            # imported only for the worker: its modules add 0.5 MB to a run's peak RSS
            from concurrent.futures import ThreadPoolExecutor
            worker = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        window, arrivals = draw(0)
        while True:
            last = window.end_fs >= span
            following = worker.submit(draw, window.block + 1) if worker and not last else None
            # each arm's arrivals are freed once detected
            tags = tuple(arm.add(window, arrivals.pop(0)) for arm in arms)
            yield tags
            del tags  # the caller is done with them: freed before the next block is detected
            if last:
                return
            window, arrivals = following.result() if worker else draw(window.block + 1)


def acquisition_span_fs(duration_s: float, last_tag_fs: int | None) -> int:
    """The acquisition span of a simulated stream: the duration in whole
    femtoseconds, or the stream's last tag (None for no tags) if that is later."""
    span = math.ceil(duration_s * FS_PER_S)
    return span if last_tag_fs is None else max(span, last_tag_fs)


def run_simulation(cfg: ExperimentConfig, seed: int) -> tuple[TagStream, TagStream]:
    """Simulate both tag streams for one acquisition, in memory: each arm's
    blocks from ``simulate_blocks``, concatenated."""
    parts = ([], [])
    for tags in simulate_blocks(cfg, seed):
        for arm, block_tags in zip(parts, tags):
            arm.append(block_tags)
    streams = []
    for arm, timer in zip(parts, (cfg.timer_a, cfg.timer_b)):
        tags = arm[0] if len(arm) == 1 else np.concatenate(arm)
        arm.clear()  # before the next arm is joined
        span = acquisition_span_fs(cfg.run.duration_s, int(tags[-1]) if tags.size else None)
        streams.append(TagStream(tags, timer.resolution_fs, timer.site_id, span))
    return streams[0], streams[1]


def measure_peak(a: TagStream, b: TagStream, search_span_ms: float = 1.0) -> PeakMeasurement:
    """Recover the stream offset, histogram the coincidences and fit the peak.

    A seed histogram over +/- (2 * coarse width + COARSE_BIN_FS), strided
    to about _SEED_PAIRS expected pairs, fits the peak; it only sizes and
    centres the reported histogram, a tenth of that FWHM per bin from
    -max(4 FWHM, 10 bins), which counts the pairs of every tag.  Both are
    fine_histogram calls, handed the coarse confirm's kept pairs to rebin
    where they cover the grid at its stride.  At the paper's rates every
    window expects under 2 pairs per tag, so the kernel walks them partner
    by partner.  Bins span whole timer ticks, so each holds as many
    differences; a tick so long that the seed window leaves int64 raises
    ParameterError.
    """
    offset, width_fs, kept = coarse_offset(a, b, search_span_ms)
    tick = math.gcd(a.resolution_fs, b.resolution_fs)
    seed_bin_fs = max((2 * width_fs + COARSE_BIN_FS) // (_SEED_BINS * tick), 1) * tick
    nbins = 2 * _SEED_BINS + 1
    half = nbins * seed_bin_fs // 2
    if offset - half < INT64_MIN or offset + half > INT64_MAX:
        raise ParameterError(f"resolution_fs: a tick of {tick} fs puts the seed window "
                             "beyond the int64 femtosecond range")
    fit = fit_gaussian(fine_histogram(a, b, offset, -half, seed_bin_fs, nbins, _SEED_PAIRS, kept))
    bin_fs = max(round(fit.fwhm_ps * FS_PER_PS / (10 * tick)), 1) * tick
    offset += int(round(fit.center_ps * FS_PER_PS))
    window_fs = max(4.0 * fit.fwhm_ps * FS_PER_PS, 10.0 * bin_fs)
    origin_fs, nbins = -math.floor(window_fs), math.ceil(2 * window_fs / bin_fs)
    hist = fine_histogram(a, b, offset, origin_fs, bin_fs, nbins, kept=kept)
    return PeakMeasurement(offset_fs=offset, histogram=hist, fit=fit_gaussian(hist))


def measure_config_peak(cfg: ExperimentConfig, seed: int) -> PeakMeasurement:
    """Simulate a configuration and measure its coincidence peak."""
    return measure_peak(*run_simulation(cfg, seed))
