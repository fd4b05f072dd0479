"""End-to-end orchestration: simulate, correlate, fit, witness."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import presets
from .analyze import GaussianFit, fit_gaussian
from .config import ExperimentConfig
from .correlate import (COARSE_BIN_FS, Histogram, coarse_offset, fine_histogram, g2_normalize,
                        strided_counts)
from .simulate import ArmChain, check_duration, generate_pairs
from .streams import FS_PER_PS, FS_PER_S, TagStream

_SEED_BINS = 250  # seed-pass bins either side of the coarse offset
# Emission time simulated at once: the paper's acquisition, so a run of at
# most 5 s is one block and draws exactly as an unblocked simulation.
_BLOCK_FS = round(presets.ACQUISITION_S * FS_PER_S)


@dataclass(frozen=True)
class PeakMeasurement:
    offset_fs: int
    histogram: Histogram
    fit: GaussianFit
    g2: np.ndarray


def simulate_blocks(cfg: ExperimentConfig, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Simulate one acquisition _BLOCK_FS of emission time at a time, yielding
    each block's tags of both arms, ``(tags_a, tags_b)``.

    Block k holds the emissions in [k, k + 1) * _BLOCK_FS, cut at the
    duration, and draws each stage from its own stream (simulate.stage_rng):
    its pair count is Poisson over its own length and its dark counts are
    uniform over its own window, so the streams are exact in distribution.
    Only one block's pairs are held at a time, and no tags once yielded; each
    arm's blocks, concatenated, are its tag stream.
    """
    duration = cfg.run.duration_s
    check_duration(duration)
    p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
    p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
    arms = (ArmChain(cfg.source, cfg.smf, "signal", cfg.detector_a, cfg.timer_a, seed, duration),
            ArmChain(cfg.source, cfg.dcf, "idler", cfg.detector_b, cfg.timer_b, seed, duration))
    block_s = _BLOCK_FS / FS_PER_S
    for block in itertools.count():
        start, end = block * block_s, min((block + 1) * block_s, duration)
        pairs = generate_pairs(cfg.source, cfg.run.mode, end, seed, p_a, p_b, start, block)
        tags = tuple(arm.add(pairs, block, start, end) for arm in arms)
        del pairs  # before the tags are used, and the next block draws its own
        yield tags
        del tags  # the caller is done with them: freed before the next block's draws
        if end >= duration:
            return


def min_span_fs(cfg: ExperimentConfig) -> int:
    """The shortest acquisition span of a simulated stream: the duration, in
    whole femtoseconds; a stream whose last tag is later spans to that tag."""
    return math.ceil(cfg.run.duration_s * FS_PER_S)


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
        span = max(min_span_fs(cfg), int(tags[-1]) if tags.size else 0)
        streams.append(TagStream(tags, timer.resolution_fs, timer.site_id, span))
    return streams[0], streams[1]


def measure_peak(a: TagStream, b: TagStream, search_span_ms: float = 1.0) -> PeakMeasurement:
    """Recover the stream offset, histogram the coincidences and fit the peak.

    A seed pass over +/- (2 * coarse width + COARSE_BIN_FS), strided to
    about 2^18 expected pairs (correlate._SEED_PAIRS), fits the peak; it
    only sizes and centres the reported histogram, a tenth of that FWHM per
    bin from -max(4 FWHM, 10 bins), which alone takes every pair.  Both
    windows expect under 2 pairs per tag at the paper's rates, so the kernel
    walks them partner by partner.  Bins span whole timer ticks, so each
    holds as many differences.
    """
    offset, width_fs = coarse_offset(a, b, search_span_ms)
    tick = int(np.gcd(a.resolution_fs, b.resolution_fs)) or 1
    seed_bin_fs = max((2 * width_fs + COARSE_BIN_FS) // (_SEED_BINS * tick), 1) * tick
    fit = fit_gaussian(strided_counts(a, b, offset, seed_bin_fs, _SEED_BINS))
    bin_fs = max(round(fit.fwhm_ps * FS_PER_PS / (10 * tick)), 1) * tick
    offset += int(round(fit.center_ps * FS_PER_PS))
    window_fs = max(4.0 * fit.fwhm_ps * FS_PER_PS, 10.0 * bin_fs)
    hist = fine_histogram(a, b, offset, -math.floor(window_fs), bin_fs,
                          math.ceil(2 * window_fs / bin_fs))
    fit = fit_gaussian(hist)
    duration = max(a.duration_s, b.duration_s)
    g2 = g2_normalize(hist, max(a.rate_hz(), 1e-12), max(b.rate_hz(), 1e-12), duration)
    return PeakMeasurement(offset_fs=offset, histogram=hist, fit=fit, g2=g2)


def measure_config_peak(cfg: ExperimentConfig, seed: int) -> PeakMeasurement:
    """Simulate a configuration and measure its coincidence peak."""
    return measure_peak(*run_simulation(cfg, seed))
