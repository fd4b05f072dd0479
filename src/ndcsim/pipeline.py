"""End-to-end orchestration: simulate, correlate, fit, witness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyze import GaussianFit, fit_gaussian
from .config import ExperimentConfig
from .correlate import Histogram, coarse_offset, fine_histogram, g2_normalize
from .presets import suggested_binning
from .simulate import generate_pairs, simulate_arm
from .streams import TagStream


@dataclass(frozen=True)
class PeakMeasurement:
    offset_fs: int
    histogram: Histogram
    fit: GaussianFit
    g2: np.ndarray


def run_simulation(cfg: ExperimentConfig, seed: int) -> tuple[TagStream, TagStream]:
    """Simulate both tag streams for one acquisition."""
    pairs = generate_pairs(cfg.source, cfg.run.mode, cfg.run.duration_s, seed,
                           cfg.smf.survival_probability * cfg.detector_a.efficiency,
                           cfg.dcf.survival_probability * cfg.detector_b.efficiency)
    a = simulate_arm(pairs, cfg.smf, "signal", cfg.detector_a, cfg.timer_a,
                     cfg.run.duration_s, seed)
    b = simulate_arm(pairs, cfg.dcf, "idler", cfg.detector_b, cfg.timer_b,
                     cfg.run.duration_s, seed)
    return a, b


def measure_peak(
    a: TagStream,
    b: TagStream,
    bin_width_ps: float = 8.0,
    window_ps: float = 2000.0,
    coarse_bin_ns: float = 1.0,
    search_span_ms: float = 1.0,
) -> PeakMeasurement:
    """Recover the stream offset, histogram the coincidences and fit the peak.

    The histogram is then recomputed once with the bin width set to about a
    tenth of the fitted FWHM and the window recentred on the peak.
    """
    offset = coarse_offset(a, b, coarse_bin_ns, search_span_ms)
    fit = fit_gaussian(fine_histogram(a, b, offset, bin_width_ps, window_ps))
    fwhm = fit.fwhm_ps
    bin_ps = max(fwhm / 10.0, a.resolution_fs / 1e3)
    offset += int(round(fit.center_ps * 1e3))
    hist = fine_histogram(a, b, offset, bin_ps, max(4.0 * fwhm, 10.0 * bin_ps))
    fit = fit_gaussian(hist)
    duration = max(a.duration_s, b.duration_s)
    g2 = g2_normalize(hist, max(a.rate_hz(), 1e-12), max(b.rate_hz(), 1e-12), duration)
    return PeakMeasurement(offset_fs=offset, histogram=hist, fit=fit, g2=g2)


def measure_config_peak(cfg: ExperimentConfig, seed: int) -> PeakMeasurement:
    """Simulate a configuration and measure its coincidence peak."""
    a, b = run_simulation(cfg, seed)
    bin_ps, window_ps = suggested_binning(cfg)
    return measure_peak(a, b, bin_ps, window_ps)

