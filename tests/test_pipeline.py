"""measure_peak sizes its histograms from the coarse peak alone."""

import io
import os

import numpy as np
import pytest

from ndcsim import model, pipeline, presets
from ndcsim.analyze import evaluate_wasak, variance_from_fit
from ndcsim.config import dump_config, parse_config
from ndcsim.errors import FitError, ParameterError
from ndcsim.pipeline import acquisition_span_fs, measure_config_peak, measure_peak, run_simulation
from ndcsim.reproduce import FIG2A_FWHM_RANGE
from ndcsim.streams import TagStream

# Peaks from the 37.6 ps jitter floor to the 5 ns classical widths.
CONFIGS = {
    "fig2a": presets.fig2a_config(duration_s=2.0),
    "fig2d-anti": presets.fig2d_config(duration_s=2.0),
    "fig2d-positive": presets.fig2d_config(mode=1.0, duration_s=2.0),
    "fig2d-none": presets.fig2d_config(mode=0.0, duration_s=2.0),
    "fig3-smf-62km": presets.fig3_config("smf", 62.0, duration_s=2.0),
    "fig3-dcf-7.47km": presets.fig3_config("dcf", 7.47, duration_s=2.0),
}


@pytest.mark.parametrize("last_tag_fs, span_fs", [(None, 23), (-40, 23), (20, 23), (24, 24)],
                         ids=["no-tags", "negative-tag", "tag-before-duration",
                              "tag-after-duration"])
def test_acquisition_span_covers_duration_and_last_tag(last_tag_fs, span_fs):
    # 22.5 fs of acquisition span 23 whole fs, or to a later last tag
    assert acquisition_span_fs(2.25e-14, last_tag_fs) == span_fs


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert pipeline._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


@pytest.mark.parametrize("resolution_fs", [0, -1000, 2**60])
def test_stream_without_a_tick_refused(resolution_fs):
    # measure_peak bins in whole ticks; a stream without one used to end it in
    # a ZeroDivisionError, and a 2**60 fs tick, whose 501-tick seed window
    # leaves int64, in an OverflowError
    a = np.sort(np.random.default_rng(0).integers(0, 10**15, 20_000))
    with pytest.raises(ParameterError, match="resolution_fs"):
        measure_peak(TagStream(a, resolution_fs, 0, 10**15),
                     TagStream(a + 5000, resolution_fs, 1, 10**15))


@pytest.mark.parametrize("name", CONFIGS)
def test_default_arguments_match_prediction(name):
    cfg = CONFIGS[name]
    a, b = run_simulation(cfg, seed=3)
    meas = measure_peak(a, b)
    var, var_err = variance_from_fit(meas.fit)
    assert abs(var - presets.predicted_pair_variance_ps2(cfg)) < 4 * var_err
    assert meas.histogram.bin_width_ps == pytest.approx(max(meas.fit.fwhm_ps / 10, 1.0), rel=0.2)
    assert meas.histogram.bin_width_ps * 1000 % a.resolution_fs == 0  # whole timer ticks


@pytest.mark.parametrize("rho", ["-0.998", "-0.997"])
def test_witness_at_interior_correlation(rho):
    # A file may set any correlation in [-1, 1]; W measured at the fig2d
    # preset against a fig2a "before" peak is the analytic W(rho) within 3
    # errors, on either side of the classical bound at rho* = -0.997443.
    text = dump_config(presets.fig2d_config()).replace("mode = -1.0", f"mode = {rho}")
    cfg = parse_config(io.StringIO(text))
    assert cfg.run.mode == float(rho)
    before_cfg = presets.fig2a_config()
    before = measure_config_peak(before_cfg, seed=0)
    after = measure_config_peak(cfg, seed=1_000_003)
    two_beta_l = presets.wasak_two_beta_l_ps2(cfg)
    measured = evaluate_wasak(before.fit, after.fit, two_beta_l)
    analytic = model.Witness(
        presets.predicted_pair_variance_ps2(before_cfg), 0.0,
        presets.predicted_pair_variance_ps2(cfg), 0.0, two_beta_l).w
    assert abs(measured.w - analytic) < 3 * measured.w_err


def test_histogram_counts_every_pair_within_its_edges():
    # Each bin, the last one too, holds every pair between its edges
    # origin + k*bin.  At this seed the one pair of the last 523 ps bin lies
    # beyond +floor(4 FWHM), where a window cut there would lose it.
    a, b = run_simulation(presets.fig2d_config(mode=1.0), seed=1_000_003)
    meas = measure_peak(a, b)
    h = meas.histogram
    origin_fs, bin_fs = round(h.origin_ps * 1000), round(h.bin_width_ps * 1000)
    edges = meas.offset_fs + origin_fs + bin_fs * np.arange(h.counts.size + 1)
    below = [np.searchsorted(b.tags, a.tags + edge, side="left").sum() for edge in edges]
    assert h.counts.tolist() == np.diff(below).tolist()
    assert h.counts[-1] == 1


def test_widened_search_span_fig2a():
    # Over +/- 10 ms, the seed pass must still resolve the 37.6 ps peak.
    a, b = run_simulation(presets.fig2a_config(), seed=0)
    fwhm = measure_peak(a, b, search_span_ms=10.0).fit.fwhm_ps
    lo, hi = FIG2A_FWHM_RANGE
    assert lo <= fwhm <= hi


@pytest.mark.parametrize("cfg, search_span_ms", [
    (presets.fig2a_config(), 0.01),
    (presets.fig2d_config(duration_s=0.2 * presets.ACQUISITION_S), 1.0),
], ids=["fig2a", "fig2d-scale-0.2"])
def test_fwhm_error_matches_scatter(cfg, search_span_ms):
    # The reported FWHM error is the seed-to-seed scatter of the FWHM: over 60
    # seeds their ratio is 1 within about 3 times its own 9 % uncertainty.
    fits = [measure_peak(*run_simulation(cfg, seed), search_span_ms).fit
            for seed in range(9000, 9060)]
    fwhm = np.array([f.fwhm_ps for f in fits])
    pull = fwhm.std(ddof=1) / np.mean([f.fwhm_err_ps for f in fits])
    assert 0.75 <= pull <= 1.33


@pytest.mark.parametrize("duration_s, least, scatter", [(0.05, 85, False), (0.1, 98, True)],
                         ids=["0.05s", "0.1s"])
def test_weak_fig2d_peaks_measured(duration_s, least, scatter):
    # At 1 % and 2 % of the paper's acquisition the coarse stage accepts the
    # peak on every seed; the fit, held to the same false-alarm level, must
    # measure nearly all of them.
    cfg = presets.fig2d_config(duration_s=duration_s)
    fits = []
    for seed in range(100):
        try:
            fits.append(measure_peak(*run_simulation(cfg, seed)).fit)
        except FitError:
            pass
    assert len(fits) >= least
    if scatter:
        fwhm = np.array([f.fwhm_ps for f in fits])
        assert 0.75 <= fwhm.std(ddof=1) / np.mean([f.fwhm_err_ps for f in fits]) <= 1.33
