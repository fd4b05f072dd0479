"""measure_peak sizes its histograms from the coarse peak alone."""

import pytest

from ndcsim import presets
from ndcsim.analyze import variance_from_fit
from ndcsim.pipeline import measure_peak, run_simulation
from ndcsim.reproduce import FIG2A_FWHM_RANGE

# Peaks from the 37.6 ps jitter floor to the 5 ns classical widths.
CONFIGS = {
    "fig2a": presets.fig2a_config(duration_s=2.0),
    "fig2d-anti": presets.fig2d_config(duration_s=2.0),
    "fig2d-positive": presets.fig2d_config(mode="positive", duration_s=2.0),
    "fig2d-none": presets.fig2d_config(mode="none", duration_s=2.0),
    "fig3-smf-62km": presets.fig3_config("smf", 62.0, duration_s=2.0),
    "fig3-dcf-7.47km": presets.fig3_config("dcf", 7.47, duration_s=2.0),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_default_arguments_match_prediction(name):
    cfg = CONFIGS[name]
    meas = measure_peak(*run_simulation(cfg, seed=3))
    var, var_err = variance_from_fit(meas.fit)
    assert abs(var - presets.predicted_pair_variance_ps2(cfg)) < 4 * var_err
    assert meas.histogram.bin_width_ps == pytest.approx(max(meas.fit.fwhm_ps / 10, 1.0), rel=0.2)


def test_widened_search_span_fig2a():
    # +/- 10 ms is searched at a 5 ns bin and refined at 1 ns; the seed pass
    # must still resolve the 37.6 ps peak.
    a, b = run_simulation(presets.fig2a_config(), seed=0)
    fwhm = measure_peak(a, b, search_span_ms=10.0).fit.fwhm_ps
    lo, hi = FIG2A_FWHM_RANGE
    assert lo <= fwhm <= hi
