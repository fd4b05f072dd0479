"""End-to-end acceptance gate.

Eleven numbered criteria, each printing one pass/fail line.  Heavy
simulation products are shared through module-scope fixtures so the whole
gate runs in minutes.
"""

import threading
import time

import numpy as np
import pytest

from ndcsim import model, presets, tagio
from ndcsim.analyze import dispersion_from_slope, evaluate_wasak, variance_from_fit
from ndcsim.correlate import coarse_offset, fine_histogram
from ndcsim.model import DispersionLeg, SourceParams, Witness
from ndcsim.pipeline import measure_config_peak, measure_peak, run_simulation
from ndcsim.reproduce import (
    FIG2A_FWHM_RANGE,
    FIG2D_FWHM_RANGE,
    FIG3_DCF_SLOPE_RANGE,
    FIG3_SMF_SLOPE_RANGE,
    REFERENCE_DCF_SLOPE,
    REFERENCE_SMF_SLOPE,
    reproduce_classical,
    reproduce_fig3,
    reproduce_wasak,
)
from ndcsim.streams import TagStream

SEED_SUITE = tuple(range(10))


def verdict(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {label}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig2a_meas():
    return measure_config_peak(presets.fig2a_config(), seed=0)


@pytest.fixture(scope="module")
def fig2d_meas():
    return measure_config_peak(presets.fig2d_config(), seed=0)


@pytest.fixture(scope="module")
def wasak_suite():
    return [reproduce_wasak(seed=s) for s in SEED_SUITE]


@pytest.fixture(scope="module")
def classical_suite():
    return [reproduce_classical(seed=s) for s in SEED_SUITE]


def test_01_wasak_oracle():
    witness = Witness(
        var_before_ps2=15.982**2,
        var_before_err_ps2=2 * 15.982 * 0.150,
        var_after_ps2=45.676**2,
        var_after_err_ps2=2 * 45.676 * 4.565,
        two_beta_l_ps2=1428.92,
    )
    w, w_err = witness.w, witness.w_err
    sigmas = (1.0 - w) / w_err
    ok = (abs(w - 0.253) <= 0.001 and abs(w_err - 0.052) <= 0.003
          and 13.5 <= sigmas <= 15.5)
    verdict(ok, "1 witness oracle",
            f"W = {w:.4f} +- {w_err:.4f}, {sigmas:.1f} sigma")


def test_02_dispersion_magnitude():
    two_bl = model.dispersion_magnitude_2bl(-2.26e-26 * 62_000 * 1e24,
                                            1.95e-25 * 7_470 * 1e24)
    ok = abs(two_bl - 1428.9) <= 0.5
    verdict(ok, "2 dispersion magnitude 2*beta*l", f"{two_bl:.2f} ps^2")


def test_03_jitter_floor_width(fig2a_meas):
    fwhm = fig2a_meas.fit.fwhm_ps
    lo, hi = FIG2A_FWHM_RANGE
    verdict(lo <= fwhm <= hi, "3 no-fiber peak width",
            f"FWHM = {fwhm:.2f} ps (target {lo:.1f}..{hi:.1f})")


def test_04_violating_configuration_width(fig2d_meas):
    fwhm = fig2d_meas.fit.fwhm_ps
    lo, hi = FIG2D_FWHM_RANGE
    verdict(lo <= fwhm <= hi, "4 dispersed peak width",
            f"FWHM = {fwhm:.2f} ps (target {lo:.0f}..{hi:.0f})")


def test_05_wasak_violation_all_seeds(wasak_suite):
    ws = [r.result.w for r in wasak_suite]
    sigmas = [r.result.violation_sigmas for r in wasak_suite]
    ok = all(r.passed for r in wasak_suite)
    verdict(ok, "5 witness violation over the 10-seed suite",
            f"W in [{min(ws):.3f}, {max(ws):.3f}], min significance {min(sigmas):.1f} sigma")


def test_06_fiber_sweep_slopes():
    report = reproduce_fig3(seed=0)
    smf_nom, smf_fit, _, smf_k2, smf_k2_err = report.result["smf"]
    dcf_nom, dcf_fit, _, dcf_k2, dcf_k2_err = report.result["dcf"]
    detail = (f"smf {smf_nom.slope:.2f} ps/km, dcf {dcf_nom.slope:.2f} ps/km; "
              f"fitted-k2 {smf_fit.slope:.2f}/{dcf_fit.slope:.2f} vs "
              f"{REFERENCE_SMF_SLOPE}/{REFERENCE_DCF_SLOPE}")
    assert FIG3_SMF_SLOPE_RANGE[0] <= smf_nom.slope <= FIG3_SMF_SLOPE_RANGE[1]
    assert FIG3_DCF_SLOPE_RANGE[0] <= dcf_nom.slope <= FIG3_DCF_SLOPE_RANGE[1]
    assert abs(dispersion_from_slope(REFERENCE_SMF_SLOPE, SourceParams())) == pytest.approx(
        2.37e-26, rel=0.01)
    assert abs(dispersion_from_slope(REFERENCE_DCF_SLOPE, SourceParams())) == pytest.approx(
        1.99e-25, rel=0.01)
    # the k2 each simulated nominal-k2 sweep recovers lies within 3 slope errors of the preset
    assert abs(smf_k2 - abs(presets.SMF_K2_S2_PER_M)) <= 3 * smf_k2_err
    assert abs(dcf_k2 - abs(presets.DCF_K2_S2_PER_M)) <= 3 * dcf_k2_err
    verdict(report.passed, "6 width-versus-length slopes", detail)


def test_07_classical_no_violation(classical_suite):
    ws = [r.result[mode].w for r in classical_suite for mode in ("positive", "none")]
    ok = all(r.passed for r in classical_suite)
    verdict(ok, "7 classical modes stay at or above the bound",
            f"min W = {min(ws):.1f} over 10 seeds x 2 modes")


def test_08_correlator_brute_force_oracle():
    rng = np.random.default_rng(12345)
    bad = 0
    for _ in range(500):
        na, nb = rng.integers(1, 2001, 2)
        a = np.sort(rng.integers(0, 10**11, na)).astype(np.int64)
        b = np.sort(rng.integers(0, 10**11, nb)).astype(np.int64)
        offset = int(rng.integers(-10**8, 10**8))
        origin_fs, bin_fs, nbins = -2_000_000, 25_000, 160
        sa = TagStream(a, 1000, 0, int(a[-1]))
        sb = TagStream(b, 1000, 1, int(b[-1]))
        h = fine_histogram(sa, sb, offset, origin_fs, bin_fs, nbins)
        diffs = (b[None, :] - a[:, None] - offset).ravel()
        diffs = diffs[(diffs >= origin_fs) & (diffs < origin_fs + nbins * bin_fs)]
        oracle = np.bincount((diffs - origin_fs) // bin_fs, minlength=nbins)
        if not np.array_equal(h.counts, oracle):
            bad += 1
    verdict(bad == 0, "8 histogram matches brute force",
            f"{500 - bad}/500 random stream pairs bin-for-bin identical")


def test_09_offset_recovery():
    offsets = (0, 10**9, -(10**9), 267 * 10**9, -267 * 10**9)
    worst = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = rng.poisson(60_000)
        base = np.sort(rng.integers(0, 5 * 10**15, n)).astype(np.int64)
        sa = TagStream(base, 1000, 0, 5 * 10**15)
        for off in offsets:
            sb = TagStream(base + off, 1000, 1, 5 * 10**15 + abs(off))
            err = abs(coarse_offset(sa, sb)[0] - off)
            worst = max(worst, err)
    verdict(worst <= 10**6, "9 offset recovery",
            f"worst error {worst} fs over 3 seeds x 5 offsets (allow 1 ns)")


def test_10_performance():
    rng = np.random.default_rng(99)
    n = 10**7
    span = 5 * 10**15
    base = np.sort(rng.integers(0, span, n)).astype(np.int64)
    jitter = rng.normal(0.0, 10_000.0, n).astype(np.int64)
    sa = TagStream(base, 1000, 0, span)
    sb = TagStream(np.sort(base + jitter + 10**9), 1000, 1, span + 2 * 10**9)
    t0 = time.perf_counter()
    offset, _, _ = coarse_offset(sa, sb)
    fine_histogram(sa, sb, offset, -2_000_000, 8000, 500)
    correlate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_simulation(presets.fig2d_config(), seed=0)
    simulate_s = time.perf_counter() - t0

    ok = correlate_s < 10.0 and simulate_s < 2.0
    verdict(ok, "10 performance",
            f"1e7-tag correlation {correlate_s:.2f} s (< 10), "
            f"60000-tag simulation {simulate_s:.2f} s (< 2)")


def test_11_networked_equivalence(fig2a_meas, fig2d_meas):
    before_a, before_b = run_simulation(presets.fig2a_config(), seed=0)
    offline = measure_peak(before_a, before_b)

    terminal = tagio.Terminal()
    port = terminal.port
    collected = {}

    def run():
        collected.update(terminal.collect(n_sites=2))

    t = threading.Thread(target=run)
    t.start()
    tagio.send_to_terminal(before_a, ("127.0.0.1", port))
    tagio.send_to_terminal(before_b, ("127.0.0.1", port))
    t.join(timeout=60)

    rx_a, rx_b = collected[0], collected[1]
    assert rx_a == before_a and rx_b == before_b
    networked = measure_peak(rx_a, rx_b)
    same_hist = (np.array_equal(networked.histogram.counts, offline.histogram.counts)
                 and networked.offset_fs == offline.offset_fs)

    two_bl = presets.wasak_two_beta_l_ps2()
    w_offline = evaluate_wasak(offline.fit, fig2d_meas.fit, two_bl)
    w_networked = evaluate_wasak(networked.fit, fig2d_meas.fit, two_bl)
    verdict(same_hist and w_networked == w_offline, "11 networked pipeline equivalence",
            f"identical histogram, W = {w_networked.w:.4f} both paths")


def test_12_ndc_configurations_match_prediction():
    # partial-compensation geometries: simulated width must sit on the
    # analytic variance prediction within 3 sigma of the fit
    geometries = ((10.0, 1.245), (20.0, 2.49))
    details = []
    ok = True
    for smf_km, dcf_km in geometries:
        cfg = presets.preset_config(
            DispersionLeg(presets.SMF_K2_S2_PER_M, smf_km,
                          presets.SMF_ATTENUATION_DB_PER_KM, presets.SMF_GROUP_INDEX),
            DispersionLeg(presets.DCF_K2_S2_PER_M, dcf_km,
                          presets.DCF_ATTENUATION_DB_PER_KM, presets.DCF_GROUP_INDEX),
        )
        meas = measure_config_peak(cfg, seed=0)
        var, var_err = variance_from_fit(meas.fit)
        predicted = presets.predicted_pair_variance_ps2(cfg)
        pull = abs(var - predicted) / var_err
        ok = ok and pull <= 3.0
        details.append(f"{smf_km:g}/{dcf_km:g} km: {pull:.1f} sigma")
    verdict(ok, "12 partial-compensation widths match prediction", ", ".join(details))
