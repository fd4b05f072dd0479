"""Monte-Carlo generator tests: determinism, calibration, stage semantics."""

import math

import numpy as np
import pytest

from ndcsim import model, presets
from ndcsim.errors import ParameterError, TimestampRangeError
from ndcsim.model import DispersionLeg, SourceParams
from ndcsim.pipeline import run_simulation
from ndcsim.simulate import (
    DetectorSpec,
    TimerSpec,
    detect,
    digitize,
    generate_pairs,
    propagate,
)

SRC = SourceParams(pair_rate_hz=24000.0)
NO_FIBER = DispersionLeg(length_km=0.0)


class TestGeneratePairs:
    def test_deterministic(self):
        p1 = generate_pairs(SRC, "anti", 1.0, seed=42)
        p2 = generate_pairs(SRC, "anti", 1.0, seed=42)
        assert np.array_equal(p1.emission_fs, p2.emission_fs)
        assert np.array_equal(p1.delta_t_fs, p2.delta_t_fs)
        assert np.array_equal(p1.omega_signal, p2.omega_signal)

    def test_zero_duration_empty(self):
        assert len(generate_pairs(SRC, "anti", 0.0, seed=1)) == 0

    def test_emission_sorted_and_poisson_rate(self):
        pairs = generate_pairs(SRC, "anti", 5.0, seed=3)
        assert np.all(np.diff(pairs.emission_fs) >= 0)
        expected = SRC.pair_rate_hz * 5.0
        assert abs(len(pairs) - expected) < 5 * math.sqrt(expected)

    def test_delta_t_variance_matches_model(self):
        src = SourceParams(pair_rate_hz=1e6)
        pairs = generate_pairs(src, "anti", 1.0, seed=7)
        assert len(pairs) > 990_000
        var_ps2 = np.var(pairs.delta_t_fs / 1e3)
        assert var_ps2 == pytest.approx(model.source_variance_ps2(src, 0, 0), rel=5e-3)

    def test_mode_correlations(self):
        anti = generate_pairs(SRC, "anti", 0.5, seed=5)
        pos = generate_pairs(SRC, "positive", 0.5, seed=5)
        indep = generate_pairs(SRC, "none", 0.5, seed=5)
        assert np.array_equal(anti.omega_idler, -anti.omega_signal)
        assert np.array_equal(pos.omega_idler, pos.omega_signal)
        r = np.corrcoef(indep.omega_signal, indep.omega_idler)[0, 1]
        assert abs(r) < 0.05

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            generate_pairs(SRC, "sideways", 1.0, seed=0)

    def test_overflowing_duration_rejected(self):
        with pytest.raises(TimestampRangeError):
            generate_pairs(SRC, "anti", 1e5, seed=0)


class TestPropagate:
    def test_zero_length_identity(self):
        pairs = generate_pairs(SRC, "anti", 0.5, seed=11)
        arrival, survive = propagate(pairs, NO_FIBER, "signal", seed=11)
        expected = pairs.emission_fs + 0.5 * pairs.delta_t_fs
        assert np.allclose(arrival, expected)
        assert survive.all()

    def test_idler_sign(self):
        pairs = generate_pairs(SRC, "anti", 0.5, seed=11)
        arrival, _ = propagate(pairs, NO_FIBER, "idler", seed=11)
        assert np.allclose(arrival, pairs.emission_fs - 0.5 * pairs.delta_t_fs)

    def test_ideal_cancellation_restores_variance(self):
        # equal-and-opposite accumulated dispersion: k_s''l_1 = -k_i''l_2
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, "anti", 1.0, seed=13)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(
            k2_s2_per_m=2.26e-26 * 62.0 / 7.47, length_km=7.47, attenuation_db_per_km=0.0
        )
        arr_s, _ = propagate(pairs, leg_s, "signal", seed=13)
        arr_i, _ = propagate(pairs, leg_i, "idler", seed=13)
        var_ps2 = np.var((arr_s - arr_i) / 1e3)
        base = src.base_variance_ps2
        n = len(pairs)
        assert var_ps2 == pytest.approx(base, rel=5 * math.sqrt(2.0 / n))

    def test_dispersed_variance_matches_model(self):
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, "anti", 1.0, seed=17)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(k2_s2_per_m=1.95e-25, length_km=7.47, attenuation_db_per_km=0.0)
        arr_s, _ = propagate(pairs, leg_s, "signal", seed=17)
        arr_i, _ = propagate(pairs, leg_i, "idler", seed=17)
        var_ps2 = np.var((arr_s - arr_i) / 1e3)
        expected = model.source_variance_ps2(src, leg_s.k2l_ps2, leg_i.k2l_ps2)
        assert var_ps2 == pytest.approx(expected, rel=5 * math.sqrt(2.0 / len(pairs)))

    def test_survival_probability(self):
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, "anti", 1.0, seed=19)
        leg = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.2)
        _, survive = propagate(pairs, leg, "signal", seed=19)
        p = 10 ** (-1.24)
        n = len(pairs)
        assert survive.mean() == pytest.approx(p, abs=5 * math.sqrt(p / n))

    def test_group_delay(self):
        pairs = generate_pairs(SRC, "anti", 0.1, seed=23)
        leg = DispersionLeg(length_km=62.0, attenuation_db_per_km=0.0, group_index=1.468)
        arrival, _ = propagate(pairs, leg, "signal", seed=23)
        delay_fs = 62e3 * 1.468 / model.SPEED_OF_LIGHT_M_PER_S * 1e15
        shift = arrival - (pairs.emission_fs + 0.5 * pairs.delta_t_fs)
        assert np.allclose(shift, delay_fs)


class TestDetect:
    IDEAL = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)

    def test_ideal_detector_identity(self):
        times = np.array([5.0, 1.0, 3.0]) * 1e6
        out = detect(times, self.IDEAL, seed=0, stage=3)
        assert np.array_equal(out, np.sort(times))

    def test_efficiency_thinning(self):
        times = np.arange(100_000, dtype=float) * 1e6
        det = DetectorSpec(efficiency=0.5, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
        out1 = detect(times, det, seed=5, stage=3)
        out2 = detect(times, det, seed=5, stage=3)
        assert np.array_equal(out1, out2)
        assert abs(out1.size - 50_000) < 5 * math.sqrt(25_000)

    def test_jitter_variance(self):
        times = np.zeros(200_000)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=26.587, dark_rate_hz=0.0, dead_time_ns=0.0)
        out = detect(times, det, seed=7, stage=3)
        sigma_ps = out.std() / 1e3
        assert sigma_ps == pytest.approx(26.587 / model.FWHM_PER_SIGMA, rel=0.01)

    def test_dark_counts_added(self):
        times = np.linspace(0, 1e15, 1000)  # 1 s span
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0, dead_time_ns=0.0)
        out = detect(times, det, seed=9, stage=3)
        extra = out.size - times.size
        assert abs(extra - 5000) < 5 * math.sqrt(5000)

    def test_dead_time_pruning(self):
        # bursts closer than the dead time collapse to their first event
        times = np.array([0.0, 10.0, 20.0, 100.0, 105.0, 300.0]) * 1e6  # fs
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=40.0)
        out = detect(times, det, seed=0, stage=3)
        assert np.array_equal(out, np.array([0.0, 100.0, 300.0]) * 1e6)


class TestDigitize:
    TIMER = TimerSpec(resolution_fs=1000, clock_offset_fs=0, site_id=0)

    def test_round_half_up(self):
        stream = digitize(np.array([1234.6e3]), self.TIMER, acquisition_span_fs=10**7)
        assert stream.tags[0] == 1235_000

    def test_clock_offset(self):
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=267_000_000_000, site_id=1)
        stream = digitize(np.array([0.0, 1e6]), timer, acquisition_span_fs=10**7)
        assert stream.tags[0] == 267_000_000_000
        assert stream.tags[1] == 267_000_000_000 + 1_000_000

    def test_round_trip_on_grid(self):
        tags = np.arange(0, 100) * 1000
        stream = digitize(tags.astype(float), self.TIMER, acquisition_span_fs=10**6)
        assert np.array_equal(stream.tags, tags)

    def test_range_error(self):
        with pytest.raises(TimestampRangeError):
            digitize(np.array([9.3e18]), self.TIMER, acquisition_span_fs=10**6)

    def test_unsorted_rejected(self):
        with pytest.raises(ParameterError):
            digitize(np.array([2e6, 1e6]), self.TIMER, acquisition_span_fs=10**7)


class TestEndToEnd:
    def test_identical_seeds_identical_streams(self):
        cfg = presets.fig2d_config(duration_s=0.5)
        a1, b1 = run_simulation(cfg, seed=99)
        a2, b2 = run_simulation(cfg, seed=99)
        assert a1 == a2
        assert b1 == b2
        a3, _ = run_simulation(cfg, seed=100)
        assert a3 != a1

    def test_detected_rates_near_target(self):
        a, b = run_simulation(presets.fig2d_config(), seed=0)
        # both arms balanced to ~12 kHz over 5 s => ~60000 tags
        assert abs(len(a) - 60_000) < 2_000
        assert abs(len(b) - 60_000) < 2_000
