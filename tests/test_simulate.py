"""Monte-Carlo generator tests: determinism, calibration, stage semantics."""

import dataclasses
import hashlib
import io
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndcsim import model, pipeline, presets, simulate, tagio
from ndcsim.analyze import fit_gaussian
from ndcsim.cli import main
from ndcsim.config import dump_config
from ndcsim.correlate import fine_histogram, g2_normalize
from ndcsim.errors import ParameterError, TimestampRangeError
from ndcsim.model import DispersionLeg, SourceParams
from ndcsim.pipeline import run_simulation
from ndcsim.simulate import (
    BOTH,
    IDLER,
    SIGNAL,
    Carry,
    DetectorSpec,
    TimerSpec,
    _prune_dead_time,
    detect,
    digitize,
    generate_pairs,
    propagate,
)

SRC = SourceParams(pair_rate_hz=24000.0)
NO_FIBER = DispersionLeg(length_km=0.0)


def greedy_dead_time(times, dead_fs):
    """Reference dead-time filter: one sequential pass over every event."""
    if times.size == 0:
        return times
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_fs:
            keep[i] = False
        else:
            last = times[i]
    return times[keep]


def per_pair_oracle(cfg, seed):
    """Both tag streams of ``cfg`` from the per-photon thinning sampler.

    Every pair of the source is emitted, and each photon then survives its
    fiber and its detector's efficiency by independent Bernoulli draws.
    Jitter, dark counts, dead time and digitization are the package's.
    """
    assert cfg.run.mode == "anti"
    duration = cfg.run.duration_s
    src = cfg.source
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(src.pair_rate_hz * duration))
    emission = np.sort(rng.uniform(0.0, duration * 1e15, n)).astype(np.int64)
    delta_t = rng.normal(0.0, src.base_sigma_ps * 1e3, n)
    omega_s = rng.normal(0.0, src.effective_sigma_omega, n)
    legs = (
        (+0.5, omega_s, cfg.smf, cfg.detector_a, cfg.timer_a),
        (-0.5, -omega_s, cfg.dcf, cfg.detector_b, cfg.timer_b),
    )
    streams = []
    for stage, (half, omega, leg, det, timer) in enumerate(legs, start=3):
        arrival = emission + half * delta_t + leg.group_delay_fs + leg.k2l_ps2 * omega * 1e3
        survive = rng.random(n) < leg.survival_probability
        detected = survive & (rng.random(n) < det.efficiency)
        times = detect(arrival[detected], det, seed, stage, duration)
        streams.append(digitize(times, timer, int(math.ceil(duration * 1e15))))
    return streams


class TestGeneratePairs:
    def test_deterministic(self):
        p1 = generate_pairs(SRC, "anti", 1.0, seed=42)
        p2 = generate_pairs(SRC, "anti", 1.0, seed=42)
        assert np.array_equal(p1.emission_fs, p2.emission_fs)
        assert np.array_equal(p1.delta_t_fs, p2.delta_t_fs)
        assert np.array_equal(p1.omega_signal, p2.omega_signal)
        assert np.array_equal(p1.arms, p2.arms)

    def test_zero_duration_empty(self):
        assert len(generate_pairs(SRC, "anti", 0.0, seed=1)) == 0

    def test_undetectable_arms_empty(self):
        pairs = generate_pairs(SRC, "anti", 1.0, 1, p_signal=0.0, p_idler=0.0)
        assert len(pairs) == 0 and pairs.arms.dtype == np.uint8
        for which in ("signal", "idler"):
            arrival = propagate(pairs, NO_FIBER, which)
            assert arrival.size == 0 and arrival.dtype == np.float64

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

    def test_detection_probability_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            generate_pairs(SRC, "anti", 1.0, seed=0, p_signal=1.5)
        with pytest.raises(ParameterError):
            generate_pairs(SRC, "anti", 1.0, seed=0, p_idler=-0.1)


class TestPropagate:
    def test_zero_length_identity(self):
        pairs = generate_pairs(SRC, "anti", 0.5, seed=11)
        arrival = propagate(pairs, NO_FIBER, "signal")
        expected = pairs.emission_fs + 0.5 * pairs.delta_t_fs
        assert np.allclose(arrival, expected)

    def test_idler_sign(self):
        pairs = generate_pairs(SRC, "anti", 0.5, seed=11)
        arrival = propagate(pairs, NO_FIBER, "idler")
        assert np.allclose(arrival, pairs.emission_fs - 0.5 * pairs.delta_t_fs)

    def test_ideal_cancellation_restores_variance(self):
        # equal-and-opposite accumulated dispersion: k_s''l_1 = -k_i''l_2
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, "anti", 1.0, seed=13)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(
            k2_s2_per_m=2.26e-26 * 62.0 / 7.47, length_km=7.47, attenuation_db_per_km=0.0
        )
        arr_s = propagate(pairs, leg_s, "signal")
        arr_i = propagate(pairs, leg_i, "idler")
        var_ps2 = np.var((arr_s - arr_i) / 1e3)
        base = src.base_variance_ps2
        n = len(pairs)
        assert var_ps2 == pytest.approx(base, rel=5 * math.sqrt(2.0 / n))

    def test_dispersed_variance_matches_model(self):
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, "anti", 1.0, seed=17)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(k2_s2_per_m=1.95e-25, length_km=7.47, attenuation_db_per_km=0.0)
        arr_s = propagate(pairs, leg_s, "signal")
        arr_i = propagate(pairs, leg_i, "idler")
        var_ps2 = np.var((arr_s - arr_i) / 1e3)
        expected = model.source_variance_ps2(src, leg_s.k2l_ps2, leg_i.k2l_ps2)
        assert var_ps2 == pytest.approx(expected, rel=5 * math.sqrt(2.0 / len(pairs)))

    def test_survival_probability(self):
        # fiber loss is drawn with the pair marking: with a lossless idler arm
        # every pair is kept and the signal arm holds the survivors
        src = SourceParams(pair_rate_hz=2e5)
        leg = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.2)
        pairs = generate_pairs(src, "anti", 1.0, 19, leg.survival_probability, 1.0)
        survivors = propagate(pairs, leg, "signal")
        p = 10 ** (-1.24)
        n = len(pairs)
        assert survivors.size / n == pytest.approx(p, abs=5 * math.sqrt(p / n))

    def test_group_delay(self):
        pairs = generate_pairs(SRC, "anti", 0.1, seed=23)
        leg = DispersionLeg(length_km=62.0, attenuation_db_per_km=0.0, group_index=1.468)
        arrival = propagate(pairs, leg, "signal")
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
        # efficiency is drawn with the pair marking, so detect keeps every
        # arrival it is given; the arm's share of the pairs is the efficiency
        src = SourceParams(pair_rate_hz=1e5)
        det = DetectorSpec(efficiency=0.5, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
        pairs = generate_pairs(src, "anti", 1.0, 5, det.efficiency, 1.0)
        arrivals = propagate(pairs, NO_FIBER, "signal")
        out1 = detect(arrivals, det, seed=5, stage=3)
        out2 = detect(arrivals, det, seed=5, stage=3)
        assert np.array_equal(out1, out2)
        assert np.array_equal(out1, np.sort(arrivals))
        n = len(pairs)
        assert abs(out1.size - n / 2) < 5 * math.sqrt(n / 4)

    def test_jitter_variance(self):
        times = np.zeros(200_000)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=26.587, dark_rate_hz=0.0, dead_time_ns=0.0)
        out = detect(times, det, seed=7, stage=3)
        sigma_ps = out.std() / 1e3
        assert sigma_ps == pytest.approx(26.587 / model.FWHM_PER_SIGMA, rel=0.01)

    def test_dark_counts_added(self):
        times = np.linspace(0, 1e15, 1000)  # 1 s span
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0, dead_time_ns=0.0)
        out = detect(times, det, seed=9, stage=3, duration_s=1.0)
        extra = out.size - times.size
        assert abs(extra - 5000) < 5 * math.sqrt(5000)

    @pytest.mark.parametrize("times", [np.empty(0), np.array([0.5e15])], ids=["empty", "one"])
    def test_dark_counts_over_acquisition_window(self, times):
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0, dead_time_ns=0.0)
        out = detect(times, det, seed=9, stage=3, duration_s=1.0)
        assert abs(out.size - times.size - 5000) < 5 * math.sqrt(5000)
        assert out[0] >= 0.0 and out[-1] < 1e15

    def test_zero_arrivals_full_detector(self):
        # jitter and dead time on as well, over an empty and a zero-length window
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=26.587, dark_rate_hz=5000.0,
                           dead_time_ns=40.0)
        out = detect(np.empty(0), det, seed=9, stage=4, duration_s=1.0)
        assert abs(out.size - 5000) < 5 * math.sqrt(5000)
        assert np.all(out[1:] - out[:-1] >= 40e6)
        assert out[0] >= 0.0 and out[-1] < 1e15
        assert detect(np.empty(0), det, seed=9, stage=4, duration_s=0.0).size == 0

    def test_dead_time_pruning(self):
        # bursts closer than the dead time collapse to their first event
        times = np.array([0.0, 10.0, 20.0, 100.0, 105.0, 300.0]) * 1e6  # fs
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=40.0)
        out = detect(times, det, seed=0, stage=3)
        assert np.array_equal(out, np.array([0.0, 100.0, 300.0]) * 1e6)

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e4)), max_size=200
        ),
        start=st.floats(-1e9, 1e9),
        fraction=st.floats(0.0, 1.0),
    )
    def test_dead_time_filter_matches_greedy_loop(self, gaps, start, fraction):
        # zero gaps are ties, runs of short gaps are dense bursts
        times = start + np.cumsum(np.asarray(gaps, dtype=np.float64))
        dead_fs = fraction * (float(times[-1] - times[0]) if times.size else 0.0)
        expected = greedy_dead_time(times, dead_fs)
        # the filter works in place, in chunks of gaps; 3 puts chunk joins in bursts
        for chunk in (3, simulate._PRUNE_CHUNK):
            with mock.patch.object(simulate, "_PRUNE_CHUNK", chunk):
                assert np.array_equal(_prune_dead_time(times.copy(), dead_fs), expected)


class TestMarking:
    """Pair classes of the marked sampler at the fig2d geometry."""

    CFG = presets.fig2d_config(duration_s=1.0)
    SEEDS = range(20)

    def test_class_counts(self):
        cfg = self.CFG
        p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
        p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
        # 62 km at 0.2 dB/km and a 0.5 efficiency detector in the signal arm
        assert p_a == pytest.approx(10 ** (-1.24) * 0.5, rel=1e-12)
        emitted = cfg.source.pair_rate_hz * cfg.run.duration_s * len(self.SEEDS)
        drawn = []
        # the fig2d arms are balanced, so an unbalanced pair of arms as well
        for p_s, p_i in ((p_a, p_b), (0.5, 0.2)):
            counts = np.zeros(4, dtype=np.int64)
            for seed in self.SEEDS:
                pairs = generate_pairs(cfg.source, "anti", cfg.run.duration_s, seed, p_s, p_i)
                counts += np.bincount(pairs.arms, minlength=4)
                signal = propagate(pairs, cfg.smf, "signal")
                assert signal.size == np.count_nonzero(pairs.arms & SIGNAL)
                idler = propagate(pairs, cfg.dcf, "idler")
                assert idler.size == np.count_nonzero(pairs.arms & IDLER)
            assert counts[0] == 0
            drawn.append(counts.sum())
            checks = {
                "both": (counts[BOTH], p_s * p_i),
                "signal only": (counts[SIGNAL], p_s * (1 - p_i)),
                "idler only": (counts[IDLER], (1 - p_s) * p_i),
                "signal arm": (counts[SIGNAL] + counts[BOTH], p_s),
                "idler arm": (counts[IDLER] + counts[BOTH], p_i),
            }
            for name, (n, p) in checks.items():
                assert abs(n - emitted * p) < 5 * math.sqrt(emitted * p), name
        # no pair lost in both arms is drawn: ~5.7 % of the fig2d pairs
        assert drawn[0] / emitted == pytest.approx(0.057, abs=0.001)

    def test_matches_per_pair_oracle(self):
        cfg = self.CFG
        offset = int(round(cfg.dcf.group_delay_fs - cfg.smf.group_delay_fs))
        fwhm = model.FWHM_PER_SIGMA * math.sqrt(presets.predicted_pair_variance_ps2(cfg))
        bin_fs = max(round(fwhm * 100), 1000)
        half_fs = max(round(4000 * fwhm), 2_000_000)
        totals = {"marked": np.zeros(3), "oracle": np.zeros(3)}
        fwhm = {"marked": [], "oracle": []}
        for seed in self.SEEDS:
            runs = {"marked": run_simulation(cfg, seed),
                    "oracle": per_pair_oracle(cfg, seed + 1000)}
            for name, (a, b) in runs.items():
                hist = fine_histogram(a, b, offset, -half_fs, bin_fs,
                                      math.ceil(2 * half_fs / bin_fs))
                totals[name] += (len(a), len(b), hist.total_pairs)
                fwhm[name].append(fit_gaussian(hist).fwhm_ps)
        for marked, oracle in zip(totals["marked"], totals["oracle"]):
            assert abs(marked - oracle) < 5 * math.sqrt(marked + oracle)
        mean = {name: np.mean(v) for name, v in fwhm.items()}
        sem2 = sum(np.var(v, ddof=1) / len(v) for v in fwhm.values())
        assert abs(mean["marked"] - mean["oracle"]) < 3 * math.sqrt(sem2)


class TestInputsUnchanged:
    """propagate, detect and digitize never write to the arrays they are given.

    The callers pass the same pairs to both arms, and a stage may work in
    place only on arrays it made itself.
    """

    CFG = presets.fig2d_config(duration_s=0.05)

    def pairs(self):
        cfg = self.CFG
        return generate_pairs(cfg.source, "anti", cfg.run.duration_s, 29,
                              cfg.smf.survival_probability, cfg.dcf.survival_probability)

    @staticmethod
    def arrays(pairs):
        fields = (getattr(pairs, f.name) for f in dataclasses.fields(pairs))
        return [v for v in fields if isinstance(v, np.ndarray)]

    def test_propagate(self):
        alone, first = self.pairs(), self.pairs()
        before = [a.copy() for a in self.arrays(first)]
        idler_alone = propagate(alone, self.CFG.dcf, "idler")
        signal = propagate(first, self.CFG.smf, "signal")
        idler = propagate(first, self.CFG.dcf, "idler")
        for array, copy in zip(self.arrays(first), before):
            assert array.tobytes() == copy.tobytes()
        assert idler.tobytes() == idler_alone.tobytes()
        assert not np.shares_memory(signal, idler)

    @pytest.mark.parametrize("jitter", [0.0, 26.587], ids=["no-jitter", "jitter"])
    @pytest.mark.parametrize("dark", [0.0, 5000.0], ids=["no-dark", "dark"])
    @pytest.mark.parametrize("dead", [0.0, 40.0], ids=["no-dead", "dead"])
    def test_detect(self, jitter, dark, dead):
        # unsorted, with bursts closer than the dead time
        rng = np.random.default_rng(3)
        arrivals = rng.uniform(0.0, 1e12, 20_000)
        arrivals[1::50] = arrivals[::50] + 1e6
        before = arrivals.copy()
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=jitter, dark_rate_hz=dark,
                           dead_time_ns=dead)
        out = detect(arrivals, det, seed=1, stage=3, duration_s=0.001)
        assert arrivals.tobytes() == before.tobytes()
        assert not np.shares_memory(out, arrivals)
        assert np.all(out[1:] >= out[:-1])
        if dead:
            assert np.all(out[1:] - out[:-1] >= dead * 1e6)

    @pytest.mark.parametrize("offset_fs", [0, 267_000_123_456])
    def test_digitize(self, offset_fs):
        times = np.sort(np.random.default_rng(5).uniform(-1e12, 1e12, 10_000))
        before = times.copy()
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=offset_fs, site_id=0)
        stream = digitize(times, timer, acquisition_span_fs=10**12)
        assert times.tobytes() == before.tobytes()
        assert not np.shares_memory(stream.tags, times)


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

    def test_empty(self):
        stream = digitize(np.empty(0), self.TIMER, acquisition_span_fs=10**6)
        assert stream.tags.size == 0 and stream.tags.dtype == np.int64
        assert stream.acquisition_span_fs == 10**6

    def test_range_error(self):
        with pytest.raises(TimestampRangeError):
            digitize(np.array([9.3e18]), self.TIMER, acquisition_span_fs=10**6)

    @pytest.mark.parametrize("times", [
        [-9.3e18, 0.0], [0.0, 9.3e18], [-math.inf, 0.0], [0.0, math.inf], [-math.inf, math.inf],
    ], ids=["low-first", "high-last", "-inf-first", "inf-last", "both-inf"])
    def test_range_error_at_either_end(self, times):
        # the check reads the ends of the sorted times, whichever end is out
        with pytest.raises(TimestampRangeError):
            digitize(np.array(times), self.TIMER, acquisition_span_fs=10**6)

    @pytest.mark.parametrize("offset_fs", [3 * 10**17, -3 * 10**17])
    def test_clock_offset_pushes_out_of_range(self, offset_fs):
        times = np.array([-9.0e18, 0.0, 9.0e18])
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=offset_fs, site_id=0)
        with pytest.raises(TimestampRangeError):
            digitize(times, timer, acquisition_span_fs=10**6)

    def test_extremes_in_range(self):
        stream = digitize(np.array([-9.2e18, 9.2e18]), self.TIMER, acquisition_span_fs=10**6)
        assert stream.tags.tolist() == [-9_200_000_000_000_000_000, 9_200_000_000_000_000_000]

    def test_unsorted_rejected(self):
        with pytest.raises(ParameterError):
            digitize(np.array([2e6, 1e6]), self.TIMER, acquisition_span_fs=10**7)

    @pytest.mark.parametrize("times", [
        [math.nan, 0.0, 1e6], [0.0, math.nan, 1e6], [0.0, 1e6, math.nan], [math.nan],
    ], ids=["first", "middle", "last", "alone"])
    def test_nan_rejected(self, times):
        # nan fails both the sortedness and the range comparison, before any cast.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                digitize(np.array(times), self.TIMER, acquisition_span_fs=10**7)


class TestEndToEnd:
    def test_identical_seeds_identical_streams(self):
        cfg = presets.fig2d_config(duration_s=0.5)
        a1, b1 = run_simulation(cfg, seed=99)
        a2, b2 = run_simulation(cfg, seed=99)
        assert a1 == a2
        assert b1 == b2
        a3, _ = run_simulation(cfg, seed=100)
        assert a3 != a1

    def test_zero_duration(self):
        for stream in run_simulation(presets.fig2d_config(duration_s=0.0), seed=0):
            assert len(stream) == 0 and stream.acquisition_span_fs == 0
            buf = io.BytesIO()
            tagio.write_tags(stream, buf)
            assert tagio.read_tags(io.BytesIO(buf.getvalue())) == stream

    def test_detected_rates_near_target(self):
        a, b = run_simulation(presets.fig2d_config(), seed=0)
        # both arms balanced to ~12 kHz over 5 s => ~60000 tags
        assert abs(len(a) - 60_000) < 2_000
        assert abs(len(b) - 60_000) < 2_000

    def test_accidental_baseline_unity(self):
        # uncorrelated detunings still pair in time; away from the peak and
        # the dead-time dip only accidental coincidences remain
        a, b = run_simulation(presets.fig2d_config(mode="none"), seed=0)
        cfg = presets.fig2d_config()
        offset = int(round(cfg.dcf.group_delay_fs - cfg.smf.group_delay_fs))
        h = fine_histogram(a, b, offset, -5 * 10**10, 10**7, 10**4)
        g2 = g2_normalize(h, a.rate_hz(), b.rate_hz(), max(a.duration_s, b.duration_s))
        wings = np.abs(h.bin_centers_ps) > 1e5
        n = h.counts[wings].sum()
        assert g2[wings].mean() == pytest.approx(1.0, abs=5 / math.sqrt(n))


class TestBlocks:
    """A run of many blocks equals one sort, prune and digitization of the same
    per-block draws."""

    BLOCK_FS = 5 * 10**13  # 50 ms: a 0.5 s run spans 10 blocks

    @staticmethod
    def oracle(cfg, seed, block_fs):
        """Both streams from every block's raw detections, concatenated, then
        sorted, pruned and digitized once."""
        duration = cfg.run.duration_s
        block_s = block_fs / 1e15
        p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
        p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
        arms = ((cfg.smf, "signal", cfg.detector_a, cfg.timer_a, 3),
                (cfg.dcf, "idler", cfg.detector_b, cfg.timer_b, 4))
        raw = ([], [])
        for block in itertools.count():
            start, end = block * block_s, min((block + 1) * block_s, duration)
            pairs = generate_pairs(cfg.source, cfg.run.mode, end, seed, p_a, p_b, start, block)
            for (leg, which, det, _, stage), out in zip(arms, raw):
                no_dead = dataclasses.replace(det, dead_time_ns=0.0)
                out.append(detect(propagate(pairs, leg, which), no_dead, seed, stage, end,
                                  start, block))
            if end >= duration:
                break
        streams = []
        for (_, _, det, timer, _), out in zip(arms, raw):
            times = greedy_dead_time(np.sort(np.concatenate(out)), det.dead_time_ns * 1e6)
            streams.append(digitize(times, timer, math.ceil(duration * 1e15)))
        return streams

    def check(self, monkeypatch, cfg, seed):
        monkeypatch.setattr(pipeline, "_BLOCK_FS", self.BLOCK_FS)
        streams = run_simulation(cfg, seed)
        assert list(streams) == self.oracle(cfg, seed, self.BLOCK_FS)
        return streams

    @pytest.mark.parametrize("mode", ["anti", "none"])
    def test_matches_one_shot_oracle(self, monkeypatch, mode):
        a, b = self.check(monkeypatch, presets.fig2d_config(mode=mode, duration_s=0.5), 3)
        # block 0 draws as the unblocked 50 ms run; no later block reaches
        # below its end
        short, _ = run_simulation(presets.fig2d_config(mode=mode, duration_s=0.05), 3)
        assert np.array_equal(a.tags[a.tags < self.BLOCK_FS],
                              short.tags[short.tags < self.BLOCK_FS])

    def test_group_delay_longer_than_a_block(self, monkeypatch):
        cfg = presets.fig2d_config(duration_s=0.5)
        # 20,000 km: about 98 ms of delay and 350 ns of dispersive spread
        smf = dataclasses.replace(cfg.smf, length_km=20_000.0, attenuation_db_per_km=0.0)
        cfg = dataclasses.replace(cfg, smf=smf)
        assert smf.group_delay_fs > 1.5 * self.BLOCK_FS
        a, _ = self.check(monkeypatch, cfg, 5)
        assert len(a) > 50_000

    def test_dead_time_straddles_block_boundaries(self, monkeypatch):
        cfg = presets.fig2d_config(duration_s=0.5)
        dead_ns = 5e6  # 5 ms, against about 83 us between tags
        cfg = dataclasses.replace(cfg, detector_a=dataclasses.replace(
            cfg.detector_a, dead_time_ns=dead_ns))
        a, _ = self.check(monkeypatch, cfg, 7)
        boundaries = self.BLOCK_FS * np.arange(1, 10)
        before = np.searchsorted(a.tags, boundaries) - 1
        straddling = boundaries - a.tags[before] < dead_ns * 1e6
        assert np.count_nonzero(straddling) >= 5

    def test_block_windows(self):
        # a block's pairs and dark counts lie in its own window, Poisson over its length
        pairs = generate_pairs(SRC, "anti", 2.0, 1, start_s=1.5, block=3)
        assert pairs.emission_fs.min() >= 1.5e15 and pairs.emission_fs.max() < 2e15
        assert abs(len(pairs) - 12_000) < 5 * math.sqrt(12_000)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0,
                           dead_time_ns=0.0)
        darks = detect(np.empty(0), det, 1, 3, 2.0, start_s=1.5, block=3)
        assert darks[0] >= 1.5e15 and darks[-1] < 2e15
        assert abs(darks.size - 2500) < 5 * math.sqrt(2500)
        assert not np.array_equal(darks, detect(np.empty(0), det, 1, 3, 2.0, 1.5, block=4))

    def test_detection_before_a_finalized_one_raises(self):
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
        carry = Carry(boundary_fs=2e12)
        first = detect(np.array([1e12, 3e12]), det, 0, 3, carry=carry)
        assert first.tolist() == [1e12] and carry.pending.tolist() == [3e12]
        with pytest.raises(ParameterError, match="precedes the finalized"):
            detect(np.array([0.5e12]), det, 0, 3, block=1, carry=carry)


# sha256 of both write_tags outputs of run_simulation, taken before the
# stages computed in place (the 0.5 s cases) and when the simulation first
# ran in 5 s blocks (the 12 s cases, three blocks each).
GOLDEN_TAG_DIGESTS = {
    ("fig2a", "anti", 0): (
        "454674fc7b73fd75e28fa07b0a57e51c31ab60c64a6d996291593a654c37f65d",
        "065b2be17c1022f47373880d1672c50de03de4096500e0228be990e2567b4f58"),
    ("fig2a", "anti", 1): (
        "43a79fe1b7fb5bc1be276f48b42418eb7724156560d6638ebc27b036ef9e1072",
        "7d4f680f56a6facf121bd57ccabf51802b2feb83c25c30955bee7261a962d5a8"),
    ("fig2d", "anti", 0): (
        "67db282b382c97083db3fbbab8f75d81f53345a75154fb4aa054ffa2a1666c7d",
        "5e3797c3be4a4998d37c77bfa603c706c0c0cffb427e3c83c747d5e8be54a05b"),
    ("fig2d", "anti", 1): (
        "2cbe4b954ed0fea6a8c8c1ec8d2d9c41a65df7fd07d8b531450205a47928c616",
        "e3e8edb154e014ad6526f3a5c878b7cf9f26c64a2e3320c05cbededcbe00e2b9"),
    ("fig2d", "positive", 0): (
        "67db282b382c97083db3fbbab8f75d81f53345a75154fb4aa054ffa2a1666c7d",
        "4288b42023d67effda75bb9247aed880d458d59eb62a12ce3e9f39779c971094"),
    ("fig2d", "positive", 1): (
        "2cbe4b954ed0fea6a8c8c1ec8d2d9c41a65df7fd07d8b531450205a47928c616",
        "e7f63da11371204f6a371aaad2dde6d67493ee28a49ef5cd3a91bd3b56e05594"),
    ("fig2d", "none", 0): (
        "67db282b382c97083db3fbbab8f75d81f53345a75154fb4aa054ffa2a1666c7d",
        "676621bed2dd97f9c92242f899fa2c00377444b4c02e4d2b0891b927e5bd429b"),
    ("fig2d", "none", 1): (
        "2cbe4b954ed0fea6a8c8c1ec8d2d9c41a65df7fd07d8b531450205a47928c616",
        "53a041e9251ad788dc4c5da7b893a7abd426db52f69f5ac84c3c41630be34b19"),
    ("fig2d_offset", "anti", 0): (
        "67db282b382c97083db3fbbab8f75d81f53345a75154fb4aa054ffa2a1666c7d",
        "e0b4c4f12874ec563b0adbef3b0f79b56c041cec7e6b897cd4e76915c79e2cf7"),
    ("fig2d_offset", "anti", 1): (
        "2cbe4b954ed0fea6a8c8c1ec8d2d9c41a65df7fd07d8b531450205a47928c616",
        "6d10a930b58bb2286d5501c7e41e081aa14806315050090f4f0eb9806bf2898e"),
    ("fig2d_12s", "anti", 0): (
        "e9b26d908cc00f0b1030076e085873a5cd1af15a03d7caa4141f2b274c472225",
        "53f5570e51d2492f5983a6e68b7b375492ce7754c4e30cea0f76a831e2a9f1ad"),
    ("fig2d_12s", "anti", 1): (
        "ee1586d5c4b6a65afcd8be08b39cb54bedd31dc3a904bc2f74dccb4a30bf7186",
        "f23d76b0f17d60c7170332ac936b5ccbb665c35e142e7b16f8523d3bb63b17df"),
}


def golden_config(name, mode):
    if name == "fig2a":
        return presets.fig2a_config(duration_s=0.5)
    if name == "fig2d_12s":
        return presets.fig2d_config(mode=mode, duration_s=12.0)
    cfg = presets.fig2d_config(mode=mode, duration_s=0.5)
    if name == "fig2d_offset":
        cfg = dataclasses.replace(cfg, timer_b=TimerSpec(4000, -267_000_123_000, 1))
    return cfg


@pytest.mark.parametrize("name, mode, seed", list(GOLDEN_TAG_DIGESTS))
def test_golden_tag_bytes(name, mode, seed):
    """The seed -> tag-file bytes mapping is pinned.

    A change to the stages' arithmetic must keep every float operation, so
    these digests hold.  The 0.5 s cases are one simulation block and the
    12 s cases three, so the block structure (its RNG streams, windows and
    carried detections) is pinned too.  ROADMAP item 4 (exact timestamps at
    long acquisitions) is expected to change the bytes: it re-pins them and
    says so in CHANGES.md.
    """
    digests = []
    for stream in run_simulation(golden_config(name, mode), seed):
        buf = io.BytesIO()
        tagio.write_tags(stream, buf)
        digests.append(hashlib.sha256(buf.getvalue()).hexdigest())
    assert tuple(digests) == GOLDEN_TAG_DIGESTS[name, mode, seed]


@pytest.mark.parametrize("seed", [0, 1])
def test_golden_tag_bytes_streamed_by_the_cli(tmp_path, seed):
    """``ndcsim simulate`` appends each block's tags to the files as they
    come; the files are the in-memory path's bytes, three blocks each."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(dump_config(golden_config("fig2d_12s", "anti")))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--seed", str(seed)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"run_{arm}.tags").read_bytes()).hexdigest()
                    for arm in ("a", "b"))
    assert digests == GOLDEN_TAG_DIGESTS["fig2d_12s", "anti", seed]
