"""Monte-Carlo generator tests: determinism, calibration, stage semantics."""

import dataclasses
import hashlib
import inspect
import io
import itertools
import math
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndcsim import model, pipeline, presets, simulate, tagio
from ndcsim.analyze import fit_gaussian
from ndcsim.cli import main
from ndcsim.config import CORRELATION_NAMES, dump_config
from ndcsim.correlate import fine_histogram, g2_normalize
from ndcsim.errors import ParameterError
from ndcsim.model import DispersionLeg, SourceParams
from ndcsim.pipeline import run_simulation
from ndcsim.simulate import (
    INT64_MAX,
    INT64_MIN,
    Carry,
    DetectorSpec,
    TimerSpec,
    Window,
    _prune_dead_time,
    arm_shifts,
    detect,
    digitize,
    generate_pairs,
    propagate,
)
from ndcsim.streams import TagStream

SRC = SourceParams(pair_rate_hz=24000.0)
NO_FIBER = DispersionLeg(length_km=0.0)
NO_JITTER = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
NO_WINDOW = Window(0, 0, 0)  # block 0 of no emission time: no dark counts


def shifts_of(src, rho=-1.0, legs=(NO_FIBER, NO_FIBER), dets=(NO_JITTER, NO_JITTER)):
    return arm_shifts(src, rho, legs, dets)


def arm_moments_fs2(src, rho, legs, dets):
    """Each arm's shift variance and the pair's covariance (fs**2), from the
    physics: +-dt/2 + k''l * Omega + jitter, all independent Gaussians."""
    sigma_t = src.base_sigma_ps * 1e3
    disp = [leg.k2l_ps2 * src.effective_sigma_omega * 1e3 for leg in legs]
    var = [sigma_t**2 / 4 + d**2 + (det.jitter_fwhm_ps / model.FWHM_PER_SIGMA * 1e3) ** 2
           for d, det in zip(disp, dets)]
    cov = -sigma_t**2 / 4 + rho * disp[0] * disp[1]
    return var, cov


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


def simulated_stream(tags, timer, duration_s):
    """A stream of simulated tags, spanning the duration in whole fs or, if
    later, its last tag."""
    span = max(math.ceil(duration_s * 1e15), int(tags[-1]) if tags.size else 0)
    return TagStream(tags, timer.resolution_fs, timer.site_id, span)


def per_pair_oracle(cfg, seed):
    """Both tag streams of ``cfg`` from the per-photon thinning sampler.

    Every pair of the source is emitted with its own offset and detunings:
    the idler's is rho times the signal's plus sqrt(1 - rho^2) times an
    independent one.  Each photon then survives its fiber and its detector's
    efficiency by independent Bernoulli draws and takes its own jitter, and
    its arrival is rounded half-up to whole fs.  Dark counts, dead time and
    digitization are the package's.
    """
    duration = cfg.run.duration_s
    span = math.ceil(duration * 1e15)
    src = cfg.source
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(src.pair_rate_hz * duration))
    emission = rng.integers(0, span, n)
    delta_t = rng.normal(0.0, src.base_sigma_ps * 1e3, n)
    omega_s = rng.normal(0.0, src.effective_sigma_omega, n)
    rho = cfg.run.mode
    omega_i = rho * omega_s + math.sqrt(1 - rho**2) * rng.normal(0.0, src.effective_sigma_omega, n)
    legs = (
        (+0.5, omega_s, cfg.smf, cfg.detector_a, cfg.timer_a),
        (-0.5, omega_i, cfg.dcf, cfg.detector_b, cfg.timer_b),
    )
    streams = []
    for stage, (half, omega, leg, det, timer) in enumerate(legs, start=3):
        survive = rng.random(n) < leg.survival_probability
        detected = survive & (rng.random(n) < det.efficiency)
        jitter = rng.normal(0.0, det.jitter_fwhm_ps / model.FWHM_PER_SIGMA * 1e3, n)
        shift = half * delta_t + leg.group_delay_fs + leg.k2l_ps2 * omega * 1e3 + jitter
        arrival = emission + np.floor(shift + 0.5).astype(np.int64)
        times = detect(arrival[detected], det, seed, stage, Window(0, span, 0))
        streams.append(simulated_stream(digitize(times, timer), timer, duration))
    return streams


def pair_arrays(pairs):
    """Every array a PairEvents holds."""
    return [pairs.both_fs, pairs.both_z, *pairs.alone_fs, *pairs.alone_z]


class TestGeneratePairs:
    def test_deterministic(self):
        p1 = generate_pairs(SRC, Window(0, 10**15, 0), seed=42, p_signal=0.5, p_idler=0.5)
        p2 = generate_pairs(SRC, Window(0, 10**15, 0), seed=42, p_signal=0.5, p_idler=0.5)
        for a1, a2 in zip(pair_arrays(p1), pair_arrays(p2)):
            assert a1.size and np.array_equal(a1, a2)

    def test_zero_duration_empty(self):
        assert len(generate_pairs(SRC, Window(0, 0, 0), seed=1)) == 0

    def test_undetectable_arms_empty(self):
        pairs = generate_pairs(SRC, Window(0, 10**15, 0), 1, p_signal=0.0, p_idler=0.0)
        assert len(pairs) == 0
        for shift in shifts_of(SRC):
            arrival = propagate(pairs, shift)
            assert arrival.size == 0 and arrival.dtype == np.int64

    def test_emission_window_and_poisson_rate(self):
        pairs = generate_pairs(SRC, Window(0, 5 * 10**15, 0), seed=3)
        assert pairs.window == (0, 5 * 10**15, 0)
        for emission in (pairs.both_fs, *pairs.alone_fs):
            assert emission.dtype == np.int64
        assert pairs.both_fs.min() >= 0 and pairs.both_fs.max() < 5 * 10**15
        expected = SRC.pair_rate_hz * 5.0
        assert abs(len(pairs) - expected) < 5 * math.sqrt(expected)

    def test_delta_t_variance_matches_model(self):
        # no fiber and no jitter: the pair's time difference is the source's
        src = SourceParams(pair_rate_hz=1e6)
        pairs = generate_pairs(src, Window(0, 10**15, 0), seed=7)
        assert len(pairs) > 990_000
        a, b = (propagate(pairs, shift) for shift in shifts_of(src))
        var_ps2 = np.var((a - b) / 1e3)
        assert var_ps2 == pytest.approx(model.source_variance_ps2(src, 0, 0), rel=5e-3)

    def test_mode_correlations(self):
        # each arm's variance and the pair's covariance, against the physics,
        # for the photons seen in both arms and those seen alone
        src = SourceParams(pair_rate_hz=4e5)
        cfg = presets.fig2d_config()
        legs, dets = (cfg.smf, cfg.dcf), (cfg.detector_a, cfg.detector_b)
        for rho in (-1.0, 1.0, 0.0, -0.5):
            pairs = generate_pairs(src, Window(0, 10**15, 0), 5, p_signal=0.5, p_idler=0.5)
            shifts = arm_shifts(src, rho, legs, dets)
            var, cov = arm_moments_fs2(src, rho, legs, dets)
            n = pairs.both_fs.size
            both = []
            for shift, v, alone in zip(shifts, var, pairs.alone_fs):
                s = propagate(pairs, shift) - shift.delay_fs
                both.append(s[:n] - pairs.both_fs)
                alone_s = s[n:] - alone
                for x in (both[-1], alone_s):
                    assert np.var(x) == pytest.approx(v, rel=5 * math.sqrt(2 / x.size)), rho
            sample_cov = np.cov(both[0], both[1])[0, 1]
            assert abs(sample_cov - cov) < 5 * math.sqrt((var[0] * var[1] + cov**2) / n), rho

    def test_overflowing_duration_rejected(self):
        # a window may end at the last int64 fs, not past it
        last = generate_pairs(SRC, Window(INT64_MAX - 10**15, INT64_MAX, 0), seed=0)
        assert len(last) > 0 and last.both_fs.max() < INT64_MAX
        with pytest.raises(ParameterError, match="window ends beyond the int64"):
            generate_pairs(SRC, Window(INT64_MAX - 10**15, INT64_MAX + 1, 0), seed=0)

    def test_detection_probability_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            generate_pairs(SRC, Window(0, 10**15, 0), seed=0, p_signal=1.5)
        with pytest.raises(ParameterError):
            generate_pairs(SRC, Window(0, 10**15, 0), seed=0, p_idler=-0.1)


class TestPropagate:
    def test_zero_length_identity(self):
        # no fiber and no jitter: a photon lands half the pair offset away
        pairs = generate_pairs(SRC, Window(0, 5 * 10**14, 0), 11, p_signal=0.5, p_idler=0.5)
        signal, _ = shifts_of(SRC)
        arrival = propagate(pairs, signal)
        n = pairs.both_fs.size
        half_fs = 0.5 * SRC.base_sigma_ps * 1e3
        assert np.allclose(arrival[:n], pairs.both_fs + half_fs * pairs.both_z[0], rtol=0, atol=1)
        assert np.allclose(arrival[n:], pairs.alone_fs[0] + half_fs * pairs.alone_z[0],
                           rtol=0, atol=1)

    def test_idler_sign(self):
        # anticorrelated detunings with neither fiber nor jitter: the idler lands as far before
        # the emission as the signal lands after it
        pairs = generate_pairs(SRC, Window(0, 5 * 10**14, 0), seed=11)
        a, b = (propagate(pairs, shift) for shift in shifts_of(SRC))
        assert np.std(a - pairs.both_fs) == pytest.approx(500 * SRC.base_sigma_ps, rel=0.05)
        assert np.all(np.abs((a - pairs.both_fs) + (b - pairs.both_fs)) <= 1)

    @pytest.mark.parametrize("length_km", [0.0, 7.47, 62.0, 1000.0])
    def test_singular_factor(self, length_km):
        # equal fibers, anticorrelated detunings and no jitter: the two photons' shifts are
        # exactly opposite, so their covariance matrix is singular
        src = SourceParams(pair_rate_hz=2e5)
        leg = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=length_km)
        signal, idler = shifts_of(src, -1.0, (leg, leg))
        assert idler.both[0] == pytest.approx(-signal.sigma_fs, rel=1e-12)
        assert 0.0 <= idler.both[1] < 1e-6 * signal.sigma_fs
        pairs = generate_pairs(src, Window(0, 2 * 10**14, 0), seed=31)
        a, b = propagate(pairs, signal), propagate(pairs, idler)
        total = (a - pairs.both_fs) + (b - pairs.both_fs) - 2 * leg.group_delay_fs
        assert np.all(np.abs(total) <= 2)

    def test_ideal_cancellation_restores_variance(self):
        # equal-and-opposite accumulated dispersion: k_s''l_1 = -k_i''l_2
        src = SourceParams(pair_rate_hz=2e5)
        pairs = generate_pairs(src, Window(0, 10**15, 0), seed=13)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(
            k2_s2_per_m=2.26e-26 * 62.0 / 7.47, length_km=7.47, attenuation_db_per_km=0.0
        )
        arr_s, arr_i = (propagate(pairs, shift) for shift in shifts_of(src, -1.0, (leg_s, leg_i)))
        var_ps2 = np.var((arr_s - arr_i) / 1e3)
        base = src.base_variance_ps2
        n = len(pairs)
        assert var_ps2 == pytest.approx(base, rel=5 * math.sqrt(2.0 / n))

    def test_dispersed_variance_matches_model(self):
        # the pair's time difference against the analytic model, at each correlation
        src = SourceParams(pair_rate_hz=2e5)
        leg_s = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.0)
        leg_i = DispersionLeg(k2_s2_per_m=1.95e-25, length_km=7.47, attenuation_db_per_km=0.0)
        pairs = generate_pairs(src, Window(0, 10**15, 0), seed=17)
        for rho in (-1.0, 1.0, 0.0, -0.5):
            arr_s, arr_i = (propagate(pairs, shift)
                            for shift in shifts_of(src, rho, (leg_s, leg_i)))
            var_ps2 = np.var((arr_s - arr_i) / 1e3)
            expected = model.source_variance_ps2(src, leg_s.k2l_ps2, leg_i.k2l_ps2, rho)
            assert var_ps2 == pytest.approx(expected, rel=5 * math.sqrt(2.0 / len(pairs))), rho

    def test_survival_probability(self):
        # fiber loss is drawn with the pair classes: with a lossless idler arm
        # every pair is kept and the signal arm holds the survivors
        src = SourceParams(pair_rate_hz=2e5)
        leg = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.2)
        pairs = generate_pairs(src, Window(0, 10**15, 0), 19, leg.survival_probability, 1.0)
        survivors = propagate(pairs, shifts_of(src, -1.0, (leg, NO_FIBER))[0])
        p = 10 ** (-1.24)
        n = len(pairs)
        assert survivors.size / n == pytest.approx(p, abs=5 * math.sqrt(p / n))

    def test_group_delay(self):
        pairs = generate_pairs(SRC, Window(0, 10**14, 0), seed=23)
        leg = DispersionLeg(length_km=62.0, attenuation_db_per_km=0.0, group_index=1.468)
        signal, _ = shifts_of(SRC, -1.0, (leg, NO_FIBER))
        arrival = propagate(pairs, signal)
        delay_fs = 62e3 * 1.468 / model.SPEED_OF_LIGHT_M_PER_S * 1e15
        shift = arrival - (pairs.both_fs + 0.5 * SRC.base_sigma_ps * 1e3 * pairs.both_z[0])
        assert np.allclose(shift, delay_fs, rtol=0, atol=1)

    def test_arrival_beyond_int64_rejected(self):
        # emissions just inside the int64 range, delayed past its end
        pairs = generate_pairs(SourceParams(pair_rate_hz=1000.0),
                               Window(9_223_300 * 10**12, 9_223_372 * 10**12, 0), 0)
        assert len(pairs) > 0
        leg = DispersionLeg(length_km=1e6, attenuation_db_per_km=0.0)
        with pytest.raises(ParameterError, match="arrival outside the int64"):
            propagate(pairs, shifts_of(SRC, -1.0, (leg, NO_FIBER))[0])


class TestDetect:
    IDEAL = NO_JITTER

    def test_ideal_detector_identity(self):
        times = np.array([5, 1, 3]) * 10**6
        out = detect(times, self.IDEAL, 0, 3, NO_WINDOW)
        assert np.array_equal(out, np.sort(times))

    def test_efficiency_thinning(self):
        # efficiency is drawn with the pair classes, so detect keeps every
        # arrival it is given; the arm's share of the pairs is the efficiency
        src = SourceParams(pair_rate_hz=1e5)
        det = DetectorSpec(efficiency=0.5, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
        pairs = generate_pairs(src, Window(0, 10**15, 0), 5, det.efficiency, 1.0)
        arrivals = propagate(pairs, shifts_of(src)[0])
        out1 = detect(arrivals, det, 5, 3, NO_WINDOW)
        out2 = detect(arrivals, det, 5, 3, NO_WINDOW)
        assert np.array_equal(out1, out2)
        assert np.array_equal(out1, np.sort(arrivals))
        n = len(pairs)
        assert abs(out1.size - n / 2) < 5 * math.sqrt(n / 4)

    def test_jitter_variance(self):
        # the jitter is part of a photon's shift, with half the pair offset
        src = SourceParams(pair_rate_hz=2e5)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=26.587, dark_rate_hz=0.0, dead_time_ns=0.0)
        pairs = generate_pairs(src, Window(0, 10**15, 0), 7, p_signal=1.0, p_idler=0.0)
        assert pairs.alone_fs[0].size == len(pairs) > 190_000
        out = propagate(pairs, shifts_of(src, -1.0, dets=(det, NO_JITTER))[0])
        var_ps2 = np.var(out - pairs.alone_fs[0]) / 1e6
        sigma_ps = math.sqrt(var_ps2 - src.base_variance_ps2 / 4)
        assert sigma_ps == pytest.approx(26.587 / model.FWHM_PER_SIGMA, rel=0.01)

    def test_dark_counts_added(self):
        times = np.linspace(0, 10**15, 1000).astype(np.int64)  # 1 s span
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0, dead_time_ns=0.0)
        out = detect(times, det, 9, 3, Window(0, 10**15, 0))
        extra = out.size - times.size
        assert abs(extra - 5000) < 5 * math.sqrt(5000)

    @pytest.mark.parametrize("times", [np.empty(0, np.int64), np.array([5 * 10**14])],
                             ids=["empty", "one"])
    def test_dark_counts_over_acquisition_window(self, times):
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0, dead_time_ns=0.0)
        out = detect(times, det, 9, 3, Window(0, 10**15, 0))
        assert abs(out.size - times.size - 5000) < 5 * math.sqrt(5000)
        assert out[0] >= 0 and out[-1] < 10**15

    def test_zero_arrivals_full_detector(self):
        # jitter and dead time on as well, over an empty and a zero-length window
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=26.587, dark_rate_hz=5000.0,
                           dead_time_ns=40.0)
        out = detect(np.empty(0, np.int64), det, 9, 4, Window(0, 10**15, 0))
        assert abs(out.size - 5000) < 5 * math.sqrt(5000)
        assert np.all(out[1:] - out[:-1] >= 40 * 10**6)
        assert out[0] >= 0 and out[-1] < 10**15
        assert detect(np.empty(0, np.int64), det, 9, 4, NO_WINDOW).size == 0

    def test_dead_time_pruning(self):
        # bursts closer than the dead time collapse to their first event
        times = np.array([0, 10, 20, 100, 105, 300]) * 10**6  # fs
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=40.0)
        out = detect(times, det, 0, 3, NO_WINDOW)
        assert np.array_equal(out, np.array([0, 100, 300]) * 10**6)

    def test_float_arrivals_rejected(self):
        with pytest.raises(ParameterError, match="int64"):
            detect(np.array([1.5e6]), self.IDEAL, 0, 3, NO_WINDOW)

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(
            st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 10**4)), max_size=200
        ),
        start=st.integers(-10**9, 10**9),
        fraction=st.floats(0.0, 1.0),
    )
    def test_dead_time_filter_matches_greedy_loop(self, gaps, start, fraction):
        # zero gaps are ties, runs of short gaps are dense bursts
        times = start + np.cumsum(np.asarray(gaps, dtype=np.int64))
        dead_fs = math.ceil(fraction * (int(times[-1] - times[0]) if times.size else 0))
        expected = greedy_dead_time(times, dead_fs)
        assert np.array_equal(_prune_dead_time(times.copy(), dead_fs), expected)


class TestMarking:
    """Pair classes of the sampler at the fig2d geometry."""

    CFG = presets.fig2d_config(duration_s=1.0)
    SEEDS = range(20)

    def test_class_counts(self):
        cfg = self.CFG
        p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
        p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
        # 62 km at 0.2 dB/km and a 0.5 efficiency detector in the signal arm
        assert p_a == pytest.approx(10 ** (-1.24) * 0.5, rel=1e-12)
        emitted = cfg.source.pair_rate_hz * cfg.run.duration_s * len(self.SEEDS)
        span = pipeline.acquisition_span_fs(cfg.run.duration_s, None)
        shifts = arm_shifts(cfg.source, -1.0, (cfg.smf, cfg.dcf), (cfg.detector_a, cfg.detector_b))
        drawn = []
        # the fig2d arms are balanced, so an unbalanced pair of arms as well
        for p_s, p_i in ((p_a, p_b), (0.5, 0.2)):
            counts = np.zeros(3, dtype=np.int64)
            for seed in self.SEEDS:
                pairs = generate_pairs(cfg.source, Window(0, span, 0), seed, p_s, p_i)
                n = (pairs.both_fs.size, *(a.size for a in pairs.alone_fs))
                assert pairs.both_z.shape == (2, n[0])
                assert tuple(z.size for z in pairs.alone_z) == n[1:]
                counts += n
                for shift, alone in zip(shifts, n[1:]):
                    assert propagate(pairs, shift).size == n[0] + alone
            drawn.append(counts.sum())
            both, signal, idler = counts
            checks = {
                "both": (both, p_s * p_i),
                "signal only": (signal, p_s * (1 - p_i)),
                "idler only": (idler, (1 - p_s) * p_i),
                "signal arm": (signal + both, p_s),
                "idler arm": (idler + both, p_i),
            }
            for name, (n, p) in checks.items():
                assert abs(n - emitted * p) < 5 * math.sqrt(emitted * p), name
        # no pair lost in both arms is drawn: ~5.7 % of the fig2d pairs
        assert drawn[0] / emitted == pytest.approx(0.057, abs=0.001)

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 0.0, -0.5],
                             ids=["anti", "positive", "none", "-0.5"])
    def test_matches_per_pair_oracle(self, rho):
        cfg = presets.fig2d_config(mode=rho, duration_s=self.CFG.run.duration_s)
        offset = int(round(cfg.dcf.group_delay_fs - cfg.smf.group_delay_fs))
        fwhm = model.FWHM_PER_SIGMA * math.sqrt(presets.predicted_pair_variance_ps2(cfg))
        bin_fs = max(round(fwhm * 100), 1000)
        half_fs = max(round(4000 * fwhm), 2_000_000)
        totals = {"sampled": np.zeros(3), "oracle": np.zeros(3)}
        fwhm = {"sampled": [], "oracle": []}
        for seed in self.SEEDS:
            runs = {"sampled": run_simulation(cfg, seed),
                    "oracle": per_pair_oracle(cfg, seed + 1000)}
            for name, (a, b) in runs.items():
                hist = fine_histogram(a, b, offset, -half_fs, bin_fs,
                                      math.ceil(2 * half_fs / bin_fs))
                totals[name] += (len(a), len(b), hist.total_pairs)
                fwhm[name].append(fit_gaussian(hist).fwhm_ps)
        for sampled, oracle in zip(totals["sampled"], totals["oracle"]):
            assert abs(sampled - oracle) < 5 * math.sqrt(sampled + oracle)
        mean = {name: np.mean(v) for name, v in fwhm.items()}
        sem2 = sum(np.var(v, ddof=1) / len(v) for v in fwhm.values())
        assert abs(mean["sampled"] - mean["oracle"]) < 3 * math.sqrt(sem2)


class TestInputsUnchanged:
    """propagate, detect and digitize never write to the arrays they are given.

    The callers pass the same pairs to both arms, and a stage may work in
    place only on arrays it made itself.
    """

    CFG = presets.fig2d_config(duration_s=0.05)

    def pairs(self):
        cfg = self.CFG
        span = pipeline.acquisition_span_fs(cfg.run.duration_s, None)
        return generate_pairs(cfg.source, Window(0, span, 0), 29,
                              cfg.smf.survival_probability, cfg.dcf.survival_probability)

    def test_propagate(self):
        cfg = self.CFG
        signal, idler = arm_shifts(cfg.source, -1.0, (cfg.smf, cfg.dcf),
                                   (cfg.detector_a, cfg.detector_b))
        alone, first = self.pairs(), self.pairs()
        before = [a.copy() for a in pair_arrays(first)]
        idler_alone = propagate(alone, idler)
        signal_out = propagate(first, signal)
        idler_out = propagate(first, idler)
        for array, copy in zip(pair_arrays(first), before):
            assert array.tobytes() == copy.tobytes()
        assert idler_out.tobytes() == idler_alone.tobytes()
        assert not np.shares_memory(signal_out, idler_out)
        assert not any(np.shares_memory(out, array) for out in (signal_out, idler_out)
                       for array in pair_arrays(first))

    @pytest.mark.parametrize("jitter", [0.0, 26.587], ids=["no-jitter", "jitter"])
    @pytest.mark.parametrize("dark", [0.0, 5000.0], ids=["no-dark", "dark"])
    @pytest.mark.parametrize("dead", [0.0, 40.0], ids=["no-dead", "dead"])
    def test_detect(self, jitter, dark, dead):
        # one arm's arrivals over 1 ms, with or without jitter in their shifts,
        # unsorted, with bursts closer than the dead time
        src = SourceParams(pair_rate_hz=2e7)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=jitter, dark_rate_hz=dark,
                           dead_time_ns=dead)
        arrivals = propagate(generate_pairs(src, Window(0, 10**12, 0), 3),
                             shifts_of(src, dets=(det, det))[0])
        arrivals[1::50] = arrivals[:-1:50] + 10**6
        assert not np.all(arrivals[1:] >= arrivals[:-1])
        before = arrivals.copy()
        out = detect(arrivals, det, 1, 3, Window(0, 10**12, 0))
        assert arrivals.tobytes() == before.tobytes()
        assert not np.shares_memory(out, arrivals)
        assert np.all(out[1:] >= out[:-1])
        if dead:
            assert np.all(out[1:] - out[:-1] >= dead * 1e6)

    @pytest.mark.parametrize("offset_fs", [0, 267_000_123_456])
    def test_digitize(self, offset_fs):
        times = np.sort(np.random.default_rng(5).integers(-10**12, 10**12, 10_000))
        before = times.copy()
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=offset_fs, site_id=0)
        tags = digitize(times, timer)
        assert times.tobytes() == before.tobytes()
        assert not np.shares_memory(tags, times)


def half_up_tag(t, timer):
    """The tag of one time, rounded half-up in exact integer arithmetic."""
    q, r = divmod(t + timer.clock_offset_fs, timer.resolution_fs)
    return (q + (r >= timer.resolution_fs - r)) * timer.resolution_fs


class TestDigitize:
    TIMER = TimerSpec(resolution_fs=1000, clock_offset_fs=0, site_id=0)

    def test_round_half_up(self):
        times = [1234_499, 1234_500, 1234_600, -1234_500, -1234_501, -500, 499]
        tags = digitize(np.array(sorted(times)), self.TIMER)
        expected = {1234_499: 1234_000, 1234_500: 1235_000, 1234_600: 1235_000,
                    -1234_500: -1234_000, -1234_501: -1235_000, -500: 0, 499: 0}
        assert tags.tolist() == [expected[t] for t in sorted(times)]

    @settings(max_examples=300, deadline=None)
    @given(
        times=st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                                 st.integers(2**63 - 10**7, 2**63 - 1),
                                 st.integers(-2**63, -2**63 + 10**7),
                                 st.integers(-10**7, 10**7)), min_size=1, max_size=20),
        resolution=st.one_of(st.integers(1, 10), st.just(1000), st.just(4000),
                             st.integers(1, 2**63 - 1)),
        offset=st.one_of(st.integers(-2**63 + 1, 2**63 - 1), st.integers(-10**7, 10**7)),
    )
    # a tie and a time whose x + res//2 would overflow, at the top of int64;
    # ties at a negative offset
    @example(times=[INT64_MAX - 1307, INT64_MAX - 400], resolution=1000, offset=0)
    @example(times=[0, 1000, 1001], resolution=1000, offset=-267_000_000_500)
    def test_round_half_up_exact(self, times, resolution, offset):
        # negative offsets and ticks near the ends of int64 round as exact
        # integer arithmetic does, or raise if a tag falls outside int64
        timer = TimerSpec(resolution_fs=resolution, clock_offset_fs=offset, site_id=0)
        times = sorted(times)
        expected = [half_up_tag(t, timer) for t in times]
        ends = [times[0] + offset, times[-1] + offset, expected[0], expected[-1]]
        if INT64_MIN <= min(ends) and max(ends) <= INT64_MAX:
            assert digitize(np.array(times, dtype=np.int64), timer).tolist() == expected
        else:
            with pytest.raises(ParameterError, match="timestamp outside the int64"):
                digitize(np.array(times, dtype=np.int64), timer)

    def test_clock_offset(self):
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=267_000_000_000, site_id=1)
        tags = digitize(np.array([0, 10**6]), timer)
        assert tags[0] == 267_000_000_000
        assert tags[1] == 267_000_000_000 + 1_000_000

    def test_round_trip_on_grid(self):
        tags = np.arange(0, 100) * 1000
        assert np.array_equal(digitize(tags, self.TIMER), tags)

    def test_empty(self):
        tags = digitize(np.empty(0, np.int64), self.TIMER)
        assert tags.size == 0 and tags.dtype == np.int64

    def test_range_error(self):
        with pytest.raises(ParameterError, match="timestamp outside the int64"):
            digitize(np.array([INT64_MAX - 100]), self.TIMER)

    @pytest.mark.parametrize("times", [
        [INT64_MIN + 100, 0], [0, INT64_MAX - 100], [INT64_MIN, 0], [0, INT64_MAX],
        [INT64_MIN, INT64_MAX],
    ], ids=["low-first", "high-last", "-inf-first", "inf-last", "both-inf"])
    def test_range_error_at_either_end(self, times):
        # the check reads the ends of the sorted times, whichever end is out;
        # the ends of int64 stand where float times had their infinities
        with pytest.raises(ParameterError, match="timestamp outside the int64"):
            digitize(np.array(times), self.TIMER)

    @pytest.mark.parametrize("offset_fs", [3 * 10**17, -3 * 10**17])
    def test_clock_offset_pushes_out_of_range(self, offset_fs):
        times = np.array([-9 * 10**18, 0, 9 * 10**18])
        timer = TimerSpec(resolution_fs=1000, clock_offset_fs=offset_fs, site_id=0)
        with pytest.raises(ParameterError, match="timestamp outside the int64"):
            digitize(times, timer)

    def test_extremes_in_range(self):
        tags = digitize(np.array([-9_200_000_000_000_000_000, 9_200_000_000_000_000_000]),
                        self.TIMER)
        assert tags.tolist() == [-9_200_000_000_000_000_000, 9_200_000_000_000_000_000]

    def test_unsorted_rejected(self):
        with pytest.raises(ParameterError):
            digitize(np.array([2 * 10**6, 10**6]), self.TIMER)

    @pytest.mark.parametrize("times", [
        [math.nan, 0.0, 1e6], [0.0, math.nan, 1e6], [0.0, 1e6, math.nan], [math.nan],
    ], ids=["first", "middle", "last", "alone"])
    def test_nan_rejected(self, times):
        # float times, nan or not, are refused before any comparison or cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="int64"):
                digitize(np.array(times), self.TIMER)


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

    def test_clock_offset_shifts_tags_exactly(self):
        # 10^17 fs on the idler's clock, over three blocks: every tag moves by
        # exactly that much and the signal's stream is unchanged
        cfg = presets.fig2d_config(duration_s=12.0)
        shifted = dataclasses.replace(cfg, timer_b=dataclasses.replace(
            cfg.timer_b, clock_offset_fs=10**17))
        a, b = run_simulation(cfg, seed=4)
        a_shifted, b_shifted = run_simulation(shifted, seed=4)
        assert a_shifted == a
        assert len(b) > 100_000
        assert np.array_equal(b_shifted.tags, b.tags + 10**17)

    def test_accidental_baseline_unity(self):
        # uncorrelated detunings still pair in time; away from the peak and
        # the dead-time dip only accidental coincidences remain
        a, b = run_simulation(presets.fig2d_config(mode=0.0), seed=0)
        cfg = presets.fig2d_config()
        offset = int(round(cfg.dcf.group_delay_fs - cfg.smf.group_delay_fs))
        h = fine_histogram(a, b, offset, -5 * 10**10, 10**7, 10**4)
        g2 = g2_normalize(h, a.rate_hz(), b.rate_hz(), max(a.duration_s, b.duration_s))
        wings = np.abs(h.bin_centers_ps) > 1e5
        n = h.counts[wings].sum()
        assert g2[wings].mean() == pytest.approx(1.0, abs=5 / math.sqrt(n))


@pytest.fixture
def draw_ahead(monkeypatch):
    """simulate_blocks draws the next block on its worker whatever the usable
    CPUs, so that on one CPU the worker shares it with the calling thread."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)


@pytest.mark.usefixtures("draw_ahead")
class TestBlocks:
    """A run of many blocks equals one sort, prune and digitization of the same
    per-block draws."""

    BLOCK_FS = 5 * 10**13  # 50 ms: a 0.5 s run spans 10 blocks

    @staticmethod
    def oracle(cfg, seed, block_fs):
        """Both streams from every block's raw detections, concatenated, then
        sorted, pruned and digitized once."""
        duration = cfg.run.duration_s
        span = math.ceil(duration * 1e15)
        p_a = cfg.smf.survival_probability * cfg.detector_a.efficiency
        p_b = cfg.dcf.survival_probability * cfg.detector_b.efficiency
        dets = (cfg.detector_a, cfg.detector_b)
        shifts = arm_shifts(cfg.source, cfg.run.mode, (cfg.smf, cfg.dcf), dets)
        arms = tuple(zip(shifts, dets, (cfg.timer_a, cfg.timer_b), (3, 4)))
        raw = ([], [])
        for block in itertools.count():
            start = block * block_fs
            window = Window(start, min(start + block_fs, span), block)
            pairs = generate_pairs(cfg.source, window, seed, p_a, p_b)
            for (shift, det, _, stage), out in zip(arms, raw):
                no_dead = dataclasses.replace(det, dead_time_ns=0.0)
                out.append(detect(propagate(pairs, shift), no_dead, seed, stage, window))
            if window.end_fs >= span:
                break
        streams = []
        for (_, det, timer, _), out in zip(arms, raw):
            dead_fs = math.ceil(det.dead_time_ns * 1e6)
            times = greedy_dead_time(np.sort(np.concatenate(out)), dead_fs)
            streams.append(simulated_stream(digitize(times, timer), timer, duration))
        return streams

    def check(self, monkeypatch, cfg, seed):
        monkeypatch.setattr(pipeline, "_BLOCK_FS", self.BLOCK_FS)
        streams = run_simulation(cfg, seed)
        assert list(streams) == self.oracle(cfg, seed, self.BLOCK_FS)
        return streams

    @pytest.mark.parametrize("rho", [-1.0, 0.0], ids=["anti", "none"])
    def test_matches_one_shot_oracle(self, monkeypatch, rho):
        a, b = self.check(monkeypatch, presets.fig2d_config(mode=rho, duration_s=0.5), 3)
        # block 0 draws as the unblocked 50 ms run; no later block reaches
        # below its end
        short, _ = run_simulation(presets.fig2d_config(mode=rho, duration_s=0.05), 3)
        assert np.array_equal(a.tags[a.tags < self.BLOCK_FS],
                              short.tags[short.tags < self.BLOCK_FS])

    def test_matches_one_shot_oracle_on_one_cpu(self, monkeypatch):
        # each block drawn in turn on the calling thread, with no worker
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        self.check(monkeypatch, presets.fig2d_config(duration_s=0.5), 3)

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
        window = Window(15 * 10**14, 2 * 10**15, 3)
        pairs = generate_pairs(SRC, window, 1, 0.5, 0.5)
        assert pairs.window == window
        for emission in (pairs.both_fs, *pairs.alone_fs):
            assert emission.min() >= 15 * 10**14 and emission.max() < 2 * 10**15
        assert abs(len(pairs) - 9_000) < 5 * math.sqrt(9_000)
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=5000.0,
                           dead_time_ns=0.0)
        none = np.empty(0, np.int64)
        darks = detect(none, det, 1, 3, window)
        assert darks[0] >= 15 * 10**14 and darks[-1] < 2 * 10**15
        assert abs(darks.size - 2500) < 5 * math.sqrt(2500)
        assert not np.array_equal(darks, detect(none, det, 1, 3, window._replace(block=4)))

    @pytest.mark.parametrize("block_fs", [pipeline._BLOCK_FS, BLOCK_FS], ids=["5s", "50ms"])
    @pytest.mark.parametrize("duration", [0.0, 2.25e-14, 1.1, 5.0, 5.1, 12.0])
    def test_windows_tile_the_span(self, monkeypatch, block_fs, duration):
        self.tiles(monkeypatch, block_fs, duration)

    @pytest.mark.parametrize("duration", [0.0, 0.05, 0.12, 1.1])
    def test_windows_tile_the_span_on_one_cpu(self, monkeypatch, duration):
        # each block drawn in turn on the calling thread, with no worker
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        self.tiles(monkeypatch, self.BLOCK_FS, duration)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pairs_freed_before_detection(self, monkeypatch, cpus):
        # a block's pairs are freed once drawn, before either arm is detected,
        # with the worker and without it
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "_BLOCK_FS", self.BLOCK_FS)
        pairs, alive = {}, {}

        def spy_generate_pairs(*args, **kwargs):
            events = generate_pairs(*args, **kwargs)
            pairs[events.window.block] = weakref.ref(events)
            return events

        def spy_detect(*args, **kwargs):
            block = inspect.signature(detect).bind(*args, **kwargs).arguments["window"].block
            alive.setdefault(block, pairs[block]() is not None)
            return detect(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_pairs", spy_generate_pairs)
        monkeypatch.setattr(simulate, "detect", spy_detect)
        for _ in pipeline.simulate_blocks(presets.fig2d_config(duration_s=0.15), 0):
            pass
        assert alive == {0: False, 1: False, 2: False}

    @staticmethod
    def tiles(monkeypatch, block_fs, duration):
        # the windows simulate_blocks gives generate_pairs are whole fs, in
        # block order, and cover [0, span) with no gap or overlap
        monkeypatch.setattr(pipeline, "_BLOCK_FS", block_fs)
        windows = []

        def spy(*args, **kwargs):
            call = inspect.signature(generate_pairs).bind(*args, **kwargs).arguments
            windows.append(call["window"])
            return generate_pairs(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_pairs", spy)
        cfg = presets.fig2d_config(duration_s=duration)
        cfg = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, pair_rate_hz=1.0))
        for _ in pipeline.simulate_blocks(cfg, 0):
            pass
        span = pipeline.acquisition_span_fs(duration, None)
        assert all(type(window) is Window for window in windows)
        starts, ends, blocks = zip(*windows)
        assert all(type(t) is int for t in starts + ends)
        assert blocks == tuple(range(len(windows))) == tuple(range(max(-(-span // block_fs), 1)))
        assert starts[0] == 0 and ends[-1] == span and starts[1:] == ends[:-1]
        assert all(0 <= end - start <= block_fs for start, end in zip(starts, ends))
        assert all(end > start for start, end in zip(starts, ends)) or span == 0

    def test_detection_before_a_finalized_one_raises(self):
        det = DetectorSpec(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
        carry = Carry(boundary_fs=2 * 10**12)
        first = detect(np.array([10**12, 3 * 10**12]), det, 0, 3, NO_WINDOW, carry)
        assert first.tolist() == [10**12] and carry.pending.tolist() == [3 * 10**12]
        with pytest.raises(ParameterError, match="precedes the finalized"):
            detect(np.array([5 * 10**11]), det, 0, 3, Window(0, 0, 1), carry)


@pytest.mark.usefixtures("draw_ahead")
class TestBlocksAhead:
    """simulate_blocks draws block k + 1 on one worker thread while block k is
    detected and used; the worker lives no longer than the generator."""

    @staticmethod
    def sparse(duration_s):
        cfg = presets.fig2d_config(duration_s=duration_s)
        return dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, pair_rate_hz=1e3))

    @staticmethod
    def fail_on_block_2(monkeypatch):
        error = ParameterError("arrival outside the int64 femtosecond range")

        def spy(*args, **kwargs):
            call = inspect.signature(generate_pairs).bind(*args, **kwargs).arguments
            if call["window"].block == 2:
                raise error
            return generate_pairs(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_pairs", spy)
        return error

    @pytest.mark.parametrize("duration_s, cpus, workers",
                             [(5.0, 2, 0), (12.0, 2, 1), (12.0, 1, 0)])
    def test_threads_that_draw(self, monkeypatch, duration_s, cpus, workers):
        # a 5 s run is one block and starts no thread; a 12 s run is three:
        # block 0 is drawn on the calling thread and, on two CPUs, blocks 1
        # and 2 on one worker; on one CPU no thread is started
        drawn_on, running = [], []

        def spy(*args, **kwargs):
            drawn_on.append(threading.current_thread())
            return generate_pairs(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "generate_pairs", spy)
        before = threading.active_count()
        for _ in pipeline.simulate_blocks(self.sparse(duration_s), 0):
            running.append(threading.active_count() - before)
        caller = threading.current_thread()
        assert drawn_on[0] is caller
        others = [thread for thread in drawn_on[1:] if thread is not caller]
        assert len(set(others)) == workers and len(others) == workers * (len(drawn_on) - 1)
        assert max(running) == workers and threading.active_count() == before

    @pytest.mark.parametrize("taken", [1, 2, None], ids=["close-after-1", "close-after-2", "end"])
    def test_worker_joined_when_the_generator_ends(self, taken):
        before = threading.active_count()
        blocks = pipeline.simulate_blocks(self.sparse(20.0), 0)
        for _ in itertools.islice(blocks, taken):
            assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_error_on_a_later_block_surfaces(self, monkeypatch):
        # block 2 is drawn on the worker; its error is raised as it was
        error = self.fail_on_block_2(monkeypatch)
        before = threading.active_count()
        with pytest.raises(ParameterError, match="arrival outside the int64") as raised:
            run_simulation(self.sparse(12.0), 0)
        assert raised.value is error
        assert threading.active_count() == before

    def test_error_on_a_later_block_exit_2(self, monkeypatch, tmp_path, capsys):
        # the tag files already hold blocks 0 and 1: the failed run deletes both
        self.fail_on_block_2(monkeypatch)
        before = threading.active_count()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(dump_config(self.sparse(12.0)))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert ("invalid parameter: arrival outside the int64 femtosecond range"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        assert threading.active_count() == before


# sha256 of both write_tags outputs of run_simulation, re-pinned once when the
# sampler came to draw one normal per detected photon and to carry time as
# int64 fs from emission to tag.  The 0.5 s cases are one block and the 12 s
# cases three.  Two cases end off a whole block: 1.1 s spans
# 1,100,000,000,000,001 fs (1.1 * 1e15 rounds up), and 5.1 s ends in a 0.1 s
# second block.
GOLDEN_TAG_DIGESTS = {
    ("fig2a", "anti", 0): (
        "85a4275249d92de1b3a9e8ab5eaab273ab9c0f7afcd346a6c183727e5e26b53f",
        "b0631629d3be9563a4ab541c8039c078cee0403a7dc3ffe78ec16bd3e223ae37"),
    ("fig2a", "anti", 1): (
        "f4d5462da7ff79a86a261d7391ed339161b99babec5641d1c723f0904665a5a6",
        "329421e5203a5826c146cf4566ec2995c80b3fc49cb7d0de3aa19076680ce01b"),
    ("fig2d", "anti", 0): (
        "7d477deccbcf9043221d822d7f8e3c35ad5bf9576e43f49a6ce26aa793e7d269",
        "c77b19947fdf0471ec99dea8a1d584091c890755a3b3d9d0d23709f195e04098"),
    ("fig2d", "anti", 1): (
        "29ed67678a751923a35a4cee79990acc1e926ff1a17bd6d717c09c4b472dec3a",
        "05e3a2a40a44836e9cd4dc38095f4a3e4d7754bb5654971d5b8538821232c116"),
    ("fig2d", "positive", 0): (
        "7d477deccbcf9043221d822d7f8e3c35ad5bf9576e43f49a6ce26aa793e7d269",
        "c94c3a67af5274991d263ff88558ee641f6c8f19d4a381ac49c18df4e4cb9934"),
    ("fig2d", "positive", 1): (
        "29ed67678a751923a35a4cee79990acc1e926ff1a17bd6d717c09c4b472dec3a",
        "d61fc283a9e61677616c9c6ef4e575b8cd5697fcf4126e851535e53e5410251e"),
    ("fig2d", "none", 0): (
        "7d477deccbcf9043221d822d7f8e3c35ad5bf9576e43f49a6ce26aa793e7d269",
        "b8e582f13c1d3c20efe4a576ffbf86673906a363b67d9555e03a4ae4c529c8fc"),
    ("fig2d", "none", 1): (
        "29ed67678a751923a35a4cee79990acc1e926ff1a17bd6d717c09c4b472dec3a",
        "cc91df236cf12fc86ed5b883786f6664bcdee4f690f2b8962d3e91ad3b3312d0"),
    ("fig2d_offset", "anti", 0): (
        "7d477deccbcf9043221d822d7f8e3c35ad5bf9576e43f49a6ce26aa793e7d269",
        "2951b8f4dffefbac8cebb37216071ecd5fca8045047111105d48b95e9b28a4af"),
    ("fig2d_offset", "anti", 1): (
        "29ed67678a751923a35a4cee79990acc1e926ff1a17bd6d717c09c4b472dec3a",
        "b0501f3773e04f498adbe4ff01ea9e7bfaadd30153a26771ff57f398193e0e52"),
    ("fig2d_12s", "anti", 0): (
        "54202e62fd2f788649bb5cf2988b9900b0401389a15f07762cfe0aad5b1fe9f7",
        "e6c2948de97d6a07be0e4eaae7460e0ce9d086ddb854ca5c2f93fe03863143a5"),
    ("fig2d_12s", "anti", 1): (
        "0de980c83f309b50dd208010dbdde4c7ae0e604a6d917f0719791186e4423dd9",
        "4ae3b768be7f173722a94f0d9722d3433fa095aac7a5d08a47e131d262905416"),
    ("fig2a_1.1s", "anti", 0): (
        "37db8c853b4aebaeeb8a89666d4b5f854f5468eacd85b14ac872b0996d3abce9",
        "d534a04189912299403e567e2c273f6c805335ad580d44a5a42474aa2a60c929"),
    ("fig2d_5.1s", "anti", 0): (
        "ac1c904b4da8dd227a1f2e89f455092dc9f0110357c5f3c0939b90abf2c676f0",
        "8eb0e893d9747918f20aa2171cb0fb559a8056322ee498190f65457ddc5ac732"),
}


def golden_config(name, mode):
    """The configuration of a GOLDEN_TAG_DIGESTS key; ``mode`` is its file name."""
    rho = CORRELATION_NAMES[mode]
    if name == "fig2a":
        return presets.fig2a_config(duration_s=0.5)
    if name == "fig2a_1.1s":
        return presets.fig2a_config(duration_s=1.1)
    if name == "fig2d_5.1s":
        return presets.fig2d_config(mode=rho, duration_s=5.1)
    if name == "fig2d_12s":
        return presets.fig2d_config(mode=rho, duration_s=12.0)
    cfg = presets.fig2d_config(mode=rho, duration_s=0.5)
    if name == "fig2d_offset":
        cfg = dataclasses.replace(cfg, timer_b=TimerSpec(4000, -267_000_123_000, 1))
    return cfg


def tag_digests(name, mode, seed):
    digests = []
    for stream in run_simulation(golden_config(name, mode), seed):
        buf = io.BytesIO()
        tagio.write_tags(stream, buf)
        digests.append(hashlib.sha256(buf.getvalue()).hexdigest())
    return tuple(digests)


@pytest.mark.usefixtures("draw_ahead")
@pytest.mark.parametrize("name, mode, seed", list(GOLDEN_TAG_DIGESTS))
def test_golden_tag_bytes(name, mode, seed):
    """The seed -> tag-file bytes mapping is pinned.

    A change to the stages' arithmetic must keep every draw and every float
    operation, so these digests hold.  The 0.5 s cases are one simulation
    block, the 12 s cases three and the 5.1 s case two, the second 0.1 s
    long, so the block structure (its RNG streams, windows and carried
    detections) is pinned too; so is the span of a duration whose fs round
    up (1.1 s).  The bytes changed once,
    when the per-pair sampler (an offset and detunings per pair, a jitter per
    photon, float64 times) gave way to one normal per detected photon, with
    integer emissions, dark counts and times and exact half-up rounding.
    """
    assert tag_digests(name, mode, seed) == GOLDEN_TAG_DIGESTS[name, mode, seed]


@pytest.mark.parametrize("name, seed", [("fig2d_12s", 0), ("fig2d_12s", 1), ("fig2d_5.1s", 0)])
def test_golden_tag_bytes_on_one_cpu(monkeypatch, name, seed):
    """On one CPU no block is drawn ahead, and the bytes are the same."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    assert tag_digests(name, "anti", seed) == GOLDEN_TAG_DIGESTS[name, "anti", seed]


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
