"""Fitting and witness-evaluation tests."""

import math
import warnings

import numpy as np
import pytest

from ndcsim import model
from ndcsim.analyze import (
    GaussianFit,
    _poisson,
    dispersion_from_slope,
    evaluate_wasak,
    fit_gaussian,
    fit_linear,
    variance_from_fit,
)
from ndcsim.correlate import Histogram
from ndcsim.errors import FitError, ParameterError
from ndcsim.model import SourceParams, Witness

SRC = SourceParams()


def gaussian_histogram(amplitude, center, sigma, baseline, bin_width, window, noisy=None):
    nbins = int(math.ceil(2 * window / bin_width))
    x = -window + (np.arange(nbins) + 0.5) * bin_width
    y = amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2) + baseline
    counts = noisy.poisson(y) if noisy is not None else np.round(y).astype(np.int64)
    return Histogram(bin_width, -window, counts.astype(np.int64))


def sampled_histogram(rng, n, sigma, bin_width, window, baseline_rate=0.0):
    d = rng.normal(0.0, sigma, n)
    nbins = int(math.ceil(2 * window / bin_width))
    idx = np.floor((d + window) / bin_width).astype(int)
    ok = (idx >= 0) & (idx < nbins)
    counts = np.bincount(idx[ok], minlength=nbins)
    if baseline_rate > 0:
        counts = counts + rng.poisson(baseline_rate, nbins)
    return Histogram(bin_width, -window, counts.astype(np.int64))


def weak_peak_histogram(seed):
    """501 bins of 10 ps over +/- 2505 ps, Poisson counts at 4 exp(-x^2 / 2 40^2) + 3."""
    x = -2500.0 + 10.0 * np.arange(501)
    lam = 4.0 * np.exp(-0.5 * (x / 40.0) ** 2) + 3.0
    return Histogram(10.0, -2505.0, np.random.default_rng(seed).poisson(lam))


class TestFitGaussian:
    def test_exact_recovery(self):
        # noiseless samples of A=100, mu=40 ps, s=16 ps, B=0
        nbins = 200
        bw = 1.6
        x = -120.0 + (np.arange(nbins) + 0.5) * bw
        y = 100.0 * np.exp(-0.5 * ((x - 40.0) / 16.0) ** 2)
        h = Histogram(bw, -120.0, np.round(y * 1e6).astype(np.int64))
        # scale up so integer rounding is negligible at the 1e-6 level
        fit = fit_gaussian(h)
        assert fit.amplitude == pytest.approx(100.0e6, rel=1e-6)
        assert fit.center_ps == pytest.approx(40.0, abs=1e-4)
        assert fit.sigma_ps == pytest.approx(16.0, rel=1e-6)
        assert abs(fit.baseline) < 1.0

    def test_too_few_occupied_bins(self):
        h = Histogram(10.0, -100.0, np.array([0, 0, 50, 0, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(FitError):
            fit_gaussian(h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mean", [0.05, 1.0, 5.0, 100.0])
    @pytest.mark.parametrize("nbins", [20, 100, 501])
    def test_no_significant_peak(self, nbins, mean, seed):
        # Pure Poisson noise, sparse to dense: no fit may pass it as a peak.
        rng = np.random.default_rng(seed)
        counts = rng.poisson(mean, nbins)
        h = Histogram(10.0, -5.0 * nbins, counts.astype(np.int64))
        with pytest.raises(FitError):
            fit_gaussian(h)

    @pytest.mark.parametrize("nbins, mean, seed", [
        (20, 20.0, 1079), (20, 20.0, 1491), (100, 100.0, 1231), (501, 0.05, 1583),
    ])
    def test_runaway_fit_raises_without_warning(self, nbins, mean, seed):
        # On these noise histograms the centre leaves the histogram, the
        # Fisher information becomes singular and the scoring step overflows.
        counts = np.random.default_rng(seed).poisson(mean, nbins)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="scoring step is not finite"):
                fit_gaussian(Histogram(10.0, -5.0 * nbins, counts))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unresolved_peak_fails_at_once(self, seed):
        # A 0.3 ps peak centred in one 3 ps bin: without the check, seed 0
        # shrank sigma for all 100 steps and seed 1 returned sigma 0.46 +- 2e5 ps.
        rng = np.random.default_rng(seed)
        h = gaussian_histogram(200.0, 1.5, 0.3, 5.0, 3.0, 300.0, noisy=rng)
        with pytest.raises(FitError, match=r"peak unresolved: sigma [\d.]+ ps .* 3 ps bin"):
            fit_gaussian(h)

    @pytest.mark.parametrize("seed, message", [
        (68, "singular covariance"), (78, "singular covariance"),
        (156, "centre 3256.49 ps outside the histogram"),
    ])
    def test_weak_peak_without_valid_fit_raises(self, seed, message):
        # 4 counts per bin over 3 in 10 ps bins, sigma 40 ps: seeds 68 and 78
        # ended with negative variances (NaN errors and a sqrt warning), seed
        # 156 with its centre beyond the +/- 2505 ps histogram, sigma 21 ns.
        with pytest.raises(FitError, match=message):
            fit_gaussian(weak_peak_histogram(seed))

    def test_significance_at_the_coarse_level(self):
        # Over 501 bins, p <= FALSE_PEAK_P takes a Wilks ratio of 37.0: the
        # weak peak at seed 142 clears it at 37.16, seed 5 misses it.
        assert fit_gaussian(weak_peak_histogram(142)).amplitude > 0
        with pytest.raises(FitError, match="baseline: trials-corrected p = 4.13e-07"):
            fit_gaussian(weak_peak_histogram(5))

    def test_fwhm_wider_than_histogram_raises(self):
        # The same weak peak at seed 38 fitted sigma 3.9 ns, a FWHM of 9.1 ns.
        with pytest.raises(FitError, match="exceeds the 5010 ps histogram"):
            fit_gaussian(weak_peak_histogram(38))

    def test_baseline_falling_to_zero(self):
        # The reported fig3 smf 20 km histogram at seed 1000141: about 12,000
        # pairs, no background.  Each scoring step shrank the free baseline by
        # a fixed fraction, to 1e-4 after 91 steps, and the fit ran out of
        # steps; refit with the baseline held at 0 it converges, with a
        # baseline score of -0.83 there.
        counts = np.zeros(81, np.int64)
        counts[20:59] = [1, 0, 0, 1, 1, 4, 6, 12, 28, 41, 94, 167, 221, 315, 458, 607, 760, 978,
                         1096, 1135, 1087, 1050, 969, 808, 643, 501, 354, 243, 189, 104, 55, 35,
                         13, 11, 2, 5, 1, 0, 1]
        fit = fit_gaussian(Histogram(82.0, -3290.854, counts))
        assert fit.sigma_ps == pytest.approx(350.157, abs=1e-3)
        assert fit.center_ps == pytest.approx(-0.662, abs=1e-3)
        assert fit.baseline == fit.baseline_err == 0.0

    def test_poisson_recovery_with_baseline(self):
        rng = np.random.default_rng(1)
        h = gaussian_histogram(2000.0, 40.0, 16.0, 25.0, 3.0, 200.0, noisy=rng)
        fit = fit_gaussian(h)
        assert fit.sigma_ps == pytest.approx(16.0, rel=0.03)
        assert fit.center_ps == pytest.approx(40.0, abs=1.0)
        assert fit.baseline == pytest.approx(25.0, rel=0.15)

    def test_uncertainty_calibration(self):
        # fitted sigma within 3 standard errors of truth in >= 99% of trials
        rng = np.random.default_rng(2)
        hits = 0
        trials = 150
        for _ in range(trials):
            h = sampled_histogram(rng, 1700, 45.55, 10.7, 430.0, baseline_rate=0.5)
            fit = fit_gaussian(h)
            if abs(fit.sigma_ps - 45.55) <= 3 * fit.sigma_err_ps:
                hits += 1
        assert hits / trials >= 0.99


class TestPoissonNLL:
    """The NLL sum(lambda - n ln lambda) of _poisson, with n ln lambda taken as 0
    where n is 0, as scipy.special.xlogy does."""

    X = np.linspace(-500.0, 500.0, 201)
    P = np.array([100.0, 0.0, 5.0, 0.0])  # rates underflow to 0 beyond ~195 ps

    def test_count_at_rate_zero_infinite_without_warning(self):
        y = np.zeros_like(self.X)
        y[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll, lam, _ = _poisson(self.X, y, self.P)
        assert lam[0] == 0.0
        assert nll == math.inf

    def test_zero_count_at_rate_zero_adds_nothing(self):
        y = np.round(100.0 * np.exp(-0.5 * (self.X / 5.0) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll, lam, _ = _poisson(self.X, y, self.P)
        assert (lam == 0).sum() > 100
        live = lam > 0
        expected = math.fsum(lam[live] - y[live] * np.log(lam[live]))
        assert nll == pytest.approx(expected, rel=1e-14)

    def test_matches_scipy_xlogy(self):
        xlogy = pytest.importorskip("scipy.special").xlogy
        rng = np.random.default_rng(3)
        x = np.linspace(-200.0, 200.0, 501)
        for p in ([300.0, 10.0, 20.0, 2.0], [50.0, -30.0, 40.0, 0.05], [1e4, 0.0, 5.0, 0.0]):
            p = np.array(p)
            y = rng.poisson(_poisson(x, np.zeros_like(x), p)[1]).astype(np.float64)
            nll, lam, _ = _poisson(x, y, p)
            assert nll == pytest.approx(float(lam.sum() - xlogy(y, lam).sum()), rel=1e-15)


class TestVarianceFromFit:
    def _fit(self, sigma, sigma_err):
        return GaussianFit(100.0, 1.0, 0.0, 0.1, sigma, sigma_err, 0.0, 0.1, 1.0)

    def test_before_dispersion(self):
        var, err = variance_from_fit(self._fit(15.982, 0.150))
        assert var == pytest.approx(255.42, abs=0.01)
        assert err == pytest.approx(4.79, abs=0.01)

    def test_after_dispersion(self):
        var, err = variance_from_fit(self._fit(45.676, 4.565))
        assert var == pytest.approx(2086.3, abs=0.1)
        assert err == pytest.approx(417.0, abs=0.1)

    def test_zero_error(self):
        _, err = variance_from_fit(self._fit(10.0, 0.0))
        assert err == 0.0


class TestEvaluateWasak:
    def _fit(self, sigma, sigma_err):
        return GaussianFit(100.0, 1.0, 0.0, 0.1, sigma, sigma_err, 0.0, 0.1, 1.0)

    def test_reference_fits(self):
        result = evaluate_wasak(self._fit(15.982, 0.150), self._fit(45.676, 4.565), 1428.92)
        assert result.w == pytest.approx(0.253, abs=1e-3)
        assert 0.050 <= result.w_err <= 0.053
        assert result.violation_sigmas == pytest.approx(14.4, abs=0.5)
        assert result.violated

    def test_no_dispersion_not_violated(self):
        f = self._fit(15.982, 0.150)
        result = evaluate_wasak(f, f, 0.0)
        assert result.w == pytest.approx(1.0)
        assert not result.violated
        assert result.violation_sigmas == 0.0

    def test_classical_inputs_not_violated(self):
        result = Witness(255.4, 5.0, 5.0e6, 1e5, 1428.92)
        assert result.w >= 1.0
        assert not result.violated


class TestFitLinear:
    def test_exact_line(self):
        xs = np.array([1.0, 10.0, 20.0, 62.0])
        pts = [(x, 42.96 * x + 37.6, 1.0) for x in xs]
        fit = fit_linear(pts)
        assert fit.slope == pytest.approx(42.96, rel=1e-12)
        assert fit.intercept == pytest.approx(37.6, rel=1e-12)

    def test_two_points_interpolation(self):
        fit = fit_linear([(0.0, 1.0, 0.5), (2.0, 5.0, 0.5)])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.dof == 0  # no residual information

    def test_degenerate_abscissae(self):
        with pytest.raises(ParameterError):
            fit_linear([(1.0, 2.0, 0.1), (1.0, 3.0, 0.1)])

    def test_weighting(self):
        # a wildly uncertain outlier should barely move the fit
        pts = [(0.0, 0.0, 0.1), (1.0, 1.0, 0.1), (2.0, 2.0, 0.1), (3.0, 100.0, 1e6)]
        fit = fit_linear(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-3)

    def test_zero_error_weighs_one(self):
        # A zero error takes weight 1, as the errors of the other points do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_linear([(0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (2.0, 2.0, 1.0)])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(1.0 / 3.0)
        assert fit.slope_err == pytest.approx(math.sqrt(0.5))


class TestDispersionFromSlope:
    def test_smf(self):
        k2 = dispersion_from_slope(42.96, SRC)
        assert k2 == pytest.approx(2.37e-26, rel=0.01, abs=0)
        # far-field slope at the nominal k2
        assert dispersion_from_slope(40.94, SRC) == pytest.approx(2.26e-26, rel=5e-4, abs=0)

    def test_dcf(self):
        k2 = dispersion_from_slope(359.63, SRC)
        assert k2 == pytest.approx(1.99e-25, rel=0.01, abs=0)
        # far-field slope at the nominal k2
        assert dispersion_from_slope(353.2, SRC) == pytest.approx(1.95e-25, rel=5e-4, abs=0)

    def test_round_trip_with_farfield(self):
        for k2 in (2.26e-26, 1.95e-25, 5.0e-26):
            k2l_per_km = k2 * 1e3 * 1e24
            slope = model.farfield_eta(SRC) * k2l_per_km
            assert dispersion_from_slope(slope, SRC) == pytest.approx(k2, rel=1e-9, abs=0)

    def test_wider_spectrum(self):
        # the far-field slope of the exact width scales with sigma_omega, not
        # with the transform-limited 1/(2 sqrt(gamma) D L)
        src = SourceParams(sigma_omega=0.3)
        length_km, k2l_per_km = 1000.0, 2.26e-26 * 1e3 * 1e24
        var = model.source_variance_ps2(src, k2l_per_km * length_km, 0.0)
        slope = model.FWHM_PER_SIGMA * math.sqrt(var) / length_km
        assert dispersion_from_slope(slope, src) == pytest.approx(2.26e-26, rel=1e-6, abs=0)

    def test_invalid_slope(self):
        with pytest.raises(ParameterError):
            dispersion_from_slope(0.0, SRC)
