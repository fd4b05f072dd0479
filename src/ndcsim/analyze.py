"""Physics extraction from coincidence histograms.

Gaussian peak fits with Poisson weights, variance conversion, weighted
linear fits for the width-versus-length sweeps, and the Bell-like witness
verdict assembled from two fitted peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import curve_fit

from . import model
from .correlate import Histogram
from .errors import FitError, ParameterError
from .model import SourceParams, WasakInputs

_MIN_OCCUPIED_BINS = 8
_PEAK_SIGNIFICANCE = 5.0
_MAX_FEV = 200 * 6  # iteration cap (per-parameter function evaluations)


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    amplitude_err: float
    center_ps: float
    center_err_ps: float
    sigma_ps: float
    sigma_err_ps: float
    baseline: float
    baseline_err: float
    reduced_chi2: float

    @property
    def fwhm_ps(self) -> float:
        return model.fwhm_from_sigma(self.sigma_ps)

    @property
    def fwhm_err_ps(self) -> float:
        return model.FWHM_PER_SIGMA * self.sigma_err_ps


@dataclass(frozen=True)
class WasakResult:
    inputs: WasakInputs
    w: float
    w_err: float
    violation_sigmas: float
    violated: bool


@dataclass(frozen=True)
class LinearFit:
    slope: float
    slope_err: float
    intercept: float
    intercept_err: float
    dof: int


def _gauss(x, amplitude, center, sigma, baseline):
    return amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2) + baseline


def fit_gaussian(h: Histogram) -> GaussianFit:
    """Weighted nonlinear least-squares Gaussian-plus-baseline fit.

    Poisson weights with floor 1 on empty bins; parameter covariance scaled
    by the reduced chi-square.  Raises FitError when there is no significant
    peak or the optimizer fails to converge.
    """
    x = h.bin_centers_ps
    y = h.counts.astype(np.float64)
    if int(np.count_nonzero(y)) < _MIN_OCCUPIED_BINS:
        raise FitError(f"need >= {_MIN_OCCUPIED_BINS} occupied bins, got {int(np.count_nonzero(y))}")

    baseline0 = float(np.median(y))
    peak = float(y.max())
    if peak < baseline0 + _PEAK_SIGNIFICANCE * math.sqrt(max(baseline0, 1.0)):
        raise FitError("no significant peak above the baseline")

    mu0 = float(x[int(np.argmax(y))])
    amp0 = peak - baseline0
    # Initial width from the half-maximum crossings around the peak bin.
    above = y >= baseline0 + 0.5 * amp0
    idx = np.nonzero(above)[0]
    if idx.size >= 2:
        s0 = max((x[idx[-1]] - x[idx[0]]) / model.FWHM_PER_SIGMA, h.bin_width_ps / 2)
    else:
        s0 = h.bin_width_ps
    b0 = float(y.min())

    # First pass with observed-count weights, then reweight from the fitted
    # model; expected-count weights remove the low-count bias of weighting by
    # the noisy observations themselves.
    weights = np.sqrt(np.maximum(y, 1.0))
    popt = (amp0, mu0, s0, b0)
    try:
        for _ in range(3):
            popt, pcov = curve_fit(
                _gauss,
                x,
                y,
                p0=popt,
                sigma=weights,
                absolute_sigma=False,
                maxfev=_MAX_FEV,
                xtol=1e-12,
            )
            new_weights = np.sqrt(np.maximum(_gauss(x, *popt), 1.0))
            if np.allclose(new_weights, weights, rtol=1e-10):
                break
            weights = new_weights
    except RuntimeError as exc:
        raise FitError(f"Gaussian fit did not converge: {exc}") from exc

    amp, mu, sig, base = popt
    if not np.all(np.isfinite(pcov)):
        raise FitError("singular covariance in Gaussian fit")
    sig = abs(float(sig))
    if sig <= 0 or amp <= 0:
        raise FitError(f"degenerate fit: amplitude={amp:.3g}, sigma={sig:.3g}")
    dof = max(x.size - 4, 1)
    resid = (y - _gauss(x, *popt)) / weights
    red_chi2 = float(resid @ resid) / dof
    # curve_fit already scaled pcov by red_chi2; undo that below 1, where the
    # scaling would deflate the errors under the Poisson floor (near-empty
    # baseline bins pull red_chi2 down without carrying information).
    errs = np.sqrt(np.diag(pcov) / min(red_chi2, 1.0))
    return GaussianFit(
        amplitude=float(amp),
        amplitude_err=float(errs[0]),
        center_ps=float(mu),
        center_err_ps=float(errs[1]),
        sigma_ps=sig,
        sigma_err_ps=float(errs[2]),
        baseline=float(base),
        baseline_err=float(errs[3]),
        reduced_chi2=red_chi2,
    )


def variance_from_fit(fit: GaussianFit) -> tuple[float, float]:
    """(sigma^2, first-order error 2*sigma*sigma_err) in ps**2."""
    return fit.sigma_ps**2, 2.0 * fit.sigma_ps * fit.sigma_err_ps


def evaluate_wasak(
    fit_before: GaussianFit, fit_after: GaussianFit, two_beta_l_ps2: float
) -> WasakResult:
    """Witness verdict from the fitted before/after correlation peaks."""
    var_b, var_b_err = variance_from_fit(fit_before)
    var_a, var_a_err = variance_from_fit(fit_after)
    inputs = WasakInputs(
        var_before_ps2=var_b,
        var_before_err_ps2=var_b_err,
        var_after_ps2=var_a,
        var_after_err_ps2=var_a_err,
        two_beta_l_ps2=two_beta_l_ps2,
    )
    return wasak_from_inputs(inputs)


def wasak_from_inputs(inputs: WasakInputs) -> WasakResult:
    w = model.wasak_w(inputs)
    w_err = model.wasak_w_uncertainty(inputs)
    violated = w < 1.0
    sigmas = (1.0 - w) / w_err if (violated and w_err > 0) else 0.0
    return WasakResult(inputs=inputs, w=w, w_err=w_err, violation_sigmas=sigmas, violated=violated)


def fit_linear(points: Sequence[tuple[float, float, float]]) -> LinearFit:
    """Weighted least-squares line through (x, y, y_err) points.

    Uses the supplied errors as absolute; with exactly two points the fit is
    an interpolation and dof = 0 flags that the residual carries no
    information.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParameterError("points must be (x, y, y_err) triples")
    x, y, yerr = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.unique(x).size < 2:
        raise ParameterError("need >= 2 distinct abscissae")
    w = np.divide(1.0, yerr, out=np.ones_like(yerr), where=yerr > 0)
    (slope, intercept), cov = np.polyfit(x, y, 1, w=w, cov="unscaled")
    return LinearFit(
        slope=float(slope),
        slope_err=math.sqrt(cov[0, 0]),
        intercept=float(intercept),
        intercept_err=math.sqrt(cov[1, 1]),
        dof=int(x.size - 2),
    )


def dispersion_from_slope(slope_ps_per_km: float, src: SourceParams, sign: int = 1) -> float:
    """Invert the far-field width-per-length slope to k'' in s^2/m.

    slope/eta is the accumulated dispersion per km in ps^2; dividing by
    1000 m and converting ps^2 -> s^2 gives k''.  ``sign`` encodes the
    channel role (anomalous SMF negative, DCF positive).
    """
    if slope_ps_per_km <= 0:
        raise ParameterError("slope must be > 0")
    k2l_ps2_per_km = slope_ps_per_km / model.farfield_eta(src)
    return sign * k2l_ps2_per_km * 1e-24 / 1e3


def fit_report_text(fit: GaussianFit) -> str:
    """key = value report block for one Gaussian fit."""
    lines = [
        f"amplitude = {fit.amplitude:.6g} +- {fit.amplitude_err:.3g}",
        f"center_ps = {fit.center_ps:.6g} +- {fit.center_err_ps:.3g}",
        f"sigma_ps = {fit.sigma_ps:.6g} +- {fit.sigma_err_ps:.3g}",
        f"fwhm_ps = {fit.fwhm_ps:.6g} +- {fit.fwhm_err_ps:.3g}",
        f"baseline = {fit.baseline:.6g} +- {fit.baseline_err:.3g}",
        f"reduced_chi2 = {fit.reduced_chi2:.4g}",
    ]
    return "\n".join(lines)


def wasak_report_text(result: WasakResult) -> str:
    """Witness verdict with all five inputs for audit."""
    i = result.inputs
    lines = [
        f"var_before_ps2 = {i.var_before_ps2:.6g} +- {i.var_before_err_ps2:.3g}",
        f"var_after_ps2 = {i.var_after_ps2:.6g} +- {i.var_after_err_ps2:.3g}",
        f"two_beta_l_ps2 = {i.two_beta_l_ps2:.6g}",
        f"W = {result.w:.4g} +- {result.w_err:.3g}",
        f"violation_sigmas = {result.violation_sigmas:.3g}",
        f"violated = {str(result.violated).lower()}",
    ]
    return "\n".join(lines)
