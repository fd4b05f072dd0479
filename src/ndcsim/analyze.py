"""Physics extraction from coincidence histograms.

Poisson maximum-likelihood Gaussian peak fits, variance conversion, weighted
linear fits for the width-versus-length sweeps, and the Bell-like witness
(``model.Witness``) built from the variances of two fitted peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .correlate import FALSE_PEAK_P, Histogram
from .errors import FitError, ParameterError, check_range
from .model import SourceParams, Witness

_MAX_STEPS = 100  # cap on the scoring steps, and on the halvings of each
_TOL = 1e-6  # twice the NLL decrease, predicted by a step, that ends the fit
_MIN_SIGMA_BINS = 0.25  # a narrower sigma, in bins, is not resolved by the histogram


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
    deviance_per_dof: float

    @property
    def fwhm_ps(self) -> float:
        return model.fwhm_from_sigma(self.sigma_ps)

    @property
    def fwhm_err_ps(self) -> float:
        return model.FWHM_PER_SIGMA * self.sigma_err_ps


@dataclass(frozen=True)
class LinearFit:
    slope: float
    slope_err: float
    intercept: float
    intercept_err: float
    dof: int


def _xlogy(n, lam):
    """n ln(lam) for counts n >= 0 and rates lam >= 0: 0 where n is 0, whatever
    lam, and -inf, without a warning, where only lam is."""
    with np.errstate(divide="ignore"):
        return n * np.log(lam, out=np.zeros(lam.shape), where=n > 0)


def _poisson(x, y, p):
    """At p = (A, mu, sigma, B): the Poisson NLL sum(lambda - n ln lambda),
    infinite for a negative rate or a count at rate 0, the rates, their gradient."""
    amp, mu, sig, base = p
    z = (x - mu) / sig
    g = np.exp(-0.5 * z * z)
    lam = amp * g + base
    nll = float(lam.sum() - _xlogy(y, lam).sum()) if lam.min() >= 0 else math.inf
    return nll, lam, np.array([g, amp * g * z / sig, amp * g * z * z / sig, np.ones_like(x)])


def _scoring(x, y, p, hold: bool, bin_width_ps: float):
    """Fisher scoring with step halving from p = (A, mu, sigma, B), B held at 0
    if ``hold``, else while its score is <= 0: (p, NLL, score, free parameters,
    their covariance) at convergence, None if _MAX_STEPS steps do not."""
    nll, lam, grad = _poisson(x, y, p)
    for _ in range(_MAX_STEPS):
        # Where the rate underflows, weight 0 keeps 1/lambda finite.
        w = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > np.finfo(float).tiny)
        score = grad @ (y * w - 1.0)
        free = 3 if p[3] == 0 and (hold or score[3] <= 0) else 4
        try:
            cov = np.linalg.inv((grad[:free] * w) @ grad[:free].T)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular covariance in Gaussian fit: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is refused
            step = np.append(cov @ score[:free], np.zeros(4 - free))
        if not np.all(np.isfinite(step)):
            raise FitError("singular covariance in Gaussian fit: the scoring step is not finite")
        if score @ step <= _TOL:
            return p, nll, score, free, cov
        for _ in range(_MAX_STEPS):
            trial = np.maximum(p + step, (-np.inf, -np.inf, -np.inf, 0.0))  # baseline >= 0
            evaluation = _poisson(x, y, trial)
            if evaluation[0] < nll:
                break
            step /= 2
        else:
            return p, nll, score, free, cov  # no step along the scoring direction lowers the NLL
        p, (nll, lam, grad) = trial, evaluation
        if abs(p[2]) < _MIN_SIGMA_BINS * bin_width_ps:
            raise FitError(f"peak unresolved: sigma {abs(p[2]):.3g} ps is below a quarter "
                           f"of the {bin_width_ps:.6g} ps bin")
    return None


def fit_gaussian(h: Histogram) -> GaussianFit:
    """Poisson maximum-likelihood Gaussian-plus-baseline fit (Cash 1979).

    Fisher scoring with step halving; the baseline is held at 0 while its score
    is <= 0, and a fit that does not converge is refit with it held at 0 from
    the start.  Errors from the inverse Fisher information, 0 for a held baseline.
    The peak must pass the offset search's false-alarm level: the Wilks ratio
    against a flat baseline, as a one-sided normal tail times the bins, at most
    correlate.FALSE_PEAK_P.  Raises FitError without such a peak, or when the
    fit is unresolved, singular, unconverged, degenerate or not in the histogram.
    """
    x = h.bin_centers_ps
    y = h.counts.astype(np.float64)
    baseline0 = float(np.median(y))
    peak = float(y.max())
    if peak <= baseline0:
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
    # At 0, an accidental where the initial Gaussian underflows is impossible.
    start = np.array([amp0, mu0, s0, max(float(y.min()), 1.0 / y.size)])
    fit = _scoring(x, y, start, False, h.bin_width_ps)
    if fit is None:
        # A free baseline falling toward 0 shrinks by a fraction a step and may
        # never reach it: refit with it held there, kept if its score is <= 0.
        fit = _scoring(x, y, np.append(start[:3], 0.0), True, h.bin_width_ps)
        if fit is None or fit[2][3] > 0:
            raise FitError(f"Gaussian fit did not converge in {_MAX_STEPS} steps")
    p, nll, _, free, cov = fit

    amp, mu, sig, base = p
    variances = np.diag(cov)
    if not np.all(variances > 0):
        raise FitError("singular covariance in Gaussian fit: a variance is not positive")
    if sig == 0 or amp <= 0:
        raise FitError(f"degenerate fit: amplitude={amp:.3g}, sigma={abs(sig):.3g}")
    span, fwhm = h.counts.size * h.bin_width_ps, model.fwhm_from_sigma(abs(sig))
    if not h.origin_ps <= mu < h.origin_ps + span:
        raise FitError(f"fitted centre {mu:.6g} ps outside the histogram "
                       f"[{h.origin_ps:.6g}, {h.origin_ps + span:.6g}) ps")
    if fwhm > span:
        raise FitError(f"fitted FWHM {fwhm:.6g} ps exceeds the {span:.6g} ps histogram")
    ratio = 2.0 * (float(y.sum()) * (1.0 - math.log(y.mean())) - nll)  # against a flat baseline
    p_false = min(1.0, x.size * math.erfc(math.sqrt(max(ratio, 0.0) / 2)) / 2)
    if p_false > FALSE_PEAK_P:
        raise FitError(f"no significant peak above the baseline: trials-corrected p = {p_false:.3g}")
    errs = np.append(np.sqrt(variances), np.zeros(4 - free))
    # The Baker-Cousins deviance is twice the NLL above the saturated model's.
    return GaussianFit(
        amplitude=float(amp),
        amplitude_err=float(errs[0]),
        center_ps=float(mu),
        center_err_ps=float(errs[1]),
        sigma_ps=abs(float(sig)),
        sigma_err_ps=float(errs[2]),
        baseline=float(base),
        baseline_err=float(errs[3]),
        deviance_per_dof=2.0 * float(nll - y.sum() + _xlogy(y, y).sum()) / max(x.size - 4, 1),
    )


def variance_from_fit(fit: GaussianFit) -> tuple[float, float]:
    """(sigma^2, first-order error 2*sigma*sigma_err) in ps**2."""
    return fit.sigma_ps**2, 2.0 * fit.sigma_ps * fit.sigma_err_ps


def evaluate_wasak(
    fit_before: GaussianFit, fit_after: GaussianFit, two_beta_l_ps2: float
) -> Witness:
    """Witness from the fitted before/after correlation peaks."""
    var_b, var_b_err = variance_from_fit(fit_before)
    var_a, var_a_err = variance_from_fit(fit_after)
    return Witness(
        var_before_ps2=var_b,
        var_before_err_ps2=var_b_err,
        var_after_ps2=var_a,
        var_after_err_ps2=var_a_err,
        two_beta_l_ps2=two_beta_l_ps2,
    )


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


def dispersion_from_slope(slope_ps_per_km: float, src: SourceParams) -> float:
    """Invert the far-field width-per-length slope to |k''| in s^2/m.

    slope/eta is the accumulated dispersion per km in ps^2; dividing by
    1000 m and converting ps^2 -> s^2 gives |k''|.  The slope carries no
    sign, so anomalous SMF and normal DCF come out alike.
    """
    check_range("slope_ps_per_km", slope_ps_per_km, 0, above=True)
    k2l_ps2_per_km = slope_ps_per_km / model.farfield_eta(src)
    return k2l_ps2_per_km * 1e-24 / 1e3


def fit_report_text(fit: GaussianFit) -> str:
    """key = value report block for one Gaussian fit."""
    lines = [
        f"amplitude = {fit.amplitude:.6g} +- {fit.amplitude_err:.3g}",
        f"center_ps = {fit.center_ps:.6g} +- {fit.center_err_ps:.3g}",
        f"sigma_ps = {fit.sigma_ps:.6g} +- {fit.sigma_err_ps:.3g}",
        f"fwhm_ps = {fit.fwhm_ps:.6g} +- {fit.fwhm_err_ps:.3g}",
        f"baseline = {fit.baseline:.6g} +- {fit.baseline_err:.3g}",
        f"deviance_per_dof = {fit.deviance_per_dof:.4g}",
    ]
    return "\n".join(lines)


def wasak_report_text(w: Witness) -> str:
    """Witness verdict with all five inputs for audit."""
    lines = [
        f"var_before_ps2 = {w.var_before_ps2:.6g} +- {w.var_before_err_ps2:.3g}",
        f"var_after_ps2 = {w.var_after_ps2:.6g} +- {w.var_after_err_ps2:.3g}",
        f"two_beta_l_ps2 = {w.two_beta_l_ps2:.6g}",
        f"W = {w.w:.4g} +- {w.w_err:.3g}",
        f"violation_sigmas = {w.violation_sigmas:.3g}",
        f"violated = {str(w.violated).lower()}",
    ]
    return "\n".join(lines)
