"""One-command reproductions of the headline results, with pass/fail checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import model, presets
from .analyze import dispersion_from_slope, evaluate_wasak, fit_linear
from .config import CORRELATION_NAMES
from .errors import ParameterError, check_range
from .model import SourceParams, Witness
from .pipeline import measure_config_peak

# Seed decorrelation between the before/after sub-runs of one reproduction.
_SEED_STRIDE = 1_000_003

WASAK_W_RANGE = (0.20, 0.32)
WASAK_MIN_SIGMAS = 5.0
FIG2A_FWHM_RANGE = (37.6 - 1.5, 37.6 + 1.5)
FIG2D_FWHM_RANGE = (102.0, 112.0)
FIG3_SMF_SLOPE_RANGE = (40.9 - 1.3, 40.9 + 1.3)
FIG3_DCF_SLOPE_RANGE = (353.0 - 11.0, 353.0 + 11.0)
REFERENCE_SMF_SLOPE = 42.96
REFERENCE_DCF_SLOPE = 359.63


@dataclass
class ReproduceReport:
    target: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    result: object = None

    def text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"[{verdict}] {self.target}\n{body}"


def _scaled_duration(scale: float) -> float:
    check_range("scale", scale, 0, above=True)
    return presets.ACQUISITION_S * scale


def _width_report(target: str, cfg, seed: int, fwhm_range, *notes: str) -> ReproduceReport:
    """Measure the peak of ``cfg`` and check its FWHM against ``fwhm_range``."""
    meas = measure_config_peak(cfg, seed)
    fit = meas.fit
    lo, hi = fwhm_range
    return ReproduceReport(
        target=target,
        passed=lo <= fit.fwhm_ps <= hi,
        lines=[
            f"fitted FWHM = {fit.fwhm_ps:.2f} +- {fit.fwhm_err_ps:.2f} ps (target {lo:g}..{hi:g})",
            *notes,
            f"recovered offset = {meas.offset_fs} fs",
            f"coincidences = {meas.histogram.total_pairs}",
        ],
        result=meas,
    )


def reproduce_fig2a(seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    cfg = presets.fig2a_config(duration_s=_scaled_duration(scale))
    return _width_report("fig2a", cfg, seed, FIG2A_FWHM_RANGE)


def reproduce_fig2d(seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    cfg = presets.fig2d_config(duration_s=_scaled_duration(scale))
    predicted = model.FWHM_PER_SIGMA * math.sqrt(presets.predicted_pair_variance_ps2(cfg))
    return _width_report("fig2d", cfg, seed, FIG2D_FWHM_RANGE,
                         f"analytic prediction = {predicted:.1f} ps")


def _witness(names, seed: int, scale: float) -> dict[str, Witness]:
    """W for each named fig2d correlation against one fig2a "before" peak.

    The before peak is measured at ``seed``, the k-th name's after peak
    (k = 1, 2, ...) at ``seed + k * _SEED_STRIDE``.
    """
    duration = _scaled_duration(scale)
    before = measure_config_peak(presets.fig2a_config(duration_s=duration), seed)
    results = {}
    for k, name in enumerate(names, start=1):
        cfg = presets.fig2d_config(mode=CORRELATION_NAMES[name], duration_s=duration)
        after = measure_config_peak(cfg, seed + k * _SEED_STRIDE)
        results[name] = evaluate_wasak(before.fit, after.fit, presets.wasak_two_beta_l_ps2(cfg))
    return results


def reproduce_wasak(seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    result = _witness(("anti",), seed, scale)["anti"]
    lo, hi = WASAK_W_RANGE
    ok = result.violated and lo <= result.w <= hi and result.violation_sigmas >= WASAK_MIN_SIGMAS
    report = ReproduceReport(target="wasak", passed=ok, result=result)
    report.lines = [
        f"var_before = {result.var_before_ps2:.2f} +- {result.var_before_err_ps2:.2f} ps^2",
        f"var_after = {result.var_after_ps2:.2f} +- {result.var_after_err_ps2:.2f} ps^2",
        f"two_beta_l = {result.two_beta_l_ps2:.2f} ps^2",
        f"W = {result.w:.4f} +- {result.w_err:.4f} (target {lo}..{hi})",
        f"violation_sigmas = {result.violation_sigmas:.1f} (require >= {WASAK_MIN_SIGMAS})",
        f"violated = {str(result.violated).lower()}",
    ]
    return report


def reproduce_classical(seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    """Classical analogs at the violating geometry must satisfy W >= 1."""
    results = _witness(("positive", "none"), seed, scale)
    lines = [
        f"mode={mode}: W = {r.w:.2f} +- {r.w_err:.2f}, "
        f"var_after = {r.var_after_ps2:.0f} ps^2 (require W >= 1)"
        for mode, r in results.items()
    ]
    ok = all(r.w >= 1.0 for r in results.values())
    return ReproduceReport(target="classical", passed=ok, lines=lines, result=results)


def _sweep_slope(fiber: str, lengths, fitted_k2: bool, seed: int, duration_s: float):
    """Fit FWHM against fiber length; returns the linear fit and the points.

    The peak at the k-th length is measured at ``seed + k * _SEED_STRIDE``.
    """
    points = []
    for k, length in enumerate(lengths):
        cfg = presets.fig3_config(fiber, length, fitted_k2=fitted_k2, duration_s=duration_s)
        meas = measure_config_peak(cfg, seed + k * _SEED_STRIDE)
        points.append((length, meas.fit.fwhm_ps, meas.fit.fwhm_err_ps))
    return fit_linear(points), points


def reproduce_fig3(seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    src = SourceParams()
    duration = _scaled_duration(scale)
    lines = []
    ok = True
    results = {}

    for fiber, lengths, nominal_range, ref_slope, ref_k2, preset_k2 in (
        ("smf", presets.FIG3_SMF_KM, FIG3_SMF_SLOPE_RANGE, REFERENCE_SMF_SLOPE,
         presets.SMF_K2_FITTED_S2_PER_M, presets.SMF_K2_S2_PER_M),
        ("dcf", presets.FIG3_DCF_KM, FIG3_DCF_SLOPE_RANGE, REFERENCE_DCF_SLOPE,
         presets.DCF_K2_FITTED_S2_PER_M, presets.DCF_K2_S2_PER_M),
    ):
        fit_nom, _ = _sweep_slope(fiber, lengths, False, seed, duration)
        in_range = nominal_range[0] <= fit_nom.slope <= nominal_range[1]
        ok = ok and in_range
        lines.append(
            f"{fiber} nominal-k2 slope = {fit_nom.slope:.2f} +- {fit_nom.slope_err:.2f} ps/km "
            f"(target {nominal_range[0]:.1f}..{nominal_range[1]:.1f})"
        )
        # k'' is proportional to the slope, so it carries the slope's relative error
        k2_measured = dispersion_from_slope(fit_nom.slope, src)
        k2_measured_err = k2_measured * fit_nom.slope_err / fit_nom.slope
        lines.append(f"{fiber} k2 from nominal-k2 slope = {k2_measured:.4g} +- "
                     f"{k2_measured_err:.2g} s^2/m (preset {abs(preset_k2):.3g})")

        fit_fit, _ = _sweep_slope(fiber, lengths, True, seed + 7 * _SEED_STRIDE, duration)
        rel = abs(fit_fit.slope - ref_slope) / ref_slope
        ok = ok and rel <= 0.03
        lines.append(
            f"{fiber} fitted-k2 slope = {fit_fit.slope:.2f} ps/km "
            f"(reference {ref_slope}, deviation {100 * rel:.2f}%, require <= 3%)"
        )

        k2_inverted = dispersion_from_slope(ref_slope, src)
        rel_k2 = abs(k2_inverted - abs(ref_k2)) / abs(ref_k2)
        ok = ok and rel_k2 <= 0.01
        lines.append(
            f"{fiber} inverted k2 from reference slope = {k2_inverted:.4g} s^2/m "
            f"(reference {abs(ref_k2):.3g}, deviation {100 * rel_k2:.2f}%, require <= 1%)"
        )
        results[fiber] = (fit_nom, fit_fit, k2_inverted, k2_measured, k2_measured_err)

    return ReproduceReport(target="fig3", passed=ok, lines=lines, result=results)


TARGETS = {
    "fig2a": reproduce_fig2a,
    "fig2d": reproduce_fig2d,
    "fig3": reproduce_fig3,
    "wasak": reproduce_wasak,
    "classical": reproduce_classical,
}


def reproduce(target: str, seed: int = 0, scale: float = 1.0) -> ReproduceReport:
    if target not in TARGETS:
        raise ParameterError(f"unknown target {target!r}; choose from {sorted(TARGETS)}")
    return TARGETS[target](seed=seed, scale=scale)
