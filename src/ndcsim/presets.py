"""Preset experiment configurations mirroring the reference apparatus.

Fiber dispersion coefficients, detector efficiency and the 12 kHz / 5 s
acquisition are the published apparatus values; attenuations, group indices,
dark rate, dead time and timer resolution are standard telecom/SNSPD values
chosen here.  The pair rate of each preset is tuned (with extra balancing
loss on the less lossy arm, as in the experiment) so that both detected
streams run at the target tag rate.
"""

from __future__ import annotations

import math

from .config import ExperimentConfig, RunSpec
from .model import DispersionLeg, SourceParams, dispersion_magnitude_2bl
from .simulate import DetectorSpec, TimerSpec
from . import model

SMF_K2_S2_PER_M = -2.26e-26
DCF_K2_S2_PER_M = 1.95e-25
# Dispersion coefficients recovered from the measured width-vs-length slopes.
SMF_K2_FITTED_S2_PER_M = -2.37e-26
DCF_K2_FITTED_S2_PER_M = 1.99e-25

SMF_ATTENUATION_DB_PER_KM = 0.2
DCF_ATTENUATION_DB_PER_KM = 0.5
SMF_GROUP_INDEX = 1.468
DCF_GROUP_INDEX = 1.50

FIG2D_SMF_KM = 62.0
FIG2D_DCF_KM = 7.47
FIG3_SMF_KM = (10.0, 20.0, 62.0)
FIG3_DCF_KM = (1.245, 2.49, 7.47)

TARGET_TAG_RATE_HZ = 12_000.0
ACQUISITION_S = 5.0

DETECTOR_EFFICIENCY = 0.5
# Per-detector jitter; the pair-difference FWHM is sqrt(2) times this (37.6 ps).
DETECTOR_JITTER_FWHM_PS = 37.6 / math.sqrt(2.0)
DARK_RATE_HZ = 100.0
DEAD_TIME_NS = 40.0
TIMER_RESOLUTION_FS = 1000


def _smf(length_km: float, k2: float = SMF_K2_S2_PER_M) -> DispersionLeg:
    return DispersionLeg(
        k2_s2_per_m=k2,
        length_km=length_km,
        attenuation_db_per_km=SMF_ATTENUATION_DB_PER_KM,
        group_index=SMF_GROUP_INDEX,
    )


def _dcf(length_km: float, k2: float = DCF_K2_S2_PER_M) -> DispersionLeg:
    return DispersionLeg(
        k2_s2_per_m=k2,
        length_km=length_km,
        attenuation_db_per_km=DCF_ATTENUATION_DB_PER_KM,
        group_index=DCF_GROUP_INDEX,
    )


def preset_config(
    smf: DispersionLeg,
    dcf: DispersionLeg,
    mode: float = -1.0,
    duration_s: float = ACQUISITION_S,
) -> ExperimentConfig:
    """Build a configuration with both arms balanced to the target tag rate."""
    p_a = DETECTOR_EFFICIENCY * smf.survival_probability
    p_b = DETECTOR_EFFICIENCY * dcf.survival_probability
    p_min = min(p_a, p_b)
    pair_rate = TARGET_TAG_RATE_HZ / p_min
    eff_a = DETECTOR_EFFICIENCY * p_min / p_a
    eff_b = DETECTOR_EFFICIENCY * p_min / p_b
    source = SourceParams(pair_rate_hz=pair_rate)
    det = dict(jitter_fwhm_ps=DETECTOR_JITTER_FWHM_PS, dark_rate_hz=DARK_RATE_HZ,
               dead_time_ns=DEAD_TIME_NS)
    return ExperimentConfig(
        source=source,
        smf=smf,
        dcf=dcf,
        detector_a=DetectorSpec(efficiency=eff_a, **det),
        detector_b=DetectorSpec(efficiency=eff_b, **det),
        timer_a=TimerSpec(resolution_fs=TIMER_RESOLUTION_FS, clock_offset_fs=0, site_id=0),
        timer_b=TimerSpec(resolution_fs=TIMER_RESOLUTION_FS, clock_offset_fs=0, site_id=1),
        run=RunSpec(duration_s=duration_s, mode=mode),
    )


def fig2a_config(duration_s: float = ACQUISITION_S) -> ExperimentConfig:
    """No long fibers: measures the detector-pair jitter floor."""
    return preset_config(_smf(0.0), _dcf(0.0), duration_s=duration_s)


def fig2d_config(mode: float = -1.0, duration_s: float = ACQUISITION_S) -> ExperimentConfig:
    """62 km SMF / 7.47 km DCF, the inequality-violating configuration."""
    return preset_config(_smf(FIG2D_SMF_KM), _dcf(FIG2D_DCF_KM), mode=mode, duration_s=duration_s)


def fig3_config(fiber: str, length_km: float, fitted_k2: bool = False,
                duration_s: float = ACQUISITION_S) -> ExperimentConfig:
    """Single-arm sweep point: one fiber in one arm, nothing in the other."""
    if fiber == "smf":
        k2 = SMF_K2_FITTED_S2_PER_M if fitted_k2 else SMF_K2_S2_PER_M
        return preset_config(_smf(length_km, k2), _dcf(0.0), duration_s=duration_s)
    if fiber == "dcf":
        k2 = DCF_K2_FITTED_S2_PER_M if fitted_k2 else DCF_K2_S2_PER_M
        return preset_config(_smf(0.0), _dcf(length_km, k2), duration_s=duration_s)
    raise ValueError(f"fiber must be 'smf' or 'dcf', got {fiber!r}")


def wasak_two_beta_l_ps2(cfg: ExperimentConfig | None = None) -> float:
    """Average dispersion magnitude of the (default) violating configuration."""
    if cfg is None:
        cfg = fig2d_config()
    return dispersion_magnitude_2bl(cfg.smf.k2l_ps2, cfg.dcf.k2l_ps2)


def predicted_pair_variance_ps2(cfg: ExperimentConfig) -> float:
    """Analytic observed time-difference variance for a configuration (ps**2).

    Holds at any detuning correlation and includes the detector jitter of
    both arms in quadrature.
    """
    var_source = model.source_variance_ps2(
        cfg.source, cfg.smf.k2l_ps2, cfg.dcf.k2l_ps2, cfg.run.mode
    )
    jitter = (cfg.detector_a.jitter_sigma_fs**2 + cfg.detector_b.jitter_sigma_fs**2) / 1e6
    return var_source + jitter

