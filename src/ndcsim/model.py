"""Analytic model of dispersion-broadened photon-pair timing correlations.

All widths and variances are carried in picoseconds / ps**2; dispersion
products k''*l are carried in ps**2 (1 ps**2 = 1e-24 s**2).  Conversion from
SI units happens at configuration-parse time, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# FWHM of a unit-sigma Gaussian.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source: crystal geometry and spectral width.

    ``sigma_omega`` is the angular-frequency std of the signal detuning in
    rad/ps.  If None, it defaults to 1/(2*sqrt(gamma)*D*L) so that the
    Monte-Carlo time-difference variance reproduces the analytic dispersion
    term exactly.
    """

    crystal_length_cm: float = 1.0
    inverse_gvd_ps_per_cm: float = 2.96
    gamma: float = 0.04822
    pair_rate_hz: float = 24000.0
    sigma_omega: float | None = None

    def __post_init__(self):
        # Each chained comparison with math.inf fails for nan as well as for inf.
        if not 0 < self.crystal_length_cm < math.inf:
            raise ParameterError("crystal_length_cm must be > 0 and finite")
        if not 0 < self.inverse_gvd_ps_per_cm < math.inf:
            raise ParameterError("inverse_gvd_ps_per_cm must be > 0 and finite")
        if not 0 < self.gamma < math.inf:
            raise ParameterError("gamma must be > 0 and finite")
        if not 0 <= self.pair_rate_hz < math.inf:
            raise ParameterError("pair_rate_hz must be >= 0 and finite")
        if self.sigma_omega is not None and not 0 < self.sigma_omega < math.inf:
            raise ParameterError("sigma_omega must be > 0 and finite")

    @property
    def dl_ps(self) -> float:
        """D*L, the crystal walk-off time in ps."""
        return self.inverse_gvd_ps_per_cm * self.crystal_length_cm

    @property
    def base_variance_ps2(self) -> float:
        """gamma*D^2*L^2: time-difference variance with no dispersion."""
        return self.gamma * self.dl_ps**2

    @property
    def base_sigma_ps(self) -> float:
        """sqrt(gamma)*D*L: intrinsic pair time-difference std."""
        return math.sqrt(self.base_variance_ps2)

    @property
    def effective_sigma_omega(self) -> float:
        if self.sigma_omega is not None:
            return self.sigma_omega
        return 1.0 / (2.0 * self.base_sigma_ps)


@dataclass(frozen=True)
class DispersionLeg:
    """One dispersive fiber channel between source and detector."""

    k2_s2_per_m: float = 0.0
    length_km: float = 0.0
    attenuation_db_per_km: float = 0.2
    group_index: float = 1.468

    def __post_init__(self):
        if not math.isfinite(self.k2_s2_per_m):
            raise ParameterError("k2_s2_per_m must be finite")
        if not 0 <= self.length_km < math.inf:
            raise ParameterError("length_km must be >= 0 and finite")
        if not 0 <= self.attenuation_db_per_km < math.inf:
            raise ParameterError("attenuation_db_per_km must be >= 0 and finite")
        if not 1 <= self.group_index < math.inf:
            raise ParameterError("group_index must be >= 1 and finite")

    @property
    def k2l_ps2(self) -> float:
        """Accumulated dispersion k''*l in ps**2."""
        return self.k2_s2_per_m * self.length_km * 1e3 * 1e24

    @property
    def survival_probability(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_km / 10.0)

    @property
    def group_delay_fs(self) -> float:
        return self.length_km * 1e3 * self.group_index / SPEED_OF_LIGHT_M_PER_S * 1e15


@dataclass(frozen=True)
class WasakInputs:
    """Observed variances entering the Bell-like witness.

    ``var_before`` / ``var_after`` are the time-difference variances before
    and after dispersive propagation (ps**2), ``two_beta_l`` the average
    magnitude of the applied dispersions (ps**2).
    """

    var_before_ps2: float
    var_before_err_ps2: float
    var_after_ps2: float
    var_after_err_ps2: float
    two_beta_l_ps2: float

    def __post_init__(self):
        if self.var_before_ps2 <= 0 or self.var_after_ps2 <= 0:
            raise ParameterError("variances must be > 0")
        if self.var_before_err_ps2 < 0 or self.var_after_err_ps2 < 0:
            raise ParameterError("variance uncertainties must be >= 0")
        if self.two_beta_l_ps2 < 0:
            raise ParameterError("two_beta_l must be >= 0")


def source_variance_ps2(src: SourceParams, s: float, i: float, mode: str = "anti") -> float:
    """Pair time-difference variance (ps**2) after dispersion, before jitter.

    g + {(s+i)^2, (s-i)^2, s^2+i^2} * sigma_omega^2 for the anti, positive and
    uncorrelated frequency modes, with g = gamma*D^2*L^2 and s, i the signal
    and idler accumulated dispersions k''l in ps**2.  In the anti mode it is
    minimal exactly when the two dispersions cancel.
    """
    g = src.base_variance_ps2
    sw = src.effective_sigma_omega
    if mode == "anti":
        return g + (s + i) ** 2 * sw**2
    if mode == "positive":
        return g + (s - i) ** 2 * sw**2
    if mode == "none":
        return g + (s**2 + i**2) * sw**2
    raise ParameterError(f"unknown correlation mode {mode!r}")


def fwhm_from_sigma(sigma_ps: float) -> float:
    if sigma_ps <= 0:
        raise ParameterError("sigma must be > 0")
    return FWHM_PER_SIGMA * sigma_ps


def farfield_eta(src: SourceParams) -> float:
    """Slope factor eta = sqrt(2 ln2 / gamma) / (D*L), in 1/ps."""
    return math.sqrt(2.0 * math.log(2.0) / src.gamma) / src.dl_ps


def wasak_w(inputs: WasakInputs) -> float:
    """Normalized witness W = a*b / (a^2 + c^2).

    a = variance before, b = variance after, c = dispersion magnitude 2*beta*l.
    Classical sources satisfy W >= 1; W < 1 certifies entanglement.
    """
    a = inputs.var_before_ps2
    b = inputs.var_after_ps2
    c = inputs.two_beta_l_ps2
    return a * b / (a * a + c * c)


def wasak_w_uncertainty(inputs: WasakInputs) -> float:
    """First-order propagated 1-sigma uncertainty of the witness."""
    a = inputs.var_before_ps2
    b = inputs.var_after_ps2
    c = inputs.two_beta_l_ps2
    denom = a * a + c * c
    dw_db = a / denom
    dw_da = b * (c * c - a * a) / denom**2
    return math.hypot(dw_da * inputs.var_before_err_ps2, dw_db * inputs.var_after_err_ps2)


def dispersion_magnitude_2bl(disp_s_ps2: float, disp_i_ps2: float) -> float:
    """Average magnitude of the two applied dispersions (ps**2)."""
    return 0.5 * (abs(disp_s_ps2) + abs(disp_i_ps2))
