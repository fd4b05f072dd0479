"""Analytic model of dispersion-broadened photon-pair timing correlations.

All widths and variances are carried in picoseconds / ps**2; dispersion
products k''*l are carried in ps**2 (1 ps**2 = 1e-24 s**2).  Conversion from
SI units happens at configuration-parse time, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_range

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
        for name in ("crystal_length_cm", "inverse_gvd_ps_per_cm", "gamma"):
            check_range(name, getattr(self, name), 0, above=True)
        check_range("pair_rate_hz", self.pair_rate_hz, 0)
        if self.sigma_omega is not None:
            check_range("sigma_omega", self.sigma_omega, 0, above=True)

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
        check_range("k2_s2_per_m", self.k2_s2_per_m, -math.inf)
        for name in ("length_km", "attenuation_db_per_km"):
            check_range(name, getattr(self, name), 0)
        check_range("group_index", self.group_index, 1)

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
class Witness:
    """The Bell-like witness W = a*b / (a^2 + c^2) and the variances it is made of.

    a = ``var_before``, b = ``var_after``: the time-difference variances before
    and after dispersive propagation (ps**2); c = ``two_beta_l``, the average
    magnitude of the applied dispersions (ps**2).  Classical sources satisfy
    W >= 1; W < 1 certifies entanglement.
    """

    var_before_ps2: float
    var_before_err_ps2: float
    var_after_ps2: float
    var_after_err_ps2: float
    two_beta_l_ps2: float

    def __post_init__(self):
        for name in ("var_before_ps2", "var_after_ps2"):
            check_range(name, getattr(self, name), 0, above=True)
        for name in ("var_before_err_ps2", "var_after_err_ps2", "two_beta_l_ps2"):
            check_range(name, getattr(self, name), 0)

    @property
    def w(self) -> float:
        a, b, c = self.var_before_ps2, self.var_after_ps2, self.two_beta_l_ps2
        return a * b / (a * a + c * c)

    @property
    def w_err(self) -> float:
        """First-order propagated 1-sigma uncertainty of W."""
        a, b, c = self.var_before_ps2, self.var_after_ps2, self.two_beta_l_ps2
        denom = a * a + c * c
        dw_db = a / denom
        dw_da = b * (c * c - a * a) / denom**2
        return math.hypot(dw_da * self.var_before_err_ps2, dw_db * self.var_after_err_ps2)

    @property
    def violated(self) -> bool:
        return self.w < 1.0

    @property
    def violation_sigmas(self) -> float:
        """(1 - W) / W's error when W < 1 and the error is positive, else 0."""
        w_err = self.w_err
        return (1.0 - self.w) / w_err if (self.violated and w_err > 0) else 0.0


def source_variance_ps2(src: SourceParams, s: float, i: float, rho: float = -1.0) -> float:
    """Pair time-difference variance (ps**2) after dispersion, before jitter.

    g + ((s - rho*i)^2 + (1 - rho^2)*i^2) * sigma_omega^2, with g =
    gamma*D^2*L^2, s, i the signal and idler accumulated dispersions k''l in
    ps**2 and rho the correlation of the idler's detuning with the signal's:
    (s+i)^2, (s-i)^2 and s^2+i^2 at rho = -1, +1 and 0.  At rho = -1 it is
    minimal exactly when the two dispersions cancel.
    """
    spread = (s - rho * i) ** 2 + (1.0 - rho**2) * i**2
    return src.base_variance_ps2 + spread * src.effective_sigma_omega**2


def fwhm_from_sigma(sigma_ps: float) -> float:
    check_range("sigma_ps", sigma_ps, 0, above=True)
    return FWHM_PER_SIGMA * sigma_ps


def farfield_eta(src: SourceParams) -> float:
    """Slope factor eta = FWHM_PER_SIGMA * sigma_omega, in 1/ps: the far-field
    FWHM per unit of accumulated dispersion k''l (ps**2)."""
    return FWHM_PER_SIGMA * src.effective_sigma_omega


def dispersion_magnitude_2bl(disp_s_ps2: float, disp_i_ps2: float) -> float:
    """Average magnitude of the two applied dispersions (ps**2)."""
    return 0.5 * (abs(disp_s_ps2) + abs(disp_i_ps2))
