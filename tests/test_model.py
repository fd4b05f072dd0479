"""Analytic-model tests: frozen reference values and algebraic properties."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndcsim import model, presets
from ndcsim.analyze import dispersion_from_slope
from ndcsim.config import RunSpec
from ndcsim.correlate import Histogram, g2_normalize
from ndcsim.errors import ParameterError
from ndcsim.model import (
    DispersionLeg,
    SourceParams,
    Witness,
    fwhm_from_sigma,
    source_variance_ps2,
)
from ndcsim.simulate import DetectorSpec, TimerSpec

SRC = SourceParams()

# Measured variances of the violating configuration: (15.982 +- 0.150 ps)^2
# before and (45.676 +- 4.565 ps)^2 after dispersion, 2*beta*l = 1428.92 ps^2.
REFERENCE_INPUTS = Witness(
    var_before_ps2=15.982**2,
    var_before_err_ps2=2 * 15.982 * 0.150,
    var_after_ps2=45.676**2,
    var_after_err_ps2=2 * 45.676 * 4.565,
    two_beta_l_ps2=1428.92,
)

finite_pos = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def g2_sigma(s, i):
    """Std (ps) of the anticorrelated pair time difference at the default source."""
    return math.sqrt(source_variance_ps2(SRC, s, i))


class TestG2Sigma:
    def test_no_dispersion(self):
        # sqrt(0.04822) * 2.96 ps
        assert g2_sigma(0.0, 0.0) == pytest.approx(0.6500, abs=5e-5)

    def test_violating_configuration(self):
        # 62 km SMF / 7.47 km DCF, residual sum 55.45 ps^2
        assert g2_sigma(-1401.20, 1456.65) == pytest.approx(42.66, abs=0.01)

    @given(a=st.floats(-2e3, 2e3), b=st.floats(-2e3, 2e3))
    def test_symmetric_in_leg_order(self, a, b):
        assert g2_sigma(a, b) == g2_sigma(b, a)

    @given(s=st.floats(-2e3, 2e3), split=st.floats(0.0, 1.0))
    def test_depends_only_on_sum(self, s, split):
        assert g2_sigma(s * split, s * (1 - split)) == pytest.approx(
            g2_sigma(s, 0.0), rel=1e-12
        )

    @given(s=st.floats(1e-6, 2e3))
    def test_minimum_at_zero_sum(self, s):
        assert g2_sigma(s, 0.0) > g2_sigma(0.0, 0.0)
        assert g2_sigma(s, -s) == pytest.approx(SRC.base_sigma_ps)

    @given(s=st.floats(-2e3, 2e3), i=st.floats(-2e3, 2e3), rho=st.floats(-1.0, 1.0))
    def test_correlation_modes(self, s, i, rho):
        anti = source_variance_ps2(SRC, s, i, -1.0)
        positive = source_variance_ps2(SRC, s, i, 1.0)
        assert anti == source_variance_ps2(SRC, s, i)
        assert positive == source_variance_ps2(SRC, s, -i)
        # Uncorrelated frequencies average the two correlated cases, and the
        # variance is linear in the correlation between them.
        assert source_variance_ps2(SRC, s, i, 0.0) == pytest.approx(
            0.5 * (anti + positive), rel=1e-12
        )
        assert source_variance_ps2(SRC, s, i, rho) == pytest.approx(
            0.5 * ((1 - rho) * anti + (1 + rho) * positive), rel=1e-9, abs=1e-6
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            SourceParams(gamma=-1.0)
        with pytest.raises(ParameterError):
            SourceParams(inverse_gvd_ps_per_cm=0.0)
        with pytest.raises(ParameterError):
            SourceParams(crystal_length_cm=-2.0)
        for field in ("crystal_length_cm", "inverse_gvd_ps_per_cm", "gamma", "sigma_omega"):
            with pytest.raises(ParameterError):
                SourceParams(**{field: float("nan")})


def wasak_inputs(**fields):
    """The reference witness inputs with ``fields`` replaced."""
    return dataclasses.replace(REFERENCE_INPUTS, **fields)


def histogram(**fields):
    """A two-bin histogram with ``fields`` replaced."""
    return Histogram(**{"bin_width_ps": 1.0, "origin_ps": 0.0, "counts": [0, 1], **fields})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, field", [
    (SourceParams, "crystal_length_cm"),
    (SourceParams, "inverse_gvd_ps_per_cm"),
    (SourceParams, "gamma"),
    (SourceParams, "pair_rate_hz"),
    (SourceParams, "sigma_omega"),
    (DispersionLeg, "k2_s2_per_m"),
    (DispersionLeg, "length_km"),
    (DispersionLeg, "attenuation_db_per_km"),
    (DispersionLeg, "group_index"),
    (DetectorSpec, "efficiency"),
    (DetectorSpec, "jitter_fwhm_ps"),
    (DetectorSpec, "dark_rate_hz"),
    (DetectorSpec, "dead_time_ns"),
    (TimerSpec, "resolution_fs"),
    (TimerSpec, "clock_offset_fs"),
    (TimerSpec, "site_id"),
    (RunSpec, "duration_s"),
    (RunSpec, "mode"),
    (wasak_inputs, "var_before_ps2"),
    (wasak_inputs, "var_before_err_ps2"),
    (wasak_inputs, "var_after_ps2"),
    (wasak_inputs, "var_after_err_ps2"),
    (wasak_inputs, "two_beta_l_ps2"),
    (histogram, "bin_width_ps"),
])
def test_non_finite_parameter_rejected(make, field, value):
    with pytest.raises(ParameterError, match=field):
        make(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [
    (fwhm_from_sigma, "sigma_ps"),
    (lambda x: dispersion_from_slope(x, SRC), "slope_ps_per_km"),
    (lambda x: g2_normalize(histogram(), x, 1.0, 1.0), "rate_a_hz"),
    (lambda x: g2_normalize(histogram(), 1.0, x, 1.0), "rate_b_hz"),
    (lambda x: g2_normalize(histogram(), 1.0, 1.0, x), "duration_s"),
], ids=["fwhm_from_sigma", "dispersion_from_slope", "g2_normalize-rate_a_hz",
        "g2_normalize-rate_b_hz", "g2_normalize-duration_s"])
def test_non_finite_argument_rejected(call, name, value):
    with pytest.raises(ParameterError, match=name):
        call(value)


class TestFwhm:
    def test_jitter_floor_width(self):
        assert fwhm_from_sigma(15.967) == pytest.approx(37.6, abs=0.01)

    def test_violating_width(self):
        assert fwhm_from_sigma(42.66) == pytest.approx(100.46, abs=0.02)

    def test_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            fwhm_from_sigma(0.0)


class TestFarField:
    def test_eta_constant(self):
        assert model.farfield_eta(SRC) == pytest.approx(1.8114, abs=2e-4)

    # Far-field FWHM per km of fiber is eta * |k''l| with l = 1 km.
    def test_smf_per_km(self):
        assert model.farfield_eta(SRC) * 22.6 == pytest.approx(40.94, abs=0.01)

    def test_dcf_per_km(self):
        assert model.farfield_eta(SRC) * 195.0 == pytest.approx(353.2, abs=0.1)

    def test_fitted_smf_slope(self):
        # 1 km at the fitted k2 of 2.37e-26 s^2/m; reference slope 42.96 ps/km
        assert model.farfield_eta(SRC) * 23.7 == pytest.approx(42.96, rel=5e-3)

    @given(ratio=st.floats(20.0, 1e5))
    def test_matches_exact_width_in_far_field(self, ratio):
        k2l = ratio * SRC.base_variance_ps2
        exact = fwhm_from_sigma(g2_sigma(k2l, 0.0))
        assert model.farfield_eta(SRC) * k2l == pytest.approx(exact, rel=0.01)


class TestWasak:
    def test_reference_value(self):
        assert REFERENCE_INPUTS.w == pytest.approx(0.253, abs=1e-3)

    def test_reference_uncertainty(self):
        assert REFERENCE_INPUTS.w_err == pytest.approx(0.051, rel=0.05)

    def test_violation_significance(self):
        w = REFERENCE_INPUTS.w
        sig = (1 - w) / REFERENCE_INPUTS.w_err
        assert sig == pytest.approx(14.4, abs=0.5)

    def test_no_dispersion_no_broadening(self):
        inputs = Witness(100.0, 0.0, 100.0, 0.0, 0.0)
        assert inputs.w == pytest.approx(1.0)

    def test_algebraic_boundary(self):
        c = 17.3
        inputs = Witness(c, 0.0, 2 * c, 0.0, c)
        assert inputs.w == pytest.approx(1.0, rel=1e-12)

    def test_zero_errors_zero_uncertainty(self):
        inputs = Witness(100.0, 0.0, 300.0, 0.0, 50.0)
        assert inputs.w_err == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParameterError):
            Witness(-1.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            Witness(1.0, 0.0, 1.0, 0.0, -1.0)
        with pytest.raises(ParameterError):
            Witness(1.0, -0.5, 1.0, 0.0, 1.0)

    @given(a=finite_pos, b=finite_pos, c=st.floats(0.0, 1e6))
    def test_violation_iff_below_classical_bound(self, a, b, c):
        inputs = Witness(a, 0.0, b, 0.0, c)
        assert (inputs.w < 1.0) == (b < a + c * c / a)

    @given(a=finite_pos, b=finite_pos, c=st.floats(0.0, 1e6), lam=st.floats(1e-3, 1e3))
    def test_scaling_invariance(self, a, b, c, lam):
        w1 = Witness(a, 0.0, b, 0.0, c).w
        w2 = Witness(lam * a, 0.0, lam * b, 0.0, lam * c).w
        assert w2 == pytest.approx(w1, rel=1e-9)

    @settings(max_examples=50)
    @given(
        a=st.floats(10.0, 1e4),
        b=st.floats(10.0, 1e4),
        c=st.floats(0.0, 1e4),
        ea=st.floats(0.1, 10.0),
        eb=st.floats(0.1, 10.0),
    )
    def test_uncertainty_matches_finite_differences(self, a, b, c, ea, eb):
        inputs = Witness(a, ea, b, eb, c)
        analytic = inputs.w_err

        def w_of(aa, bb):
            return Witness(aa, 0.0, bb, 0.0, c).w

        ha = a * 1e-6
        hb = b * 1e-6
        dw_da = (w_of(a + ha, b) - w_of(a - ha, b)) / (2 * ha)
        dw_db = (w_of(a, b + hb) - w_of(a, b - hb)) / (2 * hb)
        numeric = math.hypot(dw_da * ea, dw_db * eb)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-12)


class TestClassicalBound:
    def test_violating_configuration_bound(self):
        # W = 1 where var_after = a + c^2/a: 8250 ps^2 = (90.8 ps)^2 at the
        # violating geometry, far above the measured 2086 ps^2.
        a, c = 255.4, 1428.92
        bound = a + c * c / a
        assert bound == pytest.approx(8250.0, abs=1.0)
        assert math.sqrt(bound) == pytest.approx(90.8, abs=0.1)
        assert Witness(a, 0.0, bound, 0.0, c).w == pytest.approx(1.0, rel=1e-12)
        assert Witness(a, 0.0, 2086.0, 0.0, c).w < 1.0

    def test_witness_threshold(self):
        # W at the fig2a/fig2d presets as the idler's detuning decorrelates:
        # it crosses the classical bound 1 at rho* = -0.997443.
        before = presets.predicted_pair_variance_ps2(presets.fig2a_config())

        def w(rho):
            after = presets.predicted_pair_variance_ps2(presets.fig2d_config(mode=rho))
            return Witness(before, 0.0, after, 0.0, presets.wasak_two_beta_l_ps2()).w

        for rho, expected in ((-1.0, 0.2515), (-0.999, 0.5442), (-0.998, 0.8370),
                              (-0.997, 1.1298)):
            assert w(rho) == pytest.approx(expected, abs=1e-4), rho
        assert w(-0.997444) < 1.0 < w(-0.997443)

    def test_no_dispersion(self):
        # With c = 0 the bound is var_after = var_before.
        assert Witness(42.0, 0.0, 42.0, 0.0, 0.0).w == pytest.approx(1.0, rel=1e-12)
        assert Witness(42.0, 0.0, 41.9, 0.0, 0.0).w < 1.0

    def test_equal_terms(self):
        # a = c = 7 gives the bound a + c^2/a = 14.
        assert Witness(7.0, 0.0, 14.0, 0.0, 7.0).w == pytest.approx(1.0, rel=1e-12)
        assert Witness(7.0, 0.0, 13.9, 0.0, 7.0).w < 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ParameterError):
            Witness(0.0, 0.0, 1.0, 0.0, 1.0)


class TestDispersionLeg:
    def test_accumulated_dispersion(self):
        smf = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0)
        dcf = DispersionLeg(k2_s2_per_m=1.95e-25, length_km=7.47, attenuation_db_per_km=0.5)
        assert smf.k2l_ps2 == pytest.approx(-1401.2, abs=0.05)
        assert dcf.k2l_ps2 == pytest.approx(1456.65, abs=0.05)
        assert model.dispersion_magnitude_2bl(smf.k2l_ps2, dcf.k2l_ps2) == pytest.approx(
            1428.92, abs=0.5
        )

    def test_survival(self):
        smf = DispersionLeg(k2_s2_per_m=-2.26e-26, length_km=62.0, attenuation_db_per_km=0.2)
        assert smf.survival_probability == pytest.approx(10 ** (-1.24), rel=1e-9)

    def test_invalid_rejected(self):
        with pytest.raises(ParameterError):
            DispersionLeg(length_km=-1.0)
        with pytest.raises(ParameterError):
            DispersionLeg(group_index=0.5)
