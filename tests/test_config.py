"""Configuration parsing tests."""

import dataclasses
import io

import pytest

from ndcsim.config import RunSpec, dump_config, parse_config
from ndcsim.errors import ConfigError, ParameterError, TimestampRangeError
from ndcsim.model import SourceParams
from ndcsim import presets

SAMPLE = """
[source]
pair_rate_hz = 24000
gamma = 0.04822
inverse_gvd_ps_per_cm = 2.96

[smf]
k2_s2_per_m = -2.26e-26
length_km = 62.0
attenuation_db_per_km = 0.2
group_index = 1.468

[dcf]
k2_s2_per_m = 1.95e-25
length_km = 7.47
attenuation_db_per_km = 0.5
group_index = 1.50

[detector_a]
efficiency = 0.5
jitter_fwhm_ps = 26.587

[detector_b]
efficiency = 0.5
jitter_fwhm_ps = 26.587

[timer_a]
site_id = 0

[timer_b]
site_id = 1
clock_offset_fs = 1000000

[run]
duration_s = 5.0
mode = anti
"""


class TestParse:
    def test_sample(self):
        cfg = parse_config(io.StringIO(SAMPLE))
        assert cfg.source.pair_rate_hz == 24000
        assert cfg.smf.length_km == 62.0
        assert cfg.dcf.k2_s2_per_m == 1.95e-25
        assert cfg.detector_a.efficiency == 0.5
        assert cfg.timer_b.clock_offset_fs == 1_000_000
        assert cfg.run.mode == -1.0

    @pytest.mark.parametrize("name, rho", [("anti", -1.0), ("positive", 1.0), ("none", 0.0)])
    def test_correlation_names(self, name, rho):
        # a name and its number parse to the same configuration
        named = parse_config(io.StringIO(SAMPLE.replace("mode = anti", f"mode = {name}")))
        number = parse_config(io.StringIO(SAMPLE.replace("mode = anti", f"mode = {rho!r}")))
        assert named.run.mode == rho
        assert named == number

    def test_defaults_applied(self):
        cfg = parse_config(io.StringIO(SAMPLE))
        assert cfg.source.crystal_length_cm == 1.0
        assert cfg.detector_a.dark_rate_hz == 100.0
        assert cfg.detector_a.dead_time_ns == 40.0
        assert cfg.timer_a.resolution_fs == 1000
        assert cfg.timer_a.clock_offset_fs == 0
        # sigma_omega falls back to the transform-limited value
        assert cfg.source.sigma_omega is None
        assert cfg.source.effective_sigma_omega == pytest.approx(0.7692, abs=1e-4)

    def test_missing_key_named(self):
        broken = SAMPLE.replace("efficiency = 0.5\njitter_fwhm_ps = 26.587\n\n[detector_b]",
                                "efficiency = 0.5\n\n[detector_b]", 1)
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "jitter_fwhm_ps" in str(err.value)
        assert "detector_a" in str(err.value)

    def test_missing_section_named(self):
        broken = SAMPLE.replace("[run]", "[walk]")
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "run" in str(err.value)

    def test_bad_number_named(self):
        broken = SAMPLE.replace("duration_s = 5.0", "duration_s = five")
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "duration_s" in str(err.value)
        assert "five" in str(err.value)
        broken = SAMPLE.replace("site_id = 0", "site_id = 1.5")
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "site_id" in str(err.value)
        assert "not an integer" in str(err.value)

    def test_unknown_key_named(self):
        broken = SAMPLE.replace("[detector_a]\n", "[detector_a]\ndark_rate = 0.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "dark_rate" in str(err.value)
        assert "detector_a" in str(err.value)

    def test_unknown_section_named(self):
        broken = SAMPLE + "\n[detectr_b]\nefficiency = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "detectr_b" in str(err.value)

    def test_bad_mode(self):
        # a correlation outside [-1, 1], nan or an unknown name
        for value, error in (("diagonal", ConfigError), ("1.5", ParameterError),
                             ("nan", ParameterError)):
            broken = SAMPLE.replace("mode = anti", f"mode = {value}")
            with pytest.raises(error, match="mode"):
                parse_config(io.StringIO(broken))

    def test_string_in_code_named(self):
        # A string where a number belongs names its field and value rather
        # than failing in a bare comparison.
        with pytest.raises(ParameterError, match="mode must be in \\[-1, 1\\], got 'positive'"):
            presets.fig2d_config(mode="positive")
        with pytest.raises(ParameterError, match="duration_s must be .* got '5'"):
            RunSpec(duration_s="5")

    @pytest.mark.parametrize("duration", ["9223.373", "1e5"])
    def test_duration_beyond_int64_rejected(self, duration):
        # Every duration, from a file or a preset, must end inside int64 fs.
        broken = SAMPLE.replace("duration_s = 5.0", f"duration_s = {duration}")
        with pytest.raises(TimestampRangeError, match="duration exceeds the int64"):
            parse_config(io.StringIO(broken))
        with pytest.raises(TimestampRangeError):
            presets.fig2d_config(duration_s=float(duration))
        longest = SAMPLE.replace("duration_s = 5.0", "duration_s = 9223.372")
        assert parse_config(io.StringIO(longest)).run.duration_s == 9223.372

    def test_parse_error_carries_line_number(self):
        broken = SAMPLE.replace("duration_s = 5.0", "duration_s")
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(broken))
        assert "line" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            presets.fig2a_config(),
            presets.fig2d_config(),
            presets.fig2d_config(mode=1.0),
            presets.fig2d_config(mode=0.0),
            presets.fig2d_config(mode=-0.5),
            presets.fig3_config("smf", 20.0),
            presets.fig3_config("dcf", 2.49, fitted_k2=True),
            dataclasses.replace(presets.fig2d_config(),
                                source=SourceParams(pair_rate_hz=5e5, sigma_omega=0.3)),
        ],
        ids=["fig2a", "fig2d", "fig2d-positive", "fig2d-none", "fig2d-rho", "fig3-smf",
             "fig3-dcf", "sigma-omega"],
    )
    def test_presets_survive_dump_parse(self, cfg):
        again = parse_config(io.StringIO(dump_config(cfg)))
        assert again == cfg

    def test_sigma_omega_file_key(self):
        text = SAMPLE.replace("[smf]", "sigma_omega_rad_per_ps = 0.3\n\n[smf]")
        cfg = parse_config(io.StringIO(text))
        assert cfg.source.sigma_omega == 0.3
        assert "sigma_omega_rad_per_ps = 0.3" in dump_config(cfg)
        assert cfg.manifest()["source"]["sigma_omega"] == 0.3

    def test_manifest_is_json_ready(self):
        import json

        cfg = parse_config(io.StringIO(SAMPLE))
        blob = json.dumps(cfg.manifest(), sort_keys=True)
        assert "pair_rate_hz" in blob
        assert json.loads(blob)["smf"]["length_km"] == 62.0
