"""Experiment configuration: dataclass bundle plus the key=value file format.

File format is line-oriented ``key = value`` under one section per field of
``ExperimentConfig``; the keys are the field names of that section's
dataclass, a missing optional key takes the dataclass default, and any other
key or section is an error.  Lengths are in km, k2 in s^2/m, rates in Hz;
everything is converted to internal units (fs, ps^2) at parse time.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import typing
from dataclasses import dataclass

from .errors import ConfigError, TimestampRangeError, check_range
from .model import DispersionLeg, SourceParams
from .simulate import INT64_MAX, DetectorSpec, TimerSpec
from .streams import FS_PER_S


# Names a file may give ``mode``, the correlation of the idler's detuning.
CORRELATION_NAMES = {"anti": -1.0, "positive": 1.0, "none": 0.0}


@dataclass(frozen=True)
class RunSpec:
    duration_s: float = 5.0
    mode: float = -1.0

    def __post_init__(self):
        check_range("duration_s", self.duration_s, 0)
        # Every run's duration passes here; its whole fs must fit int64.
        if self.duration_s * FS_PER_S > INT64_MAX:
            raise TimestampRangeError("duration exceeds the int64 femtosecond range")
        check_range("mode", self.mode, -1, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceParams
    smf: DispersionLeg
    dcf: DispersionLeg
    detector_a: DetectorSpec
    detector_b: DetectorSpec
    timer_a: TimerSpec
    timer_b: TimerSpec
    run: RunSpec

    def manifest(self) -> dict:
        """JSON-ready dictionary of every resolved parameter."""
        return dataclasses.asdict(self)


# Keys a file must give; every other key falls back to its dataclass default.
_REQUIRED_KEYS = frozenset(
    {"pair_rate_hz", "length_km", "efficiency", "jitter_fwhm_ps", "site_id", "duration_s"}
)
# Field name -> file key, where the two differ.
_FILE_KEYS = {"sigma_omega": "sigma_omega_rad_per_ps"}


def _convert(section: str, key: str, kind, raw: str):
    if key == "mode" and raw in CORRELATION_NAMES:
        return CORRELATION_NAMES[raw]
    number, what = (int, "an integer") if kind is int else (float, "a number")
    try:
        return number(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{section}]: not {what}: {raw!r}") from exc


def _parse_section(parser: configparser.ConfigParser, name: str, cls):
    if not parser.has_section(name):
        raise ConfigError(f"missing section [{name}]")
    sec = parser[name]
    kinds = {_FILE_KEYS.get(f, f): (f, kind) for f, kind in typing.get_type_hints(cls).items()}
    values = {}
    for key, (field, kind) in kinds.items():
        if key in sec:
            values[field] = _convert(name, key, kind, sec[key])
        elif field in _REQUIRED_KEYS:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
    for key in sec:
        if key not in kinds:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
    return cls(**values)


def parse_config(source) -> ExperimentConfig:
    """Parse a configuration; ``source`` is a path or a text file object."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source) as f:
                parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser messages carry the offending line numbers.
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = typing.get_type_hints(ExperimentConfig)
    values = {name: _parse_section(parser, name, cls) for name, cls in sections.items()}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
    return ExperimentConfig(**values)


def dump_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the key = value file format."""
    parser = configparser.ConfigParser()
    for section in dataclasses.fields(cfg):
        obj = getattr(cfg, section.name)
        parser[section.name] = {
            _FILE_KEYS.get(f.name, f.name): repr(value)
            for f in dataclasses.fields(obj)
            if (value := getattr(obj, f.name)) is not None
        }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
