"""Monte-Carlo generation of photon-pair timestamp streams.

Pipeline: pair emission -> dispersive fiber propagation per arm -> detector
response -> event-timer digitization.  Every stage draws from its own
seed-derived RNG stream, so identical seeds give bit-identical output
regardless of how stages are combined.

Internal time unit is the femtosecond; spectral detunings are rad/ps and
accumulated dispersions ps**2, matching the analytic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TimestampRangeError
from .model import FWHM_PER_SIGMA, DispersionLeg, SourceParams
from .streams import TagStream

FS_PER_PS = 1e3
FS_PER_S = 1e15
INT64_MAX = np.iinfo(np.int64).max

CORRELATION_MODES = ("anti", "positive", "none")

# Spawn keys for the per-stage RNG streams.
_STAGE_PAIRS = 0
_STAGE_PROPAGATE_SIGNAL = 1
_STAGE_PROPAGATE_IDLER = 2
_STAGE_DETECT_A = 3
_STAGE_DETECT_B = 4


def stage_rng(seed: int, stage: int) -> np.random.Generator:
    """Independent deterministic RNG stream for one pipeline stage."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)))


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector response."""

    efficiency: float = 0.5
    jitter_fwhm_ps: float = 26.587
    dark_rate_hz: float = 100.0
    dead_time_ns: float = 40.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ParameterError("efficiency must be in [0, 1]")
        if self.jitter_fwhm_ps < 0 or self.dark_rate_hz < 0 or self.dead_time_ns < 0:
            raise ParameterError("jitter, dark rate and dead time must be >= 0")

    @property
    def jitter_sigma_fs(self) -> float:
        return self.jitter_fwhm_ps / FWHM_PER_SIGMA * FS_PER_PS


@dataclass(frozen=True)
class TimerSpec:
    """Event-timer digitization: tick size and clock offset."""

    resolution_fs: int = 1000
    clock_offset_fs: int = 0
    site_id: int = 0

    def __post_init__(self):
        if self.resolution_fs <= 0:
            raise ParameterError("resolution_fs must be > 0")


@dataclass(frozen=True)
class PairEvents:
    """A batch of photon-pair emissions.

    ``delta_t_fs`` is the intra-pair signal-minus-idler offset at the source;
    ``omega_signal`` / ``omega_idler`` are the spectral detunings (rad/ps)
    already correlated according to the correlation mode.
    """

    emission_fs: np.ndarray
    delta_t_fs: np.ndarray
    omega_signal: np.ndarray
    omega_idler: np.ndarray

    def __len__(self) -> int:
        return int(self.emission_fs.size)


def generate_pairs(
    src: SourceParams, mode: str, duration_s: float, seed: int
) -> PairEvents:
    """Sample pair emissions over ``duration_s`` seconds.

    Emission times follow a Poisson process at ``src.pair_rate_hz``; the
    intra-pair time offset is Gaussian with std sqrt(gamma)*D*L and the
    signal detuning Gaussian with std ``src.effective_sigma_omega``.
    """
    if duration_s < 0:
        raise ParameterError("duration must be >= 0")
    if mode not in CORRELATION_MODES:
        raise ParameterError(f"unknown correlation mode {mode!r}")
    duration_fs = duration_s * FS_PER_S
    if duration_fs >= INT64_MAX:
        raise TimestampRangeError("duration exceeds the int64 femtosecond range")

    rng = stage_rng(seed, _STAGE_PAIRS)
    n = int(rng.poisson(src.pair_rate_hz * duration_s)) if duration_s > 0 else 0
    emission = np.sort(rng.uniform(0.0, duration_fs, n)).astype(np.int64)
    delta_t = rng.normal(0.0, src.base_sigma_ps * FS_PER_PS, n)
    omega_s = rng.normal(0.0, src.effective_sigma_omega, n)
    if mode == "anti":
        omega_i = -omega_s
    elif mode == "positive":
        omega_i = omega_s.copy()
    else:
        omega_i = rng.normal(0.0, src.effective_sigma_omega, n)
    return PairEvents(emission, delta_t, omega_s, omega_i)


def propagate(
    events: PairEvents, leg: DispersionLeg, which: str, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one arm through a fiber leg.

    Returns (arrival times in fs, float64) and (survival flags, bool).  The
    dispersive time shift is k''l * Omega for the photon's own detuning; loss
    is Bernoulli per photon at the Beer-Lambert survival probability.
    """
    if which == "signal":
        half = +0.5
        omega = events.omega_signal
        stage = _STAGE_PROPAGATE_SIGNAL
    elif which == "idler":
        half = -0.5
        omega = events.omega_idler
        stage = _STAGE_PROPAGATE_IDLER
    else:
        raise ParameterError(f"which must be 'signal' or 'idler', got {which!r}")

    arrival = (
        events.emission_fs.astype(np.float64)
        + half * events.delta_t_fs
        + leg.group_delay_fs
        + leg.k2l_ps2 * omega * FS_PER_PS
    )
    rng = stage_rng(seed, stage)
    p = leg.survival_probability
    if p >= 1.0:
        survive = np.ones(len(events), dtype=bool)
    else:
        survive = rng.random(len(events)) < p
    return arrival, survive


def detect(arrivals_fs: np.ndarray, det: DetectorSpec, seed: int, stage: int) -> np.ndarray:
    """Apply detector response; returns sorted real-valued detection times (fs).

    Order of effects: efficiency thinning, Gaussian jitter, dark counts over
    the arrival span, sort, dead-time pruning.
    """
    rng = stage_rng(seed, stage)
    t = np.asarray(arrivals_fs, dtype=np.float64)
    if det.efficiency < 1.0:
        t = t[rng.random(t.size) < det.efficiency]
    if det.jitter_fwhm_ps > 0:
        t = t + rng.normal(0.0, det.jitter_sigma_fs, t.size)
    if det.dark_rate_hz > 0 and t.size >= 2:
        lo, hi = float(t.min()), float(t.max())
        span_s = (hi - lo) / FS_PER_S
        n_dark = int(rng.poisson(det.dark_rate_hz * span_s))
        t = np.concatenate([t, rng.uniform(lo, hi, n_dark)])
    t = np.sort(t)
    if det.dead_time_ns > 0:
        t = _prune_dead_time(t, det.dead_time_ns * 1e6)
    return t


def _prune_dead_time(times: np.ndarray, dead_fs: float) -> np.ndarray:
    """Greedy dead-time filter: drop events within dead_fs of the last kept one."""
    if times.size == 0:
        return times
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_fs:
            keep[i] = False
        else:
            last = times[i]
    return times[keep]


def digitize(times_fs: np.ndarray, timer: TimerSpec, acquisition_span_fs: int) -> TagStream:
    """Quantize detection times onto the event-timer grid.

    Adds the clock offset, rounds half-up to the nearest resolution multiple
    and emits sorted integer tags; ties after rounding stay as duplicates.
    """
    t = np.asarray(times_fs, dtype=np.float64)
    if t.size > 1 and np.any(np.diff(t) < 0):
        raise ParameterError("detection times must be sorted")
    shifted = t + float(timer.clock_offset_fs)
    if shifted.size and np.max(np.abs(shifted)) >= INT64_MAX - timer.resolution_fs:
        raise TimestampRangeError("timestamp outside the int64 femtosecond range")
    ticks = np.floor(shifted / timer.resolution_fs + 0.5).astype(np.int64)
    tags = ticks * timer.resolution_fs
    span = int(max(acquisition_span_fs, tags[-1] if tags.size else 0))
    return TagStream(
        tags=tags,
        resolution_fs=timer.resolution_fs,
        site_id=timer.site_id,
        acquisition_span_fs=span,
    )


def simulate_arm(
    events: PairEvents,
    leg: DispersionLeg,
    which: str,
    det: DetectorSpec,
    timer: TimerSpec,
    duration_s: float,
    seed: int,
) -> TagStream:
    """Full chain for one arm: propagate, detect, digitize."""
    arrival, survive = propagate(events, leg, which, seed)
    stage = _STAGE_DETECT_A if which == "signal" else _STAGE_DETECT_B
    detected = detect(arrival[survive], det, seed, stage)
    return digitize(detected, timer, int(math.ceil(duration_s * FS_PER_S)))
