"""Monte-Carlo generation of photon-pair timestamp streams.

Pipeline: pair emission -> dispersive fiber propagation per arm -> detector
response -> event-timer digitization.  Every stage draws from its own
seed-derived RNG stream, so identical seeds give bit-identical output
regardless of how stages are combined.

Only pairs with at least one detectable photon are drawn.  Fiber loss and
detector efficiency remove each photon independently, so thinning the pair
Poisson process by them is the same in distribution as marking a Poisson
process of the surviving pairs with the arms they reach: both, signal only or
idler only.  Pairs lost in both arms are never generated.

Internal time unit is the femtosecond; spectral detunings are rad/ps and
accumulated dispersions ps**2, matching the analytic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TimestampRangeError, check_range
from .model import FWHM_PER_SIGMA, DispersionLeg, SourceParams
from .streams import FS_PER_PS, FS_PER_S, TagStream

INT64_MAX = np.iinfo(np.int64).max

CORRELATION_MODES = ("anti", "positive", "none")

# Bits of PairEvents.arms: the arms in which a pair's photon is detected.
SIGNAL = 1
IDLER = 2
BOTH = SIGNAL | IDLER

# Spawn keys for the per-stage RNG streams.
_STAGE_PAIRS = 0
_STAGE_DETECT_A = 3
_STAGE_DETECT_B = 4


def stage_rng(seed: int, stage: int) -> np.random.Generator:
    """Independent deterministic RNG stream for one pipeline stage."""
    check_range("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)))


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector response."""

    efficiency: float = 0.5
    jitter_fwhm_ps: float = 26.587
    dark_rate_hz: float = 100.0
    dead_time_ns: float = 40.0

    def __post_init__(self):
        check_range("efficiency", self.efficiency, 0, 1)
        for name in ("jitter_fwhm_ps", "dark_rate_hz", "dead_time_ns"):
            check_range(name, getattr(self, name), 0)

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
        check_range("resolution_fs", self.resolution_fs, 1, INT64_MAX)
        check_range("clock_offset_fs", self.clock_offset_fs, -INT64_MAX, INT64_MAX)
        check_range("site_id", self.site_id, 0, 2**32 - 1)  # the header's uint32 field


@dataclass(frozen=True)
class PairEvents:
    """A batch of photon-pair emissions with at least one detected photon.

    ``delta_t_fs`` is the intra-pair signal-minus-idler offset at the source;
    ``omega_signal`` / ``omega_idler`` are the spectral detunings (rad/ps)
    already correlated according to the correlation mode; ``arms`` holds the
    ``SIGNAL``/``IDLER`` bits of the arms in which the pair is detected.
    """

    emission_fs: np.ndarray
    delta_t_fs: np.ndarray
    omega_signal: np.ndarray
    omega_idler: np.ndarray
    arms: np.ndarray

    def __len__(self) -> int:
        return int(self.emission_fs.size)


def generate_pairs(
    src: SourceParams, mode: str, duration_s: float, seed: int,
    p_signal: float = 1.0, p_idler: float = 1.0,
) -> PairEvents:
    """Sample the pair emissions over ``duration_s`` seconds that are detected.

    ``p_signal`` / ``p_idler`` are the probabilities that a photon of each arm
    is detected (fiber survival times detector efficiency).  Emissions follow
    a Poisson process at ``src.pair_rate_hz * (1 - (1-p_s)(1-p_i))``, and each
    is detected in both arms, the signal arm only or the idler arm only with
    probabilities proportional to p_s*p_i, p_s(1-p_i) and (1-p_s)p_i.  The
    intra-pair time offset is Gaussian with std sqrt(gamma)*D*L and the
    signal detuning Gaussian with std ``src.effective_sigma_omega``.
    """
    check_range("duration_s", duration_s, 0)
    if mode not in CORRELATION_MODES:
        raise ParameterError(f"unknown correlation mode {mode!r}")
    for name, p in (("p_signal", p_signal), ("p_idler", p_idler)):
        check_range(name, p, 0, 1)
    duration_fs = duration_s * FS_PER_S
    if duration_fs >= INT64_MAX:
        raise TimestampRangeError("duration exceeds the int64 femtosecond range")

    rng = stage_rng(seed, _STAGE_PAIRS)
    q_both = p_signal * p_idler
    q_signal = p_signal * (1.0 - p_idler)
    q_any = 1.0 - (1.0 - p_signal) * (1.0 - p_idler)
    n = int(rng.poisson(src.pair_rate_hz * duration_s * q_any))
    emission = rng.uniform(0.0, duration_fs, n)
    emission.sort()
    emission = emission.astype(np.int64)
    u = rng.random(n)
    u *= q_any
    # IDLER, less 1 where the signal arm detects, plus 2 where both arms do
    arms = np.subtract(IDLER, u < q_both + q_signal, dtype=np.uint8)
    both = (u < q_both).view(np.uint8)
    arms += both
    arms += both
    delta_t = rng.normal(0.0, src.base_sigma_ps * FS_PER_PS, n)
    omega_s = rng.normal(0.0, src.effective_sigma_omega, n)
    if mode == "anti":
        omega_i = -omega_s
    elif mode == "positive":
        omega_i = omega_s.copy()
    else:
        omega_i = rng.normal(0.0, src.effective_sigma_omega, n)
    return PairEvents(emission, delta_t, omega_s, omega_i, arms)


def propagate(events: PairEvents, leg: DispersionLeg, which: str) -> np.ndarray:
    """Arrival times (fs, float64) of one arm's detected photons after a fiber leg.

    Only pairs detected in the arm contribute, in emission order.  The
    dispersive time shift is k''l * Omega for the photon's own detuning.
    ``events`` is left unchanged.
    """
    if which == "signal":
        half, bit, omega = +0.5, SIGNAL, events.omega_signal
    elif which == "idler":
        half, bit, omega = -0.5, IDLER, events.omega_idler
    else:
        raise ParameterError(f"which must be 'signal' or 'idler', got {which!r}")

    # ((emission + half * delta_t) + group delay) + (k''l * Omega) * 1e3, in
    # this order; a sum may swap its operands, which leaves its result as is.
    mine = np.flatnonzero((events.arms & bit) != 0)
    out = events.delta_t_fs.take(mine)
    out *= half
    scratch = events.emission_fs.take(mine)
    np.add(scratch, out, out=out)
    out += leg.group_delay_fs
    shift = scratch.view(np.float64)
    # take copies through a buffer in mode "raise"; mine has no index to clip
    np.take(omega, mine, out=shift, mode="clip")
    shift *= leg.k2l_ps2
    shift *= FS_PER_PS
    out += shift
    return out


def detect(
    arrivals_fs: np.ndarray, det: DetectorSpec, seed: int, stage: int, duration_s: float = 0.0
) -> np.ndarray:
    """Apply detector timing; returns sorted real-valued detection times (fs).

    Every arrival is a detected photon (efficiency is part of the pair
    marking in ``generate_pairs``).  Order of effects: Gaussian jitter, dark
    counts uniform over the acquisition window [0, duration_s), sort,
    dead-time pruning.  ``arrivals_fs`` is left unchanged.
    """
    rng = stage_rng(seed, stage)
    t = np.asarray(arrivals_fs, dtype=np.float64)
    if det.jitter_fwhm_ps > 0:
        jittered = rng.normal(0.0, det.jitter_sigma_fs, t.size)
        jittered += t
        t = jittered
    if det.dark_rate_hz > 0 and duration_s > 0:
        n_dark = int(rng.poisson(det.dark_rate_hz * duration_s))
        t = np.concatenate([t, rng.uniform(0.0, duration_s * FS_PER_S, n_dark)])
    if np.may_share_memory(t, arrivals_fs):
        t = t.copy()
    t.sort()
    if det.dead_time_ns > 0:
        t = _prune_dead_time(t, det.dead_time_ns * 1e6)
    return t


def _prune_dead_time(times: np.ndarray, dead_fs: float) -> np.ndarray:
    """Greedy dead-time filter: drop events within dead_fs of the last kept one.

    An event at least dead_fs after its predecessor is always kept, since the
    last kept event is no later than the predecessor.  So only the runs of
    events joined by shorter gaps need the sequential pass, and each run
    starts after a kept event.
    """
    close = np.flatnonzero(np.diff(times) < dead_fs) + 1
    if close.size == 0:
        return times
    keep = np.ones(times.size, dtype=bool)
    prev = -1
    for i, t, before in zip(close.tolist(), times[close].tolist(), times[close - 1].tolist()):
        if i != prev + 1:
            last = before
        if t - last < dead_fs:
            keep[i] = False
        else:
            last = t
        prev = i
    return times[keep]


def digitize(times_fs: np.ndarray, timer: TimerSpec, acquisition_span_fs: int) -> TagStream:
    """Quantize detection times onto the event-timer grid.

    Adds the clock offset, rounds half-up to the nearest resolution multiple
    and emits sorted integer tags; ties after rounding stay as duplicates.
    ``times_fs`` is left unchanged.
    """
    t = np.asarray(times_fs, dtype=np.float64)
    if not np.all(t[1:] >= t[:-1]):
        raise ParameterError("detection times must be sorted and not nan")
    ticks = t + float(timer.clock_offset_fs)  # sorted: the extremes are the ends
    if ticks.size and not np.max(np.abs(ticks[[0, -1]])) < INT64_MAX - timer.resolution_fs:
        raise TimestampRangeError("timestamp outside the int64 femtosecond range")
    ticks /= timer.resolution_fs
    ticks += 0.5
    np.floor(ticks, out=ticks)
    tags = ticks.astype(np.int64)
    tags *= timer.resolution_fs
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
    arrival = propagate(events, leg, which)
    stage = _STAGE_DETECT_A if which == "signal" else _STAGE_DETECT_B
    detected = detect(arrival, det, seed, stage, duration_s)
    return digitize(detected, timer, int(math.ceil(duration_s * FS_PER_S)))
