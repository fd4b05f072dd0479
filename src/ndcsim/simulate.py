"""Monte-Carlo generation of photon-pair timestamp streams.

Pipeline: pair emission -> dispersive fiber propagation per arm -> detector
response -> event-timer digitization.  Every stage draws from its own
seed-derived RNG stream, so identical seeds give bit-identical output
regardless of how stages are combined.  A long acquisition is simulated in
blocks of emission time (``ArmChain``), each with its own streams.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, TimestampRangeError, check_range
from .model import FWHM_PER_SIGMA, IDLER_SIGN, DispersionLeg, SourceParams
from .streams import FS_PER_PS, FS_PER_S

INT64_MAX = np.iinfo(np.int64).max

CORRELATION_MODES = tuple(IDLER_SIGN)

# Bits of PairEvents.arms: the arms in which a pair's photon is detected.
SIGNAL = 1
IDLER = 2
BOTH = SIGNAL | IDLER

# Spawn keys for the per-stage RNG streams.
_STAGE_PAIRS = 0
_STAGE_DETECT_A = 3
_STAGE_DETECT_B = 4

# A detected photon lies within this many standard deviations of its Gaussian
# shift (half the pair offset, dispersion and jitter) from its emission plus
# the group delay: a normal draw beyond 20 sigma has probability below 1e-88.
_SHIFT_SIGMAS = 20

# Gaps the dead-time filter takes at once: a 64 KiB temporary.
_PRUNE_CHUNK = 2**13


def stage_rng(seed: int, stage: int, block: int = 0) -> np.random.Generator:
    """Independent deterministic RNG stream for one pipeline stage and time block.

    Block 0 draws from the stage's own stream, spawn key ``(stage,)``, so a
    one-block acquisition draws as an unblocked one; block k >= 1 draws from
    ``(stage, k)``.
    """
    check_range("seed", seed, 0)
    key = (stage, block) if block else (stage,)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def check_duration(duration_s: float) -> None:
    """An acquisition length must be >= 0 and end inside the int64 fs range."""
    check_range("duration_s", duration_s, 0)
    if duration_s * FS_PER_S >= INT64_MAX:
        raise TimestampRangeError("duration exceeds the int64 femtosecond range")


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
    ``omega_signal`` is the signal photon's spectral detuning (rad/ps) and
    ``idler_sign * idler_omega`` the idler's.  In modes ``anti`` and
    ``positive``, ``idler_omega`` is ``omega_signal`` itself, with sign -1 and
    +1; in mode ``none`` it is drawn on its own, with sign +1.  ``arms`` holds
    the ``SIGNAL``/``IDLER`` bits of the arms in which the pair is detected.
    """

    emission_fs: np.ndarray
    delta_t_fs: np.ndarray
    omega_signal: np.ndarray
    idler_omega: np.ndarray
    idler_sign: float
    arms: np.ndarray

    def __len__(self) -> int:
        return int(self.emission_fs.size)


def generate_pairs(
    src: SourceParams, mode: str, duration_s: float, seed: int,
    p_signal: float = 1.0, p_idler: float = 1.0, start_s: float = 0.0, block: int = 0,
) -> PairEvents:
    """Sample the detected pair emissions in [start_s, duration_s) seconds.

    ``p_signal`` / ``p_idler`` are the probabilities that a photon of each arm
    is detected (fiber survival times detector efficiency).  Emissions follow
    a Poisson process at ``src.pair_rate_hz * (1 - (1-p_s)(1-p_i))``, and each
    is detected in both arms, the signal arm only or the idler arm only with
    probabilities proportional to p_s*p_i, p_s(1-p_i) and (1-p_s)p_i.  The
    intra-pair time offset is Gaussian with std sqrt(gamma)*D*L and the
    signal detuning Gaussian with std ``src.effective_sigma_omega``.
    ``block`` picks the RNG stream (see ``stage_rng``).
    """
    check_duration(duration_s)
    check_range("start_s", start_s, 0, duration_s)
    if mode not in CORRELATION_MODES:
        raise ParameterError(f"unknown correlation mode {mode!r}")
    for name, p in (("p_signal", p_signal), ("p_idler", p_idler)):
        check_range(name, p, 0, 1)

    rng = stage_rng(seed, _STAGE_PAIRS, block)
    q_both = p_signal * p_idler
    q_signal = p_signal * (1.0 - p_idler)
    q_any = 1.0 - (1.0 - p_signal) * (1.0 - p_idler)
    n = int(rng.poisson(src.pair_rate_hz * (duration_s - start_s) * q_any))
    emission = rng.uniform(start_s * FS_PER_S, duration_s * FS_PER_S, n)
    emission.sort()
    emission = emission.astype(np.int64)
    u = rng.random(n)
    u *= q_any
    # IDLER, less 1 where the signal arm detects, plus 2 where both arms do
    arms = np.subtract(IDLER, u < q_both + q_signal, dtype=np.uint8)
    both = (u < q_both).view(np.uint8)
    arms += both
    arms += both
    del u, both  # before the normal draws
    delta_t = rng.normal(0.0, src.base_sigma_ps * FS_PER_PS, n)
    omega_s = rng.normal(0.0, src.effective_sigma_omega, n)
    sign = IDLER_SIGN[mode]
    idler = omega_s if sign else rng.normal(0.0, src.effective_sigma_omega, n)
    return PairEvents(emission, delta_t, omega_s, idler, sign or 1.0, arms)


def propagate(events: PairEvents, leg: DispersionLeg, which: str) -> np.ndarray:
    """Arrival times (fs, float64) of one arm's detected photons after a fiber leg.

    Only pairs detected in the arm contribute, in emission order.  The
    dispersive time shift is k''l * Omega for the photon's own detuning; for
    an idler that is ``idler_omega * (idler_sign * k''l)``, which equals
    ``(idler_sign * idler_omega) * k''l`` exactly, since the sign is +-1.
    ``events`` is left unchanged.
    """
    if which == "signal":
        half, bit, omega, k2l = +0.5, SIGNAL, events.omega_signal, leg.k2l_ps2
    elif which == "idler":
        half, bit, omega = -0.5, IDLER, events.idler_omega
        k2l = events.idler_sign * leg.k2l_ps2
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
    shift *= k2l
    shift *= FS_PER_PS
    out += shift
    return out


@dataclass
class Carry:
    """One arm's detection state between the time blocks of an acquisition.

    ``pending`` holds the sorted, unpruned detections at or after
    ``boundary_fs``, which a later block may still precede; ``final_fs`` is
    the latest detection already returned and ``last_kept_fs`` the latest one
    the dead-time filter kept.
    """

    boundary_fs: float = math.inf
    pending: np.ndarray = field(default_factory=lambda: np.empty(0))
    final_fs: float = -math.inf
    last_kept_fs: float = -math.inf


def detect(
    arrivals_fs: np.ndarray, det: DetectorSpec, seed: int, stage: int, duration_s: float = 0.0,
    start_s: float = 0.0, block: int = 0, carry: Carry | None = None,
) -> np.ndarray:
    """Apply detector timing; returns sorted real-valued detection times (fs).

    Every arrival is a detected photon (efficiency is part of the pair
    marking in ``generate_pairs``).  Order of effects: Gaussian jitter, dark
    counts uniform over the window [start_s, duration_s), sort, dead-time
    pruning.  ``block`` picks the RNG stream (see ``stage_rng``).  A
    ``carry`` joins its pending detections to the sort and takes back, unpruned,
    those at or after its boundary; the rest are pruned against its last kept
    detection.  A detection earlier than one a previous call returned raises
    ParameterError.  ``arrivals_fs`` is left unchanged.
    """
    rng = stage_rng(seed, stage, block)
    carry = Carry() if carry is None else carry
    t = np.asarray(arrivals_fs, dtype=np.float64)
    if det.jitter_fwhm_ps > 0:
        jittered = rng.normal(0.0, det.jitter_sigma_fs, t.size)
        jittered += t
        t = jittered
    parts = [carry.pending, t] if carry.pending.size else [t]
    if det.dark_rate_hz > 0 and duration_s > start_s:
        n_dark = int(rng.poisson(det.dark_rate_hz * (duration_s - start_s)))
        parts.append(rng.uniform(start_s * FS_PER_S, duration_s * FS_PER_S, n_dark))
    if len(parts) > 1:
        t = np.concatenate(parts)
    if np.may_share_memory(t, arrivals_fs):
        t = t.copy()
    # The arrivals come in emission order, nearly sorted: timsort merges their runs.
    t.sort(kind="stable")
    if t.size and t[0] < carry.final_fs:
        raise ParameterError(f"detection at {t[0]} fs precedes the finalized one at "
                             f"{carry.final_fs} fs: a photon's shift exceeds the block margin")
    cut = int(np.searchsorted(t, carry.boundary_fs))
    carry.pending = t[cut:].copy()
    t = t[:cut]
    if t.size:
        carry.final_fs = float(t[-1])
    if det.dead_time_ns > 0:
        t = _prune_dead_time(t, det.dead_time_ns * 1e6, carry.last_kept_fs)
    if t.size:
        carry.last_kept_fs = float(t[-1])
    return t


def _prune_dead_time(times: np.ndarray, dead_fs: float, last: float = -math.inf) -> np.ndarray:
    """Greedy dead-time filter, in place: drop events within dead_fs of the
    last kept one, which before ``times[0]`` is ``last``.  Returns the kept
    events, a prefix of ``times``.

    An event at least dead_fs after its predecessor (``last`` for the first)
    is always kept, since the last kept event is no later than the
    predecessor.  So only the runs of events joined by shorter gaps need the
    sequential pass, and each run starts after a kept event.  The gaps are
    taken _PRUNE_CHUNK at a time, and the kept events between two dropped
    ones move down in one copy.
    """
    close = [np.flatnonzero(np.diff(times[lo:lo + _PRUNE_CHUNK + 1]) < dead_fs) + (lo + 1)
             for lo in range(0, times.size - 1, _PRUNE_CHUNK)]
    if times.size and times[0] - last < dead_fs:
        close.insert(0, np.zeros(1, np.intp))
    close = np.concatenate(close) if close else np.empty(0, np.intp)
    dropped = []
    prev = -2
    for i, t in zip(close.tolist(), times[close].tolist()):
        if i != prev + 1:
            kept = float(times[i - 1]) if i else last
        if t - kept < dead_fs:
            dropped.append(i)
        else:
            kept = t
        prev = i
    if not dropped:
        return times
    end = dropped[0]
    for i, j in zip(dropped, dropped[1:] + [times.size]):
        # a forward copy within one array: numpy moves overlapping 1-d runs
        times[end:end + j - i - 1] = times[i + 1:j]
        end += j - i - 1
    return times[:end]


def digitize(times_fs: np.ndarray, timer: TimerSpec) -> np.ndarray:
    """Quantize detection times onto the event-timer grid; returns the int64 tags.

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
    return tags


class ArmChain:
    """One arm's chain, propagate -> detect -> digitize, fed one time block of
    pairs at a time.

    The next block's dark counts start at its first emission, and its photons
    arrive no earlier than that plus the group delay less _SHIFT_SIGMAS
    standard deviations of their shift.  Detections from that boundary on wait
    in the arm's ``Carry`` for the next block's sort, so the tags of every
    block, concatenated, are those of one sort, prune and digitization of
    all the blocks' detections.  The chain keeps no tags: ``add`` returns them.
    """

    def __init__(self, src: SourceParams, leg: DispersionLeg, which: str,
                 det: DetectorSpec, timer: TimerSpec, seed: int, duration_s: float):
        self.leg, self.which, self.det, self.timer, self.seed = leg, which, det, timer, seed
        self.duration_s = duration_s
        self.stage = _STAGE_DETECT_A if which == "signal" else _STAGE_DETECT_B
        shift_fs = (0.5 * src.base_sigma_ps * FS_PER_PS + det.jitter_sigma_fs
                    + abs(leg.k2l_ps2) * src.effective_sigma_omega * FS_PER_PS)
        self.lead_fs = min(0.0, leg.group_delay_fs - _SHIFT_SIGMAS * shift_fs)
        self.carry = Carry()

    def add(self, events: PairEvents, block: int, start_s: float, end_s: float) -> np.ndarray:
        """The tags of the block of emissions in [start_s, end_s); the last
        block, which ends at the duration, finalizes every detection."""
        last = end_s >= self.duration_s
        self.carry.boundary_fs = math.inf if last else end_s * FS_PER_S + self.lead_fs
        arrival = propagate(events, self.leg, self.which)
        detected = detect(arrival, self.det, self.seed, self.stage, end_s, start_s, block,
                          self.carry)
        return digitize(detected, self.timer)
