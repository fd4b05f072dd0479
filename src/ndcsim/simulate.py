"""Monte-Carlo generation of photon-pair timestamp streams.

Pipeline: pair emission -> dispersive fiber propagation per arm -> detector
response -> event-timer digitization.  Every stage draws from its own
seed-derived RNG stream, so identical seeds give bit-identical output
regardless of how stages are combined.  A long acquisition is simulated in
blocks of emission time, each with its own streams: the whole-fs ``Window``s
that ``pipeline.simulate_blocks`` cuts once from the run's span and every
stage takes as given, joined across blocks by ``ArmChain``.  Pair generation
and propagation depend on no other block, so a block can be drawn while the
one before is detected: in block order, as detection carries state.

Only pairs with at least one detected photon are drawn.  Fiber loss and
detector efficiency remove each photon independently, so thinning the pair
Poisson process by them splits it into three independent Poisson processes:
pairs seen in both arms, in the signal arm only and in the idler arm only.
Pairs lost in both arms are never generated.

A photon lands at its emission plus its fiber's group delay plus a Gaussian
shift: half the pair's offset, its fiber's dispersion acting on its detuning,
and its detector's jitter, all independent Gaussians.  So each detected
photon takes one standard normal draw (``generate_pairs``), which
``arm_shifts`` scales to its shift: a photon seen alone to its arm's
marginal, and the two photons of a pair seen in both arms to one correlated
bivariate normal.

Time is int64 femtoseconds from emission to tag.  Emissions and dark counts
are drawn as integers, and each photon's continuous shift is rounded once,
half-up, to a whole fs, which adds 1/12 fs**2 (about 1e-7 ps**2) to its
variance; the sort, dead time and digitization are then exact at any
acquisition length.  Spectral detunings are rad/ps and accumulated
dispersions ps**2, matching the analytic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, TimestampRangeError, check_range
from .model import FWHM_PER_SIGMA, DispersionLeg, SourceParams
from .streams import FS_PER_PS, FS_PER_S

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

# Spawn keys for the per-stage RNG streams.
_STAGE_PAIRS = 0
_STAGE_DETECT_A = 3
_STAGE_DETECT_B = 4

# A detected photon lies within this many standard deviations of its Gaussian
# shift from its emission plus the group delay: a normal draw beyond 20 sigma
# has probability below 1e-88.
_SHIFT_SIGMAS = 20


def stage_rng(seed: int, stage: int, block: int = 0) -> np.random.Generator:
    """Independent deterministic RNG stream for one pipeline stage and time block.

    Block 0 draws from the stage's own stream, spawn key ``(stage,)``, so a
    one-block acquisition draws as an unblocked one; block k >= 1 draws from
    ``(stage, k)``.
    """
    check_range("seed", seed, 0)
    key = (stage, block) if block else (stage,)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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
class ArmShift:
    """Where one arm's detected photons land, relative to their emission (fs).

    ``arm`` is 0 for the signal and 1 for the idler.  A photon lands
    ``delay_fs`` (its fiber's group delay) plus a Gaussian shift after its
    emission.  Seen alone, its shift is ``sigma_fs`` times one standard
    normal; seen with its twin, it is ``both[0] * z0 + both[1] * z1`` with the
    pair's two standard normals, ``both`` being the arm's row of the Cholesky
    factor of the two photons' covariance.
    """

    arm: int
    delay_fs: float
    sigma_fs: float
    both: tuple[float, float]


def arm_shifts(src: SourceParams, rho: float, legs: tuple[DispersionLeg, DispersionLeg],
               dets: tuple[DetectorSpec, DetectorSpec]) -> tuple[ArmShift, ArmShift]:
    """The signal and idler arms' shifts, from the physical parameters alone.

    A photon's shift is +-dt/2 (+ for the signal) for the pair offset dt, of
    variance sigma_t^2 = gamma D^2 L^2; plus k''l * Omega for its fiber's
    accumulated dispersion and its detuning Omega, of std sigma_omega; plus
    its detector's jitter.  These are independent Gaussians, so a photon's
    shift has variance sigma_t^2/4 + (k''l sigma_omega)^2 + sigma_J^2.  The
    idler's detuning has correlation rho with the signal's, so a pair's two
    shifts covary by -sigma_t^2/4 + rho k''l_a k''l_b sigma_omega^2.  The
    Cholesky factor of that 2x2 covariance is singular when the two shifts
    are fully correlated (no jitter and no fiber, say): its second diagonal
    entry is then 0.
    """
    quarter = src.base_variance_ps2 * FS_PER_PS**2 / 4
    disp = [leg.k2l_ps2 * src.effective_sigma_omega * FS_PER_PS for leg in legs]
    var = [quarter + d * d + det.jitter_sigma_fs**2 for d, det in zip(disp, dets)]
    cov = rho * disp[0] * disp[1] - quarter
    l00 = math.sqrt(var[0])
    l10 = cov / l00
    rows = ((l00, 0.0), (l10, math.sqrt(max(var[1] - l10 * l10, 0.0))))
    return tuple(ArmShift(arm, leg.group_delay_fs, math.sqrt(v), row)
                 for arm, (leg, v, row) in enumerate(zip(legs, var, rows)))


class Window(NamedTuple):
    """Block number ``block`` of a simulation: the emissions in the whole fs
    [start_fs, end_fs)."""

    start_fs: int
    end_fs: int
    block: int


@dataclass(frozen=True)
class PairEvents:
    """One block's pair emissions with a photon detected in at least one arm.

    Emissions are int64 fs in the block's ``window``, in no particular order, in
    three classes: ``both_fs``, seen in both arms, and ``alone_fs[k]``, seen
    in arm k alone (0 signal, 1 idler).  Each detected photon has one
    standard normal: ``both_z`` holds a pair's two, shape (2, n), and
    ``alone_z[k]`` one per emission of ``alone_fs[k]``.
    """

    both_fs: np.ndarray
    both_z: np.ndarray
    alone_fs: tuple[np.ndarray, np.ndarray]
    alone_z: tuple[np.ndarray, np.ndarray]
    window: Window

    def __len__(self) -> int:
        return int(self.both_fs.size + self.alone_fs[0].size + self.alone_fs[1].size)


def generate_pairs(src: SourceParams, window: Window, seed: int, p_signal: float = 1.0,
                   p_idler: float = 1.0) -> PairEvents:
    """Sample the detected pair emissions in the block ``window``.

    ``p_signal`` / ``p_idler`` are the probabilities that a photon of each arm
    is detected (fiber survival times detector efficiency).  Pairs seen in
    both arms, the signal arm only and the idler arm only are Poisson at
    ``src.pair_rate_hz`` times p_s*p_i, p_s(1-p_i) and (1-p_s)p_i, with
    emissions uniform over the window, whose block picks the RNG stream
    (``stage_rng``).  A window ending past int64 raises TimestampRangeError.
    """
    start_fs, end_fs, block = window
    check_range("start_fs", start_fs, 0, end_fs)
    if end_fs > INT64_MAX:
        raise TimestampRangeError("window ends beyond the int64 femtosecond range")
    for name, p in (("p_signal", p_signal), ("p_idler", p_idler)):
        check_range(name, p, 0, 1)

    rng = stage_rng(seed, _STAGE_PAIRS, block)
    shares = (p_signal * p_idler, p_signal * (1.0 - p_idler), (1.0 - p_signal) * p_idler)
    counts = rng.poisson(src.pair_rate_hz * (end_fs - start_fs) / FS_PER_S * np.array(shares))
    n_both, n_signal, n_idler = counts.tolist()
    emission = rng.integers(start_fs, end_fs, n_both + n_signal + n_idler)
    z = rng.standard_normal(emission.size + n_both)
    split = n_both + n_signal
    return PairEvents(
        both_fs=emission[:n_both], both_z=z[:2 * n_both].reshape(2, n_both),
        alone_fs=(emission[n_both:split], emission[split:]),
        alone_z=(z[2 * n_both:n_both + split], z[n_both + split:]), window=window)


def propagate(events: PairEvents, shift: ArmShift) -> np.ndarray:
    """Arrival times (int64 fs) of one arm's detected photons: those of the
    pairs seen in both arms, then those seen in this arm alone, in the order
    of their emissions in ``events``.

    Each photon's continuous shift, the group delay plus its Gaussian, is
    rounded half-up to whole fs and added to its emission.  ``events`` is
    left unchanged.
    """
    n = events.both_fs.size
    alone_fs = events.alone_fs[shift.arm]
    s = np.empty(n + alone_fs.size)
    first, second = shift.both
    np.multiply(events.both_z[0], first, out=s[:n])
    if second:
        s[:n] += events.both_z[1] * second
    np.multiply(events.alone_z[shift.arm], shift.sigma_fs, out=s[n:])
    s += shift.delay_fs + 0.5
    # emissions lie in [0, end_fs): the arrivals fit int64 when the shifts do
    hi = s.max() if s.size else 0.0
    if not (-2.0**63 <= s.min(initial=0.0) and hi < 2.0**63
            and int(hi) < INT64_MAX - events.window.end_fs):
        raise TimestampRangeError("arrival outside the int64 femtosecond range")
    out = s.view(np.int64)
    # numpy buffers a cast whose output overlaps its input: a temporary of s's size
    np.floor(s, out=out, casting="unsafe")
    out[:n] += events.both_fs
    out[n:] += alone_fs
    return out


@dataclass
class Carry:
    """One arm's detection state between the time blocks of an acquisition.

    ``pending`` holds the sorted, unpruned detections at or after
    ``boundary_fs`` (None: no boundary), which a later block may still
    precede; ``final_fs`` is the latest detection already returned and
    ``last_kept_fs`` the latest one the dead-time filter kept.
    """

    boundary_fs: int | None = None
    pending: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    final_fs: int | float = -math.inf
    last_kept_fs: int | float = -math.inf


def detect(arrivals_fs: np.ndarray, det: DetectorSpec, seed: int, stage: int, window: Window,
           carry: Carry | None = None) -> np.ndarray:
    """Apply the detector's counting; returns the sorted int64 detection times (fs).

    Every arrival is a detected photon (efficiency is part of the pair
    classes in ``generate_pairs``, jitter part of its shift in
    ``propagate``).  Order of effects: dark counts uniform over the block
    ``window``, whose block picks the RNG stream (``stage_rng``), sort,
    dead-time pruning.  A ``carry`` joins its pending detections to the sort
    and takes back, unpruned, those at or after its boundary; the rest are
    pruned against its last kept detection.  A detection earlier than one a
    previous call returned raises ParameterError.  ``arrivals_fs`` is left
    unchanged.
    """
    start_fs, end_fs, block = window
    rng = stage_rng(seed, stage, block)
    carry = Carry() if carry is None else carry
    t = np.asarray(arrivals_fs)
    if t.dtype != np.int64:
        raise ParameterError(f"arrival times must be int64 femtoseconds, got {t.dtype}")
    parts = [carry.pending, t] if carry.pending.size else [t]
    if det.dark_rate_hz > 0 and end_fs > start_fs:
        n_dark = int(rng.poisson(det.dark_rate_hz * (end_fs - start_fs) / FS_PER_S))
        parts.append(rng.integers(start_fs, end_fs, n_dark))
    t = np.concatenate(parts) if len(parts) > 1 else t.copy()
    t.sort()
    if t.size and t[0] < carry.final_fs:
        raise ParameterError(f"detection at {t[0]} fs precedes the finalized one at "
                             f"{carry.final_fs} fs: a photon's shift exceeds the block margin")
    cut = t.size if carry.boundary_fs is None else int(np.searchsorted(t, carry.boundary_fs))
    carry.pending = t[cut:].copy()
    t = t[:cut]
    if t.size:
        carry.final_fs = int(t[-1])
    if det.dead_time_ns > 0:
        # t - kept < dead time exactly when, in whole fs, t - kept < its ceiling
        t = _prune_dead_time(t, math.ceil(det.dead_time_ns * 1e6), carry.last_kept_fs)
    if t.size:
        carry.last_kept_fs = int(t[-1])
    return t


def _prune_dead_time(times: np.ndarray, dead_fs: float, last: float = -math.inf) -> np.ndarray:
    """Greedy dead-time filter, in place: drop events within dead_fs of the
    last kept one, which before ``times[0]`` is ``last``.  Returns the kept
    events, a prefix of ``times``.

    An event at least dead_fs after its predecessor (``last`` for the first)
    is always kept, since the last kept event is no later than the
    predecessor.  So only the runs of events joined by shorter gaps need the
    sequential pass, and each run starts after a kept event.  The kept
    events between two dropped ones move down in one copy.
    """
    close = np.flatnonzero(np.diff(times) < dead_fs) + 1
    if times.size and times[0] - last < dead_fs:
        close = np.concatenate(([0], close))
    dropped = []
    prev = -2
    for i, t in zip(close.tolist(), times[close].tolist()):
        if i != prev + 1:
            kept = times[i - 1].item() if i else last
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
    """Quantize int64 detection times onto the event-timer grid; returns the int64 tags.

    Adds the clock offset and rounds half-up, exactly, to the nearest
    resolution multiple: with ``q, r = divmod(t + offset, res)`` a tag is
    ``res * (q + (r >= res - r))``.  That is ``(x + res//2) // res`` ticks for
    x = t + offset, computed as ``(x - (res - res//2)) // res + 1`` where x >= 0
    so that no sum leaves int64.  Ties after rounding stay as duplicates.
    ``times_fs`` must be sorted and is left unchanged.
    """
    t = np.asarray(times_fs)
    if t.dtype != np.int64:
        raise ParameterError(f"detection times must be int64 femtoseconds, got {t.dtype}")
    if not np.all(t[1:] >= t[:-1]):
        raise ParameterError("detection times must be sorted")
    res = timer.resolution_fs
    for end in (int(t[0]), int(t[-1])) if t.size else ():  # sorted: the extremes are the ends
        x = end + timer.clock_offset_fs
        q, r = divmod(x, res)
        tag = (q + (r >= res - r)) * res
        if not INT64_MIN <= min(x, tag) <= max(x, tag) <= INT64_MAX:
            raise TimestampRangeError("timestamp outside the int64 femtosecond range")
    tags = t + timer.clock_offset_fs
    k = int(np.searchsorted(tags, 0))  # sorted: the negative ones first
    tags[:k] += res // 2
    tags[k:] -= res - res // 2
    tags //= res
    tags[k:] += 1
    tags *= res
    return tags


class ArmChain:
    """One arm's detect -> digitize, over an acquisition of ``span_fs``, fed
    one block's arrivals (``propagate``) at a time, in order, with the block's
    ``Window``; the block whose window reaches the span ends the run.

    The next block's dark counts start at its first emission, and its photons
    arrive no earlier than that plus the group delay less _SHIFT_SIGMAS
    standard deviations of their shift.  Detections from that boundary on wait
    in the arm's ``Carry`` for the next block's sort, so the tags of every
    block, concatenated, are those of one sort, prune and digitization of
    all the blocks' detections.  The chain keeps no tags: ``add`` returns them.
    """

    def __init__(self, shift: ArmShift, det: DetectorSpec, timer: TimerSpec, seed: int,
                 span_fs: int):
        self.shift, self.det, self.timer, self.seed = shift, det, timer, seed
        self.span_fs = span_fs
        self.stage = (_STAGE_DETECT_A, _STAGE_DETECT_B)[shift.arm]
        self.lead_fs = min(0, math.floor(shift.delay_fs - _SHIFT_SIGMAS * shift.sigma_fs))
        self.carry = Carry()

    def add(self, window: Window, arrivals: np.ndarray) -> np.ndarray:
        """The tags of one block's arrivals; the last block, which reaches
        the span, finalizes every detection."""
        last = window.end_fs >= self.span_fs
        self.carry.boundary_fs = None if last else window.end_fs + self.lead_fs
        detected = detect(arrivals, self.det, self.seed, self.stage, window, self.carry)
        return digitize(detected, self.timer)
