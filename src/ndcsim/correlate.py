"""Nonlocal coincidence detection over two independent tag streams.

Two stages: a coarse FFT cross-correlation recovers the unknown relative
offset (group delays displace the peak by hundreds of microseconds), then a
two-pointer sweep builds the fine coincidence histogram around that offset.
Both stages are O(n log n) or better; nothing here is ever O(|a|*|b|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft

from .errors import NoPeakError, ParameterError
from .streams import TagStream

FS_PER_PS = 1e3
FS_PER_NS = 1e6
FS_PER_MS = 1e12

# Cap on the coarse binned-array length; keeps the FFT stage at ~4M bins.
_MAX_COARSE_BINS = 1 << 22
# Chunk of source tags processed per two-pointer step (bounds peak memory).
_DIFF_CHUNK = 1 << 16


@dataclass(frozen=True)
class Histogram:
    """Binned coincidence counts versus time difference t_b - t_a - offset."""

    bin_width_ps: float
    origin_ps: float
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.bin_width_ps <= 0:
            raise ParameterError("bin_width must be > 0")
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if np.any(counts < 0):
            raise ParameterError("counts must be >= 0")

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_centers_ps(self) -> np.ndarray:
        return self.origin_ps + (np.arange(self.counts.size) + 0.5) * self.bin_width_ps


def _nonempty(stream: TagStream, name: str) -> np.ndarray:
    """Tags of a non-empty stream; TagStream already keeps them sorted."""
    tags = stream.tags
    if tags.size == 0:
        raise ParameterError(f"stream {name} is empty")
    return tags


def window_diffs(
    a: np.ndarray, b: np.ndarray, offset_fs: int, window_fs: float
) -> Iterator[np.ndarray]:
    """Yield all differences b - a - offset with |diff| <= window, chunked.

    Two-pointer over the sorted arrays via searchsorted; cost is
    O(|a| log |b| + pairs_in_window) and memory is bounded by the chunk size.
    Differences are integers, so |diff| <= window is |diff| <= floor(window).
    """
    lo_edge = np.int64(offset_fs - math.floor(window_fs))
    hi_edge = np.int64(offset_fs + math.floor(window_fs))
    for start in range(0, a.size, _DIFF_CHUNK):
        a_chunk = a[start : start + _DIFF_CHUNK]
        # Search only the slice of b the chunk can reach; it stays in cache.
        first = int(np.searchsorted(b, a_chunk[0] + lo_edge, side="left"))
        last = int(np.searchsorted(b, a_chunk[-1] + hi_edge, side="right"))
        reach = b[first:last]
        lo = np.searchsorted(reach, a_chunk + lo_edge, side="left") + first
        hi = np.searchsorted(reach, a_chunk + hi_edge, side="right") + first
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        # Flat indices into b for every (a_i, b_j) pair in the window: pair k
        # of a_i sits at position starts_i + k of the output and lo_i + k in b.
        starts = np.zeros(a_chunk.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        flat = np.repeat(lo - starts, counts)
        flat += np.arange(total, dtype=np.int64)
        diffs = b[flat]
        diffs -= np.repeat(a_chunk + np.int64(offset_fs), counts)
        yield diffs


def fine_histogram(
    a: TagStream,
    b: TagStream,
    offset_fs: int,
    bin_width_ps: float,
    window_ps: float,
) -> Histogram:
    """Histogram of pair differences t_b - t_a - offset within +/- window.

    Half-open bins [left, right) starting at -window; a difference exactly on
    the +window boundary falls into the last bin.
    """
    tags_a = _nonempty(a, "a")
    tags_b = _nonempty(b, "b")
    if bin_width_ps <= 0:
        raise ParameterError("bin_width must be > 0")
    if window_ps < bin_width_ps:
        raise ParameterError("window must be >= bin_width")

    nbins = int(math.ceil(2.0 * window_ps / bin_width_ps))
    counts = np.zeros(nbins, dtype=np.int64)
    inv_bw_fs = 1.0 / (bin_width_ps * FS_PER_PS)
    origin_fs = -window_ps * FS_PER_PS
    for diffs in window_diffs(tags_a, tags_b, offset_fs, window_ps * FS_PER_PS):
        idx = np.floor((diffs - origin_fs) * inv_bw_fs).astype(np.int64)
        np.clip(idx, 0, nbins - 1, out=idx)
        counts += np.bincount(idx, minlength=nbins)
    return Histogram(bin_width_ps=bin_width_ps, origin_ps=-window_ps, counts=counts)


def coarse_offset(
    a: TagStream,
    b: TagStream,
    coarse_bin_ns: float = 1.0,
    search_span_ms: float = 1.0,
) -> int:
    """Recover the relative offset t_b - t_a of the coincidence peak (fs).

    Bins both streams onto a common grid, FFT cross-correlates, and takes the
    most significant lag within +/- search_span; a second two-pointer pass
    refines the estimate down to the coarse bin.  Raises NoPeakError when the
    correlogram maximum is below mean + 5*std.
    """
    tags_a = _nonempty(a, "a")
    tags_b = _nonempty(b, "b")
    if coarse_bin_ns <= 0 or search_span_ms <= 0:
        raise ParameterError("coarse_bin and search_span must be > 0")
    coarse_bin_fs = int(round(coarse_bin_ns * FS_PER_NS))
    span_fs = search_span_ms * FS_PER_MS

    t0 = int(min(tags_a[0], tags_b[0]))
    t1 = int(max(tags_a[-1], tags_b[-1]))
    duration_fs = max(t1 - t0, 1)

    bin1_fs = max(coarse_bin_fs, -(-duration_fs // _MAX_COARSE_BINS))
    nbins = duration_fs // bin1_fs + 1
    span_bins = max(1, int(math.ceil(span_fs / bin1_fs)))

    ha = np.bincount((tags_a - t0) // bin1_fs, minlength=nbins).astype(np.float64)
    hb = np.bincount((tags_b - t0) // bin1_fs, minlength=nbins).astype(np.float64)
    n_fft = next_fast_len(int(nbins + span_bins + 1))
    corr = irfft(np.conj(rfft(ha, n_fft)) * rfft(hb, n_fft), n_fft)

    lags = np.arange(-span_bins, span_bins + 1)
    vals = corr[np.mod(lags, n_fft)]
    peak = float(vals.max())
    if peak < float(vals.mean()) + 5.0 * float(vals.std()):
        raise NoPeakError(
            "no significant coincidence peak within +/- %.3f ms" % search_span_ms
        )
    est_fs = int(lags[int(np.argmax(vals))]) * bin1_fs

    if bin1_fs <= coarse_bin_fs:
        return est_fs

    # Refine to the requested coarse bin with a fine histogram over one FFT
    # bin either side: a pair counted at lag k has |diff - k*bin1| < bin1, so
    # the window holds every pair behind the FFT peak.  Bins are centred on
    # multiples of the coarse bin so that a constructed shift (or identical
    # streams) is recovered exactly.
    half = int(math.ceil(bin1_fs / coarse_bin_fs)) + 1
    coarse_bin_ps = coarse_bin_fs / FS_PER_PS
    refine = fine_histogram(a, b, est_fs, coarse_bin_ps, (half + 0.5) * coarse_bin_ps)
    if refine.total_pairs == 0:
        raise NoPeakError("no tag pairs near the coarse correlation peak")
    return est_fs + (int(np.argmax(refine.counts)) - half) * coarse_bin_fs


def g2_normalize(
    h: Histogram, rate_a_hz: float, rate_b_hz: float, duration_s: float
) -> np.ndarray:
    """Counts divided by the accidental level R_a*R_b*T*bin; baseline -> 1."""
    if rate_a_hz <= 0 or rate_b_hz <= 0 or duration_s <= 0:
        raise ParameterError("rates and duration must be > 0")
    accidental = rate_a_hz * rate_b_hz * duration_s * (h.bin_width_ps * 1e-12)
    return h.counts.astype(np.float64) / accidental


def write_histogram_csv(h: Histogram, path, g2: np.ndarray) -> None:
    """CSV with columns bin_center_ps, counts, g2_normalized."""
    with open(path, "w") as f:
        f.write("bin_center_ps,counts,g2_normalized\n")
        for c, n, g in zip(h.bin_centers_ps, h.counts, g2):
            f.write(f"{c:.6f},{int(n)},{g:.8g}\n")


def read_histogram_csv(path) -> Histogram:
    """Histogram of a write_histogram_csv file (bin geometry inferred from centers)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    centers = data[:, 0]
    if centers.size < 2:
        raise ParameterError("histogram CSV needs at least two bins")
    bw = float(np.median(np.diff(centers)))
    return Histogram(bin_width_ps=bw, origin_ps=float(centers[0] - 0.5 * bw),
                     counts=data[:, 1].astype(np.int64))
