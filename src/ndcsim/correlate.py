"""Nonlocal coincidence detection over two independent tag streams.

One two-pointer kernel yields the pair differences within a window.  The
offset search bins them over +/- the search span at a fixed 1 ns, to recover
the unknown relative offset (group delays displace the peak by hundreds of
microseconds) and its width; later passes histogram them at picosecond bins
sized from that width.  The one coarse bin serves every peak: 27 times the
37.6 ps jitter floor, about a fifth of a 5 ns classical one.  The search
locates the fullest bin in sparse samples of a, counting only the bins their
pairs hit, and confirms it on a narrow window of the densest sample; no array
spans the search.  The cost is O(|a| log |b|) plus the pairs in the window,
never O(|a|*|b|); all but the reported pass stride a.  The kernel walks a in
chunks sized to hold about _DIFF_CHUNK expected pairs each, so its
temporaries stay small whatever the density of the streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np
# No FFT runs here; the perfbench tracer looks these two names up.
from numpy.fft import rfft, irfft  # noqa: F401

from .errors import NoPeakError, ParameterError
from .streams import FS_PER_MS, FS_PER_PS, TagStream

COARSE_BIN_FS = 10**6  # the offset search bin, 1 ns
_PAIR_BUDGET = 1 << 22  # expected pairs per test pass; denser streams are strided
_LOOK_PAIRS = 1 << 16  # expected pairs of the first look, at least
_CONFIRM_BINS = 64  # bins either side of a located bin counted at the test stride
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


def _pairs_within(a: np.ndarray, b: np.ndarray, half_fs: int) -> int:
    """Number of pairs with |b_j - a_i| <= half_fs, from two binary searches."""
    return int((np.searchsorted(b, a + half_fs, side="right")
                - np.searchsorted(b, a - half_fs, side="left")).sum())


def _log_poisson_pmf(n: int, mean: float) -> float:
    """ln pmf(n) = ln(mean^n e^-mean / n!) for mean > 0.  From n = 16 in
    Stirling's form: the deviance n ln(n/mean) + mean - n, through log1p near
    mean = n, plus the series of ln n! - (n ln n - n + ln(2 pi n) / 2).  The
    plain sum of n ln(mean), mean and ln n! loses 4e-9 to rounding at 2e6."""
    if n < 16:
        return n * math.log(mean) - mean - math.lgamma(n + 1)
    t = (mean - n) / n
    dev = n * (t - math.log1p(t)) if abs(t) < 0.5 else n * math.log(n / mean) + mean - n
    n2 = n * n
    stirling = (1 / 12 - (1 / 360 - 1 / (1260 * n2)) / n2) / n  # within 3e-12 from n = 16
    return -dev - 0.5 * math.log(2 * math.pi * n) - stirling


def _poisson_sf(k: int, mean: float) -> float:
    """P(X > k) for X ~ Poisson(mean): the regularized lower incomplete gamma
    P(k + 1, mean).  Below mean = k + 1 its series; otherwise one minus the
    upper one, Q, by the modified Lentz continued fraction (Numerical Recipes,
    gser and gcf).  Either way the result is at least 0.5 or a series of
    positive terms, so it keeps its relative precision."""
    if mean == 0:
        return 0.0
    a = k + 1
    if mean < a:
        # P = pmf(a) * (1 + mean/(a+1) + mean^2/((a+1)(a+2)) + ...)
        term = total = 1.0
        n = a
        while term > total * 1e-17:
            n += 1
            term *= mean / n
            total += term
        return math.exp(_log_poisson_pmf(a, mean)) * total
    # Q = a pmf(a) / (b_0 + a_1 / (b_1 + a_2 / ...)), a_i = i (a - i) and
    # b_i = mean + 1 - a + 2i: all positive up to a_a = 0, which ends it.
    b = mean + 1 - a
    c, d = math.inf, 1 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1) > 1e-15:
        i += 1
        an = i * (a - i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
    return 1 - a * math.exp(_log_poisson_pmf(a, mean)) * h


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

    The pair differences within +/- search_span fall into bins of
    COARSE_BIN_FS centred on its multiples, +span into the last bin.  At the
    stride of strided_counts, the fullest bin must be a one-sided 5 sigma
    Poisson excess over the mean of the others, the number of bins being the
    trials factor, or NoPeakError is raised.

    Looks find that bin without an array of every bin.  A look locates the
    fullest bin among the pairs of every look-th tag of a, counting only the
    bins they hit; then it counts the _CONFIRM_BINS bins either side at the
    stride and tests the fullest of them against the mean of the span.  The
    first look strides by stride * 4^k, the sparsest to expect _LOOK_PAIRS
    pairs; each failed look is four times denser, down to the stride, where
    the located bin is the fullest of all.  A look's peak is at most that
    one's and its mean at least the span's, so no look passes a peak the last
    would reject.  The width is the run of bins around the peak holding at
    least (peak + mean) / 2, within the confirm window.
    """
    tags_a = _nonempty(a, "a")
    tags_b = _nonempty(b, "b")
    if search_span_ms <= 0:
        raise ParameterError("search_span must be > 0")
    span_bins = max(1, math.ceil(search_span_ms * FS_PER_MS / COARSE_BIN_FS))
    nbins = 2 * span_bins + 1
    half_fs = nbins * COARSE_BIN_FS // 2
    expected = len(tags_a) * _pairs_per_tag(tags_b, nbins * COARSE_BIN_FS)
    stride = look = max(1, math.ceil(expected / _PAIR_BUDGET))
    while expected / (4 * look) >= _LOOK_PAIRS:
        look *= 4
    sample = tags_a[::stride]
    total = _pairs_within(sample, tags_b, half_fs)
    while True:
        # One buffer for the look's bin indices: a list of chunk-sized arrays
        # would leave that much of the heap resident after the search.
        looked = tags_a[::look]
        idx = np.empty(_pairs_within(looked, tags_b, half_fs), dtype=np.int64)
        pos = 0
        for diffs in window_diffs(looked, tags_b, 0, half_fs):
            idx[pos : pos + diffs.size] = (diffs + half_fs) // COARSE_BIN_FS
            pos += diffs.size
        np.minimum(idx, nbins - 1, out=idx)
        located, hits = np.unique(idx, return_counts=True)
        top = int(located[np.argmax(hits)]) if located.size else span_bins
        # Bins lo..hi at the test stride, plus one spare on the right, which
        # takes the differences on the window's closed right edge.
        lo, hi = max(top - _CONFIRM_BINS, 0), min(top + _CONFIRM_BINS + 1, nbins - 1)
        counts = fine_histogram(replace(a, tags=sample), b,
                                (lo + hi + 1) * COARSE_BIN_FS // 2 - half_fs,
                                COARSE_BIN_FS / FS_PER_PS,
                                (hi - lo + 1) * COARSE_BIN_FS / (2 * FS_PER_PS)).counts
        if hi < nbins - 1:
            counts = counts[:-1]
        i = int(np.argmax(counts))
        peak = int(counts[i])
        mean = (total - peak) / (nbins - 1)
        p = min(1.0, nbins * _poisson_sf(peak - 1, mean)) if peak else 1.0
        if p <= _FALSE_PEAK_P:
            break
        if look == stride:
            raise NoPeakError(
                f"no significant coincidence peak within +/- {search_span_ms:.3f} ms: "
                f"fullest bin {peak} pairs against a mean of {mean:.3g} over "
                f"{nbins} bins (stride {stride}), trials-corrected p = {p:.3g}"
            )
        look //= 4
    first, last, half = i, i + 1, (peak + mean) / 2
    while first > 0 and counts[first - 1] >= half:
        first -= 1
    while last < counts.size and counts[last] >= half:
        last += 1
    return (lo + i - span_bins) * COARSE_BIN_FS, (last - first) * COARSE_BIN_FS


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


_CSV_SPACING_PS = 2e-6  # twice the 1e-6 ps rounding of the written centres


def read_histogram_csv(path) -> Histogram:
    """Histogram of a write_histogram_csv file; broken bin geometry is rejected.

    The centres must be finite and evenly spaced to within ``_CSV_SPACING_PS``,
    and the counts finite whole numbers.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
    centers, counts = data[:, 0], data[:, 1]
    if centers.size < 2:
        raise ParameterError("histogram CSV needs at least two bins")
    if not np.isfinite(data).all():
        raise ParameterError("bin centres and counts must be finite")
    steps = np.diff(centers)
    bw = float(np.median(steps))
    if np.abs(steps - bw).max() > _CSV_SPACING_PS:
        raise ParameterError(f"bin centres not evenly spaced to within {_CSV_SPACING_PS:g} ps")
    if (counts != np.round(counts)).any():
        raise ParameterError("counts must be whole numbers")
    return Histogram(bin_width_ps=bw, origin_ps=float(centers[0] - 0.5 * bw),
                     counts=counts.astype(np.int64))
