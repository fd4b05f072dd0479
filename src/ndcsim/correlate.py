"""Nonlocal coincidence detection over two independent tag streams.

One two-pointer kernel yields the pair differences within a window.  A
window expecting 2 pairs per tag or more is cut at both edges by binary
search and the pairs between them expanded; a narrower one is walked through
b partner by partner from each tag's first candidate.  The offset search
bins the differences over +/- the search span at a fixed 1 ns, to recover
the unknown relative offset (group delays displace the peak by hundreds of
microseconds) and its width; later passes histogram them in bins sized from
that width.  Every histogram lies on one grid: whole, half-open bins of whole
femtoseconds.  The one coarse bin serves every peak: 27 times the
37.6 ps jitter floor, about a fifth of a 5 ns classical one.  The search
locates the fullest bin in sparse samples of a, counting only the bins their
pairs hit, and confirms it on a narrow window of the densest sample; no array
spans the search.  The test's mean comes from bounds on the span's pairs,
summed over buckets half the span wide with a few binary searches per
bucket; the pairs are counted exactly only when the bounds could change the
test's result or its width.  The cost is O(|a| log |b|) plus the pairs in the
window, never O(|a|*|b|); a pass given a budget of expected pairs strides a
to keep within it.  Only the confirm pass keeps its pairs (PairDiffs);
fine_histogram bins a grid within that window at the same stride from them
instead of taking a pass of its own: on the paper's 5 s runs the confirm
takes every tag of a, and the seed and reported histograms rebin it.  The
kernel walks a in chunks sized to hold about _DIFF_CHUNK expected pairs
each, so its temporaries stay small whatever the density of the streams.  A
walked chunk finds its tags' first candidates by merging them with the tags
of b it reaches, in one stable sort.  Every pass runs on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
# No FFT runs here; the perfbench tracer looks these two names up.
from numpy.fft import rfft, irfft  # noqa: F401

from .errors import NoPeakError, ParameterError, check_range
from .streams import FS_PER_MS, FS_PER_PS, TagStream

COARSE_BIN_FS = 10**6  # the offset search bin, 1 ns
_PAIR_BUDGET = 1 << 22  # expected pairs per test pass; denser streams are strided
_LOOK_PAIRS = 1 << 16  # expected pairs of the first look, at least
_CONFIRM_BINS = 64  # bins either side of a located bin counted at the test stride
FALSE_PEAK_P = 2.87e-7  # a one-sided 5 sigma excess, trials factor included
# Expected pairs per two-pointer step.  At 2^13 the kernel's temporaries are
# 64 KiB: in cache, and below a 128 KiB malloc mmap threshold
# (MALLOC_MMAP_THRESHOLD_=131072, as the benchmark sets), which maps each
# 128 KiB temporary of 2^14 afresh.  The reported pass over 1e7-tag streams
# under that threshold, on a 2-core x86-64 VM, medians of 12 passes: 0.266,
# 0.273 and 0.278 s at 2^12, 2^13 and 2^14.
_DIFF_CHUNK = 1 << 13
# Below this many expected pairs per tag, window_diffs walks b partner by
# partner instead of searching both window edges.
_WALK_PAIRS = 2
# A walked chunk finds each tag's first candidate by merging its keys with the
# tags of b it reaches while they are at most this many times the keys, and by
# binary search beyond.  8191 keys of 1e7-tag streams, against tags of b from
# every stride-th tag of a on a 2-core x86-64 VM: the merge 97, 106-141 and
# 165-175 us at strides 1, 2 and 3, the search 144-164, 167-175 and
# 170-184 us; at 4 the merge took 215-223 us against 179-193 us.
_MERGE_REACH = 2


@dataclass(frozen=True)
class Histogram:
    """Binned coincidence counts versus time difference t_b - t_a - offset."""

    bin_width_ps: float
    origin_ps: float
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_range("bin_width_ps", self.bin_width_ps, 0, above=True)
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


def _pairs_within(a: np.ndarray, b: np.ndarray, lo_fs: int, hi_fs: int) -> int:
    """Number of pairs with lo_fs <= b_j - a_i < hi_fs, from two binary searches."""
    return int((np.searchsorted(b, a + hi_fs, side="left")
                - np.searchsorted(b, a + lo_fs, side="left")).sum())


def _span_bounds(a: np.ndarray, b: np.ndarray, half_fs: int) -> tuple[int, int]:
    """Bounds lo <= n <= hi on the number n of pairs with -half_fs <= b_j - a_i
    < half_fs.  In buckets [k*half_fs, (k+1)*half_fs), the window of a tag of a
    in bucket m holds all of bucket m and lies within buckets m-1 to m+1, so
    lo sums the tags of b in bucket m and hi those in m-1 to m+1, over a.  Each
    distinct bucket of a searches b for its four edges; an edge beyond int64
    has no tag of b past it."""
    m = a // half_fs
    firsts = np.flatnonzero(np.concatenate(([True], m[1:] != m[:-1])))
    n_a = np.diff(firsts, append=m.size)
    k = m[firsts, None] + np.arange(-1, 3)
    k_min, k_max = -(2**63 // half_fs), (2**63 - 1) // half_fs
    before = np.searchsorted(b, np.clip(k, k_min, k_max) * half_fs)  # tags of b below each edge
    before[k < k_min] = 0
    before[k > k_max] = b.size
    return int(n_a @ (before[:, 2] - before[:, 1])), int(n_a @ (before[:, 3] - before[:, 0]))


def _budget_stride(a: np.ndarray, b: np.ndarray, width_fs: int, budget: int) -> int:
    """The stride over a that keeps the expected pairs within a window
    width_fs wide, accidentals plus one true partner per tag, within budget."""
    return max(1, math.ceil(a.size * _pairs_per_tag(b, width_fs) / budget))


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
    """P(X > k) for X ~ Poisson(mean) with mean < k + 1: the regularized lower
    incomplete gamma P(k + 1, mean) by its series (Numerical Recipes, gser), a
    sum of positive terms, so it keeps its relative precision.  At or above
    k + 1 the tail is at least 0.5; coarse_offset needs no value there."""
    if mean == 0:
        return 0.0
    a = k + 1
    # P = pmf(a) * (1 + mean/(a+1) + mean^2/((a+1)(a+2)) + ...)
    term = total = 1.0
    n = a
    while term > total * 1e-17:
        n += 1
        term *= mean / n
        total += term
    return math.exp(_log_poisson_pmf(a, mean)) * total


def window_diffs(
    a: np.ndarray, b: np.ndarray, offset_fs: int, window_fs: float
) -> Iterator[np.ndarray]:
    """Yield all differences b - a - offset with |diff| <= window, chunked.

    Two-pointer over the sorted arrays; cost is O(|a| log |b| +
    pairs_in_window).  Each chunk takes as many tags of a as are expected to
    yield _DIFF_CHUNK pairs; the estimate sets only the chunk size and the
    way pairs are found, never which pairs are yielded.  Differences are
    integers, so |diff| <= window is |diff| <= floor(window).

    A window expecting fewer than _WALK_PAIRS pairs per tag is walked: one
    merge of the chunk's window starts with the tags of b they reach finds
    each tag's first candidate (_first_candidates), then b steps forward, one
    partner at a time, over the tags whose last candidate was in the window.
    A wider one, and a chunk whose windows reach the end of b, searches both
    edges and expands the counts between them.
    """
    half = math.floor(window_fs)
    lo_edge = np.int64(offset_fs - half)
    hi_edge = np.int64(offset_fs + half)
    per_tag = _pairs_per_tag(b, 2 * half + 1)
    chunk = max(1, int(_DIFF_CHUNK / per_tag))
    walk = per_tag < _WALK_PAIRS
    # One set of arrays for every merge of the call, sized from the chunk: under
    # a 128 KiB mmap threshold a fresh work array per chunk is mapped and
    # faulted anew, and a fresh ramp costs a quarter of the merge.
    size = min(chunk, a.size) if walk else 0
    ramp, work = np.arange(size), np.empty((1 + _MERGE_REACH) * size, dtype=np.int64)
    for start in range(0, a.size, chunk):
        a_chunk = a[start : start + chunk]
        # Search only the slice of b the chunk can reach; it stays in cache.
        first = int(np.searchsorted(b, a_chunk[0] + lo_edge, side="left"))
        last = int(np.searchsorted(b, a_chunk[-1] + hi_edge, side="right"))
        base = a_chunk + np.int64(offset_fs)
        if walk and last < b.size:
            # b[last] lies beyond every window of the chunk, so each walk
            # stops there at the latest.
            reach = b[first : last + 1]
            j = _first_candidates(base - half, b[first:last], ramp, work)
            steps = []
            while j.size:
                diffs = reach[j]
                diffs -= base
                inside = diffs <= half
                # A first step mostly lands inside: copy only when some did not.
                if not inside.all():
                    diffs, j, base = diffs[inside], j[inside], base[inside]
                if diffs.size:
                    steps.append(diffs)
                j += 1
            if not steps:
                continue
            diffs = steps[0] if len(steps) == 1 else np.concatenate(steps)
        else:
            reach = b[first:last]
            lo = np.searchsorted(reach, base - half, side="left") + first
            hi = np.searchsorted(reach, base + half, side="right") + first
            counts = hi - lo
            # Flat indices into b for every (a_i, b_j) pair in the window: pair
            # k of a_i sits at position starts_i + k of the output and lo_i + k
            # in b.
            starts = np.zeros(a_chunk.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            flat = np.repeat(lo - starts, counts)
            flat += np.arange(flat.size, dtype=np.int64)
            diffs = b[flat]
            diffs -= np.repeat(base, counts)
        if diffs.size:
            yield diffs


def _first_candidates(keys: np.ndarray, tags: np.ndarray, ramp: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """np.searchsorted(tags, keys, side="left") for sorted keys and tags, by
    one merge.

    With v0 the least value, keys encode as 2(k - v0) + 1 and tags as
    2(h - v0) + 2, so a tag sorts before a key exactly when h < k.  numpy's
    stable sort merges the two sorted runs in linear time, and key i lands at
    i plus the tags before it; tied keys give the same count, so which of
    them lands first does not matter.  More than _MERGE_REACH tags per key,
    or values 2^62 - 1 fs apart or more, where the encoding would leave
    int64, take the binary search instead.  ramp is np.arange of at least
    keys.size, and work holds at least (1 + _MERGE_REACH) * keys.size values.
    """
    n = keys.size
    low, high = int(keys[0]), int(keys[-1])
    if tags.size:
        low, high = min(low, int(tags[0])), max(high, int(tags[-1]))
    if tags.size > _MERGE_REACH * n or high - low >= 2**62 - 1:
        return np.searchsorted(tags, keys, side="left")
    merged = work[: n + tags.size]
    for part, values, mark in ((merged[:n], keys, 1), (merged[n:], tags, 2)):
        np.subtract(values, low, out=part)
        part *= 2
        part += mark
    merged.sort(kind="stable")
    # The low bit survives the cast to uint8, whose AND is the fastest.
    is_key = np.bitwise_and(merged, 1, dtype=np.uint8, casting="unsafe").view(bool)
    j = np.flatnonzero(is_key)
    j -= ramp[:n]
    return j


def fine_histogram(
    a: TagStream, b: TagStream, offset_fs: int, origin_fs: int, bin_fs: int, nbins: int,
    budget: int | None = None, kept: PairDiffs | None = None,
) -> Histogram:
    """Histogram of pair differences d = t_b - t_a - offset in nbins whole,
    half-open bins [origin + k*bin, origin + (k+1)*bin), all in fs.

    It counts the pairs of every tag of a, or, given a budget, of every
    _budget_stride-th: as many, evenly strided, as are expected to yield
    budget pairs within the grid.  Kept pairs that cover the grid at that
    stride are rebinned; otherwise the pass runs on the calling thread."""
    tags_a = _nonempty(a, "a")
    tags_b = _nonempty(b, "b")
    check_range("bin_fs", bin_fs, 0, above=True)
    check_range("nbins", nbins, 0, above=True)
    stride = 1 if budget is None else _budget_stride(tags_a, tags_b, nbins * bin_fs, budget)
    lo_fs = offset_fs + origin_fs
    if kept is not None and kept.covers(stride, lo_fs, lo_fs + nbins * bin_fs):
        return kept.histogram(offset_fs, origin_fs, bin_fs, nbins)
    # The kernel's closed window, centred on the grid, spans it; its right
    # edge may fall on origin + nbins*bin, the spare bin, which is dropped.
    half = nbins * bin_fs // 2
    counts = np.zeros(nbins + 1, dtype=np.int64)
    for diffs in window_diffs(tags_a[::stride], tags_b, lo_fs + half, half):
        diffs += half
        diffs //= bin_fs
        counts += np.bincount(diffs, minlength=nbins + 1)
    return Histogram(bin_width_ps=bin_fs / FS_PER_PS, origin_ps=origin_fs / FS_PER_PS,
                     counts=counts[:nbins])


@dataclass(frozen=True)
class PairDiffs:
    """The differences b - a - centre_fs, in fs, of every pair within
    +/- half_fs of centre_fs whose tag of a is one of every stride-th:
    one pass's pairs, kept to be binned again."""

    stride: int
    centre_fs: int
    half_fs: int
    diffs: np.ndarray = field(repr=False)

    def covers(self, stride: int, lo_fs: int, hi_fs: int) -> bool:
        """Whether these are the pairs, at this stride, of every difference
        b - a in [lo_fs, hi_fs)."""
        return (stride == self.stride and lo_fs >= self.centre_fs - self.half_fs
                and hi_fs <= self.centre_fs + self.half_fs + 1)

    def histogram(self, offset_fs: int, origin_fs: int, bin_fs: int, nbins: int) -> Histogram:
        """fine_histogram's grid of these pairs: b - a - offset in nbins whole,
        half-open bins [origin + k*bin, origin + (k+1)*bin), all in fs.  The
        grid must lie within the kept window."""
        check_range("bin_fs", bin_fs, 0, above=True)
        check_range("nbins", nbins, 0, above=True)
        lo_fs = offset_fs + origin_fs
        if not self.covers(self.stride, lo_fs, lo_fs + nbins * bin_fs):
            raise ParameterError("histogram grid reaches beyond the kept pairs")
        diffs = self.diffs + (self.centre_fs - lo_fs)
        diffs = diffs[(diffs >= 0) & (diffs < nbins * bin_fs)]
        diffs //= bin_fs
        return Histogram(bin_width_ps=bin_fs / FS_PER_PS, origin_ps=origin_fs / FS_PER_PS,
                         counts=np.bincount(diffs, minlength=nbins))


def pair_diffs(a: np.ndarray, b: np.ndarray, stride: int, centre_fs: int,
               half_fs: int) -> PairDiffs:
    """Keep the pairs window_diffs finds within +/- half_fs of centre_fs from
    every stride-th tag of a."""
    parts = list(window_diffs(a[::stride], b, centre_fs, half_fs))
    diffs = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return PairDiffs(stride, centre_fs, half_fs, diffs)


def coarse_offset(a: TagStream, b: TagStream,
                  search_span_ms: float = 1.0) -> tuple[int, int, PairDiffs]:
    """Recover the offset t_b - t_a of the coincidence peak and its width (fs),
    with the pairs of the confirm window that passed the test.

    The pair differences within +/- search_span fall into half-open bins of
    COARSE_BIN_FS centred on its multiples.  At the _budget_stride of the
    span, the fullest bin must be a one-sided 5 sigma Poisson excess over the
    mean of the others, the number of bins being the trials factor, or
    NoPeakError is raised.

    Looks find that bin without an array of every bin.  A look locates the
    fullest bin among the pairs of every look-th tag of a, counting only the
    bins they hit; then it counts the _CONFIRM_BINS bins either side at the
    stride, shifted to stay inside the span, and tests the fullest of them
    against the mean of the span.  The first look strides by stride * 4^k,
    the sparsest to expect _LOOK_PAIRS pairs; each failed look is four times
    denser, down to the stride, where the located bin is the fullest of all.
    A look's peak is at most that one's and its mean at least the span's, so
    no look passes a peak the last would reject.  The width is the run of bins
    around the peak holding at least (peak + mean) / 2, within the confirm
    window.

    The span's pairs, and so the mean, are not counted up front: _span_bounds
    gives a lower and an upper bound on them.  A larger count raises the mean,
    and so p, and shrinks the width's run, the runs being nested; so when the
    two bounds give the same verdict and the same run, so does the exact
    count.  It is taken only when they differ, and before NoPeakError, which
    reports the exact mean and p.
    """
    tags_a = _nonempty(a, "a")
    tags_b = _nonempty(b, "b")
    # At most 2^63 // COARSE_BIN_FS - 1 bins a side: the half-span fits int64.
    check_range("search_span_ms", search_span_ms, 0,
                (2**63 // COARSE_BIN_FS - 1) * COARSE_BIN_FS / FS_PER_MS, above=True)
    span_bins = max(1, math.ceil(search_span_ms * FS_PER_MS / COARSE_BIN_FS))
    nbins = 2 * span_bins + 1
    # COARSE_BIN_FS is even, so the span [-half, half) is whole bins.
    half_fs = nbins * COARSE_BIN_FS // 2
    stride = look = _budget_stride(tags_a, tags_b, nbins * COARSE_BIN_FS, _PAIR_BUDGET)
    expected = len(tags_a) * _pairs_per_tag(tags_b, nbins * COARSE_BIN_FS)
    while expected / (4 * look) >= _LOOK_PAIRS:
        look *= 4
    totals = _span_bounds(tags_a[::stride], tags_b, half_fs)
    side = min(_CONFIRM_BINS, span_bins)
    window = 2 * side + 1
    while True:
        # The look's bin indices, each chunk's binned in place and cast to the
        # smallest type that holds nbins before they are joined.  The kernel's
        # window is closed, so bin nbins holds its right edge.  Shifting by
        # span_bins after the division keeps an offset near int64's end from
        # wrapping.
        parts = []
        for diffs in window_diffs(tags_a[::look], tags_b, 0, half_fs):
            diffs += COARSE_BIN_FS // 2
            diffs //= COARSE_BIN_FS
            diffs += span_bins
            parts.append(diffs.astype(np.min_scalar_type(nbins)))
        top = _fullest_bin(np.concatenate(parts), nbins) if parts else span_bins
        centre = min(max(top, side), nbins - 1 - side) - span_bins
        kept = pair_diffs(tags_a, tags_b, stride, centre * COARSE_BIN_FS,
                          window * COARSE_BIN_FS // 2)
        counts = kept.histogram(centre * COARSE_BIN_FS, -(window * COARSE_BIN_FS // 2),
                                COARSE_BIN_FS, window).counts
        p, mean, run = _peak_test(counts, totals[0], nbins)
        if run != _peak_test(counts, totals[1], nbins)[2] or (
                run is None and look == stride and totals[0] < totals[1]):
            # The bounds disagree, or NoPeakError will print the exact mean and p.
            totals = (_pairs_within(tags_a[::stride], tags_b, -half_fs, half_fs),) * 2
            p, mean, run = _peak_test(counts, totals[0], nbins)
        if run is not None:
            break
        if look == stride:
            raise NoPeakError(
                f"no significant coincidence peak within +/- {search_span_ms:.3f} ms: "
                f"fullest bin {int(counts.max())} pairs against a mean of {mean:.3g} over "
                f"{nbins} bins (stride {stride}), trials-corrected p = {p:.3g}"
            )
        look //= 4
    first, last = run
    offset = centre - side + int(np.argmax(counts))
    return offset * COARSE_BIN_FS, (last - first) * COARSE_BIN_FS, kept


def _fullest_bin(idx: np.ndarray, nbins: int) -> int:
    """The bin below nbins that the most of idx fall in, the smallest on a tie;
    nbins if every one does.  Sorts idx in place."""
    idx.sort()
    inside = idx[: np.searchsorted(idx, nbins)]
    if not inside.size:
        return nbins
    # A bin of n entries repeats at n - 1 consecutive j, inside[j + 1] ==
    # inside[j]; the runs of two bins lie at least 2 apart.
    repeats = np.flatnonzero(inside[1:] == inside[:-1])
    if not repeats.size:
        return int(inside[0])
    starts = np.flatnonzero(np.diff(repeats, prepend=-2) != 1)
    return int(inside[repeats[starts[np.argmax(np.diff(starts, append=repeats.size))]]])


def _peak_test(counts: np.ndarray, total: int,
               nbins: int) -> tuple[float, float, tuple[int, int] | None]:
    """The coarse test of a confirm window's counts within a span of nbins bins
    holding total pairs: the trials-corrected p of the fullest bin over the
    mean of the others, that mean, and, if p passes, the run [first, last) of
    bins around the fullest holding at least (peak + mean) / 2."""
    i = int(np.argmax(counts))
    peak = int(counts[i])
    # A lower bound on total may fall below the peak; the exact count never does.
    mean = max(total - peak, 0) / (nbins - 1)
    # At peak <= mean the tail is at least 0.5, so p is 1 for any nbins >= 3.
    p = min(1.0, nbins * _poisson_sf(peak - 1, mean)) if peak > mean else 1.0
    if p > FALSE_PEAK_P:
        return p, mean, None
    first, last, half = i, i + 1, (peak + mean) / 2
    while first > 0 and counts[first - 1] >= half:
        first -= 1
    while last < counts.size and counts[last] >= half:
        last += 1
    return p, mean, (first, last)


def g2_normalize(
    h: Histogram, rate_a_hz: float, rate_b_hz: float, duration_s: float
) -> np.ndarray:
    """Counts divided by the accidental level R_a*R_b*T*bin; baseline -> 1."""
    check_range("rate_a_hz", rate_a_hz, 0, above=True)
    check_range("rate_b_hz", rate_b_hz, 0, above=True)
    check_range("duration_s", duration_s, 0, above=True)
    accidental = rate_a_hz * rate_b_hz * duration_s * (h.bin_width_ps * 1e-12)
    return h.counts.astype(np.float64) / accidental


def write_histogram_csv(h: Histogram, path, a: TagStream, b: TagStream) -> None:
    """CSV with columns bin_center_ps, counts, g2_normalized: the counts over
    the accidentals of a's and b's mean rates over the longer of their spans.
    A stream whose acquisition span is 0 has no rate, and is refused."""
    for name, stream in (("a", a), ("b", b)):
        check_range(f"acquisition_span_fs of stream {name}", stream.acquisition_span_fs, 0,
                    above=True)
    g2 = g2_normalize(h, a.rate_hz(), b.rate_hz(), max(a.duration_s, b.duration_s))
    np.savetxt(path, np.column_stack([h.bin_centers_ps, h.counts, g2]),
               fmt=["%.6f", "%d", "%.8g"], delimiter=",",
               header="bin_center_ps,counts,g2_normalized", comments="")


_CSV_SPACING_PS = 2e-6  # twice the 1e-6 ps rounding of the written centres


def read_histogram_csv(path) -> Histogram:
    """Histogram of a write_histogram_csv file; broken bin geometry is rejected.

    The centres must be finite and evenly spaced to within ``_CSV_SPACING_PS``,
    and the counts finite whole numbers within int64.
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
    if counts.max() >= 2.0**63:  # checked here: the cast to int64 would not hold it
        raise ParameterError(f"counts must be in [0, 2^63), got {counts.max():g}")
    return Histogram(bin_width_ps=bw, origin_ps=float(centers[0] - 0.5 * bw),
                     counts=counts.astype(np.int64))
