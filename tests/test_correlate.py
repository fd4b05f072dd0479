"""Correlator tests against an all-pairs brute-force oracle."""

import concurrent.futures
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndcsim import correlate, pipeline, presets
from ndcsim.correlate import (
    Histogram,
    coarse_offset,
    fine_histogram,
    g2_normalize,
)
from ndcsim.errors import NoPeakError, ParameterError
from ndcsim.pipeline import measure_peak, run_simulation
from ndcsim.streams import TagStream


def make_stream(tags, resolution_fs=1000, site_id=0, span=None):
    tags = np.sort(np.asarray(tags, dtype=np.int64))
    if span is None:
        span = int(tags[-1]) if tags.size else 0
    return TagStream(tags=tags, resolution_fs=resolution_fs, site_id=site_id,
                     acquisition_span_fs=span)


def brute_force_histogram(a, b, offset_fs, origin_fs, bin_fs, nbins):
    """O(N*M) oracle: every pair difference d, counted in bin k when
    origin + k*bin <= d < origin + (k+1)*bin."""
    diffs = (b[None, :] - a[:, None] - offset_fs).ravel()
    edges = origin_fs + bin_fs * np.arange(nbins + 1)
    k = np.searchsorted(edges, diffs, side="right") - 1
    return np.bincount(k[(k >= 0) & (k < nbins)], minlength=nbins)


def poisson_stream(rng, rate_hz, duration_s, resolution_fs=1000, site_id=0):
    n = rng.poisson(rate_hz * duration_s)
    tags = np.sort(rng.integers(0, int(duration_s * 1e15), n))
    tags = (tags // resolution_fs) * resolution_fs
    return make_stream(np.sort(tags), resolution_fs, site_id, span=int(duration_s * 1e15))


def weak_signal_streams():
    """Streams whose b holds copies of 0.5 % of a's tags at an offset, the
    rest being an independent stream of the same rate; and the offset."""
    rng = np.random.default_rng(10)
    a = poisson_stream(rng, 12000, 5.0)
    offset_fs = 123_456_789_012
    shared = rng.choice(a.tags, 300, replace=False) + offset_fs
    noise = poisson_stream(rng, 12000, 5.0).tags
    b = make_stream(np.concatenate([noise, shared]), span=a.acquisition_span_fs)
    return a, b, offset_fs


class TestFineHistogram:
    def test_three_pair_example(self):
        a = make_stream(np.array([1000, 5000, 9000]) * 1000)  # ps -> fs
        b = make_stream(np.array([1040, 5040, 9040]) * 1000)
        h = fine_histogram(a, b, 0, origin_fs=-100_000, bin_fs=10_000, nbins=20)
        occupied = np.nonzero(h.counts)[0]
        assert occupied.size == 1
        k = occupied[0]
        assert h.counts[k] == 3
        left = h.origin_ps + k * h.bin_width_ps
        assert left == pytest.approx(40.0)

    def test_difference_on_left_edge_lands_in_that_bin(self):
        # Half-open bins [left, right): a difference exactly on a bin's left
        # edge belongs to that bin, for every one of the 20 bins.
        a = np.arange(20, dtype=np.int64) * 10**9
        b = a + np.arange(-10, 10) * 11_000
        h = fine_histogram(make_stream(a), make_stream(b), 0, -110_000, 11_000, 20)
        assert h.counts.tolist() == [1] * 20

    def test_self_correlation_zero_bin(self):
        tags = np.arange(100, dtype=np.int64) * 10_000_000
        a = make_stream(tags)
        h = fine_histogram(a, a, 0, -2_000_000, 8000, 500)
        zero_bin = int(np.floor((0 - h.origin_ps) / h.bin_width_ps))
        assert h.counts[zero_bin] >= len(a)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            na, nb = rng.integers(1, 2000, 2)
            a = rng.integers(0, 10**12, na)
            b = rng.integers(0, 10**12, nb)
            offset = int(rng.integers(-10**9, 10**9))
            sa, sb = make_stream(a), make_stream(b)
            h = fine_histogram(sa, sb, offset, -5_000_000, 50_000, 200)
            oracle = brute_force_histogram(sa.tags, sb.tags, offset, -5_000_000, 50_000, 200)
            assert np.array_equal(h.counts, oracle)
            assert h.total_pairs == oracle.sum()

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.integers(0, 10**7), min_size=1, max_size=60),
        b=st.lists(st.integers(0, 10**7), min_size=1, max_size=60),
        offset=st.integers(-10**6, 10**6),
        bin_fs=st.sampled_from([1000, 7777, 8000, 13_001]),
        nbins=st.integers(1, 41),
    )
    def test_matches_brute_force_hypothesis(self, a, b, offset, bin_fs, nbins):
        # Odd and even nbins*bin: the closed edge of the kernel's window falls
        # on the grid's end, or one fs inside it.  Both ways of finding pairs,
        # whatever the density: at a threshold of 0 the kernel never walks,
        # at infinity it always does.  On one thread, and split over 2 and 3
        # with one-pair chunks and one-chunk pieces, so that any a of more
        # than one tag splits.
        sa, sb = make_stream(a), make_stream(b)
        origin = -(nbins // 2) * bin_fs
        oracle = brute_force_histogram(sa.tags, sb.tags, offset, origin, bin_fs, nbins)
        for walk_below in (0, math.inf):
            for workers in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(correlate, "_WALK_PAIRS", walk_below)
                    mp.setattr(correlate, "_usable_cpus", lambda: workers)
                    if workers > 1:
                        mp.setattr(correlate, "_DIFF_CHUNK", 1)
                        mp.setattr(correlate, "_PIECE_CHUNKS", 1)
                    h = fine_histogram(sa, sb, offset, origin, bin_fs, nbins)
                assert np.array_equal(h.counts, oracle), (walk_below, workers)

    def test_walk_through_crowded_tag(self, monkeypatch):
        # A sparse stream, about 0.1 pairs per tag, and one source tag with
        # 71 partners: the walk takes 71 steps for that tag alone, past chunk
        # edges of 1, 7 and 64 expected pairs.  The last tag of b lies past
        # every window, so that every chunk walks.
        rng = np.random.default_rng(4)
        for budget in (1, 7, 64):
            monkeypatch.setattr(correlate, "_DIFF_CHUNK", budget)
            for trial in range(10):
                a = rng.integers(0, 10**10, 200)
                offset = int(rng.integers(-10**6, 10**6))
                crowd = a[0] + offset + 100_000 * np.arange(-35, 36)
                b = np.concatenate([rng.integers(0, 10**10, 200), crowd, [2 * 10**10]])
                sa, sb = make_stream(a), make_stream(b)
                assert correlate._pairs_per_tag(sb.tags, 10**7) < correlate._WALK_PAIRS
                h = fine_histogram(sa, sb, offset, -5_000_000, 50_000, 200)
                oracle = brute_force_histogram(sa.tags, sb.tags, offset, -5_000_000, 50_000, 200)
                assert (h.counts[30:171:2] >= 1).all()  # the crowd, 100 ns apart
                assert np.array_equal(h.counts, oracle)

    def test_matches_brute_force_across_chunks(self, monkeypatch):
        # Budgets of 1, 7 and 64 expected pairs against about 23 per tag, and
        # one source tag with 71 partners: one-tag chunks, chunks reaching no
        # tag of b, and a chunk yielding more pairs than its budget.
        rng = np.random.default_rng(1)
        for budget in (1, 7, 64):
            monkeypatch.setattr(correlate, "_DIFF_CHUNK", budget)
            for trial in range(20):
                a = np.concatenate([rng.integers(0, 10**8, 100), rng.integers(0, 10**5, 100)])
                offset = int(rng.integers(-10**6, 10**6))
                crowd = a[0] + offset + 100_000 * np.arange(-35, 36)
                b = np.concatenate([rng.integers(0, 10**8, 150), crowd])
                sa, sb = make_stream(a), make_stream(b)
                h = fine_histogram(sa, sb, offset, -5_000_000, 50_000, 200)
                oracle = brute_force_histogram(sa.tags, sb.tags, offset, -5_000_000, 50_000, 200)
                assert np.array_equal(h.counts, oracle)

    def test_half_open_edges(self, monkeypatch):
        # [origin, origin + nbins*bin): a difference on origin lands in bin 0,
        # one a fs short of the end in the last bin, and one on the end in
        # none, whether nbins*bin is even or odd, and whether the kernel
        # searches both edges (threshold 0) or walks (infinity); b's second
        # tag lies past every window, so that the kernel can walk.  Pairs
        # kept over a wider window rebin the same way.
        a, b = make_stream([0]), make_stream([0, 10**12])
        for walk_below in (0, math.inf):
            monkeypatch.setattr(correlate, "_WALK_PAIRS", walk_below)
            kept = correlate.pair_diffs(a.tags, b.tags, 1, 0, 10**6)
            for origin, bin_fs, nbins in ((-100_000, 10_000, 20), (-104_999, 11_001, 19)):
                end = origin + nbins * bin_fs
                for d, hit in ((origin - 1, []), (origin, [0]), (end - 1, [nbins - 1]),
                               (end, [])):
                    for h in (fine_histogram(a, b, -d, origin, bin_fs, nbins),
                              kept.histogram(-d, origin, bin_fs, nbins)):
                        assert h.counts.size == nbins
                        assert np.flatnonzero(h.counts).tolist() == hit, (walk_below, origin, d)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = make_stream(rng.integers(0, 10**12, 500))
        b_tags = np.sort(rng.integers(0, 10**12, 500))
        delta = 123_456_789
        h1 = fine_histogram(a, make_stream(b_tags), 777, -2_000_000, 8000, 500)
        h2 = fine_histogram(a, make_stream(b_tags + delta), 777 + delta, -2_000_000, 8000, 500)
        assert np.array_equal(h1.counts, h2.counts)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(2)
        # odd tags with even bin edges keep differences off the bin boundaries
        a = make_stream(rng.integers(0, 10**10, 400) * 2 + 1)
        b = make_stream(rng.integers(0, 10**10, 400) * 2)
        h_fwd = fine_histogram(a, b, 0, -2_000_000, 8000, 500)
        h_rev = fine_histogram(b, a, 0, -2_000_000, 8000, 500)
        assert np.array_equal(h_rev.counts, h_fwd.counts[::-1])

    def test_invalid_inputs(self):
        a = make_stream([1000])
        for bin_fs, nbins in ((0, 500), (8000, 0)):
            with pytest.raises(ParameterError):
                fine_histogram(a, a, 0, -2_000_000, bin_fs, nbins)
        empty = TagStream(np.empty(0, dtype=np.int64), 1000, 0, 0)
        with pytest.raises(ParameterError):
            fine_histogram(empty, a, 0, -2_000_000, 8000, 500)


class TestPairDiffs:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(0, 10**7), min_size=1, max_size=60),
        b=st.lists(st.integers(0, 10**7), min_size=1, max_size=60),
        stride=st.integers(1, 3),
        centre=st.integers(-10**6, 10**6),
        half=st.integers(13_001, 3 * 10**5),
        bin_fs=st.sampled_from([1000, 7777, 8000, 13_001]),
        data=st.data(),
    )
    def test_rebinning_equals_a_pass(self, a, b, stride, centre, half, bin_fs, data):
        # A grid anywhere within the kept window, flush with either edge or
        # both, with odd and even nbins*bin and origins of either sign: the
        # kept pairs rebin to the counts of a pass of their own and of the
        # oracle, whether the kernel searched both edges or walked.
        sa, sb = make_stream(a), make_stream(b)
        nbins = data.draw(st.integers(1, (2 * half + 1) // bin_fs))
        first, last = centre - half, centre + half + 1 - nbins * bin_fs
        lo = data.draw(st.sampled_from([first, last]) | st.integers(first, last))
        origin = data.draw(st.integers(-nbins * bin_fs, nbins * bin_fs))
        offset = lo - origin
        sample = make_stream(sa.tags[::stride])
        oracle = brute_force_histogram(sample.tags, sb.tags, offset, origin, bin_fs, nbins)
        for walk_below in (0, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(correlate, "_WALK_PAIRS", walk_below)
                kept = correlate.pair_diffs(sa.tags, sb.tags, stride, centre, half)
            assert kept.covers(stride, lo, lo + nbins * bin_fs)
            h = kept.histogram(offset, origin, bin_fs, nbins)
            assert np.array_equal(h.counts, oracle), walk_below
            assert (h.bin_width_ps, h.origin_ps) == (bin_fs / 1000, origin / 1000)
        passed = fine_histogram(sample, sb, offset, origin, bin_fs, nbins)
        assert np.array_equal(passed.counts, oracle)
        # The kept window is [centre - half, centre + half] and no wider, at
        # its own stride only.
        assert kept.covers(stride, first, centre + half + 1)
        assert not kept.covers(stride, first - 1, centre + half + 1)
        assert not kept.covers(stride, first, centre + half + 2)
        assert not kept.covers(stride + 1, lo, lo + nbins * bin_fs)
        for shift in (first - 1 - lo, last + 1 - lo):  # one fs beyond either edge
            with pytest.raises(ParameterError):
                kept.histogram(offset + shift, origin, bin_fs, nbins)

    def test_no_pairs(self):
        kept = correlate.pair_diffs(np.array([0]), np.array([10**9]), 1, 0, 1000)
        assert kept.diffs.size == 0
        assert kept.histogram(0, -1000, 100, 20).counts.tolist() == [0] * 20


def _record_yields(monkeypatch) -> list[int]:
    """Sizes of the arrays window_diffs yields from now on."""
    sizes = []
    window_diffs = correlate.window_diffs

    def recording(*args):
        for diffs in window_diffs(*args):
            sizes.append(diffs.size)
            yield diffs

    monkeypatch.setattr(correlate, "window_diffs", recording)
    return sizes


def dense_streams():
    """test_10's streams at a tenth of the tags and span: one pair per tag
    within the 4 ns window at 1 us."""
    rng = np.random.default_rng(99)
    n, span = 10**6, 5 * 10**14
    base = np.sort(rng.integers(0, span, n))
    jitter = rng.normal(0.0, 10_000.0, n).astype(np.int64)
    return (TagStream(base, 1000, 0, span),
            TagStream(np.sort(base + jitter + 10**9), 1000, 1, span + 2 * 10**9))


class TestChunkBound:
    def test_coarse_pass_fig2a(self, monkeypatch):
        # fig2a's +/- 1 ms at 1 ns from every tag of a: about 24 pairs per tag.
        a, b = run_simulation(presets.fig2a_config(), seed=0)
        sizes = _record_yields(monkeypatch)
        h = fine_histogram(a, b, 0, -(10**12 + 500_000), 10**6, 2 * 10**6 + 1)
        assert h.total_pairs == sum(sizes) > 10**6
        assert max(sizes) < 2 * correlate._DIFF_CHUNK

    def test_fine_pass_dense(self, monkeypatch):
        a, b = dense_streams()
        sizes = _record_yields(monkeypatch)
        h = fine_histogram(a, b, 10**9, -2_000_000, 8000, 500)
        assert h.total_pairs == sum(sizes) > len(a)
        assert max(sizes) < 2 * correlate._DIFF_CHUNK


def _record_pieces(monkeypatch) -> list[np.ndarray]:
    """The tags of a that each window_diffs call takes from now on."""
    pieces = []  # in the order the threads start them
    window_diffs = correlate.window_diffs

    def recording(a, *rest):
        pieces.append(a)
        return window_diffs(a, *rest)

    monkeypatch.setattr(correlate, "window_diffs", recording)
    return pieces


class TestSplit:
    """A pass split over 1, 2 or 3 threads counts what one thread counts;
    TestFineHistogram's hypothesis test splits too."""

    def test_dense_streams(self):
        a, b = dense_streams()
        serial = None
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(correlate, "_usable_cpus", lambda: workers)
                pieces = _record_pieces(mp)
                h = fine_histogram(a, b, 10**9, -2_000_000, 8000, 500)
            # One contiguous piece of a per thread, together all of a.
            assert len(pieces) == workers
            pieces.sort(key=lambda piece: piece[0])
            assert np.array_equal(np.concatenate(pieces), a.tags)
            serial = h.counts if serial is None else serial
            assert np.array_equal(h.counts, serial)
            assert h.total_pairs > len(a)

    def test_piece_boundary_inside_crowd(self, monkeypatch):
        # 100 tags of a within 2 ns of each other, amid 100 spread over 10 us,
        # all reaching a crowd of 71 partners in b: the cuts at a third, half
        # and two thirds of a fall among them.  Both ways of finding pairs.
        rng = np.random.default_rng(5)
        centre, offset = 5 * 10**9, 123_456
        cluster = centre + 20_000 * np.arange(-50, 50)
        a = make_stream(np.concatenate([rng.integers(0, 10**10, 100), cluster]))
        crowd = centre + offset + 100_000 * np.arange(-35, 36)
        b = make_stream(np.concatenate([rng.integers(0, 10**10, 200), crowd]))
        oracle = brute_force_histogram(a.tags, b.tags, offset, -5_000_000, 50_000, 200)
        assert oracle.sum() > 5000
        monkeypatch.setattr(correlate, "_DIFF_CHUNK", 1)
        for walk_below in (0, math.inf):
            monkeypatch.setattr(correlate, "_WALK_PAIRS", walk_below)
            for workers in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(correlate, "_usable_cpus", lambda: workers)
                    pieces = _record_pieces(mp)
                    h = fine_histogram(a, b, offset, -5_000_000, 50_000, 200)
                assert len(pieces) == workers
                firsts = sorted(piece[0] for piece in pieces)
                assert all(cluster[0] < first <= cluster[-1] for first in firsts[1:])
                assert np.array_equal(h.counts, oracle), (walk_below, workers)


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(correlate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(correlate.os, "cpu_count", lambda: 5)
    assert correlate._usable_cpus() == 5
    monkeypatch.setattr(correlate.os, "cpu_count", lambda: None)
    assert correlate._usable_cpus() == 1


def test_small_passes_start_no_thread(monkeypatch):
    # The paper's 5 s runs, fig2a and fig2d: the offset search, the seed pass
    # and the reported pass stay on the calling thread even with three CPUs;
    # a dense pass opens one pool of three.
    opened = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(correlate, "_usable_cpus", lambda: 3)
    for cfg in (presets.fig2a_config(), presets.fig2d_config()):
        measure_peak(*run_simulation(cfg, seed=0))
    assert opened == []
    fine_histogram(*dense_streams(), 10**9, -2_000_000, 8000, 500)
    assert opened == [3]


class TestHistogramPaths:
    """measure_peak bins its seed and reported histograms from kept pairs
    wherever they cover them at the stride each needs; otherwise each takes
    a pass of its own."""

    @staticmethod
    def _record(mp):
        passes, kept, reported = _record_pieces(mp), _record_confirms(mp), []
        histogram = pipeline.fine_histogram

        def recording(*args):
            reported.append(args[2])
            return histogram(*args)

        mp.setattr(pipeline, "fine_histogram", recording)
        return passes, kept, reported

    @pytest.mark.parametrize("cfg", [presets.fig2a_config(), presets.fig2d_config()],
                             ids=["fig2a", "fig2d"])
    def test_paper_peaks_rebin_the_confirm(self, cfg):
        # One pass over every tag of a, the confirm at test stride 1; the
        # seed and reported histograms are its pairs, rebinned.
        a, b = run_simulation(cfg, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            passes, kept, reported = self._record(mp)
            measure_peak(a, b)
        assert [len(piece) for piece in passes].count(len(a)) == 1
        assert [n for _, n in kept] == [len(a)]
        assert reported == []

    def test_longer_run_rebins_the_seed_pass(self):
        # At four times the acquisition the confirm strides a by 2 and the seed
        # by 1: the seed takes its own pass over every tag of a, and the
        # reported histogram rebins it.
        a, b = run_simulation(presets.fig2d_config(duration_s=4 * presets.ACQUISITION_S), 0)
        with pytest.MonkeyPatch.context() as mp:
            passes, kept, reported = self._record(mp)
            measure_peak(a, b)
        assert [len(piece) for piece in passes].count(len(a)) == 1
        assert [n for _, n in kept] == [len(a.tags[::2]), len(a)]
        assert reported == []

    def test_dense_reported_pass_threaded(self, monkeypatch):
        # The seed pass strides a, so the reported histogram takes
        # fine_histogram's pass over every tag, split over three threads.
        opened = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(correlate, "_usable_cpus", lambda: 3)
        a, b = dense_streams()
        _, kept, reported = self._record(monkeypatch)
        meas = measure_peak(a, b)
        assert len(kept) == 2 and kept[-1][1] < len(a) // 2  # confirm, then seed
        assert reported == [meas.offset_fs]
        assert opened == [3]


class TestCoarseOffset:
    def test_identical_streams_zero(self):
        rng = np.random.default_rng(3)
        a = poisson_stream(rng, 12000, 5.0)
        assert coarse_offset(a, a)[0] == 0

    @pytest.mark.parametrize("offset_fs", [0, 10**9, -(10**9), 267 * 10**9, -267 * 10**9])
    def test_constructed_shift_recovered(self, offset_fs):
        rng = np.random.default_rng(4)
        a = poisson_stream(rng, 12000, 5.0)
        b = make_stream(a.tags + offset_fs, span=a.acquisition_span_fs + abs(offset_fs))
        recovered, width, _ = coarse_offset(a, b, search_span_ms=1.0)
        assert abs(recovered - offset_fs) <= 10**6  # +- one 1 ns coarse bin
        assert width == 10**6  # every pair lies in the one bin of the shift

    def test_shift_off_the_coarse_grid_recovered(self):
        # Offsets off the 1 ns grid, within +/- 5 us: the coarse bins are
        # centred on multiples of 1 ns, so each comes back within half a bin.
        rng = np.random.default_rng(8)
        a = poisson_stream(rng, 12000, 5.0)
        for offset_fs in rng.integers(-5 * 10**9, 5 * 10**9, 12).tolist():
            b = make_stream(a.tags + offset_fs, span=a.acquisition_span_fs + abs(offset_fs))
            assert abs(coarse_offset(a, b)[0] - offset_fs) <= 10**6

    @settings(max_examples=25, deadline=None)
    @given(offset_fs=st.integers(-(10**12), 10**12))
    def test_strided_matches_full_enumeration(self, offset_fs):
        rng = np.random.default_rng(9)
        a = poisson_stream(rng, 12000, 1.0)
        noise = poisson_stream(rng, 12000, 1.0).tags
        b = make_stream(np.concatenate([a.tags + offset_fs, noise]),
                        span=a.acquisition_span_fs + abs(offset_fs))
        full = coarse_offset(a, b)[0]
        # about 5.8e5 expected pairs against a budget of 2^14: stride 36
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_PAIR_BUDGET", 1 << 14)
            confirms = _record_confirms(mp)
            assert coarse_offset(a, b)[0] == full
        assert confirms[0][1] < len(a) // 30
        assert abs(full - offset_fs) <= 5 * 10**5

    def test_stride_counts_true_partners(self, monkeypatch):
        # A 21 ps window holds almost no accidentals, but every tag of a has
        # its true partner in it: 12000 expected pairs against a budget of 1000.
        rng = np.random.default_rng(12)
        a = poisson_stream(rng, 12000, 1.0)
        monkeypatch.setattr(correlate, "_SEED_PAIRS", 1000)
        stride = -(-len(a) // 1000)  # without the partner term: 1
        assert correlate._budget_stride(a.tags, a.tags, 21 * 1000, 1000) == stride
        confirmed = coarse_offset(a, a)[2]  # at stride 1, so the seed takes its own pass
        kept = correlate.seed_pairs(a, a, 0, 21 * 1000, confirmed)
        assert confirmed.stride == 1 and kept.stride == stride
        h = kept.histogram(0, -10_500, 1000, 21)
        assert h.counts[10] == h.counts.sum() == len(a.tags[::stride])

    def test_independent_streams_no_peak(self):
        # 1 ns bins over +/- 1 ms hold about 0.7 accidentals each: the
        # fullest of 2e6 such bins is far above mean + 5 std, yet no peak.
        for seed in (5, 15, 25, 35, 45):
            rng = np.random.default_rng(seed)
            a = poisson_stream(rng, 12000, 5.0, site_id=0)
            b = poisson_stream(rng, 12000, 5.0, site_id=1)
            with pytest.raises(NoPeakError):
                coarse_offset(a, b)

    def test_no_peak_message_explains(self):
        rng = np.random.default_rng(5)
        a = poisson_stream(rng, 12000, 5.0, site_id=0)
        b = poisson_stream(rng, 12000, 5.0, site_id=1)
        with pytest.raises(NoPeakError) as info:
            coarse_offset(a, b)
        message = str(info.value)
        assert "+/- 1.000 ms" in message
        assert "over 2000001 bins (stride 1)" in message
        m = re.search(r"fullest bin (\d+) pairs against a mean of ([\d.]+) .*"
                      r"trials-corrected p = ([\d.e+-]+)", message)
        assert m is not None, message
        peak, mean, p = int(m.group(1)), float(m.group(2)), float(m.group(3))
        assert mean == pytest.approx(len(a) * len(b) * 1e-9 / 5.0, rel=0.02)
        assert peak > mean + 5 * math.sqrt(mean)
        assert 2.87e-7 < p <= 1.0

    def test_pairs_on_the_closed_edge_ignored(self):
        # The span is half-open, [-half, half): ten times more pairs exactly
        # on +half than in the true peak neither count nor draw the look.
        rng = np.random.default_rng(14)
        a = poisson_stream(rng, 12000, 1.0)
        half_fs, offset_fs = (2 * 10**6 + 1) * 10**6 // 2, 5 * 10**9
        b = make_stream(np.concatenate([a.tags + half_fs, a.tags[::10] + offset_fs]),
                        span=a.acquisition_span_fs + half_fs)
        assert coarse_offset(a, b)[0] == offset_fs

    def test_weak_signal_recovered(self):
        a, b, offset_fs = weak_signal_streams()
        assert abs(coarse_offset(a, b)[0] - offset_fs) <= 10**6

    def test_large_span_refined_to_coarse_bin(self):
        # +/- 10 ms at 1 ns: 2e7 bins.
        rng = np.random.default_rng(11)
        a = poisson_stream(rng, 12000, 5.0)
        offset_fs = 5 * 10**12 + 2_345_678
        b = make_stream(a.tags + offset_fs, span=a.acquisition_span_fs + offset_fs)
        recovered, width, _ = coarse_offset(a, b, search_span_ms=10.0)
        assert abs(recovered - offset_fs) <= 10**6
        assert width == 10**6  # every pair lies in the one bin of the shift
        with pytest.raises(NoPeakError):
            coarse_offset(a, b)

    def test_width_measured_within_confirm_window(self):
        # Ten partners per tag of a, spread with a 300 ns rms: at the test
        # stride of 4, a peak of about 200 pairs per bin, above half of that
        # over the whole 129-bin confirm window.
        rng = np.random.default_rng(13)
        a = poisson_stream(rng, 12000, 5.0)
        offset_fs = 10**11
        spread = [a.tags + offset_fs + rng.normal(0, 3e8, a.tags.size).astype(np.int64)
                  for _ in range(10)]
        b = make_stream(np.concatenate(spread), span=a.acquisition_span_fs + 2 * offset_fs)
        recovered, width, _ = coarse_offset(a, b)
        assert abs(recovered - offset_fs) < 10**9
        assert width == (2 * correlate._CONFIRM_BINS + 1) * 10**6

    def test_empty_stream_rejected(self):
        empty = TagStream(np.empty(0, dtype=np.int64), 1000, 0, 0)
        rng = np.random.default_rng(6)
        a = poisson_stream(rng, 1000, 1.0)
        with pytest.raises(ParameterError):
            coarse_offset(empty, a)


def _record_confirms(monkeypatch) -> list[tuple[int, int]]:
    """Centre and number of tags of a of the kept passes from now on:
    coarse_offset makes one confirm per look, centred within 65 ns of the bin
    the look located."""
    passes = []
    keep = correlate.pair_diffs

    def recording(a, b, stride, centre_fs, half_fs):
        passes.append((centre_fs, len(a[::stride])))
        return keep(a, b, stride, centre_fs, half_fs)

    monkeypatch.setattr(correlate, "pair_diffs", recording)
    return passes


class TestLooks:
    def test_fig2a_found_in_a_sparse_look(self, monkeypatch):
        # One dense pass over the whole span takes 1.51e6 pairs and 18.0e6 bytes.
        a, b = run_simulation(presets.fig2a_config(), seed=0)
        tracemalloc.start()
        try:
            coarse_offset(a, b)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 8 * 10**6
        sizes = _record_yields(monkeypatch)
        confirms = _record_confirms(monkeypatch)
        coarse_offset(a, b)
        assert sum(sizes) < 2 * 10**5
        assert len(confirms) == 1

    @pytest.mark.parametrize("cfg", [
        presets.fig2a_config(),
        presets.fig2d_config(),
        presets.fig2d_config(1.0),
        presets.fig2d_config(0.0),
    ], ids=["fig2a", "fig2d", "positive", "none"])
    def test_single_look_agrees(self, cfg, monkeypatch):
        # With a first look as dense as the test, the one look locates the
        # fullest bin of the whole span at the test stride.
        a, b = run_simulation(cfg, seed=0)
        sizes = _record_yields(monkeypatch)
        default = coarse_offset(a, b)
        sparse_pairs = sum(sizes)
        monkeypatch.setattr(correlate, "_LOOK_PAIRS", correlate._PAIR_BUDGET)
        assert coarse_offset(a, b)[:2] == default[:2]
        assert sum(sizes) - sparse_pairs > 4 * sparse_pairs

    def test_later_look_recovers_missed_peak(self, monkeypatch):
        # A first look of about 370 pairs holds none of the 300 shared tags.
        a, b, offset_fs = weak_signal_streams()
        default = coarse_offset(a, b)
        monkeypatch.setattr(correlate, "_LOOK_PAIRS", 1 << 8)
        confirms = _record_confirms(monkeypatch)
        assert coarse_offset(a, b)[:2] == default[:2]
        centres = [centre for centre, _ in confirms]
        assert len(centres) > 1
        assert abs(centres[0] - offset_fs) > 65 * 10**6
        assert abs(centres[-1] - offset_fs) <= 65 * 10**6


def _coarse_outcome(a, b):
    """coarse_offset's offset, width and kept pairs, or its NoPeakError text."""
    try:
        offset, width, kept = coarse_offset(a, b)
    except NoPeakError as exc:
        return str(exc)
    return offset, width, kept.stride, kept.centre_fs, kept.half_fs, kept.diffs.tobytes()


def _record_exact_counts(monkeypatch) -> list[int]:
    """The exact counts of the span's pairs coarse_offset takes from now on."""
    counts = []
    pairs_within = correlate._pairs_within

    def recording(a, b, lo_fs, hi_fs):
        counts.append(pairs_within(a, b, lo_fs, hi_fs))
        return counts[-1]

    monkeypatch.setattr(correlate, "_pairs_within", recording)
    return counts


def _always_exact(monkeypatch):
    """Make coarse_offset count the span's pairs exactly up front: the bounds
    are both the exact count."""
    exact = correlate._pairs_within
    monkeypatch.setattr(correlate, "_span_bounds",
                        lambda a, b, half_fs: (exact(a, b, -half_fs, half_fs),) * 2)


def _weak_peak_streams(seed, rate_hz, peak, beside):
    """0.2 s streams at rate_hz; b also holds copies of peak tags of a at a
    whole-ns offset, spread over 400 ps, and of beside more one bin later."""
    rng = np.random.default_rng(seed)
    a = poisson_stream(rng, rate_hz, 0.2)
    noise = poisson_stream(rng, rate_hz, 0.2).tags
    offset_fs = int(rng.integers(-5 * 10**5, 5 * 10**5)) * 10**6
    n = min(peak + beside, len(a))
    copies = rng.choice(a.tags, n, replace=False) + rng.integers(-2 * 10**5, 2 * 10**5, n)
    copies[peak:] += 10**6
    return a, make_stream(np.concatenate([noise, copies + offset_fs]),
                          span=a.acquisition_span_fs + 10**12)


class TestSpanBounds:
    """coarse_offset decides its test from bounds on the span's pairs and
    counts them exactly only when the bounds could change the result."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rate_hz=st.integers(2000, 100_000),
           peak=st.integers(0, 30), beside=st.integers(0, 20))
    # The bounds' widths disagree; the exact count gives the lower bound's
    # width in the first and the upper bound's in the second.
    @example(seed=1835295431, rate_hz=61583, peak=25, beside=13)
    @example(seed=377382283, rate_hz=98598, peak=21, beside=11)
    def test_matches_the_exact_count(self, seed, rate_hz, peak, beside):
        # 0.2 s streams hold 0.002 to 2 accidentals per 1 ns bin, so a
        # 5 sigma bin holds about 4 to 17 pairs.  b holds copies of a few tags
        # of a: peak of them in one bin and beside in the next, a weak peak on
        # either side of the line, one or two bins wide, or none.
        a, b = _weak_peak_streams(seed, rate_hz, peak, beside)
        bounded = _coarse_outcome(a, b)
        with pytest.MonkeyPatch.context() as mp:
            _always_exact(mp)
            assert _coarse_outcome(a, b) == bounded

    @settings(max_examples=60, deadline=None)
    @given(where=st.sampled_from(["negative", "int64 min", "int64 max"]),
           span_ms=st.sampled_from([1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
    def test_bounds_hold(self, where, span_ms, seed):
        # Tags within 6 half-spans of a point, each tag of a with two
        # neighbours 1 and 2 fs later, so that a's buckets hold several tags
        # and the bounds are summed over buckets.  Near either end of int64,
        # the outer bucket edges fall beyond it.
        half = (2 * round(span_ms * 10**6) + 1) * 10**6 // 2
        start = {"negative": -3 * half, "int64 min": -(2**63),
                 "int64 max": 2**63 - 1 - 6 * half}[where]
        rng = np.random.default_rng(seed)
        a = np.sort((rng.integers(0, 6 * half - 2, 30)[:, None] + np.arange(3)).ravel() + start)
        b = np.sort(np.concatenate([rng.integers(0, 6 * half + 1, 60) + start,
                                    [start, start + 6 * half]]))
        diffs = b[None, :] - a[:, None]  # within 6 half-spans: no overflow
        exact = int(((diffs >= -half) & (diffs < half)).sum())
        buckets = (b // half)[None, :] - (a // half)[:, None]
        lo, hi = correlate._span_bounds(a, b, half)
        assert (lo, hi) == ((buckets == 0).sum(), (abs(buckets) <= 1).sum())
        assert lo <= exact <= hi
        if where == "negative":
            assert correlate._pairs_within(a, b, -half, half) == exact

    def test_disagreeing_bounds_take_the_exact_count(self, monkeypatch):
        a, b = run_simulation(presets.fig2a_config(), seed=0)
        counted = _record_exact_counts(monkeypatch)
        default = _coarse_outcome(a, b)
        assert counted == []  # a strong peak: the bounds settle it, and no look counts
        # A mean of 0 passes the peak; one above it fails it.
        monkeypatch.setattr(correlate, "_span_bounds", lambda *args: (0, 2**62))
        assert _coarse_outcome(a, b) == default
        assert len(counted) == 1

    def test_no_peak_reports_the_exact_count(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = poisson_stream(rng, 12000, 5.0, site_id=0)
        b = poisson_stream(rng, 12000, 5.0, site_id=1)
        counted = _record_exact_counts(monkeypatch)
        message = _coarse_outcome(a, b)
        assert len(counted) == 1
        m = re.search(r"fullest bin (\d+) pairs against a mean of (\S+) over", message)
        assert m.group(2) == f"{(counted[0] - int(m.group(1))) / 2000000:.3g}"
        _always_exact(monkeypatch)
        assert _coarse_outcome(a, b) == message

    @pytest.mark.parametrize("cfg, expected", [
        (presets.fig2a_config(), (0, 10**6, 30396, "4c1b012feeeadea5")),
        (presets.fig2d_config(), (-266221000000, 10**6, 1900, "5f2ef9a9072ab87f")),
        (presets.fig2d_config(1.0), (-266221000000, 5 * 10**6, 1900, "d8e9a55ce1c71235")),
        (presets.fig2d_config(0.0), (-266221000000, 4 * 10**6, 1900, "8acf79280289b299")),
    ], ids=["fig2a", "fig2d", "positive", "none"])
    def test_seed_0_pinned(self, cfg, expected):
        # Offsets, widths and kept pairs as the exact count up front gave them.
        a, b = run_simulation(cfg, seed=0)
        offset, width, kept = coarse_offset(a, b)
        assert (kept.stride, kept.centre_fs, kept.half_fs) == (1, offset, 64_500_000)
        digest = hashlib.sha256(kept.diffs.tobytes()).hexdigest()[:16]
        assert (offset, width, kept.diffs.size, digest) == expected


class TestFullestBin:
    """A look locates the bin below nbins that most of its pairs fall in, the
    smallest on a tie; bin nbins holds only the closed window's right edge."""

    def test_tie_goes_to_the_smallest_bin(self):
        idx = np.array([9, 3, 7, 9, 3, 11, 11, 11, 11], dtype=np.uint16)
        assert correlate._fullest_bin(idx, 11) == 3

    def test_edge_only(self):
        assert correlate._fullest_bin(np.full(4, 11, dtype=np.uint16), 11) == 11

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=60))
    def test_matches_unique_counts(self, values):
        idx = np.array(values, dtype=np.uint32)
        located, hits = np.unique(idx, return_counts=True)
        hits[located == 12] = 0
        assert correlate._fullest_bin(idx, 12) == located[np.argmax(hits)]

    def test_edge_only_look_confirms_the_last_window(self, monkeypatch):
        # Tags 3 ms apart, each with one partner exactly +half away: every
        # look's pairs lie on the closed edge, so each confirms the last
        # window inside the span, and none passes.
        a = make_stream(np.arange(1000) * 3 * 10**12)
        half_fs = (2 * 10**6 + 1) * 10**6 // 2
        b = make_stream(a.tags + half_fs)
        confirms = _record_confirms(monkeypatch)
        with pytest.raises(NoPeakError):
            coarse_offset(a, b)
        assert confirms and {c for c, _ in confirms} == {(10**6 - 64) * 10**6}


def _tail_points(means, z_max):
    """(k, mean) pairs with k + 1 > mean, up to mean + z_max (sqrt(mean) + 1):
    both ends, the mode, and spots through the upper tail."""
    for m in means:
        lo, hi = math.floor(m), int(m + z_max * (math.sqrt(m) + 1))
        ks = {lo, lo + 1, hi} | {int(v) for v in np.linspace(lo, hi, 7)}
        ks |= {int(m + z * math.sqrt(m)) for z in (0.5, 2, 5, 10, 20, 30)}
        for k in sorted(v for v in ks if v <= hi):
            yield k, m


class TestPoissonTail:
    """correlate._poisson_sf(k, mean) = P(X > k) for X ~ Poisson(mean) with
    mean < k + 1, the regularized lower incomplete gamma P(k + 1, mean): the
    coarse peak's p.  coarse_offset takes p = 1 at or below the mean."""

    MEANS = (1e-3, 0.1, 0.7, 1.0, 3.5, 10.0, 31.6, 100.0, 1e3, 1e4, 1e5, 1e6, 2e6)

    def test_matches_mpmath(self):
        # Within 3e-12 here.  At a mean of 2e6, ln(mean^k e^-mean / k!) from
        # math.lgamma is off by 4e-9, and the deviance without log1p by 2e-10.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k, m in _tail_points(self.MEANS, 40):
                try:
                    ref = float(mpmath.gammainc(k + 1, 0, m, regularized=True))
                except mpmath.libmp.NoConvergence:
                    # mpmath's series gives up near k = mean at large means,
                    # where P is about 1/2 and its complement keeps 40 digits.
                    ref = float(1 - mpmath.gammainc(k + 1, m, mpmath.inf, regularized=True))
                got = correlate._poisson_sf(k, m)
                if ref < 1e-300:  # near or below the smallest normal double
                    assert got < 1e-300, (k, m, got)
                else:
                    assert got == pytest.approx(ref, rel=1e-10), (k, m)

    def test_matches_scipy(self):
        # scipy's pdtrc drifts from mpmath beyond about 20 sigma (P < 1e-80),
        # by up to 6e-12 at these means, and by more at large means: 4.6e-6 at
        # k = 1005000, mean = 1e6.
        pdtrc = pytest.importorskip("scipy.special").pdtrc
        for k, m in _tail_points([m for m in self.MEANS if m <= 1e4], 20):
            assert correlate._poisson_sf(k, m) == pytest.approx(float(pdtrc(k, m)), rel=1e-12), (k, m)

    def test_zero_mean_and_zero_count(self):
        for k in (0, 1, 5, 10**6):
            assert correlate._poisson_sf(k, 0.0) == 0.0
        for m in (1e-3, 0.5):
            assert correlate._poisson_sf(0, m) == pytest.approx(-math.expm1(-m), rel=1e-14)


class TestG2Normalize:
    def test_independent_streams_baseline_unity(self):
        rng = np.random.default_rng(7)
        a = poisson_stream(rng, 12000, 5.0)
        b = poisson_stream(rng, 12000, 5.0)
        h = fine_histogram(a, b, 0, -5 * 10**8, 10**6, 1000)
        g2 = g2_normalize(h, a.rate_hz(), b.rate_hz(), 5.0)
        assert g2.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_counts_zero(self):
        h = Histogram(10.0, -100.0, np.zeros(20, dtype=np.int64))
        assert np.all(g2_normalize(h, 1000.0, 1000.0, 1.0) == 0.0)

    def test_zero_rate_rejected(self):
        h = Histogram(10.0, -100.0, np.zeros(20, dtype=np.int64))
        with pytest.raises(ParameterError):
            g2_normalize(h, 0.0, 1000.0, 1.0)


class TestHistogramInvariants:
    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            Histogram(10.0, -100.0, np.array([-1, 1]))
