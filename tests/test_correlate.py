"""Correlator tests against an all-pairs brute-force oracle."""

import concurrent.futures
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndcsim import correlate, presets
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
        # tag lies past every window, so that the kernel can walk.
        a, b = make_stream([0]), make_stream([0, 10**12])
        for walk_below in (0, math.inf):
            monkeypatch.setattr(correlate, "_WALK_PAIRS", walk_below)
            for origin, bin_fs, nbins in ((-100_000, 10_000, 20), (-104_999, 11_001, 19)):
                end = origin + nbins * bin_fs
                for d, hit in ((origin - 1, []), (origin, [0]), (end - 1, [nbins - 1]),
                               (end, [])):
                    h = fine_histogram(a, b, -d, origin, bin_fs, nbins)
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
        recovered, width = coarse_offset(a, b, search_span_ms=1.0)
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
        full, _ = coarse_offset(a, b)
        sources = []
        histogram = correlate.fine_histogram

        def spy(a, *args):
            sources.append(len(a))
            return histogram(a, *args)

        # about 5.8e5 expected pairs against a budget of 2^14: stride 36
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_PAIR_BUDGET", 1 << 14)
            mp.setattr(correlate, "fine_histogram", spy)
            assert coarse_offset(a, b)[0] == full
        assert sources[0] < len(a) // 30
        assert abs(full - offset_fs) <= 5 * 10**5

    def test_stride_counts_true_partners(self, monkeypatch):
        # A 21 ps window holds almost no accidentals, but every tag of a has
        # its true partner in it: 12000 expected pairs against a budget of 1000.
        rng = np.random.default_rng(12)
        a = poisson_stream(rng, 12000, 1.0)
        monkeypatch.setattr(correlate, "_SEED_PAIRS", 1000)
        stride = -(-len(a) // 1000)  # without the partner term: 1
        assert correlate._budget_stride(a.tags, a.tags, 21 * 1000, 1000) == stride
        h = correlate.strided_counts(a, a, 0, 1000, 10)
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
        recovered, width = coarse_offset(a, b, search_span_ms=10.0)
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
        recovered, width = coarse_offset(a, b)
        assert abs(recovered - offset_fs) < 10**9
        assert width == (2 * correlate._CONFIRM_BINS + 1) * 10**6

    def test_empty_stream_rejected(self):
        empty = TagStream(np.empty(0, dtype=np.int64), 1000, 0, 0)
        rng = np.random.default_rng(6)
        a = poisson_stream(rng, 1000, 1.0)
        with pytest.raises(ParameterError):
            coarse_offset(empty, a)


def _record_confirms(monkeypatch) -> list[int]:
    """Offsets of the fine_histogram calls from now on: coarse_offset makes one
    per look, centred within 65 ns of the bin the look located."""
    offsets = []
    histogram = correlate.fine_histogram

    def recording(a, b, offset_fs, *args):
        offsets.append(offset_fs)
        return histogram(a, b, offset_fs, *args)

    monkeypatch.setattr(correlate, "fine_histogram", recording)
    return offsets


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
        centres = _record_confirms(monkeypatch)
        coarse_offset(a, b)
        assert sum(sizes) < 2 * 10**5
        assert len(centres) == 1

    @pytest.mark.parametrize("cfg", [
        presets.fig2a_config(),
        presets.fig2d_config(),
        presets.fig2d_config("positive"),
        presets.fig2d_config("none"),
    ], ids=["fig2a", "fig2d", "positive", "none"])
    def test_single_look_agrees(self, cfg, monkeypatch):
        # With a first look as dense as the test, the one look locates the
        # fullest bin of the whole span at the test stride.
        a, b = run_simulation(cfg, seed=0)
        sizes = _record_yields(monkeypatch)
        default = coarse_offset(a, b)
        sparse_pairs = sum(sizes)
        monkeypatch.setattr(correlate, "_LOOK_PAIRS", correlate._PAIR_BUDGET)
        assert coarse_offset(a, b) == default
        assert sum(sizes) - sparse_pairs > 4 * sparse_pairs

    def test_later_look_recovers_missed_peak(self, monkeypatch):
        # A first look of about 370 pairs holds none of the 300 shared tags.
        a, b, offset_fs = weak_signal_streams()
        default = coarse_offset(a, b)
        monkeypatch.setattr(correlate, "_LOOK_PAIRS", 1 << 8)
        centres = _record_confirms(monkeypatch)
        assert coarse_offset(a, b) == default
        assert len(centres) > 1
        assert abs(centres[0] - offset_fs) > 65 * 10**6
        assert abs(centres[-1] - offset_fs) <= 65 * 10**6


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
