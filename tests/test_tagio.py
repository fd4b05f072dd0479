"""Serialization and transport tests: byte-exact round trips, wire layout, errors."""

import io
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndcsim import tagio
from ndcsim.errors import (
    BadMagicError,
    ParameterError,
    TagFormatError,
    TransportError,
    TruncatedFileError,
    UnsortedTagsError,
    VersionMismatchError,
)
from ndcsim.streams import TagStream
from ndcsim.tagio import (
    HEADER_SIZE,
    MAGIC,
    TagWriter,
    Terminal,
    pack_header,
    read_tags,
    receive_stream,
    send_to_terminal,
    site_send,
    write_tags,
)


def stream_of(tags, resolution_fs=1000, site_id=0, span=None):
    tags = np.asarray(tags, dtype=np.int64)
    if span is None:
        span = int(tags[-1]) if tags.size else 0
    return TagStream(tags=tags, resolution_fs=resolution_fs, site_id=site_id,
                     acquisition_span_fs=span)


class TestFileFormat:
    def test_header_size(self):
        assert HEADER_SIZE == 38

    def test_empty_stream_is_header_only(self):
        buf = io.BytesIO()
        n = write_tags(stream_of([]), buf)
        assert n == 38
        assert len(buf.getvalue()) == 38

    def test_round_trip_bytes_identical(self):
        s = stream_of([0, 1000, 5000, 5000, 123456789], site_id=7, span=10**9)
        buf = io.BytesIO()
        write_tags(s, buf)
        raw1 = buf.getvalue()
        back = read_tags(io.BytesIO(raw1))
        assert back == s
        assert back.site_id == 7
        assert back.acquisition_span_fs == 10**9
        buf2 = io.BytesIO()
        write_tags(back, buf2)
        assert buf2.getvalue() == raw1

    def test_path_round_trip(self, tmp_path):
        s = stream_of(np.arange(1000) * 12345, site_id=3)
        p = tmp_path / "a.tags"
        write_tags(s, p)
        assert p.stat().st_size == 38 + 8 * 1000
        assert read_tags(p) == s

    def test_write_copies_no_payload(self, tmp_path):
        s = stream_of(np.arange(10**6) * 1000)  # 8 MB of tags
        tracemalloc.start()
        try:
            write_tags(s, tmp_path / "a.tags")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert read_tags(tmp_path / "a.tags") == s

    def test_read_holds_one_copy_of_payload(self, tmp_path):
        # The header is read first, then the payload unbuffered: no second
        # copy from slicing a whole-file read or joining a read buffer.
        s = stream_of(np.arange(10**6) * 1000)  # 8 MB of tags
        write_tags(s, tmp_path / "a.tags")
        tracemalloc.start()
        try:
            back = read_tags(tmp_path / "a.tags")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**7
        assert back == s

    @settings(max_examples=50, deadline=None)
    @given(
        tags=st.lists(st.integers(0, 2**62), max_size=200),
        site=st.integers(0, 2**32 - 1),
        res=st.integers(1, 10**6),
    )
    def test_round_trip_hypothesis(self, tags, site, res):
        s = stream_of(sorted(tags), resolution_fs=res, site_id=site,
                      span=max(tags, default=0))
        buf = io.BytesIO()
        write_tags(s, buf)
        assert read_tags(io.BytesIO(buf.getvalue())) == s

    def test_bad_magic(self):
        raw = b"XXXXXXXX" + bytes(30)
        with pytest.raises(BadMagicError):
            read_tags(io.BytesIO(raw))

    def test_version_mismatch(self):
        raw = MAGIC + struct.pack("<H", 99) + bytes(28)
        with pytest.raises(VersionMismatchError):
            read_tags(io.BytesIO(raw))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFileError):
            read_tags(io.BytesIO(MAGIC + b"\x01"))

    def test_truncated_payload_names_counts(self):
        s = stream_of([1, 2, 3, 4, 5])
        buf = io.BytesIO()
        write_tags(s, buf)
        raw = buf.getvalue()[:-16]  # drop the last two tags
        with pytest.raises(TruncatedFileError) as err:
            read_tags(io.BytesIO(raw))
        assert "5" in str(err.value)
        assert "3" in str(err.value)

    def test_trailing_data(self):
        raw = pack_header(0, 1000, 1, 0) + bytes(16)
        with pytest.raises(TagFormatError, match="data past the header's 1 tags") as err:
            read_tags(io.BytesIO(raw))
        assert not isinstance(err.value, TruncatedFileError)

    def test_unsorted_payload_names_index(self):
        header = pack_header(site_id=0, resolution_fs=1000, tag_count=3,
                             acquisition_span_fs=100)
        payload = np.array([10, 5, 20], dtype="<i8").tobytes()
        with pytest.raises(UnsortedTagsError) as err:
            read_tags(io.BytesIO(header + payload))
        assert "1" in str(err.value)


class TestTagWriter:
    def test_blocks_write_the_bytes_of_one_stream(self):
        tags = np.array([-7, 0, 5, 5, 9, 12, 40], dtype=np.int64)
        buf = io.BytesIO()
        with TagWriter(buf, 1000, 3) as writer:
            for block in (tags[:3], tags[3:3], tags[3:6], tags[6:]):
                writer.append(block)
            writer.close(40)
        whole = io.BytesIO()
        write_tags(stream_of(tags, site_id=3, span=40), whole)
        assert buf.getvalue() == whole.getvalue()

    def test_block_before_previous_block_rejected(self):
        writer = TagWriter(io.BytesIO(), 1000, 0)
        writer.append(np.array([1, 5]))
        with pytest.raises(UnsortedTagsError, match="before the previous block's last tag"):
            writer.append(np.array([4, 6]))
        writer.append(np.array([5, 6]))  # ties across the join are kept

    def test_unfinished_header_rejected(self, tmp_path):
        # a writer that never closed, as a killed run leaves its file
        buf = io.BytesIO()
        TagWriter(buf, 1000, 0).append(np.arange(3))
        for read in (_read_file, _read_socket):
            with pytest.raises(TruncatedFileError, match="never finalized"):
                read(buf.getvalue(), tmp_path)

    def test_unclosed_writer_discarded(self, tmp_path):
        # leaving the block without close() and without an exception discards
        path, buf = tmp_path / "a.tags", io.BytesIO()
        for destination in (path, buf):
            with TagWriter(destination, 1000, 0) as writer:
                writer.append(np.arange(3))
        assert not path.exists()
        with pytest.raises(TruncatedFileError, match="never finalized"):
            read_tags(io.BytesIO(buf.getvalue()))

    def test_exception_deletes_the_file(self, tmp_path):
        path = tmp_path / "a.tags"
        with pytest.raises(RuntimeError), TagWriter(path, 1000, 0) as writer:
            writer.append(np.arange(3))
            raise RuntimeError
        assert not path.exists()

    def test_exception_leaves_a_file_object_unfinished(self):
        buf = io.BytesIO()
        with pytest.raises(RuntimeError), TagWriter(buf, 1000, 0) as writer:
            writer.append(np.arange(3))
            raise RuntimeError
        with pytest.raises(TruncatedFileError, match="never finalized"):
            read_tags(io.BytesIO(buf.getvalue()))


SRC = Path(__file__).resolve().parent.parent / "src"

# Receives a header claiming 2^27 tags (1 GiB), then 8 MB and a close, in a
# fresh process, whose peak RSS no earlier test has raised.  Prints the error
# and the growth of the peak RSS in KiB.  The peak is the process's VmHWM:
# Linux carries the spawning process's peak into ru_maxrss across exec, so
# ru_maxrss would not grow below the size of the test process.
_CLAIM_MORE_THAN_ARRIVE = """
import socket, threading
from ndcsim.errors import TransportError
from ndcsim.tagio import pack_header, receive_stream

def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

raw = pack_header(0, 1000, 2**27, 100) + bytes(8 * 2**20)
a, b = socket.socketpair()

def send():
    with a:
        a.sendall(raw)

before = peak_kib()
sender = threading.Thread(target=send)
sender.start()
try:
    with b:
        receive_stream(b)
except TransportError as exc:
    print(type(exc).__name__)
sender.join(timeout=30)
print(peak_kib() - before)
"""


def _send_raw(raw):
    """Socket end that reads ``raw`` followed by end of stream."""
    a, b = socket.socketpair()
    with a:
        a.sendall(raw)
    return b


@st.composite
def wire_bytes(draw):
    """Arbitrary bytes, or a well-formed stream that may be unsorted, cut or extended."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=128))
    tags = draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=6))
    if draw(st.booleans()):
        tags.sort()
    raw = pack_header(3, 1000, len(tags), draw(st.integers(0, 2**64 - 1)))
    raw += np.array(tags, dtype="<i8").tobytes()
    cut = draw(st.none() | st.integers(0, len(raw)))
    return raw[:cut] + draw(st.just(b"") | st.binary(max_size=9))


class TestWireTransport:
    def _loopback(self, stream):
        a, b = socket.socketpair()
        received = {}

        def rx():
            with b:
                received["stream"] = receive_stream(b)

        t = threading.Thread(target=rx)
        t.start()
        with a:
            site_send(stream, a)
        t.join(timeout=10)
        return received["stream"]

    def test_loopback_round_trip(self):
        s = stream_of(np.cumsum(np.arange(10_000, dtype=np.int64)), site_id=2)
        assert self._loopback(s) == s

    def test_zero_tags_header_only(self):
        s = stream_of([], site_id=4, span=5 * 10**15)
        back = self._loopback(s)
        assert len(back) == 0
        assert back.acquisition_span_fs == 5 * 10**15

    def test_wire_bytes_are_file_bytes(self):
        s = stream_of(np.arange(9000) * 777, site_id=5, span=10**10)
        a, b = socket.socketpair()
        t = threading.Thread(target=site_send, args=(s, a))
        t.start()
        wire = bytearray()
        with a, b:
            while chunk := b.recv(65536):
                wire.extend(chunk)
            t.join(timeout=10)
        buf = io.BytesIO()
        write_tags(s, buf)
        assert bytes(wire) == buf.getvalue()

    def test_trailing_data(self):
        header = pack_header(0, 1000, 1, 100)
        with _send_raw(header + bytes(8) + b"\x00") as b, pytest.raises(TagFormatError) as err:
            receive_stream(b)
        assert "past the header's 1 tags" in str(err.value)

    def test_count_mismatch(self):
        header = pack_header(0, 1000, 5, 100)
        payload = np.array([1, 2], dtype="<i8").tobytes()
        with _send_raw(header + payload) as b, pytest.raises(TransportError):
            receive_stream(b)

    def test_huge_count_is_short_payload(self):
        header = pack_header(0, 1000, 2**61, 100)
        with _send_raw(header + bytes(800)) as b, pytest.raises(TransportError):
            receive_stream(b)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_claimed_tags_cost_only_received_bytes(self):
        # RSS, not tracemalloc, which counts the whole 1 GiB reservation.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-c", _CLAIM_MORE_THAN_ARRIVE], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        error, grown_kib = run.stdout.split()
        assert error == "TransportError"
        assert int(grown_kib) < 64 * 1024

    @pytest.mark.parametrize("refused", [False, True], ids=["host", "refused"])
    def test_unallocatable_count_is_transport_error(self, monkeypatch, refused):
        # 2^40 tags are 8 TiB: the host may refuse them or reserve them.
        if refused:
            def refuse(*args, **kwargs):
                raise MemoryError("refused")
            monkeypatch.setattr(np, "empty", refuse)
        header = pack_header(0, 1000, 2**40, 100)
        with _send_raw(header + bytes(800)) as b, pytest.raises(TransportError):
            receive_stream(b)

    def test_stream_sent_in_pieces(self):
        tags = np.sort(np.random.default_rng(5).integers(-2**62, 2**62, 200))
        raw = pack_header(6, 1000, tags.size, 10**12) + tags.astype("<i8").tobytes()
        a, b = socket.socketpair()

        def send():
            with a:
                for i in range(0, len(raw), 7):
                    a.sendall(raw[i:i + 7])
                    time.sleep(1e-4)

        sender = threading.Thread(target=send)
        sender.start()
        with b:
            got = receive_stream(b)
        sender.join(timeout=10)
        assert not sender.is_alive()
        assert got == read_tags(io.BytesIO(raw))
        assert got.site_id == 6

    def test_unsorted_payload_names_index(self):
        header = pack_header(0, 1000, 3, 100)
        payload = np.array([50, 60, 10], dtype="<i8").tobytes()
        with _send_raw(header + payload) as b, pytest.raises(UnsortedTagsError) as err:
            receive_stream(b)
        assert "index 2" in str(err.value)

    def test_connection_closed_mid_message(self):
        with _send_raw(MAGIC + b"\x01") as b, pytest.raises(TransportError):
            receive_stream(b)

    @settings(max_examples=200, deadline=None)
    @given(raw=wire_bytes())
    def test_any_bytes_decode_as_the_file_would(self, raw):
        with _send_raw(raw) as b:
            try:
                got = receive_stream(b)
            except (TagFormatError, TransportError):
                return
        assert got == read_tags(io.BytesIO(raw))


def _read_file(raw, tmp_path):
    path = tmp_path / "s.tags"
    path.write_bytes(raw)
    return read_tags(path)


def _read_socket(raw, _tmp_path):
    with _send_raw(raw) as b:
        return receive_stream(b)


@pytest.mark.parametrize("read", [_read_file, _read_socket], ids=["file", "socket"])
class TestDecodedStream:
    def test_view_of_received_bytes_equals_written(self, read, tmp_path):
        # The extremes of int64 are sorted, though their difference overflows.
        s = stream_of([-2**63, -5, 0, 0, 2**63 - 1], site_id=4, span=10**9)
        buf = io.BytesIO()
        write_tags(s, buf)
        back = read(buf.getvalue(), tmp_path)
        assert back == s
        assert not back.tags.flags.owndata
        assert back.tags.flags.aligned

    def test_unsorted_names_first_index(self, read, tmp_path):
        # Subtracting neighbours would wrap here and blame index 2.
        raw = pack_header(0, 1000, 3, 100)
        raw += np.array([2**63 - 1, -2**63, 5], dtype="<i8").tobytes()
        with pytest.raises(UnsortedTagsError, match="first offending index 1$"):
            read(raw, tmp_path)

    def test_zero_resolution_rejected(self, read, tmp_path):
        raw = pack_header(0, 0, 3, 100) + np.arange(3, dtype="<i8").tobytes()
        with pytest.raises(TagFormatError, match="resolution must be >= 1 fs, got 0"):
            read(raw, tmp_path)

    @pytest.mark.parametrize("resolution_fs", [2**63, 2**64 - 1])
    def test_resolution_beyond_int64_rejected(self, read, tmp_path, resolution_fs):
        # No tick of a TimerSpec is this long; numpy's gcd overflowed on it.
        raw = pack_header(0, resolution_fs, 3, 100) + np.arange(3, dtype="<i8").tobytes()
        with pytest.raises(TagFormatError, match=f"<= 2\\*\\*63 - 1 fs, got {resolution_fs}"):
            read(raw, tmp_path)


@pytest.mark.parametrize("field, value", [
    ("resolution_fs", 2**63), ("site_id", 2**32), ("site_id", -1),
    ("acquisition_span_fs", 2**64), ("acquisition_span_fs", -1)])
def test_stream_holds_only_what_a_header_carries(field, value):
    # write_tags used to fail on these with struct.error, which is no NdcError.
    fields = dict(tags=np.arange(3), resolution_fs=1000, site_id=0, acquisition_span_fs=10)
    with pytest.raises(ParameterError, match=field):
        TagStream(**{**fields, field: value})
    widest = TagStream(**{**fields, "resolution_fs": 2**63 - 1, "site_id": 2**32 - 1,
                          "acquisition_span_fs": 2**64 - 1})
    buf = io.BytesIO()
    write_tags(widest, buf)
    assert read_tags(io.BytesIO(buf.getvalue())) == widest


def test_unaligned_tags_copied_aligned():
    # Tags 38 bytes into a buffer, as they stand in a tag file.
    raw = bytes(HEADER_SIZE) + np.arange(5, dtype="<i8").tobytes()
    tags = np.frombuffer(raw, dtype="<i8", offset=HEADER_SIZE)
    assert not tags.flags.aligned
    s = TagStream(tags, 1000, 0, 10)
    assert s.tags.flags.aligned
    assert np.array_equal(s.tags, np.arange(5))


class TestTerminal:
    def test_two_sites_collected(self):
        terminal = Terminal()
        port = terminal.port
        sa = stream_of(np.arange(100) * 1000, site_id=0)
        sb = stream_of(np.arange(50) * 2000, site_id=1)
        result = {}

        def collect():
            result["streams"] = terminal.collect(n_sites=2)

        t = threading.Thread(target=collect)
        t.start()
        send_to_terminal(sa, ("127.0.0.1", port))
        send_to_terminal(sb, ("127.0.0.1", port))
        t.join(timeout=30)
        assert result["streams"][0] == sa
        assert result["streams"][1] == sb

    def test_duplicate_site_rejected(self):
        terminal = Terminal()
        port = terminal.port
        sa = stream_of(np.arange(10) * 1000, site_id=0)
        dup = stream_of(np.arange(20) * 500, site_id=0)
        sb = stream_of(np.arange(10) * 3000, site_id=1)
        result = {}

        def collect():
            result["streams"] = terminal.collect(n_sites=2)

        t = threading.Thread(target=collect)
        t.start()
        send_to_terminal(sa, ("127.0.0.1", port))
        with pytest.raises(TransportError):
            send_to_terminal(dup, ("127.0.0.1", port))
        send_to_terminal(sb, ("127.0.0.1", port))
        t.join(timeout=30)
        assert set(result["streams"]) == {0, 1}
        assert result["streams"][0] == sa

    def test_stalled_site_times_out(self, monkeypatch):
        monkeypatch.setattr(tagio, "TIMEOUT_S", 0.5)
        terminal = Terminal()
        result = {}

        def collect():
            try:
                terminal.collect(n_sites=2)
            except TransportError as exc:
                result["error"] = exc

        t = threading.Thread(target=collect, daemon=True)
        t.start()
        with socket.create_connection(("127.0.0.1", terminal.port)) as sock:
            sock.sendall(pack_header(0, 1000, 1, 0)[:HEADER_SIZE // 2])
            t.join(timeout=10)
        assert not t.is_alive()
        assert "connection error" in str(result["error"])

    def test_port_in_use(self):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            with pytest.raises(TransportError, match=f"cannot listen on 127.0.0.1:{port}"):
                Terminal(port=port)

    def test_unreachable_terminal(self):
        s = stream_of([1000])
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(TransportError):
            send_to_terminal(s, ("127.0.0.1", free_port))
