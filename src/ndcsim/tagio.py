"""Bit-exact persistence and network transport for tag streams.

Layout: a fixed 38-byte little-endian header followed by ``tag_count`` tags
as signed 64-bit femtosecond values.  A file holds exactly these bytes, and a
site sends exactly these bytes over its connection, half-closes it, and reads
a one-byte verdict (``A`` accepted, ``R`` rejected) from the terminal.

A file is written by one ``TagWriter``, block by block: the header goes first
with a placeholder tag count and is rewritten when the writer closes, so a
file whose writer never closed is rejected on reading.

The terminal receives the payload straight into the tag array: one copy,
from the kernel's socket buffer into memory the array already holds.  That
memory is reserved from the header's tag count but committed page by page
only as bytes arrive, so a header claiming more tags than arrive costs
resident memory (RSS) only for the bytes received.  Allocation tracers such
as tracemalloc count the whole reservation, so the bound holds for RSS only.
"""

from __future__ import annotations

import os
import socket
import struct
from contextlib import nullcontext, suppress

import numpy as np

from .errors import (
    BadMagicError,
    TagFormatError,
    TransportError,
    TruncatedFileError,
    UnsortedTagsError,
    VersionMismatchError,
)
from .streams import TagStream

MAGIC = b"NDCTAG01"
VERSION = 1

_HEADER = struct.Struct("<8sHIQQQ")
HEADER_SIZE = _HEADER.size  # 8 + 2 + 4 + 8 + 8 + 8 = 38 bytes

# The tag count of a header its writer has not finalized: more tags than any
# file or host can hold.
_UNFINISHED = 2**64 - 1

# Seconds the terminal waits for a site to connect, and then for each read
# from a connected site.
TIMEOUT_S = 60.0

# Unused by the transport, which receives each payload in one buffer; kept
# because the benchmark's tracer (perfbench/tracing.py) reads it.
DEFAULT_BATCH = 4096


def pack_header(site_id: int, resolution_fs: int, tag_count: int,
                acquisition_span_fs: int) -> bytes:
    """The header of a stream of ``tag_count`` tags."""
    return _HEADER.pack(MAGIC, VERSION, site_id, resolution_fs, tag_count, acquisition_span_fs)


def _unpack_header(raw) -> tuple[int, dict]:
    """``(tag_count, fields)`` of a header, ``fields`` being TagStream keywords."""
    if len(raw) < HEADER_SIZE:
        raise TruncatedFileError(
            f"header truncated: expected {HEADER_SIZE} bytes, got {len(raw)}"
        )
    magic, version, site_id, resolution_fs, tag_count, span = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version {version}, expected {VERSION}")
    if tag_count == _UNFINISHED:
        raise TruncatedFileError("header never finalized: the file's writer did not close it")
    return tag_count, dict(site_id=site_id, resolution_fs=resolution_fs,
                           acquisition_span_fs=span)


def _encode(stream: TagStream) -> tuple[bytes, memoryview]:
    """The header bytes and a view of the payload, written or sent in turn."""
    header = pack_header(stream.site_id, stream.resolution_fs, len(stream),
                         stream.acquisition_span_fs)
    return header, stream.tags.astype("<i8", copy=False).data


class TagWriter:
    """Writes one tag stream a block of tags at a time.

    The header goes first, with a placeholder tag count that ``read_tags``
    rejects; ``append`` writes a block's tags after the previous block's, and
    ``close`` rewrites the header with the tag count and the span.  As a
    context manager, the writer closes on success; on an exception it deletes
    the file it created, or leaves a file object's header unfinished.

    ``destination`` is a path or a writable, seekable binary file object; the
    stream starts at its current position.
    """

    def __init__(self, destination, resolution_fs: int, site_id: int, min_span_fs: int = 0):
        self._path = None if hasattr(destination, "write") else destination
        self._file = destination if self._path is None else open(destination, "wb")
        self._start = self._file.tell()
        self._fields = (site_id, resolution_fs)
        self.min_span_fs = min_span_fs
        self.count = 0
        self.last: int | None = None
        try:
            self._file.write(pack_header(site_id, resolution_fs, _UNFINISHED, 0))
        except BaseException:
            self.discard()
            raise

    def append(self, tags: np.ndarray) -> None:
        """Write a sorted block of tags; a block may not start before the
        previous block's last tag (only that join is checked)."""
        if not tags.size:
            return
        if self.last is not None and tags[0] < self.last:
            raise UnsortedTagsError(f"block starts at {tags[0]} fs, before the previous "
                                    f"block's last tag at {self.last} fs")
        self._file.write(np.ascontiguousarray(tags, "<i8").data)
        self.count += tags.size
        self.last = int(tags[-1])

    def close(self, span_fs: int | None = None) -> int:
        """Finalize the header; returns the stream's byte count.

        The header's span is ``span_fs`` if given, else the larger of
        ``min_span_fs`` and the last tag.  A file the writer opened is closed.
        """
        if span_fs is None:
            span_fs = self.min_span_fs if self.last is None else max(self.min_span_fs, self.last)
        f = self._file
        end = f.tell()
        f.seek(self._start)
        f.write(pack_header(*self._fields, self.count, span_fs))
        f.seek(end)
        if self._path is not None:
            f.close()
        self._file = None
        return HEADER_SIZE + 8 * self.count

    def discard(self) -> None:
        """Stop writing without finalizing: close and delete the file the
        writer created."""
        f, self._file = self._file, None
        if self._path is not None and f is not None:
            f.close()
            with suppress(OSError):
                os.unlink(self._path)

    def __enter__(self) -> TagWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._file is not None:
                self.close()
        finally:
            self.discard()  # a no-op once closed


def write_tags(stream: TagStream, destination) -> int:
    """Serialize a stream (a ``TagWriter`` with one block); returns the byte
    count written.

    ``destination`` is a path or a writable, seekable binary file object.
    """
    with TagWriter(destination, stream.resolution_fs, stream.site_id) as writer:
        writer.append(stream.tags)
        return writer.close(stream.acquisition_span_fs)


def read_tags(source) -> TagStream:
    """Parse and validate a serialized stream; rejects rather than repairs.

    ``source`` is a path, read unbuffered, or a binary file object.  The header
    is read first, then the rest as the payload, which must be exactly its tags.
    The tags are a view of the payload, copied only on a big-endian host; a view
    of ``bytes`` is read-only.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb", buffering=0) as f:
        tag_count, fields = _unpack_header(f.read(HEADER_SIZE))
        payload = f.read()
    expected = tag_count * 8
    if len(payload) > expected:
        raise TagFormatError(f"data past the header's {tag_count} tags")
    if len(payload) < expected:
        raise TruncatedFileError(
            f"payload truncated: expected {tag_count} tags "
            f"({expected} bytes), got {len(payload) // 8} ({len(payload)} bytes)"
        )
    return TagStream(tags=np.frombuffer(payload, dtype="<i8"), **fields)


# ---------------------------------------------------------------------------
# Wire transport


def _recv_into(sock: socket.socket, buf) -> None:
    """Fill the writable buffer ``buf`` from ``sock``; end of stream first is an error."""
    view = memoryview(buf)
    n, got = view.nbytes, 0
    while got < n:
        try:
            k = sock.recv_into(view[got:])
        except OSError as exc:
            raise TransportError(f"connection error: {exc}") from exc
        if not k:
            raise TransportError(
                f"connection closed mid-message: expected {n} bytes, got {got}"
            )
        got += k


def site_send(stream: TagStream, connection: socket.socket) -> None:
    """Send the stream's tag-file bytes, then half-close the connection."""
    try:
        for part in _encode(stream):
            connection.sendall(part)
        connection.shutdown(socket.SHUT_WR)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def receive_stream(connection: socket.socket) -> TagStream:
    """Receive one stream: the header, exactly its tags, then end of stream.

    The tags are a view of the received payload bytes, so no copy is made.
    """
    header = bytearray(HEADER_SIZE)
    _recv_into(connection, header)
    tag_count, fields = _unpack_header(header)
    try:
        payload = np.empty(8 * tag_count, np.uint8)
    except (ValueError, MemoryError) as exc:
        raise TransportError(f"cannot hold the header's {tag_count} tags: {exc}") from exc
    _recv_into(connection, payload)
    try:
        extra = connection.recv(1)
    except OSError as exc:
        raise TransportError(f"connection error: {exc}") from exc
    if extra:
        raise TagFormatError(f"data past the header's {tag_count} tags")
    return TagStream(tags=payload.view("<i8"), **fields)


def send_to_terminal(stream: TagStream, address: tuple[str, int]) -> None:
    """Connect to a terminal and send one stream."""
    try:
        with socket.create_connection(address, timeout=30.0) as sock:
            site_send(stream, sock)
            # Wait for the terminal to acknowledge or reject the stream.
            verdict = bytearray(1)
            _recv_into(sock, verdict)
    except OSError as exc:
        raise TransportError(f"cannot reach terminal at {address[0]}:{address[1]}: {exc}") from exc
    if verdict != b"A":
        raise TransportError("terminal rejected the stream (duplicate site?)")


class Terminal:
    """Accepts one connection per site and collects their tag streams.

    A second connection presenting an already-seen site id is rejected.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = socket.create_server((host, port))
        self._server.settimeout(TIMEOUT_S)
        self.streams: dict[int, TagStream] = {}

    @property
    def port(self) -> int:
        return self._server.getsockname()[1]

    def collect(self, n_sites: int = 2) -> dict[int, TagStream]:
        """Block until ``n_sites`` distinct sites delivered their streams."""
        try:
            while len(self.streams) < n_sites:
                conn, _addr = self._server.accept()
                with conn:
                    conn.settimeout(TIMEOUT_S)
                    stream = receive_stream(conn)
                    if stream.site_id in self.streams:
                        conn.sendall(b"R")
                        continue
                    self.streams[stream.site_id] = stream
                    conn.sendall(b"A")
        except socket.timeout as exc:
            raise TransportError("timed out waiting for site connections") from exc
        finally:
            self.close()
        return self.streams

    def close(self) -> None:
        try:
            self._server.close()
        except OSError:
            pass
