"""Bit-exact persistence and network transport for tag streams.

Layout: a fixed 38-byte little-endian header followed by ``tag_count`` tags
as signed 64-bit femtosecond values.  A file holds exactly these bytes, and a
site sends exactly these bytes over its connection, half-closes it, and reads
a one-byte verdict (``A`` accepted, ``R`` rejected) from the terminal.
"""

from __future__ import annotations

import socket
import struct
from contextlib import nullcontext

import numpy as np

from .errors import (
    BadMagicError,
    TagFormatError,
    TransportError,
    TruncatedFileError,
    VersionMismatchError,
)
from .streams import TagStream

MAGIC = b"NDCTAG01"
VERSION = 1

_HEADER = struct.Struct("<8sHIQQQ")
HEADER_SIZE = _HEADER.size  # 8 + 2 + 4 + 8 + 8 + 8 = 38 bytes

# Seconds the terminal waits for a site to connect, and then for each read
# from a connected site.
TIMEOUT_S = 60.0

# Tags per receive call: bounds each read, so a header claiming more tags than
# arrive costs no more memory than the bytes actually received.
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
    return tag_count, dict(site_id=site_id, resolution_fs=resolution_fs,
                           acquisition_span_fs=span)


def _encode(stream: TagStream) -> tuple[bytes, memoryview]:
    """The header bytes and a view of the payload, written or sent in turn."""
    header = pack_header(stream.site_id, stream.resolution_fs, len(stream),
                         stream.acquisition_span_fs)
    return header, stream.tags.astype("<i8", copy=False).data


def write_tags(stream: TagStream, destination) -> int:
    """Serialize a stream; returns the byte count written.

    ``destination`` is a path or a writable binary file object.
    """
    with nullcontext(destination) if hasattr(destination, "write") else open(destination, "wb") as f:
        for part in _encode(stream):
            f.write(part)
    return HEADER_SIZE + 8 * len(stream)


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


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(min(n - len(buf), 8 * DEFAULT_BATCH))
        except OSError as exc:
            raise TransportError(f"connection error: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed mid-message: expected {n} bytes, got {len(buf)}"
            )
        buf.extend(chunk)
    return buf


def site_send(stream: TagStream, connection: socket.socket) -> None:
    """Send the stream's tag-file bytes, then half-close the connection."""
    try:
        for part in _encode(stream):
            connection.sendall(part)
        connection.shutdown(socket.SHUT_WR)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def receive_stream(connection: socket.socket) -> TagStream:
    """Receive one stream: the header, exactly its tags, then end of stream."""
    tag_count, fields = _unpack_header(_recv_exact(connection, HEADER_SIZE))
    payload = _recv_exact(connection, tag_count * 8)
    try:
        extra = connection.recv(1)
    except OSError as exc:
        raise TransportError(f"connection error: {exc}") from exc
    if extra:
        raise TagFormatError(f"data past the header's {tag_count} tags")
    return TagStream(tags=np.frombuffer(payload, dtype="<i8"), **fields)


def send_to_terminal(stream: TagStream, address: tuple[str, int]) -> None:
    """Connect to a terminal and send one stream."""
    try:
        with socket.create_connection(address, timeout=30.0) as sock:
            site_send(stream, sock)
            # Wait for the terminal to acknowledge or reject the stream.
            verdict = _recv_exact(sock, 1)
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
