"""Parse packet captures (classic pcap) and CSV traces into packet tables.

All timestamps are re-based so the first kept packet sits at t=0; downstream
math only ever uses trace-relative seconds.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BadMagic,
    ConfigError,
    RowParseError,
    SchemaMismatch,
    TruncatedHeader,
)
from .placement import child_cpu, fork_call, usable_cpus

PCAP_MAGIC = 0xA1B2C3D4
PCAP_NS_MAGIC = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
# bytes of capture read at a time; the parse holds about one chunk in memory
CHUNK_BYTES = 4 << 20
# a capture of at least this many chunks is parsed in two processes. Two is
# the count measured on the benchmark's capture, on a 2-CPU host; more
# processes, and the size at which a split pays, are unmeasured
SPLIT_CHUNKS = 4
# the split point is guessed from this many bytes after the middle of the
# capture, as the first offset that starts this many plausible chained headers
GUESS_WINDOW = 128 << 10
GUESS_CHAIN = 8
# the largest orig_len a guessed header may have: libpcap's largest snap
# length. It rules out the header four bytes on, whose orig_len is the start
# of the destination MAC address and whose other fields chain like the true
# ones in a capture without snap-length cuts
GUESS_MAX_ORIG = 1 << 18

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
MAX_LENGTH = 0xFFFFFFFF     # pcap stores lengths as 32-bit fields

CSV_HEADER = "ts,length,direction"
CSV_BLOCK_ROWS = 16384       # rows formatted per write by write_csv
DOWN, UP = "down", "up"


@dataclass(frozen=True, eq=False)
class PacketTable:
    """Packets as parallel columns in capture order."""

    ts: np.ndarray         # float64 seconds since the first kept packet
    length: np.ndarray     # int64 original (on-the-wire) length, bytes
    downlink: np.ndarray   # bool; True when the server sent the packet

    def __post_init__(self):
        object.__setattr__(self, "ts", np.asarray(self.ts, dtype=np.float64))
        object.__setattr__(self, "length", np.asarray(self.length, dtype=np.int64))
        object.__setattr__(self, "downlink", np.asarray(self.downlink, dtype=bool))

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, index) -> PacketTable:
        return PacketTable(self.ts[index], self.length[index], self.downlink[index])


@dataclass(frozen=True)
class EndpointFilter:
    """Traffic is classified relative to the rendering server address."""

    server_address: str
    port: int | None = None

    def __post_init__(self):
        parts = self.server_address.split(".")
        if len(parts) != 4 or not all(p.isascii() and p.isdigit() and 0 <= int(p) <= 255
                                      for p in parts):
            raise ConfigError(f"server must be a dotted-quad IPv4 address, got "
                              f"{self.server_address!r}")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")

    def packed_address(self) -> bytes:
        return bytes(int(p) for p in self.server_address.split("."))


@dataclass
class ParseResult:
    records: PacketTable
    skipped: int = 0      # non-IP / non-matching packets
    warnings: int = 0     # truncation events (parse stopped early)


def parse_pcap(stream: BinaryIO, filt: EndpointFilter) -> ParseResult:
    """Decode a classic pcap at the start of a seekable binary stream into the
    packets matching `filt`.

    Only Ethernet link-layer captures are supported. One 802.1Q tag is
    unwrapped; other non-IPv4 frames are skipped and counted, never fatal. A
    truncated record stops the scan; everything decoded so far is returned
    with the warning counter bumped. The capture is read CHUNK_BYTES at a
    time, so memory does not grow with its size.

    With two usable CPUs, a stream backed by a file, `fork`, and at least
    SPLIT_CHUNKS chunks, the records are walked in two halves at once (see
    `_split_walk`); the result is the same.
    """
    cap = _capture(stream, filt)
    split = None
    if (len(usable_cpus()) > 1 and cap.fd is not None and hasattr(os, "fork")
            and cap.size - GLOBAL_HEADER_LEN >= SPLIT_CHUNKS * CHUNK_BYTES):
        split = _guess_record_start(cap, cap.size // 2)
    if split is not None:
        ranges = _split_walk(cap, split)
    else:
        ranges = [_scan(cap, GLOBAL_HEADER_LEN, cap.size)]
    skipped = sum(r.skipped for r in ranges)
    warnings = ranges[-1].warnings
    parts = [part for r in ranges for part in r.parts]
    if not parts:
        return ParseResult(PacketTable([], [], []), skipped=skipped, warnings=warnings)
    ts, length, downlink = (np.concatenate(cols) for cols in zip(*parts))
    if ts.size:
        ts -= ts[0]
    return ParseResult(PacketTable(ts, length, downlink), skipped=skipped, warnings=warnings)


@dataclass(frozen=True)
class _Capture:
    """A checked pcap's layout, how to read it, and the filter of its records."""

    read_at: Callable[[memoryview, int], int]  # fills a buffer from an offset; bytes read
    fd: int | None         # the file descriptor behind the stream, if any
    size: int
    endian: str
    frac_scale: float      # seconds per unit of a timestamp's fraction field
    snaplen: int
    server: np.uint32
    port: int | None


def _capture(stream: BinaryIO, filt: EndpointFilter) -> _Capture:
    """The checked global header of the capture in `stream`, and its reader:
    `os.preadv` on the stream's file descriptor, which moves no file offset,
    or else a seek and a `readinto`."""
    header = stream.read(GLOBAL_HEADER_LEN)
    if len(header) < GLOBAL_HEADER_LEN:
        raise TruncatedHeader(
            f"need {GLOBAL_HEADER_LEN} bytes of global header, got {len(header)}"
        )
    magic_le = struct.unpack_from("<I", header, 0)[0]
    magic_be = struct.unpack_from(">I", header, 0)[0]
    if magic_le in (PCAP_MAGIC, PCAP_NS_MAGIC):
        endian, magic = "<", magic_le
    elif magic_be in (PCAP_MAGIC, PCAP_NS_MAGIC):
        endian, magic = ">", magic_be
    elif PCAPNG_MAGIC in (magic_le, magic_be):
        raise BadMagic("pcapng input is not supported; export as classic pcap")
    else:
        raise BadMagic(f"unknown pcap magic 0x{magic_le:08x}")
    snaplen, network = struct.unpack_from(endian + "II", header, 16)
    if network != 1:
        raise BadMagic(f"unsupported link type {network}; only Ethernet captures")

    try:
        fd = stream.fileno()
    except (AttributeError, OSError):      # io.UnsupportedOperation is an OSError
        fd = None
    if fd is not None and hasattr(os, "preadv"):
        def read_at(view, offset):
            return os.preadv(fd, [view], offset)
    else:
        fd = None

        def read_at(view, offset):
            stream.seek(offset)
            return stream.readinto(view)

    return _Capture(read_at, fd, stream.seek(0, io.SEEK_END), endian,
                    1e-6 if magic == PCAP_MAGIC else 1e-9, snaplen,
                    np.frombuffer(filt.packed_address(), dtype=">u4")[0], filt.port)


@dataclass
class _Range:
    """The walk of the records from one offset."""

    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # decode() columns per chunk
    skipped: int
    warnings: int          # 1 when a truncated record ended the walk
    stop: int              # the offset the walk stopped at


def _scan(cap: _Capture, start: int, stop: int) -> _Range:
    """Walk the records from `start` to the first record start at or past
    `stop`, or to the end of the capture, decoding each chunk's records.
    `_scan(cap, GLOBAL_HEADER_LEN, cap.size)` is the whole parse."""
    incl_at = struct.Struct(cap.endian + "8xI").unpack_from   # at a record's start
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    skipped = warnings = 0
    unread = max(cap.size - start, 0)
    # one buffer for the whole walk: its first `size` bytes are the unparsed
    # tail of the last chunk and the chunk read after it; `offset` is where
    # the buffer's first byte lies in the capture
    buf = bytearray()
    offset = start
    size = pos = 0
    while True:
        # walk the records that fit in the buffer: one unpack of incl_len each.
        # A header cut short ends it: a record that starts within 16 bytes of
        # `size` ends past it whatever its incl_len (bytes past `size` are
        # stale), and an unpack past the buffer's end raises struct.error
        heads = []
        append = heads.append
        limit = stop - offset
        end = size
        try:
            while pos < limit:
                # incl_len bytes follow the header; orig_len is the packet's length
                # on the wire, larger than incl_len in a snap-length capture
                end = pos + RECORD_HEADER_LEN + incl_at(buf, pos)[0]
                if end > size:
                    break
                append(pos)
                pos = end
        except struct.error:
            pass
        if heads:
            part, n_skipped = _decode(buf, size, np.array(heads, dtype=np.int64), cap.endian,
                                      cap.frac_scale, cap.server, cap.port)
            parts.append(part)
            skipped += n_skipped
        if pos >= limit:
            break
        # a partial record whose header is buffered lacks `end - size` bytes:
        # read them with the next chunk in one read, never past the capture's end
        missing = end - size if pos <= size - RECORD_HEADER_LEN else 0
        if unread == 0 or missing > unread:
            warnings = int(pos < size)      # a truncated record ends the scan
            break
        # fill the buffer to CHUNK_BYTES, or past it by the rest of a record
        # longer than a chunk, with at least one new byte
        tail = size - pos
        want = min(unread, max(missing, CHUNK_BYTES - tail, 1))
        if tail + want > len(buf):
            grown = bytearray(tail + want)
            grown[:tail] = buf[pos:size]
            buf = grown
        else:
            buf[:tail] = buf[pos:size]
        offset += pos
        got = cap.read_at(memoryview(buf)[tail:tail + want], offset + tail)
        if got < want:      # the stream ended early
            unread = 0
        else:
            unread -= got
        size, pos = tail + got, 0
    return _Range(parts, skipped, warnings, offset + pos)


def _guess_record_start(cap: _Capture, offset: int) -> int | None:
    """The first offset at or after `offset`, within GUESS_WINDOW bytes, where
    GUESS_CHAIN chained record headers look plausible: each header's fraction
    is below one second, 0 < incl_len <= orig_len <= GUESS_MAX_ORIG and
    incl_len <= snaplen, and the next header lies inside the file (a chain may
    end at the file's end); a header past the window's end is not checked,
    so the chain fails there. Zero-filled payload is not plausible, since
    incl_len must be positive. It is only a guess: a walk that lands there
    shows that a record starts there."""
    buf = bytearray(max(min(GUESS_WINDOW, cap.size - offset), 0))
    size = cap.read_at(memoryview(buf), offset) if buf else 0
    header = struct.Struct(cap.endian + "4I").unpack_from
    last = size - RECORD_HEADER_LEN        # the last offset of a whole header in the window
    end = cap.size - offset                # the file's end, as a window offset
    one_second = round(1 / cap.frac_scale)

    def chained(head: int) -> bool:
        for _ in range(GUESS_CHAIN):
            if head == end:
                return True
            if head > last:
                return False
            _, frac, incl, orig = header(buf, head)
            head += RECORD_HEADER_LEN + incl
            if not (frac < one_second and 0 < incl <= orig <= GUESS_MAX_ORIG
                    and incl <= cap.snaplen
                    and (head == end or head + RECORD_HEADER_LEN <= end)):
                return False
        return True

    return next((offset + start for start in range(last + 1) if chained(start)), None)


def _split_walk(cap: _Capture, split: int) -> list[_Range]:
    """The walk of the records in two ranges at once: [24, split) in this
    process and [split, end) in a child forked by `fork_call`, which sends
    its range back.

    The child's range is kept only when this process's walk stopped exactly
    at `split`, so that `split` is a record start of the sequential walk, and
    the child sent its range. Otherwise (the walk stepped over `split`, a
    truncated record ended it first, or the child failed or died) the child
    is killed and the walk carries on here from where it stopped, which after
    a truncated record ends at once with the same warning. So the ranges are
    those of the one sequential scan whatever the guess, which decides only
    the speed. The child is reaped before this returns; it reads with the
    capture's positional reads, which leave the file offset it shares with
    this process alone."""
    try:
        child = fork_call(_scan, cap, split, cap.size, cpu=child_cpu())
    except OSError:                     # out of file descriptors, processes or memory
        return [_scan(cap, GLOBAL_HEADER_LEN, cap.size)]
    try:
        ranges = [_scan(cap, GLOBAL_HEADER_LEN, split)]
        if ranges[0].stop == split:
            try:
                ranges.append(child.result())
            except Exception:           # whatever ended the child, its range is walked here
                pass
    finally:
        child.kill()
    if ranges[-1].stop < cap.size:
        ranges.append(_scan(cap, ranges[-1].stop, cap.size))
    return ranges


def _at_each_offset(data: np.ndarray, dtype: str) -> np.ndarray:
    """A read-only view whose element k is the `dtype` value stored at byte
    offset k of the uint8 array `data`: a field at many offsets is one gather."""
    width = np.dtype(dtype).itemsize
    rows = as_strided(data, (max(data.size - width + 1, 0), width), (1, 1), writeable=False)
    return rows.view(dtype)[:, 0]


def _decode(buf, size, heads, endian, frac_scale, server, port):
    """Columns (abs ts, orig_len, downlink) of the records whose headers start
    at `heads` in the first `size` bytes of `buf`, keeping the Ethernet/IPv4
    TCP or UDP packets to or from the server, and the number skipped."""
    data = np.frombuffer(buf, dtype=np.uint8, count=size)
    u32, be16, be32 = (_at_each_offset(data, dtype) for dtype in (endian + "u4", ">u2", ">u4"))
    incl = u32[heads + 8].astype(np.int64)
    frame = heads + RECORD_HEADER_LEN
    ok = incl >= 14
    ethertype = np.zeros(heads.size, dtype=np.int64)
    ethertype[ok] = be16[frame[ok] + 12]
    l2 = np.full(heads.size, 14, dtype=np.int64)
    vlan = (ethertype == ETHERTYPE_VLAN) & (incl >= 18)
    ethertype[vlan] = be16[frame[vlan] + 16]
    l2[vlan] = 18
    ok &= ethertype == ETHERTYPE_IPV4
    ip = frame + l2
    ok &= incl - l2 >= 20
    version_ihl = np.zeros(heads.size, dtype=np.int64)
    version_ihl[ok] = data[ip[ok]]
    ihl = (version_ihl & 0x0F) * 4
    ok &= version_ihl >> 4 == 4
    ok &= incl - l2 >= ihl + 4
    proto = np.zeros(heads.size, dtype=np.uint8)
    proto[ok] = data[ip[ok] + 9]
    ok &= (proto == 6) | (proto == 17)

    keep = np.flatnonzero(ok)
    ip, ihl = ip[keep], ihl[keep]
    src = be32[ip + 12]
    dst = be32[ip + 16]
    down = src == server
    up = dst == server
    if port is not None:
        down &= be16[ip + ihl] == port
        up &= be16[ip + ihl + 2] == port
    keep = keep[down | up]
    down = down[down | up]

    sec = u32[heads[keep]].astype(np.float64)
    frac = u32[heads[keep] + 4].astype(np.float64)
    orig_len = u32[heads[keep] + 12].astype(np.int64)
    return (sec + frac * frac_scale, orig_len, down), int(heads.size - keep.size)


def parse_csv(text: str) -> PacketTable:
    """Read the `ts,length,direction` trace schema; finite, monotone ts re-based to row 1."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty>"
        raise SchemaMismatch(f"expected header {CSV_HEADER!r}, got {got!r}")
    ts_col, length_col, down_col = [], [], []
    t0 = None
    prev = None
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise RowParseError(i, f"expected 3 fields, got {len(parts)}")
        try:
            ts = float(parts[0])
        except ValueError:
            ts = math.nan
        if not math.isfinite(ts):      # NaN would pass the monotonicity check
            raise RowParseError(i, f"bad ts {parts[0]!r}")
        try:
            length = int(parts[1])
        except ValueError:
            raise RowParseError(i, f"bad length {parts[1]!r}") from None
        if not 1 <= length <= MAX_LENGTH:
            raise RowParseError(i, f"length must be in [1, {MAX_LENGTH}], got {length}")
        if parts[2] not in (DOWN, UP):
            raise RowParseError(i, f"bad direction {parts[2]!r}")
        if t0 is None:
            t0 = ts
        rel = ts - t0
        if prev is not None and rel < prev:
            raise RowParseError(i, f"timestamps not monotone: {ts}")
        prev = rel
        ts_col.append(rel)
        length_col.append(length)
        down_col.append(parts[2] == DOWN)
    return PacketTable(ts_col, length_col, down_col)


def write_csv(packets: PacketTable, out) -> None:
    """Write the bit-stable text form to a text stream, CSV_BLOCK_ROWS rows
    at a time: parse_csv of the text has the same columns exactly."""
    out.write(CSV_HEADER + "\n")
    for start in range(0, len(packets), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        rows = zip(packets.ts[block].tolist(), packets.length[block].tolist(),
                   packets.downlink[block].tolist())
        out.write("".join(f"{ts!r},{length},{DOWN if down else UP}\n"
                          for ts, length, down in rows))
