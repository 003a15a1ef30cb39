"""Parse packet captures (classic pcap) and CSV traces into normalized packet streams.

All timestamps are re-based so the first kept packet sits at t=0; downstream
math only ever uses trace-relative seconds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BadMagic,
    EmptyTrace,
    RowParseError,
    SchemaMismatch,
    TruncatedHeader,
)

PCAP_MAGIC = 0xA1B2C3D4
PCAPNG_MAGIC = 0x0A0D0D0A
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

CSV_HEADER = "ts,length,direction"


class Direction(Enum):
    UPLINK = "up"
    DOWNLINK = "down"


@dataclass(frozen=True)
class PacketRecord:
    ts: float          # seconds since first kept packet
    length: int        # original (on-the-wire) length, bytes
    direction: Direction


@dataclass(frozen=True)
class EndpointFilter:
    """Traffic is classified relative to the rendering server address."""

    server_address: str
    port: int | None = None

    def __post_init__(self):
        parts = self.server_address.split(".")
        if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ValueError(f"not a dotted-quad IPv4 address: {self.server_address!r}")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    def packed_address(self) -> bytes:
        return bytes(int(p) for p in self.server_address.split("."))


@dataclass
class ParseResult:
    records: list[PacketRecord]
    skipped: int = 0      # non-IP / non-matching packets
    warnings: int = 0     # truncation events (parse stopped early)


def parse_pcap(data: bytes, filt: EndpointFilter) -> ParseResult:
    """Decode a classic pcap byte stream into packets matching `filt`.

    Only Ethernet link-layer captures are supported. VLAN-tagged and
    non-IPv4 frames are skipped and counted, never fatal. A truncated
    record stops the scan; everything decoded so far is returned with
    the warning counter bumped.
    """
    if len(data) < GLOBAL_HEADER_LEN:
        raise TruncatedHeader(
            f"need {GLOBAL_HEADER_LEN} bytes of global header, got {len(data)}"
        )
    magic_le = struct.unpack_from("<I", data, 0)[0]
    if magic_le == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack_from(">I", data, 0)[0] == PCAP_MAGIC:
        endian = ">"
    elif magic_le == PCAPNG_MAGIC or struct.unpack_from(">I", data, 0)[0] == PCAPNG_MAGIC:
        raise BadMagic("pcapng input is not supported; export as classic pcap")
    else:
        raise BadMagic(f"unknown pcap magic 0x{magic_le:08x}")

    network = struct.unpack_from(endian + "I", data, 20)[0]
    if network != 1:
        raise BadMagic(f"unsupported link type {network}; only Ethernet captures")

    server = filt.packed_address()
    rec_fmt = endian + "IIII"
    offset = GLOBAL_HEADER_LEN
    raw: list[tuple[float, int, Direction]] = []
    skipped = 0
    warnings = 0
    while offset < len(data):
        if offset + RECORD_HEADER_LEN > len(data):
            warnings += 1
            break
        # incl_len bytes follow the header; orig_len is the packet's length on
        # the wire, larger than incl_len in a snap-length capture
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack_from(rec_fmt, data, offset)
        offset += RECORD_HEADER_LEN
        if offset + incl_len > len(data):
            warnings += 1
            break
        frame = data[offset:offset + incl_len]
        offset += incl_len

        parsed = _match_frame(frame, server, filt.port)
        if parsed is None:
            skipped += 1
            continue
        direction = parsed
        raw.append((ts_sec + ts_usec * 1e-6, orig_len, direction))

    records = []
    if raw:
        t0 = raw[0][0]
        records = [PacketRecord(t - t0, ln, d) for t, ln, d in raw]
    return ParseResult(records, skipped=skipped, warnings=warnings)


def _match_frame(frame: bytes, server: bytes, port: int | None) -> Direction | None:
    """Return the packet direction if the Ethernet frame matches the filter."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    if ethertype != ETHERTYPE_IPV4:
        # VLAN-tagged and IPv6 frames are skipped, not errors
        return None
    ip = frame[14:]
    if len(ip) < 20 or ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    proto = ip[9]
    if proto not in (6, 17) or len(ip) < ihl + 4:
        return None
    src = ip[12:16]
    dst = ip[16:20]
    sport, dport = struct.unpack_from("!HH", ip, ihl)
    if src == server and (port is None or sport == port):
        return Direction.DOWNLINK
    if dst == server and (port is None or dport == port):
        return Direction.UPLINK
    return None


def write_pcap(
    packets: list[tuple[float, int, Direction]],
    filt: EndpointFilter,
    client_address: str = "192.168.0.2",
) -> bytes:
    """Assemble a classic little-endian pcap for the given (abs_ts, length, direction)
    triples; the inverse of parse_pcap for synthetic fixtures.

    `length` is the captured frame length and must be >= 42
    (Ethernet + IPv4 + UDP headers).
    """
    server = filt.packed_address()
    client = bytes(int(p) for p in client_address.split("."))
    port = filt.port if filt.port is not None else 51000
    out = bytearray()
    out += struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
    for ts, length, direction in packets:
        if length < 42:
            raise ValueError(f"cannot fit headers in {length} bytes")
        if direction is Direction.DOWNLINK:
            src, dst = server, client
            sport, dport = port, 52000
        else:
            src, dst = client, server
            sport, dport = 52000, port
        payload_len = length - 42
        ip_total = 20 + 8 + payload_len
        eth = struct.pack("!6s6sH", b"\xaa" * 6, b"\xbb" * 6, ETHERTYPE_IPV4)
        ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, ip_total, 0, 0, 64, 17, 0, src, dst)
        udp = struct.pack("!HHHH", sport, dport, 8 + payload_len, 0)
        frame = eth + ip + udp + b"\x00" * payload_len
        assert len(frame) == length
        sec = int(ts)
        usec = int(round((ts - sec) * 1e6))
        if usec == 1_000_000:
            sec, usec = sec + 1, 0
        out += struct.pack("<IIII", sec, usec, length, length)
        out += frame
    return bytes(out)


def parse_csv(text: str) -> list[PacketRecord]:
    """Read the `ts,length,direction` trace schema; ts re-based to first row."""
    lines = text.splitlines()
    if not lines or lines[0].lstrip("﻿").strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty>"
        raise SchemaMismatch(f"expected header {CSV_HEADER!r}, got {got!r}")
    records = []
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
            raise RowParseError(i, f"bad ts {parts[0]!r}") from None
        try:
            length = int(parts[1])
        except ValueError:
            raise RowParseError(i, f"bad length {parts[1]!r}") from None
        if length < 1:
            raise RowParseError(i, f"length must be >= 1, got {length}")
        try:
            direction = Direction(parts[2])
        except ValueError:
            raise RowParseError(i, f"bad direction {parts[2]!r}") from None
        if t0 is None:
            t0 = ts
        rel = ts - t0
        if prev is not None and rel < prev:
            raise RowParseError(i, f"timestamps not monotone: {ts}")
        prev = rel
        records.append(PacketRecord(rel, length, direction))
    return records


def emit_csv(records: list[PacketRecord]) -> str:
    """Bit-stable text form: parse_csv(emit_csv(r)) == r exactly."""
    lines = [CSV_HEADER]
    lines += [f"{r.ts!r},{r.length},{r.direction.value}" for r in records]
    return "\n".join(lines) + "\n"


def inter_arrival(packets: list[PacketRecord]) -> np.ndarray:
    """Per-packet inter-arrival times; index 0 is defined as 0."""
    if not packets:
        raise EmptyTrace("inter_arrival needs at least one packet")
    ts = np.array([p.ts for p in packets], dtype=np.float64)
    out = np.empty_like(ts)
    out[0] = 0.0
    out[1:] = np.diff(ts)
    return out
