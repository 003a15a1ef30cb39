"""Seeded input generators with planted truth.

Everything here is written from the file formats alone (the feature-CSV
schema and classic pcap), not from reslearn's own writers, so the checks in
checks.py compare the program against an independent source of truth.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FEATURE_HEADER = "segment,f_c,f_s,f_iat"

# --- spiky series ----------------------------------------------------------

# the README example's series: level + sine + gaussian noise + peak spikes of
# rate 0.02 and height 60
LEVEL = 100.0
AMPLITUDE = 20.0
PERIOD = 50.0
NOISE_STD = 1.0
SPIKE_EVERY = 50
SPIKE_HEIGHT = 60.0
# a spike rises and falls over five samples, as in the README example
SPIKE_SHAPE = (0.3, 0.7, 1.0, 0.6, 0.3)
# where the spikes fall decides most of the forecast error, so every seed
# shares one spike schedule and the accuracy metrics do not swing with it
SPIKE_SCHEDULE = 0


def spike_component(length: int) -> np.ndarray:
    """One spike in every SPIKE_EVERY samples, at an offset and height drawn
    from the fixed schedule; the same for every seed."""
    schedule = np.random.default_rng(SPIKE_SCHEDULE)
    slots = np.arange(0, length, SPIKE_EVERY)
    onsets = slots + schedule.integers(0, SPIKE_EVERY - len(SPIKE_SHAPE) + 1, slots.size)
    heights = SPIKE_HEIGHT * schedule.uniform(0.8, 1.2, slots.size)
    spikes = np.zeros(length)
    for k, height in zip(onsets, heights):
        for j, share in enumerate(SPIKE_SHAPE):
            if k + j < length:
                spikes[k + j] = height * share
    return spikes


def spiky_series(length: int, seed) -> np.ndarray:
    """Level + sine + noise from `seed` + the shared spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = LEVEL + AMPLITUDE * np.sin(2.0 * np.pi * t / PERIOD)
    values += rng.normal(0.0, NOISE_STD, length)
    return values + spike_component(length)


def feature_csv(values) -> str:
    """A feature CSV carrying `values` exactly (repr) in the f_s column."""
    lines = [FEATURE_HEADER]
    lines += [f"{i},0,{float(v)!r},NA" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


# --- XR capture -----------------------------------------------------------

# Video frames follow synth.TraceSpec, the repository's model of XR traffic:
# 72 fps, 12 000-byte frames sent as 1200-byte packets 200 us apart. Frame
# sizes vary around that mean, 8 to 12 packets per frame. Every other stream
# takes TraceSpec's background shape, 50 packets/s of 100 bytes: downlink
# background and uplink in the gaps between frames, and, for the filter to
# skip, traffic between two other hosts and non-IPv4 frames (IPv6, and ARP
# at the 60-byte Ethernet minimum). TraceSpec has no uplink or foreign
# traffic, so their rate and size are an assumption, not a measurement.
FPS = 72.0
FRAME_PACKET_LEN = 1200
PACKETS_PER_FRAME = (8, 12)            # inclusive range, mean 10
INTRA_US = 200
SMALL_RATE = 50.0                      # packets/s of each small stream
SMALL_LEN = 100
ARP_LEN = 60
FRAME_JITTER_US = 600                  # frame starts move by at most this
GUARD_US = 400                         # small packets keep this far from bursts
SEGMENT_US = 250_000                   # feature segment length
DURATION_S = 480.0
# the video content (packets per frame) is the same for every seed
CONTENT_SCHEDULE = 0

SERVER = "10.0.0.1"
CLIENT = "10.0.0.2"
OTHER_A = "10.0.0.3"
OTHER_B = "10.0.0.4"
SERVER_PORT = 5000
CLIENT_PORT = 6000
EPOCH_US = 1_700_000_000 * 1_000_000
ETH_IPV4, ETH_IPV6, ETH_ARP = 0x0800, 0x86DD, 0x0806


@dataclass
class Session:
    """The capture plus the truth planted in it. Times are whole
    microseconds, relative to the first server packet."""

    pcap: bytes
    frame_starts_us: np.ndarray
    frame_ends_us: np.ndarray
    frame_sizes: np.ndarray
    first_segment_max_len: int         # over server packets, both directions
    kept: int                          # packets to or from the server
    skipped: int                       # packets the filter must drop
    last_rel_us: int                   # time of the last server packet

    def full_segments(self) -> int:
        """Segments that end before the last server packet does."""
        return int(self.last_rel_us // SEGMENT_US)

    def features(self) -> list[tuple[int, int, float | None]]:
        """(f_c, f_s, f_iat seconds) for every full segment."""
        seg = self.frame_starts_us // SEGMENT_US
        rows = []
        for i in range(self.full_segments()):
            members = np.nonzero(seg == i)[0]
            starts = self.frame_starts_us[members]
            iat = None
            if members.size >= 2:
                iat = float(starts[-1] - starts[0]) / (members.size - 1) / 1e6
            rows.append((int(members.size), int(self.frame_sizes[members].sum()), iat))
        return rows

    def min_frame_gap_us(self) -> int:
        return int((self.frame_starts_us[1:] - self.frame_ends_us[:-1]).min())


def _packed(ip: str) -> bytes:
    return bytes(int(p) for p in ip.split("."))


def _udp_frame(src: str, dst: str, sport: int, dport: int, length: int) -> bytes:
    payload = length - 42
    eth = struct.pack("!6s6sH", b"\x02" * 6, b"\x04" * 6, ETH_IPV4)
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 28 + payload, 0, 0, 64, 17, 0,
                     _packed(src), _packed(dst))
    udp = struct.pack("!HHHH", sport, dport, 8 + payload, 0)
    return eth + ip + udp + bytes(payload)


def _other_frame(ethertype: int, length: int) -> bytes:
    return struct.pack("!6s6sH", b"\x02" * 6, b"\x04" * 6, ethertype) + bytes(length - 14)


# what each event of the capture carries, by index
PACKETS = (
    _udp_frame(CLIENT, SERVER, CLIENT_PORT, SERVER_PORT, SMALL_LEN),        # uplink
    _udp_frame(SERVER, CLIENT, SERVER_PORT, CLIENT_PORT, SMALL_LEN),        # background
    _udp_frame(SERVER, CLIENT, SERVER_PORT, CLIENT_PORT, FRAME_PACKET_LEN),  # video
    _udp_frame(OTHER_A, OTHER_B, 7000, 7001, SMALL_LEN),                    # other hosts
    _other_frame(ETH_IPV6, SMALL_LEN),
    _other_frame(ETH_ARP, ARP_LEN),
)
UPLINK, BACKGROUND, VIDEO, OTHER_HOST, IPV6, ARP = range(len(PACKETS))


def xr_session(seed, duration_s: float = DURATION_S) -> Session:
    """An XR session as a classic little-endian pcap. `seed` makes everything
    the network adds: frame jitter, the small streams and the foreign traffic.
    Frames sit half a period off the segment boundaries, so jitter never
    moves one between segments: every seed yields the same feature series
    through a different capture, and forecast accuracy does not swing with
    the seed."""
    rng = np.random.default_rng(seed)
    n_frames = int(duration_s * FPS)
    period_us = 1e6 / FPS
    starts = np.round((np.arange(n_frames) + 0.5) * period_us).astype(np.int64)
    starts += rng.integers(-FRAME_JITTER_US, FRAME_JITTER_US + 1, n_frames)
    counts = np.random.default_rng(CONTENT_SCHEDULE).integers(
        PACKETS_PER_FRAME[0], PACKETS_PER_FRAME[1] + 1, n_frames)
    ends = starts + (counts - 1) * INTRA_US

    # the session opens with an uplink packet: time 0 for the program
    times, kinds = [np.zeros(1, np.int64)], [np.array([UPLINK])]
    frame_of = np.repeat(np.arange(n_frames), counts)
    first_of = np.cumsum(counts) - counts
    times.append(starts[frame_of] + (np.arange(frame_of.size) - first_of[frame_of]) * INTRA_US)
    kinds.append(np.full(frame_of.size, VIDEO))

    # in the gap after each frame but the last, one downlink background packet
    # in the first half and one uplink packet in the second, each with the
    # chance that gives SMALL_RATE per second; both keep GUARD_US from the
    # bursts and from each other, so the intra-frame spacing stays the first
    # mode of the first segment's inter-arrival histogram
    lo, hi = ends[:-1] + GUARD_US, starts[1:] - GUARD_US
    mid = (lo + hi) // 2
    for kind, a, b in ((BACKGROUND, lo, mid - GUARD_US // 2), (UPLINK, mid + GUARD_US // 2, hi)):
        present = rng.uniform(size=lo.size) < SMALL_RATE / FPS
        times.append(rng.integers(a, b + 1)[present])
        kinds.append(np.full(int(present.sum()), kind))
    kept_times, kept_kinds = np.concatenate(times), np.concatenate(kinds)

    duration_us = int(duration_s * 1e6)
    n_other = rng.poisson(SMALL_RATE * duration_s)
    times.append(rng.integers(-1000, duration_us, n_other))
    kinds.append(np.full(n_other, OTHER_HOST))
    n_odd = rng.poisson(SMALL_RATE * duration_s)
    times.append(rng.integers(-1000, duration_us, n_odd))
    kinds.append(np.where(rng.uniform(size=n_odd) < 0.5, IPV6, ARP))

    t_all, k_all = np.concatenate(times), np.concatenate(kinds)
    order = np.argsort(t_all, kind="stable")
    sec, usec = np.divmod(EPOCH_US + t_all[order], 1_000_000)
    parts = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for s, u, k in zip(sec.tolist(), usec.tolist(), k_all[order].tolist()):
        data = PACKETS[k]
        parts.append(struct.pack("<IIII", s, u, len(data), len(data)))
        parts.append(data)

    first_kinds = set(kept_kinds[kept_times < SEGMENT_US].tolist())
    return Session(
        pcap=b"".join(parts),
        frame_starts_us=starts,
        frame_ends_us=ends,
        frame_sizes=counts * FRAME_PACKET_LEN,
        first_segment_max_len=max(len(PACKETS[k]) for k in first_kinds),
        kept=int(kept_times.size),
        skipped=int(n_other + n_odd),
        last_rel_us=int(kept_times.max()),
    )
