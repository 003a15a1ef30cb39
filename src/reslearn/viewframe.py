"""Video-frame reconstruction from packet streams.

Frame-carrying packets are long and closely spaced, so two thresholds split
them out: a length floor (quarter of the observed maximum) and an
inter-arrival ceiling read off the gap between the first two modes of the
IAT distribution. Both are estimated once from the first segment of a
session and frozen.

Frames stay columns from the packet table to the features: identify_frames
returns a FrameTable built from the arrays of its scan, and segment_features
groups it by segment with numpy, so no per-frame Python object is made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistribution, EmptySegment
from .ingest import PacketTable

DEFAULT_BINS = 50
LEN_FRACTION = 0.25


@dataclass(frozen=True)
class Thresholds:
    len_th: float     # bytes; packets below this are not frame packets
    dur_th: float     # seconds; gaps above this close a frame
    bins: int = DEFAULT_BINS
    peaks: tuple[float, ...] = ()   # IAT values at detected histogram peaks


@dataclass(frozen=True, eq=False)
class FrameTable:
    """Frames as parallel columns, in the order of their first packets."""

    start_ts: np.ndarray       # float64 seconds, the frame's first packet
    end_ts: np.ndarray         # float64 seconds, the frame's last packet
    size: np.ndarray           # int64 bytes, the sum of the packets' lengths
    packet_count: np.ndarray   # int64

    def __post_init__(self):
        object.__setattr__(self, "start_ts", np.asarray(self.start_ts, dtype=np.float64))
        object.__setattr__(self, "end_ts", np.asarray(self.end_ts, dtype=np.float64))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=np.int64))
        object.__setattr__(self, "packet_count",
                           np.asarray(self.packet_count, dtype=np.int64))

    def __len__(self) -> int:
        return self.start_ts.size


@dataclass(frozen=True)
class SegmentFeatures:
    segment_index: int
    f_c: int                 # frame count
    f_s: int                 # total frame size, bytes
    f_iat: float | None      # mean inter-frame arrival, None if < 2 frames


def estimate_len_threshold(packets: PacketTable) -> float:
    if not len(packets):
        raise EmptySegment("length threshold needs a non-empty first segment")
    return LEN_FRACTION * int(packets.length.max())


def _dur_threshold_with_peaks(packets: PacketTable, bins: int) -> tuple[float, list[float]]:
    """Histogram log10(IAT) and return the geometric midpoint between the
    centers of the first two peaks, plus the peak IATs for reporting."""
    if len(packets) < 3:
        raise EmptySegment("duration threshold needs at least 3 packets")
    iat = np.diff(packets.ts)
    iat = iat[iat > 0]
    if iat.size < 2 or (iat == iat[0]).all():
        raise DegenerateDistribution("need at least 2 distinct positive IATs")
    log_iat = np.log10(iat)
    if log_iat.max() - log_iat.min() < 1e-9:
        raise DegenerateDistribution("IAT distribution is effectively single-valued")
    counts, edges = np.histogram(log_iat, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    padded = np.concatenate(([0], counts, [0]))
    # a stray single-count bin must not pass as a mode on real captures
    min_count = max(2, int(np.ceil(0.01 * iat.size)))
    is_peak = (
        (padded[1:-1] > padded[:-2])
        & (padded[1:-1] > padded[2:])
        & (counts >= min_count)
    )
    peak_idx = np.nonzero(is_peak)[0]
    if peak_idx.size < 2:
        raise DegenerateDistribution(f"found {peak_idx.size} IAT peak(s), need 2")
    mid = 0.5 * (centers[peak_idx[0]] + centers[peak_idx[1]])
    return float(10.0 ** mid), [float(10.0 ** centers[i]) for i in peak_idx]


def estimate_thresholds(packets: PacketTable, bins: int, default_dur_th: float) -> Thresholds:
    """Thresholds of the packets of a first segment. When their IAT histogram
    has fewer than two peaks, or they are fewer than 3, dur_th falls back to
    `default_dur_th` and no peaks are reported."""
    len_th = estimate_len_threshold(packets)
    try:
        dur_th, peaks = _dur_threshold_with_peaks(packets, bins)
    except (DegenerateDistribution, EmptySegment):
        dur_th, peaks = default_dur_th, []
    return Thresholds(len_th=len_th, dur_th=dur_th, bins=bins, peaks=tuple(peaks))


def identify_frames(
    packets: PacketTable,
    thresholds: Thresholds,
    min_packets: int = 1,
) -> FrameTable:
    """Group frame-eligible downlink packets into frames: consecutive eligible
    packets with a gap <= dur_th share a frame."""
    ts = packets.ts[packets.downlink]
    length = packets.length[packets.downlink]
    index = np.flatnonzero(length.astype(np.float64) >= thresholds.len_th)
    if not index.size:
        return FrameTable([], [], [], [])
    t = ts[index]
    new = np.empty(index.size, dtype=bool)
    new[0] = True
    new[1:] = np.diff(t) > thresholds.dur_th
    first = np.flatnonzero(new)
    last = np.append(first[1:], index.size) - 1
    counts = last - first + 1
    sizes = np.add.reduceat(length[index], first)
    kept = counts >= min_packets
    return FrameTable(t[first[kept]], t[last[kept]], sizes[kept], counts[kept])


def segment_features(
    frames: FrameTable,
    segment_duration: float,
    num_segments: int,
) -> list[SegmentFeatures]:
    """Aggregate frames into dense per-segment feature rows; segment i spans
    [i, i + 1) segment durations from the session start at time 0. A frame
    belongs to the segment its start falls in; frames outside every segment
    are dropped. f_iat is the mean gap between the starts of a segment's frames,
    taken in frame order."""
    seg = frames.start_ts // segment_duration
    inside = (seg >= 0) & (seg < num_segments)
    seg = seg[inside].astype(np.int64)
    f_c = np.bincount(seg, minlength=num_segments)
    # a stable grouping keeps each segment's frames in frame order; the
    # segments themselves need not be sorted, since pcap records need not be
    order = np.argsort(seg, kind="stable")
    sizes = frames.size[inside][order]
    gaps = np.diff(frames.start_ts[inside][order])
    end = np.cumsum(f_c)
    begin = end - f_c
    f_s = np.zeros(num_segments, dtype=np.int64)
    f_s[f_c > 0] = np.add.reduceat(sizes, begin[f_c > 0])
    out = []
    for idx, (c, s, b, e) in enumerate(zip(f_c.tolist(), f_s.tolist(), begin.tolist(),
                                           end.tolist())):
        # np.mean's own arithmetic, the pairwise np.add.reduce of each
        # segment's gaps over their count, without its per-call overhead; a
        # sum in another order (np.add.reduceat, or (last - first) / (c - 1))
        # is not bit-identical
        f_iat = float(np.add.reduce(gaps[b:e - 1])) / (c - 1) if c >= 2 else None
        out.append(SegmentFeatures(idx, c, s, f_iat))
    return out


def features_csv(features: list[SegmentFeatures]) -> str:
    """Per-segment feature table; absent IATs rendered as NA."""
    lines = ["segment,f_c,f_s,f_iat"]
    for sf in features:
        iat = "NA" if sf.f_iat is None else format(sf.f_iat, ".6g")
        lines.append(f"{sf.segment_index},{sf.f_c},{sf.f_s},{iat}")
    return "\n".join(lines) + "\n"


def threshold_report(thresholds: Thresholds) -> str:
    return json.dumps(
        {
            "len_th": thresholds.len_th,
            "dur_th": thresholds.dur_th,
            "bins": thresholds.bins,
            "peaks": list(thresholds.peaks),
        },
        indent=2,
    ) + "\n"
