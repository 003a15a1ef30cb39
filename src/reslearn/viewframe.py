"""Video-frame reconstruction from packet streams.

Frame-carrying packets are long and closely spaced, so two thresholds split
them out: a length floor (quarter of the observed maximum) and an
inter-arrival ceiling read off the gap between the first two modes of the
IAT distribution. Both are estimated once from the first segment of a
session and frozen.
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


@dataclass(frozen=True)
class Frame:
    start_ts: float
    end_ts: float
    size: int
    packet_count: int


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
    if iat.size < 2 or np.unique(iat).size < 2:
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
) -> list[Frame]:
    """Group frame-eligible downlink packets into frames: consecutive eligible
    packets with a gap <= dur_th share a frame."""
    ts = packets.ts[packets.downlink]
    length = packets.length[packets.downlink]
    index = np.flatnonzero(length.astype(np.float64) >= thresholds.len_th)
    if not index.size:
        return []
    t = ts[index]
    new = np.empty(index.size, dtype=bool)
    new[0] = True
    new[1:] = np.diff(t) > thresholds.dur_th
    first = np.flatnonzero(new)
    last = np.append(first[1:], index.size) - 1
    counts = last - first + 1
    sizes = np.add.reduceat(length[index], first)
    kept = counts >= min_packets
    return [
        Frame(start_ts=s, end_ts=e, size=z, packet_count=c)
        for s, e, z, c in zip(t[first[kept]].tolist(), t[last[kept]].tolist(),
                              sizes[kept].tolist(), counts[kept].tolist())
    ]


def segment_features(
    frames: list[Frame],
    session_start: float,
    segment_duration: float,
    num_segments: int,
) -> list[SegmentFeatures]:
    """Aggregate frames into dense per-segment feature rows."""
    if segment_duration <= 0:
        raise ValueError("segment_duration must be positive")
    by_segment: dict[int, list[Frame]] = {}
    for fr in frames:
        idx = int((fr.start_ts - session_start) // segment_duration)
        if 0 <= idx < num_segments:
            by_segment.setdefault(idx, []).append(fr)
    out = []
    for idx in range(num_segments):
        members = by_segment.get(idx, [])
        f_c = len(members)
        f_s = sum(fr.size for fr in members)
        if f_c >= 2:
            starts = [fr.start_ts for fr in members]
            f_iat = float(np.mean(np.diff(starts)))
        else:
            f_iat = None
        out.append(SegmentFeatures(idx, f_c, f_s, f_iat))
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
