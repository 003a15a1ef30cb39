"""Synthetic fixtures: packet traces with planted frames, and feature series
with known components. Both stand in for external captures at desk scale and
return their ground truth so recovery can be asserted exactly.

Each check of a spec names the one field it rejects, at the start of its
message; ExperimentConfig reports it under the field's config key."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import PacketTable
from .viewframe import FrameTable


@dataclass(frozen=True)
class TraceSpec:
    fps: float = 72.0
    mean_frame_size: int = 12000       # bytes per video frame
    packets_per_frame: int = 10
    intra_spacing: float = 0.0002      # seconds between packets of one frame
    background_rate: float = 50.0      # small packets per second
    jitter_std: float = 0.0            # std of frame-start jitter, seconds
    duration: float = 10.0             # seconds
    seed: int = 0

    def __post_init__(self):
        for name in ("fps", "mean_frame_size", "packets_per_frame",
                     "intra_spacing", "duration"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("background_rate", "jitter_std"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SeriesSpec:
    length: int = 2000
    level: float = 100.0
    amplitude: float = 20.0
    period: float = 50.0
    slope: float = 0.0
    noise_std: float = 1.0
    spike_rate: float = 0.0            # probability of a peak starting at a sample
    spike_height: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("length must be >= 1")
        if not self.period > 0:
            raise ConfigError("period must be positive")
        for name in ("noise_std", "spike_rate", "spike_height"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.spike_rate > 1:
            raise ConfigError("spike_rate must be <= 1")


# a spike rises over a few samples so that peaks are visible in the lookback
SPIKE_SHAPE = np.array([0.3, 0.7, 1.0, 0.6, 0.3])


def gen_trace(spec: TraceSpec) -> tuple[PacketTable, FrameTable]:
    """Downlink frame bursts at the configured fps plus sparse small
    background packets; returns packets sorted by time and the planted frames."""
    rng = np.random.default_rng(spec.seed)
    pkt_len = max(43, spec.mean_frame_size // spec.packets_per_frame)
    events: list[tuple[float, int]] = []
    starts: list[float] = []
    ends: list[float] = []
    n_frames = int(spec.fps * spec.duration)
    for k in range(n_frames):
        start = k / spec.fps
        if spec.jitter_std > 0:
            start += rng.normal(0.0, spec.jitter_std)
        start = max(start, 0.0)
        times = start + np.arange(spec.packets_per_frame) * spec.intra_spacing
        for t in times:
            events.append((float(t), pkt_len))
        starts.append(float(times[0]))
        ends.append(float(times[-1]))
    n_bg = rng.poisson(spec.background_rate * spec.duration)
    for t in np.sort(rng.uniform(0.0, spec.duration, n_bg)):
        events.append((float(t), 100))
    events.sort()
    t0 = events[0][0] if events else 0.0
    ts = np.array([t for t, _ in events], dtype=np.float64) - t0
    length = [ln for _, ln in events]
    packets = PacketTable(ts, length, np.ones(len(events), dtype=bool))
    planted = FrameTable(np.array(starts) - t0, np.array(ends) - t0,
                         np.full(n_frames, pkt_len * spec.packets_per_frame),
                         np.full(n_frames, spec.packets_per_frame))
    return packets, planted


@dataclass
class SeriesComponents:
    base: np.ndarray       # level + sine + trend
    noise: np.ndarray
    spikes: np.ndarray


def gen_series(spec: SeriesSpec) -> tuple[np.ndarray, SeriesComponents]:
    """level + sine + trend + gaussian noise + sparse positive peak spikes."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    base = spec.level + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period) + spec.slope * t
    noise = rng.normal(0.0, spec.noise_std, spec.length) if spec.noise_std > 0 else np.zeros(spec.length)
    spikes = np.zeros(spec.length)
    if spec.spike_rate > 0 and spec.spike_height > 0:
        onsets = np.nonzero(rng.uniform(size=spec.length) < spec.spike_rate)[0]
        for k in onsets:
            height = spec.spike_height * rng.uniform(0.8, 1.2)
            end = min(k + SPIKE_SHAPE.size, spec.length)
            spikes[k:end] += height * SPIKE_SHAPE[: end - k]
    values = base + noise + spikes
    return values, SeriesComponents(base=base, noise=noise, spikes=spikes)
