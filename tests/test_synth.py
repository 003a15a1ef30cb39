import numpy as np
import pytest

from reslearn.errors import ConfigError
from reslearn.seriesprep import rolling_mean, runs_test
from reslearn.synth import SeriesSpec, TraceSpec, gen_series, gen_trace


class TestGenTrace:
    def test_frame_count_matches_fps_times_duration(self):
        packets, planted = gen_trace(TraceSpec(fps=72.0, duration=10.0))
        assert len(planted) == 720
        frame_packets = int(planted.packet_count.sum())
        assert frame_packets == 720 * 10
        assert len(packets) >= frame_packets   # background on top

    def test_deterministic(self):
        spec = TraceSpec(jitter_std=0.001, seed=5)
        (pa, fa), (pb, fb) = gen_trace(spec), gen_trace(spec)
        for column in ("start_ts", "end_ts", "size", "packet_count"):
            np.testing.assert_array_equal(getattr(fa, column), getattr(fb, column))
        np.testing.assert_array_equal(pa.ts, pb.ts)
        np.testing.assert_array_equal(pa.length, pb.length)
        np.testing.assert_array_equal(pa.downlink, pb.downlink)

    def test_planted_frame_geometry_no_jitter(self):
        spec = TraceSpec(fps=50.0, packets_per_frame=4, intra_spacing=0.0001,
                         jitter_std=0.0, background_rate=0.0, duration=1.0)
        _, planted = gen_trace(spec)
        assert len(planted) == 50
        np.testing.assert_allclose(planted.start_ts, np.arange(50) / 50.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(planted.end_ts - planted.start_ts, 3 * 0.0001,
                                   rtol=0, atol=1e-12)
        assert planted.size.tolist() == [(12000 // 4) * 4] * 50
        assert planted.packet_count.tolist() == [4] * 50

    def test_packets_sorted_and_downlink(self):
        packets, _ = gen_trace(TraceSpec(jitter_std=0.002, seed=3))
        assert (np.diff(packets.ts) >= 0).all()
        assert packets.downlink.all()

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            TraceSpec(fps=0)
        with pytest.raises(ConfigError):
            TraceSpec(jitter_std=-1)


class TestGenSeries:
    def test_noiseless_matches_analytic_formula(self):
        spec = SeriesSpec(length=200, level=10.0, amplitude=3.0, period=25.0,
                          slope=0.01, noise_std=0.0)
        values, comps = gen_series(spec)
        t = np.arange(200)
        expected = 10.0 + 3.0 * np.sin(2 * np.pi * t / 25.0) + 0.01 * t
        np.testing.assert_allclose(values, expected, atol=1e-12)
        np.testing.assert_array_equal(comps.noise, 0.0)
        np.testing.assert_array_equal(comps.spikes, 0.0)

    def test_components_sum_to_values(self):
        spec = SeriesSpec(spike_rate=0.05, spike_height=30.0, seed=4)
        values, comps = gen_series(spec)
        np.testing.assert_allclose(values, comps.base + comps.noise + comps.spikes,
                                   atol=1e-12)

    def test_deterministic(self):
        spec = SeriesSpec(spike_rate=0.02, spike_height=60.0, seed=11)
        np.testing.assert_array_equal(gen_series(spec)[0], gen_series(spec)[0])

    def test_spikes_nonnegative(self):
        _, comps = gen_series(SeriesSpec(spike_rate=0.1, spike_height=20.0, seed=2))
        assert comps.spikes.min() >= 0.0
        assert comps.spikes.max() > 0.0

    def test_smoothed_sine_fails_runs_test(self):
        values, _ = gen_series(SeriesSpec(length=500, noise_std=0.5, seed=6))
        assert runs_test(rolling_mean(values, 20)).p_value < 1e-6

    def test_pure_noise_passes_runs_test_usually(self):
        hits = 0
        for seed in range(40):
            values, _ = gen_series(SeriesSpec(length=300, amplitude=0.0,
                                              noise_std=1.0, seed=seed))
            if runs_test(values).p_value > 0.05:
                hits += 1
        assert hits >= 36

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            SeriesSpec(length=0)
        with pytest.raises(ConfigError):
            SeriesSpec(spike_rate=1.5)
