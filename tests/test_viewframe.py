import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reslearn.errors import EmptySegment
from reslearn.synth import TraceSpec, gen_trace
from reslearn.viewframe import (
    Thresholds,
    estimate_len_threshold,
    estimate_thresholds,
    features_csv,
    identify_frames,
    segment_features,
    threshold_report,
)

from oracles import (
    DOWNLINK,
    UPLINK,
    assign_frames,
    frame_rows,
    frame_table,
    loop_frames,
    loop_segment_features,
    table,
)


def dl(ts, length):
    return (ts, length, DOWNLINK)


def brute_force_histogram_threshold(iats, bins):
    """Independent oracle: same histogram rule, written as plain loops."""
    logs = [np.log10(v) for v in iats if v > 0]
    lo, hi = min(logs), max(logs)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in logs:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    min_count = max(2, -(-len(logs) // 100))
    peaks = []
    for i in range(bins):
        left = counts[i - 1] if i > 0 else 0
        right = counts[i + 1] if i < bins - 1 else 0
        if counts[i] > left and counts[i] > right and counts[i] >= min_count:
            peaks.append(lo + (i + 0.5) * width)
    assert len(peaks) >= 2
    return 10 ** ((peaks[0] + peaks[1]) / 2), width


class TestLenThreshold:
    def test_quarter_of_max(self):
        packets = [dl(0, 1400), dl(0.1, 700)]
        assert estimate_len_threshold(table(packets)) == 350.0

    def test_all_equal(self):
        packets = [dl(i * 0.1, 100) for i in range(5)]
        assert estimate_len_threshold(table(packets)) == 25.0

    def test_planted_max(self):
        rng = np.random.default_rng(0)
        lengths = list(rng.integers(60, 1400, size=99)) + [1500]
        packets = [dl(i * 0.001, int(ln)) for i, ln in enumerate(lengths)]
        assert estimate_len_threshold(table(packets)) == 375.0

    def test_empty(self):
        with pytest.raises(EmptySegment):
            estimate_len_threshold(table([]))

    def test_scale_consistency(self):
        packets = [dl(i * 0.01, ln) for i, ln in enumerate((120, 460, 990))]
        scaled = [dl(ts, length * 3) for ts, length, _ in packets]
        assert estimate_len_threshold(table(scaled)) == 3 * estimate_len_threshold(table(packets))


DEFAULT_DUR_TH = 0.003


def packets_from_iats(iats):
    ts = np.concatenate([[0.0], np.cumsum(iats)])
    return [dl(float(t), 1000) for t in ts]


class TestDurThreshold:
    def test_bimodal_mixture(self):
        rng = np.random.default_rng(1)
        iats = np.concatenate([
            rng.normal(2e-4, 1e-5, 500),
            rng.normal(2e-2, 1e-3, 500),
        ])
        rng.shuffle(iats)
        packets = packets_from_iats(iats)
        th = estimate_thresholds(table(packets), 50, DEFAULT_DUR_TH)
        assert len(th.peaks) >= 2
        assert 2e-4 < th.dur_th < 2e-2
        oracle, width = brute_force_histogram_threshold(iats, 50)
        # agree within one bin width in the log domain
        assert abs(np.log10(th.dur_th) - np.log10(oracle)) <= width + 1e-12

    def test_identical_iats_degenerate(self):
        packets = [dl(i * 0.001, 1000) for i in range(10)]
        th = estimate_thresholds(table(packets), 50, DEFAULT_DUR_TH)
        assert (th.dur_th, th.peaks) == (DEFAULT_DUR_TH, ())

    def test_three_mode_mixture_ignores_third(self):
        rng = np.random.default_rng(2)
        iats = np.concatenate([
            rng.normal(1e-4, 5e-6, 400),
            rng.normal(5e-3, 2e-4, 400),
            rng.normal(2e-1, 1e-2, 200),
        ])
        rng.shuffle(iats)
        packets = packets_from_iats(iats)
        th = estimate_thresholds(table(packets), 50, DEFAULT_DUR_TH)
        assert len(th.peaks) >= 2
        assert 1e-4 < th.dur_th < 5e-3
        oracle, width = brute_force_histogram_threshold(iats, 50)
        assert abs(np.log10(th.dur_th) - np.log10(oracle)) <= width + 1e-12

    def test_too_few_packets(self):
        th = estimate_thresholds(table([dl(0, 100), dl(0.1, 100)]), 50, DEFAULT_DUR_TH)
        assert (th.len_th, th.dur_th, th.peaks) == (25.0, DEFAULT_DUR_TH, ())


class TestIdentifyFrames:
    TH = Thresholds(len_th=600.0, dur_th=0.002)

    def test_two_burst_trace(self):
        packets = [dl(i * 0.0005, 1200) for i in range(10)]
        t = packets[-1][0] + 0.05
        packets += [dl(t + i * 0.0005, 1200) for i in range(8)]
        frames = identify_frames(table(packets), self.TH)
        assert frames.size.tolist() == [12000, 9600]
        assert frames.packet_count.tolist() == [10, 8]
        assert frame_rows(frames) == loop_frames(table(packets), 600.0, 0.002)

    def test_all_below_threshold(self):
        packets = [dl(i * 0.001, 100) for i in range(50)]
        assert len(identify_frames(table(packets), self.TH)) == 0

    def test_single_eligible_packet(self):
        frames = identify_frames(table([dl(0.5, 900)]), self.TH)
        assert frame_rows(frames) == [(0.5, 0.5, 900, 1)]

    def test_min_packets_discards_singletons(self):
        packets = [dl(0.0, 1200), dl(1.0, 1200), dl(1.0005, 1200)]
        frames = identify_frames(table(packets), self.TH, min_packets=2)
        assert frames.packet_count.tolist() == [2]

    def test_uplink_ignored_by_default(self):
        packets = [(0.0, 1200, UPLINK)]
        assert len(identify_frames(table(packets), self.TH)) == 0

    def test_columns_dtypes(self):
        for packets in ([dl(0.5, 900)], [dl(0.5, 100)]):
            frames = identify_frames(table(packets), self.TH)
            assert [c.dtype for c in (frames.start_ts, frames.end_ts, frames.size,
                                      frames.packet_count)] == [np.float64, np.float64,
                                                                np.int64, np.int64]

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force_on_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        t = 0.0
        packets = []
        for _ in range(rng.integers(1, 150)):
            t += float(rng.exponential(0.002))
            packets.append(dl(t, int(rng.integers(50, 1500))))
        frames = identify_frames(table(packets), self.TH)
        assert frame_rows(frames) == loop_frames(table(packets), 600.0, 0.002)
        # frames are time-disjoint and ordered
        assert (frames.end_ts[:-1] < frames.start_ts[1:]).all()
        # conservation: total frame size equals total eligible length
        eligible = sum(length for _, length, _ in packets if length >= 600)
        assert int(frames.size.sum()) == eligible

    def test_recovers_planted_frames(self):
        spec = TraceSpec(duration=5.0, jitter_std=0.0, background_rate=20.0, seed=4)
        packets, planted = gen_trace(spec)
        th = estimate_thresholds(packets[packets.ts < 1.0], 50, DEFAULT_DUR_TH)
        assert len(th.peaks) >= 2
        assert spec.intra_spacing <= th.dur_th / 3
        assert 1.0 / spec.fps >= 3 * th.dur_th
        frames = identify_frames(packets, th)
        assert len(frames) == len(planted)
        assert frames.size.sum() == planted.size.sum()


class TestFrameScanAgainstLoop:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_matches_scalar_loop(self, seed, min_packets):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        packets = table(zip(np.cumsum(rng.exponential(0.002, n)).tolist(),
                            rng.integers(50, 1500, n).tolist(),
                            (rng.random(n) < 0.8).tolist()))
        th = Thresholds(len_th=600.0, dur_th=0.002)
        ts = packets.ts[packets.downlink]
        length = packets.length[packets.downlink]
        fid = assign_frames(ts, length >= th.len_th, th.dur_th)
        expected = []
        for k in range(fid.max() + 1 if fid.size else 0):   # no downlink: no frame
            member = fid == k
            if member.sum() >= min_packets:
                t = ts[member]
                expected.append((float(t[0]), float(t[-1]),
                                 int(length[member].sum()), int(member.sum())))
        assert frame_rows(identify_frames(packets, th, min_packets=min_packets)) == expected


class TestSegmentFeatures:
    def test_hand_assigned(self):
        frames = frame_table([(0.1, 0.11, 10, 1), (0.2, 0.21, 20, 1), (1.3, 1.31, 30, 1)])
        feats = segment_features(frames, 1.0, 2)
        assert feats[0].f_c == 2
        assert feats[0].f_s == 30
        assert feats[0].f_iat == pytest.approx(0.1)
        assert feats[1].f_c == 1
        assert feats[1].f_s == 30
        assert feats[1].f_iat is None

    def test_no_frames(self):
        feats = segment_features(frame_table([]), 1.0, 3)
        assert all(sf.f_c == 0 and sf.f_s == 0 and sf.f_iat is None for sf in feats)
        assert [sf.segment_index for sf in feats] == [0, 1, 2]

    def test_single_frame_per_segment(self):
        frames = frame_table([(i + 0.5, i + 0.51, 100, 1) for i in range(5)])
        feats = segment_features(frames, 1.0, 5)
        assert all(sf.f_c == 1 and sf.f_iat is None for sf in feats)


@st.composite
def frame_tables(draw):
    """(frames, segment_duration, num_segments): 0, 1, 2 or
    at least 9 frames in each segment (9 starts give 8 gaps, numpy's pairwise
    summation), starts on segment edges, before the first segment and past
    the last, in any order."""
    segment_duration = draw(st.sampled_from([0.25, 1.0, 0.1, 1 / 3]))
    num_segments = draw(st.integers(0, 5))
    starts = []
    for k in range(num_segments):
        for _ in range(draw(st.sampled_from([0, 1, 2, 9, 10, 17]))):
            offset = draw(st.one_of(st.just(0.0),
                                    st.floats(0.0, segment_duration, exclude_max=True)))
            starts.append(k * segment_duration + offset)
    starts += draw(st.lists(st.sampled_from([
        -segment_duration, -1e-9, num_segments * segment_duration,
        (num_segments + 2.5) * segment_duration]), max_size=3))
    starts = draw(st.permutations(starts))
    sizes = draw(st.lists(st.integers(1, 2**40), min_size=len(starts), max_size=len(starts)))
    rows = [(t, t + 0.001, z, 1) for t, z in zip(starts, sizes)]
    return frame_table(rows), segment_duration, num_segments


def shuffled_trace(rng, n):
    """n packets whose timestamps run backwards now and then: a short run of
    packets moved elsewhere in capture order, as in a pcap whose records are
    out of time order."""
    ts = np.cumsum(rng.exponential(0.002, n))
    order = np.arange(n)
    for _ in range(rng.integers(0, 4)):
        a, b = np.sort(rng.integers(0, n, 2))
        order = np.insert(np.delete(order, np.s_[a:b]), rng.integers(0, n - (b - a) + 1),
                          order[a:b])
    return table(zip(ts[order].tolist(), rng.integers(50, 1500, n).tolist(),
                     (rng.random(n) < 0.9).tolist()))


class TestFramePathAgainstLoops:
    @settings(deadline=None, max_examples=200)
    @given(frame_tables())
    def test_segment_features(self, case):
        frames, segment_duration, num_segments = case
        feats = segment_features(frames, segment_duration, num_segments)
        expected = loop_segment_features(frame_rows(frames), segment_duration, num_segments)
        assert feats == expected
        assert features_csv(feats) == features_csv(expected)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_packets_to_features(self, seed, min_packets):
        rng = np.random.default_rng(seed)
        packets = shuffled_trace(rng, int(rng.integers(1, 400)))
        th = Thresholds(len_th=600.0, dur_th=0.002)
        frames = identify_frames(packets, th, min_packets=min_packets)
        assert frame_rows(frames) == loop_frames(packets, th.len_th, th.dur_th, min_packets)
        num_segments = int(packets.ts.max() // 0.05)
        feats = segment_features(frames, 0.05, num_segments)
        expected = loop_segment_features(frame_rows(frames), 0.05, num_segments)
        assert feats == expected
        assert features_csv(feats) == features_csv(expected)


class TestReports:
    def test_features_csv_uses_na(self):
        frames = frame_table([(0.1, 0.11, 10, 1)])
        text = features_csv(segment_features(frames, 1.0, 1))
        assert text == "segment,f_c,f_s,f_iat\n0,1,10,NA\n"

    def test_threshold_report_fields(self):
        text = threshold_report(Thresholds(350.0, 0.002, bins=50, peaks=(0.0002, 0.02)))
        assert '"len_th": 350.0' in text
        assert '"peaks"' in text
