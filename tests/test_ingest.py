import io
import os
import signal
import struct
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from reslearn import ingest, placement
from reslearn.errors import (
    BadMagic,
    ConfigError,
    ResLearnError,
    RowParseError,
    SchemaMismatch,
    TruncatedHeader,
)
from reslearn.ingest import (
    EndpointFilter,
    PacketTable,
    parse_csv,
    parse_pcap,
    write_csv,
)

from cpus import on_cpus
from oracles import (
    DOWNLINK,
    UPLINK,
    parse_pcap_records,
    rows,
    table,
    vector_guess_record_start,
    write_pcap,
)

SERVER = "10.0.0.1"
FILT = EndpointFilter(SERVER)
PORT = 7777


def csv_text(packets):
    out = io.StringIO()
    write_csv(packets, out)
    return out.getvalue()


def global_header(magic=0xA1B2C3D4, network=1, endian="<"):
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, network)


def parse(data: bytes, filt=FILT):
    return parse_pcap(io.BytesIO(data), filt)


class TestParsePcap:
    def test_empty_body_after_global_header(self):
        result = parse(global_header())
        assert len(result.records) == 0
        assert result.skipped == 0
        assert result.warnings == 0

    def test_two_packet_downlink_trace(self):
        # raw capture times 10.000000 and 10.005000, both sent by the server
        data = write_pcap(table([(10.0, 1200, DOWNLINK), (10.005, 900, DOWNLINK)]), FILT)
        # independent check of the assembled bytes: record headers at fixed offsets
        sec0, usec0, incl0, _ = struct.unpack_from("<IIII", data, 24)
        assert (sec0, usec0, incl0) == (10, 0, 1200)
        sec1, usec1, incl1, _ = struct.unpack_from("<IIII", data, 24 + 16 + 1200)
        assert (sec1, usec1, incl1) == (10, 5000, 900)

        result = parse(data)
        assert result.records.ts.tolist() == pytest.approx([0.0, 0.005])
        assert result.records.length.tolist() == [1200, 900]
        assert result.records.downlink.all()

    def test_bad_magic(self):
        data = struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1)
        with pytest.raises(BadMagic):
            parse(data)

    def test_pcapng_magic_names_the_limitation(self):
        data = struct.pack("<IHHiIII", 0x0A0D0D0A, 2, 4, 0, 0, 65535, 1)
        with pytest.raises(BadMagic, match="pcapng"):
            parse(data)

    def test_truncated_global_header(self):
        with pytest.raises(TruncatedHeader):
            parse(b"\xd4\xc3\xb2\xa1short")

    def test_truncated_record_returns_partial(self):
        data = write_pcap(table([(0.0, 100, DOWNLINK), (0.1, 100, UPLINK)]), FILT)
        result = parse(data[:-30])
        assert len(result.records) == 1
        assert result.warnings == 1

    def test_big_endian_header_accepted(self):
        body = write_pcap(table([(1.5, 80, DOWNLINK)]), FILT)[24:]
        header = global_header(endian=">")
        # record header must match the global header's endianness
        sec, usec, incl, orig = struct.unpack_from("<IIII", body, 0)
        swapped = struct.pack(">IIII", sec, usec, incl, orig) + body[16:]
        result = parse(header + swapped)
        assert len(result.records) == 1
        assert result.records.length.tolist() == [80]

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_nanosecond_magic(self, endian):
        body = write_pcap(table([(0.0, 80, DOWNLINK), (0.0, 80, UPLINK)]), FILT)[24:]
        frame = body[16:16 + 80]
        records = b"".join(
            struct.pack(endian + "IIII", sec, nsec, 80, 80) + frame
            for sec, nsec in ((7, 123_456_789), (8, 999_999_999))
        )
        result = parse(global_header(0xA1B23C4D, endian=endian) + records)
        assert result.warnings == 0
        t0 = 7 + 123_456_789 * 1e-9
        assert result.records.ts.tolist() == [0.0, (8 + 999_999_999 * 1e-9) - t0]

    def test_vlan_tag_unwrapped(self):
        data = write_pcap(table([(0.0, 100, DOWNLINK), (0.001, 200, UPLINK)]), FILT)
        tagged = bytearray(data[:24])
        offset = 24
        while offset < len(data):
            sec, usec, incl, orig = struct.unpack_from("<IIII", data, offset)
            frame = data[offset + 16:offset + 16 + incl]
            # 802.1Q: TPID 0x8100 and a TCI go before the original ethertype
            frame = frame[:12] + struct.pack("!HH", 0x8100, 42) + frame[12:]
            tagged += struct.pack("<IIII", sec, usec, incl + 4, orig + 4) + frame
            offset += 16 + incl
        result = parse(bytes(tagged))
        assert result.skipped == 0
        assert rows(result.records) == [(0.0, 104, DOWNLINK), (0.001, 204, UPLINK)]

    def test_non_matching_and_non_ip_skipped(self):
        other = EndpointFilter("172.16.0.9")
        data = write_pcap(table([(0.0, 100, DOWNLINK)]), FILT)
        result = parse(data, other)
        assert len(result.records) == 0
        assert result.skipped == 1

    def test_port_filter(self):
        filt = EndpointFilter(SERVER, port=PORT)
        data = write_pcap(table([(0.0, 100, DOWNLINK)]), filt)
        assert len(parse(data, filt).records) == 1
        wrong_port = EndpointFilter(SERVER, port=1234)
        result = parse(data, wrong_port)
        assert len(result.records) == 0
        assert result.skipped == 1

    def test_writer_round_trip_recovers_planted_fields(self):
        rng = np.random.default_rng(3)
        planted = []
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.0001, 0.01))
            length = int(rng.integers(60, 1500))
            planted.append((t, length, bool(rng.random() < 0.7)))
        result = parse(write_pcap(table(planted), FILT))
        assert len(result.records) == len(planted)
        t0 = planted[0][0]
        for (ts, length, down), (p_ts, p_length, p_down) in zip(rows(result.records), planted):
            assert ts == pytest.approx(p_ts - t0, abs=1.1e-6)  # usec resolution
            assert length == p_length
            assert down is p_down

    def test_snap_length_keeps_original_length(self):
        lengths = [60, 61, 100, 1200, 1500]
        data = bytearray(write_pcap(
            table((0.001 * i, n, DOWNLINK) for i, n in enumerate(lengths)), FILT
        ))
        # rewrite as a capture with a 60-byte snap length: each record keeps
        # orig_len but only its first incl_len = min(orig_len, 60) bytes
        snapped = bytearray(data[:24])
        offset = 24
        while offset < len(data):
            sec, usec, incl, orig = struct.unpack_from("<IIII", data, offset)
            cut = min(incl, 60)
            snapped += struct.pack("<IIII", sec, usec, cut, orig)
            snapped += data[offset + 16:offset + 16 + cut]
            offset += 16 + incl
        result = parse(bytes(snapped))
        assert result.warnings == 0
        assert result.records.length.tolist() == lengths

    def test_oversized_first_incl_len_returns_promptly(self):
        good = write_pcap(table([(0.0, 100, DOWNLINK)] * 50), FILT)
        data = bytearray(good)
        struct.pack_into("<I", data, 24 + 8, 0xFFFFFFFF)
        start = time.perf_counter()
        result = parse(bytes(data))
        assert time.perf_counter() - start < 1.0
        assert len(result.records) == 0
        assert result.warnings == 1

    def test_record_longer_than_chunk_completed_in_one_read(self):
        class CountingStream(io.BytesIO):
            reads = 0

            def readinto(self, buffer):
                self.reads += 1
                return super().readinto(buffer)

        stream = CountingStream(write_pcap(
            table([(0.0, 9000, DOWNLINK), (0.001, 9000, UPLINK)]), FILT))
        with mock.patch.object(ingest, "CHUNK_BYTES", 64):
            result = parse_pcap(stream, FILT)
        assert rows(result.records) == [(0.0, 9000, DOWNLINK), (0.001, 9000, UPLINK)]
        # per record: one chunk that holds its header, one read of the rest
        assert stream.reads == 4

    def test_memory_bounded_by_chunk(self, tmp_path):
        path = tmp_path / "big.pcap"
        n = 28_000
        ts = np.arange(n) * 2e-4
        path.write_bytes(write_pcap(table((t, 1200, DOWNLINK) for t in ts.tolist()), FILT))
        size = path.stat().st_size
        assert size >= 32 << 20
        tracemalloc.start()
        try:
            with open(path, "rb") as stream:
                result = parse_pcap(stream, FILT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == n
        assert peak < size / 4


# --- the columnar parser against the per-record oracle ---------------------

SERVER_BYTES = bytes([10, 0, 0, 1])
HOSTS = [SERVER_BYTES, bytes([192, 168, 0, 2]), bytes([172, 16, 0, 9])]


@st.composite
def frames(draw):
    ethertype = draw(st.sampled_from([0x0800, 0x0800, 0x8100, 0x86DD, 0x0806]))
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", ethertype)
    if ethertype == 0x8100:
        inner = draw(st.sampled_from([0x0800, 0x86DD, 0x8100]))
        eth += struct.pack("!HH", draw(st.integers(0, 0xFFFF)), inner)
    version = draw(st.sampled_from([4, 4, 6]))
    ihl = draw(st.sampled_from([5, 5, 6, 0, 3, 15]))
    proto = draw(st.sampled_from([6, 17, 1]))
    src, dst = draw(st.sampled_from(HOSTS)), draw(st.sampled_from(HOSTS))
    ip = bytes([version << 4 | ihl]) + bytes(8) + bytes([proto]) + bytes(2) + src + dst
    ip += bytes(max(0, ihl * 4 - 20))
    ports = struct.pack("!HH", draw(st.sampled_from([PORT, 52000])),
                        draw(st.sampled_from([PORT, 52000])))
    return eth + ip + ports + draw(st.binary(max_size=24))


@st.composite
def captures(draw, plausible=False):
    """A classic pcap of random records; with `plausible`, every header's
    fraction is below one second and its orig_len at least its incl_len, so
    that chains of plausible headers are common."""
    endian = draw(st.sampled_from("<>"))
    magic = draw(st.sampled_from([0xA1B2C3D4, 0xA1B23C4D]))
    out = bytearray(global_header(magic, endian=endian))
    for _ in range(draw(st.integers(0, 25))):
        frame = draw(frames())
        incl = draw(st.integers(0, len(frame)))      # snap length cuts the frame
        orig = draw(st.integers(incl, incl + 1500) if plausible else st.integers(0, 2**32 - 1))
        sec = draw(st.integers(0, 2**32 - 1))
        frac = draw(st.integers(0, 999_999) if plausible else st.integers(0, 2**32 - 1))
        out += struct.pack(endian + "IIII", sec, frac, incl, orig) + frame[:incl]
    if draw(st.booleans()):
        out = out[:len(out) - draw(st.integers(0, 40))]
    return bytes(out)


def assert_matches_oracle(data: bytes, filt: EndpointFilter):
    try:
        expected = parse_pcap_records(data, filt.packed_address(), filt.port)
    except ResLearnError as exc:
        with pytest.raises(type(exc)):
            parse(data, filt)
        return
    result = parse(data, filt)
    packets, skipped, warnings = expected
    ts = np.array([p[0] for p in packets], dtype=np.float64)
    np.testing.assert_array_equal(result.records.ts.view(np.int64), ts.view(np.int64))
    assert result.records.length.tolist() == [p[1] for p in packets]
    assert result.records.downlink.tolist() == [p[2] for p in packets]
    assert (result.skipped, result.warnings) == (skipped, warnings)


FILTERS = st.sampled_from([FILT, EndpointFilter(SERVER, port=PORT)])


class TestAgainstOracle:
    @settings(deadline=None, max_examples=150)
    @given(captures(), FILTERS)
    def test_random_captures(self, data, filt):
        assert_matches_oracle(data, filt)

    @settings(deadline=None, max_examples=100)
    @given(captures(), FILTERS, st.integers(1, 300))
    def test_records_straddling_chunk_edges(self, data, filt, chunk):
        with mock.patch.object(ingest, "CHUNK_BYTES", chunk):
            assert_matches_oracle(data, filt)

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    @given(captures(), FILTERS, st.integers(1, 300), st.data())
    def test_truncated_bit_flipped_and_oversized(self, data, filt, chunk, draw):
        data = bytearray(data)
        for _ in range(draw.draw(st.integers(0, 4)) if data else 0):
            bit = draw.draw(st.integers(0, 8 * len(data) - 1))
            data[bit // 8] ^= 1 << (bit % 8)
        if len(data) >= 40 and draw.draw(st.booleans()):
            # an incl_len field of the first record, or wherever it now lies
            offset = draw.draw(st.integers(24, len(data) - 4))
            data[offset:offset + 4] = draw.draw(
                st.sampled_from([b"\xff\xff\xff\xff", b"\x00\x00\x00\x7f", b"\x00\x10\x00\x00"]))
        data = data[:draw.draw(st.integers(0, len(data)))]
        with mock.patch.object(ingest, "CHUNK_BYTES", chunk):
            assert_matches_oracle(bytes(data), filt)


# --- the parse split over processes against the sequential scan ------------

def records(data: bytes) -> list[tuple[int, int]]:
    """(start, end) offsets of the whole records of a capture, walked one at
    a time."""
    endian = "<" if struct.unpack_from("<I", data, 0)[0] in (0xA1B2C3D4, 0xA1B23C4D) else ">"
    found, offset = [], 24
    while offset + 16 <= len(data):
        end = offset + 16 + struct.unpack_from(endian + "I", data, offset + 8)[0]
        if end > len(data):
            break
        found.append((offset, end))
        offset = end
    return found


def record_starts(data: bytes) -> list[int]:
    return [start for start, _ in records(data)]


def assert_same_parse(result, expected):
    np.testing.assert_array_equal(result.records.ts.view(np.int64),
                                  expected.records.ts.view(np.int64))
    np.testing.assert_array_equal(result.records.length, expected.records.length)
    np.testing.assert_array_equal(result.records.downlink, expected.records.downlink)
    assert (result.skipped, result.warnings) == (expected.skipped, expected.warnings)


def split_parse(path, filt):
    """parse_pcap of the file at `path` on two usable CPUs."""
    with on_cpus(2), open(path, "rb") as stream:
        return parse_pcap(stream, filt)


class ScanSpy:
    """Wraps ingest._scan: records (start, stop) of each call, in `calls` for
    this process and as a file in the directory `marks` for a forked child,
    which then runs `in_child`, if given."""

    def __init__(self, marks, in_child=None):
        self.scan, self.parent, self.in_child = ingest._scan, os.getpid(), in_child
        self.marks, self.calls = marks, []
        marks.mkdir()

    def __call__(self, cap, start, stop):
        if os.getpid() == self.parent:
            self.calls.append((start, stop))
        else:
            (self.marks / f"{start}-{stop}-{os.getpid()}").touch()
            if self.in_child is not None:
                self.in_child()
        return self.scan(cap, start, stop)

    def child_calls(self) -> list[tuple[int, int]]:
        return sorted(tuple(map(int, m.name.split("-")[:2])) for m in self.marks.iterdir())


def long_capture(n=400, seed=5) -> bytes:
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(1e-5, 1e-3, n)) + 1.7e9
    lengths = rng.integers(42, 1500, n)
    down = rng.random(n) < 0.7
    return write_pcap(table(zip(ts.tolist(), lengths.tolist(), down.tolist())), FILT)


class TestSplitParse:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(captures(), FILTERS, st.integers(1, 24), st.data())
    def test_equals_sequential_parse(self, tmp_path, data, filt, chunk, draw):
        whole = records(data) if len(data) >= 24 else []
        with_body = [(start, end) for start, end in whole if end > start + 16]
        kinds = ["past_end"] + ["record_start", "inside_header"] * bool(whole)
        kinds += ["inside_record"] * bool(with_body)
        kind = draw.draw(st.sampled_from(kinds))
        if kind == "past_end":
            split = len(data) + draw.draw(st.integers(1, 40))
        elif kind == "inside_record":
            start, end = draw.draw(st.sampled_from(with_body))
            split = draw.draw(st.integers(start + 16, end - 1))
        else:
            start = draw.draw(st.sampled_from(whole))[0]
            split = start + (kind == "inside_header") * draw.draw(st.integers(1, 15))
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        try:
            expected = parse(data, filt)
        except ResLearnError as exc:
            with pytest.raises(type(exc)):
                split_parse(path, filt)
            return
        with mock.patch.object(ingest, "CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_guess_record_start", lambda cap, offset: split):
            assert_same_parse(split_parse(path, filt), expected)

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(captures(), captures(plausible=True)),
           st.one_of(st.integers(16, 300), st.just(ingest.GUESS_WINDOW)),
           st.integers(1, ingest.GUESS_CHAIN), st.sampled_from([ingest.GUESS_MAX_ORIG, 2**32]))
    def test_guess_matches_the_vector_oracle(self, data, window, chain, max_orig):
        assume(len(data) >= 24)
        cap = ingest._capture(io.BytesIO(data), FILT)
        with mock.patch.multiple(ingest, GUESS_WINDOW=window, GUESS_CHAIN=chain,
                                 GUESS_MAX_ORIG=max_orig):
            for offset in range(24, len(data) + 1):
                assert (ingest._guess_record_start(cap, offset)
                        == vector_guess_record_start(cap, offset)), offset

    def test_guess_finds_the_true_record_starts(self, tmp_path):
        data = long_capture()
        starts = record_starts(data)
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        with open(path, "rb") as stream:
            cap = ingest._capture(stream, FILT)
            for offset in range(24, len(data), 97):
                expected = next(s for s in starts if s >= offset) if offset <= starts[-1] else None
                assert ingest._guess_record_start(cap, offset) == expected, offset
        # and the split is taken: two children walk the halves, this process none
        spy = ScanSpy(tmp_path / "marks")
        with mock.patch.object(ingest, "CHUNK_BYTES", 1024), \
                mock.patch.object(ingest, "_scan", spy):
            result = split_parse(path, FILT)
        assert_same_parse(result, parse(data))
        split = next(s for s in starts if s >= len(data) // 2)
        assert spy.calls == []
        assert spy.child_calls() == [(24, split), (split, len(data))]

    @pytest.mark.parametrize("end_child", ["raise", "kill"])
    def test_failed_child_gives_the_same_result(self, end_child, tmp_path):
        def fail():
            if end_child == "raise":
                raise RuntimeError("a child fails")
            os.kill(os.getpid(), signal.SIGKILL)

        data = long_capture()
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        spy = ScanSpy(tmp_path / "marks", fail)
        with mock.patch.object(ingest, "CHUNK_BYTES", 1024), \
                mock.patch.object(ingest, "_scan", spy):
            result = split_parse(path, FILT)
        assert_same_parse(result, parse(data))
        # a child walked a range and failed; this process walked the whole capture
        assert spy.child_calls()
        assert spy.calls == [(24, len(data))]

    def test_children_leave_the_shared_file_offset_alone(self, tmp_path):
        """After fork a child shares the parent's file offset: the child
        reads by position, so neither the parent moving the offset nor the
        child can disturb the other's reads."""
        marks = tmp_path / "marks"
        marks.mkdir()
        owner = os.getpid()

        class Watched(io.BufferedReader):
            def _mark(self, name):
                if os.getpid() != owner:
                    (marks / f"{name}-{os.getpid()}").touch()

            def seek(self, *args):
                self._mark("seek")
                return super().seek(*args)

            def read(self, *args):
                self._mark("read")
                return super().read(*args)

            def readinto(self, buffer):
                self._mark("readinto")
                return super().readinto(buffer)

        data = long_capture()
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        stream = Watched(io.FileIO(path))
        scan, walks = ingest._scan, []

        def scan_moving_offset(cap, start, stop):
            # both processes move the shared offset as their walks start
            stream.seek(len(data) // 2)
            if os.getpid() == owner:
                walks.append(start)
            return scan(cap, start, stop)

        with stream, mock.patch.object(ingest, "CHUNK_BYTES", 1024), \
                mock.patch.object(ingest, "_scan", scan_moving_offset), on_cpus(2):
            result = parse_pcap(stream, FILT)
        assert_same_parse(result, parse(data))
        assert walks == []                             # both children's ranges kept
        # each child's one call on the stream is the test's own seek
        assert sorted(m.name.split("-")[0] for m in marks.iterdir()) == ["seek", "seek"]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
    @pytest.mark.parametrize("placed", [True, False], ids=["cpu_given", "kernel_places"])
    def test_child_runs_on_the_cpu_it_is_given(self, placed, tmp_path):
        """The two children run on one CPU each of the two split_parse runs
        on; without `sched_getcpu` the kernel places both on the pair."""
        cpus = placement.usable_cpus()
        pair = (cpus * 2)[:2]                          # the CPUs split_parse runs on
        masks = tmp_path / "masks"
        masks.mkdir()

        def note_mask():
            mask = ",".join(map(str, sorted(os.sched_getaffinity(0))))
            (masks / f"{os.getpid()}-{mask}").touch()
            deadline = time.monotonic() + 10
            while len(list(masks.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)                       # so that each child walks one range

        data = long_capture()
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        with mock.patch.object(ingest, "CHUNK_BYTES", 1024), \
                mock.patch.object(ingest, "_scan", ScanSpy(tmp_path / "marks", note_mask)), \
                mock.patch.object(placement, "_current_cpu",
                                  placement._current_cpu if placed else lambda: None):
            split_parse(path, FILT)
        noted = sorted(m.name.split("-")[1] for m in masks.iterdir())
        if placed:
            assert noted == sorted(map(str, pair))
        else:
            assert noted == [",".join(map(str, sorted(set(pair))))] * 2
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_small_or_unbacked_capture_is_not_split(self, tmp_path):
        data = long_capture()
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        spy = ScanSpy(tmp_path / "marks")
        with mock.patch.object(ingest, "_scan", spy):
            split_parse(path, FILT)                   # under SPLIT_CHUNKS chunks
            with mock.patch.object(ingest, "CHUNK_BYTES", 1024):
                with on_cpus(2):
                    parse_pcap(io.BytesIO(data), FILT)  # no file descriptor
                with on_cpus(1), open(path, "rb") as stream:
                    parse_pcap(stream, FILT)            # one usable CPU
        assert spy.calls == [(24, len(data))] * 3


class TestEndpointFilter:
    def test_rejects_bad_address(self):
        with pytest.raises(ConfigError):
            EndpointFilter("300.1.1.1")
        with pytest.raises(ConfigError):
            EndpointFilter("not-an-ip")

    # digits to str.isdigit; int() rejects the first two, and reads the last as 10
    @pytest.mark.parametrize("address", ["10.0.0.1\u00b2", "10.0.0.\u2468",
                                         "\u0661\u0660.0.0.1"],
                             ids=["superscript", "circled", "arabic_indic"])
    def test_rejects_digits_outside_ascii(self, address):
        with pytest.raises(ConfigError, match="dotted-quad"):
            EndpointFilter(address)

    def test_rejects_bad_port(self):
        with pytest.raises(ConfigError):
            EndpointFilter(SERVER, port=70000)


class TestParseCsv:
    def test_basic_rebase(self):
        text = "ts,length,direction\n1.0,1400,down\n1.002,900,down\n"
        got = rows(parse_csv(text))
        assert got == [(0.0, 1400, DOWNLINK), (pytest.approx(0.002), 900, DOWNLINK)]

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_csv("time,len\n1,2\n")

    def test_row_parse_error_carries_line(self):
        text = "ts,length,direction\n1.0,100,down\n1.1,abc,down\n1.2,100,up\n"
        with pytest.raises(RowParseError) as exc:
            parse_csv(text)
        assert exc.value.line_number == 3

    def test_crlf_accepted(self):
        assert rows(parse_csv("ts,length,direction\r\n0.5,100,up\r\n")) == [(0.0, 100, UPLINK)]

    def test_non_monotone_rejected(self):
        with pytest.raises(RowParseError):
            parse_csv("ts,length,direction\n1.0,100,down\n0.5,100,down\n")

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("row", [2, 3])
    def test_non_finite_ts_rejected(self, ts, row):
        lines = ["ts,length,direction", "1.0,100,down", "1.5,100,down"]
        lines[row - 1] = f"{ts},100,down"
        with pytest.raises(RowParseError) as exc:
            parse_csv("\n".join(lines) + "\n")
        assert exc.value.line_number == row

    def test_length_beyond_pcap_field_rejected(self):
        with pytest.raises(RowParseError):
            parse_csv(f"ts,length,direction\n0,{2**64},down\n")

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_do_not_change_bytes(self, block):
        packets = table((i * 0.001, 100 + i, i % 3 == 0) for i in range(20))
        whole = csv_text(packets)
        with mock.patch.object(ingest, "CSV_BLOCK_ROWS", block):
            assert csv_text(packets) == whole
        assert whole.count("\n") == 21
        assert csv_text(table([])) == "ts,length,direction\n"

    def test_write_memory_bounded_by_block(self):
        def peak_bytes(n):
            packets = PacketTable(np.arange(n) * 1e-4, np.full(n, 1200),
                                  np.ones(n, dtype=bool))
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    write_csv(packets, sink)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        rows = 2 * ingest.CSV_BLOCK_ROWS
        # four times the rows: a whole-text writer needs about four times the peak
        assert peak_bytes(4 * rows) < 1.5 * peak_bytes(rows)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5, allow_nan=False),
                st.integers(min_value=1, max_value=65535),
                st.booleans(),
            ),
            min_size=0,
            max_size=50,
        )
    )
    def test_round_trip_exact(self, raw):
        deltas = sorted(r[0] for r in raw)
        packets = table((t - (deltas[0] if deltas else 0.0), ln, d)
                        for t, (_, ln, d) in zip(deltas, raw))
        back = parse_csv(csv_text(packets))
        np.testing.assert_array_equal(back.ts.view(np.int64), packets.ts.view(np.int64))
        assert rows(back) == rows(packets)

    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(1, 2000), st.booleans()),
                    max_size=20),
           st.lists(st.tuples(st.integers(0, 10_000), st.characters()), max_size=6),
           st.integers(0, 10_000))
    def test_mutated_text_returns_or_raises_toolkit_error(self, raw, edits, cut):
        text = list(csv_text(table(sorted(raw))))
        for at, ch in edits:
            text[at % len(text)] = ch
        try:
            packets = parse_csv("".join(text)[:cut])
        except ResLearnError:
            return
        assert isinstance(packets, PacketTable)
