import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reslearn.errors import (
    BadMagic,
    EmptyTrace,
    RowParseError,
    SchemaMismatch,
    TruncatedHeader,
)
from reslearn.ingest import (
    Direction,
    EndpointFilter,
    PacketRecord,
    emit_csv,
    inter_arrival,
    parse_csv,
    parse_pcap,
    write_pcap,
)

SERVER = "10.0.0.1"
FILT = EndpointFilter(SERVER)


def global_header(magic=0xA1B2C3D4, network=1):
    return struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 65535, network)


class TestParsePcap:
    def test_empty_body_after_global_header(self):
        result = parse_pcap(global_header(), FILT)
        assert result.records == []
        assert result.skipped == 0
        assert result.warnings == 0

    def test_two_packet_downlink_trace(self):
        # raw capture times 10.000000 and 10.005000, both sent by the server
        data = write_pcap(
            [(10.0, 1200, Direction.DOWNLINK), (10.005, 900, Direction.DOWNLINK)],
            FILT,
        )
        # independent check of the assembled bytes: record headers at fixed offsets
        sec0, usec0, incl0, _ = struct.unpack_from("<IIII", data, 24)
        assert (sec0, usec0, incl0) == (10, 0, 1200)
        sec1, usec1, incl1, _ = struct.unpack_from("<IIII", data, 24 + 16 + 1200)
        assert (sec1, usec1, incl1) == (10, 5000, 900)

        result = parse_pcap(data, FILT)
        assert [r.ts for r in result.records] == pytest.approx([0.0, 0.005])
        assert [r.length for r in result.records] == [1200, 900]
        assert all(r.direction is Direction.DOWNLINK for r in result.records)

    def test_bad_magic(self):
        data = struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1)
        with pytest.raises(BadMagic):
            parse_pcap(data, FILT)

    def test_pcapng_magic_names_the_limitation(self):
        data = struct.pack("<IHHiIII", 0x0A0D0D0A, 2, 4, 0, 0, 65535, 1)
        with pytest.raises(BadMagic, match="pcapng"):
            parse_pcap(data, FILT)

    def test_truncated_global_header(self):
        with pytest.raises(TruncatedHeader):
            parse_pcap(b"\xd4\xc3\xb2\xa1short", FILT)

    def test_truncated_record_returns_partial(self):
        data = write_pcap([(0.0, 100, Direction.DOWNLINK),
                           (0.1, 100, Direction.UPLINK)], FILT)
        result = parse_pcap(data[:-30], FILT)
        assert len(result.records) == 1
        assert result.warnings == 1

    def test_big_endian_header_accepted(self):
        body = write_pcap([(1.5, 80, Direction.DOWNLINK)], FILT)[24:]
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        # record header must match the global header's endianness
        sec, usec, incl, orig = struct.unpack_from("<IIII", body, 0)
        swapped = struct.pack(">IIII", sec, usec, incl, orig) + body[16:]
        result = parse_pcap(header + swapped, FILT)
        assert len(result.records) == 1
        assert result.records[0].length == 80

    def test_non_matching_and_non_ip_skipped(self):
        other = EndpointFilter("172.16.0.9")
        data = write_pcap([(0.0, 100, Direction.DOWNLINK)], FILT)
        result = parse_pcap(data, other)
        assert result.records == []
        assert result.skipped == 1

    def test_port_filter(self):
        filt = EndpointFilter(SERVER, port=7777)
        data = write_pcap([(0.0, 100, Direction.DOWNLINK)], filt)
        assert len(parse_pcap(data, filt).records) == 1
        wrong_port = EndpointFilter(SERVER, port=1234)
        result = parse_pcap(data, wrong_port)
        assert result.records == []
        assert result.skipped == 1

    def test_writer_round_trip_recovers_planted_fields(self):
        rng = np.random.default_rng(3)
        planted = []
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.0001, 0.01))
            length = int(rng.integers(60, 1500))
            direction = Direction.DOWNLINK if rng.random() < 0.7 else Direction.UPLINK
            planted.append((t, length, direction))
        result = parse_pcap(write_pcap(planted, FILT), FILT)
        assert len(result.records) == len(planted)
        t0 = planted[0][0]
        for rec, (ts, length, direction) in zip(result.records, planted):
            assert rec.ts == pytest.approx(ts - t0, abs=1.1e-6)  # usec resolution
            assert rec.length == length
            assert rec.direction is direction


    def test_snap_length_keeps_original_length(self):
        lengths = [60, 61, 100, 1200, 1500]
        data = bytearray(write_pcap(
            [(0.001 * i, n, Direction.DOWNLINK) for i, n in enumerate(lengths)], FILT
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
        result = parse_pcap(bytes(snapped), FILT)
        assert result.warnings == 0
        assert [r.length for r in result.records] == lengths

class TestEndpointFilter:
    def test_rejects_bad_address(self):
        with pytest.raises(ValueError):
            EndpointFilter("300.1.1.1")
        with pytest.raises(ValueError):
            EndpointFilter("not-an-ip")

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            EndpointFilter(SERVER, port=70000)


class TestParseCsv:
    def test_basic_rebase(self):
        text = "ts,length,direction\n1.0,1400,down\n1.002,900,down\n"
        records = parse_csv(text)
        assert records == [
            PacketRecord(0.0, 1400, Direction.DOWNLINK),
            PacketRecord(pytest.approx(0.002), 900, Direction.DOWNLINK),
        ]

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_csv("time,len\n1,2\n")

    def test_row_parse_error_carries_line(self):
        text = "ts,length,direction\n1.0,100,down\n1.1,abc,down\n1.2,100,up\n"
        with pytest.raises(RowParseError) as exc:
            parse_csv(text)
        assert exc.value.line_number == 3

    def test_crlf_accepted(self):
        records = parse_csv("ts,length,direction\r\n0.5,100,up\r\n")
        assert records == [PacketRecord(0.0, 100, Direction.UPLINK)]

    def test_non_monotone_rejected(self):
        with pytest.raises(RowParseError):
            parse_csv("ts,length,direction\n1.0,100,down\n0.5,100,down\n")

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5, allow_nan=False),
                st.integers(min_value=1, max_value=65535),
                st.sampled_from(list(Direction)),
            ),
            min_size=0,
            max_size=50,
        )
    )
    def test_round_trip_exact(self, rows):
        deltas = sorted(r[0] for r in rows)
        records = [PacketRecord(t - (deltas[0] if deltas else 0.0), ln, d)
                   for t, (_, ln, d) in zip(deltas, rows)]
        assert parse_csv(emit_csv(records)) == records


class TestInterArrival:
    def test_basic(self):
        packets = [PacketRecord(t, 100, Direction.DOWNLINK) for t in (0, 0.002, 0.010)]
        np.testing.assert_allclose(inter_arrival(packets), [0, 0.002, 0.008])

    def test_single_packet(self):
        packets = [PacketRecord(0.0, 100, Direction.DOWNLINK)]
        np.testing.assert_array_equal(inter_arrival(packets), [0.0])

    def test_uniform_spacing(self):
        packets = [PacketRecord(i * 0.001, 100, Direction.DOWNLINK) for i in range(1000)]
        iat = inter_arrival(packets)
        assert iat.size == 1000
        np.testing.assert_allclose(iat[1:], 0.001, atol=1e-12)

    def test_empty_trace(self):
        with pytest.raises(EmptyTrace):
            inter_arrival([])

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    min_size=1, max_size=100))
    def test_sum_property(self, deltas):
        ts = np.cumsum(np.sort(deltas))
        ts -= ts[0]
        packets = [PacketRecord(float(t), 100, Direction.UPLINK) for t in ts]
        iat = inter_arrival(packets)
        assert abs(iat[1:].sum() - (ts[-1] - ts[0])) < 1e-9
