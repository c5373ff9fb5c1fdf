"""Tests for the IPv4/TCP/UDP wire codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack import (
    ACK,
    FIN,
    IPPacket,
    PROTO_TCP,
    PROTO_UDP,
    PacketError,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
    internet_checksum,
    ip_to_int,
    ip_to_str,
)
from repro.netstack.checksum import verify_checksum


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padding(self):
        assert internet_checksum(b"\xFF") == internet_checksum(b"\xFF\x00")

    def test_verify_roundtrip(self):
        data = b"hello world!"
        checksum = internet_checksum(data)
        # Insert the checksum anywhere (appended) and total must verify.
        assert verify_checksum(data + bytes([checksum >> 8,
                                             checksum & 0xFF]))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=0, max_size=1600))
    def test_equals_the_rfc1071_loop(self, data):
        total = rfc1071_sum(data)
        assert internet_checksum(data) == (~total) & 0xFFFF
        assert verify_checksum(data) == (total == 0xFFFF)
        if len(data) % 2 == 0:
            checksum = internet_checksum(data)
            assert verify_checksum(data + checksum.to_bytes(2, "big"))


def rfc1071_sum(data: bytes) -> int:
    """The reference: RFC 1071's loop over big-endian 16-bit words,
    odd input padded with a zero byte, carries folded."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestAddressConversion:
    def test_roundtrip(self):
        assert ip_to_str(ip_to_int("192.168.1.10")) == "192.168.1.10"

    def test_int_passthrough(self):
        assert ip_to_int(0x7F000001) == 0x7F000001
        assert ip_to_str("8.8.8.8") == "8.8.8.8"

    def test_bad_addresses_rejected(self):
        for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", "-1.2.3.4"):
            with pytest.raises(PacketError):
                ip_to_int(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(PacketError):
            ip_to_int(1 << 33)


class TestIPPacket:
    def test_encode_decode_roundtrip(self):
        packet = IPPacket("10.0.0.2", "216.58.221.132", PROTO_TCP,
                          b"payload", ttl=60, identification=77)
        decoded = IPPacket.decode(packet.encode())
        assert decoded.src_str == "10.0.0.2"
        assert decoded.dst_str == "216.58.221.132"
        assert decoded.protocol == PROTO_TCP
        assert decoded.payload == b"payload"
        assert decoded.ttl == 60
        assert decoded.identification == 77

    def test_header_checksum_verified(self):
        raw = bytearray(IPPacket("1.2.3.4", "5.6.7.8", PROTO_UDP,
                                 b"x").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError):
            IPPacket.decode(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            IPPacket.decode(b"\x45\x00\x00")

    def test_non_ipv4_rejected(self):
        raw = bytearray(IPPacket("1.2.3.4", "5.6.7.8", PROTO_TCP,
                                 b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPPacket.decode(bytes(raw), verify=False)

    def test_total_length(self):
        packet = IPPacket("1.1.1.1", "2.2.2.2", PROTO_TCP, b"abcd")
        assert packet.total_length == 24
        assert len(packet.encode()) == 24

    @given(st.binary(max_size=1460), st.integers(0, 0xFFFFFFFF),
           st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=60)
    def test_roundtrip_property(self, payload, src, dst):
        packet = IPPacket(src, dst, PROTO_TCP, payload)
        decoded = IPPacket.decode(packet.encode())
        assert decoded.src == src
        assert decoded.dst == dst
        assert decoded.payload == payload


class TestTCPSegment:
    def test_syn_roundtrip_with_mss(self):
        seg = TCPSegment(43210, 443, seq=12345, ack=0, flags=SYN, mss=1460)
        raw = seg.encode("10.0.0.2", "31.13.79.251")
        back = TCPSegment.decode(raw, "10.0.0.2", "31.13.79.251",
                                 verify=True)
        assert back.is_syn
        assert back.mss == 1460
        assert back.seq == 12345
        assert back.src_port == 43210 and back.dst_port == 443

    def test_data_roundtrip(self):
        seg = TCPSegment(1000, 80, seq=5, ack=9, flags=ACK | PSH,
                         payload=b"GET / HTTP/1.1\r\n")
        back = TCPSegment.decode(seg.encode("1.1.1.1", "2.2.2.2"))
        assert back.payload == b"GET / HTTP/1.1\r\n"
        assert back.ack == 9

    def test_flag_predicates(self):
        assert TCPSegment(1, 2, 0, 0, SYN).is_syn
        assert not TCPSegment(1, 2, 0, 0, SYN | ACK).is_syn
        assert TCPSegment(1, 2, 0, 0, SYN | ACK).is_syn_ack
        assert TCPSegment(1, 2, 0, 0, FIN | ACK).is_fin
        assert TCPSegment(1, 2, 0, 0, RST).is_rst
        assert TCPSegment(1, 2, 0, 0, ACK).is_pure_ack
        assert not TCPSegment(1, 2, 0, 0, ACK, payload=b"x").is_pure_ack
        assert not TCPSegment(1, 2, 0, 0, ACK | FIN).is_pure_ack

    def test_checksum_detects_corruption(self):
        seg = TCPSegment(1000, 80, seq=5, ack=9, flags=ACK,
                         payload=b"data")
        raw = bytearray(seg.encode("1.1.1.1", "2.2.2.2"))
        raw[-1] ^= 0x01
        with pytest.raises(PacketError):
            TCPSegment.decode(bytes(raw), "1.1.1.1", "2.2.2.2", verify=True)

    def test_bad_port_rejected(self):
        with pytest.raises(PacketError):
            TCPSegment(70000, 80, 0, 0, SYN)

    def test_seq_wraps_module_2_32(self):
        seg = TCPSegment(1, 2, seq=(1 << 32) + 5, ack=0, flags=SYN)
        assert seg.seq == 5

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            TCPSegment.decode(b"\x00" * 10)

    @given(st.binary(max_size=1460), st.integers(0, 0xFFFFFFFF),
           st.integers(0, 0xFFFFFFFF), st.integers(1, 0xFFFF),
           st.integers(1, 0xFFFF))
    @settings(max_examples=60)
    def test_roundtrip_property(self, payload, seq, ack, sport, dport):
        seg = TCPSegment(sport, dport, seq, ack, ACK | PSH,
                         payload=payload)
        back = TCPSegment.decode(seg.encode("9.9.9.9", "8.8.8.8"),
                                 "9.9.9.9", "8.8.8.8", verify=True)
        assert (back.src_port, back.dst_port, back.seq, back.ack,
                back.payload) == (sport, dport, seq, ack, payload)


class TestUDPDatagram:
    def test_roundtrip(self):
        dgram = UDPDatagram(53124, 53, b"\x12\x34query")
        back = UDPDatagram.decode(dgram.encode("10.0.0.2", "8.8.8.8"),
                                  "10.0.0.2", "8.8.8.8", verify=True)
        assert back.src_port == 53124
        assert back.dst_port == 53
        assert back.payload == b"\x12\x34query"

    def test_checksum_detects_corruption(self):
        raw = bytearray(UDPDatagram(1, 2, b"abc").encode("1.1.1.1",
                                                         "2.2.2.2"))
        raw[-1] ^= 0xFF
        with pytest.raises(PacketError):
            UDPDatagram.decode(bytes(raw), "1.1.1.1", "2.2.2.2",
                               verify=True)

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            UDPDatagram.decode(b"\x00\x35")

    def test_length_field(self):
        assert UDPDatagram(1, 2, b"12345").length == 13

    @given(st.binary(max_size=512))
    @settings(max_examples=40)
    def test_roundtrip_property(self, payload):
        dgram = UDPDatagram(5353, 53, payload)
        back = UDPDatagram.decode(dgram.encode("10.0.0.2", "1.1.1.1"),
                                  "10.0.0.2", "1.1.1.1", verify=True)
        assert back.payload == payload


class TestNestedEncapsulation:
    def test_tcp_in_ip_roundtrip(self):
        seg = TCPSegment(40000, 443, seq=1, ack=0, flags=SYN, mss=1460)
        ip = IPPacket("10.0.0.2", "108.160.166.126", PROTO_TCP,
                      seg.encode("10.0.0.2", "108.160.166.126"))
        decoded_ip = IPPacket.decode(ip.encode())
        decoded_seg = TCPSegment.decode(
            decoded_ip.payload, decoded_ip.src, decoded_ip.dst, verify=True)
        assert decoded_seg.is_syn
        assert decoded_seg.dst_port == 443
