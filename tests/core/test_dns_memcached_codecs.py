"""DNS and Memcached wire-format codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.core.protocols.dns import (
    DNSHeader, DNSQuestion, DNSWrapper, QClass, QType, RCode,
    build_dns_query, build_dns_response, decode_name, encode_name,
)
from repro.core.protocols.memcached import (
    AsciiCommand, BinaryMagic, BinaryOpcodes, BinaryStatus,
    MemcachedBinaryWrapper, build_ascii_delete, build_ascii_get,
    build_ascii_set, build_binary_delete, build_binary_get,
    build_binary_response, build_binary_set, build_udp_frame_header,
    memcached_is_write, parse_ascii_command, split_udp_frame,
)
from repro.core.protocols.udp import build_udp
from repro.errors import ParseError
from repro.net.packet import Frame


class TestDnsNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_root(self):
        assert encode_name("") == b"\x00"

    def test_decode_roundtrip(self):
        wire = encode_name("host.example.com")
        name, offset = decode_name(wire, 0)
        assert name == "host.example.com"
        assert offset == len(wire)

    def test_compression_pointer(self):
        wire = encode_name("example.com") + b"\x04mail\xC0\x00"
        name, _ = decode_name(wire, len(encode_name("example.com")))
        assert name == "mail.example.com"

    def test_pointer_loop_detected(self):
        with pytest.raises(ParseError):
            decode_name(b"\xC0\x00", 0)

    def test_oversized_label_rejected(self):
        with pytest.raises(ParseError):
            encode_name("x" * 64 + ".com")

    def test_truncated_rejected(self):
        with pytest.raises(ParseError):
            decode_name(b"\x05ab", 0)


class TestDnsMessages:
    def test_query_roundtrip(self):
        wire = build_dns_query(0x1234, "host.example")
        msg = DNSWrapper(wire)
        assert msg.header.txid == 0x1234
        assert msg.header.is_query
        assert msg.questions[0].name == "host.example"
        assert msg.questions[0].qtype == QType.A

    def test_response_with_answer(self):
        question = DNSQuestion("host.example")
        wire = build_dns_response(7, question, address=0xC0000201)
        msg = DNSWrapper(wire)
        assert not msg.header.is_query
        assert msg.header.rcode == RCode.NO_ERROR
        assert msg.first_a_record() == 0xC0000201
        # The answer name is a compression pointer to the question.
        assert msg.answers[0][0] == "host.example"

    def test_nxdomain_has_no_answer(self):
        wire = build_dns_response(7, DNSQuestion("nope.example"),
                                  rcode=RCode.NAME_ERROR)
        msg = DNSWrapper(wire)
        assert msg.header.rcode == RCode.NAME_ERROR
        assert msg.first_a_record() is None

    def test_header_encode_decode(self):
        header = DNSHeader(txid=9, flags=0x8180, qdcount=1, ancount=2)
        decoded = DNSHeader.decode(header.encode())
        assert decoded.txid == 9
        assert decoded.ancount == 2
        assert decoded.recursion_desired


class TestMemcachedBinary:
    def test_get_roundtrip(self):
        msg = MemcachedBinaryWrapper(build_binary_get(b"abcdef",
                                                      opaque=0xAA))
        assert msg.is_request
        assert msg.opcode == BinaryOpcodes.GET
        assert msg.key() == b"abcdef"
        assert msg.opaque == 0xAA

    def test_set_roundtrip(self):
        msg = MemcachedBinaryWrapper(
            build_binary_set(b"key", b"value123", flags=5))
        assert msg.opcode == BinaryOpcodes.SET
        assert msg.key() == b"key"
        assert msg.value() == b"value123"
        assert msg.extras()[:4] == (5).to_bytes(4, "big")

    def test_delete(self):
        msg = MemcachedBinaryWrapper(build_binary_delete(b"k"))
        assert msg.opcode == BinaryOpcodes.DELETE

    def test_response_status(self):
        msg = MemcachedBinaryWrapper(build_binary_response(
            BinaryOpcodes.GET, status=BinaryStatus.KEY_NOT_FOUND))
        assert msg.is_response
        assert msg.status == BinaryStatus.KEY_NOT_FOUND

    def test_udp_frame_header(self):
        header = build_udp_frame_header(0x42, sequence=1, total=3)
        request_id, body = split_udp_frame(header + b"rest")
        assert request_id == 0x42
        assert body == b"rest"

    def test_short_message_rejected(self):
        with pytest.raises(ParseError):
            MemcachedBinaryWrapper(b"\x80\x00")


def _udp_frame(body):
    """A full Ethernet/IPv4/UDP frame carrying one memcached request."""
    payload = build_udp_frame_header(7) + body
    return Frame(build_udp(0x020000000001, 0x020000000002, 0x0A000002,
                           0x0A000001, 40000, 11211, payload))


class TestMemcachedIsWrite:
    def test_binary_set_and_delete_are_writes(self):
        assert memcached_is_write(_udp_frame(
            build_binary_set(b"abcdef", b"value123")))
        assert memcached_is_write(_udp_frame(build_binary_delete(b"abc")))

    def test_ascii_set_and_delete_are_writes(self):
        assert memcached_is_write(_udp_frame(build_ascii_set(b"k", b"v")))
        assert memcached_is_write(_udp_frame(build_ascii_delete(b"k")))

    def test_get_is_not_a_write(self):
        assert not memcached_is_write(_udp_frame(build_binary_get(b"k")))

    def test_body_of_only_the_magic_byte_is_not_a_write(self):
        """An 80-byte binary GET cut to 51 bytes leaves the single
        body byte 0x80 (it used to raise IndexError)."""
        frame = _udp_frame(build_binary_get(b"abcdef"))
        assert len(frame.data) == 80
        cut = Frame(bytes(frame.data[:51]))
        assert not memcached_is_write(cut)

    def test_truncated_frame_is_not_a_write(self):
        frame = _udp_frame(build_binary_set(b"abcdef", b"value123"))
        for length in (0, 13, 30, 41, 45, 50):
            assert not memcached_is_write(Frame(bytes(frame.data[:length])))

    def test_classifier_bugs_are_not_swallowed(self):
        """Only ParseError means "not a request"; anything else is a
        bug and must surface instead of skipping replication."""
        with pytest.raises(AttributeError):
            memcached_is_write(object())


class TestMemcachedAscii:
    def test_get(self):
        cmd = parse_ascii_command(build_ascii_get(b"foo"))
        assert cmd.verb == "get"
        assert cmd.key == b"foo"

    def test_set_with_data_block(self):
        cmd = parse_ascii_command(build_ascii_set(b"k", b"hello", flags=3))
        assert cmd.verb == "set"
        assert cmd.value == b"hello"
        assert cmd.flags == 3

    def test_set_noreply(self):
        cmd = parse_ascii_command(
            build_ascii_set(b"k", b"v", noreply=True))
        assert cmd.noreply

    def test_delete(self):
        cmd = parse_ascii_command(build_ascii_delete(b"k"))
        assert cmd.verb == "delete"

    def test_value_with_crlf_inside(self):
        cmd = parse_ascii_command(build_ascii_set(b"k", b"a\r\nb"))
        assert cmd.value == b"a\r\nb"

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            parse_ascii_command(b"set k 0 0 5\r\nab\r\n")  # short data
        with pytest.raises(ParseError):
            parse_ascii_command(b"bogus\r\n")
        with pytest.raises(ParseError):
            parse_ascii_command(b"no crlf")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
               min_size=1, max_size=20).filter(
                   lambda s: not s.startswith("-")))
def test_property_dns_name_roundtrip(label):
    name = "%s.example" % label
    decoded, _ = decode_name(encode_name(name), 0)
    assert decoded == name


@given(st.binary(min_size=1, max_size=32),
       st.binary(max_size=64))
def test_property_binary_set_roundtrip(key, value):
    msg = MemcachedBinaryWrapper(build_binary_set(key, value))
    assert msg.key() == key
    assert msg.value() == value
