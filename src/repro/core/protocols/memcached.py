"""Memcached protocols (§4.3): binary over UDP, plus the ASCII protocol.

The paper's first prototype spoke the *binary* protocol over UDP with
6-byte keys and 8-byte values; later extensions added the ASCII protocol
and larger keys/values.  Both are implemented here in full generality —
the size limits live in the server configuration, not the codec.

Memcached-over-UDP prepends an 8-byte *frame header* (request id,
sequence, total datagrams, reserved) to every datagram; both codecs
account for it.
"""

from repro.core.protocols.udp import UDPWrapper
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil

UDP_FRAME_HEADER_BYTES = 8
BINARY_HEADER_BYTES = 24


class BinaryMagic:
    REQUEST = 0x80
    RESPONSE = 0x81


class BinaryOpcodes:
    GET = 0x00
    SET = 0x01
    DELETE = 0x04


class BinaryStatus:
    NO_ERROR = 0x0000
    KEY_NOT_FOUND = 0x0001
    KEY_EXISTS = 0x0002
    VALUE_TOO_LARGE = 0x0003
    INVALID_ARGUMENTS = 0x0004
    NOT_STORED = 0x0005
    UNKNOWN_COMMAND = 0x0081
    OUT_OF_MEMORY = 0x0082


def build_udp_frame_header(request_id, sequence=0, total=1):
    """The 8-byte memcached-over-UDP frame header."""
    out = bytearray(UDP_FRAME_HEADER_BYTES)
    BitUtil.set16(out, 0, request_id)
    BitUtil.set16(out, 2, sequence)
    BitUtil.set16(out, 4, total)
    return bytes(out)


def split_udp_frame(payload):
    """Split a UDP payload into (request_id, body)."""
    if len(payload) < UDP_FRAME_HEADER_BYTES:
        raise ParseError("memcached UDP payload too short")
    return BitUtil.get16(payload, 0), bytes(payload[UDP_FRAME_HEADER_BYTES:])


def memcached_is_write(frame):
    """Classify a memcached-over-UDP :class:`~repro.net.packet.Frame`
    as a store mutation (SET or DELETE) — the per-service classifier
    the multi-core and cluster replication schemes key off.

    Frames too short to carry a request are not writes; only
    :class:`~repro.errors.ParseError` is caught, so a classifier bug
    raises instead of silently skipping replication."""
    try:
        udp = UDPWrapper(frame.data)
        _, body = split_udp_frame(udp.payload())
    except ParseError:
        return False
    if body[:1] == b"\x80":
        return len(body) > 1 and \
            body[1] in (BinaryOpcodes.SET, BinaryOpcodes.DELETE)
    return body[:4] == b"set " or body[:7] == b"delete "


class MemcachedBinaryWrapper:
    """Typed view of a binary-protocol message (after the UDP header)."""

    def __init__(self, data):
        if len(data) < BINARY_HEADER_BYTES:
            raise ParseError("memcached binary message too short")
        self._data = bytes(data)

    @property
    def magic(self):
        return self._data[0]

    @property
    def opcode(self):
        return self._data[1]

    @property
    def key_length(self):
        return BitUtil.get16(self._data, 2)

    @property
    def extras_length(self):
        return self._data[4]

    @property
    def status(self):
        """Status (responses) / vbucket id (requests)."""
        return BitUtil.get16(self._data, 6)

    @property
    def total_body_length(self):
        return BitUtil.get32(self._data, 8)

    @property
    def opaque(self):
        return BitUtil.get32(self._data, 12)

    @property
    def cas(self):
        return BitUtil.get64(self._data, 16)

    @property
    def is_request(self):
        return self.magic == BinaryMagic.REQUEST

    @property
    def is_response(self):
        return self.magic == BinaryMagic.RESPONSE

    def extras(self):
        start = BINARY_HEADER_BYTES
        return self._data[start:start + self.extras_length]

    def key(self):
        start = BINARY_HEADER_BYTES + self.extras_length
        return self._data[start:start + self.key_length]

    def value(self):
        start = (BINARY_HEADER_BYTES + self.extras_length +
                 self.key_length)
        end = BINARY_HEADER_BYTES + self.total_body_length
        return self._data[start:end]


def _build_binary(magic, opcode, key=b"", extras=b"", value=b"",
                  status=0, opaque=0, cas=0):
    body_length = len(extras) + len(key) + len(value)
    out = bytearray(BINARY_HEADER_BYTES)
    out[0] = magic
    out[1] = opcode
    BitUtil.set16(out, 2, len(key))
    out[4] = len(extras)
    BitUtil.set16(out, 6, status)
    BitUtil.set32(out, 8, body_length)
    BitUtil.set32(out, 12, opaque)
    BitUtil.set64(out, 16, cas)
    out.extend(extras)
    out.extend(key)
    out.extend(value)
    return bytes(out)


def build_binary_get(key, opaque=0):
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.GET,
                         key=bytes(key), opaque=opaque)


def build_binary_set(key, value, flags=0, expiry=0, opaque=0):
    extras = int(flags).to_bytes(4, "big") + int(expiry).to_bytes(4, "big")
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.SET,
                         key=bytes(key), extras=extras, value=bytes(value),
                         opaque=opaque)


def build_binary_delete(key, opaque=0):
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.DELETE,
                         key=bytes(key), opaque=opaque)


def build_binary_response(opcode, status=BinaryStatus.NO_ERROR, key=b"",
                          value=b"", extras=b"", opaque=0, cas=0):
    return _build_binary(BinaryMagic.RESPONSE, opcode, key=bytes(key),
                         extras=bytes(extras), value=bytes(value),
                         status=status, opaque=opaque, cas=cas)


# -- ASCII protocol ---------------------------------------------------------

class AsciiCommand:
    """A decoded ASCII-protocol command."""

    __slots__ = ("verb", "key", "flags", "exptime", "value", "noreply")

    def __init__(self, verb, key=b"", flags=0, exptime=0, value=b"",
                 noreply=False):
        self.verb = verb
        self.key = key
        self.flags = flags
        self.exptime = exptime
        self.value = value
        self.noreply = noreply

    def __repr__(self):
        return "AsciiCommand(%s %r)" % (self.verb, self.key)


def parse_ascii_command(payload):
    """Parse one ASCII command (``get``/``set``/``delete``).

    *payload* is the request text after the UDP frame header, e.g.
    ``b"get foo\\r\\n"`` or ``b"set foo 0 0 3\\r\\nbar\\r\\n"``.
    """
    payload = bytes(payload)
    line_end = payload.find(b"\r\n")
    if line_end < 0:
        raise ParseError("ASCII command missing CRLF")
    parts = payload[:line_end].split()
    if not parts:
        raise ParseError("empty ASCII command")
    verb = parts[0].decode("ascii", "replace").lower()
    if verb == "get" or verb == "gets":
        if len(parts) < 2:
            raise ParseError("get needs a key")
        return AsciiCommand("get", key=parts[1])
    if verb == "delete":
        if len(parts) < 2:
            raise ParseError("delete needs a key")
        noreply = len(parts) > 2 and parts[2] == b"noreply"
        return AsciiCommand("delete", key=parts[1], noreply=noreply)
    if verb == "set":
        if len(parts) < 5:
            raise ParseError("set needs key/flags/exptime/bytes")
        try:
            flags = int(parts[2])
            exptime = int(parts[3])
            nbytes = int(parts[4])
        except ValueError:
            raise ParseError("bad numeric field in set")
        noreply = len(parts) > 5 and parts[5] == b"noreply"
        data_start = line_end + 2
        data_end = data_start + nbytes
        if len(payload) < data_end + 2 or \
                payload[data_end:data_end + 2] != b"\r\n":
            raise ParseError("set data block malformed")
        return AsciiCommand("set", key=parts[1], flags=flags,
                            exptime=exptime,
                            value=payload[data_start:data_end],
                            noreply=noreply)
    raise ParseError("unsupported ASCII verb %r" % verb)


def build_ascii_get(key):
    return b"get " + bytes(key) + b"\r\n"


def build_ascii_set(key, value, flags=0, exptime=0, noreply=False):
    head = b"set %s %d %d %d%s\r\n" % (
        bytes(key), flags, exptime, len(value),
        b" noreply" if noreply else b"")
    return head + bytes(value) + b"\r\n"


def build_ascii_delete(key, noreply=False):
    return b"delete " + bytes(key) + \
        (b" noreply" if noreply else b"") + b"\r\n"


def build_ascii_value_response(key, flags, value):
    """``VALUE <key> <flags> <bytes>\\r\\n<data>\\r\\nEND\\r\\n``"""
    return (b"VALUE %s %d %d\r\n" % (bytes(key), flags, len(value)) +
            bytes(value) + b"\r\nEND\r\n")
