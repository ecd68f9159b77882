"""Memcomparable encoding and index-key composition.

Diff-Index makes the index table *key-only*: "an index row uses the
concatenation of the index value and rowkey of the base entry as its
rowkey, with a null value" (§4).  For range queries over the index
(Figure 9 sweeps ``item_price``), the encoded index value must sort in
byte order exactly as the logical value sorts — so every supported type
gets an order-preserving encoding:

* ``bytes``/``str`` — terminated escape coding: ``0x00`` → ``0x00 0x01``,
  with terminator ``0x00 0x00`` (the MyRocks / CockroachDB scheme);
* ``int`` — 8-byte big-endian with the sign bit flipped;
* ``float`` — IEEE-754 bits, sign-flipped for negatives.

Each encoding is prefixed with a one-byte type tag so values of different
types never interleave ambiguously.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import EncodingError

__all__ = [
    "encode_value", "decode_value", "encode_index_key", "decode_index_key",
    "index_prefix", "index_split_keys", "prefix_upper_bound",
    "IndexableValue",
]

IndexableValue = Union[bytes, str, int, float]

_TAG_NULL = b"\x01"
_TAG_INT = b"\x02"
_TAG_FLOAT = b"\x03"
_TAG_BYTES = b"\x04"

_TERMINATOR = b"\x00\x00"
_ESCAPED_ZERO = b"\x00\x01"

_INT_BIAS = 1 << 63
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


def _encode_bytes_payload(raw: bytes) -> bytes:
    return raw.replace(b"\x00", _ESCAPED_ZERO) + _TERMINATOR


def _decode_bytes_payload(data: bytes, offset: int) -> Tuple[bytes, int]:
    # Hot path: jump 0x00-free runs with bytes.find and slice them out
    # wholesale rather than walking byte-by-byte (this function dominated
    # the decode profile when it appended one byte at a time).
    zero = data.find(0, offset)
    if zero < 0:
        raise EncodingError("unterminated bytes payload")
    if zero + 1 >= len(data):
        raise EncodingError("truncated escape sequence")
    nxt = data[zero + 1]
    if nxt == 0:                     # terminator right away — escape-free
        return data[offset:zero], zero + 2
    chunks = []
    i = offset
    while True:
        chunks.append(data[i:zero])
        if nxt == 1:                 # escaped zero
            chunks.append(b"\x00")
            i = zero + 2
        elif nxt == 0:               # terminator
            return b"".join(chunks), zero + 2
        else:
            raise EncodingError(f"invalid escape byte {nxt:#x}")
        zero = data.find(0, i)
        if zero < 0:
            raise EncodingError("unterminated bytes payload")
        if zero + 1 >= len(data):
            raise EncodingError("truncated escape sequence")
        nxt = data[zero + 1]


def _encode_int_payload(value: int) -> bytes:
    if not _INT_MIN <= value <= _INT_MAX:
        raise EncodingError(f"integer out of 64-bit range: {value}")
    return struct.pack(">Q", value + _INT_BIAS)


def _decode_int_payload(data: bytes, offset: int) -> Tuple[int, int]:
    if len(data) < offset + 8:
        raise EncodingError("truncated integer payload")
    (biased,) = struct.unpack_from(">Q", data, offset)
    return biased - _INT_BIAS, offset + 8


def _encode_float_payload(value: float) -> bytes:
    if value == 0.0:
        value = 0.0   # -0.0 == 0.0 must encode identically to stay ordered
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    if bits & (1 << 63):
        bits ^= 0xFFFFFFFFFFFFFFFF   # negative: flip all bits
    else:
        bits |= 1 << 63               # positive: flip the sign bit
    return struct.pack(">Q", bits)


def _decode_float_payload(data: bytes, offset: int) -> Tuple[float, int]:
    if len(data) < offset + 8:
        raise EncodingError("truncated float payload")
    (bits,) = struct.unpack_from(">Q", data, offset)
    if bits & (1 << 63):
        bits &= 0x7FFFFFFFFFFFFFFF
    else:
        bits ^= 0xFFFFFFFFFFFFFFFF
    (value,) = struct.unpack(">d", struct.pack(">Q", bits))
    return value, offset + 8


def encode_value(value: Optional[IndexableValue]) -> bytes:
    """Order-preserving encoding of one indexable value.

    ``None`` sorts before everything (SQL-style NULLS FIRST).
    """
    if value is None:
        return _TAG_NULL
    if isinstance(value, bool):
        raise EncodingError("booleans are not indexable")
    if isinstance(value, int):
        return _TAG_INT + _encode_int_payload(value)
    if isinstance(value, float):
        return _TAG_FLOAT + _encode_float_payload(value)
    if isinstance(value, str):
        return _TAG_BYTES + _encode_bytes_payload(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES + _encode_bytes_payload(bytes(value))
    raise EncodingError(f"unsupported index value type: {type(value).__name__}")


def _decode_one(data: bytes, offset: int) -> Tuple[Optional[IndexableValue], int]:
    if offset >= len(data):
        raise EncodingError("empty encoded value")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_INT:
        return _decode_int_payload(data, offset)
    if tag == _TAG_FLOAT:
        return _decode_float_payload(data, offset)
    if tag == _TAG_BYTES:
        return _decode_bytes_payload(data, offset)
    raise EncodingError(f"unknown type tag {tag!r}")


def decode_value(data: bytes) -> Optional[IndexableValue]:
    value, end = _decode_one(data, 0)
    if end != len(data):
        raise EncodingError("trailing bytes after encoded value")
    return value


# -- index keys ----------------------------------------------------------------


def encode_index_key(values: Sequence[Optional[IndexableValue]],
                     rowkey: bytes) -> bytes:
    """Index rowkey = enc(v1) ⊕ ... ⊕ enc(vn) ⊕ rowkey (composite-capable).

    The encodings are self-delimiting, so the base rowkey is recoverable
    and keys sort by (v1, ..., vn, rowkey).
    """
    parts = [encode_value(v) for v in values]
    return b"".join(parts) + rowkey


def decode_index_key(index_key: bytes, num_values: int,
                     ) -> Tuple[List[Optional[IndexableValue]], bytes]:
    """Split an index rowkey back into (values, base rowkey)."""
    values: List[Optional[IndexableValue]] = []
    offset = 0
    for _ in range(num_values):
        value, offset = _decode_one(index_key, offset)
        values.append(value)
    return values, index_key[offset:]


def index_prefix(values: Sequence[Optional[IndexableValue]]) -> bytes:
    """The scan prefix selecting every index entry with these leading values."""
    return b"".join(encode_value(v) for v in values)


def index_split_keys(values: Sequence[Optional[IndexableValue]],
                     ) -> List[bytes]:
    """Region boundaries for an index pre-split at these leading values.

    Built with the same encoder as the entries (``encode_index_key``) and
    the scan bounds (``index_scan_range``), so a split key always falls
    inside the keyspace its index actually uses.  The value is the one
    the index stores: a column holding ``encode_value(1.5)`` splits at
    ``index_split_keys([encode_value(1.5)])``, not at ``[1.5]``."""
    return [index_prefix([v]) for v in values]


def prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every key starting with ``prefix``
    (None when the prefix is all 0xFF — unbounded scan)."""
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return None
