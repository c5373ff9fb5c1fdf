"""Byte-level codecs shared by the WAL and segment formats.

Four small, composable pieces:

* **uvarint** -- unsigned LEB128, the variable-length integer both
  file formats build on.
* **CRC frames** -- every durable payload is wrapped in
  ``u32 LE length + u32 LE crc32 + payload``.  The reader classifies
  the tail of a file as *clean* (ends exactly on a frame boundary),
  *torn* (a partial frame: the process died mid-write, the valid
  prefix is trustworthy) or *corrupt* (a complete frame whose checksum
  fails: the media lied, the file is quarantined).  The distinction
  matters: torn tails are expected after a crash and recovery simply
  truncates them; checksum failures are never expected and must be
  surfaced, not silently dropped.
* **hist codec** -- a :class:`~repro.backend.rollups.MergeHist` as
  delta+varint bytes.  Bin indices are strictly ascending, so after
  the first index each delta is >= 1 and is stored as ``delta - 1``;
  bin counts are >= 1 and are stored as ``count - 1``.  Sparse
  histograms (the common case: a handful of occupied 0.25 ms bins)
  collapse to a few bytes each, which is where the segment format's
  size win over the JSON snapshot comes from.
* **row decoder** -- :func:`decode_rows`, the one reader of the
  ``varint n_rows + (varint key-length, key utf-8, hist) x n`` payload
  that segment blocks and checkpoint tables share.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Optional, Tuple

from repro.backend.rollups import (
    MergeHist,
    _decode_key,
    _encode_key,
)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

FRAME_HEADER_BYTES = 8

#: Classification of a frame read.
FRAME_OK = "ok"
FRAME_END = "end"          # clean end of buffer at a frame boundary
FRAME_TORN = "torn"        # partial frame: crash mid-write
FRAME_CORRUPT = "corrupt"  # complete frame, bad checksum


# -- varints ----------------------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("uvarint cannot encode negative %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Returns ``(value, new_pos)``; raises ``ValueError`` on a
    truncated or oversized varint."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long")


# -- CRC frames -------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """``u32 LE length + u32 LE crc32(payload) + payload``."""
    return (_U32.pack(len(payload))
            + _U32.pack(zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


def read_frame(data: bytes, pos: int) -> Tuple[bytes, int, str]:
    """Read one frame at ``pos``.

    Returns ``(payload, new_pos, status)``.  ``status`` is
    ``FRAME_OK``, ``FRAME_END`` (pos is exactly the end of the
    buffer), ``FRAME_TORN`` (header or payload cut short) or
    ``FRAME_CORRUPT`` (checksum mismatch).  On anything but
    ``FRAME_OK`` the payload is ``b""`` and ``new_pos`` is ``pos``.
    """
    if pos == len(data):
        return b"", pos, FRAME_END
    if pos + FRAME_HEADER_BYTES > len(data):
        return b"", pos, FRAME_TORN
    (length,) = _U32.unpack_from(data, pos)
    (crc,) = _U32.unpack_from(data, pos + 4)
    end = pos + FRAME_HEADER_BYTES + length
    if end > len(data):
        return b"", pos, FRAME_TORN
    payload = bytes(data[pos + FRAME_HEADER_BYTES:end])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return b"", pos, FRAME_CORRUPT
    return payload, end, FRAME_OK


def pack_u64(value: int) -> bytes:
    return _U64.pack(value)


def unpack_u64(data: bytes, pos: int) -> int:
    return _U64.unpack_from(data, pos)[0]


# -- MergeHist codec --------------------------------------------------------


def encode_hist(out: bytearray, hist: MergeHist) -> None:
    """Append one histogram: varint count, varint overflow, varint
    n_entries, then ascending (delta-1 index, count-1) varint pairs
    (the first index is absolute)."""
    write_uvarint(out, hist.count)
    write_uvarint(out, hist.overflow)
    indices = sorted(hist.bins)
    write_uvarint(out, len(indices))
    previous = None
    for index in indices:
        if previous is None:
            write_uvarint(out, index)
        else:
            write_uvarint(out, index - previous - 1)
        previous = index
        write_uvarint(out, hist.bins[index] - 1)


def decode_hist(data: bytes, pos: int) -> Tuple[MergeHist, int]:
    """Decode one histogram at ``pos``; returns ``(hist, new_pos)``.

    This runs once per row of every block :func:`decode_rows` reads,
    so the common one-byte varint is read inline; :func:`read_uvarint`
    takes the multi-byte ones and keeps the truncation / oversize
    checks.  A payload cut short on a varint boundary surfaces as
    ``IndexError`` rather than ``ValueError``."""
    hist = MergeHist()
    value = data[pos]
    pos += 1
    if value >= 0x80:
        value, pos = read_uvarint(data, pos - 1)
    hist.count = value
    value = data[pos]
    pos += 1
    if value >= 0x80:
        value, pos = read_uvarint(data, pos - 1)
    hist.overflow = value
    n_entries = data[pos]
    pos += 1
    if n_entries >= 0x80:
        n_entries, pos = read_uvarint(data, pos - 1)
    bins = hist.bins
    index = -1           # so the first, absolute index needs no branch
    for _entry in range(n_entries):
        value = data[pos]
        pos += 1
        if value >= 0x80:
            value, pos = read_uvarint(data, pos - 1)
        index += value + 1
        value = data[pos]
        pos += 1
        if value >= 0x80:
            value, pos = read_uvarint(data, pos - 1)
        bins[index] = value + 1
    return hist, pos


# -- row payloads -----------------------------------------------------------


def decode_rows(payload: bytes, expected_rows: Optional[int] = None
                ) -> Dict[str, MergeHist]:
    """Decode one inflated row payload -- a segment block or a whole
    checkpoint table -- into ``{stored key text: hist}`` **in stored
    order**.

    A block stays keyed as it is stored, ordered and looked up: the
    reader already holds the stored text of every key it asks for, so
    no text is split into its tuple here, nor its parts put back into
    the order ``RollupStore`` keys them in -- whoever hands a row out
    of the store does both
    (:func:`repro.store.segments.stored_order`), for that row only.

    Rows are written sorted by that text (``sorted_rows``; a
    checkpoint's is the key as keyed), and utf-8 byte order is
    code-point order, so the raw text bytes must be strictly ascending;
    a payload where they are not is rejected, whichever file it is.  Readers lean on that: the dict this returns
    iterates in stored order, which is what lets
    :class:`~repro.store.segments.SegmentReader` bisect and walk a
    cached block without re-sorting it.

    Every text must also be **canonical** -- exactly what
    ``_encode_key`` writes for the tuple it decodes to.  Only a text
    holding a backslash can fail that (a needless escape, a trailing
    lone backslash), so only those are decoded and re-encoded to
    check; it is what keeps "no repeated text" meaning "no repeated
    key" (``a\\bc`` and ``abc`` are one key).

    Raises ``ValueError`` (``IndexError`` where a truncated payload
    ends on a varint boundary) on anything malformed, a repeated or
    non-canonical key included; ``expected_rows`` is the count the
    caller's index recorded, when it has one.
    """
    n_rows, pos = read_uvarint(payload, 0)
    if expected_rows is not None and n_rows != expected_rows:
        raise ValueError("row count %d != footer's %d"
                         % (n_rows, expected_rows))
    table: Dict[str, MergeHist] = {}
    end = len(payload)
    previous = None
    for _ in range(n_rows):
        key_len = payload[pos]
        pos += 1
        if key_len >= 0x80:
            key_len, pos = read_uvarint(payload, pos - 1)
        key_end = pos + key_len
        if key_end > end:
            raise ValueError("key runs past the payload")
        raw = payload[pos:key_end]
        if previous is not None and raw <= previous:
            raise ValueError("rows out of key order")
        previous = raw
        text = raw.decode("utf-8")
        if "\\" in text and _encode_key(_decode_key(text)) != text:
            raise ValueError("key %r is not in canonical form" % text)
        table[text], pos = decode_hist(payload, key_end)
    return table


__all__ = [
    "FRAME_CORRUPT", "FRAME_END", "FRAME_HEADER_BYTES", "FRAME_OK",
    "FRAME_TORN", "decode_hist", "decode_rows", "encode_hist", "frame",
    "pack_u64", "read_frame", "read_uvarint", "unpack_u64",
    "write_uvarint",
]
