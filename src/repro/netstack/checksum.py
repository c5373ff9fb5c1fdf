"""RFC 1071 Internet checksum."""

from __future__ import annotations

import sys
from array import array

_LITTLE_ENDIAN = sys.byteorder == "little"


def _ones_complement_sum(data: bytes) -> int:
    """One's-complement sum of ``data`` as big-endian 16-bit words,
    carries folded.  Odd-length input is padded with a zero byte, as
    the RFC specifies."""
    if len(data) % 2:
        data = data + b"\x00"
    words = array("H", data)
    if _LITTLE_ENDIAN:
        words.byteswap()
    total = sum(words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, per RFC 1071.

    Returns the 16-bit checksum value to place in a header (i.e. the
    complement of the running sum).
    """
    return (~_ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return _ones_complement_sum(data) == 0xFFFF
