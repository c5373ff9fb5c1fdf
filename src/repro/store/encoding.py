"""Byte-level codecs shared by the WAL and segment formats.

Three pieces:

* **CRC frames** -- every durable payload is wrapped in
  ``u32 LE length + u32 LE crc32 + payload``.  The reader classifies
  the tail of a file as *clean* (ends exactly on a frame boundary),
  *torn* (a partial frame: the process died mid-write, the valid
  prefix is trustworthy) or *corrupt* (a complete frame whose checksum
  fails: the media lied, the file is quarantined).  The distinction
  matters: torn tails are expected after a crash and recovery simply
  truncates them; checksum failures are never expected and must be
  surfaced, not silently dropped.
* **block codec** -- :func:`encode_block` / :func:`decode_block`, the
  one writer and the one reader of the columnar row payload of every
  segment block (a checkpoint is a segment file) and forked-ingest
  table::

      u32 LE n_rows, u32 LE key_bytes
      key_bytes bytes           the rows' key texts (utf-8), concatenated
      six columns, each ``u8 width`` (1, 2, 4 or 8: the smallest that
      holds the column's maximum) + that many LE unsigned integers a
      value:
        key length     per row, in bytes
        count          per row
        overflow       per row
        n_bins         per row
        bin index      per bin, rows back to back: a row's first index
                       as it is, every later one as ``delta - 1``
                       (indices strictly ascend within a row)
        bin count - 1  per bin (an occupied bin holds >= 1)

  Like values sit together and a column is as wide as its largest
  value, so sparse histograms (a handful of occupied 0.25 ms bins)
  deflate to a few bytes a row; and because a column is one
  ``np.frombuffer``, a block is checked whole without a
  :class:`~repro.backend.rollups.MergeHist` being built -- a
  :class:`Block` builds a row's on first request, for that row only.
* **block deflate** -- :func:`deflate_frames`, the one place segment
  blocks are deflated and framed: each block on its
  own, at its writer's level, on the calling thread and -- when the
  blocks are big enough and the process may use a second CPU -- one
  helper thread beside it (``zlib`` releases the GIL while it
  deflates).  A block's bytes depend only on its payload and the
  level, so the file is the same whichever thread deflated what.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from bisect import bisect_left
from itertools import accumulate, chain, islice
from operator import ge
from typing import (Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.backend.rollups import (
    N_BINS,
    Key,
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


# -- CRC frames -------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """``u32 LE length + u32 LE crc32(payload) + payload``."""
    return (_U32.pack(len(payload))
            + _U32.pack(zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


#: Payload bytes, summed over one :func:`deflate_frames` call, from
#: which a helper thread deflates beside the caller.  Starting and
#: joining one costs 0.08-0.15 ms; columnar blocks deflate at about
#: 100 KB/ms at level 1 and 27 KB/ms at level 9 (one core of a 2-CPU
#: x86-64 host).  At 32 KiB half of a level-1 deflate is worth about
#: the thread; at level 9 (every segment) it is worth five.
PARALLEL_DEFLATE_MIN_BYTES = 32 * 1024


def _may_use_two_cpus() -> bool:
    """Whether this process may run on a second CPU."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:      # a platform without affinity masks
        return (os.cpu_count() or 1) > 1


def deflate_frames(payloads: Sequence[bytes], level: int) -> List[bytes]:
    """Each of ``payloads`` deflated on its own at ``level`` and
    framed, in order: ``[frame(zlib.compress(p, level)) for p in
    payloads]``, byte for byte.

    From :data:`PARALLEL_DEFLATE_MIN_BYTES` of payload, and when the
    process may use a second CPU, one helper thread shares the work
    with the caller: each takes the next block, largest first, from
    one shared iterator (its ``next`` holds the GIL) and keeps the
    result at the block's index.  The helper is started and joined
    within the call, so no thread outlives it -- nothing is left
    running when the caller forks.  An exception raised on either
    thread stops both from taking more blocks and is raised here,
    after the join."""
    if len(payloads) < 2 \
            or sum(map(len, payloads)) < PARALLEL_DEFLATE_MIN_BYTES \
            or not _may_use_two_cpus():
        return [frame(zlib.compress(payload, level))
                for payload in payloads]
    framed: List[Optional[bytes]] = [None] * len(payloads)
    taken = iter(sorted(range(len(payloads)),
                        key=lambda i: -len(payloads[i])))
    failed: List[BaseException] = []

    def work() -> None:
        try:
            for i in taken:
                if failed:
                    return
                framed[i] = frame(zlib.compress(payloads[i], level))
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=work, name="deflate-frames")
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return framed


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


# -- the block codec --------------------------------------------------------

_BLOCK_HEAD = struct.Struct("<II")
_COLUMN_DTYPES = {width: np.dtype("<u%d" % width) for width in (1, 2, 4, 8)}


def _uint64(values: Sequence[int]) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError:
        raise ValueError("a column holds only values in [0, 2**63)")


def _encode_column(column: np.ndarray) -> bytes:
    """``u8 width`` + ``column`` (uint64) at that width, the smallest
    its maximum fits."""
    top = int(column.max()) if len(column) else 0
    if top >> 63:       # where an empty bin's count - 1 wraps to, too
        raise ValueError("a column holds only values in [0, 2**63)")
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 \
        else 4 if top < 1 << 32 else 8
    return bytes((width,)) + column.astype(_COLUMN_DTYPES[width]).tobytes()


def encode_block(rows: Sequence[Tuple[str, MergeHist]]) -> bytes:
    """``(key text, hist)`` rows -- ``sorted_rows`` output or a slice
    of it, so strictly ascending by text -- as one block payload (the
    module docstring has the layout).  Raises ``ValueError`` for a row
    :func:`decode_block` would not hand back: a count that is negative
    or past 63 bits, an empty bin, a bin index off the grid."""
    bins = [hist.bins for _text, hist in rows]
    index = _uint64(list(chain.from_iterable(bins)))
    if len(index) and int(index.max()) >= N_BINS:
        raise ValueError("a bin index outside [0, %d)" % N_BINS)
    index = index.astype(np.int64)
    lengths = np.fromiter(map(len, bins), np.int64, len(bins))
    # Each row's bins into ascending index order, all rows at once:
    # one sort of row * N_BINS + index, keys that are all distinct.
    order = np.argsort(np.repeat(np.arange(len(rows)), lengths) * N_BINS
                       + index)
    return encode_columns(
        [text for text, _hist in rows],
        _uint64([hist.count for _text, hist in rows]),
        _uint64([hist.overflow for _text, hist in rows]),
        lengths, index[order],
        _uint64(list(chain.from_iterable(map(dict.values, bins))))[order])


def encode_columns(texts: Sequence[str], counts: np.ndarray,
                   overflows: np.ndarray, n_bins: np.ndarray,
                   indices: np.ndarray, bin_counts: np.ndarray) -> bytes:
    """The column half of :func:`encode_block`: rows given as the
    columns :func:`decode_columns` hands back -- texts strictly
    ascending, per row its count, overflow and number of bins, per bin
    its index (ascending within a row, on the grid) and its count
    (``>= 1``) -- as one block payload.  Raises ``ValueError`` for a
    value no column holds: past 63 bits, or an empty bin."""
    raws = [text.encode("utf-8") for text in texts]
    keys = b"".join(raws)
    deltas = indices.copy()
    deltas[1:] -= indices[:-1] + 1
    starts = (np.cumsum(n_bins) - n_bins)[n_bins > 0]
    deltas[starts] = indices[starts]
    return b"".join((
        _BLOCK_HEAD.pack(len(texts), len(keys)), keys,
        _encode_column(_uint64([len(raw) for raw in raws])),
        _encode_column(counts), _encode_column(overflows),
        _encode_column(n_bins.astype(np.uint64)),
        _encode_column(deltas.astype(np.uint64)),
        _encode_column(bin_counts - np.uint64(1))))


def _decode_column(payload: bytes, pos: int, n: int
                   ) -> Tuple[np.ndarray, int]:
    """The ``n``-value column at ``pos``, as stored (a view of
    ``payload``), and where the next one starts."""
    if pos >= len(payload):
        raise ValueError("payload ends before a column")
    width = payload[pos]
    dtype = _COLUMN_DTYPES.get(width)
    if dtype is None:
        raise ValueError("column width %d is not 1, 2, 4 or 8" % width)
    pos += 1
    end = pos + n * width
    if end > len(payload):
        raise ValueError("column runs past the payload")
    column = np.frombuffer(payload, dtype=dtype, count=n, offset=pos)
    top = int(column.max()) if n else 0
    if top >> 63:
        raise ValueError("column value past 63 bits")
    if width > 1 and not top >> 4 * width:
        raise ValueError("column stored wider than its maximum %d needs"
                         % top)
    return column, end


class Columns(NamedTuple):
    """Rows as columns -- one payload's, as :func:`decode_columns`
    checked them, or one table of merged segments: ``texts`` strictly
    ascending, per row ``counts``, ``overflows`` and ``n_bins``, per
    bin its absolute ``indices`` (int64, ascending within a row) and
    ``bin_counts`` (uint64, each ``>= 1``); row ``i``'s bins are
    ``[bounds[i], bounds[i + 1])``."""
    texts: List[str]
    counts: np.ndarray
    overflows: np.ndarray
    n_bins: np.ndarray
    bounds: List[int]
    indices: np.ndarray
    bin_counts: np.ndarray


class Block:
    """One decoded payload -- a segment block or a forked-ingest
    table -- every check already made, no row built yet.

    ``texts`` are the rows' stored key texts, strictly ascending (what
    a prefix read bisects); :meth:`hist` / :meth:`get` build a row's
    :class:`~repro.backend.rollups.MergeHist` from the columns on
    first request and keep it, so every later reader of a cached block
    is handed the same object: shared, epoch 0, read and never
    written."""

    __slots__ = ("texts", "_counts", "_overflows", "_bounds", "_indices",
                 "_bin_counts", "_hists")

    def __init__(self, columns: Columns) -> None:
        self.texts = columns.texts
        self._counts = columns.counts.tolist()
        self._overflows = columns.overflows.tolist()
        #: Row ``i``'s bins are ``[_bounds[i], _bounds[i + 1])`` of
        #: ``_indices`` and ``_bin_counts``.
        self._bounds = columns.bounds
        self._indices = columns.indices.tolist()
        self._bin_counts = columns.bin_counts.tolist()
        self._hists: List[Optional[MergeHist]] = [None] * len(self.texts)

    def hist(self, i: int) -> MergeHist:
        """Row ``i``'s histogram."""
        hist = self._hists[i]
        if hist is None:
            start, end = self._bounds[i], self._bounds[i + 1]
            hist = self._hists[i] = MergeHist()
            hist.count = self._counts[i]
            hist.overflow = self._overflows[i]
            hist.bins.update(zip(self._indices[start:end],
                                 self._bin_counts[start:end]))
        return hist

    def get(self, text: str) -> Optional[MergeHist]:
        """The histogram stored under ``text``, if any."""
        i = bisect_left(self.texts, text)
        if i < len(self.texts) and self.texts[i] == text:
            return self.hist(i)
        return None

    def rows(self) -> Iterator[Tuple[str, MergeHist]]:
        """Every ``(text, hist)``, in stored order."""
        return zip(self.texts, map(self.hist, range(len(self.texts))))

    def keyed(self) -> Dict[Key, MergeHist]:
        """Every row under its key tuple, each text split as it is
        stored: the key as keyed where it was written so (a
        forked-ingest part's tables), in stored order otherwise (a
        checkpoint's, which swaps it back)."""
        return dict(zip(map(_decode_key, self.texts),
                        map(self.hist, range(len(self.texts)))))


def decode_block(payload: bytes, expected_rows: Optional[int] = None
                 ) -> Block:
    """:func:`decode_columns`, as a :class:`Block` that can hand out
    any row without raising."""
    return Block(decode_columns(payload, expected_rows))


def decode_columns(payload: bytes, expected_rows: Optional[int] = None
                   ) -> Columns:
    """Check one inflated payload -- a segment block or a forked-ingest
    table -- **completely**, and return its
    :class:`Columns`: the one decoder, behind :func:`decode_block`
    and the column merge of segments
    (:func:`repro.store.segments.merge_segments`).

    A block stays keyed as it is stored, ordered and looked up: the
    reader already holds the stored text of every key it asks for, so
    no text is split into its tuple here, nor its parts put back into
    the order ``RollupStore`` keys them in -- whoever hands a row out
    of the store does both
    (:func:`repro.store.segments.stored_order`), for that row only.

    Rows are written sorted by that text (``sorted_rows``; a
    forked-ingest table's is the key as keyed), and utf-8 byte order is
    code-point order, so the texts must be strictly ascending; a
    payload where they are not is rejected, whichever file it is.
    Readers lean on that: :class:`~repro.store.segments.SegmentReader`
    bisects and walks a cached block's texts without re-sorting them.

    Every text must also be **canonical** -- exactly what
    ``_encode_key`` writes for the tuple it decodes to.  Only a text
    holding a backslash can fail that (a needless escape, a trailing
    lone backslash), so only those are decoded and re-encoded to
    check; it is what keeps "no repeated text" meaning "no repeated
    key" (``a\\bc`` and ``abc`` are one key).

    Raises ``ValueError`` on anything else no writer produces, too: a
    row count other than ``expected_rows`` (the count the caller's
    index recorded, when it has one), a column that leaves the payload
    or bytes after the last, key lengths that do not sum to the key
    bytes, invalid utf-8, a column wider than its maximum needs or
    holding a value past 63 bits, a bin index off the grid -- so an
    accepted payload is exactly what :func:`encode_block` writes for
    the rows it holds.
    """
    if len(payload) < _BLOCK_HEAD.size:
        raise ValueError("payload shorter than its header")
    n_rows, key_bytes = _BLOCK_HEAD.unpack_from(payload)
    if expected_rows is not None and n_rows != expected_rows:
        raise ValueError("row count %d != footer's %d"
                         % (n_rows, expected_rows))
    keys_end = _BLOCK_HEAD.size + key_bytes
    if keys_end > len(payload):
        raise ValueError("key bytes run past the payload")
    keys = payload[_BLOCK_HEAD.size:keys_end]
    key_lengths, pos = _decode_column(payload, keys_end, n_rows)
    counts, pos = _decode_column(payload, pos, n_rows)
    overflows, pos = _decode_column(payload, pos, n_rows)
    n_bins, pos = _decode_column(payload, pos, n_rows)
    bounds = [0]
    bounds.extend(accumulate(n_bins.tolist()))
    deltas, pos = _decode_column(payload, pos, bounds[-1])
    bin_counts, pos = _decode_column(payload, pos, bounds[-1])
    if pos != len(payload):
        raise ValueError("%d bytes after the last column"
                         % (len(payload) - pos))

    key_lengths = key_lengths.tolist()
    key_ends = list(accumulate(key_lengths))
    if (key_ends[-1] if key_ends else 0) != key_bytes:
        raise ValueError("key lengths do not sum to the %d key bytes"
                         % key_bytes)
    if keys.isascii():          # a character a byte: slice the text
        whole = keys.decode("ascii")
        texts = [whole[end - length:end]
                 for length, end in zip(key_lengths, key_ends)]
    else:
        texts = [keys[end - length:end].decode("utf-8")
                 for length, end in zip(key_lengths, key_ends)]
    if b"\\" in keys:
        for text in texts:
            if "\\" in text and _encode_key(_decode_key(text)) != text:
                raise ValueError("key %r is not in canonical form" % text)
    if any(map(ge, texts, islice(texts, 1, None))):
        raise ValueError("rows out of key order")

    # Absolute bin indices: one running sum of (stored value + 1) over
    # all rows, less what it had reached where each row starts, less 1.
    if bounds[-1] and int(deltas.max()) >= N_BINS:
        raise ValueError("a bin index outside [0, %d)" % N_BINS)
    running = np.zeros(bounds[-1] + 1, dtype=np.int64)
    np.cumsum(deltas, dtype=np.int64, out=running[1:])
    running[1:] += np.arange(1, bounds[-1] + 1)
    indices = running[1:] - 1
    indices -= np.repeat(running[bounds[:-1]], n_bins.astype(np.int64))
    if bounds[-1] and int(indices.max()) >= N_BINS:
        raise ValueError("a bin index outside [0, %d)" % N_BINS)
    return Columns(texts, counts, overflows, n_bins, bounds, indices,
                   bin_counts.astype(np.uint64) + np.uint64(1))


__all__ = [
    "Block", "Columns", "FRAME_CORRUPT", "FRAME_END",
    "FRAME_HEADER_BYTES", "FRAME_OK", "FRAME_TORN",
    "PARALLEL_DEFLATE_MIN_BYTES", "decode_block", "decode_columns",
    "deflate_frames", "encode_block", "encode_columns", "frame",
    "pack_u64", "read_frame", "unpack_u64",
]
