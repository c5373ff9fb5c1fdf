"""Immutable segment files: a flushed memtable as checksummed blocks.

Layout, front to back::

    MOPSEG1\\n                         8-byte magic
    [row block] x N per table         CRC frame per zone-mapped block
    [footer]                          CRC frame, canonical JSON
    u64 LE footer offset              where the footer frame starts
    MOPSEGF1                          8-byte tail magic

Each rollup table's rows are sorted by **stored key text** -- the
key's parts in *stored order* (:func:`stored_order`: subject before
window where the table's ``TableSpec`` says ``subject_major``, as
keyed otherwise; nothing outside this module knows it), joined by
``_encode_key`` -- and split into blocks of at most ``block_rows``
rows, each one columnar payload
(:func:`repro.store.encoding.encode_block`) deflated with zlib
before framing (the CRC covers the compressed bytes).  Two
stores with equal content produce byte-identical segments regardless
of insertion order or ``PYTHONHASHSEED``.

The footer indexes every block by offset/length **and by zone map**:
the minimum and maximum stored text the block holds.  Blocks within a
table are disjoint and ascending, so a point read binary-searches the
zone maps and opens at most one block, and a range read opens only the
blocks whose ``[min, max]`` intersects the requested range -- for a
dashboard panel, the one or two blocks of the segment that hold its
subject (docs/QUERY.md).  The footer also records the set of rollup
windows the segment holds, so a reader can enumerate windows without
touching a single row block.

A decoded block stays in the form it is stored, ordered and looked
up in: a :class:`repro.store.encoding.Block` -- the stored key texts,
ascending, and the histogram columns, checked whole when the block is
opened.  Point and prefix reads bisect the texts; a text is split back
into its key tuple, and a histogram built from the columns, only for
a row that leaves the reader (docs/STORAGE.md has the table of who
splits and builds what).

Reads go by offset through an open descriptor (one ``os.pread`` per
block), never a whole-file slurp, and every reader of one file shares
that descriptor and its parsed footer (:meth:`SegmentReader.pin`): a
pinned reader touches only the blocks its queries need, and --
because the descriptor stays open while any reader holds it -- keeps
serving a consistent view even after compaction or retention has
unlinked the file (the snapshot-isolation contract in
:mod:`repro.serve`).

Every block and the footer carry their own CRC32.  A reader that
trips a checksum raises :class:`SegmentCorruption`; the engine's
recovery pass catches it and quarantines the file rather than serving
silently wrong aggregates, and the serving tier surfaces it as a
clean :class:`~repro.serve.QueryError`.  A sound file of another
``SEGMENT_SCHEMA`` raises :class:`UnsupportedSchema` instead, which
recovery lets through with the file left where it is.

Writes are atomic: the segment is assembled in a ``.tmp`` sibling and
renamed into place, so a crash mid-flush leaves no half-segment for
recovery to misread.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, ne
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.backend.rollups import (
    N_BINS,
    Key,
    MergeHist,
    RollupConfig,
    RollupStore,
    SPEC_BY_TABLE,
    UnsupportedSchema,
    _SEP,
    _decode_key,
    _encode_key,
)
from repro.obs import Observability
from repro.store.encoding import (
    FRAME_OK,
    Block,
    Columns,
    decode_block,
    decode_columns,
    encode_block,
    encode_columns,
    frame,
    pack_u64,
    read_frame,
    unpack_u64,
)

MAGIC = b"MOPSEG1\n"
TAIL_MAGIC = b"MOPSEGF1"
#: The one schema written and read (1-3 stored every table
#: window-first, 4 rows as interleaved varints); any other is refused,
#: :class:`UnsupportedSchema`.
SEGMENT_SCHEMA = 5
#: Default rows per zone-mapped block.  Small enough that a point
#: query decodes a few KB, large enough that zlib still has a real
#: window to compress over.
DEFAULT_BLOCK_ROWS = 256
#: What :func:`write_segment` writes beside ``schema``: in the footer,
#: per table, per block.  A reader requires them all; a getter raises
#: ``KeyError`` on the first one missing.
_FOOTER_FIELDS = itemgetter("seq", "config", "records",
                            "failure_records", "windows", "tables")
_TABLE_FIELDS = itemgetter("rows", "blocks")
_BLOCK_FIELDS = itemgetter("offset", "length", "rows", "min", "max")


class SegmentCorruption(Exception):
    """A segment failed structural or checksum validation."""


@dataclass
class ReadStats:
    """Per-view read accounting (shared by every pinned reader of one
    :class:`repro.serve.ReadView`)."""
    blocks_read: int = 0
    blocks_pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def delta_since(self, other: "ReadStats") -> "ReadStats":
        return ReadStats(
            blocks_read=self.blocks_read - other.blocks_read,
            blocks_pruned=self.blocks_pruned - other.blocks_pruned,
            cache_hits=self.cache_hits - other.cache_hits,
            cache_misses=self.cache_misses - other.cache_misses)

    def copy(self) -> "ReadStats":
        return ReadStats(self.blocks_read, self.blocks_pruned,
                         self.cache_hits, self.cache_misses)


def stored_order(name: str, parts: Key) -> Key:
    """A key of table ``name``, or its leading parts, from keyed to
    segment-stored order **or back**: a subject-major table swaps its
    first two parts (its own inverse); all else is stored as keyed."""
    if len(parts) >= 2 and SPEC_BY_TABLE[name].subject_major:
        return (parts[1], parts[0]) + parts[2:]
    return parts


def stored_text(name: str, key: Key) -> str:
    """The text ``key`` is stored, sorted and looked up under."""
    return _encode_key(stored_order(name, key))


def sorted_rows(table: Dict[Key, MergeHist], name: Optional[str] = None
                ) -> List[Tuple[str, MergeHist]]:
    """``(text, hist)`` per row, strictly ascending by text: each key's
    :func:`stored_text` in table ``name`` (segment blocks), or its
    ``_encode_key`` as keyed when ``name`` is None (checkpoint tables
    and forked-ingest parts: they are only ever read whole).

    The texts are the plain ``|`` joins unless some part holds a ``|``
    or a ``\\``, and the whole table shows whether one does: no
    backslash anywhere, and exactly the separators the joins put
    there.  A table where one does has every key encoded on its own
    (``_encode_key``)."""
    keys = table.keys()
    swap = None
    if name is not None and SPEC_BY_TABLE[name].subject_major:
        width = len(SPEC_BY_TABLE[name].key)
        swap = itemgetter(1, 0, *range(2, width)) \
            if set(map(len, keys)) == {width} \
            else partial(stored_order, name)

    def stored():
        # Lazily: a swapped key lives only until its text is made.  A
        # table's worth of them alive at once costs the collector more
        # than the swaps themselves.
        return keys if swap is None else map(swap, keys)

    texts = list(map(_SEP.join, stored()))
    joined = "".join(texts)
    if "\\" in joined or \
            joined.count(_SEP) != sum(map(len, keys)) - len(texts):
        texts = list(map(_encode_key, stored()))
    return sorted(zip(texts, table.values()), key=itemgetter(0))


#: One block as written: its payload, rows, first and last text.
_BlockOut = Tuple[bytes, int, str, str]


def _write_file(path: str, seq: int, config: RollupConfig, records: int,
                failure_records: int, windows: List[int],
                blocks_of: Callable[[str], Iterable[_BlockOut]],
                obs: Optional[Observability]) -> int:
    """The one segment writer: every table's blocks (``blocks_of``
    each name, in stored order) deflated and framed, then the footer,
    assembled in a ``.tmp`` sibling and renamed to ``path``.  Returns
    the file size in bytes."""
    parts = [MAGIC]
    offset = len(MAGIC)
    index: Dict[str, Dict[str, object]] = {}
    for name in RollupStore.TABLES:
        blocks: List[Dict[str, object]] = []
        total = 0
        for payload, rows, low, high in blocks_of(name):
            block = frame(zlib.compress(payload, 9))
            parts.append(block)
            blocks.append({"offset": offset, "length": len(block),
                           "rows": rows, "min": low, "max": high})
            offset += len(block)
            total += rows
        index[name] = {"rows": total, "blocks": blocks}
    footer = {
        "schema": SEGMENT_SCHEMA,
        "seq": int(seq),
        "config": config.to_dict(),
        "records": records,
        "failure_records": failure_records,
        "windows": windows,
        "tables": index,
    }
    footer_frame = frame(json.dumps(footer, sort_keys=True,
                                    separators=(",", ":")).encode())
    parts.append(footer_frame)
    parts.append(pack_u64(offset))
    parts.append(TAIL_MAGIC)
    blob = b"".join(parts)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if obs is not None:
        obs.inc("store.segment_writes")
    return len(blob)


def write_segment(path: str, store: RollupStore, seq: int,
                  obs: Optional[Observability] = None,
                  block_rows: int = DEFAULT_BLOCK_ROWS) -> int:
    """Write ``store`` as segment ``seq`` at ``path`` (atomically),
    rows in stored order, each block zone-mapped by its first and
    last stored text.  Returns the file size in bytes."""
    block_rows = max(1, int(block_rows))

    def blocks_of(name: str) -> Iterator[_BlockOut]:
        rows = sorted_rows(store.tables[name], name)
        for start in range(0, len(rows), block_rows):
            chunk = rows[start:start + block_rows]
            yield encode_block(chunk), len(chunk), chunk[0][0], \
                chunk[-1][0]

    return _write_file(path, seq, store.config, store.records,
                       store.failure_records, store.windows(),
                       blocks_of, obs)


# -- the column merge of segments -------------------------------------------

#: A subject-major text's window: the second stored part, after a
#: subject whose ``|`` and ``\\`` are escaped (a window holds neither).
_WINDOW_AFTER_SUBJECT = re.compile(r"(?:[^\\|]|\\.)*\|([^|]*)")


def _window_texts(name: str, texts: Sequence[str]) -> List[str]:
    """The window part of each stored text of windowed table
    ``name``: the second part of a subject-major table, the first
    otherwise."""
    if SPEC_BY_TABLE[name].subject_major:
        return [_WINDOW_AFTER_SUBJECT.match(text).group(1)
                for text in texts]
    return [text.partition(_SEP)[0] for text in texts]


def _sum_runs(column: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``column`` (uint64, each value at most 2**63) summed over the
    runs that begin at ``starts``, exactly: in uint64 where no sum can
    reach 2**63, else in Python ints -- a sum past 64 bits raises the
    encoder's ``ValueError``, one past 63 is left to the encoder."""
    if not len(column):
        return column
    longest = int(np.diff(starts, append=len(column)).max())
    if longest > 1 and int(column.max()) * longest >> 63:
        sums = np.add.reduceat(column.astype(object), starts)
        if max(sums) >> 64:
            raise ValueError("a column holds only values in [0, 2**63)")
        return sums.astype(np.uint64)
    return np.add.reduceat(column, starts)


def _merge_table(name: str, readers: Sequence["SegmentReader"],
                 cutoff: Optional[int] = None) -> Columns:
    """Table ``name`` of every segment ``readers`` read -- its blocks,
    each segment's ascending by text -- as one table: concatenated,
    ordered by text, equal texts folded by one sort-and-reduce over
    ``(row, bin index)``, and, given a ``cutoff``, the rows of a
    windowed table whose window is below it dropped.  No key is split
    and no histogram built."""
    parts: List[Columns] = [columns for reader in readers
                            for columns in reader.columns(name)]

    def joined(field: str, dtype) -> np.ndarray:
        return np.concatenate([
            getattr(part, field).astype(dtype, copy=False)
            for part in parts]) if parts else np.zeros(0, dtype)

    texts: List[str] = list(chain.from_iterable(
        part.texts for part in parts))
    counts = joined("counts", np.uint64)
    overflows = joined("overflows", np.uint64)
    n_bins = joined("n_bins", np.int64)
    indices = joined("indices", np.int64)
    bin_counts = joined("bin_counts", np.uint64)
    if cutoff is not None and SPEC_BY_TABLE[name].windowed and texts:
        keep = np.fromiter((int(window) >= cutoff for window
                            in _window_texts(name, texts)),
                           bool, len(texts))
        texts = list(compress(texts, keep.tolist()))
        counts, overflows = counts[keep], overflows[keep]
        bins_kept = np.repeat(keep, n_bins)
        n_bins = n_bins[keep]
        indices, bin_counts = indices[bins_kept], bin_counts[bins_kept]
    if not texts:
        return Columns([], counts, overflows, n_bins, [0], indices,
                       bin_counts)

    # Rows by text (each part is one ascending run, which the sort
    # takes as it finds it), then one group per distinct text.
    order = sorted(range(len(texts)), key=texts.__getitem__)
    ordered = [texts[at] for at in order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.fromiter(map(ne, islice(ordered, 1, None), ordered),
                            bool, len(ordered) - 1)
    starts = np.flatnonzero(first)
    order = np.asarray(order, dtype=np.int64)
    counts = _sum_runs(counts[order], starts)
    overflows = _sum_runs(overflows[order], starts)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1

    # Every bin under its row's group, then ascending (group, index):
    # equal pairs are one bin, summed.
    pairs = np.repeat(group, n_bins) * N_BINS + indices
    by_pair = np.argsort(pairs)
    pairs = pairs[by_pair]
    first_pair = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first_pair[1:])
    pair_starts = np.flatnonzero(first_pair)
    bin_counts = _sum_runs(bin_counts[by_pair], pair_starts)
    pairs = pairs[pair_starts]
    rows_of = pairs // N_BINS
    n_bins = np.bincount(rows_of, minlength=len(starts))
    return Columns(
        list(compress(ordered, first.tolist())), counts, overflows,
        n_bins, [0, *accumulate(n_bins.tolist())],
        pairs - rows_of * N_BINS, bin_counts)


class MergedSegments(NamedTuple):
    """Segments merged as columns (:func:`merge_segments`): what one
    segment of their content holds, before it is written
    (:meth:`write`)."""
    config: RollupConfig
    records: int
    failure_records: int
    #: The windows left, ascending.
    windows: List[int]
    #: The windows retention dropped.
    evicted_windows: int
    tables: Dict[str, Columns]

    def write(self, path: str, seq: int,
              obs: Optional[Observability] = None,
              block_rows: int = DEFAULT_BLOCK_ROWS) -> int:
        """Write the merge as segment ``seq`` at ``path``: the bytes
        :func:`write_segment` writes for a store of the same content.
        Returns the file size in bytes."""
        block_rows = max(1, int(block_rows))

        def blocks_of(name: str) -> Iterator[_BlockOut]:
            table = self.tables[name]
            texts, bounds = table.texts, table.bounds
            for start in range(0, len(texts), block_rows):
                end = min(start + block_rows, len(texts))
                low, high = bounds[start], bounds[end]
                yield encode_columns(
                    texts[start:end], table.counts[start:end],
                    table.overflows[start:end], table.n_bins[start:end],
                    table.indices[low:high],
                    table.bin_counts[low:high]), \
                    end - start, texts[start], texts[end - 1]

        return _write_file(path, seq, self.config, self.records,
                           self.failure_records, self.windows,
                           blocks_of, obs)


def _merged_counts(readers: Sequence["SegmentReader"],
                   config: RollupConfig) -> Tuple[int, int]:
    """The ``records`` and ``failure_records`` of every segment
    ``readers`` read, summed; ``ValueError`` when one was written
    under another ``config``."""
    for reader in readers:
        if reader.config.to_dict() != config.to_dict():
            raise ValueError("cannot merge rollups with different configs")
    return (sum(reader.records for reader in readers),
            sum(reader.failure_records for reader in readers))


def merge_segments(readers: Sequence["SegmentReader"],
                   config: RollupConfig,
                   cutoff: Optional[int] = None) -> MergedSegments:
    """The segments ``readers`` read, merged as they are stored --
    every block checked whole by :func:`decode_columns`, its columns
    concatenated and folded per table (:func:`_merge_table`), no
    :class:`RollupStore`, key tuple or histogram built -- with the
    windows below ``cutoff`` dropped when one is given.  Raises
    ``ValueError`` when a segment was written under another
    ``config``, :class:`SegmentCorruption` on a block that fails its
    checks."""
    records, failure_records = _merged_counts(readers, config)
    tables = {name: _merge_table(name, readers, cutoff)
              for name in RollupStore.TABLES}
    windows = sorted({window for reader in readers
                      for window in reader.windows()})
    kept = [window for window in windows
            if cutoff is None or window >= cutoff]
    return MergedSegments(config, records, failure_records, kept,
                          len(windows) - len(kept), tables)


def merged_rollups(readers: Sequence["SegmentReader"],
                   config: RollupConfig,
                   meta: Optional[Dict[str, object]] = None
                   ) -> RollupStore:
    """The segments ``readers`` read, as one :class:`RollupStore` of
    its own rows: merged as :func:`merge_segments` merges them, a
    table at a time, then each merged text split once and each
    histogram built once."""
    store = RollupStore(config=config, meta=meta)
    store.records, store.failure_records = _merged_counts(readers,
                                                          config)
    for name in RollupStore.TABLES:
        store.tables[name] = {
            stored_order(name, _decode_key(text)): hist
            for text, hist in Block(_merge_table(name, readers)).rows()}
    return store


def prefix_range(prefix_parts: Tuple[str, ...]
                 ) -> Tuple[str, Optional[str]]:
    """``(low, high)`` for leading parts **in stored order** (one
    part of a subject-major table: the subject's whole run): exactly
    the rows that start with ``prefix_parts`` *and go on* have texts
    that start with ``low``, i.e. lie in ``[low, high)`` -- a row
    keyed by just ``prefix_parts`` lacks ``low``'s closing ``|``.
    ``high`` is ``low``'s exact successor -- that ``|`` swapped for
    the next code point, ``}`` -- so no key part, whatever it begins
    with, falls outside; the empty prefix has no upper end."""
    if not prefix_parts:
        return "", None
    encoded = _encode_key(tuple(prefix_parts))
    return encoded + _SEP, encoded + chr(ord(_SEP) + 1)


class _SegmentFile:
    """One open segment file: the descriptor, the validated footer and
    the zone-map index -- everything about a segment that does not
    depend on who reads it, and nothing that does (no block cache,
    read accounting or registry).  Blocks are read by offset
    (``os.pread``), so any number of :class:`SegmentReader` objects
    share one without a file position between them.  Each reader over
    it holds a pin; the descriptor closes with the last."""

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            # Unbuffered: every read is one pread of exactly a block.
            self._handle = open(path, "rb", 0)
            self.size = os.fstat(self._handle.fileno()).st_size
        except OSError as exc:
            raise SegmentCorruption("unreadable segment %s: %s"
                                    % (path, exc))
        self._pins = 1
        try:
            self.footer = self._load_footer()
            self.seq = int(self.footer["seq"])
            self.records = int(self.footer["records"])
            self.failure_records = int(self.footer["failure_records"])
            self.config = RollupConfig.from_dict(self.footer["config"])
        except BaseException:
            self._handle.close()
            raise
        self.cache_prefix = os.path.abspath(path)
        self.tables = self.footer["tables"]
        #: Per table, every block's zone-map ``max`` in block order --
        #: ascending, so :meth:`SegmentReader.get` bisects it.  Filled
        #: by a table's first point read, not here: panels never call
        #: ``get``.
        self.block_maxes: Dict[str, List[str]] = {}

    def pin(self) -> None:
        self._pins += 1

    def unpin(self) -> None:
        self._pins -= 1
        if self._pins == 0:
            self._handle.close()

    def read_at(self, offset: int, length: int) -> bytes:
        return os.pread(self._handle.fileno(), length, offset)

    def _load_footer(self) -> Dict[str, object]:
        if self.size < len(MAGIC) + 16:
            raise SegmentCorruption("segment %s is too short"
                                    % self.path)
        if self.read_at(0, len(MAGIC)) != MAGIC:
            raise SegmentCorruption("bad segment magic in %s" % self.path)
        tail = self.read_at(self.size - 16, 16)
        if tail[8:] != TAIL_MAGIC:
            raise SegmentCorruption("bad tail magic in %s" % self.path)
        footer_offset = unpack_u64(tail, 0)
        if not len(MAGIC) <= footer_offset < self.size - 16:
            raise SegmentCorruption("footer offset out of range in %s"
                                    % self.path)
        buffer = self.read_at(footer_offset,
                              self.size - 16 - footer_offset)
        payload, end, status = read_frame(buffer, 0)
        if status != FRAME_OK or end != len(buffer):
            raise SegmentCorruption("footer frame invalid in %s"
                                    % self.path)
        try:
            footer = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise SegmentCorruption("footer is not JSON in %s"
                                    % self.path)
        if footer.get("schema") != SEGMENT_SCHEMA:
            raise UnsupportedSchema("segment %s" % self.path,
                                    footer.get("schema"), SEGMENT_SCHEMA)
        # The getters keep the check to one C call a block.
        try:
            _FOOTER_FIELDS(footer)
            tables = footer["tables"]
            for name in RollupStore.TABLES:
                if name not in tables:
                    raise SegmentCorruption(
                        "footer of %s does not index every rollup "
                        "table" % self.path)
                _rows, blocks = _TABLE_FIELDS(tables[name])
                for entry in blocks:
                    _BLOCK_FIELDS(entry)
        except (KeyError, TypeError) as exc:
            raise SegmentCorruption(
                "footer of %s lacks a field its writer writes: %s"
                % (self.path, exc))
        return footer


class SegmentReader:
    """Block-granular random access over one segment file.

    ``SegmentReader(path)`` opens the file and validates its footer;
    row blocks are CRC-checked lazily on first access.  :meth:`pin`
    hands out another reader over the *same* open file -- no I/O, the
    footer and zone maps parsed once -- bound to its own block cache,
    :class:`ReadStats` and registry: the engine opens each live
    segment once and gives every view a pin (docs/STORAGE.md, "Who
    opens a segment").  Point reads (:meth:`get`, :meth:`get_many`)
    and prefix ranges (:meth:`scan_prefixes`) consult the footer's
    zone maps and open only the blocks that can match; a full scan
    (:meth:`iter_table`, :meth:`columns`) opens them all.  Keys go in
    and come out as ``RollupStore`` has them; texts and ranges are in
    stored order.  Decoded blocks go through the shared
    :class:`~repro.store.blockcache.BlockCache` when one is supplied,
    else a private per-reader cache; :meth:`columns` reads past both.
    Any structural or checksum failure raises
    :class:`SegmentCorruption`.

    The file stays open until the last reader over it closes, so a
    segment deleted by compaction or retention keeps serving the
    pinned bytes (POSIX unlink semantics).
    """

    def __init__(self, path: str, cache=None,
                 obs: Optional[Observability] = None,
                 stats: Optional[ReadStats] = None) -> None:
        self._bind(_SegmentFile(path), cache, obs, stats)

    def _bind(self, file: _SegmentFile, cache,
              obs: Optional[Observability],
              stats: Optional[ReadStats]) -> None:
        self._file = file
        self.path = file.path
        self.footer = file.footer
        self.seq = file.seq
        self.records = file.records
        self.failure_records = file.failure_records
        self.config = file.config
        self._tables = file.tables
        self.cache = cache
        self.obs = obs
        self.stats = stats
        self._local: Dict[Tuple[str, int], Block] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def pin(self, cache=None, obs: Optional[Observability] = None,
            stats: Optional[ReadStats] = None) -> "SegmentReader":
        """Another reader over this one's open file, reading through
        ``cache`` into ``stats`` and ``obs``; it keeps the file open
        until it is closed, whoever else closes.  Opens nothing."""
        self._file.pin()
        reader = SegmentReader.__new__(SegmentReader)
        reader._bind(self._file, cache, obs, stats)
        return reader

    def close(self) -> None:
        """Drop this reader's pin (once); the last closes the file."""
        if not self._closed:
            self._closed = True
            self._file.unpin()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- structure -----------------------------------------------------

    def blocks(self, name: str) -> List[Dict[str, object]]:
        """Block metadata (offset, length, rows, zone-map min/max)."""
        return list(self._tables[name]["blocks"])

    def rows(self, name: str) -> int:
        return int(self._tables[name]["rows"])

    def windows(self) -> List[int]:
        """Rollup windows this segment holds, straight from the
        footer."""
        return [int(window) for window in self.footer["windows"]]

    # -- block loading -------------------------------------------------

    def _count_read(self) -> None:
        if self.stats is not None:
            self.stats.blocks_read += 1
        if self.obs is not None:
            self.obs.inc("store.blocks_read")

    def _load_block(self, name: str, index: int) -> Block:
        """One decoded block, checked whole and no row built
        (:func:`~repro.store.encoding.decode_block`)."""
        self._count_read()
        if self.cache is not None:
            cache_key = (self._file.cache_prefix, name, index)
            block = self.cache.get(cache_key)
            if block is not None:
                if self.stats is not None:
                    self.stats.cache_hits += 1
                return block
            if self.stats is not None:
                self.stats.cache_misses += 1
            block, nbytes = self._decode_block(name, index)
            self.cache.put(cache_key, block, nbytes)
            return block
        local_key = (name, index)
        block = self._local.get(local_key)
        if block is None:
            block, _nbytes = self._decode_block(name, index)
            self._local[local_key] = block
        return block

    def _decode_block(self, name: str, index: int,
                      decode: Callable = decode_block) -> Tuple[object, int]:
        """Block ``index`` of table ``name`` read, checksummed,
        inflated and handed to ``decode``; returns what it made and
        the inflated size."""
        entry = self._tables[name]["blocks"][index]
        buffer = self._file.read_at(int(entry["offset"]),
                                    int(entry["length"]))
        payload, _end, status = read_frame(buffer, 0)
        if status != FRAME_OK:
            raise SegmentCorruption(
                "table %r block %d failed its checksum in %s (%s)"
                % (name, index, self.path, status))
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise SegmentCorruption(
                "table %r block %d undeflatable in %s: %s"
                % (name, index, self.path, exc))
        try:
            block = decode(payload, int(entry["rows"]))
        except ValueError as exc:
            raise SegmentCorruption(
                "table %r block %d rows undecodable in %s: %s"
                % (name, index, self.path, exc))
        return block, len(payload)

    # -- the read path -------------------------------------------------

    @staticmethod
    def _block_holds(entry: Dict[str, object], encoded: str) -> bool:
        return entry["min"] <= encoded <= entry["max"]

    def _prune(self, skipped: int) -> None:
        if skipped <= 0:
            return
        if self.stats is not None:
            self.stats.blocks_pruned += skipped
        if self.obs is not None:
            self.obs.inc("store.blocks_pruned", skipped)

    def get(self, name: str, key: Key) -> Optional[MergeHist]:
        """Zone-map point read: bisects the blocks' ``max`` keys and
        opens at most one block."""
        blocks = self._tables[name]["blocks"]
        encoded = stored_text(name, tuple(key))
        maxes = self._file.block_maxes.get(name)
        if maxes is None:
            maxes = self._file.block_maxes[name] = [
                block["max"] for block in blocks]
        index = bisect_left(maxes, encoded)
        if index < len(blocks) and \
                self._block_holds(blocks[index], encoded):
            self._prune(len(blocks) - 1)
            return self._load_block(name, index).get(encoded)
        self._prune(len(blocks))
        return None

    def get_many(self, name: str, pairs: List[Tuple[str, Key]]
                 ) -> Dict[Key, MergeHist]:
        """Batched point reads of ``(stored key text, key)`` pairs,
        **sorted and without repeats** -- the caller
        (:meth:`repro.serve.ReadView.get_many`) encodes and sorts its
        key set once and hands every reader the same list.  One
        merge-join pass over the zone maps, opening each candidate
        block at most once however many keys land in it; rows are
        looked up by text and returned under the pair's key, so no
        key is encoded or split here.  Absent keys are simply missing
        from the result."""
        blocks = self._tables[name]["blocks"]
        out: Dict[Key, MergeHist] = {}
        skipped = 0
        index = 0
        for block_index, entry in enumerate(blocks):
            if index >= len(pairs):
                skipped += len(blocks) - block_index
                break
            low = entry["min"]
            high = entry["max"]
            while index < len(pairs) and pairs[index][0] < low:
                index += 1               # below every later block too
            end = index
            while end < len(pairs) and pairs[end][0] <= high:
                end += 1
            if end == index:
                skipped += 1
                continue
            block = self._load_block(name, block_index)
            for encoded, key in pairs[index:end]:
                hist = block.get(encoded)
                if hist is not None:
                    out[key] = hist
            index = end
        self._prune(skipped)
        return out

    def scan_prefixes(self, name: str,
                      ranges: List[Tuple[str, Optional[str]]]
                      ) -> Iterator[Tuple[Key, MergeHist]]:
        """All rows in *any* of the stored-text ranges
        (:func:`prefix_range`; **sorted, none inside another** --
        equal-length prefixes give that), in one pass: only blocks
        whose zone map meets a range are opened, each at most once
        however many ranges meet it, and a candidate block is bisected
        per range, not walked.  Yields in stored order, and splits a
        text into its key and builds a histogram only for a row it
        yields."""
        blocks = self._tables[name]["blocks"]
        skipped = 0
        for index, entry in enumerate(blocks):
            block_min = entry["min"]
            block_max = entry["max"]
            touching = []
            for low, high in ranges:
                if block_max < low:
                    break    # block sits below this and later ranges
                if high is None or block_min < high:
                    touching.append(low)
            if not touching:
                skipped += 1
                continue
            # A decoded block is in stored order: decode_block
            # refuses any other.
            block = self._load_block(name, index)
            texts = block.texts
            for low in touching:
                at = bisect_left(texts, low)
                while at < len(texts) and texts[at].startswith(low):
                    yield (stored_order(name, _decode_key(texts[at])),
                           block.hist(at))
                    at += 1
        self._prune(skipped)

    def iter_table(self, name: str) -> Iterator[Tuple[Key, MergeHist]]:
        """Every row of the table, in stored order."""
        for index in range(len(self._tables[name]["blocks"])):
            for text, hist in self._load_block(name, index).rows():
                yield stored_order(name, _decode_key(text)), hist

    def columns(self, name: str) -> Iterator[Columns]:
        """Every block of the table as its checked columns
        (:func:`~repro.store.encoding.decode_columns`), in stored
        order, read past the block cache: what
        :func:`merge_segments` folds."""
        for index in range(len(self._tables[name]["blocks"])):
            self._count_read()
            yield self._decode_block(name, index, decode_columns)[0]

    def verify(self) -> None:
        """Force-check every block -- checksum, then everything
        :func:`~repro.store.encoding.decode_block` checks, which
        builds no histogram (used by recovery and ``store
        inspect``)."""
        for name in RollupStore.TABLES:
            for index in range(len(self._tables[name]["blocks"])):
                self._load_block(name, index)

    def size_bytes(self) -> int:
        return self._file.size


__all__ = ["DEFAULT_BLOCK_ROWS", "MAGIC", "MergedSegments", "ReadStats",
           "SEGMENT_SCHEMA", "SegmentCorruption", "SegmentReader",
           "TAIL_MAGIC", "UnsupportedSchema", "merge_segments",
           "merged_rollups", "prefix_range", "sorted_rows",
           "stored_order", "stored_text", "write_segment"]
