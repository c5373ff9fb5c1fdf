"""Checkpoint files: a durable snapshot of the memtable mid-run.

Without checkpoints, recovery replays the WAL from its first frame,
so recovery time grows with run length.  A checkpoint freezes the
memtable's aggregates to disk (without flushing them to a segment, so
the memtable keeps accumulating) and records which WAL generations it
covers; recovery then loads the newest valid checkpoint and replays
only the WAL tail written after it -- bounded by the checkpoint
interval, not the run.

Layout, front to back::

    MOPCKP1\\n                         8-byte magic
    [header]                          CRC frame, canonical JSON
    [table block] x len(TABLES)       CRC frame per rollup table
    MOPCKPF1                          8-byte tail magic

The header carries ``schema``, ``covers_gen`` (the highest WAL
generation whose frames are folded into this snapshot), the rollup
config, and the record counters.  Table blocks reuse the segment
format's row payload and sorter (deflated, CRC framed; keyed order --
a checkpoint is only read whole), so a checkpoint of equal content is
byte-identical regardless of insertion order or ``PYTHONHASHSEED``.

Writes are atomic (``.tmp`` + rename).  Readers validate everything
up front and raise :class:`CheckpointCorruption` on any structural or
checksum failure; the engine quarantines the file and falls back to
the previous checkpoint plus a longer WAL replay -- which is exactly
why the engine retains two checkpoints and only prunes WAL
generations the *older* one covers.  A sound file of another schema
raises :class:`~repro.backend.rollups.UnsupportedSchema` and stays put.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Optional, Tuple

from repro.backend.rollups import (RollupConfig, RollupStore,
                                   UnsupportedSchema)
from repro.obs import Observability
from repro.store.encoding import (FRAME_OK, decode_block,
                                  deflate_frames, encode_block, frame,
                                  read_frame)
from repro.store.segments import sorted_rows

MAGIC = b"MOPCKP1\n"
TAIL_MAGIC = b"MOPCKPF1"
#: The one schema written and read: tables as columnar payloads, rows
#: strictly ascending by key text (2: rows as interleaved varints; 1:
#: in either of two orders).
CHECKPOINT_SCHEMA = 3
#: A table is one whole-table stream in a file the next flush deletes:
#: level 9 over it would be over half of a checkpoint's write time for
#: a tenth fewer bytes than this.  Segments, written once and read for
#: good, stay at 9.
CHECKPOINT_DEFLATE_LEVEL = 1


class CheckpointCorruption(Exception):
    """A checkpoint failed structural or checksum validation."""


def write_checkpoint(path: str, store: RollupStore, covers_gen: int,
                     obs: Optional[Observability] = None) -> int:
    """Write ``store`` as a checkpoint covering WAL generations
    ``<= covers_gen`` (atomically).  Returns the file size."""
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "covers_gen": int(covers_gen),
        "config": store.config.to_dict(),
        "records": store.records,
        "failure_records": store.failure_records,
        "tables": list(RollupStore.TABLES),
    }
    blob = b"".join([
        MAGIC,
        frame(json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode()),
        *deflate_frames([encode_block(sorted_rows(store.tables[name]))
                         for name in RollupStore.TABLES],
                        CHECKPOINT_DEFLATE_LEVEL),
        TAIL_MAGIC])
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if obs is not None:
        obs.inc("store.checkpoints")
        obs.inc("store.checkpoint_bytes", len(blob))
    return len(blob)


def read_checkpoint(path: str) -> Tuple[RollupStore, int]:
    """Load and fully validate a checkpoint.  Returns
    ``(store, covers_gen)``; raises :class:`CheckpointCorruption` on
    any defect (the caller quarantines and falls back),
    ``UnsupportedSchema`` on a sound file of another schema."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointCorruption("unreadable checkpoint %s: %s"
                                   % (path, exc))
    if len(data) < len(MAGIC) + len(TAIL_MAGIC) or \
            not data.startswith(MAGIC):
        raise CheckpointCorruption("bad checkpoint magic in %s" % path)
    if data[-len(TAIL_MAGIC):] != TAIL_MAGIC:
        raise CheckpointCorruption("bad tail magic in %s (torn write?)"
                                   % path)
    payload, pos, status = read_frame(data, len(MAGIC))
    if status != FRAME_OK:
        raise CheckpointCorruption("header frame %s in %s"
                                   % (status, path))
    try:
        header = json.loads(payload.decode("utf-8"))
    except ValueError:
        raise CheckpointCorruption("header is not JSON in %s" % path)
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise UnsupportedSchema("checkpoint %s" % path,
                                header.get("schema"), CHECKPOINT_SCHEMA)
    try:
        store = RollupStore(
            config=RollupConfig.from_dict(header["config"]))
        store.records = int(header["records"])
        store.failure_records = int(header["failure_records"])
        covers_gen = int(header["covers_gen"])
        tables = list(header["tables"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruption("header of %s lacks a field: %r"
                                   % (path, exc))
    if not set(RollupStore.TABLES) <= set(tables):
        raise CheckpointCorruption("header of %s does not name every "
                                   "rollup table" % path)
    # The header names the tables written, in order; one this build
    # does not know is decoded (to keep frame positions honest) and
    # dropped.
    for name in tables:
        payload, pos, status = read_frame(data, pos)
        if status != FRAME_OK:
            raise CheckpointCorruption(
                "table %r block %s in %s" % (name, status, path))
        try:
            rows = zlib.decompress(payload)
        except zlib.error as exc:
            raise CheckpointCorruption(
                "table %r block undeflatable in %s: %s"
                % (name, path, exc))
        try:
            block = decode_block(rows)
        except ValueError as exc:
            raise CheckpointCorruption(
                "table %r rows undecodable in %s: %s"
                % (name, path, exc))
        if name in store.tables:
            store.tables[name] = block.keyed()
    if pos != len(data) - len(TAIL_MAGIC):
        raise CheckpointCorruption("trailing garbage in %s" % path)
    return store, covers_gen


__all__ = ["CHECKPOINT_SCHEMA", "CheckpointCorruption", "MAGIC",
           "TAIL_MAGIC", "read_checkpoint", "write_checkpoint"]
