"""The storage engine: memtable + WAL + checkpoints + segments.

A miniature LSM tree shaped for the rollup workload:

* writes land in the **memtable** (a live
  :class:`~repro.backend.rollups.RollupStore`).  An uploaded batch is
  made durable by an envelope appended to the :mod:`WAL
  <repro.store.wal>` before it is acknowledged; a bulk load
  (:meth:`StoreEngine.append_records`) writes no envelope and is made
  durable by the flushes and the one checkpoint that end it;
* the WAL is a sequence of **generations**, one file each
  (``wal.log`` is generation 0; later files are
  ``wal-g<gen>-s00.log``).  An envelope is one batch: its raw JSONL
  bytes after a one-line JSON header -- no per-record
  re-serialisation, no JSON-in-JSON escaping -- committed by one
  fsync;
* a **checkpoint** (every ``checkpoint_interval_records``, and at the
  end of every bulk load) seals the current WAL generation, snapshots
  the memtable + dedup seeds atomically (checkpoint file + manifest),
  and prunes WAL generations the *previous* retained checkpoint
  already covers (``CHECKPOINT_KEEP`` = 2 stay on disk) -- recovery
  replay is bounded by the checkpoint interval, not the run length,
  and a torn newest checkpoint still falls back to the older one plus
  a longer replay (a bulk-loaded record has no WAL copy: a corrupt
  newest checkpoint quarantines it, as a corrupt segment would);
* when the memtable grows past ``flush_threshold_records`` it is
  frozen into an immutable :mod:`segment <repro.store.segments>`, the
  manifest is updated (segment list, dedup seeds, findings), and the
  WAL + checkpoints restart empty -- the segment now carries that
  data;
* **compaction** merges accumulated segments into one, block columns
  folded as they are stored (:func:`~repro.store.segments.merge_segments`:
  histogram merge is commutative, so this is pure bookkeeping), and the
  **retention** pass drops windowed rows older than the configured
  horizon;
* **recovery** rebuilds the live state from disk alone: load the
  manifest, check every segment (quarantining any that fails its
  checksums), load the newest valid checkpoint (quarantining torn
  ones), then stream the uncovered WAL tail into the memtable --
  dedup LRU seeds and all -- truncating torn tails at the last valid
  frame.  Replayed records are *not* accumulated; pass ``on_record``
  to observe them (recovery stays O(checkpoint interval) in memory,
  not O(run)).

Each form on disk has one reader and one generation: a sound manifest,
WAL file or envelope, checkpoint or segment of another makes recovery
raise ``UnsupportedSchema`` -- not corruption; nothing is moved,
truncated or quarantined (docs/STORAGE.md, "Formats").

The engine owns the memtable and the dedup map as *shared objects*:
:class:`~repro.backend.ingest.IngestPipeline` holds references to the
same instances, so an ingest is visible to the engine (and a recovery
is visible to the pipeline) without any copying.  Crash and recovery
mutate those objects in place for exactly that reason.

Everything the engine writes is canonical (sorted keys, fixed
separators, sorted rows), so two runs that ingest the same records
produce byte-identical segments, checkpoints and manifests regardless
of worker count or ``PYTHONHASHSEED`` -- the same determinism
contract as the rest of the repo.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.backend.dedup import remember
from repro.backend.rollups import (RollupConfig, RollupStore,
                                   UnsupportedSchema)
from repro.core.persist import decode_record_lines, encode_batch
from repro.core.records import MeasurementRecord
from repro.obs import Observability, get_default
from repro.store.checkpoint import (
    CheckpointCorruption,
    read_checkpoint,
    write_checkpoint,
)
from repro.store.segments import (
    DEFAULT_BLOCK_ROWS,
    SegmentCorruption,
    SegmentReader,
    merge_segments,
    merged_rollups,
    write_segment,
)
from repro.store.wal import FsyncModel, WriteAheadLog, replay

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"
QUARANTINE_DIR = "quarantine"
#: The one manifest written and read: every key ``_write_manifest``
#: writes is required; any other schema is ``UnsupportedSchema``.
MANIFEST_SCHEMA = 3
_MANIFEST_FIELDS = ("next_seq", "next_ckpt", "wal_covered_gen",
                    "segments", "checkpoints", "config", "dedup",
                    "findings", "meta")

#: One file per generation, always stripe ``s00``; the stripe field
#: stays in the name so directories striped by older builds open.
#: ``%06d`` pads the generation to six digits and no more, so a
#: generation past 999,999 is named -- and found -- with seven.
_WAL_FILE_RE = re.compile(r"^wal-g(\d{6,})-s(\d{2})\.log$")

#: Checkpoints retained on disk.  Keeping two means a torn newest
#: checkpoint falls back to the previous one -- WAL generations are
#: only pruned once the *older* retained checkpoint covers them.
CHECKPOINT_KEEP = 2
#: Records until a flush or checkpoint with no threshold configured.
_UNBOUNDED = float("inf")

#: ``json.dumps(header, sort_keys=True, separators=(",", ":"))`` of an
#: envelope header, its values the slots.  Every count is an ``int`` by
#: then; a device that is a ``str`` goes through the encoder's own
#: ``encode_basestring_ascii``, and any other device's header is dumped
#: (:meth:`StoreEngine._batch_header`).
_BATCH_HEADER = '{"acked":%d,"device":%s,"kind":"batch","n":%d,"seq":%d}'
#: The envelope header's keys, sorted.
_ENVELOPE_KEYS = ["acked", "device", "kind", "n", "seq"]


def _is_header(header, n_lines: int) -> bool:
    """Whether ``header`` is one ``StoreEngine._envelope`` writes over
    ``n_lines`` lines: a ``batch`` object with exactly its keys, every
    count an ``int`` (not a ``float``, a ``bool`` or a string of
    digits), ``n`` the line count, and a ``device`` that can key the
    dedup map: any JSON scalar, as ``StoreEngine._batch_header`` dumps
    a device that is no ``str``."""
    return (type(header) is dict
            and header.get("kind") == "batch"
            and sorted(header) == _ENVELOPE_KEYS
            and all(type(header[name]) is int
                    for name in ("acked", "n", "seq"))
            and header["n"] == n_lines
            and type(header["device"]) not in (list, dict))


def holds_store(path: str) -> bool:
    """Whether ``path`` is a directory holding a manifest or a WAL
    file -- a store; opening anything else creates one."""
    try:
        names = os.listdir(path)
    except OSError:
        return False
    return any(name in (MANIFEST_NAME, WAL_NAME) or _WAL_FILE_RE.match(name)
               for name in names)


class StoreConfig:
    """Tuning knobs for the engine."""

    def __init__(self,
                 flush_threshold_records: Optional[int] = 50_000,
                 compaction_fanout: int = 4,
                 retention_ms: Optional[float] = None,
                 checkpoint_interval_records: Optional[int] = None,
                 segment_block_rows: int = DEFAULT_BLOCK_ROWS,
                 fsync: Optional[FsyncModel] = None) -> None:
        #: Freeze the memtable into a segment at this many records
        #: (``None`` disables auto-flush; the WAL -- bounded by
        #: checkpoints if enabled -- then covers everything, which is
        #: what the chaos crash worlds want).
        self.flush_threshold_records = flush_threshold_records
        #: ``compact()`` merges once this many segments accumulate.
        self.compaction_fanout = max(2, int(compaction_fanout))
        #: Evict windowed rows older than this horizon (``None`` keeps
        #: everything; the CLI maps ``--retention-days`` onto it).
        self.retention_ms = retention_ms
        #: Checkpoint the memtable every this many records taken
        #: (``None`` disables the periodic checkpoints; recovery then
        #: replays the whole WAL).  A bulk load also ends in one
        #: checkpoint, whatever this is.
        self.checkpoint_interval_records = checkpoint_interval_records
        #: Rows per zone-mapped segment block.  Smaller blocks prune
        #: harder (a point read decodes less); larger blocks compress
        #: better.  The default is a good middle for both.
        self.segment_block_rows = max(1, int(segment_block_rows))
        self.fsync = fsync or FsyncModel()


@dataclass
class RecoveryInfo:
    """What one recovery pass found and rebuilt.  Counts only: the
    replayed records themselves stream straight into the memtable (and
    the caller's ``on_record`` hook), never into a list."""
    segments_loaded: int = 0
    segments_quarantined: int = 0
    checkpoint_loaded: Optional[str] = None
    checkpoint_records: int = 0
    checkpoints_quarantined: int = 0
    wal_files: int = 0
    wal_frames: int = 0
    wal_records: int = 0
    torn_tail: bool = False
    corrupt_frame: bool = False
    dedup_entries: int = 0


class StoreEngine:
    """Embedded storage under one ``data_dir``.

    Layout::

        data_dir/
          MANIFEST.json        segments, checkpoints, seq counters,
                               dedup seeds, WAL coverage watermark
          wal.log              WAL generation 0
          wal-gNNNNNN-s00.log  later generations
          ckpt-NNNNNN.ckpt     periodic memtable checkpoints
          segments/seg-NNNNNN.seg
          quarantine/          files that failed their checksums, and
                               segments no manifest was there to list
    """

    def __init__(self, data_dir: str,
                 rollup_config: Optional[RollupConfig] = None,
                 config: Optional[StoreConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.data_dir = data_dir
        self.config = config or StoreConfig()
        self.obs = obs or get_default()
        os.makedirs(os.path.join(data_dir, SEGMENT_DIR), exist_ok=True)
        #: An explicit config wins; otherwise a reopened directory
        #: adopts the config its manifest was written with (the disk
        #: layout defines the windows, not the caller's defaults).
        self._explicit_config = rollup_config is not None
        self.rollup_config = rollup_config or RollupConfig()
        #: Live aggregates; the ingest pipeline shares this object.
        self.memtable = RollupStore(config=self.rollup_config)
        #: ``(device_id, batch_seq) -> acked``; shared with the
        #: pipeline.  Rebuilt by recovery from manifest seeds + WAL.
        self.dedup: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        #: Opaque caller state persisted at flush (detector findings).
        self.findings: List[dict] = []
        self.meta: Dict[str, object] = {}
        #: Live segment file names, seq order, each to its size in
        #: bytes (as written, or as recovery opened it).
        self._segments: Dict[str, int] = {}
        #: The engine's one reader per live segment it has used:
        #: opened by recovery's checksum pass or on first use, shared
        #: by every view (:meth:`segment_readers`), closed when the
        #: segment is retired or the engine closes or crashes.
        self._open: Dict[str, SegmentReader] = {}
        self._checkpoints: List[dict] = []      # {"name","covers_gen"}
        self._next_seq = 1
        self._next_ckpt = 1
        #: Highest WAL generation whose frames are already durable in
        #: segments (set by flush; persisted in the manifest).
        self._covered_gen = -1
        self._wal_gen = 0
        #: Every WAL file on disk as ``(gen, shard, path)``: what
        #: recovery found, each generation opened since, less those
        #: pruned.
        self._wal_files: List[Tuple[int, int, str]] = []
        #: The active generation's log; ``recover`` opens it.
        self.wal: Optional[WriteAheadLog] = None
        self._records_since_checkpoint = 0
        self.last_recovery: Optional[RecoveryInfo] = None
        self.recoveries = 0
        self.recover(initial=True)

    # -- paths ---------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.data_dir, MANIFEST_NAME)

    def _wal_path(self) -> str:
        """The active generation's WAL file."""
        return os.path.join(
            self.data_dir, WAL_NAME if self._wal_gen == 0
            else "wal-g%06d-s00.log" % self._wal_gen)

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.data_dir, SEGMENT_DIR, name)

    def _checkpoint_path(self, name: str) -> str:
        return os.path.join(self.data_dir, name)

    def segment_names(self) -> List[str]:
        return list(self._segments)

    def checkpoint_names(self) -> List[str]:
        return [entry["name"] for entry in self._checkpoints]

    def _discover_wal_files(self) -> List[Tuple[int, int, str]]:
        """Every WAL file on disk as ``(gen, shard, path)``, sorted --
        the deterministic replay order."""
        found: List[Tuple[int, int, str]] = []
        try:
            names = os.listdir(self.data_dir)
        except OSError:
            return found
        for name in names:
            if name == WAL_NAME:
                found.append((0, 0, os.path.join(self.data_dir, name)))
                continue
            match = _WAL_FILE_RE.match(name)
            if match:
                found.append((int(match.group(1)), int(match.group(2)),
                              os.path.join(self.data_dir, name)))
        return sorted(found)

    def wal_paths(self) -> List[str]:
        return [path for _gen, _shard, path in self._discover_wal_files()]

    def wal_bytes(self) -> int:
        total = 0
        for path in self.wal_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    # -- manifest ------------------------------------------------------

    def _write_manifest(self) -> None:
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "next_seq": self._next_seq,
            "next_ckpt": self._next_ckpt,
            "wal_covered_gen": self._covered_gen,
            "segments": list(self._segments),
            "checkpoints": list(self._checkpoints),
            "config": self.rollup_config.to_dict(),
            "dedup": [[device, seq, acked]
                      for (device, seq), acked in self.dedup.items()],
            "findings": self.findings,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
        }
        blob = json.dumps(manifest, sort_keys=True,
                          separators=(",", ":"))
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(blob + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._manifest_path())

    def _load_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path()) as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return None
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise UnsupportedSchema(
                "manifest %s" % self._manifest_path(),
                manifest.get("schema"), MANIFEST_SCHEMA)
        missing = [name for name in _MANIFEST_FIELDS
                   if name not in manifest]
        if missing:
            raise ValueError("manifest %s lacks %s"
                             % (self._manifest_path(),
                                ", ".join(missing)))
        return manifest

    # -- the write path ------------------------------------------------

    @staticmethod
    def _envelope(head: str, lines: List[bytes]) -> bytes:
        """The envelope: one canonical-JSON header line (``kind``
        ``batch``, ``n`` the lines that follow), then the
        raw record lines verbatim.  No re-serialisation, no
        JSON-in-JSON escaping -- the frame CRC covers the lot."""
        if lines:
            return b"\n".join([head.encode(), *lines])
        return head.encode()

    @staticmethod
    def _batch_header(device_id: str, batch_seq: int, acked: int,
                      n: int) -> str:
        """An envelope's header line: formatted for a
        ``str`` device (``batch_seq`` and ``acked`` are ``int``
        already), dumped for any other."""
        if type(device_id) is str:
            return _BATCH_HEADER % (acked, encode_basestring_ascii(
                device_id), n, batch_seq)
        return json.dumps({"kind": "batch", "device": device_id,
                           "seq": batch_seq, "acked": acked, "n": n},
                          sort_keys=True, separators=(",", ":"))

    def log_batch(self, device_id: str, batch_seq: int, acked: int,
                  records: List[MeasurementRecord],
                  lines: Optional[List[bytes]] = None) -> float:
        """Make one accepted batch durable.  Returns the sim-time
        fsync cost to charge to the batch ACK.  Pass the batch's raw
        JSONL ``lines`` when the transport already has them (the
        pipeline does); otherwise they are serialised here."""
        if lines is None:
            lines = encode_batch(records).splitlines()
        batch_seq = int(batch_seq)
        acked = int(acked)
        # Seed the shared dedup map before any checkpoint can fire:
        # the manifest snapshot must carry this batch's identity, or a
        # checkpoint that truncates its envelope would forget it.
        remember(self.dedup, (device_id, batch_seq), acked)
        self.wal.append(self._envelope(
            self._batch_header(device_id, batch_seq, acked, len(lines)),
            lines))
        cost = self.wal.commit()
        self._records_since_checkpoint += len(lines)
        self._maybe_flush()
        self._maybe_checkpoint()
        return cost

    def append_records(self, records: Iterable[MeasurementRecord]
                       ) -> int:
        """Bulk ingest for trusted offline sources (a campaign import).
        The memtable takes the records in runs cut only where a flush
        or a checkpoint falls due, on the record it falls due, and the
        call ends in one :meth:`checkpoint` (none when a flush or
        checkpoint has just taken its last record).  No record is
        serialised and no envelope written: a call that has returned
        is durable in a checkpoint or a segment, and one O(memtable)
        checkpoint costs less than O(call) JSONL did.  Returns the
        count taken."""
        records = iter(records)
        count = 0
        while True:
            # A run ends on the record after which a flush or a
            # checkpoint is due: the memtable takes it in one add_all,
            # and each falls on the record it would one at a time.
            run = min(self._records_to_flush(),
                      self._records_to_checkpoint())
            run = None if run == _UNBOUNDED else max(run, 1)
            taken = self.memtable.add_all(islice(records, run))
            count += taken
            self._records_since_checkpoint += taken
            if self._over_threshold():
                self.flush()
            elif self._checkpoint_due():
                self.checkpoint()
            if run is None or taken < run:
                break
        if count and self._records_since_checkpoint:
            self.checkpoint()
        self._update_gauges()
        return count

    def bulk_load(self, store: RollupStore) -> str:
        """Import a whole RollupStore as one segment, bypassing the
        WAL (used by ``serve --data-dir``, where the shard files are
        the durable source).  Returns the segment file name."""
        name = self._flush_store(store)
        self._update_gauges()
        return name

    def _records_to_flush(self) -> float:
        """Records the memtable takes before it is over its flush
        threshold: none once it is, without end if it has none."""
        threshold = self.config.flush_threshold_records
        if threshold is None:
            return _UNBOUNDED
        return threshold - self.memtable.records \
            - self.memtable.failure_records

    def _over_threshold(self) -> bool:
        return self._records_to_flush() <= 0

    def _maybe_flush(self) -> None:
        if self._over_threshold():
            self.flush()

    def _records_to_checkpoint(self) -> float:
        """Records taken before a checkpoint is due, as
        :meth:`_records_to_flush`."""
        interval = self.config.checkpoint_interval_records
        if interval is None:
            return _UNBOUNDED
        return interval - self._records_since_checkpoint

    def _checkpoint_due(self) -> bool:
        return self._records_to_checkpoint() <= 0

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_due():
            self.checkpoint()

    # -- flush ---------------------------------------------------------

    def _memtable_empty(self) -> bool:
        return self.memtable.records == 0 and \
            self.memtable.failure_records == 0 and \
            self.memtable.group_count() == 0

    def _flush_store(self, store: RollupStore) -> str:
        seq = self._next_seq
        self._next_seq += 1
        name = "seg-%06d.seg" % seq
        nbytes = write_segment(self._segment_path(name), store, seq,
                               obs=self.obs,
                               block_rows=self.config.segment_block_rows)
        self._segments[name] = nbytes
        self.obs.inc("store.flushes")
        self.obs.inc("store.segment_flush_bytes", nbytes)
        self._write_manifest()
        return name

    def _seal_and_rotate(self) -> int:
        """Close the active WAL generation and open the next one.
        Returns the sealed generation number."""
        sealed = self._wal_gen
        self.wal.close()
        self._open_wal(sealed + 1)
        self.obs.inc("store.wal_rotations")
        return sealed

    def _open_wal(self, gen: int) -> None:
        self._wal_gen = gen
        self.wal = WriteAheadLog(self._wal_path(), obs=self.obs,
                                 fsync=self.config.fsync)
        if (gen, 0, self.wal.path) not in self._wal_files:
            self._wal_files.append((gen, 0, self.wal.path))

    def _prune_wal_files(self) -> None:
        """Delete WAL generations recovery can never need: those at or
        below the flush watermark, or those the *previous* retained
        checkpoint covers (so a torn newest checkpoint still has its
        fallback's tail on disk)."""
        horizon = self._covered_gen
        if len(self._checkpoints) >= 2:
            horizon = max(horizon,
                          int(self._checkpoints[-2]["covers_gen"]))
        kept: List[Tuple[int, int, str]] = []
        for entry in self._wal_files:
            gen, _shard, path = entry
            if gen <= horizon and gen < self._wal_gen:
                try:
                    os.remove(path)
                    continue
                except OSError:
                    pass
            kept.append(entry)
        self._wal_files = kept

    def flush(self) -> Optional[str]:
        """Freeze the memtable into a segment; the WAL rotates to a
        fresh generation and everything the segment now carries --
        older generations, checkpoints -- is deleted.  No-op on an
        empty memtable.  Returns the segment name."""
        if self._memtable_empty():
            return None
        self.wal.commit()
        self._covered_gen = self._seal_and_rotate()
        stale_checkpoints = self._checkpoints
        self._checkpoints = []
        name = self._flush_store(self.memtable)
        self.memtable.clear()
        for entry in stale_checkpoints:
            try:
                os.remove(self._checkpoint_path(entry["name"]))
            except OSError:
                pass
        self._prune_wal_files()
        self._records_since_checkpoint = 0
        self._update_gauges()
        return name

    # -- checkpoints ---------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Snapshot the memtable + dedup seeds durably and prune the
        WAL behind the previous checkpoint.

        Ordering is what makes a crash at any point recoverable:
        commit + seal the active generation first (the snapshot then
        covers exactly generations ``<= sealed``), write the
        checkpoint file atomically, publish it in the manifest
        (with the dedup seeds), and only then
        delete what is no longer needed.  Die before the manifest
        rename and recovery uses the previous checkpoint + the full
        tail; die before the deletions and recovery ignores (then
        cleans) the stale files.  Returns the checkpoint file name,
        or ``None`` on an empty memtable."""
        if self._memtable_empty():
            self._records_since_checkpoint = 0
            return None
        self.wal.commit()
        sealed = self._seal_and_rotate()
        name = "ckpt-%06d.ckpt" % self._next_ckpt
        self._next_ckpt += 1
        write_checkpoint(self._checkpoint_path(name), self.memtable,
                         covers_gen=sealed, obs=self.obs)
        self.obs.set_gauge(
            "store.checkpoint_records",
            float(self.memtable.records
                  + self.memtable.failure_records))
        self._checkpoints.append({"name": name, "covers_gen": sealed})
        retired = self._checkpoints[:-CHECKPOINT_KEEP]
        self._checkpoints = self._checkpoints[-CHECKPOINT_KEEP:]
        self._write_manifest()
        for entry in retired:
            try:
                os.remove(self._checkpoint_path(entry["name"]))
            except OSError:
                pass
        self._prune_wal_files()
        self._records_since_checkpoint = 0
        self._update_gauges()
        return name

    # -- compaction + retention ----------------------------------------

    def compact(self, now_ms: Optional[float] = None,
                force: bool = False) -> bool:
        """Merge segments into one when ``compaction_fanout`` have
        accumulated (or ``force`` with >= 2); apply retention when a
        horizon and ``now_ms`` are given, rewriting even a single
        segment if it holds a window older than the horizon.  Returns
        True if segments were rewritten."""
        cutoff = None
        if self.config.retention_ms is not None and now_ms is not None:
            cutoff = self.rollup_config.window_of(
                now_ms - self.config.retention_ms)
        if len(self._segments) < (2 if force
                                  else self.config.compaction_fanout) \
                and not self._holds_window_before(cutoff):
            self._update_gauges()
            return False
        merged = merge_segments(self._live_readers(), self.rollup_config,
                                cutoff)
        if merged.evicted_windows:
            self.obs.inc("store.retention_windows_evicted",
                         merged.evicted_windows)
        old = list(self._segments)
        seq = self._next_seq
        self._next_seq += 1
        name = "seg-%06d.seg" % seq
        nbytes = merged.write(self._segment_path(name), seq, obs=self.obs,
                              block_rows=self.config.segment_block_rows)
        self._segments = {name: nbytes}
        self._write_manifest()
        for stale in old:
            os.remove(self._segment_path(stale))
        self._release(old)
        self.obs.inc("store.compactions")
        self._update_gauges()
        return True

    def _reader(self, name: str) -> SegmentReader:
        """The engine's reader of live segment ``name``, opened on
        first use -- the one place the engine opens a segment."""
        reader = self._open.get(name)
        if reader is None:
            reader = self._open[name] = SegmentReader(
                self._segment_path(name))
        return reader

    def _live_readers(self) -> List[SegmentReader]:
        """The engine's reader of every live segment, seq order."""
        return [self._reader(name) for name in self._segments]

    def _release(self, names: Iterable[str]) -> None:
        """Drop the engine's pin on each named segment's reader: its
        descriptor closes now, or with the last view that pins it."""
        for name in list(names):
            reader = self._open.pop(name, None)
            if reader is not None:
                reader.close()

    def _holds_window_before(self, cutoff: Optional[int]) -> bool:
        """Whether any segment's footer lists a window below
        ``cutoff`` (never, without one)."""
        if cutoff is None:
            return False
        return any(window < cutoff for reader in self._live_readers()
                   for window in reader.windows())

    # -- crash + recovery ----------------------------------------------

    def crash(self) -> None:
        """The process dies.  Volatile state -- memtable, dedup map,
        findings, the WAL's uncommitted buffer -- is genuinely gone;
        only what commit()/checkpoint()/flush() forced to disk
        survives."""
        self.wal.crash()
        self.memtable.clear()
        self.dedup.clear()
        del self.findings[:]
        self._release(self._open)
        self._segments = {}
        self._checkpoints = []
        self._next_seq = 1

    @staticmethod
    def _decode_envelope(payload: bytes, path: str, frame_no: int
                         ) -> Tuple[dict, List[str]]:
        """The one reader of :meth:`_envelope`'s form.  A checksummed
        frame holding anything else -- text that is not UTF-8, a
        header that is not :func:`_is_header`, the first writer's
        object with a ``lines`` array -- is another generation's:
        refused, never replayed as the lines it happens to have."""
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError:
            text = ""
        head, _newline, body = text.partition("\n")
        lines = body.split("\n") if body else []
        try:
            header = json.loads(head)
        except (ValueError, RecursionError):
            header = None
        if _is_header(header, len(lines)):
            return header, lines
        raise UnsupportedSchema(
            "WAL %s frame %d" % (path, frame_no),
            head[:80] if text else payload[:80],
            "a batch header with n = its %d lines" % len(lines))

    def recover(self, initial: bool = False,
                on_record: Optional[
                    Callable[[MeasurementRecord], None]] = None
                ) -> RecoveryInfo:
        """Rebuild live state from disk alone: manifest -> segments
        (quarantining corrupt ones) -> newest valid checkpoint
        (quarantining torn ones, falling back to the previous) -> WAL
        tail replay into the memtable and dedup map, truncating torn
        tails.  Each replayed record streams through ``on_record``
        (when given) and is then dropped -- only counts are kept.
        A sound manifest, WAL, checkpoint or segment of another
        generation raises ``UnsupportedSchema``, left as found."""
        self._release(self._open)
        try:
            return self._recover(initial, on_record)
        except BaseException:
            self._release(self._open)
            raise

    def _recover(self, initial: bool,
                 on_record: Optional[Callable[[MeasurementRecord], None]]
                 ) -> RecoveryInfo:
        started = time.time()
        info = RecoveryInfo()
        if self.wal is not None:
            self.wal.crash()            # drop buffers, release handle
        self.memtable.clear()
        self.dedup.clear()
        del self.findings[:]
        self._segments = {}
        self._checkpoints = []
        self._next_seq = 1
        self._next_ckpt = 1
        self._covered_gen = -1

        manifest = self._load_manifest()
        manifest_dirty = False
        if manifest is not None:
            if not self._explicit_config:
                self.rollup_config = RollupConfig.from_dict(
                    manifest["config"])
                self.memtable.config = self.rollup_config
            self._next_seq = int(manifest["next_seq"])
            self._next_ckpt = int(manifest["next_ckpt"])
            self._covered_gen = int(manifest["wal_covered_gen"])
            self.meta = dict(manifest["meta"])
            self.findings.extend(manifest["findings"])
            for device, seq, acked in manifest["dedup"]:
                remember(self.dedup, (device, int(seq)), int(acked))
            for name in manifest["segments"]:
                if self._check_segment(name):
                    info.segments_loaded += 1
                else:
                    info.segments_quarantined += 1
            manifest_dirty = info.segments_quarantined > 0
            manifest_dirty |= self._load_checkpoint(
                list(manifest["checkpoints"]), info)
        covered = self._covered_gen
        if manifest_dirty:
            self._write_manifest()
        self._sweep_orphans(manifest is not None)

        wal_files = self._discover_wal_files()
        live_files: List[Tuple[int, int, str]] = []
        for gen, shard, path in wal_files:
            if gen <= covered:
                # Covered by a checkpoint or flush that crashed before
                # its deletions; finish the cleanup.
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            live_files.append((gen, shard, path))
        info.wal_files = len(live_files)
        self._wal_files = list(live_files)
        torn_files = 0
        for gen, shard, path in live_files:
            result = replay(path)
            for frame_no, payload in enumerate(result.payloads):
                header, lines = self._decode_envelope(payload, path,
                                                      frame_no)
                records, truncated = decode_record_lines(lines)
                if truncated:
                    raise ValueError(
                        "%s: envelope line %d is not a record"
                        % (path, len(records) + 1))
                self.memtable.add_all(records)
                if on_record is not None:
                    for record in records:
                        on_record(record)
                info.wal_records += len(lines)
                remember(self.dedup, (header["device"], header["seq"]),
                         header["acked"])
            info.wal_frames += len(result.payloads)
            if result.torn or result.corrupt:
                info.torn_tail |= result.torn
                info.corrupt_frame |= result.corrupt
                log = WriteAheadLog(path, obs=self.obs)
                log.truncate_to(result.valid_bytes)
                log.close()
                torn_files += 1
        info.dedup_entries = len(self.dedup)

        active_gen = max([gen for gen, _shard, _path in live_files],
                        default=covered + 1 if covered >= 0 else 0)
        self._open_wal(active_gen)
        if torn_files:
            self.obs.inc("store.wal_torn_tails", torn_files)

        self.obs.inc("store.wal_replayed_frames", info.wal_frames)
        self.obs.inc("store.wal_replayed_records", info.wal_records)
        if info.segments_quarantined:
            self.obs.inc("store.segments_quarantined",
                         info.segments_quarantined)
        if not initial:
            self.obs.inc("store.recoveries")
            self.recoveries += 1
        self._records_since_checkpoint = info.wal_records
        self.obs.set_gauge("store.recovery_replay_wall_ms",
                           (time.time() - started) * 1000.0)
        self._update_gauges()
        self.last_recovery = info
        return info

    def _load_checkpoint(self, entries: List[dict],
                         info: RecoveryInfo) -> bool:
        """Load the newest valid checkpoint into the memtable,
        quarantining torn ones and falling back to older entries.
        Returns True when the manifest needs rewriting."""
        survivors: List[dict] = []
        loaded_store = None
        for entry in reversed(entries):
            if loaded_store is None:
                path = self._checkpoint_path(entry["name"])
                try:
                    loaded_store, covers = read_checkpoint(path)
                except CheckpointCorruption:
                    self._quarantine(path)
                    info.checkpoints_quarantined += 1
                    continue
                info.checkpoint_loaded = entry["name"]
                info.checkpoint_records = (loaded_store.records
                                           + loaded_store.failure_records)
                self._covered_gen = max(self._covered_gen, int(covers))
            survivors.append(entry)
        survivors.reverse()
        self._checkpoints = survivors
        if loaded_store is not None:
            self.memtable.merge(loaded_store)
        if info.checkpoints_quarantined:
            self.obs.inc("store.checkpoints_quarantined",
                         info.checkpoints_quarantined)
        return info.checkpoints_quarantined > 0

    def _quarantine(self, path: str) -> None:
        """Move ``path``, if it is there, into ``quarantine/``."""
        quarantine = os.path.join(self.data_dir, QUARANTINE_DIR)
        os.makedirs(quarantine, exist_ok=True)
        if os.path.exists(path):
            os.replace(path, os.path.join(quarantine,
                                          os.path.basename(path)))

    def _sweep_orphans(self, manifest_loaded: bool) -> None:
        """Clear away what a crash between a write and its manifest
        publish, or between the publish and its deletions, left
        behind: every ``.tmp`` and every checkpoint the manifest does
        not list are deleted, and so is every segment it does not
        list -- when a manifest was loaded.  Without one, an unlisted
        segment may hold the only copy of flushed data (its WAL
        pruned), so it is moved to ``quarantine/``, which the sweep
        never touches, instead."""
        for folder, listed, suffix in (
                (self.data_dir, {entry["name"]
                                 for entry in self._checkpoints}, ".ckpt"),
                (os.path.join(self.data_dir, SEGMENT_DIR),
                 set(self._segments), ".seg")):
            try:
                names = os.listdir(folder)
            except OSError:
                continue
            for name in names:
                path = os.path.join(folder, name)
                orphan = name.endswith(suffix) and name not in listed
                if orphan and suffix == ".seg" and not manifest_loaded:
                    self._quarantine(path)
                elif orphan or name.endswith(".tmp"):
                    try:
                        os.remove(path)
                    except OSError:
                        pass

    def _check_segment(self, name: str) -> bool:
        """Open the engine's reader of ``name`` and check every block
        through a pin of it (the blocks it decodes go with the pin);
        a sound segment goes live, a corrupt one is released and
        quarantined (``UnsupportedSchema`` is not corrupt, and goes
        through)."""
        try:
            reader = self._reader(name)
            with reader.pin() as check:
                check.verify()
        except SegmentCorruption:
            self._release([name])
            self._quarantine(self._segment_path(name))
            return False
        self._segments[name] = reader.size_bytes()
        return True

    # -- the read path -------------------------------------------------

    def materialize(self) -> RollupStore:
        """Segments (seq order) + memtable, merged into one
        RollupStore -- the read path queries run against."""
        merged = merged_rollups(self._live_readers(), self.rollup_config,
                                meta=self.meta)
        merged.merge(self.memtable)
        return merged

    def segment_readers(self, cache=None, obs=None,
                        stats=None) -> List[SegmentReader]:
        """A pin of the engine's reader of every live segment (seq
        order): no file is opened for a segment the engine has open
        already, and none is re-read.  Each pinned reader reads
        through ``cache`` into ``stats`` and ``obs`` (the serving
        tier passes its shared
        :class:`~repro.store.blockcache.BlockCache` and a view's
        :class:`~repro.store.segments.ReadStats`) and keeps its
        segment's descriptor open -- past compaction, retention,
        :meth:`crash` and :meth:`close` -- until the caller closes
        it."""
        readers: List[SegmentReader] = []
        try:
            for name in self._segments:
                readers.append(self._reader(name).pin(
                    cache=cache, obs=obs, stats=stats))
        except BaseException:
            for reader in readers:
                reader.close()
            raise
        return readers

    def segment_bytes(self) -> int:
        """The live segments' size on disk."""
        return sum(self._segments.values())

    def disk_bytes(self) -> int:
        total = self.wal_bytes() + self.segment_bytes()
        for entry in self._checkpoints:
            try:
                total += os.path.getsize(
                    self._checkpoint_path(entry["name"]))
            except OSError:
                pass
        return total

    def _update_gauges(self) -> None:
        """From what the engine keeps: no file is opened, listed or
        stat'ed."""
        self.obs.set_gauge("store.segments", float(len(self._segments)))
        self.obs.set_gauge("store.segment_bytes",
                           float(self.segment_bytes()))
        self.obs.set_gauge(
            "store.memtable_records",
            float(self.memtable.records
                  + self.memtable.failure_records))
        self.obs.set_gauge("store.wal_files", float(len(self._wal_files)))

    def close(self) -> None:
        """Close the WAL and drop the engine's pin on every segment
        (a view still open keeps its own)."""
        self.wal.close()
        self._release(self._open)

    def __enter__(self) -> "StoreEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["MANIFEST_NAME", "QUARANTINE_DIR", "RecoveryInfo",
           "SEGMENT_DIR", "StoreConfig", "StoreEngine", "WAL_NAME",
           "holds_store"]
