"""The storage engine: memtable + WAL + checkpoints + segments.

A miniature LSM tree shaped for the rollup workload:

* writes land in the **memtable** (a live
  :class:`~repro.backend.rollups.RollupStore`) and are made durable by
  an envelope appended to the :mod:`WAL <repro.store.wal>` before the
  batch is acknowledged;
* the WAL is a sequence of **generations**, one file each
  (``wal.log`` is generation 0; later files are
  ``wal-g<gen>-s00.log``).  Envelopes carry the records as raw JSONL
  bytes after a one-line JSON header -- no per-record
  re-serialisation, no JSON-in-JSON escaping -- and the bulk path
  group-commits on byte *and* record thresholds
  (``GROUP_COMMIT_BYTES``, ``GROUP_COMMIT_RECORDS``);
* a periodic **checkpoint** (every ``checkpoint_interval_records``)
  seals the current WAL generation, snapshots the memtable + dedup
  seeds atomically (checkpoint file + manifest), and prunes WAL
  generations the *previous* retained checkpoint already covers
  (``CHECKPOINT_KEEP`` = 2 stay on disk) -- recovery replay is bounded
  by the checkpoint interval, not the run length, and a torn newest
  checkpoint still falls back to the older one plus a longer replay;
* when the memtable grows past ``flush_threshold_records`` it is
  frozen into an immutable :mod:`segment <repro.store.segments>`, the
  manifest is updated (segment list, dedup seeds, findings), and the
  WAL + checkpoints restart empty -- the segment now carries that
  data;
* **compaction** merges accumulated segments into one (histogram merge
  is commutative, so this is pure bookkeeping) and the **retention**
  pass drops windowed rows older than the configured horizon;
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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.backend.ingest import DEDUP_CAPACITY
from repro.backend.rollups import (TABLE_SPECS, RollupConfig,
                                   RollupStore, UnsupportedSchema)
from repro.core.persist import (decode_record_lines, encode_batch,
                                encode_chunks)
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
    write_segment,
)
from repro.store.wal import FsyncModel, WriteAheadLog, replay

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"
QUARANTINE_DIR = "quarantine"
#: The one manifest written and read: every key ``_write_manifest``
#: writes is required; any other schema is ``UnsupportedSchema``.
MANIFEST_SCHEMA = 2
_MANIFEST_FIELDS = ("next_seq", "next_ckpt", "bulk_seq",
                    "wal_covered_gen", "segments", "checkpoints",
                    "config", "dedup", "findings", "meta")

#: One file per generation, always stripe ``s00``; the stripe field
#: stays in the name so directories striped by older builds open.
_WAL_FILE_RE = re.compile(r"^wal-g(\d{6})-s(\d{2})\.log$")

#: Bulk-append path: one fsync once this many *records* (not
#: envelopes) are buffered ...
GROUP_COMMIT_RECORDS = 16_384
#: ... or once this many framed bytes are, whichever first.
GROUP_COMMIT_BYTES = 1 << 20
#: Checkpoints retained on disk.  Keeping two means a torn newest
#: checkpoint falls back to the previous one -- WAL generations are
#: only pruned once the *older* retained checkpoint covers them.
CHECKPOINT_KEEP = 2


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
        #: Checkpoint the memtable every this many logged records
        #: (``None`` disables checkpoints; recovery then replays the
        #: whole WAL).
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
          quarantine/          files that failed their checksums
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
        self._segments: List[str] = []          # file names, seq order
        self._checkpoints: List[dict] = []      # {"name","covers_gen"}
        self._next_seq = 1
        self._next_ckpt = 1
        self._bulk_seq = 0
        #: Highest WAL generation whose frames are already durable in
        #: segments (set by flush; persisted in the manifest).
        self._covered_gen = -1
        self._wal_gen = 0
        #: The active generation's log; ``recover`` opens it.
        self.wal: Optional[WriteAheadLog] = None
        self._pending_records = 0
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
            "bulk_seq": self._bulk_seq,
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
    def _envelope(header: dict, lines: List[bytes]) -> bytes:
        """The envelope: one canonical-JSON header line (``kind``
        ``batch`` or ``bulk``, ``n`` the lines that follow), then the
        raw record lines verbatim.  No re-serialisation, no
        JSON-in-JSON escaping -- the frame CRC covers the lot."""
        payload = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode()
        if lines:
            payload += b"\n" + b"\n".join(lines)
        return payload

    def log_batch(self, device_id: str, batch_seq: int, acked: int,
                  records: List[MeasurementRecord],
                  lines: Optional[List[bytes]] = None) -> float:
        """Make one accepted batch durable.  Returns the sim-time
        fsync cost to charge to the batch ACK.  Pass the batch's raw
        JSONL ``lines`` when the transport already has them (the
        pipeline does); otherwise they are serialised here."""
        if lines is None:
            lines = encode_batch(records).splitlines()
        # Seed the shared dedup map before any checkpoint can fire:
        # the manifest snapshot must carry this batch's identity, or a
        # checkpoint that truncates its envelope would forget it.
        self._seed_dedup(device_id, int(batch_seq), int(acked))
        header = {"kind": "batch", "device": device_id,
                  "seq": int(batch_seq), "acked": int(acked),
                  "n": len(lines)}
        self.wal.append(self._envelope(header, lines))
        cost = self._commit()
        self._records_since_checkpoint += len(lines)
        self._maybe_flush()
        self._maybe_checkpoint()
        return cost

    def append_records(self, records: Iterable[MeasurementRecord],
                       batch_records: int = 512) -> int:
        """Bulk ingest for trusted offline sources: records go through
        the memtable *and* the WAL (group commit on record/byte
        thresholds), serialised ``batch_records`` at a time."""
        return self.append_entries(
            (entry for chunk, data in encode_chunks(records,
                                                    batch_records)
             for entry in zip(chunk, data.splitlines())),
            batch_records=batch_records)

    def append_entries(self,
                       entries: Iterable[Tuple[MeasurementRecord,
                                               bytes]],
                       batch_records: int = 512) -> int:
        """Bulk ingest of ``(record, raw_line_bytes)`` pairs: callers
        that already hold the canonical JSONL bytes (shard files,
        upload payloads) pass them through, and nothing here
        serialises a record -- that re-serialisation was most of the
        WAL's 3.5x ingest tax."""
        count = 0
        lines: List[bytes] = []

        def _emit() -> None:
            self._bulk_seq += 1
            header = {"kind": "bulk", "n": len(lines),
                      "seq": self._bulk_seq}
            self.wal.append(self._envelope(header, lines))
            self._pending_records += len(lines)
            if self._pending_records >= GROUP_COMMIT_RECORDS or \
                    self.wal.pending_bytes >= GROUP_COMMIT_BYTES:
                self._commit()

        for record, line in entries:
            self.memtable.add(record)
            lines.append(line)
            count += 1
            self._records_since_checkpoint += 1
            if len(lines) >= batch_records:
                _emit()
                lines = []
            if self._over_threshold():
                if lines:
                    _emit()
                    lines = []
                self.flush()
            elif self._checkpoint_due():
                if lines:
                    _emit()
                    lines = []
                self.checkpoint()
        if lines:
            _emit()
        self._commit()
        self._update_gauges()
        return count

    def _commit(self) -> float:
        self._pending_records = 0
        return self.wal.commit()

    def bulk_load(self, store: RollupStore) -> str:
        """Import a whole RollupStore as one segment, bypassing the
        WAL (used by ``serve --data-dir``, where the shard files are
        the durable source).  Returns the segment file name."""
        name = self._flush_store(store)
        self._update_gauges()
        return name

    def _over_threshold(self) -> bool:
        threshold = self.config.flush_threshold_records
        return threshold is not None and \
            self.memtable.records + self.memtable.failure_records \
            >= threshold

    def _maybe_flush(self) -> None:
        if self._over_threshold():
            self.flush()

    def _checkpoint_due(self) -> bool:
        interval = self.config.checkpoint_interval_records
        return interval is not None and \
            self._records_since_checkpoint >= interval

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
        self._segments.append(name)
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
        self._pending_records = 0

    def _prune_wal_files(self) -> None:
        """Delete WAL generations recovery can never need: those at or
        below the flush watermark, or those the *previous* retained
        checkpoint covers (so a torn newest checkpoint still has its
        fallback's tail on disk)."""
        horizon = self._covered_gen
        if len(self._checkpoints) >= 2:
            horizon = max(horizon,
                          int(self._checkpoints[-2]["covers_gen"]))
        for gen, _shard, path in self._discover_wal_files():
            if gen <= horizon and gen < self._wal_gen:
                try:
                    os.remove(path)
                except OSError:
                    pass

    def flush(self) -> Optional[str]:
        """Freeze the memtable into a segment; the WAL rotates to a
        fresh generation and everything the segment now carries --
        older generations, checkpoints -- is deleted.  No-op on an
        empty memtable.  Returns the segment name."""
        if self._memtable_empty():
            return None
        self._commit()
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
        (with the dedup seeds and bulk-seq watermark), and only then
        delete what is no longer needed.  Die before the manifest
        rename and recovery uses the previous checkpoint + the full
        tail; die before the deletions and recovery ignores (then
        cleans) the stale files.  Returns the checkpoint file name,
        or ``None`` on an empty memtable."""
        if self._memtable_empty():
            self._records_since_checkpoint = 0
            return None
        self._commit()
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
        horizon and ``now_ms`` are given.  Returns True if a merge
        happened."""
        if len(self._segments) < (2 if force
                                  else self.config.compaction_fanout):
            self._apply_retention_gauge_only()
            return False
        merged = RollupStore(config=self.rollup_config)
        old = list(self._segments)
        for name in old:
            with SegmentReader(self._segment_path(name)) as reader:
                merged.merge(reader.to_store())
        if self.config.retention_ms is not None and now_ms is not None:
            self._evict_old_windows(merged, now_ms)
        seq = self._next_seq
        self._next_seq += 1
        name = "seg-%06d.seg" % seq
        write_segment(self._segment_path(name), merged, seq,
                      obs=self.obs,
                      block_rows=self.config.segment_block_rows)
        self._segments = [name]
        self._write_manifest()
        for stale in old:
            os.remove(self._segment_path(stale))
        self.obs.inc("store.compactions")
        self._update_gauges()
        return True

    def _apply_retention_gauge_only(self) -> None:
        self._update_gauges()

    def _evict_old_windows(self, store: RollupStore,
                           now_ms: float) -> None:
        cutoff = self.rollup_config.window_of(
            now_ms - self.config.retention_ms)
        evicted_windows = set()
        for spec in TABLE_SPECS:
            if not spec.windowed:
                continue
            rows = store.tables[spec.name]
            for key in [k for k in rows if int(k[0]) < cutoff]:
                evicted_windows.add(int(key[0]))
                del rows[key]
        if evicted_windows:
            self.obs.inc("store.retention_windows_evicted",
                         len(evicted_windows))

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
        self._segments = []
        self._checkpoints = []
        self._next_seq = 1
        self._pending_records = 0

    @staticmethod
    def _decode_envelope(payload: bytes, path: str, frame_no: int
                         ) -> Tuple[dict, List[str]]:
        """The one reader of :meth:`_envelope`'s form.  A checksummed
        frame holding anything else -- another ``kind``, an ``n`` that
        is not its body's line count, the first writer's object with a
        ``lines`` array -- is another generation's: refused, never
        replayed as the lines it happens to have."""
        head, _newline, body = payload.decode("utf-8").partition("\n")
        header = json.loads(head)
        lines = body.split("\n") if body else []
        if header.get("kind") not in ("batch", "bulk") or \
                header.get("n") != len(lines):
            raise UnsupportedSchema(
                "WAL %s frame %d" % (path, frame_no), head[:80],
                "a batch or bulk header with n = its %d lines"
                % len(lines))
        return header, lines

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
        started = time.time()
        info = RecoveryInfo()
        if self.wal is not None:
            self.wal.crash()            # drop buffers, release handle
        self.memtable.clear()
        self.dedup.clear()
        del self.findings[:]
        self._segments = []
        self._checkpoints = []
        self._next_seq = 1
        self._next_ckpt = 1
        self._bulk_seq = 0
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
            self._bulk_seq = int(manifest["bulk_seq"])
            self._covered_gen = int(manifest["wal_covered_gen"])
            self.meta = dict(manifest["meta"])
            self.findings.extend(manifest["findings"])
            for device, seq, acked in manifest["dedup"]:
                self._seed_dedup(device, int(seq), int(acked))
            for name in manifest["segments"]:
                if self._check_segment(name):
                    self._segments.append(name)
                    info.segments_loaded += 1
                else:
                    info.segments_quarantined += 1
            manifest_dirty = info.segments_quarantined > 0
            manifest_dirty |= self._load_checkpoint(
                list(manifest["checkpoints"]), info)
        covered = self._covered_gen
        if manifest_dirty:
            self._write_manifest()
        self._sweep_orphan_checkpoints()

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
                for record in records:
                    self.memtable.add(record)
                    if on_record is not None:
                        on_record(record)
                info.wal_records += len(lines)
                if header["kind"] == "batch":
                    self._seed_dedup(header["device"],
                                     int(header["seq"]),
                                     int(header["acked"]))
                else:
                    self._bulk_seq = max(self._bulk_seq,
                                         int(header["seq"]))
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
                    self._quarantine_checkpoint(entry["name"])
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

    def _quarantine_checkpoint(self, name: str) -> None:
        quarantine = os.path.join(self.data_dir, QUARANTINE_DIR)
        os.makedirs(quarantine, exist_ok=True)
        path = self._checkpoint_path(name)
        if os.path.exists(path):
            os.replace(path, os.path.join(quarantine, name))

    def _sweep_orphan_checkpoints(self) -> None:
        """Delete checkpoint files the manifest does not reference --
        leftovers of a crash between a checkpoint/flush write and its
        manifest publish or deletions."""
        valid = {entry["name"] for entry in self._checkpoints}
        try:
            names = os.listdir(self.data_dir)
        except OSError:
            return
        for name in names:
            if (name.endswith(".ckpt") or name.endswith(".ckpt.tmp")) \
                    and name not in valid:
                try:
                    os.remove(os.path.join(self.data_dir, name))
                except OSError:
                    pass

    def _seed_dedup(self, device: str, seq: int, acked: int) -> None:
        key = (device, seq)
        self.dedup[key] = acked
        self.dedup.move_to_end(key)
        while len(self.dedup) > DEDUP_CAPACITY:
            self.dedup.popitem(last=False)

    def _check_segment(self, name: str) -> bool:
        """Full checksum pass; quarantine the file on failure
        (``UnsupportedSchema`` is not one, and goes through)."""
        path = self._segment_path(name)
        try:
            with SegmentReader(path) as reader:
                reader.verify()
            return True
        except SegmentCorruption:
            quarantine = os.path.join(self.data_dir, QUARANTINE_DIR)
            os.makedirs(quarantine, exist_ok=True)
            if os.path.exists(path):
                os.replace(path, os.path.join(quarantine, name))
            return False

    # -- the read path -------------------------------------------------

    def materialize(self) -> RollupStore:
        """Segments (seq order) + memtable, merged into one
        RollupStore -- the read path queries run against."""
        merged = RollupStore(config=self.rollup_config,
                             meta=self.meta)
        for name in self._segments:
            with SegmentReader(self._segment_path(name)) as reader:
                merged.merge(reader.to_store())
        merged.merge(self.memtable)
        return merged

    def segment_readers(self, cache=None, obs=None,
                        stats=None) -> List[SegmentReader]:
        """Open one reader per live segment (seq order).  The caller
        owns the readers -- and with them a pinned view: the open file
        handles keep serving even after compaction or retention
        unlinks the files.  Pass a shared
        :class:`~repro.store.blockcache.BlockCache` and a
        :class:`~repro.store.segments.ReadStats` to share decoded
        blocks and account reads (the serving tier does both)."""
        readers: List[SegmentReader] = []
        try:
            for name in self._segments:
                readers.append(
                    SegmentReader(self._segment_path(name),
                                  cache=cache, obs=obs, stats=stats))
        except SegmentCorruption:
            for reader in readers:
                reader.close()
            raise
        return readers

    def disk_bytes(self) -> int:
        total = self.wal_bytes()
        for entry in self._checkpoints:
            try:
                total += os.path.getsize(
                    self._checkpoint_path(entry["name"]))
            except OSError:
                pass
        for name in self._segments:
            try:
                total += os.path.getsize(self._segment_path(name))
            except OSError:
                pass
        return total

    def _update_gauges(self) -> None:
        self.obs.set_gauge("store.segments", float(len(self._segments)))
        segment_bytes = 0
        for name in self._segments:
            try:
                segment_bytes += os.path.getsize(
                    self._segment_path(name))
            except OSError:
                pass
        self.obs.set_gauge("store.segment_bytes", float(segment_bytes))
        self.obs.set_gauge(
            "store.memtable_records",
            float(self.memtable.records
                  + self.memtable.failure_records))
        self.obs.set_gauge("store.wal_files",
                           float(len(self._discover_wal_files())))

    def close(self) -> None:
        self.wal.close()


__all__ = ["MANIFEST_NAME", "QUARANTINE_DIR", "RecoveryInfo",
           "SEGMENT_DIR", "StoreConfig", "StoreEngine", "WAL_NAME",
           "holds_store"]
