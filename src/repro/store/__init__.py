"""repro.store: the embedded storage engine under the backend.

An LSM-shaped stack sized for rollup aggregates: a write-ahead log
for durability (:mod:`repro.store.wal`), immutable checksummed
segment files for bulk state (:mod:`repro.store.segments`), and
:class:`~repro.store.engine.StoreEngine` tying them together with a
memtable, tiered compaction, retention, and crash recovery.  Every
durable write goes through one seam (:mod:`repro.store.durable`).  See
``docs/STORAGE.md`` for the operator guide.
"""

from repro.store.blockcache import BlockCache, DEFAULT_CACHE_BYTES
from repro.store.engine import RecoveryInfo, StoreConfig, StoreEngine
from repro.store.segments import (
    ReadStats,
    SegmentCorruption,
    SegmentReader,
    UnsupportedSchema,
    read_checkpoint,
    write_checkpoint,
    write_segment,
)
from repro.store.wal import FsyncModel, WriteAheadLog, replay

__all__ = [
    "BlockCache",
    "DEFAULT_CACHE_BYTES",
    "FsyncModel",
    "ReadStats",
    "RecoveryInfo",
    "SegmentCorruption",
    "SegmentReader",
    "StoreConfig",
    "StoreEngine",
    "UnsupportedSchema",
    "WriteAheadLog",
    "read_checkpoint",
    "replay",
    "write_checkpoint",
    "write_segment",
]
