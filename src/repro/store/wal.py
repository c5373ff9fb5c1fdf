"""The write-ahead log: durability for every uploaded batch.

Every accepted batch becomes one envelope (a JSON header line and the
batch's raw JSONL) appended to the active generation's file -- ``MAGIC``,
then CRC frames (see :mod:`repro.store.encoding`).  There is one kind
of envelope: a bulk load writes none and is made durable by a
checkpoint (:meth:`repro.store.engine.StoreEngine.append_records`).
Appends buffer in memory; :meth:`WriteAheadLog.commit` writes the
buffered frames and issues one fsync for them.  The sim-time price of
that fsync comes from :class:`FsyncModel` (the same shape as
``IngestLoadModel``: a base cost plus a marginal per-kilobyte cost)
and is returned to the caller, which charges it to the batch ACK --
durable backends are slower backends, and the uploader's ACK-latency
histogram sees the difference.

Crash semantics are literal: :meth:`WriteAheadLog.crash` discards the
uncommitted buffer, exactly the bytes a real process loses when it
dies between ``write()`` and ``fsync()``.  :func:`replay` walks the
frames back, classifying the tail -- a *torn* tail (partial frame) is
the expected signature of a crash and recovery truncates it; a
*corrupt* frame (complete but checksum-failed) stops the replay at
the last valid frame and is reported separately, because media
corruption is never expected and must show up in ``store.*`` metrics.
A file that opens with another generation's magic (``MOPWAL?\\n``) is
neither: :func:`replay` raises ``UnsupportedSchema`` and recovery
leaves it alone; only a file with no magic at all restarts empty.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.backend.rollups import UnsupportedSchema
from repro.obs import Observability, get_default
from repro.store import durable
from repro.store.encoding import (
    FRAME_CORRUPT,
    FRAME_END,
    FRAME_OK,
    frame,
    read_frame,
)

MAGIC = b"MOPWAL1\n"


class FsyncModel:
    """Sim-time cost of one commit's fsync.

    ``base_ms`` is the fixed price of the barrier (journal flush,
    device cache flush); ``per_kb_ms`` the marginal cost of the dirty
    bytes being forced out.  Defaults approximate a mobile-grade eMMC
    part; a benchmark can zero them to measure the no-WAL upper bound.
    """

    def __init__(self, base_ms: float = 8.0,
                 per_kb_ms: float = 0.05) -> None:
        self.base_ms = float(base_ms)
        self.per_kb_ms = float(per_kb_ms)

    def cost_ms(self, nbytes: int) -> float:
        return self.base_ms + self.per_kb_ms * (nbytes / 1024.0)


@dataclass
class ReplayResult:
    """What :func:`replay` found in a WAL file."""
    payloads: List[bytes] = field(default_factory=list)
    valid_bytes: int = 0        # offset of the last valid frame's end
    torn: bool = False          # partial frame at the tail (crash)
    corrupt: bool = False       # checksum-failed frame (media fault)


def replay(path: str) -> ReplayResult:
    """Read every valid frame from ``path``, stopping at the first
    torn or corrupt frame.  ``valid_bytes`` is the safe truncation
    point.  A missing file replays as empty; a file under another
    generation's magic raises ``UnsupportedSchema``."""
    result = ReplayResult()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return result
    if not data.startswith(MAGIC):
        head = data[:len(MAGIC)]
        if head[:6] == MAGIC[:6] and head[7:] == MAGIC[7:]:
            raise UnsupportedSchema("WAL %s" % path, head, MAGIC)
        # A WAL that lost its header is unreadable from byte 0: treat
        # the whole file as a torn tail and let recovery reset it.
        result.torn = bool(data)
        return result
    pos = len(MAGIC)
    result.valid_bytes = pos
    while True:
        payload, pos, status = read_frame(data, pos)
        if status == FRAME_OK:
            result.payloads.append(payload)
            result.valid_bytes = pos
            continue
        if status != FRAME_END:
            result.torn = status != FRAME_CORRUPT
            result.corrupt = status == FRAME_CORRUPT
        return result


class WriteAheadLog:
    """Append-only frame log.

    ``append`` buffers; ``commit`` makes the buffered frames durable
    and returns the modelled fsync cost in sim-ms.  Nothing buffered
    survives :meth:`crash`.
    """

    def __init__(self, path: str,
                 obs: Optional[Observability] = None,
                 fsync: Optional[FsyncModel] = None) -> None:
        self.path = path
        self.obs = obs or get_default()
        self.fsync = fsync or FsyncModel()
        self._pending: List[bytes] = []
        self._handle = None
        self._open()

    def _open(self) -> None:
        if os.path.exists(self.path) and os.path.getsize(self.path):
            self._handle = open(self.path, "ab")
        else:
            self._handle = durable.create(self.path, MAGIC, self.obs)

    # -- the write path ------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Buffer one record; durable only after :meth:`commit`."""
        if self._handle is None:
            raise RuntimeError("WAL is closed")
        self._pending.append(frame(payload))

    def commit(self) -> float:
        """Write and fsync the buffered frames.  Returns the modelled
        sim-time cost; 0.0 when nothing was pending."""
        if not self._pending:
            return 0.0
        blob = b"".join(self._pending)
        count = len(self._pending)
        self._pending = []
        durable.sync(self._handle, blob, self.obs)
        cost = self.fsync.cost_ms(len(blob))
        self.obs.inc("store.wal_appends", count)
        self.obs.inc("store.wal_bytes", len(blob))
        self.obs.inc("store.wal_fsyncs")
        self.obs.observe("store.wal_commit_cost_ms", cost)
        return cost

    # -- lifecycle -----------------------------------------------------

    def crash(self) -> None:
        """The process dies: the uncommitted buffer is gone, the file
        keeps only what commit() already forced out."""
        self._pending = []
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        if self._pending:
            self.commit()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


__all__ = ["FsyncModel", "MAGIC", "ReplayResult", "WriteAheadLog",
           "replay"]
