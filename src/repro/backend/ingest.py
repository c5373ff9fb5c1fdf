"""Batch ingestion: validation, idempotency, rate limiting, load shed.

The pipeline is transport-agnostic: :class:`IngestPipeline` consumes
``(device_id, batch_seq, payload-bytes)`` triples and returns a
:class:`BatchOutcome`; :class:`~repro.backend.server.BackendServer`
adapts the wire protocol onto it, and the offline shard workers bypass
the wire entirely via :func:`ingest_shard_files`.

Contracts:

* **Prefix ACKs.** A batch is ingested up to the first malformed line
  and the ACK counts exactly that prefix -- the uploader advances its
  cursor by the ACK, so any other semantics silently duplicates or
  drops records (the bug this replaces).
* **Idempotency.** Batches are keyed on ``(device_id, batch_seq)``.  A
  replay (lost ACK, BUSY retry) returns the cached ACK count without
  touching the rollups, so uploader retries are exactly-once.
* **Backpressure.** A per-device token bucket and a global backlog
  model can both shed a batch with BUSY + a retry hint; a shed batch
  is not ingested and not remembered, so the retry is a fresh attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import Observability, get_default

from repro.backend.dedup import remember
from repro.backend.rollups import RollupConfig, RollupStore
from repro.core.persist import decode_record_lines, iter_jsonl
from repro.core.records import MeasurementRecord
from repro.store.encoding import decode_block, encode_block
from repro.store.segments import sorted_rows


def parse_batch_lines(payload: bytes
                      ) -> Tuple[List[MeasurementRecord],
                                 List[bytes], bool]:
    """Parse JSONL payload up to the first malformed line.

    Returns ``(records, lines, truncated)``: the valid prefix as
    records, the same prefix as raw line bytes (what the WAL appends
    verbatim -- re-serialising every record on the hot path is the
    overhead this replaces), and whether a bad line -- one that is not
    a record, or not UTF-8 -- stopped the parse.
    Records after a bad line are NOT ingested even if parseable: the
    ACK must be a prefix count for the uploader's cursor arithmetic.
    """
    try:
        lines = payload.decode("utf-8").splitlines()
        undecodable = False
    except UnicodeDecodeError as exc:
        # JSON text is UTF-8: the line holding the first byte that is
        # not is malformed, so only the lines wholly before it are read
        # (the NUL stands in for the rest of that line, then goes).
        lines = (payload[:exc.start].decode("utf-8")
                 + "\x00").splitlines()[:-1]
        undecodable = True
    # str.strip as the predicate drops blank lines.
    lines = list(filter(str.strip, lines))
    records, truncated = decode_record_lines(lines)
    if truncated:
        del lines[len(records):]
    return records, list(map(str.encode, lines)), truncated or undecodable


class TokenBucket:
    """Per-device batch rate limiter on the sim clock."""

    __slots__ = ("capacity", "refill_per_ms", "tokens", "last_ms")

    def __init__(self, capacity: float, refill_per_ms: float,
                 now_ms: float) -> None:
        self.capacity = capacity
        self.refill_per_ms = refill_per_ms
        self.tokens = capacity
        self.last_ms = now_ms

    def allow(self, now_ms: float) -> bool:
        elapsed = max(0.0, now_ms - self.last_ms)
        self.last_ms = now_ms
        self.tokens = min(self.capacity,
                          self.tokens + elapsed * self.refill_per_ms)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_hint_ms(self) -> float:
        deficit = 1.0 - self.tokens
        if self.refill_per_ms <= 0:
            return 60_000.0
        return deficit / self.refill_per_ms


class IngestLoadModel:
    """Sim-time cost of ingestion, and when to shed instead.

    Each accepted batch costs ``base_ms + per_record_ms * n`` of
    backend processing; the backlog drains in sim time.  When the
    backlog would exceed ``busy_threshold_ms`` the batch is shed with
    BUSY and a retry hint sized to the excess.
    """

    def __init__(self, base_ms: float = 2.0,
                 per_record_ms: float = 0.05,
                 busy_threshold_ms: float = float("inf")) -> None:
        self.base_ms = base_ms
        self.per_record_ms = per_record_ms
        self.busy_threshold_ms = busy_threshold_ms
        self.backlog_ms = 0.0
        self._last_ms = 0.0

    def _drain(self, now_ms: float) -> None:
        elapsed = max(0.0, now_ms - self._last_ms)
        self._last_ms = now_ms
        self.backlog_ms = max(0.0, self.backlog_ms - elapsed)

    def batch_cost_ms(self, n_records: int) -> float:
        return self.base_ms + self.per_record_ms * n_records

    def admit(self, n_records: int, now_ms: float
              ) -> Tuple[bool, float]:
        """Returns ``(admitted, delay_or_retry_ms)``: the ingest delay
        to charge if admitted, else the BUSY retry hint."""
        self._drain(now_ms)
        cost = self.batch_cost_ms(n_records)
        if self.backlog_ms + cost > self.busy_threshold_ms:
            return False, self.backlog_ms + cost - self.busy_threshold_ms
        self.backlog_ms += cost
        return True, self.backlog_ms

    def reset(self) -> None:
        """Drop the in-memory backlog (a crashed process's queue does
        not survive the restart)."""
        self.backlog_ms = 0.0


@dataclass
class BatchOutcome:
    """What the transport should answer for one batch."""
    status: str                     # "ack" | "busy"
    acked: int = 0                  # prefix record count (status=ack)
    retry_ms: float = 0.0           # backoff hint (status=busy)
    delay_ms: float = 0.0           # sim-time ingest cost to charge
    duplicate: bool = False
    truncated: bool = False
    records: List[MeasurementRecord] = field(default_factory=list)


class IngestPipeline:
    """Validated, idempotent, rate-limited ingestion into rollups."""

    def __init__(self, obs: Optional[Observability] = None,
                 load: Optional[IngestLoadModel] = None,
                 rate_capacity: float = 64.0,
                 rate_refill_per_min: float = 600.0,
                 on_records: Optional[
                     Callable[[List[MeasurementRecord]], None]] = None,
                 store=None) -> None:
        #: Optional :class:`repro.store.StoreEngine`.  When present
        #: the pipeline aggregates into the engine's memtable and
        #: dedup map (shared objects), every accepted batch is logged
        #: to the WAL before its ACK, and the modelled fsync cost is
        #: added to the ACK delay -- durability is paid for in sim
        #: time, not assumed.
        self.store = store
        self.rollups = (store.memtable if store is not None
                        else RollupStore())
        self.obs = obs or get_default()
        self.load = load or IngestLoadModel()
        self.rate_capacity = rate_capacity
        self.rate_refill_per_ms = rate_refill_per_min / 60_000.0
        self._buckets: Dict[str, TokenBucket] = {}
        self._dedup: "OrderedDict[Tuple[str, int], int]" = (
            store.dedup if store is not None else OrderedDict())
        self._on_records = on_records

    # -- wire-facing entry point -------------------------------------

    def handle_batch(self, device_id: str, batch_seq: int,
                     payload: bytes, now_ms: float) -> BatchOutcome:
        key = (device_id, batch_seq)
        cached = self._dedup.get(key)
        if cached is not None:
            self._dedup.move_to_end(key)
            self.obs.inc("backend.duplicate_batches")
            return BatchOutcome(status="ack", acked=cached,
                                duplicate=True,
                                delay_ms=self.load.base_ms)

        bucket = self._buckets.get(device_id)
        if bucket is None:
            bucket = self._buckets[device_id] = TokenBucket(
                self.rate_capacity, self.rate_refill_per_ms, now_ms)
        if not bucket.allow(now_ms):
            self.obs.inc("backend.rate_limited")
            return BatchOutcome(status="busy",
                                retry_ms=bucket.retry_hint_ms())

        records, lines, truncated = parse_batch_lines(payload)
        admitted, delay_or_retry = self.load.admit(len(records), now_ms)
        if not admitted:
            self.obs.inc("backend.busy_rejections")
            # Refund the token: the batch was not served.
            bucket.tokens = min(bucket.capacity, bucket.tokens + 1.0)
            return BatchOutcome(status="busy", retry_ms=delay_or_retry)

        self._ingest(records)
        if truncated:
            self.obs.inc("backend.malformed_lines")
        self.obs.inc("backend.batches")
        self.obs.observe("backend.batch_records", len(records))
        self.obs.observe("backend.ingest_delay_ms", delay_or_retry)
        delay = delay_or_retry
        if self.store is None:
            remember(self._dedup, key, len(records))
        else:
            # WAL commit before the ACK: the batch is durable by the
            # time the uploader advances its cursor, and the fsync
            # cost is part of what the uploader waits out.  The engine
            # is the one writer of the shared dedup map.
            delay += self.store.log_batch(device_id, batch_seq,
                                          len(records), records,
                                          lines=lines)
        if self._on_records is not None and records:
            self._on_records(records)
        return BatchOutcome(status="ack", acked=len(records),
                            delay_ms=delay,
                            truncated=truncated, records=records)

    def reset_volatile(self) -> None:
        """Crash hook: state a dead process cannot carry over.  Token
        buckets and the load backlog die with the process; the rollup
        memtable and dedup map are owned by the store engine (which
        clears and recovers them) when one is attached, and are
        cleared here when the pipeline is RAM-only."""
        self._buckets.clear()
        self.load.reset()
        if self.store is None:
            self._dedup.clear()
            self.rollups.clear()

    # -- cluster dedup handoff ----------------------------------------

    def adopt_dedup(self, device_id: str, batch_seq: int,
                    acked: int) -> bool:
        """Seed one foreign batch identity into the dedup cache.

        The cluster coordinator calls this when a device re-homes
        here: identities the previous owner already ingested must be
        absorbed as duplicates when the uploader replays them, or the
        records would be counted twice in the global rollup.  The seed
        is made durable (an empty-batch WAL envelope) when a store is
        attached, so a crash of *this* node after the handoff still
        deduplicates the replay.  Returns False if the identity was
        already known."""
        key = (device_id, int(batch_seq))
        if key in self._dedup:
            self._dedup.move_to_end(key)
            return False
        if self.store is None:
            remember(self._dedup, key, int(acked))
        else:
            self.store.log_batch(device_id, int(batch_seq),
                                 int(acked), [], lines=[])
        return True

    def dedup_entries(self, device_id: str) -> List[Tuple[int, int]]:
        """``(batch_seq, acked)`` this pipeline remembers for one
        device, sorted -- the live side of a rebalance handoff."""
        return sorted((int(seq), int(acked))
                      for (device, seq), acked in self._dedup.items()
                      if device == device_id)

    # -- internals ----------------------------------------------------

    def _ingest(self, records: List[MeasurementRecord]) -> None:
        self.rollups.add_all(records)
        self.obs.inc("backend.records_ingested", len(records))
        self.obs.set_gauge("backend.rollup_groups",
                           self.rollups.group_count())


# -- shard-parallel offline ingest ------------------------------------------


def _balance_chunks(paths: List[str], workers: int) -> List[List[str]]:
    """Split shard files into at most ``workers`` chunks balanced by
    file size (greedy longest-processing-time).  Deterministic: ties
    break on the original path order, then the lowest chunk index."""
    sizes = []
    for index, path in enumerate(paths):
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        sizes.append((-size, index, path))
    chunks: List[List[str]] = [[] for _ in range(min(workers,
                                                     len(paths)))]
    loads = [0] * len(chunks)
    for negative_size, _index, path in sorted(sizes):
        target = loads.index(min(loads))
        chunks[target].append(path)
        loads[target] -= negative_size
    return [chunk for chunk in chunks if chunk]


#: A store as it crosses ``fork`` -- forked ingest's chunks and the
#: chaos runner's device worlds alike: the two record counters and
#: every table as one block payload, rows as keyed.
ShardPart = Tuple[int, int, Dict[str, bytes]]


def pack_shard_part(store: RollupStore) -> ShardPart:
    return (store.records, store.failure_records,
            {name: encode_block(sorted_rows(rows))
             for name, rows in store.tables.items()})


def fold_shard_part(merged: Optional[RollupStore],
                    config: RollupConfig, part: ShardPart
                    ) -> RollupStore:
    """One worker's part onto ``merged``: every table decoded and
    checked whole (``decode_block``; a ``ValueError`` leaves ``merged``
    as it was), then the first part adopted and any later one merged."""
    store = RollupStore(config=config)
    store.records, store.failure_records, blocks = part
    for name in store.tables:
        store.tables[name] = decode_block(blocks[name]).keyed()
    if merged is None:
        return store
    merged.merge(store)
    return merged


def _ingest_shard_chunk(task: Tuple[List[str], dict]
                        ) -> Tuple[float, ShardPart]:
    """Worker entry point: roll up one chunk of JSONL shard files and
    return its wall seconds and the store *packed*, so the gather and
    the serialisation happen in the worker and the parent receives
    eight byte strings instead of a pickled store.

    The store is built from the files alone -- never from inherited
    parent state -- and histogram merge is commutative, so scheduling
    and arrival order cannot perturb the digest.
    """
    paths, config_kwargs = task
    store = RollupStore(config=RollupConfig(**config_kwargs))
    started = time.time()
    for path in paths:
        store.add_all(iter_jsonl(path))
    part = pack_shard_part(store)
    return time.time() - started, part


def ingest_shard_files(paths: List[str],
                       config: Optional[RollupConfig] = None,
                       workers: int = 1,
                       obs: Optional[Observability] = None
                       ) -> RollupStore:
    """Roll up a sharded dataset with a worker pool and merge
    deterministically (same digest for any ``workers``).

    Shards are balanced into one chunk per worker by byte size; each
    worker returns its chunk's rollups as block payloads and the
    parent folds them in completion order (no barrier): the first
    part is adopted, the rest ``merge``d.  The gauges
    ``backend.ingest_worker_wall_ms`` and
    ``backend.ingest_merge_wall_ms`` split the run into its parallel
    and its serial part.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    config = config or RollupConfig()
    obs = obs or get_default()
    started = time.time()
    chunks = _balance_chunks(paths, workers) if workers > 1 else []
    worker_walls: List[float] = []
    merge_wall = 0.0
    if len(chunks) <= 1:
        # Single worker (or a single chunk): build the store directly,
        # no encode/decode round trip to pay for.
        merged = RollupStore(config=config)
        total = 0
        for path in paths:
            shard_start = time.time()
            total += merged.add_all(iter_jsonl(path))
            worker_walls.append(time.time() - shard_start)
        worker_walls = [sum(worker_walls)] if worker_walls else []
    else:
        tasks = [(chunk, config.to_dict()) for chunk in chunks]
        merged = None
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=len(tasks)) as pool:
            for wall, part in pool.imap_unordered(_ingest_shard_chunk,
                                                   tasks):
                fold_start = time.time()
                merged = fold_shard_part(merged, config, part)
                merge_wall += time.time() - fold_start
                worker_walls.append(wall)
        total = merged.records + merged.failure_records
    elapsed = time.time() - started
    obs.inc("backend.records_ingested", total)
    obs.set_gauge("backend.rollup_groups", merged.group_count())
    obs.set_gauge("backend.ingest_merge_wall_ms", merge_wall * 1000.0)
    for wall in worker_walls:
        obs.observe("backend.ingest_worker_wall_ms", wall * 1000.0)
    if elapsed > 0:
        obs.set_gauge("backend.ingest_records_per_sec",
                      total / elapsed)
    merged.meta.update({"workers": workers, "shards": len(paths)})
    return merged
