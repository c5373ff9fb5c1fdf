"""The timed phases the four workloads are assembled from.

Every phase takes the run's :class:`Context`, times with
``time.perf_counter`` inside ``ctx.timed()`` -- a stretch between two
ticks of the host's reference kernel (see :mod:`.host`), which is also
where the tracer's harness span opens -- and hands its latencies,
rescaled to the nominal host, to ``ctx.rec`` as one *repetition*: a
list aligned by operation, so the same batch or panel can be compared
across repetitions.  Loops are cut into slices of a few milliseconds,
one stretch each, so the ticks follow the host's changes of speed.  A
phase also adds counts to the current pass, and tallies each operation
-- a batch, a panel, a recovery, a merge, a state check -- as
attempted, and as failed when its output is wrong.  Correctness checks
run outside the timed regions; the expensive ones (state digests, scan
recomputation) only while ``ctx.checking`` holds, which is during a
run's first pass: every pass feeds the program the same inputs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.backend import ingest as ingest_layer
from repro.backend.ingest import IngestPipeline
from repro.backend.rollups import RollupStore
from repro.cluster import merge as merge_layer
from repro.obs import Observability
from repro.serve.engine import QueryEngine, ReadView
from repro.store.engine import StoreConfig, StoreEngine

from benchmarks.pipeline.dataset import Batch, Dataset, Panel
from benchmarks.pipeline.host import Host, Stretch
from benchmarks.pipeline.trace import Tracer

#: Replay every Nth batch once, right after its ACK (the dedup path).
REPLAY_EVERY = 50
#: ``now_ms`` advance per batch: slow enough that no token bucket
#: ever answers BUSY.
BATCH_INTERVAL_MS = 1000.0
#: Batches per timed stretch of an upload loop; serve_while_ingest
#: refreshes its dashboard between two stretches ...
UPLOAD_SLICE = 40
#: ... asking this many panels of the fresh snapshot.
SERVE_PANELS = 4
#: Fit-cache panels per timed stretch (a tight-cache panel costs tens
#: of milliseconds and gets a stretch of its own).
PANEL_SLICE = 8
#: The tight phase's cache holds this share of the bytes the fit phase
#: filled.  A decoded block weighs 30-40 kB at this scale; a third of
#: the footprint on a one-segment store is three or four of them, and
#: whether a repeated subject finds its block among those is the luck
#: of the shuffle (hit rate 0.19-0.40 from seed to seed, the phase's
#: latency +-25 %).  An eighth holds one or two: the phase misses on
#: every seed.
TIGHT_CACHE_SHARE = 1 / 8
#: bulk_offline times its headline ingest this often per pass.
INGEST_REPETITIONS = 2
#: ``append_records`` calls a bulk load is cut into.
LOAD_CHUNKS = 16
#: An ACK slower than this is a stall (a flush or checkpoint rode it):
#: the issue's 50 ms at 134 k records, brought down with the dataset.
STALL_MS = 10.0
#: Late uploads use batch identities no earlier phase has used.
LATE_SEQ_OFFSET = 1_000_000

#: Counters of the program's own registry that are read per pass.
OBS_COUNTERS = (
    "backend.batches", "backend.duplicate_batches",
    "backend.rate_limited", "backend.busy_rejections",
    "store.wal_fsyncs", "store.wal_bytes", "store.flushes",
    "store.segment_flush_bytes", "store.checkpoints",
    "store.checkpoint_bytes", "store.compactions",
    "store.wal_replayed_records", "store.cache.evictions",
)


class Pass:
    """What one pass counted, and its timed seconds on the nominal
    host."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.wall = 0.0


class Recorder:
    """Everything a run measured.

    ``reps[name]`` holds one list per repetition of a timed phase,
    aligned by operation: entry *i* of every repetition timed the
    same batch, panel or snapshot."""

    def __init__(self) -> None:
        self.reps: Dict[str, List[List[float]]] = {}
        self.passes: List[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def begin_pass(self) -> None:
        self.passes.append(Pass())

    def repetition(self, name: str, values: List[float]) -> None:
        self.reps.setdefault(name, []).append(values)

    def ops(self, attempted: int, failed: int = 0,
            what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def op(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


class Context:
    """What one workload run shares between its phases."""

    def __init__(self, dataset: Dataset, reference: RollupStore,
                 reference_digest: str, stream: List[Panel],
                 workdir: str, tracer: Tracer, host: Host) -> None:
        self.ds = dataset
        self.reference = reference
        self.reference_digest = reference_digest
        self.stream = stream
        self.workdir = workdir
        self.tracer = tracer
        self.host = host
        self.rec = Recorder()
        #: Whether this pass pays for the expensive checks.
        self.checking = True
        self._dirs = 0

    @contextlib.contextmanager
    def timed(self, sampled: bool = False) -> Iterator[Stretch]:
        """One timed stretch of the current pass, its bracketing ticks
        outside the tracer's harness span.  Ask for a ``sampled`` one
        around a single long call."""
        with self.host.stretch(sampled) as stretch, \
                self.tracer.timed(stretch):
            yield stretch
        self.rec.passes[-1].wall += stretch.seconds

    def count(self, name: str, value: float) -> None:
        counts = self.rec.passes[-1].counts
        counts[name] = counts.get(name, 0.0) + value

    @contextlib.contextmanager
    def counting(self, obs: Observability) -> Iterator[None]:
        """Credit what the program's own counters gain inside the
        block to the current pass."""
        before = [obs.value(name) for name in OBS_COUNTERS]
        try:
            yield
        finally:
            for name, start in zip(OBS_COUNTERS, before):
                self.count(name, obs.value(name) - start)

    @contextlib.contextmanager
    def discarding(self) -> Iterator[None]:
        """Run the block for its side effects only: what it records
        is thrown away (the warm-up)."""
        kept, self.rec = self.rec, Recorder()
        self.rec.begin_pass()
        try:
            yield
        finally:
            self.rec = kept

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir,
                            "%s-%03d" % (label, self._dirs))
        os.makedirs(path)
        return path

    def check_state(self, engine: StoreEngine, expected: str,
                    what: str) -> None:
        """One operation: the engine's whole state, rebuilt from disk
        plus memtable, must digest equal to ``expected``."""
        self.rec.op(engine.materialize().digest() == expected,
                    "%s: store digest differs from the reference"
                    % what)


def open_store(ctx: Context, label: str, flush_records: Optional[int],
               checkpoint_records: Optional[int] = None
               ) -> StoreEngine:
    """A fresh durable store with its own metrics registry, so the
    program's counters start from zero."""
    return StoreEngine(
        ctx.fresh_dir(label),
        config=StoreConfig(
            flush_threshold_records=flush_records,
            checkpoint_interval_records=checkpoint_records),
        obs=Observability())


def discard_store(engine: Optional[StoreEngine]) -> None:
    if engine is not None:
        engine.close()
        shutil.rmtree(engine.data_dir, ignore_errors=True)


# -- uploads ----------------------------------------------------------------


def upload(ctx: Context, engine: StoreEngine, batches: List[Batch],
           seq_offset: int = 0,
           serving: Optional["Serving"] = None) -> float:
    """The closed upload loop: one client, each batch sent when the
    previous ACK is in, ``UPLOAD_SLICE`` batches to a timed stretch.
    Returns the loop's seconds on the nominal host, refreshes of the
    ``serving`` dashboard included."""
    rec = ctx.rec
    tracer = ctx.tracer
    host = ctx.host
    handle = IngestPipeline(store=engine, obs=engine.obs).handle_batch
    clock = time.perf_counter
    ack_ms: List[float] = []
    unacked = 0
    unabsorbed = 0
    now_ms = 0.0
    before = rec.passes[-1].wall
    gc.collect()
    with ctx.counting(engine.obs):
        for start in range(0, len(batches), UPLOAD_SLICE):
            acks: List[Tuple[float, int]] = []
            with ctx.timed() as stretch:
                for index in range(start, min(start + UPLOAD_SLICE,
                                              len(batches))):
                    device, seq, payload, lines = batches[index]
                    tracer.op = index
                    seq += seq_offset
                    synced = host.fsyncs
                    sent = clock()
                    outcome = handle(device, seq, payload, now_ms)
                    acks.append((clock() - sent, host.fsyncs - synced))
                    if outcome.status != "ack" \
                            or outcome.acked != lines \
                            or outcome.duplicate:
                        unacked += 1
                    now_ms += BATCH_INTERVAL_MS
                    if index % REPLAY_EVERY == REPLAY_EVERY - 1:
                        replay = handle(device, seq, payload, now_ms)
                        if replay.status != "ack" \
                                or replay.acked != lines \
                                or not replay.duplicate:
                            unabsorbed += 1
            ack_ms.extend(stretch.scaled(raw, fsyncs) * 1000.0
                          for raw, fsyncs in acks)
            if serving is not None:
                serving.refresh()
    tracer.op = None
    rec.ops(len(batches), unacked, "batches not ACKed in full")
    rec.ops(len(batches) // REPLAY_EVERY, unabsorbed,
            "replays not absorbed as duplicates")
    wall = rec.passes[-1].wall - before
    if serving is not None:
        serving.record()
    rec.repetition("ack_ms", ack_ms)
    rec.repetition("stall_share", [
        sum(ms for ms in ack_ms if ms > STALL_MS) / 1000.0 / wall])
    uploaded = sum(lines for _d, _s, _p, lines in batches)
    for name in ("records_uploaded", "records_logged",
                 "records_stored"):
        ctx.count(name, uploaded)
    return wall


def late_uploads(ctx: Context, engine: StoreEngine, count: int) -> None:
    """Devices upload about ``count`` more batches, evenly spaced
    through the dataset's, into an already loaded store: the ACK path
    when the bulk of the data arrived another way.  The store must
    then hold the reference plus exactly those records."""
    step = max(1, len(ctx.ds.batches) // count)
    upload(ctx, engine, ctx.ds.batches[::step],
           seq_offset=LATE_SEQ_OFFSET)
    if ctx.checking:
        expected = ctx.reference.clone()
        for records in ctx.ds.batch_records[::step]:
            expected.add_all(records)
        ctx.check_state(engine, expected.digest(), "late uploads")


def load(ctx: Context, engine: StoreEngine) -> float:
    """The whole dataset through ``append_records``, ``LOAD_CHUNKS``
    calls of one timed stretch each, then a flush.  Returns the
    seconds it took."""
    records = ctx.ds.records
    size = -(-len(records) // LOAD_CHUNKS)
    before = ctx.rec.passes[-1].wall
    gc.collect()
    with ctx.counting(engine.obs):
        for start in range(0, len(records), size):
            with ctx.timed():
                engine.append_records(records[start:start + size])
        with ctx.timed(sampled=True):
            engine.flush()
    ctx.count("records_logged", len(records))
    ctx.count("records_stored", len(records))
    return ctx.rec.passes[-1].wall - before


# -- recovery and disk ------------------------------------------------------


def recoveries(ctx: Context, engine: StoreEngine,
               repetitions: int) -> None:
    """``crash()`` then a timed ``recover()``, ``repetitions`` times.
    A checking pass digests the first and the last recovered state
    against the reference (a digest costs more than a recovery)."""
    for index in range(repetitions):
        engine.crash()
        gc.collect()
        with ctx.counting(engine.obs), \
                ctx.timed(sampled=True) as stretch:
            engine.recover()
        ctx.rec.repetition("recover_s", [stretch.seconds])
        ctx.count("recoveries", 1)
        if ctx.checking and index in (0, repetitions - 1):
            ctx.check_state(engine, ctx.reference_digest, "recover()")
        else:
            ctx.rec.ops(1)


def weigh(ctx: Context, engine: StoreEngine) -> None:
    """Flush what the memtable still holds, then weigh the directory
    and, on a checking pass, digest the state the run ends with."""
    with ctx.counting(engine.obs), ctx.timed(sampled=True):
        engine.flush()
    ctx.rec.repetition("disk_bytes_per_record",
                       [engine.disk_bytes() / ctx.ds.n])
    if ctx.checking:
        ctx.check_state(engine, ctx.reference_digest, "after the run")


# -- reads ------------------------------------------------------------------


def ask(view: ReadView, panel: Panel, scan: bool = False) -> dict:
    kind, subject = panel
    if kind == "app":
        return view.app_panel(subject, scan=scan)
    return view.network_panel(subject, scan=scan)


def _canonical(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True,
                      separators=(",", ":")).encode()


def _digest(results: List[dict]) -> str:
    sha = hashlib.sha256()
    for result in results:
        sha.update(_canonical(result))
    return sha.hexdigest()


def scan_parity(ctx: Context, view: ReadView,
                answered: List[Tuple[Panel, dict]]) -> None:
    """One operation per panel: its full-scan recomputation on
    ``view`` must serialise byte-identically to the pruned answer."""
    for panel, result in answered:
        ctx.rec.op(
            _canonical(ask(view, panel, scan=True))
            == _canonical(result),
            "panel %s:%s differs from its scan" % panel)


def _count_reads(ctx: Context, phase: str, view: ReadView,
                 before, panels: int) -> None:
    delta = view.stats.delta_since(before)
    ctx.count(phase + ".panels", panels)
    ctx.count(phase + ".blocks_read", delta.blocks_read)
    ctx.count(phase + ".blocks_pruned", delta.blocks_pruned)
    ctx.count(phase + ".cache_hits", delta.cache_hits)
    ctx.count(phase + ".cache_misses", delta.cache_misses)


def record_panels(ctx: Context, phase: str, panels: List[Panel],
                  latencies: List[float]) -> None:
    """One repetition of ``<phase>_ms``, and one per panel kind."""
    in_ms = [latency * 1000.0 for latency in latencies]
    ctx.rec.repetition(phase + "_ms", in_ms)
    for kind in ("app", "network"):
        ctx.rec.repetition("%s_ms.%s" % (phase, kind), [
            ms for (asked, _subject), ms in zip(panels, in_ms)
            if asked == kind])


def panel_pass(ctx: Context, queries: QueryEngine, panels: List[Panel],
               phase: Optional[str], slice_panels: int = PANEL_SLICE,
               checker: Optional[QueryEngine] = None,
               parity: int = 0) -> List[dict]:
    """One dashboard refresh: a fresh snapshot, then ``panels`` in
    turn, ``slice_panels`` to a timed stretch.  Latencies land under
    ``<phase>_ms`` (``None``: untimed, to fill the cache).  On a
    checking pass ``parity`` evenly spaced panels are then recomputed
    by scan, through ``checker`` so the measured cache sees none of
    it.  Returns the results."""
    tracer = ctx.tracer
    clock = time.perf_counter
    latencies: List[float] = []
    results: List[dict] = []
    gc.collect()
    with queries.snapshot() as view:
        before = view.stats.copy()
        for start in range(0, len(panels), slice_panels):
            raw: List[float] = []
            with ctx.timed() if phase else contextlib.nullcontext() \
                    as stretch:
                for index in range(start, min(start + slice_panels,
                                              len(panels))):
                    tracer.op = index
                    asked = clock()
                    results.append(ask(view, panels[index]))
                    raw.append(clock() - asked)
            if phase:
                latencies.extend(stretch.scaled(seconds)
                                 for seconds in raw)
        tracer.op = None
        if phase:
            record_panels(ctx, phase, panels, latencies)
            ctx.rec.ops(len(panels))
            _count_reads(ctx, phase, view, before, len(panels))
    if parity and ctx.checking:
        step = max(1, len(panels) // parity)
        sample = list(zip(panels, results))[::step][:parity]
        with checker.snapshot() as view:
            scan_parity(ctx, view, sample)
    return results


def snapshots(ctx: Context, queries: QueryEngine, count: int) -> None:
    """``count`` snapshot()/close() cycles in one timed stretch, the
    snapshot of each timed on its own."""
    clock = time.perf_counter
    raw: List[float] = []
    with ctx.timed() as stretch:
        for _ in range(count):
            started = clock()
            view = queries.snapshot()
            raw.append(clock() - started)
            view.close()
    if raw:
        ctx.rec.repetition("snapshot_ms", [
            stretch.scaled(seconds) * 1000.0 for seconds in raw])


class Dashboard:
    """The dashboard against a quiescent store.  Creating it asks the
    first ``fit_panels`` of the stream once, untimed: that fills the
    default cache, which holds every block the stream touches."""

    def __init__(self, ctx: Context, engine: StoreEngine,
                 fit_panels: int, tight_panels: int) -> None:
        self.ctx = ctx
        self.engine = engine
        self.queries = QueryEngine(engine, obs=Observability())
        #: Scan recomputations go through a cache of their own, so
        #: the measured one sees none of them.
        self.checker = QueryEngine(engine, obs=Observability())
        self.stream = ctx.stream[:fit_panels]
        self.tight_stream = self.stream[:tight_panels]
        results = panel_pass(ctx, self.queries, self.stream, None)
        self.expected = _digest(results[:tight_panels])
        self.tight_bytes = int(self.queries.cache.bytes_used()
                               * TIGHT_CACHE_SHARE)

    def read(self, fit_repetitions: int, tight_repetitions: int,
             parity: int, snapshot_cycles: int) -> None:
        """The **fit** phase times the stream ``fit_repetitions``
        times, each followed by ``snapshot_cycles`` snapshots.  The
        **tight** phase asks the first ``tight_panels`` again,
        ``tight_repetitions`` times, each through a fresh cache of
        ``TIGHT_CACHE_SHARE`` of what the fit phase filled -- the
        phase that genuinely misses.  The run fails as mis-sized unless the tight phase
        evicts and hits under half the time, and as wrong if it
        answers differently from the fit phase."""
        ctx = self.ctx
        for repetition in range(fit_repetitions):
            panel_pass(ctx, self.queries, self.stream, "panel",
                       PANEL_SLICE, self.checker,
                       0 if repetition else parity)
            snapshots(ctx, self.queries, snapshot_cycles)
        for repetition in range(tight_repetitions):
            tight = QueryEngine(self.engine,
                                cache_bytes=self.tight_bytes,
                                obs=Observability())
            with ctx.counting(tight.obs):
                again = panel_pass(ctx, tight, self.tight_stream,
                                   "panel_tight", 1, self.checker,
                                   0 if repetition else parity)
            ctx.rec.op(_digest(again) == self.expected,
                       "tight-cache results differ from fit-cache "
                       "results")
            hits = tight.obs.value("store.cache.hits")
            hit_rate = hits / (hits
                               + tight.obs.value("store.cache.misses"))
            evictions = tight.obs.value("store.cache.evictions")
            ctx.rec.op(evictions > 0 and hit_rate < 0.5,
                       "tight phase mis-sized: %d evictions, hit rate "
                       "%.2f" % (evictions, hit_rate))
        ctx.count("tight.cache_bytes", tight.cache.bytes_used())


class Serving:
    """serve_while_ingest's reader: between two stretches of the
    upload loop, compact if due, take a snapshot, ask ``SERVE_PANELS``
    panels of it and let it go.  On a checking pass every tenth
    snapshot checks its last panel against the scan."""

    def __init__(self, ctx: Context, engine: StoreEngine) -> None:
        self.ctx = ctx
        self.engine = engine
        self.queries = QueryEngine(engine, obs=engine.obs)
        self.asked: List[Panel] = []
        self.panel_s: List[float] = []
        self.snapshot_ms: List[float] = []

    def refresh(self) -> None:
        ctx = self.ctx
        clock = time.perf_counter
        with ctx.timed(sampled=True):
            self.engine.compact()
        with ctx.timed() as stretch:
            view = self.queries.snapshot()
        self.snapshot_ms.append(stretch.seconds * 1000.0)
        with view:
            before = view.stats.copy()
            raw: List[float] = []
            with ctx.timed() as stretch:
                for _ in range(SERVE_PANELS):
                    panel = ctx.stream[len(self.asked)
                                       % len(ctx.stream)]
                    self.asked.append(panel)
                    asked = clock()
                    result = ask(view, panel)
                    raw.append(clock() - asked)
            self.panel_s.extend(stretch.scaled(seconds)
                                for seconds in raw)
            ctx.rec.ops(SERVE_PANELS)
            _count_reads(ctx, "panel", view, before, SERVE_PANELS)
            if ctx.checking and len(self.snapshot_ms) % 10 == 1:
                scan_parity(ctx, view, [(panel, result)])

    def record(self) -> None:
        """The pass's reads as repetitions: the k-th snapshot, and the
        k-th panel, meet the same store state in every pass."""
        self.ctx.rec.repetition("snapshot_ms", self.snapshot_ms)
        record_panels(self.ctx, "panel", self.asked, self.panel_s)


# -- offline ingest ---------------------------------------------------------


def bulk_ingest(ctx: Context, node_paths: List[str]) -> RollupStore:
    """``ingest_shard_files`` three ways over the same records: one
    worker (the headline, ``INGEST_REPETITIONS`` times), two forked
    workers, and a four-node ring split ingested node by node and
    folded with ``merge_stores``.  A checking pass digests all three
    against the reference."""
    rec = ctx.rec
    ds = ctx.ds
    obs = Observability()
    serial: List[float] = []
    for _ in range(INGEST_REPETITIONS):
        gc.collect()
        with ctx.timed(sampled=True) as single:
            one = ingest_layer.ingest_shard_files(ds.shard_paths,
                                                  workers=1, obs=obs)
        serial.append(single.seconds)
        rec.repetition("s_per_record", [single.seconds / ds.n])
    with ctx.timed() as forked:
        two = ingest_layer.ingest_shard_files(ds.shard_paths,
                                              workers=2, obs=obs)
    rec.repetition("w2_speedup",
                   [statistics.median(serial) / forked.seconds])
    # The program's own reading of its fold, by the wall clock.
    rec.repetition("shardmerge_s", [forked.scaled(
        obs.value("backend.ingest_merge_wall_ms") / 1000.0)])
    with ctx.timed(sampled=True) as nodes:
        stores = [ingest_layer.ingest_shard_files([path], workers=1,
                                                  obs=obs)
                  for path in node_paths]
    with ctx.timed(sampled=True) as fold:
        merged = merge_layer.merge_stores(stores)
    rec.repetition("cluster_merge_s", [fold.seconds])
    rec.repetition("cluster_merge_tax", [fold.seconds / nodes.seconds])
    same = one.records == two.records == merged.records \
        == ctx.reference.records
    if ctx.checking:
        same = same and one.digest() == two.digest() \
            == merged.digest() == ctx.reference_digest
    rec.ops(2 + INGEST_REPETITIONS + len(node_paths))
    rec.op(same, "workers=1, workers=2 and the ring merge disagree")
    return merged
