#!/usr/bin/env python
"""CI guards for the ingest, recovery and query paths.

Cheap, binary checks that would have caught regressions this repo
shipped (or could ship) and later had to fix.  They assert counts and
digests, plus two wall-clock bounds several times wider than their
noise (``replay``, ``cluster``); a speed is judged by paired runs of
the pipeline benchmark (``benchmarks/pipeline/README.md``), where its
spread is measured, not by a wall clock read once here:

* ``scaling``  -- shard-parallel ingest must digest byte-identically
  to serial ingest, and so must its two chunks folded in either
  arrival order (no wall is read: single runs gave 0.7x-1.6x on the
  same code; ``backend.ingest.w2_speedup`` is the measured row).
* ``replay``   -- with checkpoints enabled, crash-recovery replay
  work must be bounded by the checkpoint interval, not the run
  length: a 3x longer run must not replay 3x the records, and its
  recovery wall must stay within a small factor of the short run's.
* ``query``    -- zone-map pruning must earn its keep: dashboard
  panels answered through the pruned read path must serialise
  byte-identically to the same panels computed by full table scans,
  and -- a count, printed per panel kind -- each must read at most
  two blocks per segment of each table it asks a subject range of
  and the segment holds rows of (a subject's rows are one run of a
  segment; a window-first layout reads every block and fails this).  And, counts only, a block
  stays keyed as it is stored and builds its rows on demand: over
  the same pruned panels the readers split exactly the keys and build
  exactly the histograms of the rows they yield (none for asking
  again, none for ``verify()``), and a subject range is encoded once
  per panel, not once per segment.
* ``snapshot`` -- a dashboard refresh must not pay for the memtable:
  ``QueryEngine.snapshot()`` over a >= 5k-group memtable copies zero
  histograms (counted by object identity, no clock involved), the
  writer copies only rows it then touches, and the pinned view's
  panels serialise byte-identically before and after 1k more records
  are ingested.
* ``cluster``  -- the federated tier's merge must stay a small tax:
  ring-shard the dataset across 3 collectors, ingest each share, and
  the global ``merge_stores`` wall must be < 15% of the total ingest
  wall -- with the merged digest byte-identical to a single collector
  ingesting everything.

* ``encode``   -- a record is formatted, not dumped: 1,000 generated
  records through ``record_to_line``, ``encode_batch`` and
  ``append_records`` make no ``json.dumps`` call and build no dict,
  the batch equals the shard file's own bytes, and a record with a
  ``bool`` port makes exactly one of each per path (counts only).

* ``generate`` -- the campaign is set up once and draws without
  throwaway objects: a 3-shard inline run builds one ``Population``
  and one catalog, ``repro.sim.distributions`` constructs no
  ``random.Random``, and the shard files digest like
  ``Campaign.iter_records()`` and like the 2-worker dataset (counts
  and digests only).

* ``ack``      -- an ACK pays no bookkeeping twice: 1,000 batches
  through ``handle_batch`` into a store that checkpoints and flushes
  once call ``json.dumps`` in the engine only for the manifests (an
  envelope header is formatted; a device that is not a ``str`` dumps
  it, once), write the dedup map once a batch, and encode no key on
  its own when no key part holds a ``|`` or a ``\\`` (counts only).

That a widened schema puts no work on the older kinds' rollup path --
once two wall-clock A/Bs here -- is a count in tier-1
(``tests/test_backend.py::TestAddWorkPerKind``).

Run all (the default) or one by name::

    PYTHONPATH=src python tools/perf_guards.py \
        [scaling|replay|query|snapshot|cluster|encode|generate|ack]

Exit code 0 on pass, 1 on any guard failure.
"""

import contextlib
import json
import os
import sys
import tempfile
import time
from unittest import mock

SCALE = float(os.environ.get("MOPEYE_GUARD_SCALE", "0.02"))
SEED = 2016
CKPT_INTERVAL = 10_000


def _dataset(root):
    from repro.crowd import CampaignConfig, ShardedCampaign
    campaign = ShardedCampaign(
        config=CampaignConfig(scale=SCALE, seed=SEED),
        workers=2, shard_dir=os.path.join(root, "shards"))
    return campaign.run()


def _load_entries(dataset):
    """``(record, raw_line_bytes)`` pairs, what ``append_entries``
    takes from a transport that already holds the JSONL."""
    from repro.core.persist import iter_jsonl

    entries = []
    for path in dataset.paths:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        records = list(iter_jsonl(path))
        if len(records) != len(lines):
            raise ValueError("blank line in %s" % path)
        entries.extend(zip(records, lines))
    return entries


def _fail(message):
    print("GUARD FAIL: %s" % message)
    return 1


def guard_scaling(dataset):
    """1 worker vs 2 workers, and the two workers' parts folded in
    both arrival orders: one digest."""
    from repro.backend import RollupConfig, ingest_shard_files
    from repro.backend.ingest import (_balance_chunks, _ingest_shard_chunk,
                                      fold_shard_part)

    config = RollupConfig()
    serial = ingest_shard_files(dataset.paths, config=config, workers=1)
    parallel = ingest_shard_files(dataset.paths, config=config,
                                  workers=2)
    chunks = _balance_chunks(dataset.paths, 2)
    parts = [_ingest_shard_chunk((chunk, config.to_dict()))[1]
             for chunk in chunks]
    digests = {serial.digest(), parallel.digest()}
    for order in (parts, parts[::-1]):
        folded = None
        for part in order:
            folded = fold_shard_part(folded, config, part)
        digests.add(folded.digest())
    print("scaling: %d records, 1 worker, 2 workers and chunks %s "
          "folded in both orders -> digest %s"
          % (serial.records, [len(chunk) for chunk in chunks],
             serial.digest()[:12]))
    if len(digests) != 1:
        return _fail("worker count or arrival order changed the "
                     "rollup digest")
    return 0


def guard_replay(dataset):
    """Recovery replay work with checkpoints: bounded by the interval
    for any run length."""
    from repro.obs import Observability
    from repro.store import StoreConfig, StoreEngine

    entries = _load_entries(dataset)

    walls = []
    failures = 0
    for label, count in (("short", len(entries) // 3),
                         ("long", len(entries))):
        root = tempfile.mkdtemp(prefix="guard-replay-")
        engine = StoreEngine(
            os.path.join(root, "store"),
            config=StoreConfig(
                flush_threshold_records=None,
                checkpoint_interval_records=CKPT_INTERVAL),
            obs=Observability())
        engine.append_entries(entries[:count])
        engine.crash()
        start = time.perf_counter()
        info = engine.recover()
        wall = time.perf_counter() - start
        walls.append(wall)
        print("replay: %-5s run=%d records -> replayed %d "
              "(checkpoint %s) in %.2fs"
              % (label, count, info.wal_records,
                 info.checkpoint_loaded or "-", wall))
        if info.wal_records > CKPT_INTERVAL + 512:
            failures += _fail(
                "replayed %d records; checkpoints every %d should "
                "bound the tail" % (info.wal_records, CKPT_INTERVAL))
        engine.close()
    # Wall-clock bound with generous slack: the long run loads a
    # bigger checkpoint but must not replay proportionally more.
    if walls[1] > 3.0 * walls[0] + 1.0:
        failures += _fail(
            "recovery wall grew with run length (%.2fs -> %.2fs); "
            "replay is not bounded" % (walls[0], walls[1]))
    return failures


def _pruned_panel_key_work(engine, apps, operators):
    """Run the pruned panels on a fresh view (no block decoded yet)
    -- twice over, and then ``verify()`` on every segment -- with the
    key codec, the readers' batched reads and the blocks' row
    building counted: ``(keys split, rows the readers yielded, keys
    encoded, subject ranges asked, histograms built)`` for the first
    round, ``(histograms built by the second round, by verify)``.  No
    clock involved."""
    from repro.backend.rollups import MergeHist, _decode_key, _encode_key
    from repro.serve import QueryEngine
    from repro.serve import engine as serve_engine
    from repro.store import encoding, segments

    counts = {"split": 0, "encoded": 0, "yielded": 0, "asked": 0,
              "built": 0}
    scan_prefixes = segments.SegmentReader.scan_prefixes

    def counted(function, name):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    def counted_ask(function):
        def wrapper(view, table, subject):
            counts["asked"] += 1
            return function(view, table, subject)
        return wrapper

    def counted_scan(reader, table, ranges):
        for row in scan_prefixes(reader, table, ranges):
            counts["yielded"] += 1
            yield row

    patches = [
        (segments, "_decode_key", counted(_decode_key, "split")),
        (segments, "_encode_key", counted(_encode_key, "encoded")),
        (encoding, "MergeHist", counted(MergeHist, "built")),
        (segments.SegmentReader, "scan_prefixes", counted_scan),
        (serve_engine.ReadView, "scan_subject",
         counted_ask(serve_engine.ReadView.scan_subject)),
    ]
    with contextlib.ExitStack() as stack:
        for owner, name, replacement in patches:
            stack.enter_context(
                mock.patch.object(owner, name, replacement))
        view = stack.enter_context(QueryEngine(engine).snapshot())
        rounds = []
        for _round in range(2):
            for app in apps:
                view.app_panel(app)
            for operator in operators:
                view.network_panel(operator)
            rounds.append(dict(counts))
        for reader in view.readers:
            reader.verify()
    first, second = rounds
    return ((first["split"], first["yielded"], first["encoded"],
             first["asked"], first["built"]),
            (second["built"] - first["built"],
             counts["built"] - second["built"]))


#: Tables a pruned panel asks one subject range of (the fleet AoI an
#: app panel also shows folds the whole ``aoi`` table, once a view).
PANEL_TABLES = {"app": ("app", "app_throughput", "app_energy"),
                "network": ("network",)}


def guard_query(dataset):
    """Pruned dashboard panels: byte-identical to full scans, and a
    count of blocks -- each panel opens at most two blocks per segment
    of each table it asks a subject range of; keys split and
    histograms built only for rows that leave a reader, keys encoded
    once per panel."""
    from repro.obs import Observability
    from repro.serve import DashboardWorkload, QueryEngine, QueryError
    from repro.store import StoreConfig, StoreEngine

    entries = _load_entries(dataset)

    root = tempfile.mkdtemp(prefix="guard-query-")
    engine = StoreEngine(
        os.path.join(root, "store"),
        config=StoreConfig(
            flush_threshold_records=max(2_000, len(entries) // 5)),
        obs=Observability())
    engine.append_entries(entries)
    engine.flush()
    segments = len(engine.segment_names())
    view = QueryEngine(engine).snapshot()
    try:
        workload = DashboardWorkload(view, seed=SEED, panels=0)
        if segments < 2:
            return _fail("guard needs >= 2 segments, got %d"
                         % segments)
        try:
            verify = workload.verify_against_scan(sample=8)
        except QueryError as exc:
            return _fail("pruned panel diverged from its full scan: "
                         "%s" % exc)
        print("query: %d panels over %d segments -> pruned read %d "
              "blocks, scan read %d"
              % (verify["panels_checked"], segments,
                 verify["pruned_blocks_read"],
                 verify["scan_blocks_read"]))
        # The fleet AoI is now this view's: the panels below read
        # their subject ranges and nothing else.
        for kind, ask, subjects in (
                ("app", view.app_panel, workload._apps[:8]),
                ("network", view.network_panel,
                 workload._operators[:8])):
            # A range cannot open a block of a table the segment
            # holds no rows of.
            ranges = sum(bool(reader.blocks(table))
                         for reader in view.readers
                         for table in PANEL_TABLES[kind])
            allowed = 2 * ranges
            worst = 0
            for subject in subjects:
                before = view.stats.copy()
                ask(subject)
                worst = max(worst, view.stats.delta_since(
                    before).blocks_read)
            print("query: %s panel -> at most %d blocks read for %d "
                  "subject ranges (segments x tables holding rows; "
                  "allowed %d)" % (kind, worst, ranges, allowed))
            if worst > allowed:
                return _fail(
                    "a pruned %s panel read %d blocks; a subject's "
                    "rows are one run per segment and table, so at "
                    "most 2 x %d = %d"
                    % (kind, worst, ranges, allowed))
        (split, yielded, encoded, asked, built), (rebuilt, verified) = \
            _pruned_panel_key_work(
                engine, workload._apps[:8], workload._operators[:8])
        print("query: the same pruned panels -> %d keys split and %d "
              "histograms built for %d rows yielded, %d keys encoded "
              "for %d subject ranges asked; %d built by asking again, "
              "%d by verify() over every segment"
              % (split, built, yielded, encoded, asked, rebuilt,
                 verified))
        if built != yielded or rebuilt or verified:
            return _fail(
                "blocks built %d histograms for %d rows yielded, %d "
                "more for the same panels again and %d for verify(); "
                "a row is built when it first leaves a reader, once"
                % (built, yielded, rebuilt, verified))
        if split != yielded:
            return _fail(
                "readers split %d keys but yielded %d rows; a prefix "
                "scan must split only the rows it yields"
                % (split, yielded))
        if encoded > asked:
            return _fail(
                "%d keys encoded for %d subject ranges asked over %d "
                "segments; a panel encodes its range once, not once "
                "per segment" % (encoded, asked, segments))
    finally:
        view.close()
        engine.close()
    return 0


def guard_snapshot(dataset):
    """Snapshot under ingest, by counts: the view shares every
    memtable row with the live store (zero copies at snapshot time),
    ingest then replaces only rows it writes, and the view's panels
    do not move."""
    from repro.backend.rollups import RollupStore
    from repro.obs import Observability
    from repro.serve import DashboardWorkload, QueryEngine
    from repro.store import StoreConfig, StoreEngine

    entries = _load_entries(dataset)
    late = 1_000
    min_groups = 5_000

    with tempfile.TemporaryDirectory(prefix="guard-snapshot-") as root:
        engine = StoreEngine(
            root, config=StoreConfig(flush_threshold_records=None),
            obs=Observability())
        engine.append_entries(entries[:-late])
        groups = engine.memtable.group_count()
        view = QueryEngine(engine).snapshot()

        def copied():
            """Rows of the view the live memtable no longer shares."""
            return sum(
                engine.memtable.tables[table].get(key) is not row
                for table in RollupStore.TABLES
                for key, row in view.memtable.tables[table].items())

        def panels():
            return DashboardWorkload(view, seed=SEED,
                                     panels=64).run()["results_digest"]

        try:
            at_snapshot = copied()
            before = panels()
            engine.append_entries(entries[-late:])
            after_ingest = copied()
            after = panels()
        finally:
            view.close()
            engine.close()
    print("snapshot: %d groups in the memtable -> %d rows copied by "
          "the snapshot, %d by the %d records ingested after it"
          % (groups, at_snapshot, after_ingest, late))
    if groups < min_groups:
        return _fail("guard needs a memtable of >= %d groups, got %d"
                     % (min_groups, groups))
    if at_snapshot:
        return _fail("snapshot() copied %d of %d histograms; it "
                     "should share them all" % (at_snapshot, groups))
    if not 0 < after_ingest <= late * len(RollupStore.TABLES):
        return _fail("%d records copied %d rows; a writer copies a "
                     "shared row once, on its first write to it"
                     % (late, after_ingest))
    if before != after:
        return _fail("the pinned view's panels changed while records "
                     "were ingested under it")
    return 0


def guard_cluster(dataset):
    """Ring-sharded ingest over 3 nodes: global merge digest parity
    with a single collector, and the merge wall bounded."""
    from repro.backend import RollupConfig, ingest_shard_files
    from repro.cluster import HashRing, merge_stores, node_name

    nodes = 3
    ring = HashRing(nodes=[node_name(i) for i in range(nodes)])
    root = tempfile.mkdtemp(prefix="guard-cluster-")
    paths = {node_name(i): os.path.join(root,
                                        "%s.jsonl" % node_name(i))
             for i in range(nodes)}
    handles = {node: open(path, "wb")
               for node, path in paths.items()}
    homes = {}
    try:
        for path in dataset.paths:
            with open(path, "rb") as shard:
                for line in shard:
                    if not line.strip():
                        continue
                    device = json.loads(line)["device_id"]
                    home = homes.get(device)
                    if home is None:
                        home = homes[device] = ring.node_for(device)
                    handles[home].write(line)
    finally:
        for handle in handles.values():
            handle.close()

    node_walls = []
    stores = []
    for i in range(nodes):
        start = time.perf_counter()
        stores.append(ingest_shard_files(
            [paths[node_name(i)]], config=RollupConfig(), workers=1))
        node_walls.append(time.perf_counter() - start)
    start = time.perf_counter()
    merged = merge_stores(stores)
    merge_s = time.perf_counter() - start
    ingest_s = sum(node_walls)

    single = ingest_shard_files(dataset.paths, config=RollupConfig(),
                                workers=1)
    print("cluster: %d nodes ingested %s in %.2fs total, merge %.3fs "
          "(%.1f%% of ingest)"
          % (nodes,
             "/".join("%d" % s.records for s in stores),
             ingest_s, merge_s, 100.0 * merge_s / ingest_s))
    if merged.digest() != single.digest():
        return _fail("merged global rollup digest != single-collector "
                     "digest; the cluster tier perturbed the data")
    if merge_s >= 0.15 * ingest_s:
        return _fail("global merge took %.3fs against %.2fs of ingest "
                     "(>= 15%%); the merge tax regressed"
                     % (merge_s, ingest_s))
    return 0


def guard_encode(dataset):
    """A record is formatted, not dumped: 1,000 generated records
    through ``record_to_line``, ``encode_batch`` and ``append_records``
    build no dict and call no ``json.dumps``, their batch is the shard
    file's own bytes, and one record with a ``bool`` port -- which the
    formatter passes on -- makes exactly one of each."""
    from itertools import islice

    from repro.core import persist
    from repro.obs import Observability
    from repro.store import StoreEngine

    path = dataset.paths[0]
    records = list(islice(persist.iter_jsonl(path), 1000))
    with open(path, "rb") as handle:
        on_disk = b"".join(islice(handle, len(records)))

    def count(batch):
        with mock.patch.object(persist, "json", wraps=json) as used, \
                mock.patch.object(
                    persist, "_record_to_dict",
                    wraps=persist._record_to_dict) as to_dict, \
                tempfile.TemporaryDirectory(prefix="guard-enc-") as root:
            lines = "".join(persist.record_to_line(record) + "\n"
                            for record in batch).encode()
            same = lines == persist.encode_batch(batch)
            engine = StoreEngine(root, obs=Observability())
            engine.append_records(batch)
            engine.close()
            return used.dumps.call_count, to_dict.call_count, \
                lines, same

    dumps, dicts, lines, same = count(records)
    odd_dumps, odd_dicts, _lines, odd_same = count(
        [records[0]._replace(dst_port=True)])
    print("encode: %d records x 3 paths -> %d json.dumps, %d dicts "
          "built; one bool port x 3 paths -> %d and %d"
          % (len(records), dumps, dicts, odd_dumps, odd_dicts))
    if (dumps, dicts) != (0, 0):
        return _fail("an ordinary record was dumped, not formatted")
    if (odd_dumps, odd_dicts) != (3, 3):
        return _fail("a bool port must be dumped once per path")
    if not (same and odd_same and lines == on_disk):
        return _fail("encode_batch, the joined lines and the shard "
                     "file's bytes differ")
    return 0


def guard_generate(dataset):
    """The campaign is set up once a run and seeds no generator it
    then throws away: a 3-shard inline run of the guard dataset's
    config builds one population and one catalog, the distributions
    module constructs no ``Random`` at all, and the shards digest like
    ``Campaign.iter_records()`` -- and like the 2-worker dataset."""
    import hashlib
    import random

    from repro.core.persist import record_to_line
    from repro.crowd import (Campaign, CampaignConfig, Population,
                             ShardedCampaign)
    from repro.crowd import campaign as campaign_module
    from repro.sim import distributions

    config = CampaignConfig(scale=SCALE, seed=SEED)
    with mock.patch.object(Population, "__init__", autospec=True,
                           side_effect=Population.__init__
                           ) as populations, \
            mock.patch.object(campaign_module, "build_catalog",
                              wraps=campaign_module.build_catalog
                              ) as catalogs, \
            mock.patch.object(distributions, "random",
                              wraps=random) as seen, \
            tempfile.TemporaryDirectory(prefix="guard-gen-") as root:
        run = ShardedCampaign(config, workers=1, n_shards=3,
                              shard_dir=root).run()
        counts = (populations.call_count, catalogs.call_count,
                  seen.Random.call_count)
        sharded = run.digest()
    sha = hashlib.sha256()
    for record in Campaign(config=config).iter_records():
        sha.update((record_to_line(record) + "\n").encode())
    print("generate: %d records in 3 shards -> %d population, %d "
          "catalog, %d Random(0) built; digest %s"
          % ((run.total_records,) + counts + (sharded[:12],)))
    if counts != (1, 1, 0):
        return _fail("a run must build one population and one catalog "
                     "and seed no throwaway generator")
    if not sharded == sha.hexdigest() == dataset.digest():
        return _fail("shards, Campaign.iter_records() and the 2-worker "
                     "dataset digest differently")
    return 0


def guard_ack(dataset):
    """An ACK pays no bookkeeping twice: 1,000 batches of 1 to 5
    guard-dataset records through ``handle_batch``, into a store that
    checkpoints once and flushes once, call ``json.dumps`` in the
    engine only for its two manifests (an envelope header is
    formatted), write the shared dedup map once a batch, and encode no
    key on its own (no key part holds a ``|`` or a ``\\``); a batch
    from a device that is not a ``str`` dumps its header, once."""
    from collections import OrderedDict
    from itertools import islice

    from repro.backend.ingest import IngestPipeline
    from repro.core import persist
    from repro.obs import Observability
    from repro.store import StoreConfig, StoreEngine, segments
    from repro.store import engine as engine_module

    records = list(islice(persist.iter_jsonl(dataset.paths[0]), 3000))
    batches = []
    at = 0
    for i in range(1000):
        batch = records[at:at + 1 + i % 5]
        at += len(batch)
        batches.append((batch[0].device_id, i, persist.encode_batch(batch)))

    class CountedMap(OrderedDict):
        writes = 0

        def __setitem__(self, key, value):
            CountedMap.writes += 1
            super().__setitem__(key, value)

    def count(batches, config):
        CountedMap.writes = 0
        with mock.patch.object(engine_module, "json", wraps=json) as used, \
                mock.patch.object(
                    StoreEngine, "_write_manifest", autospec=True,
                    side_effect=StoreEngine._write_manifest) as manifests, \
                mock.patch.object(segments, "_encode_key",
                                  wraps=segments._encode_key) as encoded, \
                tempfile.TemporaryDirectory(prefix="guard-ack-") as root:
            obs = Observability()
            engine = StoreEngine(root, config=config, obs=obs)
            engine.dedup = CountedMap()
            pipeline = IngestPipeline(store=engine, obs=obs)
            for device, seq, payload in batches:
                pipeline.handle_batch(device, seq, payload, seq * 1000.0)
            engine.close()
            return (used.dumps.call_count - manifests.call_count,
                    manifests.call_count, CountedMap.writes,
                    encoded.call_count, obs.value("store.checkpoints"),
                    obs.value("store.flushes"))

    headers, manifests, writes, encoded, checkpoints, flushes = count(
        batches, StoreConfig(flush_threshold_records=2000,
                             checkpoint_interval_records=1200))
    odd = count([(7,) + batches[0][1:]], StoreConfig())
    print("ack: %d batches, %d checkpoint and %d flush -> %d json.dumps "
          "for headers (%d for manifests), %d dedup writes, %d keys "
          "encoded on their own; one int device -> %d json.dumps"
          % (len(batches), checkpoints, flushes, headers, manifests,
             writes, encoded, odd[0]))
    if (checkpoints, flushes) != (1, 1):
        return _fail("guard needs one checkpoint and one flush, got "
                     "%d and %d" % (checkpoints, flushes))
    if headers:
        return _fail("an envelope header of a str device was dumped, "
                     "not formatted")
    if odd[0] != 1:
        return _fail("a header of a device that is not a str must be "
                     "dumped exactly once")
    if writes != len(batches):
        return _fail("%d writes to the dedup map for %d batches; the "
                     "engine is its one writer" % (writes, len(batches)))
    if encoded:
        return _fail("%d keys without a | or a \\ were encoded one by "
                     "one; a table is checked whole" % encoded)
    return 0


GUARDS = {"scaling": guard_scaling, "replay": guard_replay,
          "query": guard_query, "snapshot": guard_snapshot,
          "cluster": guard_cluster, "encode": guard_encode,
          "generate": guard_generate, "ack": guard_ack}


def main(argv):
    which = argv[1] if len(argv) > 1 else "all"
    if which != "all" and which not in GUARDS:
        print("unknown guard %r; pick one of: all %s"
              % (which, " ".join(GUARDS)))
        return 1
    with tempfile.TemporaryDirectory(prefix="guard-data-") as root:
        dataset = _dataset(root)
        print("dataset: %d records in %d shards (scale %g)"
              % (dataset.total_records, len(dataset.paths), SCALE))
        failures = sum(guard(dataset) for name, guard in GUARDS.items()
                       if which in ("all", name))
    if failures:
        return 1
    print("perf guards: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
