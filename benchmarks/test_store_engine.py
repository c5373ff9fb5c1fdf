"""Storage engine: WAL write cost, checkpoint-bounded recovery, and
segment compression against the canonical JSON snapshot.

Generates the synthetic crowdsourcing dataset once, then drives the
records through three measurements:

* ingest throughput into a bare ``RollupStore`` (no WAL) versus the
  ``StoreEngine`` write path -- the durability tax in real wall-clock
  terms.  The engine path uses ``append_entries`` with the shard
  files' raw line bytes (what a real ingest holds), so the WAL cost
  measured is framing + group commit + fsync, not redundant
  re-serialisation;
* crash-recovery replay time as a function of run length (25%, 50%,
  100% of the dataset) **with checkpoints enabled** -- the tail
  replayed must stay bounded by the checkpoint interval while the run
  grows 4x -- plus the same full-length recovery without checkpoints
  as the before/after contrast;
* segment bytes versus the canonical JSON snapshot of the same
  rollups, with the read-path queries asserted identical -- the
  compression must not cost fidelity.

Scale knobs for quick local runs:

    MOPEYE_STORE_BENCH_SCALE=0.02 MOPEYE_STORE_BENCH_WORKERS=2 \
        PYTHONPATH=src python -m pytest benchmarks/test_store_engine.py
"""

import json
import os
import time

from repro.backend import query as backend_query
from repro.backend.rollups import RollupStore
from repro.crowd import CampaignConfig, ShardedCampaign
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine

SCALE = float(os.environ.get("MOPEYE_STORE_BENCH_SCALE", "0.1"))
WORKERS = int(os.environ.get("MOPEYE_STORE_BENCH_WORKERS", "4"))
SEED = 2016
#: Checkpoint cadence for the bounded-replay measurement.
CKPT_INTERVAL = 50_000
# The acceptance line (>= 3x) is proven at campaign scale; tiny local
# runs have proportionally larger fixed overheads.
MIN_RATIO = 3.0 if SCALE >= 0.1 else 2.5


def _engine(root, name, **config):
    config.setdefault("flush_threshold_records", None)
    return StoreEngine(os.path.join(root, name),
                       config=StoreConfig(**config),
                       obs=Observability())


def _timed_recovery(engine):
    engine.crash()
    start = time.perf_counter()
    info = engine.recover()
    return info, time.perf_counter() - start


def test_store_wal_recovery_and_compression(tmp_path, benchmark):
    from benchmarks._common import (
        RESULTS_DIR,
        load_entries,
        save_result,
    )
    from repro.analysis import format_table

    campaign = ShardedCampaign(
        config=CampaignConfig(scale=SCALE, seed=SEED),
        workers=WORKERS, shard_dir=str(tmp_path / "shards"))
    dataset = campaign.run()
    entries = load_entries(dataset.paths)
    records = [record for record, _line in entries]

    # -- ingest throughput, bare store vs WAL-backed engine ----------
    bare = RollupStore()
    start = time.perf_counter()
    bare.add_all(records)
    bare_s = time.perf_counter() - start

    box = {}

    def wal_run():
        engine = _engine(str(tmp_path), "full")
        start = time.perf_counter()
        engine.append_entries(entries)
        box["engine"], box["elapsed"] = \
            engine, time.perf_counter() - start

    benchmark.pedantic(wal_run, rounds=1, iterations=1)
    engine, wal_s = box["engine"], box["elapsed"]
    wal_bytes = engine.wal_bytes()

    # -- recovery replay vs run length, checkpoints on ---------------
    replay_rows = []
    for fraction in (0.25, 0.5, 1.0):
        count = max(1, int(len(entries) * fraction))
        subject = _engine(str(tmp_path), "ckpt-%d" % (fraction * 100),
                          checkpoint_interval_records=CKPT_INTERVAL)
        subject.append_entries(entries[:count])
        info, replay_s = _timed_recovery(subject)
        reference = RollupStore()
        reference.add_all(records[:count])
        assert subject.memtable.digest() == reference.digest()
        replay_rows.append({
            "fraction": fraction,
            "records": count,
            "wal_bytes": subject.wal_bytes(),
            "replay_s": round(replay_s, 3),
            "wal_records_replayed": info.wal_records,
            "checkpoint_records": info.checkpoint_records,
            "checkpoint_loaded": info.checkpoint_loaded,
        })
        subject.close()

    # The before/after contrast: the same full-length recovery with no
    # checkpoint replays every record.
    info, nockpt_replay_s = _timed_recovery(engine)
    assert info.wal_records == len(records)
    reference = RollupStore()
    reference.add_all(records)
    recovered_digest = engine.memtable.digest()
    assert recovered_digest == reference.digest()

    # -- segment compression vs canonical JSON -----------------------
    engine.flush()
    segment_bytes = sum(reader.size_bytes()
                        for reader in engine.segment_readers())
    materialized = engine.materialize()
    json_bytes = len(materialized.to_json())
    ratio = json_bytes / segment_bytes if segment_bytes else 0.0
    # Identical read-path queries over segments vs in-memory rollups.
    for view in (backend_query.summary, backend_query.apps,
                 backend_query.networks, backend_query.windows):
        got = json.dumps(view(materialized), sort_keys=True,
                         default=str)
        want = json.dumps(view(reference), sort_keys=True, default=str)
        assert got == want, view.__name__

    bare_rate = len(records) / bare_s if bare_s else 0.0
    wal_rate = len(records) / wal_s if wal_s else 0.0
    full_replay = replay_rows[-1]
    text = format_table(
        ["Path", "Records", "Wall (s)", "Records/s", "Bytes"],
        [["rollup only (no WAL)", len(records), "%.2f" % bare_s,
          "%.0f" % bare_rate, "-"],
         ["engine (WAL + commit)", len(records), "%.2f" % wal_s,
          "%.0f" % wal_rate, wal_bytes],
         ["segment (flushed)", materialized.records, "-", "-",
          segment_bytes],
         ["JSON snapshot", materialized.records, "-", "-",
          json_bytes]],
        title="Store engine, scale=%g: WAL tax %.2fx, checkpointed "
              "recovery replays %d of %d records in %.2fs (full "
              "replay: %.2fs), segment %.2fx smaller than JSON." % (
                  SCALE, wal_s / bare_s if bare_s else 0.0,
                  full_replay["wal_records_replayed"],
                  full_replay["records"], full_replay["replay_s"],
                  nockpt_replay_s, ratio))
    save_result("store_engine", text)

    payload = {
        "benchmark": "store_engine",
        "scale": SCALE,
        "records": len(records),
        "ingest_no_wal_s": round(bare_s, 3),
        "ingest_no_wal_records_per_s": round(bare_rate, 1),
        "ingest_wal_s": round(wal_s, 3),
        "ingest_wal_records_per_s": round(wal_rate, 1),
        "wal_tax": round(wal_s / bare_s, 3) if bare_s else None,
        "wal_bytes": wal_bytes,
        "checkpoint_interval_records": CKPT_INTERVAL,
        "replay": replay_rows,
        "replay_full_no_checkpoint_s": round(nockpt_replay_s, 3),
        "segment_bytes": segment_bytes,
        "json_bytes": json_bytes,
        "compression_ratio": round(ratio, 3),
        "digest": recovered_digest,
        "recovery_digest_matches": True,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_store.json"),
              "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    engine.close()

    # Replay work is bounded by the checkpoint interval (plus one
    # group-commit envelope), not the run length -- the 4x run must
    # not replay 4x the records.
    for row in replay_rows:
        if row["records"] > CKPT_INTERVAL:
            assert row["wal_records_replayed"] <= CKPT_INTERVAL + 512
            assert row["checkpoint_loaded"] is not None
    assert json_bytes >= MIN_RATIO * segment_bytes, \
        "segment encoding only %.2fx smaller than JSON " \
        "(need >= %.1fx at scale %g)" % (ratio, MIN_RATIO, SCALE)
