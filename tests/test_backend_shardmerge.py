"""Shard-parallel merge path: packed transfer, arrival-order
invariance, and end-to-end worker parity for ``ingest_shard_files``."""

import pytest

from repro.backend.ingest import _balance_chunks, ingest_shard_files
from repro.backend.rollups import RollupConfig, RollupStore
from repro.backend.shardmerge import MergeAccumulator, pack_store
from repro.core import save_jsonl_shards
from repro.core.records import MeasurementRecord


def _rec(i, device="dev-1"):
    day = 24 * 3600 * 1000.0
    return MeasurementRecord(
        kind="TCP", rtt_ms=15.0 + (i % 40), timestamp_ms=i * day,
        app_package="com.app.%d" % (i % 4), app_uid=10001,
        dst_ip="203.0.113.1", dst_port=443,
        domain="d%d.example" % (i % 3),
        network_type="LTE" if i % 3 == 0 else "WIFI",
        operator="Op%d" % (i % 2), country="US", device_id=device,
        failure="timeout" if i % 17 == 0 else None)


def _partitions(n=400, parts=4):
    """Disjoint record sets with overlapping rollup groups -- the
    shape a chunked shard ingest produces."""
    records = [_rec(i, device="dev-%d" % (i % 7)) for i in range(n)]
    return [records[p::parts] for p in range(parts)]


def _store(records):
    store = RollupStore()
    store.add_all(records)
    return store


class TestAccumulator:
    def test_pack_roundtrip_matches_serial_merge(self):
        parts = _partitions()
        reference = _store([r for part in parts for r in part])
        acc = MergeAccumulator()
        for part in parts:
            acc.add(pack_store(_store(part)))
        merged = acc.finalize()
        assert merged.records == reference.records
        assert merged.failure_records == reference.failure_records
        assert merged.digest() == reference.digest()

    def test_arrival_order_cannot_perturb_the_digest(self):
        parts = _partitions()
        packs = [pack_store(_store(part)) for part in parts]
        digests = set()
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            acc = MergeAccumulator()
            for index in order:
                acc.add(packs[index])
            digests.add(acc.finalize().digest())
        assert len(digests) == 1


class TestChunkBalancing:
    def test_chunks_cover_all_paths_once(self, tmp_path):
        paths = []
        for index, size in enumerate([500, 10, 300, 200, 40, 350]):
            path = tmp_path / ("shard-%05d.jsonl" % index)
            path.write_bytes(b"x" * size)
            paths.append(str(path))
        chunks = _balance_chunks(paths, 3)
        assert sorted(p for chunk in chunks for p in chunk) == \
            sorted(paths)
        assert len(chunks) == 3
        sizes = [sum(len(open(p, "rb").read()) for p in chunk)
                 for chunk in chunks]
        assert max(sizes) <= 510       # LPT keeps the spread tight

    def test_more_workers_than_shards(self, tmp_path):
        path = tmp_path / "shard-00000.jsonl"
        path.write_bytes(b"x")
        chunks = _balance_chunks([str(path)], 8)
        assert chunks == [[str(path)]]


class TestIngestShardFiles:
    @pytest.fixture()
    def shards(self, tmp_path):
        records = [_rec(i, device="dev-%d" % (i % 9))
                   for i in range(600)]
        return save_jsonl_shards(records, str(tmp_path / "shards"),
                                 shard_size=80), records

    def test_parallel_digest_equals_serial(self, shards):
        paths, records = shards
        serial = ingest_shard_files(paths, config=RollupConfig(),
                                    workers=1)
        report = {}
        parallel = ingest_shard_files(paths, config=RollupConfig(),
                                      workers=3, report=report)
        assert serial.records == parallel.records
        assert serial.records + serial.failure_records == len(records)
        assert serial.digest() == parallel.digest() == \
            _store(records).digest()
        assert report["workers"] == 3
        assert len(report["worker_walls_s"]) == len(report["chunks"])
        assert report["mode"] == "arrays"
        assert report["merge_wall_s"] >= 0.0

    def test_single_worker_reports_inline_mode(self, shards):
        paths, _records_ = shards
        report = {}
        ingest_shard_files(paths, workers=1, report=report)
        assert report["mode"] == "inline"
        assert len(report["worker_walls_s"]) == 1

    def test_meta_carries_the_run_shape(self, shards):
        paths, _records_ = shards
        merged = ingest_shard_files(paths, workers=2)
        assert merged.meta["workers"] == 2
        assert merged.meta["shards"] == len(paths)
