"""Shard-parallel ingest: chunk balancing, the block-payload parts a
forked worker hands back (arrival-order invariance, a damaged part
refused whole), and end-to-end worker parity for
``ingest_shard_files``."""

import itertools

import pytest

from repro.backend.ingest import (
    _balance_chunks,
    fold_shard_part,
    ingest_shard_files,
    pack_shard_part,
)
from repro.backend.rollups import RollupConfig, RollupStore
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


def _fold(parts, merged=None):
    for part in parts:
        merged = fold_shard_part(merged, RollupConfig(), part)
    return merged


class TestShardParts:
    def test_every_arrival_order_of_three_parts_gives_one_digest(self):
        partitions = _partitions(parts=3)
        reference = _store([r for part in partitions for r in part])
        parts = [pack_shard_part(_store(part)) for part in partitions]
        for order in itertools.permutations(parts):
            merged = _fold(order)
            assert merged.digest() == reference.digest()
            assert merged.records == reference.records
            assert merged.failure_records == reference.failure_records \
                == sum(part[1] for part in parts) > 0

    @pytest.mark.parametrize("damage", [
        lambda payload: bytes([payload[0] ^ 1]) + payload[1:],
        lambda payload: payload[:-1],
        lambda payload: payload[:5],
        lambda payload: b"",
    ], ids=["row-count-bit", "last-byte-cut", "header-cut", "empty"])
    def test_a_damaged_part_raises_and_merges_nothing(self, damage):
        first, second = (pack_shard_part(_store(part))
                         for part in _partitions(parts=2))
        merged = _fold([first])
        before = merged.digest()
        # Not the first table: ``network`` decodes cleanly before it,
        # and still none of the part may land.
        records, failures, blocks = second
        blocks = dict(blocks, app=damage(blocks["app"]))
        with pytest.raises(ValueError):
            fold_shard_part(merged, RollupConfig(),
                            (records, failures, blocks))
        assert merged.digest() == before
        assert merged.records == first[0]
        assert _fold([second], merged).digest() == \
            _store([r for part in _partitions(parts=2)
                    for r in part]).digest()


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
        assert serial.records + serial.failure_records == len(records)
        assert serial.digest() == _store(records).digest()
        for workers in (2, 3):
            parallel = ingest_shard_files(paths, config=RollupConfig(),
                                          workers=workers)
            assert serial.records == parallel.records
            assert serial.failure_records == \
                parallel.failure_records > 0
            assert serial.digest() == parallel.digest()

    def test_meta_carries_the_run_shape(self, shards):
        paths, _records_ = shards
        merged = ingest_shard_files(paths, workers=2)
        assert merged.meta["workers"] == 2
        assert merged.meta["shards"] == len(paths)
