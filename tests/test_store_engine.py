"""Engine-level tests: flush, crash/recovery, compaction, retention,
quarantine, and read-path parity (queries over segments + memtable
must equal queries over the equivalent in-memory store)."""

import builtins
import json
import os

import pytest

from repro.backend import query as backend_query
from repro.backend.rollups import RollupConfig, RollupStore
from repro.core import persist
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine
from repro.store.engine import _MANIFEST_FIELDS, QUARANTINE_DIR
from repro.store.wal import replay
from tests.conftest import (CLOSES_WHAT_IT_OPENS, log_records, read_file,
                            tree_bytes)

pytestmark = CLOSES_WHAT_IT_OPENS


def _rec(kind="TCP", rtt=100.0, ts=0.0, domain=None, operator="OpA",
         tech="WIFI", app="com.app.a", failure=None):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        domain=domain, network_type=tech, operator=operator,
        country="US", device_id="dev-1", failure=failure)


def _records(n=120, window_ms=None):
    day = 24 * 3600 * 1000.0
    return [_rec(rtt=15.0 + (i % 40), ts=i * day,
                 app="com.app.%d" % (i % 4),
                 domain="d%d.example" % (i % 3),
                 tech="LTE" if i % 3 == 0 else "WIFI",
                 operator="Op%d" % (i % 2)) for i in range(n)]


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _dump_json(value, path):
    with open(path, "w") as handle:
        json.dump(value, handle)


def _engine(tmp_path, name="store", **config):
    obs = Observability()
    engine = StoreEngine(str(tmp_path / name),
                         config=StoreConfig(**config), obs=obs)
    return engine, obs


class TestWritePathAndRecovery:
    def test_crash_wipes_volatile_state(self, tmp_path):
        engine, _obs = _engine(tmp_path,
                               flush_threshold_records=None)
        engine.append_records(_records(50))
        engine.findings.append({"rule": "r", "subject": "s"})
        assert engine.memtable.records == 50
        engine.crash()
        assert engine.memtable.records == 0
        assert engine.memtable.group_count() == 0
        assert not engine.dedup and not engine.findings
        engine.close()

    def test_recovery_replays_the_wal_exactly(self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=None)
        records = _records(80)
        log_records(engine, records)
        reference = RollupStore()
        reference.add_all(records)
        before = engine.memtable.digest()
        assert before == reference.digest()
        engine.crash()
        info = engine.recover()
        assert info.wal_records == 80
        assert engine.memtable.digest() == before
        assert engine.recoveries == 1
        assert obs.value("store.recoveries") == 1
        assert obs.value("store.wal_replayed_records") >= 80
        engine.close()

    def test_log_batch_charges_fsync_cost_and_seeds_dedup(self,
                                                          tmp_path):
        engine, _obs = _engine(tmp_path,
                               flush_threshold_records=None)
        records = _records(10)
        for record in records:
            engine.memtable.add(record)
        cost = engine.log_batch("dev-1", 0, len(records), records)
        assert cost >= engine.config.fsync.base_ms
        engine.crash()
        engine.recover()
        # The batch identity came back from the WAL: a replayed
        # (device, seq) hits the dedup cache, not the memtable.
        assert engine.dedup[("dev-1", 0)] == 10
        assert engine.memtable.records == 10
        engine.close()

    def test_uncommitted_tail_is_genuinely_lost(self, tmp_path):
        engine, _obs = _engine(tmp_path,
                               flush_threshold_records=None)
        log_records(engine, _records(30))
        engine.wal.append(
            b'{"acked":0,"device":"dev-1","kind":"batch","n":0,"seq":99}')
        engine.crash()                        # buffer never committed
        info = engine.recover()
        assert info.wal_records == 30
        engine.close()

    def test_flush_moves_memtable_into_a_segment(self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=None)
        records = _records(60)
        engine.append_records(records)
        digest = engine.memtable.digest()
        name = engine.flush()
        assert name is not None
        assert engine.memtable.records == 0
        assert engine.wal.size_bytes() == 8   # just the magic
        assert engine.materialize().digest() == digest
        assert obs.value("store.flushes") == 1
        # Recovery after a flush reads the segment, replays nothing.
        engine.crash()
        info = engine.recover()
        assert info.wal_records == 0
        assert info.segments_loaded == 1
        assert engine.materialize().digest() == digest
        engine.close()

    def test_auto_flush_at_threshold(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=25)
        engine.append_records(_records(80))
        assert len(engine.segment_names()) >= 2
        reference = RollupStore()
        reference.add_all(_records(80))
        assert engine.materialize().digest() == reference.digest()
        engine.close()

    def test_reopened_dir_adopts_manifest_config(self, tmp_path):
        config = RollupConfig(window_ms=1000.0)
        engine = StoreEngine(str(tmp_path / "d"), rollup_config=config,
                             obs=Observability())
        engine.append_records(_records(10))
        engine.flush()
        engine.close()
        reopened = StoreEngine(str(tmp_path / "d"),
                               obs=Observability())
        assert reopened.rollup_config.window_ms == 1000.0
        assert reopened.memtable.config.window_ms == 1000.0
        reopened.close()


def _reference_append_records(engine, records):
    """``StoreEngine.append_records`` one record at a time: the
    thresholds checked after each record, and one checkpoint to end a
    call whose last record no flush or checkpoint took."""
    count = 0
    for record in records:
        engine.memtable.add(record)
        count += 1
        engine._records_since_checkpoint += 1
        if engine._over_threshold():
            engine.flush()
        elif engine._checkpoint_due():
            engine.checkpoint()
    if count and engine._records_since_checkpoint:
        engine.checkpoint()
    engine._update_gauges()
    return count


class TestAppendRuns:
    """``append_records`` hands the memtable runs of records, each
    ending where a flush or a checkpoint is due: every file it writes
    is the one the record-at-a-time loop wrote, whatever the calls a
    load is cut into."""

    @staticmethod
    def _mixed(n):
        return [_rec(rtt=15.0 + i, ts=i * 3.6e6, app="com.app.%d" % (i % 5),
                     tech="LTE" if i % 4 else "WIFI",
                     failure="timeout" if i % 11 == 0 else None)
                for i in range(n)]

    @pytest.mark.parametrize("per_call", [1, 7, 512])
    @pytest.mark.parametrize("flush_at, checkpoint_every",
                             [(45, 20), (None, 13), (None, None)])
    def test_runs_write_what_one_record_at_a_time_wrote(
            self, tmp_path, per_call, flush_at, checkpoint_every):
        records = self._mixed(90)
        found = []
        for name, append in (("runs", StoreEngine.append_records),
                             ("reference", _reference_append_records)):
            engine, obs = _engine(
                tmp_path, name, flush_threshold_records=flush_at,
                checkpoint_interval_records=checkpoint_every)
            count = sum(append(engine, iter(records[start:start + per_call]))
                        for start in range(0, len(records), per_call))
            envelopes = sum(len(replay(path).payloads)
                            for path in engine.wal_paths())
            state = (count, envelopes, engine.wal_bytes(),
                     engine.memtable.digest(), obs.value("store.flushes"),
                     obs.value("store.checkpoints"))
            engine.close()
            found.append((state, tree_bytes(str(tmp_path / name))))
        assert found[0] == found[1]
        assert found[0][0][:2] == (90, 0)
        if flush_at is not None:
            assert found[0][0][4] == 90 // flush_at


class TestBulkLoadCommits:
    """A bulk load writes no WAL envelope and serialises no record;
    it is durable once the call returns, in a checkpoint or a
    segment, beside the uploads the WAL holds."""

    @pytest.mark.parametrize("flush_at, checkpoint_every",
                             [(45, 20), (None, 13), (None, None)])
    def test_uploads_around_a_load_recover_to_the_reference(
            self, tmp_path, flush_at, checkpoint_every):
        records = _records(150)
        engine, _obs = _engine(
            tmp_path, flush_threshold_records=flush_at,
            checkpoint_interval_records=checkpoint_every)
        log_records(engine, records[:30], device="dev-up")
        assert engine.append_records(iter(records[30:120])) == 90
        log_records(engine, records[120:], device="dev-up", first_seq=1)
        engine.crash()
        engine.recover()
        reference = RollupStore()
        reference.add_all(records)
        assert engine.materialize().digest() == reference.digest()
        assert engine.dedup == {("dev-up", 0): 30, ("dev-up", 1): 30}
        engine.close()

    def test_a_load_writes_no_frame_and_serialises_nothing(
            self, tmp_path, monkeypatch):
        dumped = []
        to_line = persist.record_to_line
        monkeypatch.setattr(persist, "record_to_line",
                            lambda record: dumped.append(record)
                            or to_line(record))
        engine, obs = _engine(tmp_path, flush_threshold_records=None)
        assert engine.append_records(_records(80)) == 80
        assert dumped == []
        # Each WAL file, the sealed one and the active one, is its
        # magic and no frame.
        assert engine.wal_bytes() == 8 * len(engine.wal_paths()) == 16
        assert (obs.value("store.wal_appends"),
                obs.value("store.checkpoints")) == (0, 1)
        # Committed by the checkpoint: nothing is left to replay.
        engine.crash()
        info = engine.recover()
        assert (info.checkpoint_records, info.wal_records) == (80, 0)
        engine.close()

    def test_an_empty_load_commits_nothing(self, tmp_path):
        engine, obs = _engine(tmp_path)
        assert engine.append_records([]) == 0
        assert obs.value("store.checkpoints") == 0
        assert engine.checkpoint_names() == []
        engine.close()


class TestTornAndCorrupt:
    def test_torn_wal_tail_truncated_and_reported(self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=None)
        log_records(engine, _records(40), per_batch=10)
        engine.close()
        wal_path = engine._wal_path()
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 5)         # mid-frame
        recovered = StoreEngine(str(tmp_path / "store"), obs=obs)
        info = recovered.last_recovery
        assert info.torn_tail
        assert info.wal_records == 30         # last envelope lost
        assert obs.value("store.wal_torn_tails") == 1
        # The tail was cut at the last valid frame: a fresh replay is
        # clean and new appends land after it.
        assert os.path.getsize(wal_path) < size
        log_records(recovered, _records(5), first_seq=4)
        recovered.crash()
        assert recovered.recover().wal_records == 35
        recovered.close()

    def test_corrupt_segment_is_quarantined(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(_records(40))
        name = engine.flush()
        path = engine._segment_path(name)
        with open(path, "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0xFF]))
        engine.close()
        obs = Observability()
        recovered = StoreEngine(str(tmp_path / "store"), obs=obs)
        info = recovered.last_recovery
        assert info.segments_quarantined == 1
        assert info.segments_loaded == 0
        assert obs.value("store.segments_quarantined") == 1
        assert not os.path.exists(path)
        quarantined = os.path.join(str(tmp_path / "store"),
                                   QUARANTINE_DIR, name)
        assert os.path.exists(quarantined)
        # The manifest no longer lists it: the next recovery is clean.
        recovered.crash()
        assert recovered.recover().segments_quarantined == 0
        recovered.close()

    def test_bit_flipped_zone_map_is_quarantined(self, tmp_path):
        """The zone maps sit in the footer, under its CRC: one bit of
        a block's ``min`` text flipped is a checksum failure -- the
        file is quarantined, not served with a range that lies."""
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(_records(40))
        name = engine.flush()
        path = engine._segment_path(name)
        engine.close()
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            at = data.rindex(b'"min":"Op0|')
            data[at + len(b'"min":"O')] ^= 0x01      # Op0 -> Oq0
            handle.seek(0)
            handle.write(bytes(data))
        recovered = StoreEngine(str(tmp_path / "store"),
                                obs=Observability())
        assert recovered.last_recovery.segments_quarantined == 1
        assert recovered.segment_names() == []
        assert os.path.exists(os.path.join(
            str(tmp_path / "store"), QUARANTINE_DIR, name))
        recovered.close()


    @pytest.mark.parametrize("raw_keys,key_len", [
        ([b"OpB|0|WIFI|DNS", b"OpA|0|WIFI|DNS"], None),
        ([b"OpA|0|WIFI|DNS", b"OpA|0|WIFI|DNS"], None),
        ([b"OpA|0|WIFI|DNS", b"Op\\B|0|WIFI|DNS"], None),
        ([b"OpA|0|WIFI|DNS", b"OpB|0|WIFI|DNS"], 200),
    ], ids=["out-of-key-order", "key-twice", "non-canonical-text",
            "key-lengths-overrun"])
    def test_sound_frames_around_a_bad_block_are_quarantined(
            self, tmp_path, raw_keys, key_len):
        """Footer and every CRC fine, one block no writer produces:
        what the block decoder refuses, recovery quarantines."""
        from tests.conftest import hand_built_row_block
        from tests.test_store_segments import _swap_the_network_block
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records([_rec(kind="DNS", operator=operator)
                               for operator in ("OpA", "OpB")])
        name = engine.flush()
        engine.close()
        _swap_the_network_block(engine._segment_path(name),
                                hand_built_row_block(raw_keys, key_len))
        recovered = StoreEngine(engine.data_dir, obs=Observability())
        assert recovered.last_recovery.segments_quarantined == 1
        assert recovered.segment_names() == []
        assert os.path.exists(os.path.join(
            engine.data_dir, QUARANTINE_DIR, name))
        recovered.close()

    @pytest.mark.parametrize("field", ["seq", "failure_records"])
    def test_sound_footer_lacking_a_field_is_quarantined(self, tmp_path,
                                                         field):
        """Recovery used to die on the reader's bare ``KeyError``."""
        from tests.test_store_segments import _rewrite_footer
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(_records(40))
        name = engine.flush()
        engine.close()
        _rewrite_footer(engine._segment_path(name),
                        lambda footer: footer.pop(field))
        recovered = StoreEngine(engine.data_dir, obs=Observability())
        assert recovered.last_recovery.segments_quarantined == 1
        assert recovered.segment_names() == []
        assert os.path.exists(os.path.join(
            engine.data_dir, QUARANTINE_DIR, name))
        recovered.close()


class TestOneGeneration:
    """The manifest and the WAL file sit behind the same gate as
    segments and checkpoints: a sound file of another generation
    stops recovery with ``UnsupportedSchema`` and every byte on disk
    stays as it was."""

    def _store(self, tmp_path):
        """Segments, checkpoints and a WAL tail under one manifest."""
        engine, _obs = _engine(tmp_path, flush_threshold_records=60,
                               checkpoint_interval_records=25)
        log_records(engine, _records(150), per_batch=5)
        assert engine.segment_names() and engine.checkpoint_names()
        assert engine.wal_bytes() > 8 * len(engine.wal_paths())
        digest = engine.materialize().digest()
        engine.close()
        return engine.data_dir, digest

    def _refused(self, root, error, *told):
        before = tree_bytes(root)
        with pytest.raises(error) as refused:
            StoreEngine(root, obs=Observability())
        for text in told:
            assert text in str(refused.value)
        assert tree_bytes(root) == before
        assert not os.path.exists(os.path.join(root, QUARANTINE_DIR))

    @pytest.mark.parametrize("schema", [1, 2, 4])
    def test_other_schema_manifest_is_refused(self, tmp_path, schema):
        from repro.store import UnsupportedSchema
        root, digest = self._store(tmp_path)
        path = os.path.join(root, "MANIFEST.json")
        manifest = _load_json(path)
        # What is required is exactly what is written.
        assert set(manifest) == {"schema", *_MANIFEST_FIELDS}
        manifest["schema"] = schema
        _dump_json(manifest, path)
        self._refused(root, UnsupportedSchema, path,
                      "schema %d " % schema, "only schema 3")
        manifest["schema"] = 3
        _dump_json(manifest, path)
        reopened = StoreEngine(root, obs=Observability())
        assert reopened.materialize().digest() == digest
        reopened.close()

    @pytest.mark.parametrize("field", [
        "next_ckpt", "wal_covered_gen", "checkpoints",
        "dedup", "config"])
    def test_manifest_lacking_a_field_is_refused(self, tmp_path, field):
        """The fields a schema-1 manifest did without used to default
        (no checkpoints, generation -1 covered: every WAL file
        replayed over the segments that already hold it)."""
        root, _digest = self._store(tmp_path)
        path = os.path.join(root, "MANIFEST.json")
        manifest = _load_json(path)
        del manifest[field]
        _dump_json(manifest, path)
        self._refused(root, ValueError, path, field)

    def test_other_generation_wal_is_refused_not_reset(self, tmp_path):
        """Found as data loss: one durable batch, the file's magic
        one generation on -- recovery reported a torn tail, came up
        empty and rewrote the file as a bare header."""
        from repro.store import UnsupportedSchema
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        records = _records(3)
        for record in records:
            engine.memtable.add(record)
        engine.log_batch("dev-1", 0, 3, records)
        engine.close()
        path = engine._wal_path()
        with open(path, "r+b") as handle:
            handle.write(b"MOPWAL2\n")
        size = os.path.getsize(path)
        assert size > 8
        self._refused(engine.data_dir, UnsupportedSchema, path,
                      "MOPWAL2", "MOPWAL1")
        assert os.path.getsize(path) == size
        with open(path, "r+b") as handle:
            handle.write(b"MOPWAL1\n")
        reopened = StoreEngine(engine.data_dir, obs=Observability())
        assert reopened.memtable.records == 3
        assert not reopened.last_recovery.torn_tail
        reopened.close()

    def test_the_knobs_are_the_six_some_caller_sets(self):
        import inspect

        from repro.backend import dedup, ingest
        from repro.backend.ingest import IngestPipeline
        from repro.store import engine as engine_module

        assert list(inspect.signature(
            StoreConfig.__init__).parameters)[1:] == [
                "flush_threshold_records", "compaction_fanout",
                "retention_ms", "checkpoint_interval_records",
                "segment_block_rows", "fsync"]
        assert "dedup_capacity" not in inspect.signature(
            IngestPipeline.__init__).parameters
        # One dedup LRU, one capacity, whoever writes the map.
        assert dedup.DEDUP_CAPACITY == 4096
        assert ingest.remember is engine_module.remember is dedup.remember
        assert engine_module.CHECKPOINT_KEEP == 2


class TestCompactionAndRetention:
    def test_compaction_preserves_the_digest(self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=None,
                              compaction_fanout=3)
        for start in range(0, 90, 30):
            engine.append_records(_records(90)[start:start + 30])
            engine.flush()
        digest = engine.materialize().digest()
        assert len(engine.segment_names()) == 3
        assert engine.compact()
        assert len(engine.segment_names()) == 1
        assert engine.materialize().digest() == digest
        assert obs.value("store.compactions") == 1
        # The merged segment survives recovery on its own.
        engine.crash()
        engine.recover()
        assert engine.materialize().digest() == digest
        engine.close()

    @pytest.mark.parametrize("schema", [2, 3, 4, 6])
    def test_other_schema_segment_stops_recovery_untouched(
            self, tmp_path, schema):
        """A sound segment written by an older build (2: flushed
        before PR-9 widened the tables; 3: window-major; 4: rows as
        varints) or a newer one is not corruption.  Recovery used to file it under
        ``quarantine/`` and come up without its data; it stops with
        the typed error instead, and moves and rewrites nothing."""
        from repro.store import UnsupportedSchema
        from repro.store.engine import QUARANTINE_DIR, SEGMENT_DIR
        from tests.test_store_segments import _rewrite_footer

        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        for start in (0, 30):
            engine.append_records(_records(60)[start:start + 30])
            engine.flush()
        digest = engine.materialize().digest()
        names = engine.segment_names()
        engine.close()
        root = str(tmp_path / "store")
        path = os.path.join(root, SEGMENT_DIR, names[1])
        manifest = read_file(os.path.join(root, "MANIFEST.json"))

        def restamp(to):
            def mutate(footer):
                footer["schema"] = to
            _rewrite_footer(path, mutate)
        restamp(schema)
        before = read_file(path)
        with pytest.raises(UnsupportedSchema) as refused:
            StoreEngine(root, obs=Observability())
        for told in (path, "schema %d " % schema, "only schema 5"):
            assert told in str(refused.value)
        assert read_file(path) == before
        assert not os.path.exists(os.path.join(root, QUARANTINE_DIR))
        assert read_file(os.path.join(root, "MANIFEST.json")) \
            == manifest
        # Nothing was lost: with the footer as written the store
        # opens and holds everything.
        restamp(5)
        reopened = StoreEngine(root, obs=Observability())
        assert reopened.last_recovery.segments_loaded == 2
        assert reopened.materialize().digest() == digest
        reopened.close()

    def test_compaction_merges_rtt_and_modality_segments(self,
                                                         tmp_path):
        """A segment of RTT rows and one carrying modality rows
        recover, merge and serve exactly what a store fed the same
        records holds."""
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               compaction_fanout=10)
        old_records = _records(60)
        engine.append_records(old_records)
        engine.flush()
        engine.crash()
        info = engine.recover()
        assert info.segments_loaded == 1
        assert info.segments_quarantined == 0
        mod_records = [
            _rec(kind="TPUT_UP", rtt=120.0, app="com.app.0"),
            _rec(kind="TPUT_DOWN", rtt=480.0, app="com.app.0"),
            _rec(kind="ENERGY", rtt=55.0, app="com.app.1"),
            _rec(kind="AOI", rtt=2500.0, app=None),
        ]
        engine.append_records(mod_records)
        engine.flush()
        assert len(engine.segment_names()) == 2
        reference = RollupStore()
        reference.add_all(old_records + mod_records)
        assert engine.materialize().digest() == reference.digest()
        assert engine.compact(force=True)
        merged = engine.materialize()
        assert merged.digest() == reference.digest()
        window = str(reference.config.window_of(0.0))
        assert merged.tables["app_energy"][(window, "com.app.1")] \
            .count == 1
        assert merged.tables["aoi"][(window, "dev-1", "WIFI")] \
            .count == 1
        engine.close()

    def test_compaction_waits_for_fanout(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               compaction_fanout=4)
        engine.append_records(_records(30))
        engine.flush()
        assert not engine.compact()
        engine.append_records(_records(30))
        assert not engine.compact(force=True)  # one segment: nothing
        engine.flush()
        assert engine.compact(force=True)
        engine.close()

    def test_retention_evicts_old_windows(self, tmp_path):
        day = 24 * 3600 * 1000.0
        config = RollupConfig(window_ms=day)
        obs = Observability()
        engine = StoreEngine(
            str(tmp_path / "r"), rollup_config=config,
            config=StoreConfig(flush_threshold_records=None,
                               retention_ms=10 * day),
            obs=obs)
        engine.append_records(
            [_rec(rtt=50.0, ts=i * day) for i in range(30)])
        engine.flush()
        engine.append_records([_rec(rtt=60.0, ts=29 * day)])
        engine.flush()
        engine.compact(now_ms=30 * day, force=True)
        merged = engine.materialize()
        assert min(merged.windows()) >= 30 - 10 - 1
        assert max(merged.windows()) == 29
        assert obs.value("store.retention_windows_evicted") > 0
        engine.close()

    def test_retention_rewrites_a_single_segment(self, tmp_path):
        """One segment is nothing to merge, but a window past the
        horizon is still evicted; with nothing to evict, or no
        ``now_ms``, the segment is left as it is."""
        day = 24 * 3600 * 1000.0
        engine = StoreEngine(
            str(tmp_path / "r"), rollup_config=RollupConfig(window_ms=day),
            config=StoreConfig(flush_threshold_records=None,
                               retention_ms=10 * day),
            obs=Observability())
        engine.append_records(
            [_rec(rtt=50.0, ts=i * day) for i in range(30)])
        engine.flush()
        assert not engine.compact(force=True)
        assert not engine.compact(now_ms=10 * day, force=True)
        assert engine.compact(now_ms=30 * day, force=True)
        assert engine.materialize().windows() == list(range(20, 30))
        assert len(engine.segment_names()) == 1
        assert not engine.compact(now_ms=30 * day, force=True)
        engine.close()


    def test_retention_sees_windows_not_stored_order(self, tmp_path):
        """Segments lead with the subject; compaction and retention
        work on keys as ``RollupStore`` has them.  After a merge that
        evicts, the store holds exactly what one fed the same records
        and rid of the same windows does -- in every windowed table,
        subject-major or not."""
        day = 24 * 3600 * 1000.0
        config = RollupConfig(window_ms=day)
        engine = StoreEngine(
            str(tmp_path / "r"), rollup_config=config,
            config=StoreConfig(flush_threshold_records=None,
                               retention_ms=10 * day),
            obs=Observability())
        records = []
        for i in range(30):
            for kind, rtt in (("TCP", 50.0), ("DNS", 9.0),
                              ("TPUT_UP", 120.0), ("ENERGY", 55.0),
                              ("AOI", 2500.0)):
                records.append(_rec(kind=kind, rtt=rtt + i, ts=i * day,
                                    app="com.app.%d" % (i % 3),
                                    operator="Op%d" % (i % 2)))
        for start in range(0, len(records), 50):
            engine.append_records(records[start:start + 50])
            engine.flush()
        assert len(engine.segment_names()) == 3
        assert engine.compact(now_ms=30 * day, force=True)
        reference = RollupStore(config=config)
        reference.add_all(records)
        for table in ("network", "app", "app_throughput",
                      "app_energy", "aoi"):
            rows = reference.tables[table]
            assert len(rows) == 30 * (2 if table == "network" else 1)
            for key in [key for key in rows if int(key[0]) < 20]:
                del rows[key]
        assert engine.materialize().digest() == reference.digest()
        engine.crash()
        engine.recover()
        assert engine.materialize().digest() == reference.digest()
        engine.close()


class TestGaugesTouchNoFile:
    """``compact()`` with nothing to do -- the serving loop asks after
    every few batches -- and the gauges every write refreshes read
    what the engine keeps: no segment is opened again and no file
    stat'ed or directory listed."""

    def test_a_no_op_compaction_opens_stats_and_lists_nothing(
            self, tmp_path, monkeypatch):
        day = 24 * 3600 * 1000.0
        engine, obs = _engine(tmp_path, flush_threshold_records=None,
                              compaction_fanout=10,
                              checkpoint_interval_records=None,
                              retention_ms=400 * day)
        for start in range(0, 90, 30):
            log_records(engine, _records(90)[start:start + 30],
                        first_seq=start)
            engine.flush()
        assert not engine.compact(now_ms=90 * day)   # opens all three
        touched = []
        for owner, name in ((builtins, "open"), (os, "open"),
                            (os, "stat"), (os, "listdir")):
            call = getattr(owner, name)
            monkeypatch.setattr(
                owner, name,
                lambda *args, _call=call, **kwargs:
                touched.append(args[0]) or _call(*args, **kwargs))
        for _ in range(5):
            assert not engine.compact(now_ms=90 * day)
        monkeypatch.undo()
        assert touched == []
        self._assert_gauges(engine, obs)
        for write in (engine.checkpoint, engine.flush,
                      lambda: engine.compact(force=True)):
            log_records(engine, _records(5), first_seq=100)
            write()
            self._assert_gauges(engine, obs)
        engine.close()

    @staticmethod
    def _assert_gauges(engine, obs):
        assert obs.value("store.segments") == len(engine.segment_names())
        assert obs.value("store.segment_bytes") == sum(
            os.path.getsize(engine._segment_path(name))
            for name in engine.segment_names())
        assert obs.value("store.wal_files") == len(engine.wal_paths())


class TestCompactionEdgeCases:
    """Compaction cases a random store seldom reaches, each with the
    outcome the row-by-row merge had: the counters, the bytes a flush
    of the merged content writes, and what a refused or failed merge
    leaves on disk."""

    DAY = 24 * 3600 * 1000.0

    def _segments(self, tmp_path, records, per_segment, **config):
        obs = Observability()
        engine = StoreEngine(
            str(tmp_path / "store"),
            rollup_config=RollupConfig(window_ms=self.DAY),
            config=StoreConfig(flush_threshold_records=None, **config),
            obs=obs)
        for start in range(0, len(records), per_segment):
            engine.append_records(records[start:start + per_segment])
            engine.flush()
        return engine, obs

    def _flushed_bytes(self, tmp_path, store, seq):
        """What a flush of ``store`` as segment ``seq`` writes."""
        from repro.store.segments import write_segment
        path = str(tmp_path / "reference.seg")
        write_segment(path, store, seq)
        return read_file(path)

    def _compacted_bytes(self, engine):
        [name] = engine.segment_names()
        return name, read_file(engine._segment_path(name))

    @pytest.mark.parametrize("kind, tables", [
        ("TCP", ("network", "app")),     # subject-major: window second
        ("AOI", ("aoi",)),               # window-first
    ])
    def test_retention_evicts_and_counts_as_before(self, tmp_path, kind,
                                                   tables):
        records = [_rec(kind=kind, rtt=20.0 + i, ts=(i % 10) * self.DAY,
                        app="com.app.%d" % (i % 3),
                        operator="Op%d" % (i % 2))
                   for i in range(60)]
        engine, obs = self._segments(tmp_path, records, 20,
                                     retention_ms=5 * self.DAY)
        assert obs.value("store.segment_writes") == 3
        assert engine.compact(now_ms=10 * self.DAY)
        assert obs.value("store.retention_windows_evicted") == 5
        assert obs.value("store.compactions") == 1
        assert obs.value("store.segment_writes") == 4
        reference = RollupStore(config=RollupConfig(window_ms=self.DAY))
        reference.add_all(records)
        for table in tables:
            rows = reference.tables[table]
            evicted = [key for key in rows if int(key[0]) < 5]
            assert evicted
            for key in evicted:
                del rows[key]
        name, data = self._compacted_bytes(engine)
        assert data == self._flushed_bytes(tmp_path, reference,
                                           int(name[4:10]))
        assert engine.materialize().windows() == [5, 6, 7, 8, 9]
        engine.close()

    def test_escaped_and_non_ascii_key_parts(self, tmp_path):
        """Parts holding ``|``, ``\\`` and text past ASCII -- stored
        escaped, in utf-8 -- merge into the bytes a flush of the
        merged store writes, and come back as the keys they were."""
        awkward = ["a|b", "c\\d", "\\|", "caf\u00e9", "\u4e2d|\u6587",
                   "\U0001f600", "|", "\\"]
        records = [_rec(rtt=10.0 + i, ts=(i % 4) * self.DAY,
                        app=awkward[i % 8],
                        operator=awkward[(i + 3) % 8],
                        domain="x%s.example" % awkward[(i + 5) % 8],
                        tech="LTE" if i % 2 else "WIFI")
                   for i in range(96)]
        engine, obs = self._segments(tmp_path, records, 24,
                                     retention_ms=2 * self.DAY)
        assert engine.compact(now_ms=3 * self.DAY)
        assert obs.value("store.retention_windows_evicted") == 1
        reference = RollupStore(config=RollupConfig(window_ms=self.DAY))
        reference.add_all(records)
        for table in ("network", "app"):
            rows = reference.tables[table]
            for key in [key for key in rows if key[0] == "0"]:
                del rows[key]
        name, data = self._compacted_bytes(engine)
        assert data == self._flushed_bytes(tmp_path, reference,
                                           int(name[4:10]))
        assert engine.materialize().digest() == reference.digest()
        engine.crash()
        engine.recover()
        assert engine.materialize().digest() == reference.digest()
        engine.close()

    def test_segment_of_another_config_is_refused(self, tmp_path):
        """A segment flushed under another rollup config: the merge is
        refused with the error it always raised, and the manifest, the
        segment list and the next segment number stay as they were."""
        root = str(tmp_path / "store")
        other = StoreEngine(root, rollup_config=RollupConfig(
            window_ms=self.DAY), config=StoreConfig(
                flush_threshold_records=None), obs=Observability())
        other.append_records(_records(30))
        other.flush()
        other.close()
        engine = StoreEngine(root, rollup_config=RollupConfig(),
                             config=StoreConfig(
                                 flush_threshold_records=None),
                             obs=Observability())
        engine.append_records(_records(30))
        engine.flush()
        names, next_seq = engine.segment_names(), engine._next_seq
        before = tree_bytes(root)
        with pytest.raises(ValueError,
                           match="cannot merge rollups with different "
                                 "configs"):
            engine.compact(force=True)
        assert tree_bytes(root) == before
        assert engine.segment_names() == names
        assert engine._next_seq == next_seq
        engine.close()

    def test_corrupt_block_in_one_input(self, tmp_path):
        """A block of one input fails its checksum after recovery
        checked it: compaction raises ``SegmentCorruption`` and leaves
        the inputs and the manifest as it found them."""
        from repro.store.segments import SegmentCorruption, SegmentReader
        engine, obs = self._segments(tmp_path, _records(90), 30)
        names, next_seq = engine.segment_names(), engine._next_seq
        path = engine._segment_path(names[1])
        with SegmentReader(path) as reader:
            entry = reader.blocks("app")[0]
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + 10)
            byte = handle.read(1)
            handle.seek(entry["offset"] + 10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        before = tree_bytes(engine.data_dir)
        with pytest.raises(SegmentCorruption):
            engine.compact(force=True)
        assert tree_bytes(engine.data_dir) == before
        assert engine.segment_names() == names
        assert engine._next_seq == next_seq
        assert obs.value("store.compactions") == 0
        engine.close()


class TestReadPathParity:
    def test_queries_identical_from_segments_and_memtable(self,
                                                          tmp_path):
        """The acceptance criterion: every query view over
        segments + memtable equals the same view over one in-memory
        store built from the same records."""
        records = _records(150)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(records[:100])
        engine.flush()                        # first 100 in a segment
        engine.append_records(records[100:])  # rest stay in memtable
        reference = RollupStore()
        reference.add_all(records)
        materialized = engine.materialize()
        assert materialized.digest() == reference.digest()
        for view in (backend_query.summary, backend_query.apps,
                     backend_query.networks, backend_query.windows):
            got = json.dumps(view(materialized), sort_keys=True,
                             default=str)
            want = json.dumps(view(reference), sort_keys=True,
                              default=str)
            assert got == want, view.__name__
        engine.close()

    def test_disk_beats_json_snapshot(self, tmp_path):
        """Segment encoding must undercut the canonical JSON snapshot
        comfortably (>= 2.5x at unit-test scale)."""
        records = _records(4000)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(records)
        engine.flush()
        segment_bytes = engine.segment_bytes()
        assert segment_bytes == sum(
            os.path.getsize(engine._segment_path(name))
            for name in engine.segment_names())
        json_bytes = len(engine.materialize().to_json())
        assert json_bytes >= 2.5 * segment_bytes
        engine.close()
