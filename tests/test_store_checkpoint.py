"""Checkpoint semantics: bounded replay, crash windows inside the
checkpoint sequence, torn-checkpoint quarantine + fallback, dedup
seeding, and the one WAL envelope form recovery replays."""

import json
import os

import pytest

from repro.backend.rollups import RollupStore
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine
from repro.store import encoding
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA,
    MAGIC,
    TAIL_MAGIC,
    CheckpointCorruption,
    read_checkpoint,
    write_checkpoint,
)
from repro.store.engine import QUARANTINE_DIR
from repro.store.segments import UnsupportedSchema
from tests.conftest import (CLOSES_WHAT_IT_OPENS, hand_built_row_block,
                            log_records, read_file, tree_bytes,
                            write_file)

pytestmark = CLOSES_WHAT_IT_OPENS


def _rec(kind="TCP", rtt=100.0, ts=0.0, domain=None, operator="OpA",
         tech="WIFI", app="com.app.a", failure=None, device="dev-1"):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        domain=domain, network_type=tech, operator=operator,
        country="US", device_id=device, failure=failure)


def _records(n=120, device="dev-1"):
    day = 24 * 3600 * 1000.0
    return [_rec(rtt=15.0 + (i % 40), ts=i * day,
                 app="com.app.%d" % (i % 4),
                 domain="d%d.example" % (i % 3),
                 tech="LTE" if i % 3 == 0 else "WIFI",
                 operator="Op%d" % (i % 2), device=device)
            for i in range(n)]


def _engine(tmp_path, name="store", **config):
    obs = Observability()
    engine = StoreEngine(str(tmp_path / name),
                         config=StoreConfig(**config), obs=obs)
    return engine, obs


def _reference(records):
    store = RollupStore()
    store.add_all(records)
    return store


def _corrupt_tail(path):
    with open(path, "r+b") as handle:
        handle.seek(-len(TAIL_MAGIC) - 3, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestBoundedReplay:
    def test_checkpoint_bounds_wal_replay_to_the_interval(self,
                                                          tmp_path):
        records = _records(1010)
        engine, obs = _engine(tmp_path, flush_threshold_records=None,
                              checkpoint_interval_records=100)
        log_records(engine, records, per_batch=25)
        assert obs.value("store.checkpoints") >= 9
        engine.crash()
        info = engine.recover()
        # Replay is the tail after the last checkpoint, not the run.
        assert info.checkpoint_loaded is not None
        assert info.wal_records <= 125
        assert info.checkpoint_records + info.wal_records == 1010
        assert engine.memtable.records == 1010
        assert engine.memtable.digest() == _reference(records).digest()
        engine.close()

    def test_retention_keeps_two_checkpoints_and_prunes_wal(self,
                                                            tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        records = _records(300)
        for start in range(0, 300, 100):
            log_records(engine, records[start:start + 100],
                        first_seq=start)
            engine.checkpoint()
        on_disk = [name for name in os.listdir(engine.data_dir)
                   if name.endswith(".ckpt")]
        assert sorted(on_disk) == engine.checkpoint_names()
        assert len(on_disk) == 2
        # Generations the older retained checkpoint covers are gone;
        # its own tail (the newest checkpoint's fallback replay) and
        # the active generation remain.
        assert len(engine.wal_paths()) == 2
        engine.crash()
        engine.recover()
        assert engine.memtable.digest() == _reference(records).digest()
        engine.close()

    def test_flush_supersedes_checkpoints(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        records = _records(120)
        log_records(engine, records[:80])
        engine.checkpoint()
        log_records(engine, records[80:], first_seq=1)
        engine.flush()
        assert engine.checkpoint_names() == []
        assert not [name for name in os.listdir(engine.data_dir)
                    if name.endswith(".ckpt")]
        assert len(engine.wal_paths()) == 1       # the fresh active gen
        engine.crash()
        info = engine.recover()
        assert info.wal_records == 0
        assert engine.materialize().digest() == \
            _reference(records).digest()
        engine.close()


class TestCrashWindows:
    def test_crash_before_manifest_publish_ignores_the_orphan(
            self, tmp_path, monkeypatch):
        """Die after the checkpoint file lands but before the manifest
        references it: recovery must ignore (and sweep) the orphan and
        replay the full WAL."""
        records = _records(90)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        log_records(engine, records)
        monkeypatch.setattr(engine, "_write_manifest", lambda: None)
        name = engine.checkpoint()
        monkeypatch.undo()
        assert os.path.exists(os.path.join(engine.data_dir, name))
        engine.crash()
        info = engine.recover()
        assert info.checkpoint_loaded is None
        assert info.wal_records == 90
        assert not os.path.exists(os.path.join(engine.data_dir, name))
        assert engine.memtable.digest() == _reference(records).digest()
        engine.close()

    @pytest.mark.parametrize("write", ["flush", "compact"])
    def test_a_segment_renamed_but_never_published_is_swept(
            self, tmp_path, monkeypatch, write):
        """Die at the manifest's rename, after a flush or a compaction
        has renamed its segment into place: the segment is listed
        nowhere and ``MANIFEST.json.tmp`` is left beside the manifest.
        Recovery must delete both and come up with every record, and
        leave on disk only what the manifest lists."""
        records = _records(90)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        for seq in (0, 1):
            log_records(engine, records[30 * seq:30 * seq + 30],
                        first_seq=seq)
            engine.flush()
        log_records(engine, records[60:], first_seq=2)
        renamed = os.replace

        def replace(source, target):
            if os.path.basename(target) == "MANIFEST.json":
                raise OSError("died at the manifest's rename")
            return renamed(source, target)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            if write == "flush":
                engine.flush()
            else:
                engine.compact(force=True)
        monkeypatch.undo()
        segments = os.path.join(engine.data_dir, "segments")
        assert len(os.listdir(segments)) == 3
        engine.crash()
        engine.recover()
        assert sorted(os.listdir(segments)) == engine.segment_names()
        assert sorted(os.listdir(engine.data_dir)) == sorted(
            ["MANIFEST.json", "segments"]
            + [os.path.basename(path) for path in engine.wal_paths()])
        assert engine.materialize().digest() \
            == _reference(records).digest()
        assert engine.flush() is not None
        assert engine.materialize().digest() \
            == _reference(records).digest()
        engine.close()

    def test_a_lost_manifest_leaves_the_segments_recoverable(
            self, tmp_path):
        """With ``MANIFEST.json`` gone after two flushes, the segments
        hold the only copy of the flushed records (their WAL pruned):
        recovery lists none of them but must not delete them -- they
        go to ``quarantine/`` byte for byte, out of the way of the
        next flush's names."""
        records = _records(60)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        for seq in (0, 1):
            log_records(engine, records[30 * seq:30 * seq + 30],
                        first_seq=seq)
            engine.flush()
        segments = os.path.join(engine.data_dir, "segments")
        before = {}
        for name in os.listdir(segments):
            with open(os.path.join(segments, name), "rb") as handle:
                before[name] = handle.read()
        assert len(before) == 2
        engine.crash()
        os.remove(os.path.join(engine.data_dir, "MANIFEST.json"))
        engine.recover()
        assert engine.segment_names() == []
        assert os.listdir(segments) == []
        quarantine = os.path.join(engine.data_dir, QUARANTINE_DIR)
        after = {}
        for name in os.listdir(quarantine):
            with open(os.path.join(quarantine, name), "rb") as handle:
                after[name] = handle.read()
        assert after == before
        log_records(engine, records[:30], first_seq=0)
        engine.flush()
        assert sorted(os.listdir(quarantine)) == sorted(before)
        engine.close()

    def test_crash_before_wal_pruning_cleans_stale_generations(
            self, tmp_path, monkeypatch):
        """Die after the manifest publish but before the covered WAL
        generations are deleted: recovery must not replay them (double
        count) and must finish the cleanup."""
        records = _records(200)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        log_records(engine, records[:100])
        engine.checkpoint()
        log_records(engine, records[100:], first_seq=1)
        monkeypatch.setattr(engine, "_prune_wal_files", lambda: None)
        engine.checkpoint()
        monkeypatch.undo()
        stale = len(engine.wal_paths())
        assert stale >= 3                 # gen0 + gen1 + active gen2
        engine.crash()
        info = engine.recover()
        assert info.wal_records == 0
        assert engine.memtable.records == 200
        assert engine.memtable.digest() == _reference(records).digest()
        assert len(engine.wal_paths()) < stale
        engine.close()

    def test_torn_checkpoint_falls_back_to_the_previous(self,
                                                        tmp_path):
        records = _records(180)
        engine, obs = _engine(tmp_path, flush_threshold_records=None,
                              checkpoint_interval_records=None)
        log_records(engine, records[:100])
        first = engine.checkpoint()
        log_records(engine, records[100:150], first_seq=1)
        second = engine.checkpoint()
        log_records(engine, records[150:], first_seq=2)
        _corrupt_tail(os.path.join(engine.data_dir, second))
        engine.crash()
        info = engine.recover()
        assert info.checkpoints_quarantined == 1
        assert info.checkpoint_loaded == first
        # The fallback replays the second checkpoint's interval too.
        assert info.wal_records == 80
        assert engine.memtable.digest() == _reference(records).digest()
        assert os.path.exists(os.path.join(
            engine.data_dir, QUARANTINE_DIR, second))
        assert obs.value("store.checkpoints_quarantined") == 1
        engine.close()

    def test_single_torn_checkpoint_falls_back_to_full_wal(self,
                                                           tmp_path):
        records = _records(130)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        log_records(engine, records[:100])
        name = engine.checkpoint()
        log_records(engine, records[100:], first_seq=1)
        _corrupt_tail(os.path.join(engine.data_dir, name))
        engine.crash()
        info = engine.recover()
        # The only checkpoint is gone, but its WAL generations were
        # never pruned (the horizon trails by one checkpoint), so the
        # full replay reconstructs everything.
        assert info.checkpoint_loaded is None
        assert info.checkpoints_quarantined == 1
        assert info.wal_records == 130
        assert engine.memtable.digest() == _reference(records).digest()
        engine.close()


class _Crash(Exception):
    """The process dies at this call."""


class TestBulkLoadCrashPoints:
    """Every fsync and every rename one ``append_records`` call makes
    is a crash point.  Whichever one the process dies at, recovery
    comes back to one of the call's durable boundaries -- before it,
    after a flush or checkpoint inside it, or after it -- and every
    upload ACKed before the call is there."""

    #: A flush at 50 records and a checkpoint every 20: the uploads
    #: leave a checkpoint and a WAL tail, and the load below takes
    #: a checkpoint, a flush, two checkpoints and the one that ends it.
    CONFIG = dict(flush_threshold_records=50,
                  checkpoint_interval_records=20)
    UPLOADS = _records(30, device="dev-up")
    LOAD = _records(70, device="dev-load")
    BOUNDARIES = (0, 10, 20, 40, 60, 70)

    def _store(self, root):
        engine = StoreEngine(root, config=StoreConfig(**self.CONFIG),
                             obs=Observability())
        log_records(engine, self.UPLOADS, per_batch=10, device="dev-up")
        assert engine.checkpoint_names() and engine.wal_bytes() > 16
        return engine

    @staticmethod
    def _at_the_kth(patch, k, calls):
        """Count every ``os.fsync`` and ``os.replace``; with ``k``,
        raise in place of the ``k``-th."""
        def hook(real):
            def call(*args):
                calls.append(real.__name__)
                if len(calls) == k:
                    raise _Crash(real.__name__)
                return real(*args)
            return call
        patch.setattr(os, "fsync", hook(os.fsync))
        patch.setattr(os, "replace", hook(os.replace))

    def test_every_crash_point_recovers_a_durable_boundary(
            self, tmp_path, monkeypatch):
        # The boundaries are the load's prefixes where a flush or a
        # checkpoint falls due, and its end.
        states = [_reference(self.UPLOADS + self.LOAD[:m]).digest()
                  for m in self.BOUNDARIES]
        engine = self._store(str(tmp_path / "whole"))
        seen = [engine.materialize().digest()]
        for name in ("flush", "checkpoint"):
            def durable(real=getattr(engine, name)):
                result = real()
                seen.append(engine.materialize().digest())
                return result
            monkeypatch.setattr(engine, name, durable)
        calls = []
        with monkeypatch.context() as patch:
            self._at_the_kth(patch, None, calls)
            assert engine.append_records(iter(self.LOAD)) == 70
        assert seen == states
        assert calls.count("fsync") >= 5 and calls.count("replace") >= 5
        engine.close()

        recovered = set()
        for k in range(1, len(calls) + 1):
            engine = self._store(str(tmp_path / ("crash-%02d" % k)))
            with monkeypatch.context() as patch:
                self._at_the_kth(patch, k, [])
                with pytest.raises(_Crash):
                    engine.append_records(iter(self.LOAD))
            engine.crash()
            engine.recover()
            digest = engine.materialize().digest()
            assert digest in states, "crash at call %d (%s)" % (
                k, calls[k - 1])
            recovered.add(digest)
            for seq in range(3):
                assert engine.dedup[("dev-up", seq)] == 10
            engine.close()
        # The crash points reach every boundary but the last.
        assert recovered == set(states[:-1])


class TestGenerationNames:
    def test_a_generation_past_999999_is_found(self, tmp_path):
        """``wal-g%06d`` is seven digits from generation 1,000,000 on,
        and the discovery pattern took exactly six: recovery and
        ``holds_store`` did not see that file, and the ACKed batch
        logged into it was gone after a crash."""
        from repro.store.engine import holds_store
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.wal.close()
        engine._open_wal(999_999)
        records = _records(2, device="dev")
        log_records(engine, records[:1], device="dev", first_seq=1)
        engine.checkpoint()
        newest = os.path.join(engine.data_dir, "wal-g1000000-s00.log")
        assert engine._wal_path() == newest
        log_records(engine, records[1:], device="dev", first_seq=2)
        engine.crash()
        info = engine.recover()
        assert (info.wal_files, info.wal_records) == (1, 1)
        assert engine.memtable.digest() == _reference(records).digest()
        assert (engine.dedup[("dev", 1)], engine.dedup[("dev", 2)]) \
            == (1, 1)
        assert engine.wal_paths() == [newest]
        engine.close()
        alone = tmp_path / "alone"
        alone.mkdir()
        os.replace(newest, str(alone / "wal-g1000000-s00.log"))
        assert holds_store(str(alone))


class TestRowOrder:
    """Checkpoint tables go through the segment blocks' row decoder
    and are held to the same rule: texts -- here the key as keyed,
    window first -- strictly ascending.
    A CRC-valid table in any other order -- the first writer's tuple
    order, a repeated key -- is the checkpoint's typed corruption."""

    def _checkpoint(self, tmp_path, raw_keys):
        """An empty store's checkpoint with its first table swapped
        for hand-built rows."""
        path = str(tmp_path / "hand.ckpt")
        write_checkpoint(path, RollupStore(), covers_gen=1)
        data = read_file(path)
        _header, tables_at, _status = encoding.read_frame(
            data, len(MAGIC))
        _empty, rest_at, _status = encoding.read_frame(data, tables_at)
        block = hand_built_row_block(raw_keys)
        write_file(path, data[:tables_at] + block + data[rest_at:])
        return path

    def test_hand_built_table_in_key_order_reads(self, tmp_path):
        path = self._checkpoint(
            tmp_path, [b"0|OpA|WIFI|DNS", b"0|OpB|WIFI|DNS"])
        store, covers_gen = read_checkpoint(path)
        assert covers_gen == 1
        assert list(store.tables[RollupStore.TABLES[0]]) \
            == [("0", "OpA", "WIFI", "DNS"), ("0", "OpB", "WIFI", "DNS")]

    def test_first_writers_row_order_is_corruption(self, tmp_path):
        """Tuple order: window 1 before window 10, OpA before OpA2 --
        the reverse of text order, ``|`` sorting above digits and
        letters.  Schema 1 let such a table through and sorted it;
        since schema 2 checkpoints are held to the segments' strict
        ascent."""
        raw_keys = [b"1|OpA|WIFI|DNS", b"1|OpA2|WIFI|DNS",
                    b"10|OpA|WIFI|DNS"]
        assert raw_keys != sorted(raw_keys)
        with pytest.raises(CheckpointCorruption,
                           match="rows out of key order"):
            read_checkpoint(self._checkpoint(tmp_path, raw_keys))
        read_checkpoint(self._checkpoint(tmp_path, sorted(raw_keys)))

    @pytest.mark.parametrize("raw_keys", [
        [b"0|Op\\B|WIFI|DNS"],                      # needless escape
        [b"0|OpB|WIFI|DNS\\"],                      # lone backslash
        [b"0|Op\\A|WIFI|DNS", b"0|OpA|WIFI|DNS"],   # one key, twice
    ], ids=["needless-escape", "trailing-backslash", "same-key-pair"])
    def test_key_text_no_writer_produces_rejected(self, tmp_path,
                                                  raw_keys):
        path = self._checkpoint(tmp_path, raw_keys)
        with pytest.raises(CheckpointCorruption,
                           match="not in canonical form"):
            read_checkpoint(path)

    def test_table_repeating_a_key_rejected(self, tmp_path):
        path = self._checkpoint(
            tmp_path, [b"0|OpA|WIFI|DNS", b"0|OpB|WIFI|DNS",
                       b"0|OpB|WIFI|DNS"])
        with pytest.raises(CheckpointCorruption,
                           match="rows out of key order"):
            read_checkpoint(path)


def _edit_header(path, edit):
    """Rewrite a checkpoint's header frame as ``edit`` leaves it,
    every table frame after it as written."""
    data = read_file(path)
    payload, tables_at, _status = encoding.read_frame(data, len(MAGIC))
    header = json.loads(payload)
    edit(header)
    write_file(path, MAGIC + encoding.frame(json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode())
        + data[tables_at:])


def _restamp_checkpoint(path, schema):
    _edit_header(path, lambda header: header.update(schema=schema))


class TestSchemaGate:
    """A sound checkpoint of another schema is not a torn one: it is
    refused by its own error, recovery stops, and nothing is moved."""

    @pytest.mark.parametrize("schema", [1, 2, CHECKPOINT_SCHEMA + 1])
    def test_other_schema_is_unsupported_not_corrupt(self, tmp_path,
                                                     schema):
        path = str(tmp_path / "other.ckpt")
        write_checkpoint(path, _reference(_records(30)), covers_gen=1)
        _restamp_checkpoint(path, schema)
        before = tree_bytes(str(tmp_path))
        with pytest.raises(UnsupportedSchema) as refused:
            read_checkpoint(path)
        assert not isinstance(refused.value, CheckpointCorruption)
        for told in (path, "schema %d " % schema,
                     "schema %d;" % CHECKPOINT_SCHEMA):
            assert told in str(refused.value)
        assert tree_bytes(str(tmp_path)) == before

    def test_recovery_stops_and_quarantines_nothing(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=40)
        engine.append_records(_records(100))
        names = engine.checkpoint_names()
        assert len(names) == 2
        engine.close()
        newest = os.path.join(engine.data_dir, names[-1])
        _restamp_checkpoint(newest, 1)
        before = read_file(newest)
        with pytest.raises(UnsupportedSchema, match=names[-1]):
            StoreEngine(engine.data_dir, obs=Observability())
        assert read_file(newest) == before
        assert not os.path.exists(
            os.path.join(engine.data_dir, QUARANTINE_DIR))
        manifest = json.loads(read_file(
            os.path.join(engine.data_dir, "MANIFEST.json")))
        assert [entry["name"] for entry in manifest["checkpoints"]] \
            == names


class TestDedupAndStreaming:
    def test_dedup_seeds_survive_checkpoint_recovery(self, tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=15)
        batches = [(str("dev-%d" % i), _records(10, device="dev-%d" % i))
                   for i in range(3)]
        for seq, (device, records) in enumerate(batches):
            for record in records:
                engine.memtable.add(record)
            engine.log_batch(device, seq, len(records), records)
        engine.crash()
        engine.recover()
        # Checkpointed batch identities come from the manifest seeds,
        # tail identities from WAL replay -- a replayed (device, seq)
        # must hit the dedup cache either way.
        for seq, (device, _records_) in enumerate(batches):
            assert engine.dedup[(device, seq)] == 10
        assert engine.memtable.records == 30
        engine.close()

    def test_recovery_streams_records_through_on_record(self,
                                                        tmp_path):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        records = _records(40)
        log_records(engine, records)
        engine.crash()
        seen = []
        info = engine.recover(on_record=seen.append)
        assert info.wal_records == 40
        assert len(seen) == 40
        assert not hasattr(info, "replayed_records")
        assert _reference(seen).digest() == _reference(records).digest()
        engine.close()


#: A sound envelope header over three lines, for the gate's tests to
#: break one way at a time.
_BATCH = {"acked": 3, "device": "dev-other", "kind": "batch", "n": 3,
          "seq": 99}


class TestEnvelopeGate:
    """One envelope form is written and one is read.  A checksummed
    frame holding anything else is another generation's, refused by
    name -- file and frame -- before a line of it reaches the
    memtable, with every byte on disk as it was."""

    def _refused(self, tmp_path, payload):
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        sound = _records(20)
        log_records(engine, sound)
        engine.wal.append(payload)
        engine.wal.commit()
        engine.close()
        before = tree_bytes(engine.data_dir)
        with pytest.raises(UnsupportedSchema) as refused:
            engine.recover()
        assert "%s frame 1 " % engine._wal_path() in str(refused.value)
        # The sound frame before it replayed; the refused one added
        # nothing, and nothing on disk moved.
        assert engine.memtable.digest() == _reference(sound).digest()
        assert tree_bytes(engine.data_dir) == before
        with pytest.raises(UnsupportedSchema):
            StoreEngine(engine.data_dir, obs=Observability())
        assert tree_bytes(engine.data_dir) == before

    def _body(self, records):
        return b"".join(b"\n" + record_to_line(r).encode()
                        for r in records)

    def test_v1_lines_envelope_is_refused(self, tmp_path):
        """The first writer's single JSON object with a ``lines``
        array: with its reader merely deleted it replays as zero
        records and recovery reports success."""
        legacy = _records(10, device="dev-legacy")
        envelope = {"kind": "bulk", "seq": 99,
                    "lines": [record_to_line(r) for r in legacy]}
        self._refused(tmp_path, json.dumps(
            envelope, sort_keys=True, separators=(",", ":")).encode())

    @pytest.mark.parametrize("header", [
        dict(_BATCH, n=2),                            # n != body lines
        {k: v for k, v in _BATCH.items() if k != "n"},  # no n at all
        dict(_BATCH, kind="snapshot"),                # unknown kind
        {k: v for k, v in _BATCH.items() if k != "kind"},  # no kind
        {"kind": "bulk", "n": 3, "seq": 99},          # the bulk load's
    ], ids=["short-n", "no-n", "unknown-kind", "no-kind", "bulk"])
    def test_header_not_this_builds_is_refused(self, tmp_path, header):
        """The last generation's ``bulk`` envelope is one of these:
        a bulk load writes no envelope any more, and the frame is
        refused like any other generation's."""
        self._refused(
            tmp_path,
            json.dumps(header, sort_keys=True,
                       separators=(",", ":")).encode()
            + self._body(_records(3, device="dev-other")))

    @pytest.mark.parametrize("head", [
        b"[1]",
        b'{"kind":"batch","n":0}',
        b"\xff\xfe",
        b'{"acked":3,"device":"d","kind":"batch","n":3,"seq":"x"}',
        b'{"acked":3,"device":"d","kind":"batch","n":3,"seq":1.5}',
        b'{"acked":0,"device":["d"],"kind":"batch","n":0,"seq":1}',
        b'{"acked":0,"device":"d","kind":"batch","n":0,"seq":1,"x":1}',
    ], ids=["array", "no-device", "not-utf8", "seq-text", "seq-float",
            "device-list", "extra-key"])
    def test_unreadable_header_is_refused(self, tmp_path, head):
        """A header this build's writer cannot have written raised
        ``AttributeError``, ``KeyError``, ``UnicodeDecodeError``,
        ``ValueError`` or ``TypeError`` -- or, for ``"seq": 1.5`` and
        an added key, replayed as if it had been written."""
        body = (self._body(_records(3, device="dev-other"))
                if b'"n":3' in head else b"")
        self._refused(tmp_path, head + body)

    def test_empty_batch_envelope_replays(self, tmp_path):
        """``n`` 0 over no body -- the dedup handoff's envelope -- is
        this build's own form."""
        engine, _obs = _engine(tmp_path, flush_threshold_records=None)
        engine.log_batch("dev-9", 4, 7, [], lines=[])
        engine.crash()
        info = engine.recover()
        assert (info.wal_frames, info.wal_records) == (1, 0)
        assert engine.dedup[("dev-9", 4)] == 7
        engine.close()


class TestStripedDirectories:
    def test_generation_an_older_build_striped_still_replays(
            self, tmp_path):
        """``wal_shards`` is gone; the ``-sNN`` in the file name and
        the discovery pattern are not.  A generation an older build
        split over two files replays whole, in stripe order; writing
        goes on in ``-s00`` and pruning takes every stripe."""
        from repro.store.wal import WriteAheadLog
        root = tmp_path / "striped"
        root.mkdir()
        stripes = [_records(10, device="dev-a"),
                   _records(10, device="dev-b")]
        for stripe, records in enumerate(stripes):
            wal = WriteAheadLog(
                str(root / ("wal-g000003-s%02d.log" % stripe)),
                obs=Observability())
            wal.append(StoreEngine._envelope(
                StoreEngine._batch_header("dev-%d" % stripe, 1,
                                          len(records), len(records)),
                [record_to_line(r).encode() for r in records]))
            wal.close()
        engine = StoreEngine(
            str(root), obs=Observability(),
            config=StoreConfig(flush_threshold_records=None))
        info = engine.last_recovery
        assert (info.wal_files, info.wal_records) == (2, 20)
        assert engine.memtable.digest() \
            == _reference(stripes[0] + stripes[1]).digest()
        assert engine._wal_path() == str(root / "wal-g000003-s00.log")
        engine.checkpoint()
        log_records(engine, _records(5, device="dev-c"), device="dev-c")
        engine.checkpoint()
        assert [os.path.basename(path) for path in engine.wal_paths()] \
            == ["wal-g000004-s00.log", "wal-g000005-s00.log"]
        engine.close()


class TestSchemaWidening:
    """The header's ``tables`` list is the read contract, held to the
    segment footer's rule: a header of this schema that lacks a
    rollup table (the five-table checkpoints taken before PR 9
    widened ``RollupStore.TABLES``) or a counter is corrupt, not
    "loads empty"; one naming a table this build does not know is
    decoded (to keep frame positions honest) and dropped."""

    OLD_TABLES = ("network", "app", "watch_domain", "watch_network",
                  "lte_domain")

    def test_header_lacking_a_table_is_corrupt(self, tmp_path,
                                               monkeypatch):
        path = str(tmp_path / "old.ckpt")
        with monkeypatch.context() as patch:
            patch.setattr(RollupStore, "TABLES", self.OLD_TABLES)
            write_checkpoint(path, _reference(_records(90)),
                             covers_gen=3)
        with pytest.raises(CheckpointCorruption,
                           match="every rollup table"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "field", ["failure_records", "records", "covers_gen", "tables"])
    def test_header_lacking_a_field_is_corrupt(self, tmp_path, field):
        path = str(tmp_path / "short.ckpt")
        write_checkpoint(path, _reference(_records(30)), covers_gen=1)
        _edit_header(path, lambda header: header.pop(field))
        with pytest.raises(CheckpointCorruption, match=field):
            read_checkpoint(path)

    def test_unknown_header_table_decoded_and_dropped(self, tmp_path,
                                                      monkeypatch):
        records = _records(60)
        store = _reference(records)
        store.tables["flux_capacitor"] = \
            dict(store.tables["network"])
        path = str(tmp_path / "future.ckpt")
        with monkeypatch.context() as patch:
            patch.setattr(RollupStore, "TABLES",
                          RollupStore.TABLES + ("flux_capacitor",))
            write_checkpoint(path, store, covers_gen=1)
        del store.tables["flux_capacitor"]
        loaded, _covers_gen = read_checkpoint(path)
        assert "flux_capacitor" not in loaded.tables
        assert loaded.digest() == store.digest()
