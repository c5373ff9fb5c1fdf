"""Checkpoint semantics: bounded replay, a lost manifest,
torn-checkpoint quarantine + fallback, dedup seeding, and the one WAL
envelope form recovery replays.  Crashes at each step of the
checkpoint sequence are ``tests/test_store_model.py``'s."""

import json
import os

import pytest

from repro.backend.rollups import RollupStore
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine
from repro.store.engine import QUARANTINE_DIR
from repro.store.segments import (
    SEGMENT_SCHEMA,
    TAIL_MAGIC,
    SegmentCorruption,
    SegmentReader,
    UnsupportedSchema,
    merged_rollups,
    read_checkpoint,
    write_checkpoint,
)
from tests.conftest import (CLOSES_WHAT_IT_OPENS, log_records, read_file,
                            tree_bytes)
from tests.test_store_segments import _rewrite_footer

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

    def test_torn_checkpoint_falls_back_to_the_previous(self,
                                                        tmp_path):
        records = _records(180)
        engine, obs = _engine(tmp_path, flush_threshold_records=None,
                              checkpoint_interval_records=None)
        log_records(engine, records[:100])
        first = engine.checkpoint()
        # A checkpoint is a segment file of the memtable.
        with SegmentReader(os.path.join(engine.data_dir, first)) \
                as reader:
            assert merged_rollups([reader], reader.config).digest() \
                == engine.memtable.digest()
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

    def test_a_restart_keeps_the_wal_a_torn_checkpoint_needs(self,
                                                            tmp_path):
        """Recovery used to delete every WAL generation the checkpoint
        it loaded covers, which the live engine keeps until a second
        checkpoint exists: after a restart, a torn only checkpoint had
        30 of the 130 ACKed records behind it."""
        records = _records(130)
        engine, _obs = _engine(tmp_path, flush_threshold_records=None,
                               checkpoint_interval_records=None)
        log_records(engine, records[:100])
        name = engine.checkpoint()
        log_records(engine, records[100:], first_seq=1)
        engine.close()
        kept = engine.wal_paths()
        for torn in (False, True):
            if torn:
                _corrupt_tail(os.path.join(engine.data_dir, name))
            reopened = StoreEngine(engine.data_dir, obs=Observability())
            assert reopened.wal_paths() == kept
            assert reopened.memtable.digest() \
                == _reference(records).digest()
            reopened.close()
        assert reopened.last_recovery.wal_records == 130


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
        kept = engine.wal_paths()
        engine.crash()
        info = engine.recover()
        assert (info.wal_files, info.wal_records) == (1, 1)
        assert engine.memtable.digest() == _reference(records).digest()
        assert (engine.dedup[("dev", 1)], engine.dedup[("dev", 2)]) \
            == (1, 1)
        assert engine.wal_paths() == kept and kept[-1] == newest
        engine.close()
        alone = tmp_path / "alone"
        alone.mkdir()
        os.replace(newest, str(alone / "wal-g1000000-s00.log"))
        assert holds_store(str(alone))


def _restamp_checkpoint(path, schema):
    """Stamp the footer of checkpoint ``path`` -- a segment file --
    with ``schema``, every block as written."""
    _rewrite_footer(path, lambda footer: footer.update(schema=schema))


class TestSchemaGate:
    """A sound checkpoint of another schema is not a torn one: it is
    refused by its own error, recovery stops, and nothing is moved."""

    @pytest.mark.parametrize("schema", [1, 2, 4])
    def test_other_schema_is_unsupported_not_corrupt(self, tmp_path,
                                                     schema):
        path = str(tmp_path / "other.ckpt")
        write_checkpoint(path, _reference(_records(30)), 1)
        _restamp_checkpoint(path, schema)
        before = tree_bytes(str(tmp_path))
        with pytest.raises(UnsupportedSchema) as refused:
            read_checkpoint(path)
        assert not isinstance(refused.value, SegmentCorruption)
        for told in (path, "schema %d " % schema,
                     "schema %d;" % SEGMENT_SCHEMA):
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
