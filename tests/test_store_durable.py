"""The durable seam (``repro.store.durable``): the ordered sequence of
durable steps a store makes over its whole life -- open, upload, flush,
checkpoint, compaction, bulk load, and a recovery that cuts a torn WAL
tail and quarantines a corrupt segment."""

import os

from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine, durable
from tests.conftest import CLOSES_WHAT_IT_OPENS
from tests.test_store_engine import _records

pytestmark = CLOSES_WHAT_IT_OPENS

COUNTERS = {"rename": "store.durable.renames",
            "create": "store.durable.creates",
            "dir_sync": "store.durable.dir_syncs",
            "truncate": "store.durable.truncates",
            "remove": "store.durable.removes"}


def _is_wal(path):
    name = os.path.basename(path)
    return name.startswith("wal") and name.endswith(".log")


def _flip_a_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def test_every_rename_and_create_is_synced_before_the_call_returns(
        tmp_path, monkeypatch):
    steps = []
    real = durable._step

    def step(obs, kind, path, call, *args):
        result = real(obs, kind, path, call, *args)
        steps.append((kind, os.path.abspath(path)))
        return result

    monkeypatch.setattr(durable, "_step", step)
    calls = []

    def run(name, method, *args):
        start = len(steps)
        result = method(*args)
        calls.append((name, steps[start:]))
        return result

    obs = Observability()
    records = iter(_records(200))
    batches = iter(range(100))
    root = str(tmp_path / "store")
    engine = run("open", lambda: StoreEngine(
        root, obs=obs, config=StoreConfig(
            flush_threshold_records=None,
            checkpoint_interval_records=None)))

    def log_batch(n=10):
        batch = [next(records) for _ in range(n)]
        engine.memtable.add_all(batch)
        engine.log_batch("dev-1", next(batches), n, batch)

    run("log_batch", log_batch)
    run("flush", engine.flush)
    run("log_batch", log_batch)
    run("checkpoint", engine.checkpoint)
    run("log_batch", log_batch)
    run("flush", engine.flush)
    run("compact", engine.compact, None, True)
    run("append_records", engine.append_records,
        [next(records) for _ in range(30)])
    run("log_batch", log_batch)
    run("log_batch", log_batch)
    segment = os.path.join(root, "segments", engine.segment_names()[0])
    engine.crash()
    wal = engine._wal_path()
    with open(wal, "r+b") as handle:
        handle.truncate(os.path.getsize(wal) - 3)
    _flip_a_byte(segment, 20)
    run("recover", engine.recover)
    info = engine.last_recovery
    assert info.torn_tail and info.segments_quarantined == 1
    engine.close()

    # Every rename and every create is followed, before the call that
    # made it returns, by a sync of the directory that holds it.
    for name, made in calls:
        for i, (kind, path) in enumerate(made):
            if kind in ("rename", "create"):
                assert ("dir_sync", os.path.dirname(path)) in made[i + 1:], \
                    (name, kind, path)
    # A plain upload -- no flush, no checkpoint -- is one fsync of its
    # WAL file and nothing else: no directory sync on the common ACK.
    for name, made in calls:
        if name == "log_batch":
            assert [kind for kind, _path in made] == ["fsync"]
            assert _is_wal(made[0][1])
    # The seam's counters are the sequence's counts.
    kinds = [kind for kind, _path in steps]
    for kind, counter in COUNTERS.items():
        assert kinds.count(kind) > 0, kind
        assert obs.value(counter) == kinds.count(kind), kind
    # An fsync of a WAL file is a commit, a new generation's header
    # or the cut of a torn tail.
    on_wal = [kind for kind, path in steps if _is_wal(path)]
    assert on_wal.count("fsync") == obs.value("store.wal_fsyncs") \
        + on_wal.count("create") + on_wal.count("truncate")
