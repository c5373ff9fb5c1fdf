"""Copy-on-write rows between a ``RollupStore`` and its clones.

``clone()`` shares every histogram and leaves the copy to whichever
store writes a row first.  Three angles on that contract: a model test
against the deep copy it replaced, counts of the copies actually made,
and the same protection for the block cache's rows behind
``SegmentReader.to_store()``."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.ingest import fold_shard_part, pack_shard_part
from repro.backend.rollups import MergeHist, RollupStore
from repro.core.records import MeasurementRecord
from repro.store import BlockCache, StoreConfig, StoreEngine
from repro.store.segments import ReadStats, SegmentReader, write_segment

DAY_MS = 24 * 3600 * 1000.0


def _rec(kind="TCP", rtt=100.0, window=0, app="com.app.a",
         domain=None, operator="OpA", tech="WIFI", failure=None):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=window * 28 * DAY_MS,
        app_package=app, domain=domain, network_type=tech,
        operator=operator, device_id="dev-1", failure=failure)


# -- model test -------------------------------------------------------------

def _deep_clone(store):
    """The reference: ``RollupStore.clone`` as it was before rows were
    shared -- one private histogram per group, nothing in common."""
    dup = RollupStore(config=store.config, meta=store.meta)
    dup.records = store.records
    dup.failure_records = store.failure_records
    for table in RollupStore.TABLES:
        for key, hist in store.tables[table].items():
            own = dup.tables[table][key] = MergeHist()
            own.bins = dict(hist.bins)
            own.count = hist.count
            own.overflow = hist.overflow
    return dup


# A handful of values per field, so keys collide constantly.
_RECORDS = st.builds(
    _rec,
    kind=st.sampled_from(["TCP", "TCP", "DNS", "APP_RTT", "TPUT_UP",
                          "ENERGY", "AOI"]),
    rtt=st.sampled_from([0.1, 20.0, 20.1, 750.0, 9000.0]),
    window=st.sampled_from([0, 1]),
    app=st.sampled_from(["com.app.a", "com.app.b", None]),
    domain=st.sampled_from([None, "e1.whatsapp.net", "d.example"]),
    operator=st.sampled_from(["OpA", "OpB"]),
    tech=st.sampled_from(["WIFI", "LTE"]),
    failure=st.sampled_from([None, None, None, "timeout"]))

_INDEX = st.integers(min_value=0, max_value=7)
_OPS = st.one_of(
    st.tuples(st.just("add"), _INDEX, _RECORDS),
    st.tuples(st.just("add_all"), _INDEX,
              st.lists(_RECORDS, max_size=6)),
    st.tuples(st.just("merge"), _INDEX, _INDEX),
    st.tuples(st.just("clone"), _INDEX),
    st.tuples(st.just("clear"), _INDEX),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash_recover")))

MAX_STORES = 6


@settings(max_examples=120, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_shared_rows_behave_like_deep_copies(ops):
    """Random interleavings of writes, clones, clones of clones,
    merges, in-place clears and crash recovery.  Store 0 is a durable
    engine's memtable (its writes go through the WAL); the rest are
    its clones and theirs.  After every step every live store must
    snapshot exactly as its deep-copied model does."""
    with tempfile.TemporaryDirectory() as data_dir:
        engine = StoreEngine(
            data_dir, config=StoreConfig(flush_threshold_records=None))
        stores = [engine.memtable]
        models = [RollupStore(config=engine.memtable.config)]
        # What recovery must rebuild: the last checkpoint's content
        # plus every record logged since.
        durable = _deep_clone(models[0])

        def write(index, records):
            if index == 0:
                engine.append_records(records)
                durable.add_all(records)
            else:
                stores[index].add_all(records)
            models[index].add_all(records)

        for op in ops:
            name = op[0]
            index = op[1] % len(stores) if len(op) > 1 else 0
            if name == "add":
                if index == 0:
                    write(0, [op[2]])
                else:
                    stores[index].add(op[2])
                    models[index].add(op[2])
            elif name == "add_all":
                write(index, op[2])
            elif name == "merge":
                other = op[2] % len(stores)
                if other != index:
                    stores[index].merge(stores[other])
                    models[index].merge(models[other])
            elif name == "clone" and len(stores) < MAX_STORES:
                stores.append(stores[index].clone())
                models.append(_deep_clone(models[index]))
            elif name == "clear":
                stores[index].clear()
                models[index] = RollupStore(config=models[index].config,
                                            meta=models[index].meta)
            elif name == "checkpoint":
                if engine.checkpoint() is not None:
                    durable = _deep_clone(models[0])
            elif name == "crash_recover":
                engine.crash()
                engine.recover()
                assert stores[0] is engine.memtable
                models[0] = _deep_clone(durable)
            for store, model in zip(stores, models):
                assert store.snapshot() == model.snapshot()
        engine.close()


# -- how many rows are actually copied --------------------------------------

@pytest.fixture
def copies(monkeypatch):
    """Every ``MergeHist.copy`` call made while the test runs."""
    made = []
    original = MergeHist.copy

    def counted(self):
        made.append(self)
        return original(self)

    monkeypatch.setattr(MergeHist, "copy", counted)
    return made


def _many_groups(n_apps=300):
    store = RollupStore()
    store.add_all(_rec(app="com.app.%03d" % i, window=i % 3,
                       operator="Op%d" % (i % 7), rtt=10.0 + i % 50)
                  for i in range(n_apps))
    return store


def test_clone_copies_no_histogram(copies):
    store = _many_groups()
    assert store.group_count() > 300
    dup = store.clone()
    assert copies == []
    assert dup.digest() == store.digest()
    assert copies == []                      # nor does reading


def test_first_write_after_clone_copies_one_row_per_route(copies):
    store = _many_groups()
    view = store.clone()
    before = view.digest()
    # One TCP record on WIFI with no watched domain routes to exactly
    # two rows, one in `network` and one in `app`; both exist already.
    record = _rec(app="com.app.007", window=7 % 3, operator="Op0")
    store.add(record)
    assert len(copies) == 2
    store.add(record)                        # the rows are ours now
    store.add(record)
    assert len(copies) == 2
    # k records over distinct apps: at most one copy per route each.
    del copies[:]
    store.add_all(_rec(app="com.app.%03d" % i, window=i % 3,
                       operator="Op%d" % (i % 7))
                  for i in range(100, 120))
    assert 20 <= len(copies) <= 40
    # A key the clone never saw is created, not copied.
    del copies[:]
    store.add(_rec(app="com.app.new", operator="OpNew"))
    assert copies == []
    assert view.digest() == before
    # The clone pays the same way when it is the one written.
    view.add(record)
    assert len(copies) == 2


def test_a_store_never_cloned_copies_nothing(copies):
    """The offline bulk path: ingest, worker parts adopted and merged
    by the parent, store-to-store merges -- no clone, so no copy."""
    left, right = _many_groups(), _many_groups(200)
    left.add_all(_rec(app="com.app.%03d" % i) for i in range(50))
    left.merge(right)
    folded = None
    for store in (left, right):
        folded = fold_shard_part(folded, left.config,
                                 pack_shard_part(store))
    folded.add_all(_rec(app="com.app.%03d" % i) for i in range(50))
    folded.merge(left)
    assert copies == []


def test_recovered_memtable_is_written_in_place(tmp_path, copies):
    """Recovery merges the checkpoint into the memtable and replays
    the WAL tail on top: rows it built itself, so still no copy."""
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None))
    engine.append_records(_rec(app="com.app.%03d" % i)
                          for i in range(60))
    engine.checkpoint()
    engine.append_records(_rec(app="com.app.%03d" % i)
                          for i in range(30, 90))
    engine.crash()
    info = engine.recover()
    assert (info.checkpoint_records, info.wal_records) == (60, 60)
    engine.append_records(_rec(app="com.app.%03d" % i)
                          for i in range(90))
    assert copies == []
    engine.close()


# -- the block cache's rows -------------------------------------------------

def _rows(store):
    return {table: {key: hist.to_dict()
                    for key, hist in store.tables[table].items()}
            for table in RollupStore.TABLES}


@pytest.mark.parametrize("write", ["add", "merge"])
def test_writing_a_to_store_result_leaves_the_cache_alone(tmp_path,
                                                          write):
    """``to_store()`` hands out the block cache's own histograms in a
    writable store.  A write to that store must land on a copy: the
    next reader of the same blocks through the same cache still sees
    what is on disk."""
    source = _many_groups(40)
    path = str(tmp_path / "seg-000001.seg")
    write_segment(path, source, 1, block_rows=8)
    on_disk = _rows(source)
    cache = BlockCache(1 << 20)
    with SegmentReader(path, cache=cache) as reader:
        loaded = reader.to_store()
        if write == "add":
            loaded.add_all(_rec(app="com.app.%03d" % i, window=i % 3,
                                operator="Op%d" % (i % 7))
                           for i in range(40))
        else:
            loaded.merge(source)
        assert loaded.records == 2 * source.records
        assert _rows(loaded) != on_disk
    stats = ReadStats()
    with SegmentReader(path, cache=cache, stats=stats) as again:
        assert _rows(again.to_store()) == on_disk
    assert stats.cache_hits > 0 and stats.cache_misses == 0
