"""Segments merge as columns (``repro.store.segments.merge_segments``).

Held to the row-by-row merge it replaced, kept here as the reference:
every input read back into a ``RollupStore`` (each key split, each
histogram built), the stores merged, retention applied to the keys,
and ``write_segment`` of the result.  The column merge must write the
same bytes and read back the same rows, for keys of every awkward
shape, empty tables, counts past 32 bits, overflow, any block size and
any retention cutoff -- and, counted with no clock, ``compact()``
builds no histogram, no store and splits no key doing it."""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import rollups
from repro.backend.rollups import (
    N_BINS,
    TABLE_SPECS,
    MergeHist,
    RollupConfig,
    RollupStore,
)
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine, encoding, segments
from repro.store.segments import (
    SegmentReader,
    merge_segments,
    merged_rollups,
    write_segment,
)
from tests.conftest import segment_store

_PART = st.text(alphabet=st.sampled_from(
    ["a", "b", "|", "\\", "é", "中", "\U0001f600", " "]),
    max_size=3)
_WINDOW = st.integers(min_value=-2, max_value=9).map(str)


def _key(spec):
    return st.tuples(*[_WINDOW if part == "window" else _PART
                       for part in spec.key])


@st.composite
def _hist(draw):
    hist = MergeHist()
    hist.bins = draw(st.dictionaries(
        st.one_of(st.integers(0, 40), st.integers(N_BINS - 3,
                                                  N_BINS - 1)),
        st.one_of(st.integers(1, 9), st.integers(1 << 32, 1 << 40)),
        max_size=6))
    hist.count = draw(st.one_of(st.integers(0, 200),
                                st.integers(1 << 32, 1 << 44)))
    hist.overflow = draw(st.integers(0, 3))
    return hist


@st.composite
def _segment_stores(draw, config):
    """One to four stores over a shared pool of keys per table (so
    texts repeat across segments), some tables left empty."""
    pools = {spec.name: draw(st.lists(_key(spec), max_size=12,
                                      unique=True))
             for spec in TABLE_SPECS}
    stores = []
    for _ in range(draw(st.integers(1, 4))):
        store = RollupStore(config=config)
        store.records = draw(st.integers(0, 1 << 40))
        store.failure_records = draw(st.integers(0, 50))
        for name, pool in pools.items():
            for key in pool:
                if draw(st.booleans()):
                    store.tables[name][key] = draw(_hist())
        stores.append(store)
    return stores


def _reference(paths, config, cutoff, out, seq, block_rows):
    """The row-by-row merge: each segment read back as a store, the
    stores merged, old windows' rows deleted, the result written."""
    merged = RollupStore(config=config)
    for path in paths:
        with SegmentReader(path) as reader:
            merged.merge(segment_store(reader))
    if cutoff is not None:
        for spec in TABLE_SPECS:
            if spec.windowed:
                rows = merged.tables[spec.name]
                for key in [key for key in rows if int(key[0]) < cutoff]:
                    del rows[key]
    write_segment(out, merged, seq, block_rows=block_rows)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


@given(data=st.data(),
       block_rows=st.sampled_from([1, 2, 3, 7, 256]),
       cutoff=st.one_of(st.none(), st.integers(-3, 10)))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_column_merge_writes_the_row_merges_bytes(data, block_rows,
                                                  cutoff):
    config = RollupConfig(window_ms=1000.0)
    stores = data.draw(_segment_stores(config))
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for seq, store in enumerate(stores, 1):
            path = os.path.join(root, "seg-%06d.seg" % seq)
            write_segment(path, store, seq,
                          block_rows=data.draw(st.sampled_from([1, 4,
                                                                256])))
            paths.append(path)
        want = os.path.join(root, "want.seg")
        _reference(paths, config, cutoff, want, 99, block_rows)
        readers = [SegmentReader(path) for path in paths]
        try:
            merged = merge_segments(readers, config, cutoff)
            rows = merged_rollups(readers, config)
        finally:
            for reader in readers:
                reader.close()
        got = os.path.join(root, "got.seg")
        size = merged.write(got, 99, block_rows=block_rows)
        assert _read(got) == _read(want)
        assert size == os.path.getsize(want)
        whole = RollupStore(config=config)
        for store in stores:
            whole.merge(store)
        assert rows.digest() == whole.digest()
        assert rows.failure_records == whole.failure_records
        if cutoff is not None:
            evicted = {window for reader_store in stores
                       for window in reader_store.windows()
                       if window < cutoff}
            assert merged.evicted_windows == len(evicted)


def test_a_sum_past_64_bits_is_refused():
    """Three counts whose sum no column holds: the merge raises the
    encoder's ``ValueError`` instead of wrapping around."""
    config = RollupConfig()
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for seq in (1, 2, 3):
            store = RollupStore(config=config)
            hist = store.tables["lte_domain"][("d", "Op")] = MergeHist()
            hist.count = (1 << 63) - 1
            hist.bins = {5: 1}
            path = os.path.join(root, "seg-%06d.seg" % seq)
            write_segment(path, store, seq)
            paths.append(path)
        readers = [SegmentReader(path) for path in paths]
        with pytest.raises(ValueError, match="2\\*\\*63"):
            merge_segments(readers, config).write(
                os.path.join(root, "out.seg"), 4)
        for reader in readers:
            reader.close()


def _rec(i):
    day = 24 * 3600 * 1000.0
    return MeasurementRecord(
        kind="TCP", rtt_ms=15.0 + i % 40, timestamp_ms=(i % 5) * day,
        app_package="com.app.%d" % (i % 7), app_uid=10001,
        dst_ip="203.0.113.1", dst_port=443,
        domain="d%d.example" % (i % 3),
        network_type="LTE" if i % 3 == 0 else "WIFI",
        operator="Op%d" % (i % 4), country="US", device_id="dev-1")


def test_compaction_builds_no_histogram_and_splits_no_key(tmp_path,
                                                          monkeypatch):
    """Four segments compacted: no ``MergeHist``, no ``RollupStore``,
    no key split and no key put back in keyed order -- and the result
    reads back equal to a store fed the same records."""
    engine = StoreEngine(str(tmp_path / "store"),
                         config=StoreConfig(flush_threshold_records=None),
                         obs=Observability())
    records = [_rec(i) for i in range(400)]
    for start in range(0, 400, 100):
        engine.append_records(records[start:start + 100])
        engine.flush()
    calls = []

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(MergeHist, "__init__")
    counted(MergeHist, "copy")
    counted(RollupStore, "__init__")
    for module in (rollups, segments, encoding):
        counted(module, "_decode_key")
    counted(segments, "stored_order")
    assert engine.compact()
    assert calls == []
    monkeypatch.undo()
    reference = RollupStore()
    reference.add_all(records)
    assert engine.materialize().digest() == reference.digest()
    engine.close()


def test_materialize_is_the_merged_columns_then_the_memtable(tmp_path):
    """``materialize()`` over segments and an un-flushed memtable, in
    the engine and in a pinned view, equals a store fed every record."""
    from repro.serve import QueryEngine
    engine = StoreEngine(str(tmp_path / "store"),
                         config=StoreConfig(flush_threshold_records=None),
                         obs=Observability())
    records = [_rec(i) for i in range(300)]
    for start in (0, 100):
        engine.append_records(records[start:start + 100])
        engine.flush()
    engine.append_records(records[200:])
    reference = RollupStore()
    reference.add_all(records)
    assert engine.materialize().digest() == reference.digest()
    with QueryEngine(engine).snapshot() as view:
        assert view.materialize().digest() == reference.digest()
    engine.close()
