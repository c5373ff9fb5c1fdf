"""The read path keeps a block keyed as it is stored: by encoded key
text, in stored order.  These tests pin what that must not change --
every read primitive and both panels still equal the answer computed
from the merged ``RollupStore``, for keys of every awkward shape,
under two hash seeds -- and, as counts with no clock in them, what it
is for: a prefix scan splits only the keys it yields, a key set is
encoded once however many segments are asked, a histogram's bins are
sorted once per readout, and a view works out its window list and its
fleet AoI summary once."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend import IngestPipeline
from repro.backend import rollups as rollups_module
from repro.backend.rollups import (
    MergeHist,
    RollupStore,
    _decode_key,
    _encode_key,
)
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.serve import QueryEngine, ReadView
from repro.serve import engine as serve_engine
from repro.store import BlockCache, StoreConfig, StoreEngine
from repro.store import segments
from repro.store.segments import ReadStats, SegmentReader, write_segment

DAY_MS = 24 * 3600 * 1000.0
CEILING = "\U0010ffff"


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _hist(*values):
    hist = MergeHist()
    for value in values:
        hist.add(value)
    return hist


def _rec(kind="TCP", rtt=100.0, ts=0.0, operator="OpA", tech="WIFI",
         app="com.app.a", device="dev-1"):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        network_type=tech, operator=operator, country="US",
        device_id=device)


def _counting(function, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    return counted


# -- the prefix range ends at the prefix's exact successor -------------------


def test_key_part_starting_at_the_last_code_point_is_not_pruned(
        tmp_path):
    """513 rows for one operator fill two blocks; the second block's
    only row -- its zone map's ``min`` -- has a ``network_type`` that
    begins with U+10FFFF.  A range ending at ``low + U+10FFFF`` puts
    that row at or above its end and prunes the block: the panel
    answered 512 where the scan answered 513."""
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    pipe = IngestPipeline(store=engine, obs=engine.obs,
                          rate_capacity=1e9)
    techs = ["T%04d" % i for i in range(512)] + [CEILING + "zz"]
    for seq in range(0, len(techs), 50):
        lines = [record_to_line(_rec(tech=tech, rtt=20.0))
                 for tech in techs[seq:seq + 50]]
        outcome = pipe.handle_batch(
            "dev-1", seq, ("\n".join(lines) + "\n").encode("utf-8"),
            now_ms=float(seq))
        assert (outcome.status, outcome.acked) == ("ack", len(lines))
    engine.flush()
    assert len(engine.segment_names()) == 1
    with QueryEngine(engine).snapshot() as view:
        (reader,) = view.readers
        assert [block["rows"] for block in reader.blocks("network")] \
            == [256, 256, 1]
        pruned = view.network_panel("OpA")
        scanned = view.network_panel("OpA", scan=True)
        assert pruned["overall"]["count"] == 513
        assert _canonical(pruned) == _canonical(scanned)
        assert len(pruned["technologies"]) == 513
    engine.close()


def test_prefix_range_is_exactly_the_keys_under_the_prefix():
    low, high = segments.prefix_range(("7", "Op|A"))
    assert low == "7|Op\\|A|" and high == "7|Op\\|A}"
    inside = _encode_key(("7", "Op|A", CEILING, "TCP"))
    assert low <= inside < high and inside.startswith(low)
    for outside in (("7", "Op|A"), ("7", "Op|A2", "x"),
                    ("7", "Op|", "A"), ("70", "Op|A", "x")):
        text = _encode_key(outside)
        assert not low <= text < high and not text.startswith(low)
    assert segments.prefix_range(()) == ("", None)


# -- awkward keys: every read equals the merged store ------------------------

_WINDOWS = st.sampled_from(["1", "10", "100"])
_PARTS = st.one_of(
    st.sampled_from(["OpA", "OpA2", "Op", "", "|", "\\", "a|b", "a\\",
                     "\\|", CEILING, CEILING + "zz", "}", "~",
                     "déjà", "中国移动"]),
    st.text(alphabet="aA2|\\}é" + CEILING, max_size=4))

#: Key shapes of the five windowed tables the panels read.
_SHAPES = {
    "network": st.tuples(_WINDOWS, _PARTS, _PARTS,
                         st.sampled_from(["TCP", "DNS", "APP_RTT"])),
    "app": st.tuples(_WINDOWS, _PARTS,
                     st.sampled_from(["TCP", "APP_RTT"])),
    "app_throughput": st.tuples(
        _WINDOWS, _PARTS, st.sampled_from(["TPUT_UP", "TPUT_DOWN"])),
    "app_energy": st.tuples(_WINDOWS, _PARTS),
    "aoi": st.tuples(_WINDOWS, _PARTS, _PARTS),
}
_BINS = st.dictionaries(st.integers(0, 31_999), st.integers(1, 9),
                        min_size=1, max_size=4)


@st.composite
def _spread_tables(draw):
    """``(parts, block_rows)``: 1-4 segments' worth of rows plus a
    memtable's (the last part), a row landing in one or more parts."""
    n_parts = draw(st.integers(2, 5))
    parts = [{name: {} for name in _SHAPES} for _ in range(n_parts)]
    for name, shape in _SHAPES.items():
        rows = draw(st.dictionaries(shape, _BINS, max_size=10))
        for key, bins in rows.items():
            homes = draw(st.sets(st.integers(0, n_parts - 1),
                                 min_size=1, max_size=n_parts))
            for home in homes:
                parts[home][name][key] = bins
    return parts, draw(st.integers(2, 8))


def _store_of(tables):
    store = RollupStore()
    for name, rows in tables.items():
        for key, bins in rows.items():
            hist = MergeHist()
            hist.bins = dict(bins)
            hist.count = sum(bins.values())
            store.tables[name][key] = hist
            store.records += hist.count
    return store


def _same_rows(got, want):
    assert set(got) == set(want)
    for key, hist in want.items():
        assert got[key].to_dict() == hist.to_dict(), key


_OPERATOR_PAIR = [
    {"network": {("1", "OpA", "WIFI", "TCP"): {4: 1},
                 ("10", "OpA", "WIFI", "TCP"): {4: 2},
                 ("1", "OpA2", "WIFI", "TCP"): {4: 3},
                 ("1", "OpA", CEILING + "zz", "TCP"): {8: 1},
                 ("1", "OpA", "", "DNS"): {8: 2}},
     "app": {("1", "a|b", "TCP"): {4: 1}, ("1", "a\\", "TCP"): {4: 1}},
     "app_throughput": {}, "app_energy": {},
     "aoi": {("1", "dev", CEILING): {9: 1}}},
    {name: {} for name in _SHAPES},
]


class TestAwkwardKeys:
    @given(spread=_spread_tables())
    @example(spread=(_OPERATOR_PAIR, 2))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_reads_equal_the_merged_store(self, spread, tmp_path):
        parts, block_rows = spread
        stores = [_store_of(tables) for tables in parts]
        merged = RollupStore()
        for store in stores:
            merged.merge(store)
        stats = ReadStats()
        readers = []
        for seq, store in enumerate(stores[:-1]):
            path = str(tmp_path / ("seg-%d.seg" % seq))
            write_segment(path, store, seq=seq, block_rows=block_rows)
            readers.append(SegmentReader(path, stats=stats))
        view = ReadView(readers=readers, memtable=stores[-1],
                        stats=stats)
        reference = ReadView.from_rollups(merged)
        try:
            self._check(view, reference, merged, stores)
        finally:
            view.close()

    def _check(self, view, reference, merged, stores):
        for reader, store in zip(view.readers, stores):
            for name in _SHAPES:
                assert [(key, hist.to_dict())
                        for key, hist in reader.iter_table(name)] \
                    == [(key, store.tables[name][key].to_dict())
                        for key in sorted(store.tables[name],
                                          key=_encode_key)]
        for name in _SHAPES:
            table = merged.tables[name]
            absent = [key[:-1] + (key[-1] + "2",) for key in table] \
                + [key[:1] + ("",) + key[2:] for key in table]
            absent = [key for key in absent if key not in table]
            for key in table:
                assert view.get(name, key).to_dict() \
                    == table[key].to_dict()
            for key in absent:
                assert view.get(name, key) is None
            _same_rows(view.get_many(name, list(table) + absent),
                       table)
            _same_rows(view._scan_table(name, cached=False), table)
            arity = len(next(iter(table), ()))
            for n in range(arity):
                prefixes = sorted({key[:n] for key in table})
                for prefix in prefixes:
                    _same_rows(view.scan_prefix(name, prefix),
                               {key: hist for key, hist in table.items()
                                if key[:n] == prefix})
                _same_rows(view.scan_prefixes(name, prefixes[::2]),
                           {key: hist for key, hist in table.items()
                            if key[:n] in prefixes[::2]})
        apps = {key[1] for name in ("app", "app_throughput",
                                    "app_energy")
                for key in merged.tables[name]}
        for app in sorted(apps) + ["com.absent"]:
            want = _canonical(reference.app_panel(app))
            assert _canonical(view.app_panel(app)) == want
            assert _canonical(view.app_panel(app, scan=True)) == want
        operators = {key[1] for key in merged.tables["network"]}
        for operator in sorted(operators) + ["OpAbsent"]:
            want = _canonical(reference.network_panel(operator))
            assert _canonical(view.network_panel(operator)) == want
            assert _canonical(view.network_panel(operator, scan=True)) \
                == want

    @pytest.mark.parametrize("hash_seed", ["0", "271828"])
    def test_holds_under_either_hash_seed(self, hash_seed):
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(root, "src"))
        node = "%s::TestAwkwardKeys::test_reads_equal_the_merged_store" \
            % os.path.join("tests", os.path.basename(__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", node],
            cwd=root, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


# -- counts ------------------------------------------------------------------


def test_prefix_scan_splits_exactly_the_keys_it_yields(tmp_path,
                                                       monkeypatch):
    """One cached 256-row block, one prefix holding 64 of its rows:
    the block is bisected, the 64 are split into tuples, the other 192
    are never touched -- and reading the block for ``verify`` or a
    point read splits none."""
    store = RollupStore()
    for operator in range(4):
        for tech in range(64):
            store.tables["network"][
                ("0", "Op%d" % operator, "T%02d" % tech, "TCP")] \
                = _hist(10.0 + tech)
    path = str(tmp_path / "seg.seg")
    write_segment(path, store, seq=1)
    reader = SegmentReader(path, cache=BlockCache(1 << 20),
                           stats=ReadStats())
    assert [block["rows"] for block in reader.blocks("network")] \
        == [256]
    splits = []
    monkeypatch.setattr(segments, "_decode_key",
                        _counting(_decode_key, splits))
    reader.verify()
    assert reader.get("network", ("0", "Op2", "T07", "TCP")).count == 1
    assert splits == []
    hits = list(reader.scan_prefix("network", ("0", "Op2")))
    assert reader.stats.cache_misses == 1
    assert [key for key, _hist in hits] \
        == [("0", "Op2", "T%02d" % tech, "TCP") for tech in range(64)]
    assert [text for (text,) in splits] \
        == [_encode_key(key) for key, _hist in hits]
    assert len(dict(reader.iter_table("network"))) == 256
    assert len(splits) == 64 + 256
    reader.close()


def _seven_segments(tmp_path, records_of):
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    for segment in range(7):
        engine.append_records(records_of(segment))
        engine.flush()
    assert len(engine.segment_names()) == 7
    return engine


def test_key_set_is_encoded_once_for_all_readers(tmp_path,
                                                 monkeypatch):
    """Nine windows' keys over seven segments: nine encodings, not
    sixty-three -- for point reads and for prefix ranges alike."""
    engine = _seven_segments(tmp_path, lambda segment: [
        _rec(rtt=20.0 + segment, ts=window * 28 * DAY_MS)
        for window in range(9)])
    calls = []
    counted = _counting(_encode_key, calls)
    monkeypatch.setattr(serve_engine, "_encode_key", counted)
    monkeypatch.setattr(segments, "_encode_key", counted)
    with QueryEngine(engine).snapshot() as view:
        assert len(view.readers) == 7 and len(view.windows()) == 9
        keys = [(str(window), "com.app.a", "TCP")
                for window in range(9)]
        hits = view.get_many("app", keys)
        assert len(calls) == 9
        assert sorted(hits) == sorted(keys)
        assert all(hist.count == 7 for hist in hits.values())
        del calls[:]
        rows = view.scan_prefixes(
            "network", [(str(window), "OpA") for window in range(9)])
        assert len(calls) == 9
        assert len(rows) == 9
        assert all(hist.count == 7 for hist in rows.values())
    engine.close()


def test_quantile_readout_sorts_the_bins_once(monkeypatch):
    hist = _hist(*[3.0 * i for i in range(200)])
    want = {"median_ms": round(hist.quantile(0.5), 2),
            "p90_ms": round(hist.quantile(0.9), 2),
            "p99_ms": round(hist.quantile(0.99), 2)}
    sorts = []
    monkeypatch.setattr(rollups_module, "sorted",
                        _counting(sorted, sorts), raising=False)
    assert serve_engine._quantiles(hist) == want
    assert len(sorts) == 1
    del sorts[:]
    assert serve_engine._log_quantiles(hist, "ms")["p99_ms"] > 0
    assert serve_engine._log_summary(hist, "ms")["count"] == 200
    assert len(sorts) == 2


def test_view_walks_the_memtable_for_windows_once(tmp_path,
                                                  monkeypatch):
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    engine.append_records([_rec(ts=window * 28 * DAY_MS)
                           for window in range(3)])
    walks = []
    monkeypatch.setattr(RollupStore, "windows",
                        _counting(RollupStore.windows, walks))
    with QueryEngine(engine).snapshot() as view:
        assert view.windows() == [0, 1, 2]
        view.windows().append(99)        # the caller's copy, not ours
        assert view.windows() == [0, 1, 2]
        assert view.app_panel("com.app.a")["overall"]["count"] == 3
        assert view.network_panel("OpA")["overall"]["count"] == 3
        assert len(walks) == 1
    engine.close()


# -- the fleet AoI summary is per view, not per panel ------------------------


def test_fleet_aoi_is_read_once_per_view(tmp_path, monkeypatch):
    def records_of(segment):
        records = []
        for window in range(3):
            ts = window * 28 * DAY_MS
            for app in ("com.app.a", "com.app.b"):
                records += [
                    _rec(rtt=30.0 + segment, ts=ts, app=app),
                    _rec(kind="TPUT_DOWN", rtt=400.0 + segment, ts=ts,
                         app=app),
                    _rec(kind="ENERGY", rtt=50.0 + segment, ts=ts,
                         app=app)]
            records += [_rec(kind="AOI", rtt=2000.0 + 10 * device, ts=ts,
                             app=None, device="dev-%d" % device)
                        for device in range(5)]
        return records

    engine = _seven_segments(tmp_path, records_of)
    aoi_blocks = []
    load_block = SegmentReader._load_block

    def counted(self, name, index):
        if name == "aoi":
            aoi_blocks.append((self.path, index))
        return load_block(self, name, index)

    monkeypatch.setattr(SegmentReader, "_load_block", counted)
    query_engine = QueryEngine(engine)
    for _view in range(2):
        with query_engine.snapshot() as view:
            first = view.app_panel("com.app.a")
            assert first["aoi"]["count"] == 7 * 3 * 5
            assert len(aoi_blocks) == 7
            del aoi_blocks[:]
            second = view.app_panel("com.app.b")
            assert second["aoi"] == first["aoi"]
            assert aoi_blocks == []
            for app, pruned in (("com.app.a", first),
                                ("com.app.b", second),
                                ("com.absent",
                                 view.app_panel("com.absent"))):
                assert _canonical(pruned) \
                    == _canonical(view.app_panel(app, scan=True))
            # scan=True keeps reading the table, every time.
            assert len(aoi_blocks) == 3 * 7
            del aoi_blocks[:]
    engine.close()
