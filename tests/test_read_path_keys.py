"""The read path keeps a block keyed as it is stored: by stored key
text -- subject before window for the tables a panel reads -- in
stored order.  These tests pin what that must not change -- every
read primitive and both panels still equal the answer computed from
the merged ``RollupStore``, for keys of every awkward shape and
length, under two hash seeds, and a prefix holds the same rows before
and after a flush -- and, as counts with no clock in them, what it is
for: a panel opens the one or two blocks of each segment that hold
its subject, a prefix scan splits only the keys it yields and builds
only their histograms, a key set
is encoded once however many segments are asked, a histogram's bins
are sorted once per readout, a view works out its window list and its
fleet AoI summary once, and a panel walks only the memtable table it
reads."""

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
    SPEC_BY_TABLE,
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
from repro.store import encoding, segments
from repro.store.segments import (
    ReadStats,
    SegmentReader,
    prefix_range,
    stored_order,
    stored_text,
    write_segment,
)
from tests.conftest import segment_store

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


def _any_length(first):
    """Keys of one to five parts: the segment layer promises nothing
    about a table's arity, and a key that is a prefix of another is
    where "under a prefix" has to mean "strictly longer"."""
    return st.tuples(first, st.lists(_PARTS, max_size=4)).map(
        lambda drawn: (drawn[0],) + tuple(drawn[1]))


#: The five windowed tables the panels read, as ``RollupStore.add``
#: keys them ...
_AS_ADDED = {
    "network": st.tuples(_WINDOWS, _PARTS, _PARTS,
                         st.sampled_from(["TCP", "DNS", "APP_RTT"])),
    "app": st.tuples(_WINDOWS, _PARTS,
                     st.sampled_from(["TCP", "APP_RTT"])),
    "app_throughput": st.tuples(
        _WINDOWS, _PARTS, st.sampled_from(["TPUT_UP", "TPUT_DOWN"])),
    "app_energy": st.tuples(_WINDOWS, _PARTS),
    "aoi": st.tuples(_WINDOWS, _PARTS, _PARTS),
}
#: ... or, sometimes, at any length -- and one table that leads with
#: anything at all.
_SHAPES = {name: st.one_of(shape, _any_length(_WINDOWS))
           for name, shape in _AS_ADDED.items()}
_SHAPES["lte_domain"] = _any_length(_PARTS)
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
     "aoi": {("1", "dev", CEILING): {9: 1}},
     "lte_domain": {}},
    {name: {} for name in _SHAPES},
]

#: A key equal to another's prefix, on either side of a flush, in a
#: table stored as keyed and in one stored subject-first.
_KEY_AND_ITS_PREFIX = [
    {"network": {("7", "OpA"): {4: 1}, ("7",): {4: 2},
                 ("7", "OpA", "LTE", "TCP"): {8: 1}},
     "app": {("7", "a"): {4: 1}}, "app_throughput": {},
     "app_energy": {("7", "a", "x"): {4: 1}},
     "aoi": {("7", "dev"): {9: 1}},
     "lte_domain": {("a.com",): {4: 1}, ("a.com", "OpA"): {4: 2}}},
    {"network": {("7", "OpA", "LTE", "DNS"): {8: 2},
                 ("7", "OpA"): {4: 4}},
     "app": {("7", "a", "TCP"): {4: 2}}, "app_throughput": {},
     "app_energy": {("7", "a"): {4: 1}},
     "aoi": {("7", "dev", "LTE"): {9: 2}, ("7",): {9: 4}},
     "lte_domain": {("a.com", "OpA"): {4: 1}, ("a.com",): {4: 4}}},
]


class TestAwkwardKeys:
    @given(spread=_spread_tables())
    @example(spread=(_OPERATOR_PAIR, 2))
    @example(spread=(_KEY_AND_ITS_PREFIX, 2))
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
                table = store.tables[name]
                for key in table:
                    stored = stored_order(name, key)
                    assert stored_order(name, stored) == key
                    assert _encode_key(stored) == stored_text(name, key)
                    assert stored_order(
                        name, _decode_key(stored_text(name, key))) == key
                assert [(key, hist.to_dict())
                        for key, hist in reader.iter_table(name)] \
                    == [(key, table[key].to_dict())
                        for key in sorted(
                            table, key=lambda key: stored_text(name, key))]
                # Block by block: texts strictly ascending, within a
                # block and from one to the next, zone maps exact.
                texts = []
                for index, block in enumerate(reader.blocks(name)):
                    held = reader._load_block(name, index).texts
                    assert (block["min"], block["max"], block["rows"]) \
                        == (held[0], held[-1], len(held))
                    texts += held
                assert texts == sorted(set(texts))
                assert len(texts) == len(table)
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
            subject_major = SPEC_BY_TABLE[name].subject_major
            for n in range(max(map(len, table), default=0)):
                prefixes = sorted({key[:n] for key in table
                                   if len(key) >= n})
                if n == 1 and subject_major:
                    # One window's rows are not a range of a table
                    # stored subject-first, and the view says so.
                    with pytest.raises(ValueError, match="subject-first"):
                        view.scan_prefix(name, prefixes[0])
                    continue
                # Under a prefix means strictly longer than it: a key
                # that *is* the prefix is not, in a segment or out.
                for prefix in prefixes:
                    _same_rows(view.scan_prefix(name, prefix),
                               {key: hist for key, hist in table.items()
                                if len(key) > n and key[:n] == prefix})
                _same_rows(view.scan_prefixes(name, prefixes[::2]),
                           {key: hist for key, hist in table.items()
                            if len(key) > n
                            and key[:n] in prefixes[::2]})
            if not subject_major:
                with pytest.raises(ValueError, match="subject-first"):
                    view.scan_subject(name, "OpA")
                continue
            subjects = {key[1] for key in table if len(key) > 1}
            for subject in sorted(subjects) + ["absent"]:
                _same_rows(view.scan_subject(name, subject),
                           {key: hist for key, hist in table.items()
                            if len(key) > 1 and key[1] == subject})
        apps = {key[1] for name in ("app", "app_throughput",
                                    "app_energy")
                for key in merged.tables[name] if len(key) > 1}
        for app in sorted(apps) + ["com.absent"]:
            want = _canonical(reference.app_panel(app))
            assert _canonical(view.app_panel(app)) == want
            assert _canonical(view.app_panel(app, scan=True)) == want
        operators = {key[1] for key in merged.tables["network"]
                     if len(key) > 1}
        for operator in sorted(operators) + ["OpAbsent"]:
            want = _canonical(reference.network_panel(operator))
            assert _canonical(view.network_panel(operator)) == want
            assert _canonical(view.network_panel(operator, scan=True)) \
                == want
        self._check_panels_against_the_table(merged, reference,
                                             apps, operators)

    def _check_panels_against_the_table(self, merged, reference, apps,
                                        operators):
        """The panels' row selection, worked out here from the merged
        tables alone: which windows an app or an operator is listed
        under, in what order, with how many samples."""
        for app in apps:
            rows = {int(key[0]): hist.count
                    for key, hist in merged.tables["app"].items()
                    if key[1:] == (app, "TCP")}
            assert [(row["window"], row["count"])
                    for row in reference.app_panel(app)["windows"]] \
                == sorted(rows.items())
        for operator in operators:
            rows = {}
            for key, hist in merged.tables["network"].items():
                if len(key) == 4 and key[1] == operator:
                    rows[int(key[0])] = rows.get(int(key[0]), 0) \
                        + (hist.count if key[3] in ("TCP", "DNS") else 0)
            assert [(row["window"], row["count"])
                    for row in reference.network_panel(operator)["windows"]] \
                == sorted(rows.items())

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


def test_key_equal_to_a_prefix_is_not_under_it_flushed_or_not(
        tmp_path):
    """``("7", "OpA")`` hand-put beside ``("7", "OpA", "LTE",
    "TCP")``: a scan of the prefix ``("7", "OpA")`` used to find the
    short key while it sat in the memtable and lose it once flushed.
    Strictly longer, both sides: the same answer with both rows in
    the memtable, both in a segment, and one on each side."""
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    short, long = ("7", "OpA"), ("7", "OpA", "LTE", "TCP")

    def put(*keys):
        for key in keys:
            engine.memtable.tables["network"][key] = _hist(8.0)
        engine.memtable.records += len(keys)

    def scanned():
        with QueryEngine(engine).snapshot() as view:
            got = view.scan_prefix("network", short)
            # One part shorter, the operator's range holds both.
            assert set(view.scan_subject("network", "OpA")) \
                == {short, long}
            assert view.get("network", short) is not None
            return {key: hist.count for key, hist in got.items()}

    put(short, long)
    assert scanned() == {long: 1}                # memtable
    engine.flush()
    assert scanned() == {long: 1}                # segment
    put(short)
    assert scanned() == {long: 1}                # short key unflushed
    engine.flush()
    put(long)
    assert scanned() == {long: 2}                # long key on both sides
    engine.close()


# -- counts ------------------------------------------------------------------


def _benchmark_shaped_store(segment):
    """One segment's worth of rows shaped like the pipeline
    benchmark's: nine windows, subjects by the hundred, so every
    panelled table runs to several 256-row blocks.  Apps ending in 7
    and operators ending in 3 are missing from odd segments."""
    store = RollupStore()

    def put(table, *key):
        store.tables[table][key] = _hist(10.0 + segment)

    for window in map(str, range(9)):
        for app in range(150):
            if segment % 2 and app % 10 == 7:
                continue
            name = "com.app.%03d" % app
            put("app", window, name, "TCP")
            put("app_energy", window, name)
            for kind in ("TPUT_UP", "TPUT_DOWN"):
                put("app_throughput", window, name, kind)
        for operator in range(40):
            if segment % 2 and operator % 10 == 3:
                continue
            for tech in ("LTE", "WIFI"):
                for kind in ("TCP", "DNS"):
                    put("network", window, "Op%02d" % operator, tech,
                        kind)
    store.records = store.group_count()
    return store


def test_panel_opens_the_blocks_that_hold_its_subject(tmp_path,
                                                      monkeypatch):
    """Seven segments, every panelled table four to eleven blocks a
    segment.  An app's nine windows used to fall one into (nearly)
    every ``app`` block, so a panel opened them all; stored
    subject-first they are one run: at most two blocks of a table per
    segment, at most one where the segment does not hold the subject
    at all, and an answer equal to the scan's."""
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    for segment in range(7):
        engine.bulk_load(_benchmark_shaped_store(segment))
    opened = {}
    load_block = SegmentReader._load_block

    def counted(self, name, index):
        opened.setdefault((name, self.seq), set()).add(index)
        return load_block(self, name, index)

    monkeypatch.setattr(SegmentReader, "_load_block", counted)
    with QueryEngine(engine).snapshot() as view:
        assert len(view.readers) == 7
        for table in ("network", "app", "app_throughput", "app_energy"):
            assert all(len(reader.blocks(table)) >= 4
                       for reader in view.readers)
        panels = [(view.app_panel, "com.app.%03d" % app,
                   ("app", "app_throughput", "app_energy"), app % 10 == 7)
                  for app in (0, 7, 63, 64, 107, 149)] \
            + [(view.network_panel, "Op%02d" % operator, ("network",),
                operator % 10 == 3)
               for operator in (0, 3, 13, 20, 39)]
        view.app_panel("com.app.000")       # the fleet AoI, once a view
        for panel, subject, tables, in_even_segments_only in panels:
            opened.clear()
            answer = panel(subject)
            assert set(name for name, _seq in opened) == set(tables)
            for (name, seq), blocks in opened.items():
                absent = in_even_segments_only and seq % 2 == 0
                assert len(blocks) <= (1 if absent else 2), \
                    (subject, name, seq, blocks)
            assert answer["overall"]["count"] \
                == 9 * (4 if in_even_segments_only else 7) \
                * (1 if len(tables) == 3 else 2)
            assert _canonical(answer) == _canonical(panel(subject,
                                                          scan=True))
    engine.close()



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
    hits = list(reader.scan_prefixes("network",
                                     [prefix_range(("Op2", "0"))]))
    assert reader.stats.cache_misses == 1
    assert [key for key, _hist in hits] \
        == [("0", "Op2", "T%02d" % tech, "TCP") for tech in range(64)]
    assert [text for (text,) in splits] \
        == [stored_text("network", key) for key, _hist in hits]
    assert len(dict(reader.iter_table("network"))) == 256
    assert len(splits) == 64 + 256
    reader.close()


def test_histograms_are_built_only_for_rows_that_leave_the_reader(
        tmp_path, monkeypatch):
    """The same block, counting ``MergeHist``s made from its columns:
    ``verify`` builds none, a point read one, a prefix its rows less
    the one already built, asking again nothing, a full scan the rest
    -- and every reader of the cached block is handed the same
    objects."""
    store = RollupStore()
    for operator in range(4):
        for tech in range(64):
            store.tables["network"][
                ("0", "Op%d" % operator, "T%02d" % tech, "TCP")] \
                = _hist(10.0 + tech)
    path = str(tmp_path / "seg.seg")
    write_segment(path, store, seq=1)
    cache = BlockCache(1 << 20)
    reader = SegmentReader(path, cache=cache, stats=ReadStats())
    built = []
    monkeypatch.setattr(encoding, "MergeHist",
                        _counting(MergeHist, built))
    reader.verify()
    assert reader.stats.cache_misses == 1 and built == []
    key = ("0", "Op2", "T07", "TCP")
    point = reader.get("network", key)
    assert point.to_dict() == store.tables["network"][key].to_dict()
    assert len(built) == 1
    ranges = [prefix_range(("Op2", "0"))]
    hits = dict(reader.scan_prefixes("network", ranges))
    assert len(hits) == 64 and hits[key] is point
    assert len(built) == 64
    pairs = [(stored_text("network", key), key) for key in hits]
    with SegmentReader(path, cache=cache) as other:
        again = dict(other.scan_prefixes("network", ranges))
        many = other.get_many("network", pairs)
    assert len(built) == 64
    assert all(again[key] is hist and many[key] is hist
               for key, hist in hits.items())
    assert len(dict(reader.iter_table("network"))) == 256
    assert len(built) == 256
    assert segment_store(reader).digest() == store.digest()
    assert len(built) == 256 and reader.stats.cache_misses == 1
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
    monkeypatch.setattr(segments, "_encode_key",
                        _counting(_encode_key, calls))
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
    assert serve_engine._summary(hist, "network") == want
    assert len(sorts) == 1
    del sorts[:]
    assert serve_engine._summary(hist, "aoi")["p99_ms"] > 0
    assert serve_engine._counted(hist, "aoi", p99=False)["count"] == 200
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


def test_each_distinct_window_is_parsed_once(monkeypatch):
    """Nine windows over five tables and 1,800 rows: nine ``int()``
    calls, not one per row."""
    store = RollupStore()
    for window in range(9):
        for subject in range(50):
            for table, rest in (("network", ("LTE", "TCP")),
                                ("app", ("TCP",)), ("app_energy", ()),
                                ("aoi", ("LTE",))):
                store.tables[table][
                    (str(window), "s%d" % subject) + rest] = _hist(5.0)
    parsed = []
    monkeypatch.setattr(rollups_module, "int", _counting(int, parsed),
                        raising=False)
    assert store.windows() == list(range(9))
    assert len(parsed) == 9


class _WalkCounted(dict):
    """A memtable table that counts how often it is walked."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_network_panel_walks_the_memtables_network_table_once(
        tmp_path):
    """The first panel of a fresh view used to pay for ``windows()``:
    every key of five memtable tables.  A subject range brings its
    own windows back, so a network panel walks the memtable's
    ``network`` table, once, and nothing else -- and an app panel its
    three tables and, once a view, ``aoi``."""
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    engine.append_records(
        [_rec(ts=window * 28 * DAY_MS) for window in range(3)]
        + [_rec(kind="AOI", rtt=900.0, app=None)])
    with QueryEngine(engine).snapshot() as view:
        tables = view.memtable.tables
        for name in tables:
            tables[name] = _WalkCounted(tables[name])

        def walks():
            counts = {name: table.walks
                      for name, table in tables.items() if table.walks}
            for table in tables.values():
                table.walks = 0
            return counts

        panel = view.network_panel("OpA")
        assert [row["window"] for row in panel["windows"]] == [0, 1, 2]
        assert walks() == {"network": 1}
        panel = view.app_panel("com.app.a")
        assert [row["window"] for row in panel["windows"]] == [0, 1, 2]
        assert walks() == {"app": 1, "app_throughput": 1,
                           "app_energy": 1, "aoi": 1}
        view.app_panel("com.app.a")
        assert walks() == {"app": 1, "app_throughput": 1,
                           "app_energy": 1}
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
