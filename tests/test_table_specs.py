"""Every reader of ``TABLE_SPECS``, once per row.

One store holding rows in all eight tables is written, read, folded,
evicted and inspected; each test below is parametrised over the spec's
rows and looks at *its* table only, so a ninth row is covered the day
it is added.  ``fold`` is checked against the four hand-written loops
it replaced, kept here as references."""

import os

import pytest

from repro.__main__ import main
from repro.analysis import rules
from repro.backend.rollups import (TABLE_SPECS, MergeHist, RollupConfig,
                                   RollupStore, log_bin_value)
from repro.core.records import MeasurementKind, MeasurementRecord
from repro.network.link import NetworkType
from repro.serve import QueryEngine
from repro.store import StoreConfig, StoreEngine
from repro.store.segments import (SegmentReader, prefix_range,
                                  read_checkpoint, stored_order,
                                  stored_text, write_checkpoint)

DAY_MS = 24 * 3600 * 1000.0
CONFIG = RollupConfig(window_ms=DAY_MS)
WINDOWS = 6
#: Retention keeps the last three of the six windows.
KEPT = {"3", "4", "5"}
VALUE = 37.3
#: One of them needs escaping wherever a key becomes text.
OPERATORS = ("Op|A", "OpB", "Op\\C")


def _records():
    records = []
    for window in range(WINDOWS):
        for i, kind in enumerate(MeasurementKind.ALL * 6):
            records.append(MeasurementRecord(
                kind=kind, rtt_ms=VALUE, timestamp_ms=window * DAY_MS,
                app_package="com.app.%d" % (i % 4),
                domain="c%d.whatsapp.net" % (i % 5),
                network_type=(NetworkType.LTE if i % 2
                              else NetworkType.WIFI),
                operator=OPERATORS[i % 3], device_id="dev-%d" % (i % 5)))
    return records


def _rows(table):
    return {key: hist.to_dict() for key, hist in table.items()}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """``(reference store, flushed data dir, compacted-with-retention
    data dir)`` over the same records."""
    root = tmp_path_factory.mktemp("specs")
    records = _records()
    reference = RollupStore(config=CONFIG)
    reference.add_all(records)
    assert all(reference.tables[spec.name] for spec in TABLE_SPECS)
    dirs = []
    for name, retention in (("plain", None), ("kept", 3 * DAY_MS)):
        engine = StoreEngine(
            str(root / name), rollup_config=CONFIG,
            config=StoreConfig(flush_threshold_records=None,
                               retention_ms=retention,
                               segment_block_rows=2))
        half = len(records) // 2
        for part in (records[:half], records[half:]):
            engine.append_records(part)
            engine.flush()
        assert engine.compact(now_ms=WINDOWS * DAY_MS, force=True)
        engine.close()
        dirs.append(engine.data_dir)
    return [reference] + dirs


SPEC_IDS = [spec.name for spec in TABLE_SPECS]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=SPEC_IDS)
def test_segment_rows_in_stored_order(world, spec):
    reference, plain, _kept = world
    table = reference.tables[spec.name]
    (name,) = os.listdir(os.path.join(plain, "segments"))
    with SegmentReader(os.path.join(plain, "segments", name)) as reader:
        by_text = sorted(table, key=lambda k: stored_text(spec.name, k))
        assert [key for key, _hist in reader.iter_table(spec.name)] \
            == by_text
        swapped = by_text != sorted(table)
        assert swapped == spec.subject_major
        assert len(reader.blocks(spec.name)) > 1
        pairs = sorted((stored_text(spec.name, key), key)
                       for key in table)
        assert _rows(reader.get_many(spec.name, pairs)) == _rows(table)
        # Everything under the first stored part of the first row.
        lead = stored_order(spec.name, by_text[0])[:1]
        under = dict(reader.scan_prefixes(spec.name,
                                          [prefix_range(lead)]))
        assert _rows(under) == _rows({
            key: hist for key, hist in table.items()
            if stored_order(spec.name, key)[:1] == lead})
        assert list(under) == [key for key in by_text if key in under]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=SPEC_IDS)
def test_checkpoint_round_trip(world, tmp_path, spec):
    reference = world[0]
    path = str(tmp_path / "one.ckpt")
    write_checkpoint(path, reference, 1)
    loaded = read_checkpoint(path)
    assert _rows(loaded.tables[spec.name]) \
        == _rows(reference.tables[spec.name])


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=SPEC_IDS)
def test_retention_evicts_iff_windowed(world, spec):
    reference, _plain, kept = world
    assert spec.windowed == (spec.key[0] == "window")
    engine = StoreEngine(kept, rollup_config=CONFIG)
    try:
        survivors = engine.materialize().tables[spec.name]
    finally:
        engine.close()
    table = reference.tables[spec.name]
    if spec.windowed:
        assert {key[0] for key in table} > KEPT
        table = {key: hist for key, hist in table.items()
                 if key[0] in KEPT}
    assert _rows(survivors) == _rows(table)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=SPEC_IDS)
def test_table_rows_decode_by_grid_and_label_by_unit(world, spec):
    reference, plain, _kept = world
    engine = StoreEngine(plain, rollup_config=CONFIG)
    try:
        with QueryEngine(engine).snapshot() as view:
            rows = view.table_rows(spec.name)
    finally:
        engine.close()
    table = reference.tables[spec.name]
    assert sorted(tuple(row["key"]) for row in rows) == sorted(table)
    fields = ["%s_%s" % (q, spec.unit) for q in ("median", "p90", "p99")]
    if spec.grid == "log":      # one bin is a ratio, not a width
        tolerance = VALUE * (log_bin_value(1) / log_bin_value(0) - 1)
    else:
        assert fields[0] == "median_ms"
        tolerance = 0.25
    for row in rows:
        assert sorted(row) == sorted(["key", "count"] + fields)
        assert row["count"] == table[tuple(row["key"])].count
        for field in fields:
            assert abs(row[field] - VALUE) <= tolerance + 0.005


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=SPEC_IDS)
def test_store_inspect_names_the_parts_in_stored_order(world, capsys,
                                                       spec):
    assert main(["store", "inspect", world[1]]) == 0
    (line,) = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == [spec.name]]
    parts = line[2].split(",")
    assert line[1] == "parts" and sorted(parts) == sorted(spec.key)
    assert parts == list(stored_order(spec.name, spec.key))
    assert (parts[0] != spec.key[0]) == spec.subject_major


# -- fold, against the loops it replaced ------------------------------------

def _reference_per_operator(rollups, kind, tech=None):
    """``IspRttAnomalyRule._per_operator`` (``tech`` LTE) and
    ``ProxyDivergenceRule._per_operator`` (any), and -- with
    ``kind`` TCP -- ``CoexistenceRule.evaluate``'s inline copy."""
    out = {}
    table = rollups.table("network")
    for key in sorted(table):
        _window, operator, key_tech, key_kind = key
        if key_kind != kind or tech not in (None, key_tech):
            continue
        hist = out.get(operator)
        if hist is None:
            hist = out[operator] = MergeHist()
        hist.merge(table[key])
    return out


def _reference_merge_over_windows(rollups, table, key_slice):
    """``backend.query._merge_over_windows``."""
    out = {}
    for key, hist in rollups.iter_table(table):
        subkey = key[key_slice]
        merged = out.get(subkey)
        if merged is None:
            merged = out[subkey] = MergeHist()
        merged.merge(hist)
    return out


class TestFold:
    def test_matches_the_detector_loops(self, world):
        reference = world[0]
        for kind in (MeasurementKind.TCP, MeasurementKind.DNS,
                     MeasurementKind.APP_RTT):
            for tech in (None, NetworkType.LTE):
                where = {"kind": kind}
                if tech is not None:
                    where["network_type"] = tech
                folded = reference.fold("network", by=("operator",),
                                        **where)
                want = _reference_per_operator(reference, kind, tech)
                assert want and set(OPERATORS) >= set(want)
                assert _rows(folded) == _rows(
                    {(operator,): hist
                     for operator, hist in want.items()})

    def test_matches_the_query_loop(self, world):
        reference = world[0]
        for table, by, key_slice in (
                ("app", ("app_package",), slice(1, 2)),
                ("network", ("operator", "network_type", "kind"),
                 slice(1, 4)),
                ("network", ("window", "kind"), slice(0, 4, 3)),
                ("aoi", ("window", "device_id", "network_type"),
                 slice(0, 3))):
            want = _reference_merge_over_windows(reference, table,
                                                 key_slice)
            assert _rows(reference.fold(table, by=by)) == _rows(want)

    def test_no_by_is_one_histogram_and_no_match_is_none(self, world):
        reference = world[0]
        tput = reference.table("app_throughput")
        assert rules.COEX_BULK_PACKAGE not in {key[1] for key in tput}
        assert reference.fold(
            "app_throughput",
            app_package=rules.COEX_BULK_PACKAGE) == {}
        (whole,) = reference.fold("app_throughput").values()
        assert list(reference.fold("app_throughput")) == [()]
        assert whole.count == sum(hist.count for hist in tput.values())
        one = reference.fold("app_throughput", app_package="com.app.1")
        assert one[()].count == sum(
            hist.count for key, hist in tput.items()
            if key[1] == "com.app.1") > 0

    def test_folds_are_the_callers_own(self, world):
        reference = world[0]
        before = reference.digest()
        for hist in reference.fold("lte_domain",
                                   by=("domain", "operator")).values():
            hist.add(1.0)
        assert reference.digest() == before

    def test_an_unknown_part_or_table_is_refused(self, world):
        with pytest.raises(ValueError):
            world[0].fold("app", by=("operator",))
        with pytest.raises(ValueError):
            world[0].fold("app", network_type="LTE")
        with pytest.raises(KeyError):
            world[0].fold("apps")
