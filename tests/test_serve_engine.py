"""Serving-tier tests: snapshot isolation against a mutating engine,
pruned-vs-scan byte identity (reading strictly fewer blocks), the
shared block cache, clean errors on corrupt segments, and the
deterministic dashboard workload."""

import json
import os

import pytest

from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.serve import DashboardWorkload, QueryEngine, QueryError, ReadView
from repro.store import BlockCache, StoreConfig, StoreEngine
from repro.store.engine import SEGMENT_DIR

DAY_MS = 24 * 3600 * 1000.0


def _rec(kind="TCP", rtt=100.0, ts=0.0, domain=None, operator="OpA",
         tech="WIFI", app="com.app.a", failure=None):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        domain=domain, network_type=tech, operator=operator,
        country="US", device_id="dev-1", failure=failure)


def _records(n=600, offset=0):
    # Realistic campaign shape: many apps, a handful of operators,
    # and only a few 28-day windows -- pruning wins because one app
    # occupies a small slice of each window's sorted key space.
    return [_rec(rtt=15.0 + ((offset + i) % 40),
                 ts=((offset + i) % 3) * 28 * DAY_MS,
                 app="com.app.%02d" % ((offset + i) % 40),
                 domain="d%d.example" % ((offset + i) % 3),
                 tech="LTE" if (offset + i) % 2 == 0 else "WIFI",
                 operator="Op%d" % (((offset + i) // 5) % 6),
                 kind="DNS" if (offset + i) % 7 == 0 else "TCP")
            for i in range(n)]


def _engine(tmp_path, name="store", **config):
    config.setdefault("flush_threshold_records", 150)
    config.setdefault("segment_block_rows", 8)
    obs = Observability()
    engine = StoreEngine(str(tmp_path / name),
                         config=StoreConfig(**config), obs=obs)
    return engine, obs


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestSnapshotIsolation:
    def test_view_is_immune_to_later_ingest(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        view = QueryEngine(engine, obs=obs).snapshot()
        before = view.summary()
        engine.append_records(_records(300, offset=600))
        after_live = engine.materialize()
        assert after_live.records > before["records"]
        assert view.summary() == before
        view.close()

    def test_view_survives_compaction_unlinking_its_files(
            self, tmp_path):
        """Compaction merges and *deletes* the old segment files; a
        snapshot opened before must keep answering from the pinned
        descriptors, byte-for-byte."""
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        assert len(engine.segment_names()) >= 2
        query_engine = QueryEngine(engine, obs=obs)
        view = query_engine.snapshot()
        panel_before = view.app_panel("com.app.01")
        summary_before = view.summary()
        pinned = [reader.path for reader in view.readers]
        assert engine.compact(force=True)
        # The files the view pinned are really gone from the dir.
        assert any(not os.path.exists(path) for path in pinned)
        assert view.app_panel("com.app.01") == panel_before
        assert view.summary() == summary_before
        # A fresh snapshot over the compacted state agrees on content.
        fresh = query_engine.snapshot()
        assert fresh.summary()["digest"] == summary_before["digest"]
        fresh.close()
        view.close()

    def test_view_survives_flush_and_retention(self, tmp_path):
        engine, obs = _engine(tmp_path,
                              flush_threshold_records=None,
                              retention_ms=10 * DAY_MS)
        engine.append_records(_records(400))
        view = QueryEngine(engine, obs=obs).snapshot()
        windows_before = view.windows()
        series_before = view.window_series()
        panel_before = _canonical(view.app_panel("com.app.01"))
        assert windows_before == [0, 1, 2]
        engine.flush()
        engine.append_records(_records(50, offset=400))
        engine.flush()
        assert engine.compact(now_ms=95 * DAY_MS, force=True)
        # Retention evicted every window from the live state...
        live = QueryEngine(engine, obs=obs).snapshot()
        try:
            assert live.windows() == []
        finally:
            live.close()
        # ...but the pinned view (memtable clone), asked again while
        # still open, never moved.
        try:
            assert view.windows() == windows_before
            assert view.window_series() == series_before
            assert _canonical(view.app_panel("com.app.01")) == \
                panel_before
        finally:
            view.close()

    def test_memtable_clone_is_deep(self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=None)
        engine.append_records(_records(100))
        view = QueryEngine(engine, obs=obs).snapshot()
        hist_before = _canonical(view.app_panel("com.app.01"))
        engine.append_records(_records(100))  # mutates same hists
        assert _canonical(view.app_panel("com.app.01")) == hist_before
        view.close()

    def test_digest_stable_across_snapshot_generations(self, tmp_path):
        """Racing flush + compaction between snapshots must never
        change what the data *is* -- every generation's digest is the
        same function of the ingested records."""
        engine, obs = _engine(tmp_path)
        records = _records(600)
        engine.append_records(records)
        query_engine = QueryEngine(engine, obs=obs)
        digests = set()
        view = query_engine.snapshot()
        digests.add(view.summary()["digest"])
        view.close()
        engine.flush()
        view = query_engine.snapshot()
        digests.add(view.summary()["digest"])
        view.close()
        engine.compact(force=True)
        view = query_engine.snapshot()
        digests.add(view.summary()["digest"])
        view.close()
        assert len(digests) == 1


class TestPrunedVersusScan:
    def test_panels_byte_identical_and_read_fewer_blocks(
            self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(900))
        view = QueryEngine(engine, obs=obs).snapshot()
        for app in ("com.app.00", "com.app.03", "com.app.05"):
            before = view.stats.copy()
            pruned = view.app_panel(app)
            mid = view.stats.copy()
            scanned = view.app_panel(app, scan=True)
            after = view.stats.copy()
            assert _canonical(pruned) == _canonical(scanned)
            assert pruned["overall"]["count"] > 0
            pruned_reads = mid.delta_since(before).blocks_read
            scan_reads = after.delta_since(mid).blocks_read
            assert pruned_reads < scan_reads
        for operator in ("Op0", "Op2"):
            before = view.stats.copy()
            pruned = view.network_panel(operator)
            mid = view.stats.copy()
            scanned = view.network_panel(operator, scan=True)
            after = view.stats.copy()
            assert _canonical(pruned) == _canonical(scanned)
            assert mid.delta_since(before).blocks_read \
                < after.delta_since(mid).blocks_read
        view.close()

    def test_cached_blocks_are_walked_not_resorted(self, tmp_path,
                                                   monkeypatch):
        """A count, so it cannot be noisy: over blocks already in the
        cache, the prefix ranges are encoded once each and then serve
        every reader, a prefix scan and a table scan encode nothing
        -- never a key per row -- and a prefix scan splits only the
        keys it yields; yet both yield in stored order, and the
        panel built on them is the ``scan=True`` panel byte for
        byte."""
        from repro.backend.rollups import _decode_key, _encode_key
        from repro.store import segments

        engine, obs = _engine(tmp_path)
        engine.append_records(_records(900))
        view = QueryEngine(engine, obs=obs).snapshot()
        assert len(view.readers) >= 2
        prefixes = [("Op2", str(window)) for window in view.windows()]
        for reader in view.readers:                  # fill the cache
            rows = sum(1 for _row in reader.iter_table("network"))
            assert rows > len(prefixes)
        calls = []
        splits = []

        def stored(key):        # by hand: the codec is being counted
            return _encode_key((key[1], key[0]) + key[2:])
        monkeypatch.setattr(
            segments, "_encode_key",
            lambda key: calls.append(key) or _encode_key(key))
        monkeypatch.setattr(
            segments, "_decode_key",
            lambda text: splits.append(text) or _decode_key(text))
        ranges = sorted(map(segments.prefix_range, prefixes))
        assert len(calls) == len(prefixes)
        for reader in view.readers:
            misses = view.stats.cache_misses
            del calls[:], splits[:]
            hits = list(reader.scan_prefixes("network", ranges))
            assert calls == []
            assert splits == [stored(key) for key, _hist in hits]
            scanned = list(reader.iter_table("network"))
            assert calls == []
            assert view.stats.cache_misses == misses
            for yielded in (hits, scanned):
                texts = [stored(key) for key, _hist in yielded]
                assert texts == sorted(texts)
            assert hits == [(key, hist) for key, hist in scanned
                            if (key[1], key[0]) in prefixes]
            assert hits
        assert _canonical(view.network_panel("Op2")) \
            == _canonical(view.network_panel("Op2", scan=True))
        view.close()

    def test_modality_sections_byte_identical_pruned_vs_scan(
            self, tmp_path):
        """The app panel's throughput/energy/AoI sections are served
        from the modality tables (docs/MODALITIES.md) through the
        same pruned path; both paths must serialise identically."""
        engine, obs = _engine(tmp_path)
        records = _records(600)
        for w in range(2):
            ts = w * 28 * DAY_MS
            for app in ("com.app.01", "com.app.03"):
                records += [
                    _rec(kind="TPUT_UP", rtt=120.0 + w, ts=ts, app=app),
                    _rec(kind="TPUT_DOWN", rtt=480.0 + w, ts=ts,
                         app=app),
                    _rec(kind="ENERGY", rtt=55.0 + w, ts=ts, app=app),
                ]
            records.append(_rec(kind="AOI", rtt=2500.0 + w, ts=ts,
                                app=None))
        engine.append_records(records)
        view = QueryEngine(engine, obs=obs).snapshot()
        for app in ("com.app.01", "com.app.03"):
            pruned = view.app_panel(app)
            scanned = view.app_panel(app, scan=True)
            assert _canonical(pruned) == _canonical(scanned)
            assert pruned["throughput"]["up"]["count"] == 2
            assert pruned["throughput"]["down"]["count"] == 2
            assert pruned["energy"]["count"] == 2
            assert pruned["aoi"]["count"] == 2
            # Log-grid readback: the summarised medians land on the
            # injected values to within the grid's resolution.
            assert pruned["throughput"]["down"]["median_kb_s"] == \
                pytest.approx(480.5, rel=0.01)
            assert pruned["energy"]["median_mj"] == \
                pytest.approx(55.5, rel=0.01)
            assert pruned["aoi"]["median_ms"] == \
                pytest.approx(2500.5, rel=0.01)
        view.close()

    def test_modality_sections_null_without_modality_records(
            self, tmp_path):
        """An RTT-only state answers the widened panel with null
        modality sections -- old data keeps serving."""
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(300))
        view = QueryEngine(engine, obs=obs).snapshot()
        panel = view.app_panel("com.app.01")
        assert panel == view.app_panel("com.app.01", scan=True)
        assert panel["overall"]["count"] > 0
        assert panel["throughput"] == {"up": None, "down": None}
        assert panel["energy"] is None
        assert panel["aoi"] is None
        view.close()

    def test_panel_subject_with_no_data_is_empty_both_ways(
            self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(300))
        view = QueryEngine(engine, obs=obs).snapshot()
        pruned = view.app_panel("com.nope.app")
        scanned = view.app_panel("com.nope.app", scan=True)
        assert pruned == scanned
        assert pruned["windows"] == [] and pruned["overall"] is None
        view.close()

    def test_point_reads_merge_across_segments_and_memtable(
            self, tmp_path):
        engine, obs = _engine(tmp_path, flush_threshold_records=200)
        engine.append_records(_records(500))   # segments + memtable
        assert engine.memtable.records > 0
        assert engine.segment_names()
        view = QueryEngine(engine, obs=obs).snapshot()
        reference = engine.materialize()
        for key, hist in reference.tables["app"].items():
            merged = view.get("app", key)
            assert merged is not None
            assert merged.bins == hist.bins
            assert merged.count == hist.count
        assert view.get("app", ("0", "com.nope", "TCP")) is None
        view.close()

    def test_scan_views_match_engine_materialize(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(400))
        engine.findings.append({"rule": "demo", "subject": "s"})
        view = QueryEngine(engine, obs=obs).snapshot()
        from repro.backend import query as backend_query
        reference = engine.materialize()
        reference.meta.setdefault("findings",
                                  list(engine.findings))
        assert view.summary() == backend_query.summary(reference)
        assert view.apps(top=5) == backend_query.apps(reference, top=5)
        assert view.networks() == backend_query.networks(reference)
        assert view.window_series() == backend_query.windows(reference)
        assert view.cases() == backend_query.cases(reference)
        view.close()

    def test_table_rows_and_unknown_table(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(300))
        view = QueryEngine(engine, obs=obs).snapshot()
        rows = view.table_rows("app", top=4)
        assert len(rows) == 4
        assert all(set(row) == {"key", "count", "median_ms",
                                "p90_ms", "p99_ms"} for row in rows)
        counts = [row["count"] for row in rows]
        assert counts == sorted(counts, reverse=True)
        with pytest.raises(QueryError, match="unknown table"):
            view.table_rows("bogus")
        view.close()


class TestCorruptSegments:
    def _corrupt_a_block(self, engine):
        from repro.store.segments import SegmentReader
        name = engine.segment_names()[0]
        path = os.path.join(engine.data_dir, SEGMENT_DIR, name)
        probe = SegmentReader(path)
        entry = probe.blocks("app")[0]
        probe.close()
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + 12)
            byte = handle.read(1)
            handle.seek(entry["offset"] + 12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        return path

    def test_corrupt_block_surfaces_clean_query_error(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        path = self._corrupt_a_block(engine)
        view = QueryEngine(engine, obs=obs).snapshot()
        with pytest.raises(QueryError) as excinfo:
            view.app_panel("com.app.00")
        assert os.path.basename(path) in str(excinfo.value)
        view.close()

    def test_recovery_quarantines_then_queries_succeed(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        self._corrupt_a_block(engine)
        info = engine.recover()
        assert info.segments_quarantined == 1
        view = QueryEngine(engine, obs=obs).snapshot()
        panel = view.app_panel("com.app.00")
        assert panel == view.app_panel("com.app.00", scan=True)
        view.close()

    def test_missing_segment_file_fails_the_snapshot(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        name = engine.segment_names()[0]
        os.remove(os.path.join(engine.data_dir, SEGMENT_DIR, name))
        with pytest.raises(QueryError, match="unreadable"):
            QueryEngine(engine, obs=obs).snapshot()


class TestBlockCache:
    def test_lru_eviction_respects_byte_budget(self):
        obs = Observability()
        cache = BlockCache(capacity_bytes=100, obs=obs)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.get("a") == "A"       # refresh a; b is now LRU
        cache.put("c", "C", 40)            # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.bytes_used() <= 100
        assert obs.value("store.cache.evictions") == 1
        assert obs.value("store.cache.entries") == 2

    def test_oversized_entry_not_admitted(self):
        cache = BlockCache(capacity_bytes=100)
        cache.put("big", "B", 101)
        assert cache.get("big") is None
        assert len(cache) == 0

    def test_reinsert_replaces_cost(self):
        cache = BlockCache(capacity_bytes=100)
        cache.put("a", "A", 60)
        cache.put("a", "A2", 30)
        assert cache.bytes_used() == 30
        assert cache.get("a") == "A2"

    def test_shared_cache_hit_rate_improves_on_refanout(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        query_engine = QueryEngine(engine, obs=obs)
        view = query_engine.snapshot()
        view.app_panel("com.app.01")
        misses_after_first = view.stats.cache_misses
        hits_after_first = view.stats.cache_hits
        view.app_panel("com.app.01")
        assert view.stats.cache_misses == misses_after_first
        assert view.stats.cache_hits > hits_after_first
        assert obs.value("store.cache.hits") \
            == view.stats.cache_hits
        view.close()


class TestDashboardWorkload:
    def test_same_seed_same_report(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        query_engine = QueryEngine(engine, obs=obs)
        reports = []
        for _ in range(2):
            view = query_engine.snapshot()
            workload = DashboardWorkload(view, seed=11, panels=24)
            reports.append(workload.run())
            view.close()
        assert _canonical(reports[0]) == _canonical(reports[1])
        assert reports[0]["results_digest"]
        assert reports[0]["panels"] == 24
        assert reports[0]["app_panels"] \
            + reports[0]["network_panels"] == 24

    def test_different_seeds_differ(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(600))
        view = QueryEngine(engine, obs=obs).snapshot()
        one = DashboardWorkload(view, seed=1, panels=24).run()
        two = DashboardWorkload(view, seed=2, panels=24).run()
        assert one["results_digest"] != two["results_digest"]
        view.close()

    def test_latency_is_optional_and_volatile_only(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(300))
        view = QueryEngine(engine, obs=obs).snapshot()
        workload = DashboardWorkload(view, seed=0, panels=8)
        plain = workload.run()
        assert "latency_ms" not in plain
        timed = workload.run(include_latency=True)
        assert set(timed["latency_ms"]) == {"p50", "p99", "max"}
        assert obs.value("serve.query_latency_ms") is not None
        view.close()

    def test_verify_against_scan_holds(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(900))
        view = QueryEngine(engine, obs=obs).snapshot()
        workload = DashboardWorkload(view, seed=0, panels=0)
        result = workload.verify_against_scan(sample=4)
        assert result["panels_checked"] == 8  # min(4,40) apps + min(4,6) ops
        assert result["pruned_blocks_read"] \
            < result["scan_blocks_read"]
        view.close()

    def test_workload_counts_queries_in_the_catalog(self, tmp_path):
        engine, obs = _engine(tmp_path)
        engine.append_records(_records(300))
        view = QueryEngine(engine, obs=obs).snapshot()
        DashboardWorkload(view, seed=0, panels=10).run()
        assert obs.value("serve.queries") >= 10
        assert obs.value("serve.snapshots") == 1
        view.close()


class TestJsonStateViews:
    def test_from_rollups_matches_engine_views(self, tmp_path):
        from repro.backend.rollups import RollupStore
        engine, obs = _engine(tmp_path)
        records = _records(400)
        engine.append_records(records)
        view = QueryEngine(engine, obs=obs).snapshot()
        reference = RollupStore()
        reference.add_all(records)
        memory_view = ReadView.from_rollups(reference)
        assert view.apps(top=None) == memory_view.apps(top=None)
        assert view.window_series() == memory_view.window_series()
        assert _canonical(view.app_panel("com.app.01")) \
            == _canonical(memory_view.app_panel("com.app.01"))
        assert _canonical(view.network_panel("Op1")) \
            == _canonical(memory_view.network_panel("Op1"))
        view.close()
        memory_view.close()
