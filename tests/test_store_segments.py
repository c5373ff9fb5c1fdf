"""Segment-file tests: digest-exact round trips, footer-indexed point
reads, a sparse histogram through the block codec, and corruption
detection (every block carries its own CRC; a lying file raises, never
serves)."""

import json
import struct
import zlib

import pytest

from repro.backend.rollups import MergeHist, RollupConfig, RollupStore
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.backend.rollups import _encode_key
from repro.store.blockcache import BlockCache
from repro.store import encoding
from repro.store.encoding import decode_block, encode_block
from repro.store.segments import (
    MAGIC,
    ReadStats,
    SEGMENT_SCHEMA,
    SegmentCorruption,
    SegmentReader,
    TAIL_MAGIC,
    UnsupportedSchema,
    merged_rollups,
    prefix_range,
    stored_text,
    write_segment,
)
from tests.conftest import (CLOSES_WHAT_IT_OPENS, hand_built_row_block,
                            read_file, write_file)

pytestmark = CLOSES_WHAT_IT_OPENS


def _rec(kind="TCP", rtt=100.0, ts=0.0, domain=None, operator="OpA",
         tech="WIFI", app="com.app.a", failure=None):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        domain=domain, network_type=tech, operator=operator,
        country="US", device_id="dev-1", failure=failure)


def _populated_store():
    store = RollupStore()
    day = 24 * 3600 * 1000.0
    for index in range(200):
        store.add(_rec(rtt=20.0 + index, ts=index * day,
                       app="com.app.%d" % (index % 5),
                       domain="d%d.example" % (index % 3),
                       tech="LTE" if index % 2 else "WIFI"))
    store.add(_rec(kind="DNS", rtt=8.0))
    store.add(_rec(domain="mmx.whatsapp.net", rtt=55.0))
    store.add(_rec(rtt=1.0, failure="timeout"))
    return store


def _write_v1_segment(path, store, seq):
    """The schema-1 layout as its writer (PR 5) laid it out: one
    unindexed block per table, rows sorted by key *tuple* -- not by
    encoded key, which is where ``1|...`` comes after ``10|...`` --
    and a footer with neither zone maps nor a windows list.  (The row
    bytes are today's: the gate refuses the file before any is read.)"""
    parts = [MAGIC]
    offset = len(MAGIC)
    index = {}
    for name in RollupStore.TABLES:
        table = store.tables[name]
        payload = encode_block([(_encode_key(key), table[key])
                                for key in sorted(table)])
        block = encoding.frame(zlib.compress(payload, 9))
        parts.append(block)
        index[name] = {"offset": offset, "length": len(block),
                       "rows": len(table)}
        offset += len(block)
    footer = {"schema": 1, "seq": seq,
              "config": store.config.to_dict(),
              "records": store.records,
              "failure_records": store.failure_records,
              "tables": index}
    parts.append(encoding.frame(json.dumps(
        footer, sort_keys=True, separators=(",", ":")).encode()))
    parts.append(encoding.pack_u64(offset))
    parts.append(TAIL_MAGIC)
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))


class TestHistCodec:
    def test_sparse_hist_round_trip(self):
        hist = MergeHist()
        for value in (0.0, 0.1, 12.25, 12.3, 7999.9, 9000.0, 9000.0):
            hist.add(value)
        block = decode_block(encode_block([("key", hist)]), 1)
        assert block.texts == ["key"]
        decoded = block.hist(0)
        assert decoded.bins == hist.bins
        assert decoded.count == hist.count
        assert decoded.overflow == hist.overflow
        assert decoded.epoch == 0
        assert block.hist(0) is decoded          # built once, kept

    def test_single_bin_hist_is_tiny(self):
        hist = MergeHist()
        for _ in range(1000):
            hist.add(50.0)
        payload = encode_block([("key", hist)])
        # Six width bytes; count and bin count - 1 two bytes each,
        # key length, overflow, n_bins and bin index (200) one.
        assert len(payload) - len(struct.pack("<II", 1, 3) + b"key") \
            == 6 + 2 * 2 + 4 * 1
        assert decode_block(payload).get("key").bins == hist.bins


class TestSegmentRoundTrip:
    def test_digest_exact_round_trip(self, tmp_path):
        store = _populated_store()
        path = str(tmp_path / "seg.seg")
        obs = Observability()
        nbytes = write_segment(path, store, seq=7, obs=obs)
        assert nbytes == (tmp_path / "seg.seg").stat().st_size
        assert obs.value("store.segment_writes") == 1
        with SegmentReader(path) as reader:
            assert reader.seq == 7
            loaded = merged_rollups([reader], reader.config)
        assert loaded.digest() == store.digest()
        assert loaded.records == store.records
        assert loaded.failure_records == store.failure_records
        assert loaded.config.to_dict() == store.config.to_dict()

    def test_point_reads_match_the_store(self, tmp_path):
        store = _populated_store()
        path = str(tmp_path / "seg.seg")
        write_segment(path, store, seq=1)
        reader = SegmentReader(path)
        for table in RollupStore.TABLES:
            rows = dict(reader.iter_table(table))
            assert rows.keys() == store.tables[table].keys()
        key = next(iter(sorted(store.tables["app"])))
        hist = reader.get("app", key)
        assert hist is not None
        assert hist.bins == store.tables["app"][key].bins
        assert reader.get("app", ("9999", "com.nope", "TCP")) is None
        reader.close()

    def test_reads_touch_only_the_indexed_block(self, tmp_path):
        """Corrupting one table's block must not break point reads on
        the others -- the footer index localises both reads and
        damage."""
        store = _populated_store()
        path = str(tmp_path / "seg.seg")
        write_segment(path, store, seq=1)
        probe = SegmentReader(path)
        entry = probe.blocks("network")[0]
        probe.close()
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + 10)
            byte = handle.read(1)
            handle.seek(entry["offset"] + 10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reader = SegmentReader(path)          # footer still valid
        key = next(iter(sorted(store.tables["app"])))
        assert reader.get("app", key) is not None
        with pytest.raises(SegmentCorruption):
            reader.iter_table("network").__next__()
        reader.close()
        with SegmentReader(path) as whole, \
                pytest.raises(SegmentCorruption):
            whole.verify()

    def test_empty_store_round_trips(self, tmp_path):
        store = RollupStore(config=RollupConfig(window_ms=1000.0))
        path = str(tmp_path / "empty.seg")
        write_segment(path, store, seq=1)
        with SegmentReader(path) as reader:
            loaded = merged_rollups([reader], reader.config)
        assert loaded.digest() == store.digest()
        assert loaded.records == 0


class TestSegmentCorruption:
    def _segment(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        write_segment(path, _populated_store(), seq=1)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._segment(tmp_path)
        data = read_file(path)
        write_file(path, data[:len(data) // 2])
        with pytest.raises(SegmentCorruption):
            SegmentReader(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(read_file(path))
        data[0] ^= 0xFF
        write_file(path, bytes(data))
        with pytest.raises(SegmentCorruption, match="magic"):
            SegmentReader(path)

    def test_footer_checksum_failure_rejected(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(read_file(path))
        data[-20] ^= 0xFF                     # inside the footer frame
        write_file(path, bytes(data))
        with pytest.raises(SegmentCorruption):
            SegmentReader(path)

    def test_unknown_schema_rejected(self, tmp_path):
        """A sound file of a newer or an older schema is refused by
        its own error -- the one recovery does not answer by
        quarantining -- naming the file and both schema numbers."""
        path = str(tmp_path / "seg.seg")
        for schema in (SEGMENT_SCHEMA + 1, 4, 3, 2, None):
            write_segment(path, _populated_store(), seq=1)

            def restamp(footer):
                footer["schema"] = schema
            _rewrite_footer(path, restamp)
            before = read_file(path)
            with pytest.raises(UnsupportedSchema) as refused:
                SegmentReader(path)
            assert not isinstance(refused.value, SegmentCorruption)
            for told in (path, repr(schema),
                         "schema %d" % SEGMENT_SCHEMA):
                assert told in str(refused.value)
            assert read_file(path) == before

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SegmentCorruption, match="unreadable"):
            SegmentReader(str(tmp_path / "nope.seg"))

    def _dns_only_segment(self, tmp_path, raw_keys, key_len=None):
        """A segment whose single row block was built by hand from
        ``raw_keys`` as given, and indexed like a written one."""
        store = RollupStore()
        for operator in ("OpA", "OpB"):
            store.add(_rec(kind="DNS", rtt=8.0, operator=operator))
        assert [name for name in RollupStore.TABLES
                if store.tables[name]] == ["network"]
        path = str(tmp_path / "seg.seg")
        write_segment(path, store, seq=1)
        _swap_the_network_block(path,
                                hand_built_row_block(raw_keys, key_len))
        return path

    def test_hand_built_block_in_key_order_reads(self, tmp_path):
        path = self._dns_only_segment(
            tmp_path, [b"OpA|0|WIFI|DNS", b"OpB|0|WIFI|DNS"])
        with SegmentReader(path) as reader:
            reader.verify()
            assert [key for key, _hist in reader.iter_table("network")] \
                == [("0", "OpA", "WIFI", "DNS"),
                    ("0", "OpB", "WIFI", "DNS")]

    @pytest.mark.parametrize("raw_keys", [
        [b"OpB|0|WIFI|DNS", b"OpA|0|WIFI|DNS"],      # descending
        [b"OpA|0|WIFI|DNS", b"OpA|0|WIFI|DNS"],      # not *strictly* up
        # Window-major, as schemas 1-3 ordered rows: (0, OpB) before
        # (1, OpA) -- which is not the order of their stored texts.
        [b"OpB|0|WIFI|DNS", b"OpA|1|WIFI|DNS"],
    ])
    def test_crc_valid_block_out_of_key_order_rejected(self, tmp_path,
                                                       raw_keys):
        """The scans yield a decoded block in the order it was stored
        and never re-sort it, so a block stored in any other order
        must not decode at all."""
        path = self._dns_only_segment(tmp_path, raw_keys)
        reader = SegmentReader(path)          # footer and CRCs are fine
        with pytest.raises(SegmentCorruption,
                           match="rows out of key order"):
            reader.get("network", ("0", "OpA", "WIFI", "DNS"))
        with pytest.raises(SegmentCorruption,
                           match="rows out of key order"):
            list(reader.scan_prefixes("network",
                                      [prefix_range(("OpA",))]))
        with pytest.raises(SegmentCorruption,
                           match="rows out of key order"):
            reader.verify()
        reader.close()

    @pytest.mark.parametrize("raw_keys", [
        [b"OpA|0|WIFI|DNS", b"Op\\B|0|WIFI|DNS"],   # needless escape
        [b"OpA|0|WIFI|DNS", b"OpB|0|WIFI|DNS\\"],   # lone backslash
        [b"OpA|0|WIFI|DNS", b"Op\\A|0|WIFI|DNS"],   # one key, twice
    ], ids=["needless-escape", "trailing-backslash", "same-key-pair"])
    def test_key_text_no_writer_produces_rejected(self, tmp_path,
                                                  raw_keys):
        """Blocks are keyed by stored text, so two texts that split
        into one tuple would be two rows of one key.  Every writer
        stores ``_encode_key``'s output; any other text -- ascending
        and distinct as these are -- is refused."""
        assert raw_keys == sorted(set(raw_keys))
        path = self._dns_only_segment(tmp_path, raw_keys)
        reader = SegmentReader(path)
        with pytest.raises(SegmentCorruption,
                           match="not in canonical form"):
            reader.verify()
        with pytest.raises(SegmentCorruption,
                           match="not in canonical form"):
            reader.get("network", ("0", "OpA", "WIFI", "DNS"))
        reader.close()

    def test_key_length_past_the_payload_rejected(self, tmp_path):
        path = self._dns_only_segment(
            tmp_path, [b"OpA|0|WIFI|DNS", b"OpB|0|WIFI|DNS"],
            key_len=200)
        with SegmentReader(path) as reader, \
                pytest.raises(SegmentCorruption,
                              match="key lengths do not sum"):
            reader.verify()


class TestZoneMaps:
    """v2 block splitting: zone-map pruning must give byte-identical
    answers to full scans while opening strictly fewer blocks."""

    def _reader(self, tmp_path, block_rows=8, cache=None):
        store = _populated_store()
        path = str(tmp_path / "seg.seg")
        write_segment(path, store, seq=1, block_rows=block_rows)
        stats = ReadStats()
        return store, SegmentReader(path, cache=cache,
                                    stats=stats), stats

    def test_tables_split_into_bounded_sorted_blocks(self, tmp_path):
        store, reader, _stats = self._reader(tmp_path, block_rows=8)
        for name in RollupStore.TABLES:
            blocks = reader.blocks(name)
            assert sum(b["rows"] for b in blocks) \
                == len(store.tables[name])
            previous_max = None
            for block in blocks:
                assert 1 <= block["rows"] <= 8
                assert block["min"] <= block["max"]
                if previous_max is not None:
                    # Disjoint and ascending: what makes the zone
                    # maps binary-searchable.
                    assert block["min"] > previous_max
                previous_max = block["max"]
        reader.close()

    def test_point_read_opens_at_most_one_block(self, tmp_path):
        store, reader, stats = self._reader(tmp_path, block_rows=8)
        total = len(reader.blocks("app"))
        assert total >= 3
        for key in sorted(store.tables["app"]):
            before = stats.copy()
            hist = reader.get("app", key)
            assert hist is not None
            assert hist.bins == store.tables["app"][key].bins
            delta = stats.delta_since(before)
            assert delta.blocks_read == 1
            assert delta.blocks_pruned == total - 1
        reader.close()

    def test_missing_key_reads_zero_blocks(self, tmp_path):
        _store, reader, stats = self._reader(tmp_path, block_rows=8)
        # Sorts far past every real key: all blocks pruned, none read.
        assert reader.get("app", ("99999", "zzz.nope", "TCP")) is None
        assert stats.blocks_read == 0
        assert stats.blocks_pruned == len(reader.blocks("app"))
        reader.close()

    def test_point_read_bisects_the_zone_maps(self, tmp_path,
                                              monkeypatch):
        """``get`` compares the key with one block's zone map, not
        with every block's up to the match -- for hits, for keys in
        the gap between two blocks and for keys outside them all --
        and still counts reads and prunes as the linear walk did."""
        store, reader, stats = self._reader(tmp_path, block_rows=2)
        blocks = reader.blocks("app")
        assert len(blocks) >= 8
        compared = []
        holds = SegmentReader._block_holds
        monkeypatch.setattr(
            SegmentReader, "_block_holds",
            staticmethod(lambda entry, encoded:
                         compared.append(encoded) or holds(entry, encoded)))
        present = sorted(store.tables["app"])
        absent = [key[:2] + ("!",) for key in present] \
            + [key[:2] + ("~",) for key in present] \
            + [("", "", ""), ("~", "~", "~")]
        for key in present + absent:
            encoded = stored_text("app", key)
            inside = [block for block in blocks
                      if block["min"] <= encoded <= block["max"]]
            before = stats.copy()
            del compared[:]
            hist = reader.get("app", key)
            delta = stats.delta_since(before)
            assert len(compared) <= 1
            assert (hist is not None) == (key in store.tables["app"])
            if hist is not None:
                assert hist.bins == store.tables["app"][key].bins
            assert delta.blocks_read == len(inside)
            assert delta.blocks_pruned \
                == len(blocks) - len(inside)
        assert any(block["max"] < stored_text("app", key) < later["min"]
                   for key in absent
                   for block, later in zip(blocks, blocks[1:]))
        reader.close()

    def test_scan_prefix_matches_filtered_full_scan(self, tmp_path):
        """A stored prefix -- one subject, or a subject and a window
        -- against the same rows picked out of the table."""
        store, reader, stats = self._reader(tmp_path, block_rows=4)
        table = store.tables["app"]
        total = len(reader.blocks("app"))
        apps = sorted({key[1] for key in table})
        assert len(apps) == 6 and total >= 10
        prefixes = [(app,) for app in apps] \
            + sorted({(key[1], key[0]) for key in table})[::7]
        for prefix in prefixes:
            before = stats.copy()
            pruned = dict(reader.scan_prefixes(
                "app", [prefix_range(prefix)]))
            expected = {key: hist for key, hist in table.items()
                        if (key[1], key[0])[:len(prefix)] == prefix}
            assert expected and pruned.keys() == expected.keys()
            for key in expected:
                assert pruned[key].bins == expected[key].bins
            delta = stats.delta_since(before)
            # A subject's rows are one run: the blocks that hold them
            # and no other.
            assert delta.blocks_read <= -(-len(expected) // 4) + 1
            assert delta.blocks_read + delta.blocks_pruned == total
        reader.close()

    def test_footer_lists_the_windows(self, tmp_path):
        store, reader, _stats = self._reader(tmp_path)
        assert reader.windows() == store.windows()
        reader.close()

    def test_v1_monolithic_footer_is_refused_untouched(self, tmp_path):
        """A PR-5 segment (schema 1: one unindexed block per table,
        rows in tuple order, no windows list) used to load through
        the same API.  It is now refused whole, by schema number,
        before any of that is looked at -- and not as corruption."""
        path = str(tmp_path / "seg.seg")
        _write_v1_segment(path, _populated_store(), seq=1)
        before = read_file(path)
        with pytest.raises(UnsupportedSchema, match="schema 1 "):
            SegmentReader(path)
        assert read_file(path) == before

    def test_shared_cache_decodes_each_block_once(self, tmp_path):
        cache = BlockCache(capacity_bytes=1 << 20)
        store, reader, stats = self._reader(tmp_path, block_rows=8,
                                            cache=cache)
        for key in sorted(store.tables["app"]):
            assert reader.get("app", key) is not None
        assert stats.cache_misses == len(reader.blocks("app"))
        assert stats.cache_hits == stats.blocks_read \
            - stats.cache_misses
        assert stats.cache_hits > 0
        # A second reader over the same file shares the entries.
        other_stats = ReadStats()
        other = SegmentReader(reader.path, cache=cache,
                              stats=other_stats)
        key = next(iter(sorted(store.tables["app"])))
        assert other.get("app", key) is not None
        assert other_stats.cache_misses == 0
        other.close()
        reader.close()

    def test_order_is_by_encoded_key(self, tmp_path):
        """Rows sort by the stored key text (what the zone maps
        compare), so blocks stay disjoint even when tuple order and
        text order disagree -- and a subject-major table's rows come
        out subject by subject, not window by window."""
        _store, reader, _stats = self._reader(tmp_path, block_rows=4)
        for name in RollupStore.TABLES:
            texts = [stored_text(name, key)
                     for key, _hist in reader.iter_table(name)]
            assert texts == sorted(texts)
        apps = [key[1] for key, _hist in reader.iter_table("app")]
        assert apps == sorted(apps) and len(set(apps)) == 6
        windows = [key[0] for key, _hist in reader.iter_table("app")]
        assert windows != sorted(windows)
        reader.close()


def _swap_the_network_block(path, block):
    """Put ``block`` where the one row block of a segment holding two
    ``network`` rows and nothing else is, indexed like a written one."""
    data = read_file(path)
    offset = encoding.unpack_u64(data, len(data) - 16)
    payload, _end, _status = encoding.read_frame(data, offset)
    footer = json.loads(payload)
    (entry,) = footer["tables"]["network"]["blocks"]
    assert entry["rows"] == 2 and offset == entry["offset"] \
        + entry["length"]
    entry["length"] = len(block)
    body = data[:entry["offset"]] + block
    footer_frame = encoding.frame(json.dumps(
        footer, sort_keys=True, separators=(",", ":")).encode())
    write_file(path, body + footer_frame + encoding.pack_u64(len(body))
           + data[-8:])


def _rewrite_footer(path, mutate):
    """Re-frame the footer JSON after ``mutate(footer)`` edits it in
    place, preserving the block payload bytes before it."""
    data = read_file(path)
    offset = encoding.unpack_u64(data, len(data) - 16)
    payload, _end, _status = encoding.read_frame(data, offset)
    footer = json.loads(payload)
    mutate(footer)
    new_payload = json.dumps(footer, sort_keys=True,
                             separators=(",", ":")).encode()
    blob = (data[:offset] + encoding.frame(new_payload)
            + encoding.pack_u64(offset) + data[-8:])
    write_file(path, blob)


class TestSchemaWidening:
    """PR-9 widened ``RollupStore.TABLES`` with the modality tables
    and bumped the segment schema.  A segment from before that is of
    a schema no longer read; one of the current schema indexes every
    table, and a footer naming a table this build doesn't know must
    be ignored."""

    def test_pre_widening_segment_is_refused_untouched(self, tmp_path):
        path = str(tmp_path / "old.seg")
        write_segment(path, _populated_store(), seq=1, block_rows=8)

        def downgrade(footer):
            footer["schema"] = 2
            for name in ("app_throughput", "app_energy", "aoi"):
                del footer["tables"][name]
        _rewrite_footer(path, downgrade)
        before = read_file(path)
        with pytest.raises(UnsupportedSchema, match="schema 2 "):
            SegmentReader(path)
        assert read_file(path) == before

    def test_current_schema_footer_lacking_a_table_is_corrupt(
            self, tmp_path):
        path = str(tmp_path / "short.seg")
        write_segment(path, _populated_store(), seq=1, block_rows=8)

        def drop(footer):
            del footer["tables"]["aoi"]
        _rewrite_footer(path, drop)
        with pytest.raises(SegmentCorruption, match="every rollup table"):
            SegmentReader(path)

    def test_footer_table_unknown_to_this_build_is_ignored(
            self, tmp_path):
        store = _populated_store()
        path = str(tmp_path / "future.seg")
        write_segment(path, store, seq=1, block_rows=8)

        def widen(footer):
            footer["tables"]["flux_capacitor"] = \
                dict(footer["tables"]["network"])
        _rewrite_footer(path, widen)
        with SegmentReader(path) as reader:
            loaded = merged_rollups([reader], reader.config)
        assert "flux_capacitor" not in loaded.tables
        assert loaded.digest() == store.digest()


class TestFooterFields:
    """A CRC-valid footer of this schema that lacks anything
    ``write_segment`` writes is corrupt at open -- by name, with the
    handle closed -- not a ``KeyError`` then or at the first read."""

    #: Where in the footer, what ``write_segment`` writes there.
    FIELDS = {
        (): ("seq", "config", "records", "failure_records", "windows",
             "tables"),
        ("tables", "app"): ("rows", "blocks"),
        ("tables", "app", "blocks", 1):
            ("offset", "length", "rows", "min", "max")}

    @pytest.mark.parametrize("where,field", [
        (where, field) for where, fields in FIELDS.items()
        for field in fields])
    def test_footer_lacking_a_field_is_corrupt(self, tmp_path,
                                               monkeypatch, where,
                                               field):
        from repro.store import segments
        path = str(tmp_path / "short.seg")
        write_segment(path, _populated_store(), seq=1, block_rows=8)

        def drop(footer):
            for step in where:
                footer = footer[step]
            del footer[field]
        _rewrite_footer(path, drop)
        handles = []
        monkeypatch.setattr(
            segments, "open",
            lambda *args: handles.append(open(*args)) or handles[-1],
            raising=False)
        with pytest.raises(SegmentCorruption) as refused:
            SegmentReader(path)
        assert str(refused.value) == (
            "footer of %s lacks a field its writer writes: %r"
            % (path, field))
        assert [handle.closed for handle in handles] == [True]

    def test_what_is_required_is_what_is_written(self, tmp_path):
        path = str(tmp_path / "whole.seg")
        write_segment(path, _populated_store(), seq=1, block_rows=8)
        with SegmentReader(path) as reader:
            footer = reader.footer
        for found, required in (
                (footer, ("schema", *self.FIELDS[()])),
                (footer["tables"]["app"], self.FIELDS["tables", "app"]),
                (footer["tables"]["app"]["blocks"][1],
                 self.FIELDS["tables", "app", "blocks", 1])):
            assert sorted(found) == sorted(required)


class TestDeterminism:
    def test_insertion_order_cannot_change_the_bytes(self, tmp_path):
        day = 24 * 3600 * 1000.0
        records = [_rec(rtt=20.0 + i, ts=i * day,
                        app="com.app.%d" % (i % 7)) for i in range(50)]
        one, two = RollupStore(), RollupStore()
        one.add_all(records)
        two.add_all(list(reversed(records)))
        path_a = str(tmp_path / "a.seg")
        path_b = str(tmp_path / "b.seg")
        write_segment(path_a, one, seq=1)
        write_segment(path_b, two, seq=1)
        assert read_file(path_a) == read_file(path_b)
