"""Unit tests for the collection backend (repro.backend)."""

import json

import pytest

from repro.backend import (
    IngestLoadModel,
    IngestPipeline,
    MergeHist,
    OnlineDetector,
    RollupConfig,
    RollupStore,
    TokenBucket,
    parse_batch_lines,
)
from repro.backend import query as backend_query
from repro.backend.rollups import (
    BIN_WIDTH_MS,
    DEFAULT_WINDOW_MS,
    MAX_RTT_MS,
    N_BINS,
)
from repro.core.persist import record_to_line
from repro.core.records import MeasurementKind, MeasurementRecord
from repro.obs import Observability


def _rec(kind="TCP", rtt=100.0, ts=0.0, domain=None, operator="OpA",
         tech="WIFI", app="com.app.a", device="dev-1"):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=ts, app_package=app,
        app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
        domain=domain, network_type=tech, operator=operator,
        country="US", device_id=device)


def _payload(records):
    return ("\n".join(record_to_line(r) for r in records)
            + "\n").encode()


def _reference_quantile_index(hist, q):
    """The quantile loop as ``quantile`` and ``quantile_index`` each
    carried it before they shared one: one sorted pass per quantile."""
    if hist.count == 0:
        return 0.0
    target = q * hist.count
    seen = 0
    for index in sorted(hist.bins):
        n = hist.bins[index]
        if seen + n >= target:
            frac = (target - seen) / n if n else 0.0
            return index + frac
        seen += n
    return float(N_BINS)


def _hist_of(bins, overflow=0):
    hist = MergeHist()
    hist.bins = dict(bins)
    hist.count = sum(bins.values())
    hist.overflow = overflow
    return hist


class TestMergeHist:
    @pytest.mark.parametrize("hist", [
        _hist_of({}),                                   # empty
        _hist_of({40: 7}),                              # one bin
        _hist_of({4: 5, 9: 5}),              # q = 0.5 on a bin edge
        _hist_of({4: 1, 9: 1, 700: 98}),     # several q in one bin
        _hist_of({0: 3, 17: 1, N_BINS - 1: 2}, overflow=2),
        _hist_of({3: 0, 8: 4}),              # a bin holding nothing
    ], ids=["empty", "one-bin", "bin-edge", "shared-bin", "overflow",
            "zero-bin"])
    def test_every_readout_agrees_with_the_old_loop(self, hist):
        qs = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)
        want = [_reference_quantile_index(hist, q) for q in qs]
        assert hist.quantile_indices(qs) == want
        assert [hist.quantile_index(q) for q in qs] == want
        assert [hist.quantile(q) for q in qs] \
            == [index * BIN_WIDTH_MS for index in want]
        assert hist.median() == want[2] * BIN_WIDTH_MS
        assert hist.quantile_indices(()) == []

    def test_quantile_past_the_count_is_the_top_of_the_grid(self):
        """A count larger than the bins hold (only a damaged row has
        one) reads as the grid's end, as it always did."""
        hist = _hist_of({4: 2})
        hist.count = 10
        assert hist.quantile_indices((0.1, 0.5, 1.0)) \
            == [4.5, float(N_BINS), float(N_BINS)]
        assert hist.quantile(1.0) == MAX_RTT_MS

    def test_merge_into_empty_copies_the_bins(self):
        source = _hist_of({4: 2, 9: 1}, overflow=1)
        merged = MergeHist()
        merged.merge(source)
        merged.merge(source)
        assert merged.to_dict() == _hist_of({4: 4, 9: 2},
                                            overflow=2).to_dict()
        assert source.to_dict() == _hist_of({4: 2, 9: 1},
                                            overflow=1).to_dict()

    def test_median_interpolates_within_bin(self):
        hist = MergeHist()
        for value in (10.0, 20.0, 30.0):
            hist.add(value)
        assert 19.9 < hist.median() < 20.3

    def test_overflow_clipped_to_last_bin(self):
        hist = MergeHist()
        hist.add(MAX_RTT_MS + 500.0)
        assert hist.overflow == 1
        assert hist.count == 1
        assert hist.quantile(1.0) == MAX_RTT_MS

    def test_merge_is_order_invariant(self):
        parts = []
        for base in (5.0, 105.0, 205.0):
            hist = MergeHist()
            for i in range(50):
                hist.add(base + i)
            parts.append(hist)
        forward, backward = MergeHist(), MergeHist()
        for hist in parts:
            forward.merge(hist)
        for hist in reversed(parts):
            backward.merge(hist)
        assert forward.to_dict() == backward.to_dict()
        assert forward.median() == backward.median()


class TestRollupStore:
    def _records(self):
        records = []
        for i in range(40):
            records.append(_rec(rtt=200.0 + i, ts=i * 1e6,
                                domain="c%d.whatsapp.net" % (i % 4)))
            records.append(_rec(kind="DNS", rtt=30.0 + i, ts=i * 1e6,
                                app=None))
            records.append(_rec(rtt=150.0 + i, ts=i * 1e6,
                                domain="api.example.com", tech="LTE"))
        return records

    def test_tables_populated(self):
        store = RollupStore()
        store.add_all(self._records())
        assert store.records == 120
        assert store.table("network")
        assert store.table("app")
        assert store.table("watch_domain")
        assert store.table("watch_network")
        assert store.table("lte_domain")
        # whatsapp chat domains land in the watch tables.
        classes = {key[1] for key in store.table("watch_domain")}
        assert classes == {"chat"}

    def test_merge_matches_single_store_digest(self):
        records = self._records()
        whole = RollupStore()
        whole.add_all(records)
        left, right = RollupStore(), RollupStore()
        left.add_all(records[:50])
        right.add_all(records[50:])
        merged = RollupStore()
        merged.merge(right)          # deliberately out of order
        merged.merge(left)
        assert merged.digest() == whole.digest()
        assert merged.records == whole.records

    def test_merge_rejects_config_mismatch(self):
        a = RollupStore(config=RollupConfig(window_ms=1000.0))
        b = RollupStore(config=RollupConfig(window_ms=2000.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_save_load_round_trip(self, tmp_path):
        """Saved as ``serve --data-dir`` saves it, and reopened."""
        from repro.store import StoreEngine
        store = RollupStore()
        store.add_all(self._records())
        engine = StoreEngine(str(tmp_path / "store"))
        engine.findings = [{"rule": "x"}]
        engine.bulk_load(store)
        engine.close()
        engine = StoreEngine(str(tmp_path / "store"))
        loaded = engine.materialize()
        engine.close()
        assert loaded.digest() == store.digest()
        assert loaded.records == store.records
        assert engine.findings == [{"rule": "x"}]

    def test_meta_excluded_from_digest(self):
        a, b = RollupStore(), RollupStore()
        for store in (a, b):
            store.add_all(self._records())
        b.meta["workers"] = 8
        assert a.digest() == b.digest()

    def test_windowing_splits_by_sim_time(self):
        config = RollupConfig(window_ms=1000.0)
        store = RollupStore(config=config)
        store.add(_rec(ts=100.0))
        store.add(_rec(ts=2500.0))
        assert store.windows() == [0, 2]


class _CreationLog(dict):
    """A rollup table that logs ``(table, key arity)`` for every row
    made in it, in the order made across all tables."""

    def __init__(self, name, log):
        super().__init__()
        self.name, self.log = name, log

    def __setitem__(self, key, value):
        self.log.append((self.name, len(key)))
        super().__setitem__(key, value)


def _bins_on_the_grid(store, rtt):
    """Every row holds one sample, in its table's grid's bin."""
    from repro.backend import rollups
    for table, rows in store.tables.items():
        for key, hist in rows.items():
            spec = rollups.SPEC_BY_TABLE[table]
            assert len(key) == len(spec.key)
            assert (hist.count, hist.overflow) == (1, 0)
            assert hist.bins == {
                rollups.log_bin(rtt) if spec.grid == "log"
                else int(rtt / BIN_WIDTH_MS): 1}


class TestAddWorkPerKind:
    """What the wall-clock A/B guards (``modalities``, ``middlebox``)
    protected, as a count: widening the schema puts no work on the
    kinds that were there before.  One ``add`` makes exactly the rows
    its kind's tables require, each keyed as its table is and binned
    on its table's grid, and the log-grid mapping runs once per
    modality record and never for an RTT kind."""

    @pytest.mark.parametrize("record, tables, log_bins", [
        (_rec(), ["network", "app"], 0),
        (_rec(domain="api.example.com"), ["network", "app"], 0),
        (_rec(domain="api.example.com", tech="LTE"),
         ["network", "app", "lte_domain"], 0),
        (_rec(domain="c1.whatsapp.net"),
         ["network", "app", "watch_domain", "watch_network"], 0),
        (_rec(domain="c1.whatsapp.net", tech="LTE"),
         ["network", "app", "watch_domain", "watch_network",
          "lte_domain"], 0),
        (_rec(kind="DNS"), ["network"], 0),
        (_rec(kind="APP_RTT"), ["network", "app"], 0),
        (_rec(kind="TPUT_UP"), ["app_throughput"], 1),
        (_rec(kind="TPUT_DOWN"), ["app_throughput"], 1),
        (_rec(kind="ENERGY"), ["app_energy"], 1),
        (_rec(kind="AOI"), ["aoi"], 1),
    ], ids=["tcp", "tcp-domain", "tcp-lte", "tcp-watched",
            "tcp-watched-lte", "dns", "app-rtt", "tput-up",
            "tput-down", "energy", "aoi"])
    def test_one_add_touches_exactly_its_kinds_rows(
            self, monkeypatch, record, tables, log_bins):
        from repro.backend import rollups

        mapped = []
        log_bin = rollups.log_bin

        def counted_log_bin(value):
            mapped.append(value)
            return log_bin(value)

        monkeypatch.setattr(rollups, "log_bin", counted_log_bin)
        store = RollupStore()
        store.add(record)
        assert [name for name in store.TABLES
                if store.tables[name]] == tables
        assert len(mapped) == log_bins
        assert store.group_count() == len(tables)
        monkeypatch.undo()
        _bins_on_the_grid(store, record.rtt_ms)

    def test_every_kind_is_counted_above(self):
        from repro.core.records import MeasurementKind
        counted = {"TCP", "DNS", "APP_RTT", "TPUT_UP", "TPUT_DOWN",
                   "ENERGY", "AOI"}
        assert counted == set(MeasurementKind.ALL)


class TestAddFollowsTheSpec:
    """``RollupStore.add_all`` routes by a hand-written ladder, not by
    walking ``TABLE_SPECS`` (a table-driven route measured slower);
    this is what keeps the two from drifting.  A *maximal* record of a
    kind -- every field set, watched domain, on LTE -- must make a row
    in exactly the tables the spec lists for the kind, in the spec's
    order; a *minimal* one -- every optional field ``None`` -- in some
    of them, in that order; every key as long as the spec's, every bin
    on the spec's grid."""

    @staticmethod
    def _records(kind):
        maximal = _rec(kind=kind, rtt=37.3, domain="c1.whatsapp.net",
                       tech="LTE")
        minimal = MeasurementRecord(kind=kind, rtt_ms=37.3,
                                    timestamp_ms=0.0)
        return maximal, minimal

    @pytest.mark.parametrize("kind", MeasurementKind.ALL)
    def test_tables_order_arity_and_grid(self, kind):
        from repro.backend import rollups

        wanted = [spec for spec in rollups.TABLE_SPECS
                  if kind in spec.kinds]
        assert wanted
        maximal, minimal = self._records(kind)
        for record, exact in ((maximal, True), (minimal, False)):
            made = []
            store = RollupStore()
            store.tables = {name: _CreationLog(name, made)
                            for name in store.TABLES}
            store.add(record)
            routes = [(spec.name, len(spec.key)) for spec in wanted]
            if exact:
                assert made == routes
            else:
                assert made and set(made) <= set(routes)
                assert made == [r for r in routes if r in made]
            _bins_on_the_grid(store, 37.3)
        assert rollups.log_bin(37.3) != int(37.3 / BIN_WIDTH_MS)


class TestDecodeWorkPerLine:
    """The decoder's per-line work, as a count: the record checks run
    once per line, and the kind is looked at by nobody but those
    checks unless they refused it."""

    N = 1000

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.core import persist

        checked, normalized = [], []
        check = persist.check_fields
        normalize = persist._normalize_kind

        def counted_check(kind, *fields):
            checked.append(kind)
            return check(kind, *fields)

        def counted_normalize(kind):
            normalized.append(kind)
            return normalize(kind)

        monkeypatch.setattr(persist, "check_fields", counted_check)
        monkeypatch.setattr(persist, "_normalize_kind",
                            counted_normalize)
        return checked, normalized

    def _lines(self):
        from repro.core.records import MeasurementKind
        kinds = MeasurementKind.ALL
        return [record_to_line(_rec(kind=kinds[i % len(kinds)],
                                    rtt=float(i)))
                for i in range(self.N)]

    def test_batch_decode_builds_one_record_per_line(self, counted):
        from repro.core.persist import decode_record_lines
        checked, normalized = counted
        records, truncated = decode_record_lines(self._lines())
        assert (len(records), truncated) == (self.N, False)
        assert len(checked) == self.N
        assert normalized == []

    def test_file_decode_builds_one_record_per_line(self, counted,
                                                    tmp_path):
        from repro.core.persist import iter_jsonl
        checked, normalized = counted
        path = tmp_path / "shard.jsonl"
        path.write_text("\n".join(self._lines()) + "\n")
        assert sum(1 for _ in iter_jsonl(str(path))) == self.N
        assert len(checked) == self.N
        assert normalized == []

    def test_lower_case_kind_is_normalized_exactly_once(self, counted):
        from repro.core.persist import decode_record_lines
        checked, normalized = counted
        line = record_to_line(_rec()).replace('"TCP"', '"tcp"')
        records, truncated = decode_record_lines([line])
        assert records == [_rec()] and not truncated
        # Refused once, then passed under the canonical name.
        assert checked == ["tcp", "TCP"]
        assert normalized == ["tcp"]


class TestEncodeWorkPerRecord:
    """The serialiser's per-record work, as a count: a record whose
    fields are all of the exact JSON types is formatted -- no dict
    built, no ``json.dumps`` -- and one that is not is dumped once."""

    N = 1000

    @pytest.fixture
    def counted(self, monkeypatch):
        from types import SimpleNamespace
        from repro.core import persist

        dumped, dicts = [], []
        to_dict = persist._record_to_dict

        def counted_dumps(value):
            dumped.append(value)
            return json.dumps(value)

        def counted_to_dict(record):
            dicts.append(record)
            return to_dict(record)

        # Only the serialiser's own use of json: the store's manifest
        # and envelope headers are dumped by other modules.
        monkeypatch.setattr(persist, "json", SimpleNamespace(
            dumps=counted_dumps, loads=json.loads))
        monkeypatch.setattr(persist, "_record_to_dict",
                            counted_to_dict)
        return dumped, dicts

    @staticmethod
    def _encode(path, records, root):
        from repro.core.persist import encode_batch
        from repro.store import StoreEngine
        if path == "record_to_line":
            return "".join(record_to_line(record) + "\n"
                           for record in records).encode()
        if path == "encode_batch":
            return encode_batch(records)
        # The store's one serialising write: a batch logged without
        # the lines it came in (a bulk load serialises nothing).
        engine = StoreEngine(str(root / "store"), obs=Observability())
        engine.log_batch("dev-1", 0, len(records), records)
        engine.close()
        return (root / "store" / "wal.log").read_bytes()

    PATHS = ["record_to_line", "encode_batch", "log_batch"]

    @pytest.mark.parametrize("path", PATHS)
    def test_ordinary_records_are_never_dumped(self, counted, path,
                                               tmp_path):
        from repro.core.records import MeasurementKind
        kinds = MeasurementKind.ALL
        records = [_rec(kind=kinds[i % len(kinds)], rtt=i / 7.0,
                        ts=-1e3 * i, app=None if i % 3 else "a.b",
                        domain="d%d.example" % i if i % 2 else None)
                   for i in range(self.N)]
        written = self._encode(path, records, tmp_path)
        assert counted == ([], [])
        assert written.count(b"\n") >= self.N
        assert record_to_line(records[-1]).encode() in written

    @pytest.mark.parametrize("path", PATHS)
    def test_a_bool_port_is_dumped_exactly_once(self, counted, path,
                                                tmp_path):
        dumped, dicts = counted
        record = _rec()._replace(dst_port=True)
        written = self._encode(path, [record], tmp_path)
        assert dicts == [record] and len(dumped) == 1
        assert b'"dst_port": true, ' in written


class TestParseBatchPrefix:
    def test_stops_at_first_bad_line(self):
        good = [_rec(rtt=float(i)) for i in range(4)]
        lines = [record_to_line(r) for r in good]
        lines.insert(2, "{broken")
        payload = ("\n".join(lines) + "\n").encode()
        records, _lines, truncated = parse_batch_lines(payload)
        assert truncated
        assert [r.rtt_ms for r in records] == [0.0, 1.0]

    def test_clean_payload_not_truncated(self):
        records, _lines, truncated = parse_batch_lines(
            _payload([_rec(), _rec(rtt=5.0)]))
        assert not truncated
        assert len(records) == 2

    def test_blank_lines_ignored(self):
        payload = b"\n" + _payload([_rec()]) + b"\n\n"
        records, _lines, truncated = parse_batch_lines(payload)
        assert not truncated
        assert len(records) == 1

    @staticmethod
    def _logged(tmp_path, payload):
        """``payload`` through a durable pipeline: the outcome, and
        the body of the one WAL envelope it wrote."""
        from repro.store import StoreEngine
        from repro.store.wal import replay

        engine = StoreEngine(str(tmp_path), obs=Observability())
        outcome = IngestPipeline(store=engine, obs=engine.obs) \
            .handle_batch("dev", 0, payload, now_ms=0.0)
        engine.close()
        (path,) = engine.wal_paths()
        (envelope,) = replay(path).payloads
        return outcome, envelope.split(b"\n", 1)[1]

    def test_a_line_that_is_not_utf8_is_malformed(self, tmp_path):
        """A stray ``\\xff`` in a string is not JSON text: the ACK
        prefix ends before its line, and the WAL holds the good line's
        bytes -- not a record with U+FFFD in its operator."""
        good = record_to_line(_rec()).encode()
        bad = record_to_line(_rec(operator="Ji")).encode().replace(
            b'"Ji"', b'"Ji\xff"')
        outcome, body = self._logged(
            tmp_path, good + b"\n" + bad + b"\n" + good + b"\n")
        assert (outcome.acked, outcome.truncated) == (1, True)
        assert body == good

    @pytest.mark.parametrize("payload,acked", [
        (b"\xff\n", 0),
        (b"{}\xff", 0),
        (b"GOOD\n\n\xfe{}\n", 1),
        (b"GOOD\r\n\xff\r\nGOOD\n", 1),
        (b"GOOD\nGOOD\r\xc3", 2),
    ], ids=["alone", "mid-line", "after-a-blank", "crlf", "cut-sequence"])
    def test_the_prefix_ends_at_the_undecodable_line(self, payload,
                                                     acked):
        good = record_to_line(_rec()).encode()
        records, lines, truncated = parse_batch_lines(
            payload.replace(b"GOOD", good))
        assert (len(records), truncated) == (acked, True)
        assert lines == [good] * acked

    def test_a_raw_utf8_line_is_logged_byte_for_byte(self, tmp_path):
        line = json.dumps(json.loads(record_to_line(
            _rec(operator="中国移动"))), ensure_ascii=False).encode()
        assert "中国移动".encode() in line
        outcome, body = self._logged(tmp_path, line + b"\n")
        assert (outcome.acked, outcome.truncated) == (1, False)
        assert outcome.records[0].operator == "中国移动"
        assert body == line


class TestTokenBucket:
    def test_deny_then_refill(self):
        bucket = TokenBucket(capacity=2, refill_per_ms=0.001,
                             now_ms=0.0)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.retry_hint_ms() > 0
        assert bucket.allow(1000.0)      # one token refilled


class TestIngestLoadModel:
    def test_sheds_over_threshold_and_drains(self):
        load = IngestLoadModel(base_ms=1.0, per_record_ms=1.0,
                               busy_threshold_ms=15.0)
        ok, delay = load.admit(10, now_ms=0.0)     # cost 11
        assert ok and delay == 11.0
        ok, retry = load.admit(10, now_ms=0.0)     # would be 22 > 15
        assert not ok and retry > 0
        ok, _ = load.admit(10, now_ms=50.0)        # backlog drained
        assert ok


class TestIngestPipeline:
    def _pipeline(self, **kwargs):
        return IngestPipeline(obs=Observability(), **kwargs)

    def test_prefix_ack_and_malformed_count(self):
        pipe = self._pipeline()
        lines = [record_to_line(_rec(rtt=float(i))) for i in range(3)]
        lines.insert(1, "nope")
        payload = ("\n".join(lines) + "\n").encode()
        outcome = pipe.handle_batch("dev", 0, payload, now_ms=0.0)
        assert outcome.status == "ack"
        assert outcome.acked == 1
        assert outcome.truncated
        assert pipe.obs.value("backend.malformed_lines") == 1
        assert pipe.rollups.records == 1

    def test_duplicate_returns_cached_ack_without_reingest(self):
        pipe = self._pipeline()
        payload = _payload([_rec(), _rec(rtt=7.0)])
        first = pipe.handle_batch("dev", 3, payload, now_ms=0.0)
        replay = pipe.handle_batch("dev", 3, payload, now_ms=100.0)
        assert first.acked == replay.acked == 2
        assert replay.duplicate
        assert pipe.rollups.records == 2
        assert pipe.obs.value("backend.duplicate_batches") == 1

    def test_rate_limit_sheds_with_busy(self):
        pipe = self._pipeline(rate_capacity=1.0,
                              rate_refill_per_min=60.0)
        payload = _payload([_rec()])
        assert pipe.handle_batch("dev", 0, payload, 0.0).status == "ack"
        busy = pipe.handle_batch("dev", 1, payload, 0.0)
        assert busy.status == "busy"
        assert busy.retry_ms > 0
        assert pipe.obs.value("backend.rate_limited") == 1
        # Shed batches are not remembered: the retry is ingested.
        retry = pipe.handle_batch("dev", 1, payload, 5000.0)
        assert retry.status == "ack" and not retry.duplicate

    def test_load_shed_refunds_token(self):
        pipe = self._pipeline(
            load=IngestLoadModel(base_ms=100.0, per_record_ms=0.0,
                                 busy_threshold_ms=150.0),
            rate_capacity=2.0, rate_refill_per_min=0.0)
        payload = _payload([_rec()])
        assert pipe.handle_batch("dev", 0, payload, 0.0).status == "ack"
        assert pipe.handle_batch("dev", 1, payload, 0.0).status == "busy"
        # The shed attempt refunded its token, so one is still left
        # once the backlog drains.
        assert pipe.handle_batch("dev", 1, payload,
                                 500.0).status == "ack"


def _detector_records():
    """A small world that exhibits both case-study signatures."""
    records = []
    # Case 1: ten slow chat domains, one fast CDN domain, across two
    # networks with plenty of samples.
    for i in range(10):
        for j in range(6):
            records.append(_rec(rtt=260.0 + i, ts=j * 1e5,
                                domain="c%d.whatsapp.net" % i,
                                operator="OpA", tech="WIFI"))
            records.append(_rec(rtt=255.0 + i, ts=j * 1e5,
                                domain="c%d.whatsapp.net" % i,
                                operator="OpB", tech="LTE"))
    for j in range(8):
        records.append(_rec(rtt=45.0, ts=j * 1e5,
                            domain="mme.whatsapp.net"))
    # Case 2: SlowTel LTE serves apps at ~300 ms with 40 ms DNS; the
    # same domains run at ~90 ms on FastTel LTE (DNS similar).
    for domain in ("a.example.com", "b.example.com", "c.example.com"):
        for j in range(6):
            records.append(_rec(rtt=300.0, ts=j * 1e5, domain=domain,
                                operator="SlowTel", tech="LTE"))
            records.append(_rec(rtt=90.0, ts=j * 1e5, domain=domain,
                                operator="FastTel", tech="LTE"))
    for j in range(6):
        records.append(_rec(kind="DNS", rtt=40.0, ts=j * 1e5,
                            operator="SlowTel", tech="LTE", app=None))
        records.append(_rec(kind="DNS", rtt=45.0, ts=j * 1e5,
                            operator="FastTel", tech="LTE", app=None))
    return records


class TestOnlineDetector:
    def test_detects_both_case_studies(self):
        rollups = RollupStore()
        rollups.add_all(_detector_records())
        detector = OnlineDetector(rollups, scale=0.01,
                                  obs=Observability())
        findings = detector.evaluate()
        by_rule = {f.rule: f for f in findings}
        assert set(by_rule) == {"chat_domain_degradation",
                                "isp_rtt_anomaly"}
        assert by_rule["chat_domain_degradation"].subject == \
            "whatsapp.net"
        assert by_rule["isp_rtt_anomaly"].subject == "SlowTel/LTE"
        # FastTel is healthy: no false positive.
        subjects = {f.subject for f in findings}
        assert "FastTel/LTE" not in subjects

    def test_healthy_world_raises_nothing(self):
        rollups = RollupStore()
        for i in range(10):
            for j in range(6):
                rollups.add(_rec(rtt=40.0 + i, ts=j * 1e5,
                                 domain="c%d.whatsapp.net" % i))
        detector = OnlineDetector(rollups, scale=0.01,
                                  obs=Observability())
        assert detector.evaluate() == []

    def test_first_detection_record_count_is_kept(self):
        rollups = RollupStore()
        rollups.add_all(_detector_records())
        at_detection = rollups.records
        detector = OnlineDetector(rollups, scale=0.01,
                                  obs=Observability())
        detector.evaluate()
        rollups.add_all(_detector_records())
        detector.evaluate()          # same findings, later
        for finding in detector.findings.values():
            assert finding.detected_at_records == at_detection


class TestQuery:
    @pytest.fixture
    def rollups(self):
        store = RollupStore()
        store.add_all(_detector_records())
        store.meta["findings"] = [{"rule": "r", "subject": "s"}]
        return store

    def test_summary_reports_shape_and_digest(self, rollups):
        view = backend_query.summary(rollups)
        assert view["records"] == rollups.records
        assert view["digest"] == rollups.digest()
        assert view["groups"]["network"] > 0

    def test_apps_ranked_by_volume(self, rollups):
        rows = backend_query.apps(rollups, top=5)
        assert rows
        counts = [row["count"] for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_networks_contrast_app_and_dns(self, rollups):
        rows = backend_query.networks(rollups, top=None)
        slow = next(r for r in rows if r["network"] == "SlowTel/LTE")
        assert slow["app_median_ms"] > 250
        assert slow["dns_median_ms"] < 50

    def test_windows_are_chronological(self, rollups):
        rows = backend_query.windows(rollups)
        assert rows
        ids = [row["window"] for row in rows]
        assert ids == sorted(ids)

    def test_cases_returns_persisted_findings(self, rollups):
        assert backend_query.cases(rollups) == [
            {"rule": "r", "subject": "s"}]


class TestServeCli:
    def test_serve_query_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main
        data_dir = str(tmp_path / "store")
        assert main(["serve", "--scale", "0.002", "--seed", "2016",
                     "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "rollup sha256: " in out
        assert main(["query", data_dir, "summary"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["records"] > 1000
        assert "rollup sha256: %s" % view["digest"] in out
        assert main(["store", "inspect", data_dir]) == 0
        assert "rollup sha256:  %s" % view["digest"] \
            in capsys.readouterr().out
        assert main(["query", data_dir, "apps", "--top", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3
        assert main(["query", data_dir, "windows"]) == 0
        windows = [row["window"]
                   for row in json.loads(capsys.readouterr().out)]
        assert windows[0] < windows[-1] - 1
        assert main(["store", "compact", data_dir,
                     "--retention-days", "28"]) == 0
        capsys.readouterr()
        # The horizon is 28 days before the upper edge of the newest
        # window: no window older than it is left.
        horizon = int(((windows[-1] + 1) * DEFAULT_WINDOW_MS
                       - 28 * 24 * 3600 * 1000.0) // DEFAULT_WINDOW_MS)
        assert main(["query", data_dir, "windows"]) == 0
        assert [row["window"]
                for row in json.loads(capsys.readouterr().out)] \
            == [window for window in windows if window >= horizon]

    def test_serve_digest_stable_across_workers(self, tmp_path,
                                                capsys):
        from repro.__main__ import main
        digests = []
        for workers in ("1", "2"):
            main(["serve", "--scale", "0.002", "--workers", workers,
                  "--shard-dir", str(tmp_path / ("w" + workers))])
            out = capsys.readouterr().out
            digests.append([line for line in out.splitlines()
                            if "sha256" in line][0])
        # Pinned, so the CI matrix's two PYTHONHASHSEED values must
        # agree too.
        assert digests == ["rollup sha256: 8eebec838bff9c6eda1ec11d"
                           "6b4cfce51f163fc08ae5ca313cc962e89de95d63"] * 2

    def test_query_missing_state_fails_cleanly(self, tmp_path,
                                               capsys):
        from repro.__main__ import main
        missing = tmp_path / "nope"
        assert main(["query", str(missing), "summary"]) == 2
        assert "%s holds no store" % missing in capsys.readouterr().err
        assert not missing.exists()
