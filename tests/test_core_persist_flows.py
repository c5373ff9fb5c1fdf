"""Tests for dataset persistence and beyond-RTT flow records."""

import hashlib
import os

import pytest

from repro.core import (
    FlowRecord,
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
    MopEyeService,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
)
from repro.phone import App


def sample_store():
    store = MeasurementStore()
    store.add(MeasurementRecord(
        kind=MeasurementKind.TCP, rtt_ms=42.5, timestamp_ms=1000.0,
        app_package="com.whatsapp", app_uid=10050,
        dst_ip="31.13.79.251", dst_port=443,
        domain="mmg.whatsapp.net", network_type="LTE",
        operator="Verizon", country="USA", device_id="device-00001",
        location=(40.7, -74.0)))
    store.add(MeasurementRecord(
        kind=MeasurementKind.DNS, rtt_ms=18.25, timestamp_ms=2000.0,
        dst_ip="8.8.8.8", dst_port=53, network_type="WIFI",
        operator="wifi-usa", country="USA", device_id="device-00002"))
    return store


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ds.jsonl")
        store = sample_store()
        assert save_jsonl(store, path) == 2
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        records = list(loaded)
        assert records[0].app_package == "com.whatsapp"
        assert records[0].rtt_ms == 42.5
        assert records[0].location == (40.7, -74.0)
        assert records[1].kind == MeasurementKind.DNS
        assert records[1].location is None

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ds.jsonl")
        save_jsonl(sample_store(), path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_jsonl(path)) == 2

    def test_append_into_existing_store(self, tmp_path):
        path = str(tmp_path / "ds.jsonl")
        save_jsonl(sample_store(), path)
        target = sample_store()
        merged = load_jsonl(path, store=target)
        assert merged is target
        assert len(merged) == 4


def pinned_records():
    """Forty ordinary records and three the formatter must take care
    over (escapes and a lone surrogate, a ``bool`` port it passes on
    to ``json.dumps``, ``None`` where text usually is and a
    non-finite coordinate)."""
    kinds = ("TCP", "DNS", "TPUT_UP", "TPUT_DOWN", "ENERGY", "AOI",
             "APP_RTT")
    records = [MeasurementRecord(
        kind=kinds[i % 7], rtt_ms=i / 7.0, timestamp_ms=-1e3 * i,
        app_package=None if i % 3 else "app.%d" % i,
        app_uid=None if i % 4 else 10000 + i,
        dst_ip="203.0.113.%d" % i, dst_port=443 + i,
        domain="d%d.example" % i if i % 2 else None,
        network_type=("WIFI", "LTE", "3G")[i % 3],
        operator="Op%d" % (i % 5), country="C%d" % (i % 2),
        device_id="device-%05d" % (i % 3),
        failure=None if i % 6 else "timeout",
        location=None if i % 5 == 0 else (i * 1.25 - 40, 1e-7 * i))
        for i in range(40)]
    records += [
        MeasurementRecord("TCP", 5, -0.0,
                          operator='T\xe9l\xe9com "中" \\ \ud800',
                          app_package="\U0001f600\x00\x1f",
                          domain="a\nb\u2028c"),
        MeasurementRecord("DNS", 1e22, 1e-07, dst_port=True,
                          app_uid=False, location=[40, -74.5]),
        MeasurementRecord("TCP", 5e-324, 123456789012345680.0,
                          dst_ip=None, network_type=None,
                          location=(float("inf"), 0.0)),
    ]
    return records


def _sha(data):
    return hashlib.sha256(data).hexdigest()


class TestOneWriter:
    """Payload, shard and WAL envelope are ``encode_batch``'s bytes,
    and those bytes are what the serialiser wrote when it dumped a
    dict per record: every digest below was taken at that commit."""

    LINES = ("7428c440f9824adeec999bc72833ea78"
             "96d8cc3fb3630df0f333b4edef27bde6")

    def test_batch_is_each_line_and_a_newline(self):
        from repro.core.persist import encode_batch, record_to_line
        records = pinned_records()
        payload = encode_batch(records)
        assert payload == "".join(
            record_to_line(record) + "\n" for record in records
        ).encode("ascii")
        assert _sha(payload) == self.LINES
        assert encode_batch(iter(records[:1])) \
            == payload[:payload.index(b"\n") + 1]
        assert encode_batch([]) == b""

    def test_uploader_payload(self, world):
        from repro.core.uploader import MeasurementUploader
        mopeye = MopEyeService(world.device)
        mopeye.store.extend(pinned_records())
        _seq, payload, count = MeasurementUploader(
            mopeye, "198.51.100.200")._next_batch()
        assert (count, _sha(payload)) == (43, self.LINES)

    def test_shard_files(self, tmp_path):
        from repro.core.persist import (dataset_digest,
                                        save_jsonl_shards)
        paths = save_jsonl_shards(pinned_records(),
                                  str(tmp_path / "shards"),
                                  shard_size=16)
        assert [os.path.basename(path) for path in paths] == [
            "shard-00000.jsonl", "shard-00001.jsonl",
            "shard-00002.jsonl"]
        assert dataset_digest(paths) == self.LINES
        whole = str(tmp_path / "whole.jsonl")
        assert save_jsonl(pinned_records(), whole) == 43
        assert dataset_digest([whole]) == self.LINES

    def test_generated_shards(self, tmp_path):
        from repro.crowd import CampaignConfig, ShardedCampaign
        run = ShardedCampaign(CampaignConfig(scale=0.0005, seed=7),
                              workers=1,
                              shard_dir=str(tmp_path)).run()
        assert (run.total_records, run.digest()) == (
            4597, "5408999427f80b7e5aa60fa2fa71f152"
                  "9683809c0cb2b4c9be31e380bc9e940a")

    def test_wal_envelopes(self, tmp_path):
        from repro.store import StoreEngine
        records = pinned_records()
        engine = StoreEngine(str(tmp_path / "batch"))
        engine.log_batch("device-00000", 0, len(records), records)
        engine.close()
        assert _sha((tmp_path / "batch" / "wal.log").read_bytes()) \
            == ("923381126d7657ca52d3068de8654e71"
                "be8b2b31df10e2817fd1d9b9cde5ccda")

    def test_write_records_hashes_what_it_writes(self, tmp_path):
        from repro.core.persist import (_WRITE_CHUNK, encode_batch,
                                        write_records)
        records = pinned_records() * 30          # several chunks
        assert len(records) > 2 * _WRITE_CHUNK
        sha = hashlib.sha256()
        path = tmp_path / "out.jsonl"
        with open(path, "wb") as handle:
            assert write_records(handle, iter(records), sha) \
                == len(records)
            assert write_records(handle, [], sha) == 0
        assert path.read_bytes() == encode_batch(records)
        assert sha.hexdigest() == _sha(encode_batch(records))

    def test_files_do_not_take_the_locales_encoding(self, tmp_path):
        """Written as ASCII, read as UTF-8 -- also where the locale
        says otherwise (``LC_ALL=C`` with UTF-8 mode off makes
        ``open()`` default to ASCII)."""
        import subprocess
        import sys
        path = str(tmp_path / "ds.jsonl")
        save_jsonl(pinned_records(), path)
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.isascii() and _sha(data) == self.LINES
        with open(path, "ab") as handle:
            handle.write('{"kind": "TCP", "rtt_ms": 1.0, '
                         '"timestamp_ms": 2.0, "operator": "T\xe9l"}\n'
                         .encode("utf-8"))
        script = (
            "import locale, sys\n"
            "from repro.core.persist import load_jsonl, save_jsonl\n"
            "assert locale.getpreferredencoding(False).lower() "
            "not in ('utf-8', 'utf8')\n"
            "records = list(load_jsonl(sys.argv[1]))\n"
            "assert records[-1].operator == 'T\\xe9l'\n"
            "save_jsonl(records[:-1], sys.argv[2])\n")
        again = str(tmp_path / "again.jsonl")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script, path, again],
                       env=env, check=True, timeout=60)
        with open(again, "rb") as handle:
            assert handle.read().isascii()
        assert list(load_jsonl(again)) == list(load_jsonl(path))[:-1]


class TestKindRoundTrip:
    def test_jsonl_roundtrip_records_compare_equal(self, tmp_path):
        """Loaded records equal the originals field-for-field -- a
        record compares by value, which makes this one assert, and it
        pins the kind normalization (enum-ish inputs, case, bytes) in
        place."""
        path = str(tmp_path / "rt.jsonl")
        store = sample_store()
        save_jsonl(store, path)
        assert list(load_jsonl(path)) == list(store)

    def test_kind_normalization_variants(self):
        import enum
        from repro.core.persist import _normalize_kind, \
            _record_from_dict

        class WireKind(enum.Enum):
            TCP = "tcp"

        assert _normalize_kind("TCP") == MeasurementKind.TCP
        assert _normalize_kind(" dns ") == MeasurementKind.DNS
        assert _normalize_kind(b"tcp") == MeasurementKind.TCP
        assert _normalize_kind(WireKind.TCP) == MeasurementKind.TCP
        with pytest.raises(ValueError):
            _normalize_kind("ICMP")
        record = _record_from_dict({"kind": "dns", "rtt_ms": 1.5,
                                    "timestamp_ms": 0.0})
        assert record.kind == MeasurementKind.DNS


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ds.csv")
        assert save_csv(sample_store(), path) == 2
        loaded = load_csv(path)
        records = list(loaded)
        assert records[0].domain == "mmg.whatsapp.net"
        assert records[0].dst_port == 443
        assert records[0].location == pytest.approx((40.7, -74.0))
        assert records[1].app_package is None

    def test_csv_is_spreadsheet_readable(self, tmp_path):
        import csv as csv_module
        path = str(tmp_path / "ds.csv")
        save_csv(sample_store(), path)
        with open(path) as handle:
            rows = list(csv_module.reader(handle))
        assert rows[0][0] == "kind"
        assert len(rows) == 3


class TestFlowRecords:
    def test_flow_recorded_after_connection_close(self, world):
        mopeye = MopEyeService(world.device)
        mopeye.start()
        app = App(world.device, "com.example.app")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"DOWNLOAD 30000\n")
            yield from socket.recv_exactly(30000)
            socket.close()
            yield world.sim.timeout(3000)

        world.run_process(run())
        assert len(mopeye.flows) == 1
        flow = mopeye.flows[0]
        assert flow.app_package == "com.example.app"
        assert flow.dst_ip == "93.184.216.34"
        assert flow.bytes_down == 30000
        assert flow.bytes_up == len(b"DOWNLOAD 30000\n")
        assert flow.duration_ms > 0
        assert flow.total_bytes == 30000 + 15

    def test_flow_throughput_positive(self, world):
        mopeye = MopEyeService(world.device)
        mopeye.start()
        app = App(world.device, "com.example.app")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"DOWNLOAD 50000\n")
            yield from socket.recv_exactly(50000)
            socket.close()
            yield world.sim.timeout(3000)

        world.run_process(run())
        assert mopeye.flows[0].throughput_mbps() > 0.1

    def test_flow_record_zero_duration_throughput(self):
        flow = FlowRecord(app_package=None, dst_ip="1.2.3.4",
                          dst_port=80, domain=None, bytes_up=10,
                          bytes_down=10, opened_at_ms=0.0,
                          duration_ms=0.0)
        assert flow.throughput_mbps() == 0.0


class TestRecordValidation:
    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(kind=MeasurementKind.TCP, rtt_ms=-1.0,
                              timestamp_ms=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(kind="ICMP", rtt_ms=1.0,
                              timestamp_ms=0.0)

    def test_store_filters_compose(self):
        store = sample_store()
        assert len(store.tcp().for_app("com.whatsapp")) == 1
        assert len(store.dns().for_network_type("WIFI")) == 1
        assert len(store.for_operator("Verizon")) == 1

    def test_group_by_and_unique(self):
        store = sample_store()
        assert set(store.group_by(lambda r: r.device_id)) == {
            "device-00001", "device-00002"}
        assert store.unique(lambda r: r.country) == {"USA"}
