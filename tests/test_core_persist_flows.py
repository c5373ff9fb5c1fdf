"""Tests for dataset persistence and beyond-RTT flow records."""

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
        assert len(store.for_domain_suffix("whatsapp.net")) == 1
        assert len(store.for_domain_suffix("*.whatsapp.net")) == 1

    def test_group_by_and_unique(self):
        store = sample_store()
        assert set(store.by_device()) == {"device-00001",
                                          "device-00002"}
        assert store.unique(lambda r: r.country) == {"USA"}
