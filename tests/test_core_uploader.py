"""End-to-end tests: device measurements reach the collection backend."""

import pytest

from repro.backend.server import BackendServer
from repro.core import MopEyeService
from repro.core.records import MeasurementRecord
from repro.core.uploader import MeasurementUploader
from repro.phone import App


@pytest.fixture
def upload_world(world):
    collector = BackendServer(world.sim, ["198.51.100.200"],
                              name="collector")
    world.internet.add_server(collector)
    mopeye = MopEyeService(world.device)
    mopeye.start()
    world.collector = collector
    world.mopeye = mopeye
    return world


def generate_measurements(world, n=12):
    app = App(world.device, "com.example.app")
    for i in range(n):
        world.run_process(app.request("93.184.216.34", 80,
                                      b"m%d\n" % i))


class TestUploader:
    def test_batch_reaches_collector_intact(self, upload_world):
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=5000.0,
                                       min_batch=5)
        uploader.start()
        generate_measurements(w, n=12)
        w.run(until=30000)
        assert uploader.batches >= 1
        assert uploader.uploaded == len(w.collector.received)
        # Byte-exact round trip: every collected record is one the
        # device actually measured.
        sent = {round(r.rtt_ms, 9) for r in w.mopeye.store}
        got = {round(r.rtt_ms, 9) for r in w.collector.received}
        assert got <= sent
        assert got
        record = next(iter(w.collector.received.tcp()))
        assert record.app_package == "com.example.app"

    def test_small_backlog_waits_for_min_batch(self, upload_world):
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=2000.0,
                                       min_batch=50)
        uploader.start()
        generate_measurements(w, n=4)
        w.run(until=20000)
        assert uploader.batches == 0
        assert len(w.collector.received) == 0

    def test_upload_traffic_not_measured(self, upload_world):
        """The uploader's own connections bypass the tunnel: they must
        never show up as measurements (zero self-interference)."""
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=3000.0,
                                       min_batch=2)
        uploader.start()
        generate_measurements(w, n=6)
        w.run(until=30000)
        assert uploader.batches >= 1
        collector_records = [r for r in w.mopeye.store.tcp()
                             if r.dst_ip == "198.51.100.200"]
        assert collector_records == []

    def test_failure_keeps_cursor(self, upload_world):
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "203.0.113.99",
                                       interval_ms=2000.0, min_batch=2)
        uploader.start()
        generate_measurements(w, n=6)
        w.run(until=30000)
        assert uploader.failures >= 1
        assert uploader.uploaded == 0
        # Records stay pending for a later retry.
        assert len(uploader._pending()) >= 6

    def test_stop_halts_thread(self, upload_world):
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=1000.0)
        uploader.start()
        uploader.stop()
        w.run(until=5000)
        assert uploader._thread.triggered

    def test_stop_flushes_below_min_batch(self, upload_world):
        """Records below min_batch at shutdown must not be stranded:
        stop() pushes the tail regardless of batch size."""
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=5000.0,
                                       min_batch=50)
        uploader.start()
        generate_measurements(w, n=4)
        w.run(until=20000)
        assert uploader.uploaded == 0      # below min_batch: held back
        uploader.stop()
        w.run(until=40000)
        assert uploader.obs.value("uploader.final_flush") >= 1
        assert uploader.uploaded == len(w.mopeye.store)
        assert uploader._pending() == []
        assert len(w.collector.received) == len(w.mopeye.store)

    def test_stop_flush_respects_wifi_only(self, upload_world):
        """Shutdown does not justify cellular spend: the final flush
        defers on cellular exactly like a periodic upload."""
        from repro.network.link import NetworkType
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=5000.0,
                                       min_batch=50)
        uploader.start()
        generate_measurements(w, n=3)
        w.device.link.network_type = NetworkType.LTE
        uploader.stop()
        w.run(until=20000)
        assert uploader.obs.value("uploader.final_flush") == 0
        assert uploader.uploaded == 0
        assert len(uploader._pending()) >= 3

    def test_double_start_rejected(self, upload_world):
        uploader = MeasurementUploader(upload_world.mopeye,
                                       "198.51.100.200")
        uploader.start()
        with pytest.raises(RuntimeError):
            uploader.start()


class TestNewRecordKinds:
    """Regression: the uploader is kind-agnostic.  Records of kinds
    newer than the uploader (the modality kinds, docs/MODALITIES.md)
    must ride wifi-only gating, batch dedup and the final flush
    exactly like TCP/DNS samples."""

    def _seed_modality_records(self, store, n=6):
        from repro.core.records import MeasurementKind
        for i in range(n):
            store.add(MeasurementRecord(
                kind=MeasurementKind.MODALITIES[
                    i % len(MeasurementKind.MODALITIES)],
                rtt_ms=1.5 + 7.3 * i, timestamp_ms=100.0 * i,
                app_package="com.example.app"))

    def test_modality_kinds_round_trip_end_to_end(self, upload_world):
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=2000.0, min_batch=2)
        uploader.start()
        self._seed_modality_records(w.mopeye.store)
        w.run(until=20000)
        assert uploader.uploaded == len(w.mopeye.store)
        sent = sorted((r.kind, round(r.rtt_ms, 9))
                      for r in w.mopeye.store)
        got = sorted((r.kind, round(r.rtt_ms, 9))
                     for r in w.collector.received)
        assert got == sent

    def test_payload_is_record_to_line_of_each_record(self,
                                                      upload_world):
        """One serialiser: the batch on the wire is ``record_to_line``
        of each record (what the pipeline benchmark builds its
        payloads from), and the backend hands back those lines."""
        from repro.backend import parse_batch_lines
        from repro.core.persist import record_to_line
        from repro.core.records import FailureKind, MeasurementKind
        w = upload_world
        records = [MeasurementRecord(kind=kind, rtt_ms=0.5 + i,
                                     timestamp_ms=-3.0 * i)
                   for i, kind in enumerate(MeasurementKind.ALL)]
        records += [
            MeasurementRecord("TCP", 9.0, 1.0,
                              failure=FailureKind.REFUSED),
            MeasurementRecord("DNS", 9.0, 2.0, location=(40.7, -74.0)),
            MeasurementRecord("TCP", 9.0, 3.0, operator="Télécom 中",
                              app_package="\U0010ffff", domain=" "),
        ]
        w.mopeye.store.extend(records)
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200")
        _seq, payload, count = uploader._next_batch()
        lines = list(map(record_to_line, records))
        assert count == len(records)
        assert payload == "\n".join(lines).encode() + b"\n"
        parsed, raw, truncated = parse_batch_lines(payload)
        assert parsed == records
        assert raw == [line.encode() for line in lines]
        assert not truncated

    def test_wifi_only_gating_covers_new_kinds(self, upload_world):
        from repro.network.link import NetworkType
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=2000.0, min_batch=2)
        uploader.start()
        self._seed_modality_records(w.mopeye.store)
        w.device.link.network_type = NetworkType.LTE
        w.run(until=20000)
        assert uploader.uploaded == 0
        assert len(uploader._pending()) == len(w.mopeye.store)
        w.device.link.network_type = NetworkType.WIFI
        w.run(until=20000)
        assert uploader.uploaded == len(w.mopeye.store)

    def test_replayed_modality_batch_dedups(self, upload_world):
        """A lost-ACK replay of a batch full of new kinds gets the
        cached ACK, never a double ingest."""
        from repro.core.persist import record_to_line
        from repro.core.records import MeasurementKind
        w = upload_world
        lines = [record_to_line(MeasurementRecord(
            kind=kind, rtt_ms=10.0 + i, timestamp_ms=1000.0 * i))
            for i, kind in enumerate(MeasurementKind.MODALITIES)]
        payload = ("\n".join(lines) + "\n").encode()
        header = b"PUSH2 %d 9 phone-b\n" % len(payload)
        responses = []

        def push():
            socket = w.device.create_tcp_socket(w.mopeye.uid,
                                                protected=True)
            yield socket.connect("198.51.100.200", 443)
            socket.send(header)
            socket.send(payload)
            response = yield socket.recv()
            socket.close()
            responses.append(response)

        w.run_process(push())
        w.run_process(push())
        assert responses == [b"ACK 4\n", b"ACK 4\n"]
        assert len(w.collector.received) == 4
        assert w.collector.obs.value("backend.duplicate_batches") == 1

    def test_final_flush_ships_modality_tail(self, upload_world):
        """A sub-min_batch tail of new-kind records must not be
        stranded at shutdown."""
        w = upload_world
        uploader = MeasurementUploader(w.mopeye, "198.51.100.200",
                                       interval_ms=5000.0,
                                       min_batch=50)
        uploader.start()
        self._seed_modality_records(w.mopeye.store, n=3)
        w.run(until=15000)
        assert uploader.uploaded == 0
        uploader.stop()
        w.run(until=40000)
        assert uploader.obs.value("uploader.final_flush") >= 1
        assert uploader.uploaded == len(w.mopeye.store)
        assert len(w.collector.received) == len(w.mopeye.store)


class TestPartialAck:
    def test_short_ack_retries_tail(self, world):
        """A short ACK must advance the cursor only past the acked
        prefix; the tail is retried next interval, so every record
        still reaches the backend exactly once."""
        collector = BackendServer(world.sim, ["198.51.100.201"],
                                  name="stingy",
                                  max_batch_records=4)
        world.internet.add_server(collector)
        mopeye = MopEyeService(world.device)
        mopeye.start()
        world.mopeye = mopeye
        generate_measurements(world, n=12)
        uploader = MeasurementUploader(mopeye, "198.51.100.201",
                                       interval_ms=2000.0, min_batch=4)
        uploader.start()
        world.run(until=30000)
        assert uploader.short_acks >= 2
        assert uploader.uploaded == len(mopeye.store)
        assert uploader._pending() == []
        # Exactly once: no record was dropped, none duplicated.
        sent = sorted(round(r.rtt_ms, 9) for r in mopeye.store)
        got = sorted(round(r.rtt_ms, 9) for r in collector.received)
        assert got == sent


class TestCollectorProtocol:
    def test_malformed_header_counted(self, upload_world):
        w = upload_world
        socket = w.device.create_tcp_socket(w.mopeye.uid,
                                            protected=True)

        def run():
            yield socket.connect("198.51.100.200", 443)
            socket.send(b"NONSENSE HEADER\n")
            yield w.sim.timeout(2000)
            socket.close()

        w.run_process(run())
        assert w.collector.obs.value("backend.malformed_headers") \
            + w.collector.obs.value("backend.malformed_lines") >= 1

    def test_malformed_json_line_skipped(self, upload_world):
        w = upload_world
        socket = w.device.create_tcp_socket(w.mopeye.uid,
                                            protected=True)
        payload = b'{"not a record": true}\n'

        def run():
            yield socket.connect("198.51.100.200", 443)
            socket.send(b"PUSH2 %d 0 phone-a\n" % len(payload))
            socket.send(payload)
            response = yield socket.recv()
            socket.close()
            return response

        assert w.run_process(run()) == b"ACK 0\n"
        # The header was sound: the batch was taken, its one line was
        # not a record.
        assert w.collector.obs.value("backend.batches") == 1
        assert w.collector.obs.value("backend.malformed_lines") == 1
        assert w.collector.obs.value("backend.malformed_headers") == 0

    def test_retired_push_header_is_malformed(self, upload_world):
        """``PUSH n`` (no identity, no dedup) is no longer spoken: it
        is counted and answered ``ACK 0`` like any other bad header,
        and the connection goes on to serve a ``PUSH2`` batch."""
        from repro.core.persist import record_to_line
        w = upload_world
        socket = w.device.create_tcp_socket(w.mopeye.uid,
                                            protected=True)
        payload = (record_to_line(MeasurementRecord(
            kind="TCP", rtt_ms=42.0, timestamp_ms=1.0)) + "\n").encode()

        def run():
            yield socket.connect("198.51.100.200", 443)
            socket.send(b"PUSH %d\n" % len(payload))
            refused = yield socket.recv()
            socket.send(b"PUSH2 %d 0 phone-a\n" % len(payload))
            socket.send(payload)
            served = yield socket.recv()
            socket.close()
            return refused, served

        assert w.run_process(run()) == (b"ACK 0\n", b"ACK 1\n")
        assert w.collector.obs.value("backend.malformed_headers") == 1
        assert w.collector.obs.value("backend.batches") == 1

    @pytest.mark.parametrize("count", [b"-5", b"+5", b"1_0"])
    def test_byte_count_is_ascii_digits(self, upload_world, count):
        """``int()`` takes a sign and an underscore.  A
        ``PUSH2 -5`` header used to be served: its batch was the
        buffer less five bytes, and the next header and its payload
        were swallowed into it.  It is a malformed header, and the
        sound batch after it is served on its own."""
        from repro.core.persist import record_to_line
        w = upload_world
        socket = w.device.create_tcp_socket(w.mopeye.uid,
                                            protected=True)
        payload = (record_to_line(MeasurementRecord(
            kind="TCP", rtt_ms=42.0, timestamp_ms=1.0)) + "\n").encode()

        def run():
            yield socket.connect("198.51.100.200", 443)
            socket.send(b"PUSH2 %s 0 phone-a\n" % count)
            refused = yield socket.recv()
            socket.send(b"PUSH2 %d 1 phone-a\n" % len(payload))
            socket.send(payload)
            served = yield socket.recv()
            socket.close()
            return refused, served

        assert w.run_process(run()) == (b"ACK 0\n", b"ACK 1\n")
        assert w.collector.obs.value("backend.malformed_headers") == 1
        assert w.collector.obs.value("backend.batches") == 1
        assert w.collector.obs.value("backend.records_ingested") == 1
        assert len(w.collector.received) == 1

    def test_ack_is_prefix_count(self, upload_world):
        """A malformed line mid-batch stops ingestion: the ACK counts
        the valid *prefix* only, never records parsed past the bad
        line -- the uploader's cursor arithmetic depends on it."""
        from repro.core.persist import record_to_line
        from repro.core.records import MeasurementRecord
        w = upload_world
        lines = [record_to_line(MeasurementRecord(
            kind="TCP", rtt_ms=10.0 + i, timestamp_ms=1000.0 * i))
            for i in range(3)]
        lines.insert(1, "this is not json")   # bad line after record 0
        payload = ("\n".join(lines) + "\n").encode()
        socket = w.device.create_tcp_socket(w.mopeye.uid,
                                            protected=True)

        def run():
            yield socket.connect("198.51.100.200", 443)
            socket.send(b"PUSH2 %d 0 phone-a\n" % len(payload))
            socket.send(payload)
            response = yield socket.recv()
            socket.close()
            return response

        assert w.run_process(run()) == b"ACK 1\n"
        assert len(w.collector.received) == 1
        assert next(iter(w.collector.received)).rtt_ms == 10.0
        assert w.collector.obs.value("backend.malformed_headers") \
            + w.collector.obs.value("backend.malformed_lines") >= 1

    def test_duplicate_batch_returns_cached_ack(self, upload_world):
        """Replaying a (device_id, batch_seq) -- a lost-ACK retry --
        returns the original ACK without re-ingesting."""
        from repro.core.persist import record_to_line
        from repro.core.records import MeasurementRecord
        w = upload_world
        payload = (record_to_line(MeasurementRecord(
            kind="TCP", rtt_ms=42.0, timestamp_ms=1.0)) + "\n").encode()
        header = b"PUSH2 %d 7 phone-a\n" % len(payload)
        responses = []

        def push():
            socket = w.device.create_tcp_socket(w.mopeye.uid,
                                                protected=True)
            yield socket.connect("198.51.100.200", 443)
            socket.send(header)
            socket.send(payload)
            response = yield socket.recv()
            socket.close()
            responses.append(response)

        w.run_process(push())
        w.run_process(push())
        assert responses == [b"ACK 1\n", b"ACK 1\n"]
        assert len(w.collector.received) == 1      # ingested once
        assert w.collector.obs.value("backend.duplicate_batches") == 1

    def test_racing_flush_cannot_double_count_acks(self, world):
        """Regression: stop() while the periodic upload is awaiting a
        slow ACK sends the same in-flight batch twice.  The collector
        deduplicates, but both ACKs come back -- only the first may
        advance the cursor; the second is a stale ACK."""
        from repro.backend.ingest import IngestLoadModel
        backend = BackendServer(
            world.sim, ["198.51.100.201"], name="slow-collector",
            load=IngestLoadModel(base_ms=5_000.0, per_record_ms=0.0))
        world.internet.add_server(backend)
        mopeye = MopEyeService(world.device)
        mopeye.start()
        world.mopeye = mopeye
        generate_measurements(world, n=6)
        uploader = MeasurementUploader(mopeye, "198.51.100.201",
                                       interval_ms=1_000.0,
                                       min_batch=1,
                                       ack_timeout_ms=60_000.0)
        uploader.start()
        # Let one periodic upload get in flight (its ACK is ~5 s out),
        # then stop: the shutdown flush re-sends the same batch.
        world.run(until=1_500.0)
        uploader.stop()
        world.run(until=60_000.0)
        assert backend.obs.value("backend.duplicate_batches") >= 1
        assert mopeye.obs.value("uploader.stale_acks") >= 1
        assert uploader.uploaded == len(mopeye.store)
        assert len(backend.received) == len(mopeye.store)

    def test_busy_backpressure_and_backoff(self, world):
        """A rate-limited backend sheds batches with BUSY; the
        uploader backs off with jitter and retries the same batch, so
        everything still arrives exactly once."""
        collector = BackendServer(
            world.sim, ["198.51.100.202"], name="busy",
            rate_capacity=1.0, rate_refill_per_min=6.0)
        world.internet.add_server(collector)
        mopeye = MopEyeService(world.device)
        mopeye.start()
        world.mopeye = mopeye
        generate_measurements(world, n=10)
        uploader = MeasurementUploader(mopeye, "198.51.100.202",
                                       interval_ms=2000.0, min_batch=3,
                                       max_batch=5)
        uploader.start()
        world.run(until=120_000)
        assert uploader.busy_backoffs >= 1
        assert collector.obs.value("backend.busy_rejections") \
            + collector.obs.value("backend.rate_limited") >= 1
        assert uploader.uploaded == len(mopeye.store)
        sent = sorted(round(r.rtt_ms, 9) for r in mopeye.store)
        got = sorted(round(r.rtt_ms, 9) for r in collector.received)
        assert got == sent
