"""Tests for links, the internet fabric, and servers."""

import random

import pytest

from repro.netstack import IPPacket, PROTO_TCP, SYN, TCPSegment
from repro.network import AccessLink, Internet
from repro.network.link import LinkDirection, NetworkType
from repro.phone import App
from repro.sim import Constant, Simulator, Uniform


class TestLinkDirection:
    def test_transmission_time_scales_with_size(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0),
                                  bandwidth_mbps=8.0)
        # 8 Mbps -> 1000 bytes take 1 ms.
        assert direction.transmission_ms(1000) == pytest.approx(1.0)

    def test_zero_bandwidth_means_no_serialisation(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0))
        assert direction.transmission_ms(10_000_000) == 0.0

    def test_delivery_after_latency(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(5.0))
        arrivals = []
        direction.send("pkt", 100, lambda p: arrivals.append(
            (sim.now, p)))
        sim.run()
        assert arrivals == [(5.0, "pkt")]

    def test_serialisation_queues_back_to_back_packets(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0),
                                  bandwidth_mbps=8.0)
        arrivals = []
        for i in range(3):
            direction.send(i, 1000, lambda p: arrivals.append(
                (sim.now, p)))
        sim.run()
        times = [t for t, _p in arrivals]
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_fifo_despite_jitter(self):
        sim = Simulator()
        direction = LinkDirection(sim, Uniform(0.0, 50.0,
                                               rng=random.Random(3)))
        arrivals = []
        for i in range(50):
            direction.send(i, 100, lambda p: arrivals.append(p))
        sim.run()
        assert arrivals == list(range(50))

    def test_loss_drops_packets(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(1.0), loss_rate=0.5,
                                  rng=random.Random(1))
        delivered = []
        for i in range(200):
            direction.send(i, 100, delivered.append)
        sim.run()
        assert 50 < len(delivered) < 150
        assert direction.obs.value("link.packets_dropped") \
            == 200 - len(delivered)

    def test_invalid_loss_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            LinkDirection(sim, Constant(0.0), loss_rate=1.5)

    def test_byte_accounting(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0))
        direction.send("a", 700, lambda p: None)
        direction.send("b", 300, lambda p: None)
        assert direction.bytes_sent == 1000
        assert direction.packets_sent == 2


class TestInternetRouting:
    def test_unroutable_destination_dropped(self, world):
        packet = IPPacket(world.device.ip, "203.0.113.250", PROTO_TCP,
                          TCPSegment(1000, 80, 0, 0, SYN).encode(
                              world.device.ip, "203.0.113.250"))
        world.internet.send_from_device(world.device, packet)
        world.run(until=1000)  # nothing should blow up

    def test_duplicate_server_ip_rejected(self, world):
        with pytest.raises(ValueError):
            world.add_server("93.184.216.34", name="duplicate")

    def test_tap_sees_both_directions(self, world):
        seen = []
        world.internet.add_tap(
            lambda direction, _pkt, _ts: seen.append(direction))
        app = App(world.device, "com.example.app")
        world.run_process(app.request("93.184.216.34", 80, b"x\n"))
        assert "up" in seen and "down" in seen

    def test_server_lookup(self, world):
        assert world.internet.server_for("93.184.216.34") is not None
        assert world.internet.server_for("198.18.1.1") is None


class TestAppServerProtocols:
    def test_echo(self, world):
        app = App(world.device, "com.test")
        assert world.run_process(
            app.request("93.184.216.34", 80, b"echo me\n")) == \
            b"echo me\n"

    def test_http_like_page(self, world):
        app = App(world.device, "com.test")
        response = world.run_process(
            app.request("93.184.216.34", 80,
                        b"GET /index HTTP/1.1\r\n\r\n"))
        assert response.startswith(b"HTTP/1.1 200 OK")

    def test_download_exact_size(self, world):
        app = App(world.device, "com.test")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"DOWNLOAD 5000\n")
            data = yield from socket.recv_exactly(5000)
            socket.close()
            return data

        assert len(world.run_process(run())) == 5000

    def test_upload_acknowledged(self, world):
        app = App(world.device, "com.test")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"UPLOAD 4000\n")
            socket.send(b"u" * 4000)
            confirmation = yield socket.recv()
            socket.close()
            return confirmation

        assert world.run_process(run()) == b"OK"

    def test_malformed_download_ignored(self, world):
        app = App(world.device, "com.test")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"DOWNLOAD notanumber\n")
            yield world.sim.timeout(500)
            socket.close()
            return b"survived"

        assert world.run_process(run()) == b"survived"

    def test_connection_refused_on_closed_port(self, world):
        from repro.phone.ktcp import ConnectionRefused
        world.add_server("198.51.100.99", name="picky",
                         listen_ports=[443])
        app = App(world.device, "com.test")

        def run():
            socket = world.device.create_tcp_socket(app.uid)
            try:
                yield socket.connect("198.51.100.99", 80)
            except ConnectionRefused:
                return "refused"
            return "connected"

        assert world.run_process(run()) == "refused"

    def test_listening_port_accepts(self, world):
        world.add_server("198.51.100.98", name="picky2",
                         listen_ports=[443])
        app = App(world.device, "com.test")
        response = world.run_process(
            app.request("198.51.100.98", 443, b"hi\n"))
        assert response == b"hi\n"

    def test_syn_retransmission_not_reaccepted(self, world):
        """A retransmitted SYN must re-answer the half-open connection
        with the same ISN, not create a new one."""
        server = world.internet.server_for("93.184.216.34")
        socket = world.device.create_tcp_socket(10001)

        def run():
            yield socket.connect("93.184.216.34", 80)
            socket.send(b"after retransmit\n")
            response = yield socket.recv()
            return response

        # Inject a duplicate SYN right behind the real one.
        def dup_syn():
            yield world.sim.timeout(0.5)
            seg = TCPSegment(socket.local_port, 80,
                             seq=(socket._snd_nxt - 1) % (1 << 32),
                             ack=0, flags=SYN, mss=1460)
            packet = IPPacket(socket.local_ip, "93.184.216.34",
                              PROTO_TCP,
                              seg.encode(socket.local_ip,
                                         "93.184.216.34"))
            world.internet.send_from_device(world.device, packet)

        world.sim.process(dup_syn())
        assert world.run_process(run()) == b"after retransmit\n"
        assert server.connections_accepted == 1

    def test_stale_segments_counted_not_crashing(self, world):
        server = world.internet.server_for("93.184.216.34")
        socket = world.device.create_tcp_socket(10001)

        def run():
            yield socket.connect("93.184.216.34", 80)
            # Send a wildly out-of-sequence data segment.
            seg = TCPSegment(socket.local_port, 80, seq=12345,
                             ack=99999, flags=0x18, payload=b"stale")
            packet = IPPacket(socket.local_ip, "93.184.216.34",
                              PROTO_TCP,
                              seg.encode(socket.local_ip,
                                         "93.184.216.34"))
            world.internet.send_from_device(world.device, packet)
            yield world.sim.timeout(500)
            socket.send(b"still works\n")
            return (yield socket.recv())

        assert world.run_process(run()) == b"still works\n"
        assert server.bad_segments >= 1


class TestLatencyProfiles:
    @pytest.mark.parametrize("factory,expected_type", [
        ("wifi_profile", NetworkType.WIFI),
        ("lte_profile", NetworkType.LTE),
        ("cellular_3g_profile", NetworkType.UMTS),
        ("cellular_2g_profile", NetworkType.GPRS),
    ])
    def test_profile_types(self, factory, expected_type):
        import repro.network as network
        sim = Simulator()
        link = getattr(network, factory)(sim)
        assert link.network_type == expected_type

    def test_profile_rtt_ordering(self):
        """Median RTT: WiFi < LTE < 3G < 2G, as in Figure 10(b)."""
        import repro.network as network
        import statistics
        sim = Simulator()
        medians = {}
        for factory in ("wifi_profile", "lte_profile",
                        "cellular_3g_profile", "cellular_2g_profile"):
            link = getattr(network, factory)(
                sim, rng=random.Random(4))
            samples = [link.up.latency.sample()
                       + link.down.latency.sample()
                       for _ in range(400)]
            medians[factory] = statistics.median(samples)
        assert medians["wifi_profile"] < medians["lte_profile"] \
            < medians["cellular_3g_profile"] \
            < medians["cellular_2g_profile"]
