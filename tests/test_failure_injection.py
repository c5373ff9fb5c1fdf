"""Failure injection: the system degrades the way real stacks do."""

import random

import pytest

from repro.core import MopEyeConfig, MopEyeService
from repro.network import AccessLink, Internet
from repro.phone import AndroidDevice, App
from repro.sim import LogNormal, Simulator
from tests.conftest import World


class TestPacketLoss:
    def make_lossy_world(self, loss_rate, seed=13):
        sim = Simulator()
        internet = Internet(sim)
        rng = random.Random(seed)
        link = AccessLink(sim,
                          up_latency=LogNormal(7.0, 0.4).bind(rng),
                          down_latency=LogNormal(7.0, 0.4).bind(rng),
                          loss_rate=loss_rate, rng=rng)
        device = AndroidDevice(sim, internet, link, sdk=23,
                               rng=random.Random(seed + 1))
        from repro.network import AppServer
        internet.add_server(AppServer(sim, ["93.184.216.34"],
                                      name="srv"))
        return sim, device

    def test_syn_loss_recovered_by_retransmission(self):
        sim, device = self.make_lossy_world(loss_rate=0.35)
        connected = []

        def run():
            # Several attempts; retransmission (1 s RTO) must
            # eventually get SYNs and SYN/ACKs through.
            for _ in range(5):
                socket = device.create_tcp_socket(10001)
                try:
                    yield socket.connect("93.184.216.34", 80)
                    connected.append(sim.now)
                    socket.abort()
                except Exception:
                    pass

        process = sim.process(run())
        sim.run(until=300000)
        assert process.triggered
        assert len(connected) >= 3

    def test_heavy_loss_eventually_times_out(self):
        from repro.phone.ktcp import ConnectTimeout
        sim, device = self.make_lossy_world(loss_rate=0.995, seed=3)
        outcome = {}

        def run():
            socket = device.create_tcp_socket(10001)
            try:
                yield socket.connect("93.184.216.34", 80)
                outcome["result"] = "connected"
            except ConnectTimeout:
                outcome["result"] = "timeout"

        process = sim.process(run())
        sim.run(until=300000)
        assert process.triggered
        assert outcome["result"] == "timeout"

    def test_retransmitted_syn_measured_once_by_tcpdump(self):
        """Retransmissions must not create duplicate RTT samples: the
        paper measures from the first SYN."""
        from repro.baselines import TcpdumpCapture
        sim, device = self.make_lossy_world(loss_rate=0.4, seed=21)
        capture = TcpdumpCapture()
        device.internet.add_tap(capture.tap)

        def run():
            socket = device.create_tcp_socket(10001)
            try:
                yield socket.connect("93.184.216.34", 80)
            except Exception:
                return

        process = sim.process(run())
        sim.run(until=300000)
        assert process.triggered
        assert len(capture.samples) <= 1


class TestDnsFailures:
    def test_unreachable_dns_server_times_out(self, world):
        from repro.phone.device import ResolveError
        world.device.dns_server_ip = "198.18.255.1"  # black hole
        outcome = {}

        def run():
            try:
                yield world.device.resolve_process("example.com")
            except ResolveError:
                outcome["error"] = True

        world.run_process(run(), until=60000)
        assert outcome.get("error")

    def test_dns_relay_timeout_does_not_kill_mopeye(self, world):
        """A black-holed DNS query inside the relay must not crash the
        UDP relay thread or the service."""
        mopeye = MopEyeService(world.device)
        mopeye.start()
        world.device.dns_server_ip = "198.18.255.1"
        from repro.phone.device import ResolveError
        outcome = {}

        def run():
            try:
                yield world.device.resolve_process("example.com")
            except ResolveError:
                outcome["error"] = True
            # Service must still relay TCP afterwards.
            app = App(world.device, "com.after")
            response = yield from app.request("93.184.216.34", 80,
                                              b"alive\n")
            outcome["response"] = response

        world.run_process(run(), until=120000)
        assert outcome.get("error")
        assert outcome.get("response") == b"alive\n"
        assert mopeye.udp_relay.timeouts >= 1


class TestServiceLifecycleFailures:
    def test_stop_midstream_leaves_consistent_state(self, world):
        world.add_server("198.18.0.2", name="dummy-sink")
        mopeye = MopEyeService(world.device,
                               dummy_server_ip="198.18.0.2")
        mopeye.start()
        app = App(world.device, "com.example.app")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.send(b"DOWNLOAD 500000\n")
            # Stop MopEye while the transfer is inflight.
            yield world.sim.timeout(30.0)
            yield from mopeye.stop()
            return "stopped"

        assert world.run_process(run(), until=600000) == "stopped"
        world.run(until=120000)
        assert not mopeye.running
        for thread in mopeye._threads:
            assert thread.triggered

    def test_restart_after_stop(self, world):
        world.add_server("198.18.0.3", name="dummy-sink2")
        mopeye = MopEyeService(world.device,
                               dummy_server_ip="198.18.0.3")
        mopeye.start()
        app = App(world.device, "com.example.app")
        world.run_process(app.request("93.184.216.34", 80, b"one\n"))

        def stop():
            yield from mopeye.stop()

        world.run_process(stop())
        world.run(until=60000)
        # A fresh service on the same device works again.
        second = MopEyeService(world.device)
        second.start()
        response = world.run_process(
            app.request("93.184.216.34", 80, b"two\n"))
        assert response == b"two\n"
        assert len(second.store.tcp()) == 1

    def test_orphan_tunnel_packets_counted(self, world):
        """Mid-connection packets with no client (e.g. after service
        restart) are dropped and counted, not crashing."""
        from repro.netstack import IPPacket, PROTO_TCP, TCPSegment, ACK
        mopeye = MopEyeService(world.device)
        mopeye.start()
        seg = TCPSegment(41000, 80, seq=5, ack=6, flags=ACK,
                         payload=b"orphan")
        packet = IPPacket(world.device.tun_address, "93.184.216.34",
                          PROTO_TCP,
                          seg.encode(world.device.tun_address,
                                     "93.184.216.34"))
        mopeye.tun.inject_outgoing(packet)
        world.run(until=5000)
        assert mopeye.obs.value("relay.orphan_packets") == 1


class TestMapperEdgeCases:
    def test_connection_closed_before_mapping_is_unmapped(self, world):
        """If the app socket vanishes from /proc/net before the lazy
        parse runs, the record is kept without attribution."""
        import repro.core.mapping as mapping_module
        mopeye = MopEyeService(world.device)
        mopeye.start()
        # Make parsing slow so the connection is gone by parse time.
        world.device.costs.proc_parse = \
            world.device.costs.proc_parse.__class__(3000.0, 0.01)
        app = App(world.device, "com.flash.app")

        def run():
            socket = yield from app.timed_connect("93.184.216.34", 80)
            socket.abort()  # vanish immediately
            yield world.sim.timeout(8000)

        world.run_process(run(), until=120000)
        stats = mopeye.mapper.stats
        assert stats.unmapped >= 1
        records = list(mopeye.store.tcp())
        assert len(records) == 1
        assert records[0].app_package is None
