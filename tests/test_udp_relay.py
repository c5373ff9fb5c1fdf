"""Non-DNS UDP relay tests: MopEye relays all UDP, measures only DNS."""

import pytest

from repro.core import MopEyeService
from repro.network.servers import UdpEchoServer


@pytest.fixture
def udp_world(world):
    echo = UdpEchoServer(world.sim, "198.51.100.150")
    world.internet.add_server(echo)
    world.echo = echo
    world.mopeye = MopEyeService(world.device)
    world.mopeye.start()
    return world


class TestNonDnsUdpRelay:
    def test_udp_roundtrip_through_relay(self, udp_world):
        w = udp_world
        socket = w.device.create_udp_socket(10070)

        def run():
            socket.sendto(b"probe-payload", "198.51.100.150", 4500)
            payload, addr = yield socket.recvfrom()
            return payload, addr

        payload, addr = w.run_process(run())
        assert payload == b"probe-payload"
        assert addr == ("198.51.100.150", 4500)
        assert w.echo.datagrams_echoed == 1

    def test_non_dns_udp_not_measured(self, udp_world):
        w = udp_world
        socket = w.device.create_udp_socket(10070)

        def run():
            socket.sendto(b"x", "198.51.100.150", 4500)
            yield socket.recvfrom()

        w.run_process(run())
        # Relayed, but no DNS measurement recorded (section 2.2: only
        # DNS is measured on UDP).
        assert len(w.mopeye.store.dns()) == 0
        assert w.mopeye.udp_relay.relayed == 1
        assert w.mopeye.udp_relay.dns_measured == 0

    def test_dns_on_nonstandard_server_still_measured(self, udp_world):
        """Any port-53 traffic counts as DNS, whatever the resolver."""
        w = udp_world
        w.device.dns_server_ip = "8.8.8.8"

        def run():
            address = yield w.device.resolve_process("www.example.com")
            return address

        assert w.run_process(run()) == "93.184.216.34"
        assert len(w.mopeye.store.dns()) == 1

    def test_udp_datagrams_counted_in_relay_stats(self, udp_world):
        """Captured UDP datagrams must show up in the unified stats:
        historically only the TCP path fed packets_to_tunnel and the
        tunnel-side UDP captures were counted nowhere."""
        w = udp_world
        socket = w.device.create_udp_socket(10070)

        def run():
            socket.sendto(b"one", "198.51.100.150", 4500)
            yield socket.recvfrom()
            socket.sendto(b"two", "198.51.100.150", 4500)
            yield socket.recvfrom()

        w.run_process(run())
        assert w.mopeye.obs.value("udp_relay.datagrams") == 2
        # The relayed replies also count as packets toward the tunnel.
        assert w.mopeye.obs.value("relay.packets_to_tunnel") >= 2

    def test_multiple_udp_exchanges_isolated(self, udp_world):
        w = udp_world
        a = w.device.create_udp_socket(10071)
        b = w.device.create_udp_socket(10072)

        def run():
            a.sendto(b"from-a", "198.51.100.150", 4500)
            b.sendto(b"from-b", "198.51.100.150", 4501)
            pa, _addr = yield a.recvfrom()
            pb, _addr = yield b.recvfrom()
            return pa, pb

        pa, pb = w.run_process(run())
        assert pa == b"from-a"
        assert pb == b"from-b"
