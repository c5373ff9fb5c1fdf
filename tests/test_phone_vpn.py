"""VpnService semantics: capture, protect, disallow, data loop, gates."""

import pytest

from repro.phone import VpnError, VpnService


def establish(world, package="com.mopeye"):
    vpn = VpnService(world.device, package)
    tun = vpn.new_builder().establish()
    return vpn, tun


class TestEstablish:
    def test_establish_creates_tun_and_activates(self, world):
        vpn, tun = establish(world)
        assert vpn.active
        assert world.device.vpn is vpn
        assert not tun.closed

    def test_double_establish_rejected(self, world):
        vpn, _tun = establish(world)
        with pytest.raises(VpnError):
            vpn.new_builder().establish()

    def test_builder_mtu_gate(self, world):
        vpn = VpnService(world.device, "com.mopeye")
        with pytest.raises(VpnError):
            vpn.new_builder().set_mtu(100)

    def test_stop_deactivates(self, world):
        vpn, tun = establish(world)
        vpn.stop()
        assert not vpn.active
        assert world.device.vpn is None
        assert tun.closed


class TestCaptureRouting:
    def test_app_traffic_goes_into_tunnel(self, world):
        _vpn, tun = establish(world)
        socket = world.device.create_tcp_socket(10050)
        socket.connect("93.184.216.34", 80)
        world.sim.run(until=10.0)
        assert tun.pending_outgoing == 1  # the SYN was captured

    def test_captured_socket_uses_tun_source_address(self, world):
        establish(world)
        socket = world.device.create_tcp_socket(10050)
        socket.connect("93.184.216.34", 80)
        assert socket.local_ip == world.device.tun_address

    def test_protected_socket_bypasses_tunnel(self, world):
        vpn, tun = establish(world)
        socket = world.device.create_tcp_socket(vpn.owner_uid)

        def main():
            yield vpn.protect(socket)
            yield socket.connect("93.184.216.34", 80)
            return socket.local_ip

        local_ip = world.run_process(main())
        assert local_ip == world.device.ip
        assert tun.pending_outgoing == 0

    def test_disallowed_app_bypasses_tunnel(self, world):
        vpn, tun = establish(world)
        vpn.add_disallowed_application("com.mopeye")
        socket = world.device.create_tcp_socket(vpn.owner_uid)

        def main():
            yield socket.connect("93.184.216.34", 80)

        world.run_process(main())
        assert tun.pending_outgoing == 0

    def test_unprotected_vpn_app_socket_loops_into_tunnel(self, world):
        """The data-loop hazard of section 3.5.2: without protect() the
        VPN app's own packets come right back through the tunnel."""
        vpn, tun = establish(world)
        socket = world.device.create_tcp_socket(vpn.owner_uid)
        socket.connect("93.184.216.34", 80)
        world.sim.run(until=10.0)
        assert tun.pending_outgoing == 1  # own SYN captured: a loop

    def test_add_disallowed_requires_sdk_21(self):
        from tests.conftest import World
        old = World(sdk=19)
        old.add_server("93.184.216.34")
        vpn = VpnService(old.device, "com.mopeye")
        vpn.new_builder().establish()
        with pytest.raises(VpnError):
            vpn.add_disallowed_application("com.mopeye")

    def test_protect_before_establish_rejected(self, world):
        vpn = VpnService(world.device, "com.mopeye")
        socket = world.device.create_tcp_socket(vpn.owner_uid)
        with pytest.raises(VpnError):
            vpn.protect(socket)


class TestTunBlockingGates:
    def test_blocking_api_requires_sdk_21(self):
        from tests.conftest import World
        from repro.phone import TunError
        old = World(sdk=19)
        vpn = VpnService(old.device, "com.mopeye")
        tun = vpn.new_builder().establish()
        with pytest.raises(TunError):
            tun.set_blocking_via_api(True)
        # The reflection shim works on every version (section 3.1).
        tun.set_blocking_via_reflection(True)
        assert tun.blocking

    def test_nonblocking_read_requires_try_read(self, world):
        from repro.phone import TunError
        _vpn, tun = establish(world)
        with pytest.raises(TunError):
            tun.read()  # still in non-blocking mode
        assert tun.try_read() is None

    def test_blocking_read_blocks_until_packet(self, world):
        _vpn, tun = establish(world)
        tun.set_blocking_via_api(True)
        times = {}

        def reader():
            packet = yield tun.read()
            times["read"] = world.sim.now
            return packet

        def traffic():
            yield world.sim.timeout(25.0)
            socket = world.device.create_tcp_socket(10050)
            socket.connect("93.184.216.34", 80)

        world.sim.process(reader())
        world.sim.process(traffic())
        world.run(until=1000)
        assert times["read"] == pytest.approx(25.0)

    def test_retrieval_delay_recorded(self, world):
        _vpn, tun = establish(world)
        tun.set_blocking_via_api(True)
        socket = world.device.create_tcp_socket(10050)
        socket.connect("93.184.216.34", 80)

        def reader():
            yield world.sim.timeout(40.0)  # reader arrives late
            yield tun.read()

        world.run_process(reader())
        assert tun.retrieval_delays == [pytest.approx(40.0)]

    def test_mtu_enforced_on_inject(self, world):
        from repro.phone import TunError
        from repro.netstack import IPPacket, PROTO_TCP
        _vpn, tun = establish(world)
        big = IPPacket("10.8.0.2", "1.2.3.4", PROTO_TCP, b"x" * 2000)
        with pytest.raises(TunError):
            tun.inject_outgoing(big)
