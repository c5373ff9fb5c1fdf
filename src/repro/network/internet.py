"""Routing fabric between devices and servers.

The Internet object owns the address space: devices attach with their
access link, servers register the IPs they serve.  A packet travels
uplink -> per-server path delay -> server, and replies travel the
reverse.  The sum of those components is the wire-level RTT that
tcpdump-style observers record as ground truth.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.netstack.ip import IPPacket
from repro.sim.kernel import Simulator


class Internet:
    def __init__(self, sim: Simulator,
                 notify_unreachable: bool = False):
        self.sim = sim
        self._devices: Dict[str, object] = {}
        self._servers: Dict[str, object] = {}
        self._server_last_arrival: Dict[int, float] = {}
        # Wire observers see (direction, packet, timestamp); tcpdump is one.
        self._taps: List[Callable[[str, IPPacket, float], None]] = []
        #: Destinations whose route is withdrawn (fault injection):
        #: packets to them are treated exactly like unknown IPs.
        self.unreachable_ips: set = set()
        #: Per-destination access-link override: traffic to (and
        #: replies from) these IPs rides a dedicated link instead of
        #: ``device.link``.  The cluster tier routes uploads this way
        #: so collector traffic shares no queue or RNG state with the
        #: measurement path -- uploads must never perturb what the
        #: fleet measures.
        self._route_links: Dict[str, object] = {}
        #: When True, unroutable uplink packets bounce an ICMP-style
        #: destination-unreachable back to the sender (after the uplink
        #: latency, as a first-hop router would).  Off by default: the
        #: classic Internet here drops silently and lets TCP time out.
        self.notify_unreachable = notify_unreachable
        #: In-path middleboxes (repro.middlebox): each may claim an
        #: uplink packet via ``wants(packet, server)`` and is then
        #: substituted for the real server -- a transparent proxy the
        #: sender cannot see.  Resolution order is install order; a
        #: middlebox's *own* upstream traffic is never re-diverted.
        self._middleboxes: List[object] = []

    # -- topology -----------------------------------------------------------
    def attach_device(self, device) -> None:
        self._devices[device.ip] = device

    def add_server(self, server) -> None:
        for ip in server.ips:
            if ip in self._servers:
                raise ValueError("IP %s already registered" % ip)
            self._servers[ip] = server
        server.internet = self

    def server_for(self, ip: str):
        return self._servers.get(ip)

    def set_route_link(self, ip: str, link) -> None:
        """Route traffic to/from ``ip`` over ``link`` instead of the
        device's access link (see ``_route_links``)."""
        self._route_links[ip] = link

    def install_middlebox(self, middlebox) -> None:
        """Place a middlebox in-path (see ``_middleboxes``).  The
        middlebox stays installed but inert until its ``enabled`` flag
        is set (fault-injector driven), so installing one cannot move
        a byte on its own."""
        self._middleboxes.append(middlebox)

    def add_tap(self, tap: Callable[[str, IPPacket, float], None]) -> None:
        """Register a wire observer (e.g. the tcpdump baseline)."""
        self._taps.append(tap)

    def _notify_taps(self, direction: str, packet: IPPacket) -> None:
        for tap in self._taps:
            tap(direction, packet, self.sim.now)

    # -- forwarding -----------------------------------------------------------
    def send_from_device(self, device, packet: IPPacket) -> None:
        """Uplink: device -> (link) -> path -> server."""
        self._notify_taps("up", packet)
        server = self._servers.get(packet.dst_str)
        if packet.dst_str in self.unreachable_ips:
            server = None
        if server is None:
            # Unroutable destination: silently dropped, like the real
            # network, unless ICMP feedback is enabled.  TCP timeouts
            # upstream handle the silent case.  With feedback on, the
            # packet still crosses the uplink; the first router past it
            # bounces a (small) destination-unreachable back down.
            if self.notify_unreachable:
                device.link.up.send(
                    packet, packet.total_length,
                    lambda pkt: device.link.down.send(
                        pkt, 64,
                        lambda orig: device.deliver_unreachable(orig)))
            return

        # Transparent interception: a middlebox may claim the packet
        # and stand in for the server.  Only routable destinations are
        # divertible (the unreachable/unknown cases above keep their
        # exact semantics), and a middlebox never intercepts its own
        # upstream traffic.
        for middlebox in self._middleboxes:
            if device is not middlebox and server is not middlebox \
                    and middlebox.wants(packet, server):
                server = middlebox
                break

        def after_uplink(pkt: IPPacket) -> None:
            # Path segments are FIFO too: clamp per-server arrivals.
            arrival = self.sim.now + server.path_oneway_ms()
            key = id(server)
            arrival = max(arrival, self._server_last_arrival.get(key, 0.0))
            self._server_last_arrival[key] = arrival
            arrive = self.sim.timeout(arrival - self.sim.now)
            arrive.callbacks.append(lambda _evt: server.receive(pkt))

        link = self._route_links.get(packet.dst_str, device.link)
        link.up.send(packet, packet.total_length, after_uplink)

    def send_to_device(self, packet: IPPacket,
                       from_server=None) -> None:
        """Downlink: server -> path -> (link) -> device."""
        device = self._devices.get(packet.dst_str)
        if device is None:
            return
        extra = from_server.path_oneway_ms() if from_server else 0.0
        link = self._route_links.get(packet.src_str, device.link)

        def after_path(_evt) -> None:
            def deliver(pkt: IPPacket) -> None:
                self._notify_taps("down", pkt)
                device.deliver_from_network(pkt)

            link.down.send(packet, packet.total_length, deliver)

        arrive = self.sim.timeout(extra)
        arrive.callbacks.append(after_path)
