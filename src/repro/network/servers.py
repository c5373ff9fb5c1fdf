"""Remote endpoints: TCP application servers and UDP DNS resolvers.

App servers terminate TCP with the same RFC 793 state machine the
user-space stack uses (passive open), so the whole path from an app's
SYN to the server's SYN/ACK is exercised at the wire-format level.
:class:`AppServer` is the one passive-open TCP endpoint: the collector
(``repro.backend.server``) and the middlebox proxy
(``repro.middlebox.proxy``) subclass it and override its hooks.

The default application protocol is a minimal request/response scheme
rich enough for every experiment:

* ``b"GET ..."``      -> a fixed-size response page,
* ``b"DOWNLOAD <n>"`` -> ``n`` bytes of payload (speedtest download),
* ``b"UPLOAD <n>"``   -> server consumes ``n`` bytes then replies ``OK``
  (speedtest upload),
* anything else      -> echoed back.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.netstack.dns import (
    DNSMessage,
    DNSResourceRecord,
    RCODE_NXDOMAIN,
    RCODE_SERVFAIL,
)
from repro.netstack.ip import IPPacket, PROTO_TCP, PROTO_UDP
from repro.netstack.tcp_segment import ACK, RST, SYN, TCPSegment
from repro.netstack.tcp_state import (
    TCPState,
    TCPStateError,
    TCPStateMachine,
)
from repro.netstack.udp_datagram import UDPDatagram
from repro.sim.distributions import Constant, Distribution
from repro.sim.kernel import Simulator

SYN_ACK_FLAGS = SYN | ACK

_RESPONSE_PAGE = b"HTTP/1.1 200 OK\r\n\r\n" + b"m" * 1000

# Outage modes shared by AppServer and DnsServer (driven by
# repro.faults.injector).  "refuse" answers SYNs with RST (process
# down, host up); "blackhole" drops everything (host or route gone);
# "slow_accept" delays the SYN/ACK by outage_slow_ms (brownout);
# "servfail" (DNS only) answers queries with SERVFAIL.
OUTAGE_REFUSE = "refuse"
OUTAGE_BLACKHOLE = "blackhole"
OUTAGE_SLOW_ACCEPT = "slow_accept"
OUTAGE_SERVFAIL = "servfail"


class _ServerConnection:
    """Server-side state for one TCP connection."""

    def __init__(self, machine: TCPStateMachine):
        self.machine = machine
        self.request = bytearray()
        self.upload_expected: Optional[int] = None
        self.upload_received = 0


class AppServer:
    """A TCP server reachable at one or more IPs."""

    #: The per-connection object kept for each accepted four-tuple.
    connection_class = _ServerConnection

    def __init__(self, sim: Simulator, ips: List[str], name: str = "server",
                 path_oneway: Optional[Distribution] = None,
                 accept_delay: Optional[Distribution] = None,
                 response_page: bytes = _RESPONSE_PAGE,
                 listen_ports: Optional[List[int]] = None,
                 rng: Optional[random.Random] = None):
        self.sim = sim
        self.ips = list(ips)
        self.name = name
        self.path_oneway = path_oneway or Constant(0.0)
        self.accept_delay = accept_delay or Constant(0.1)
        self.response_page = response_page
        # None = accept any port; otherwise SYNs to other ports are
        # refused with RST (ConnectionRefused at the client).
        self.listen_ports = (set(listen_ports)
                             if listen_ports is not None else None)
        self.rng = rng or random.Random(0)
        self.internet = None  # set by Internet.add_server
        self._connections: Dict[Tuple[str, int, str, int],
                                _ServerConnection] = {}
        self.connections_accepted = 0
        self.bad_segments = 0
        self.syn_ack_retransmissions = 0
        #: Active outage mode (None in steady state); see set_outage.
        self.outage_mode: Optional[str] = None
        self.outage_slow_ms = 0.0

    def path_oneway_ms(self) -> float:
        return self.path_oneway.sample()

    # -- fault hooks -------------------------------------------------------
    def set_outage(self, mode: str, slow_ms: float = 0.0) -> None:
        if mode not in (OUTAGE_REFUSE, OUTAGE_BLACKHOLE,
                        OUTAGE_SLOW_ACCEPT):
            raise ValueError("unknown outage mode %r" % mode)
        self.outage_mode = mode
        self.outage_slow_ms = slow_ms

    def clear_outage(self) -> None:
        self.outage_mode = None
        self.outage_slow_ms = 0.0

    # -- packet handling ---------------------------------------------------
    def receive(self, packet: IPPacket) -> None:
        if packet.protocol != PROTO_TCP:
            return
        if self.outage_mode == OUTAGE_BLACKHOLE:
            return
        segment = TCPSegment.decode(packet.payload)
        key = (packet.src_str, segment.src_port,
               packet.dst_str, segment.dst_port)
        if segment.is_syn:
            if self._refuses(segment):
                self._refuse(packet, segment, key)
                return
            existing = self._connections.get(key)
            if existing is not None:
                # SYN retransmission (the first SYN/ACK is stuck in a
                # queue somewhere): re-answer from the existing
                # half-open connection, never re-accept with a new ISN.
                if existing.machine.state == TCPState.SYN_RECEIVED:
                    self._retransmit_syn_ack(key, existing.machine)
                return
            self._accept(packet, segment, key)
            return
        conn = self._connections.get(key)
        if conn is None:
            return
        machine = conn.machine
        try:
            self._process_segment(key, conn, machine, segment)
        except TCPStateError:
            # Stale/duplicate segment for a superseded state; real
            # stacks drop these.
            self.bad_segments += 1

    # -- hooks a subclass overrides (the middlebox proxy does) ------------
    def _refuses(self, segment: TCPSegment) -> bool:
        """Whether a SYN is answered with RST instead of accepted."""
        return self.outage_mode == OUTAGE_REFUSE or (
            self.listen_ports is not None
            and segment.dst_port not in self.listen_ports)

    def _on_accept(self, key, conn: _ServerConnection) -> None:
        """Runs once the SYN/ACK is scheduled."""

    def _on_client_rst(self, conn: _ServerConnection) -> None:
        """Runs after the connection is dropped for a client RST."""

    def _on_client_fin(self, key, conn: _ServerConnection) -> None:
        """Runs after the client's FIN is ACKed: close right back
        (typical server close)."""
        if conn.machine.state == TCPState.CLOSE_WAIT:
            self._transmit(key, conn.machine.make_fin())

    # -- passive-open TCP --------------------------------------------------
    def _refuse(self, packet: IPPacket, segment: TCPSegment,
                key) -> None:
        """Answer a SYN that :meth:`_refuses` with RST."""
        rst = TCPSegment(segment.dst_port, segment.src_port,
                         seq=0, ack=(segment.seq + 1) & 0xFFFFFFFF,
                         flags=RST | ACK)
        self._transmit(key, rst)

    def _retransmit_syn_ack(self, key, machine: TCPStateMachine) -> None:
        self.syn_ack_retransmissions += 1
        duplicate = TCPSegment(
            src_port=machine.remote_port, dst_port=machine.local_port,
            seq=machine.snd_iss, ack=machine.rcv_nxt or 0,
            flags=SYN_ACK_FLAGS, window=machine.window,
            mss=machine.mss)
        self._transmit(key, duplicate)

    def _process_segment(self, key, conn: "_ServerConnection",
                         machine: TCPStateMachine,
                         segment: TCPSegment) -> None:
        if segment.is_rst:
            machine.on_rst(segment)
            self._connections.pop(key, None)
            self._on_client_rst(conn)
            return
        if segment.is_fin:
            self._transmit(key, machine.on_fin(segment))
            self._on_client_fin(key, conn)
            return
        if machine.state == TCPState.SYN_RECEIVED and segment.flags:
            if segment.payload:
                data = machine.on_data(segment)
                self._on_request_bytes(key, conn, data)
            else:
                machine.on_handshake_ack(segment)
            return
        if segment.payload:
            data = machine.on_data(segment)
            self._transmit(key, machine.make_ack())
            self._on_request_bytes(key, conn, data)
        elif machine.fin_sent:
            machine.on_fin_ack(segment)
            if machine.is_closed:
                self._connections.pop(key, None)
        # Pure ACKs for data need no action (no flow control here).

    def _accept(self, packet: IPPacket, segment: TCPSegment, key) -> None:
        machine = TCPStateMachine(
            local_ip=packet.src_str, local_port=segment.src_port,
            remote_ip=packet.dst_str, remote_port=segment.dst_port,
            isn=self.rng.randrange(1 << 32))
        machine.on_syn(segment)
        conn = self._connections[key] = self.connection_class(machine)
        self.connections_accepted += 1
        accept_ms = self.accept_delay.sample()
        if self.outage_mode == OUTAGE_SLOW_ACCEPT:
            accept_ms += self.outage_slow_ms
        delay = self.sim.timeout(accept_ms)
        delay.callbacks.append(
            lambda _evt: self._transmit(key, machine.make_syn_ack()))
        self._on_accept(key, conn)

    # -- application protocol -------------------------------------------------
    def _on_request_bytes(self, key, conn: _ServerConnection,
                          data: bytes) -> None:
        """Framed request parsing.  Relays may coalesce writes, so one
        chunk can carry a command line *and* following body bytes (or
        several commands); consume the buffer incrementally."""
        conn.request.extend(data)
        while True:
            if conn.upload_expected is not None:
                take = min(len(conn.request),
                           conn.upload_expected - conn.upload_received)
                del conn.request[:take]
                conn.upload_received += take
                if conn.upload_received >= conn.upload_expected:
                    conn.upload_expected = None
                    self._send_data(key, conn, b"OK")
                    continue
                return
            if not conn.request:
                return
            if conn.request.startswith(b"GET"):
                end = conn.request.find(b"\r\n\r\n")
                if end < 0:
                    return  # incomplete HTTP request
                del conn.request[:end + 4]
                self._send_data(key, conn, self.response_page)
                continue
            newline = conn.request.find(b"\n")
            if newline < 0:
                return  # incomplete command line
            line = bytes(conn.request[:newline])
            del conn.request[:newline + 1]
            if line.startswith(b"DOWNLOAD "):
                try:
                    size = int(line.split()[1])
                except (IndexError, ValueError):
                    continue
                self._send_data(key, conn, b"d" * size)
            elif line.startswith(b"UPLOAD "):
                try:
                    size = int(line.split()[1])
                except (IndexError, ValueError):
                    continue
                conn.upload_expected = size
                conn.upload_received = 0
            else:
                self._send_data(key, conn, line + b"\n")  # echo

    def _send_data(self, key, conn: _ServerConnection,
                   payload: bytes) -> None:
        for segment in conn.machine.deliver(payload):
            self._transmit(key, segment)

    def _transmit(self, key, segment: TCPSegment) -> None:
        client_ip, _client_port, server_ip, _server_port = key
        packet = IPPacket(server_ip, client_ip, PROTO_TCP,
                          segment.encode(server_ip, client_ip))
        self.internet.send_to_device(packet, from_server=self)

    def __repr__(self) -> str:
        return "<AppServer %s %s>" % (self.name, ",".join(self.ips))


class UdpEchoServer:
    """A generic UDP responder (non-DNS UDP traffic: QUIC-ish probes,
    NTP-style exchanges).  Echoes every datagram back after a
    processing delay -- used to verify MopEye relays *all* UDP, not
    just port 53 (section 2.2)."""

    def __init__(self, sim: Simulator, ip: str, name: str = "udp-echo",
                 path_oneway: Optional[Distribution] = None,
                 processing_delay: Optional[Distribution] = None):
        self.sim = sim
        self.ips = [ip]
        self.ip = ip
        self.name = name
        self.path_oneway = path_oneway or Constant(0.0)
        self.processing_delay = processing_delay or Constant(0.2)
        self.internet = None
        self.datagrams_echoed = 0

    def path_oneway_ms(self) -> float:
        return self.path_oneway.sample()

    def receive(self, packet: IPPacket) -> None:
        if packet.protocol != PROTO_UDP:
            return
        datagram = UDPDatagram.decode(packet.payload)
        self.datagrams_echoed += 1
        reply = UDPDatagram(datagram.dst_port, datagram.src_port,
                            datagram.payload)
        out = IPPacket(packet.dst_str, packet.src_str, PROTO_UDP,
                       reply.encode(packet.dst_str, packet.src_str))
        delay = self.sim.timeout(self.processing_delay.sample())
        delay.callbacks.append(
            lambda _evt: self.internet.send_to_device(out,
                                                      from_server=self))


class DnsZone:
    """Name -> address database with wildcard support."""

    def __init__(self) -> None:
        self._exact: Dict[str, str] = {}
        self._wildcards: List[Tuple[str, str]] = []

    def add(self, name: str, address: str) -> None:
        name = name.rstrip(".").lower()
        if name.startswith("*."):
            self._wildcards.append((name[2:], address))
        else:
            self._exact[name] = address

    def lookup(self, name: str) -> Optional[str]:
        name = name.rstrip(".").lower()
        if name in self._exact:
            return self._exact[name]
        for suffix, address in self._wildcards:
            if name == suffix or name.endswith("." + suffix):
                return address
        return None

    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcards)


class DnsServer:
    """A UDP resolver at a fixed IP answering from a :class:`DnsZone`."""

    def __init__(self, sim: Simulator, ip: str, zone: DnsZone,
                 name: str = "dns",
                 path_oneway: Optional[Distribution] = None,
                 processing_delay: Optional[Distribution] = None):
        self.sim = sim
        self.ips = [ip]
        self.ip = ip
        self.name = name
        self.zone = zone
        self.path_oneway = path_oneway or Constant(0.0)
        self.processing_delay = processing_delay or Constant(0.5)
        self.internet = None
        self.queries_served = 0
        #: Active outage mode (None in steady state); see set_outage.
        self.outage_mode: Optional[str] = None
        self.queries_blackholed = 0

    def path_oneway_ms(self) -> float:
        return self.path_oneway.sample()

    # -- fault hooks -------------------------------------------------------
    def set_outage(self, mode: str) -> None:
        if mode not in (OUTAGE_BLACKHOLE, OUTAGE_SERVFAIL):
            raise ValueError("unknown DNS outage mode %r" % mode)
        self.outage_mode = mode

    def clear_outage(self) -> None:
        self.outage_mode = None

    def receive(self, packet: IPPacket) -> None:
        if packet.protocol != PROTO_UDP:
            return
        if self.outage_mode == OUTAGE_BLACKHOLE:
            self.queries_blackholed += 1
            return
        datagram = UDPDatagram.decode(packet.payload)
        try:
            query = DNSMessage.decode(datagram.payload)
        except Exception:
            return
        if query.is_response or not query.questions:
            return
        self.queries_served += 1
        question = query.questions[0]
        address = self.zone.lookup(question.name)
        if self.outage_mode == OUTAGE_SERVFAIL:
            response = query.response([], rcode=RCODE_SERVFAIL)
        elif address is None:
            response = query.response([], rcode=RCODE_NXDOMAIN)
        else:
            response = query.response(
                [DNSResourceRecord.a_record(question.name, address)])
        reply = UDPDatagram(datagram.dst_port, datagram.src_port,
                            response.encode())
        out = IPPacket(packet.dst_str, packet.src_str, PROTO_UDP,
                       reply.encode(packet.dst_str, packet.src_str))
        delay = self.sim.timeout(self.processing_delay.sample())
        delay.callbacks.append(
            lambda _evt: self.internet.send_to_device(out,
                                                      from_server=self))

    def __repr__(self) -> str:
        return "<DnsServer %s %s (%d names)>" % (self.name, self.ip,
                                                 len(self.zone))
