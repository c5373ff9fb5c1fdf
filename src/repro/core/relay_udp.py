"""UDP relay and DNS measurement (section 2.4).

Every UDP packet from the tunnel is relayed; only DNS (port 53) is
measured.  The whole DNS processing -- parsing, socket initialisation,
send, blocking receive -- runs in a temporary thread so it never blocks
MainWorker, and the RTT is the time between the ``send()`` and
``receive()`` socket calls, timestamped immediately around them.

The relay also learns domain -> address bindings from the answers it
forwards, which is how TCP measurements get their ``domain`` label.
"""

from __future__ import annotations

from repro.netstack.dns import DNSMessage, QTYPE_A
from repro.netstack.ip import IPPacket, PROTO_UDP
from repro.netstack.udp_datagram import UDPDatagram
from repro.sim.kernel import AnyOf

_UDP_REPLY_TIMEOUT_MS = 5000.0


class UdpRelay:
    def __init__(self, service):
        self.service = service
        self.device = service.device
        self.sim = service.sim
        self.obs = service.obs

    # Registry-backed views.
    @property
    def relayed(self) -> int:
        return int(self.obs.value("udp_relay.replies"))

    @property
    def dns_measured(self) -> int:
        return int(self.obs.value("udp_relay.dns_measured"))

    @property
    def timeouts(self) -> int:
        return int(self.obs.value("udp_relay.timeouts"))

    def relay_thread(self, packet: IPPacket, datagram: UDPDatagram):
        """Generator: the temporary per-query relay thread."""
        service = self.service
        costs = self.device.costs
        # Count the captured datagram itself: the TCP path counts every
        # packet it touches, the UDP path historically counted none.
        self.obs.inc("udp_relay.datagrams")
        self.obs.inc("udp_relay.bytes_up", len(datagram.payload))
        span = self.obs.start_span("udp_relay.relay",
                                   dst_port=datagram.dst_port)
        is_dns = datagram.dst_port == 53 and service.config.measure_dns
        if is_dns:
            yield self.device.busy(costs.dns_parse.sample(), "mopeye.dns")
        yield self.device.busy(costs.dns_socket_init.sample(),
                               "mopeye.dns")
        socket = self.device.create_udp_socket(service.uid)
        if service.per_socket_protect:
            yield service.vpn.protect(socket)
        start = costs.quantize_nano(self.sim.now)
        socket.sendto(datagram.payload, packet.dst_str, datagram.dst_port)
        reply = socket.recvfrom()
        timer = self.sim.timeout(_UDP_REPLY_TIMEOUT_MS)
        yield AnyOf(self.sim, [reply, timer])
        if not reply.triggered:
            socket.close()
            self.obs.inc("udp_relay.timeouts")
            if is_dns:
                # Persist the missing answer as a timeout-tagged DNS
                # record: a resolver outage is measurement evidence,
                # not just a dropped sample.
                end = costs.quantize_nano(self.sim.now)
                service.record_dns_failure(
                    end - start, packet.dst_str,
                    self._query_name(datagram.payload))
            self.obs.end_span(span, outcome="timeout")
            return
        end = costs.quantize_nano(self.sim.now)
        payload, (src_ip, src_port) = reply.value
        socket.close()
        self.obs.inc("udp_relay.replies")
        self.obs.inc("udp_relay.bytes_down", len(payload))
        domain = None
        if is_dns:
            domain = self._learn_bindings(payload)
            self.obs.inc("udp_relay.dns_measured")
            service.record_dns(end - start, packet.dst_str, domain)
        # Forward the reply into the tunnel (server -> app direction).
        response = UDPDatagram(datagram.dst_port, datagram.src_port,
                               payload)
        out = IPPacket(packet.dst_str, packet.src_str, PROTO_UDP,
                       response.encode(packet.dst_str, packet.src_str))
        yield from service.emit_packet(out)
        self.obs.end_span(span, rtt_ms=(end - start) if is_dns else None)

    @staticmethod
    def _query_name(payload: bytes):
        """The question name of an outgoing DNS query (best effort)."""
        try:
            message = DNSMessage.decode(payload)
        except Exception:
            return None
        return (message.questions[0].name
                if message.questions else None)

    def _learn_bindings(self, payload: bytes):
        """Record domain -> IP bindings from a DNS answer so later TCP
        measurements can be labelled with the server domain."""
        try:
            message = DNSMessage.decode(payload)
        except Exception:
            return None
        domain = (message.questions[0].name
                  if message.questions else None)
        for answer in message.answers:
            if answer.rtype == QTYPE_A:
                try:
                    self.service.domain_of_ip[answer.address] = \
                        answer.name if not domain else domain
                except Exception:
                    continue
        return domain
