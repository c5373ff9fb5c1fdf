"""TCP relay: splicing tunnel connections to external sockets (§2.3).

Each app connection becomes a :class:`TcpClient`: a user-space TCP state
machine terminating the internal (tunnel) side, two-way referenced with
a ``SocketChannel`` for the external side.  The temporary
*socket-connect thread* (section 2.4) performs the blocking external
``connect()`` -- whose duration *is* the RTT measurement -- then the
lazy packet-to-app mapping, then completes the internal handshake.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.records import FailureKind
from repro.netstack.tcp_segment import TCPSegment
from repro.netstack.tcp_state import TCPState, TCPStateMachine
from repro.phone.ktcp import (
    ConnectionRefused,
    ConnectTimeout,
    NetworkUnreachable,
)
from repro.phone.nio import OP_READ, OP_WRITE, SocketChannel

FourTuple = Tuple[str, int, str, int]

# Exception -> FailureKind on the persisted failure record.
_FAILURE_KINDS = {
    ConnectionRefused: FailureKind.REFUSED,
    ConnectTimeout: FailureKind.TIMEOUT,
    NetworkUnreachable: FailureKind.UNREACHABLE,
}


class TcpClient:
    """One spliced connection: state machine <-> socket channel."""

    def __init__(self, service, four_tuple: FourTuple,
                 syn: TCPSegment):
        self.service = service
        self.device = service.device
        self.sim = service.sim
        self.four_tuple = four_tuple
        local_ip, local_port, remote_ip, remote_port = four_tuple
        self.machine = TCPStateMachine(
            local_ip, local_port, remote_ip, remote_port,
            isn=self.device.rng.randrange(1 << 32),
            mss=service.config.mss, window=service.config.window)
        self.machine.on_syn(syn)
        self.channel = SocketChannel(self.device, service.uid,
                                     protected=False)
        # Two-way referencing (section 2.3).
        self.channel.client = self
        self.rtt_ms: Optional[float] = None
        self.connect_started_at: Optional[float] = None
        self.app_uid: Optional[int] = None
        self.app_package: Optional[str] = None
        self.registered = False
        self.finished = False
        # Beyond-RTT metrics: relayed byte counters per direction.
        self.opened_at = self.sim.now
        self.bytes_up = 0
        self.bytes_down = 0
        # App-layer RTT (docs/MIDDLEBOX.md): first request byte out to
        # first response byte in.  Unlike the SYN RTT this spans the
        # full path even behind a split-connection proxy.
        self.first_request_at: Optional[float] = None
        self.app_rtt_recorded = False
        # RRC promotion counts at flow open (RrcAwareLink only):
        # record_flow charges this flow the promotions that happened
        # during its lifetime when attributing energy.
        machine = getattr(service.device.link, "machine", None)
        self.rrc_promos_at_open = (
            (machine.promotions_full, machine.promotions_partial)
            if machine is not None else None)
        # Socket write buffer (section 2.3): tunnel data is buffered
        # here and a write event is triggered for the socket instance.
        self.write_buffer = bytearray()
        self.half_close_pending = False

    # -- the temporary socket-connect thread (sections 2.4, 3.3) -----------
    def socket_connect_thread(self):
        service = self.service
        costs = self.device.costs
        yield self.device.busy(costs.thread_spawn.sample(),
                               "mopeye.connect")
        if service.per_socket_protect:
            # Pre-5.0 path: protect each socket before connecting
            # (section 3.5.2 mitigation -- only the SYN is affected).
            yield service.vpn.protect(self.channel.socket)
        yield self.device.busy(costs.socket_create.sample(),
                               "mopeye.connect")
        dst_ip, dst_port = self.four_tuple[2], self.four_tuple[3]
        # Timestamps bracket the connect() call itself (section 4.1.1:
        # "putting the timing function just before and after the socket
        # call"); the syscall's own issue cost is inside the window,
        # which is the sub-millisecond deviation Table 2 reports.
        start = costs.quantize_nano(self.sim.now)
        self.connect_started_at = self.sim.now
        # The span brackets exactly what the timestamps bracket, so a
        # trace replays the Table 2 accuracy argument span by span.
        span = service.obs.start_span("tcp.connect", dst_ip=dst_ip,
                                      dst_port=dst_port)
        try:
            yield self.device.busy(costs.connect_issue.sample(),
                                   "mopeye.connect")
            yield self.channel.connect(dst_ip, dst_port)
        except (ConnectionRefused, ConnectTimeout,
                NetworkUnreachable) as exc:
            service.obs.end_span(span, outcome=type(exc).__name__)
            # External connect failed: persist *why* (timeout vs
            # refused vs unreachable) so diagnosis can tell a dead host
            # from a dead route, then refuse the app with RST.  Map
            # the app first -- a failure record nobody can attribute
            # is useless, and the app is already waiting on a failure,
            # so the lazy-mapping timeliness argument does not apply.
            self.app_uid, self.app_package = yield from \
                service.mapper.map_connection(self.four_tuple)
            service.record_tcp_failure(self, _FAILURE_KINDS[type(exc)])
            yield from service.emit_tunnel_segment(self,
                                                   self.machine.make_rst())
            service.remove_client(self)
            service.obs.inc("relay.connect_failures")
            return
        if service.config.connect_mode == "blocking_thread":
            end = costs.quantize_nano(self.sim.now)
            # A jittered clock (repro.middlebox.imperfect) can stamp
            # the end before the start on a short connect; a negative
            # RTT would be rejected by the record schema.
            self.rtt_ms = max(0.0, end - start)
            service.obs.end_span(span, rtt_ms=self.rtt_ms)
            service.obs.observe("tcp.connect_rtt_ms", self.rtt_ms)
            # Lazy mapping happens only after the connect, so it never
            # delays the app-side handshake (section 3.3).
            yield from self._finish_measurement()
        else:
            # 'selector' ablation: the main worker will observe the
            # completed connect on a later loop and timestamp it there
            # (less accurately).  Nothing more to do here.
            service.obs.end_span(span, outcome="selector_mode")
            service.selector.wakeup()
            return

    def _finish_measurement(self):
        service = self.service
        # Complete the internal handshake first: the app must not wait
        # for mapping or registration (section 3.3: mapping never delays
        # "the timely TCP handshake on the application side").
        syn_ack = self.machine.make_syn_ack()
        yield from service.emit_tunnel_segment(self, syn_ack)
        # register() is expensive, so it also runs in this thread,
        # after the internal handshake is under way (section 3.4).
        yield service.selector.register(self.channel,
                                        OP_READ | OP_WRITE,
                                        attachment=self)
        self.registered = True
        # Deferred packet-to-app mapping (section 3.3), then record.
        self.app_uid, self.app_package = yield from \
            service.mapper.map_connection(self.four_tuple)
        service.record_tcp(self)

    # -- tunnel-side packet processing (section 2.3) -------------------------
    def handle_tunnel_segment(self, segment: TCPSegment):
        """Generator (runs in MainWorker): dispatch one tunnel segment
        according to the RFC 793 processing rules."""
        service = self.service
        machine = self.machine
        if segment.is_rst:
            machine.on_rst(segment)
            self.channel.abort()
            service.remove_client(self)
            return
        if segment.is_fin:
            ack = machine.on_fin(segment)
            yield from service.emit_tunnel_segment(self, ack)
            # Trigger a half-close write event for the socket instance
            # (section 2.3); it runs after any buffered data drains.
            self.half_close_pending = True
            self.channel.request_write()
            return
        if segment.payload:
            data = machine.on_data(segment)
            # Place the data in the socket write buffer and trigger a
            # socket write event (section 2.3); MainWorker handles it
            # via handle_socket_writable.
            self.write_buffer.extend(data)
            self.channel.request_write()
            return
        # Pure ACK (section 2.3: discarded, nothing relayed).
        if machine.state == TCPState.SYN_RECEIVED:
            machine.on_handshake_ack(segment)
        elif machine.fin_sent:
            machine.on_fin_ack(segment)
            if machine.state == TCPState.CLOSED or machine.is_closed:
                self._cleanup()
        service.obs.inc("relay.pure_acks_discarded")

    # -- socket-side events (section 2.3) ----------------------------------------
    def handle_socket_writable(self):
        """Generator (runs in MainWorker): the socket write event --
        flush the write buffer to the server and instruct the state
        machine to ACK the app; or complete a pending half-close."""
        service = self.service
        self.channel.write_requested = False
        if self.write_buffer:
            data = bytes(self.write_buffer)
            self.write_buffer.clear()
            cost = self.device.costs.socket_write.sample()
            yield self.device.busy(cost, "mopeye.worker")
            if service.config.per_packet_inspection_ms:
                packets = max(1, len(data) // self.machine.mss)
                yield self.device.busy(
                    service.config.per_packet_inspection_ms * packets,
                    "inspection")
            if self.bytes_up == 0 and self.first_request_at is None:
                # Timestamp the first request byte the same way the
                # connect() is bracketed (section 4.1.1): just before
                # the write call, through the same quantised clock.
                self.first_request_at = \
                    self.device.costs.quantize_nano(self.sim.now)
            self.bytes_up += len(data)
            service.obs.inc("relay.bytes_up", len(data))
            self.channel.write(data)
            yield from service.emit_tunnel_segment(
                self, self.machine.make_ack())
        if self.half_close_pending:
            # Half-close write event: close the external write side.
            self.half_close_pending = False
            self.channel.shutdown_output()

    def handle_socket_readable(self):
        """Generator (runs in MainWorker): drain the external socket and
        forward toward the app."""
        service = self.service
        cost = self.device.costs.socket_read.sample()
        yield self.device.busy(cost, "mopeye.worker")
        data = self.channel.read_all()
        if data:
            if self.bytes_down == 0 and not self.app_rtt_recorded \
                    and self.first_request_at is not None:
                self.app_rtt_recorded = True
                end = self.device.costs.quantize_nano(self.sim.now)
                service.record_app_rtt(
                    self, max(0.0, end - self.first_request_at))
            self.bytes_down += len(data)
            service.obs.inc("relay.bytes_down", len(data))
            if self.service.config.per_packet_inspection_ms:
                packets = max(1, len(data) // self.machine.mss)
                yield self.device.busy(
                    self.service.config.per_packet_inspection_ms * packets,
                    "inspection")
            for segment in self.machine.deliver(data):
                yield from service.emit_tunnel_segment(self, segment)
        if self.channel.eof and not self.finished:
            yield from self._handle_socket_close()

    def _handle_socket_close(self):
        """Socket close/reset: generate FIN or RST toward the app."""
        service = self.service
        machine = self.machine
        if getattr(self.channel.socket, "reset_received", False):
            if not machine.is_closed:
                yield from service.emit_tunnel_segment(
                    self, machine.make_rst())
            self._cleanup()
            return
        if machine.state in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            yield from service.emit_tunnel_segment(self,
                                                   machine.make_fin())
        elif machine.is_closed or machine.state == TCPState.CLOSED:
            self._cleanup()

    def _cleanup(self):
        if not self.finished:
            self.finished = True
            self.channel.close()
            self.service.record_flow(self)
            self.service.remove_client(self)

    def __repr__(self) -> str:
        return "<TcpClient %s:%d->%s:%d app=%s>" % (
            self.four_tuple + (self.app_package,))
