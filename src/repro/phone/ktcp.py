"""Kernel-side TCP/UDP sockets (active open).

Apps on the device use these sockets exactly as they would the Android
kernel stack; so does MopEye for its *external* connections.  Whether a
socket's packets go out of the radio directly or get captured into the
VPN tunnel is decided per-packet by the device's routing layer, which is
what makes the ``protect()``/``addDisallowedApplication`` semantics of
section 3.5.2 observable: an unprotected VPN-app socket loops its own
traffic back into the tunnel.

Timing rule: the kernel emits a SYN immediately when ``connect()`` is
issued and completes the connect when the SYN/ACK arrives -- "invoking a
connect() call will immediately send out a SYN packet, and the call
returns just after receiving a SYN-ACK packet" (section 2.4).  This
makes the connect() duration the wire RTT plus only local issue costs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.netstack.ip import IPPacket, PROTO_TCP, PROTO_UDP
from repro.netstack.tcp_segment import ACK, FIN, PSH, RST, SYN, TCPSegment
from repro.netstack.tcp_state import seq_add
from repro.netstack.udp_datagram import UDPDatagram
from repro.sim.kernel import Event, Simulator


class SocketClosed(Exception):
    """Operation on a closed socket."""


class ConnectionRefused(Exception):
    """The peer answered the SYN with RST."""


class ConnectTimeout(Exception):
    """SYN retransmissions exhausted without an answer."""


class NetworkUnreachable(Exception):
    """The network reported no route to the destination (the ICMP
    destination-unreachable feedback path; see Internet.notify_unreachable)."""


# /proc/net/tcp state codes (include/net/tcp_states.h).
TCP_ESTABLISHED = 0x01
TCP_SYN_SENT = 0x02
TCP_FIN_WAIT1 = 0x04
TCP_FIN_WAIT2 = 0x05
TCP_TIME_WAIT = 0x06
TCP_CLOSE = 0x07
TCP_CLOSE_WAIT = 0x08
TCP_LAST_ACK = 0x09

_SYN_RTO_MS = 1000.0
_SYN_RETRIES = 5


class KernelTcpSocket:
    """One connected TCP socket owned by an app (identified by UID)."""

    MSS = 1460

    def __init__(self, device, uid: int, protected: bool = False,
                 ipv6: bool = False, isn_rng=None):
        self.device = device
        self.sim: Simulator = device.sim
        self.uid = uid
        self.protected = protected
        self.ipv6 = ipv6  # which /proc/net table the socket shows in
        self.state = TCP_CLOSE
        self.local_ip: Optional[str] = None
        self.local_port: Optional[int] = None
        self.remote_ip: Optional[str] = None
        self.remote_port: Optional[int] = None
        # The ISN draw normally comes from the shared device stream;
        # callers whose socket count may vary between otherwise
        # identical runs (the cluster uploader) pass their own stream
        # so app-measurement draws stay untouched.
        self._snd_nxt = (isn_rng or device.rng).randrange(1 << 32)
        self._snd_una = self._snd_nxt  # lowest unacknowledged seq
        self._rcv_nxt: Optional[int] = None
        self._connect_event: Optional[Event] = None
        self._recv_chunks: Deque[bytes] = deque()
        self._recv_waiters: Deque[Event] = deque()
        # Flow control: the peer's advertised receive window limits
        # our in-flight bytes; pending data waits here.
        self._send_buffer: Deque[bytes] = deque()
        self._peer_window = 65535
        self._fin_pending = False
        self._fin_sent = False
        self._delack_count = 0  # delayed ACK: every 2nd segment/PSH
        self._eof_delivered = False
        self._syn_attempts = 0
        self.peer_mss: Optional[int] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.connected_at: Optional[float] = None
        # NIO readiness hook: called with (socket, kind) on state
        # changes; kind in {"connect", "read"}.
        self.listener = None
        self.reset_received = False

    def _notify(self, kind: str) -> None:
        if self.listener is not None:
            self.listener(self, kind)

    @property
    def readable(self) -> bool:
        """Data queued or EOF/RST pending -- NIO read readiness."""
        return bool(self._recv_chunks) or self._eof_delivered

    # -- helpers ---------------------------------------------------------------
    def _segment(self, flags: int, payload: bytes = b"",
                 mss: Optional[int] = None) -> TCPSegment:
        return TCPSegment(self.local_port, self.remote_port,
                          seq=self._snd_nxt, ack=self._rcv_nxt or 0,
                          flags=flags, payload=payload, mss=mss)

    def _transmit(self, segment: TCPSegment) -> None:
        packet = IPPacket(self.local_ip, self.remote_ip, PROTO_TCP,
                          segment.encode(self.local_ip, self.remote_ip))
        self.device.transmit(self, packet)

    # -- API ------------------------------------------------------------------
    def connect(self, ip: str, port: int) -> Event:
        """Start the three-way handshake; the event triggers when the
        connection is established (or fails)."""
        if self.state != TCP_CLOSE or self._connect_event is not None:
            raise SocketClosed("socket already used")
        self.remote_ip = ip
        self.remote_port = port
        self.local_ip = self.device.source_ip_for(self)
        self.local_port = self.device.allocate_port()
        self.state = TCP_SYN_SENT
        self.device.register_socket(self)
        self._connect_event = self.sim.event("connect")
        self._send_syn()
        return self._connect_event

    def _send_syn(self) -> None:
        self._syn_attempts += 1
        self._transmit(self._segment(SYN, mss=self.MSS))
        attempt = self._syn_attempts
        timer = self.sim.timeout(_SYN_RTO_MS * (2 ** (attempt - 1)))
        timer.callbacks.append(lambda _evt: self._syn_timer(attempt))

    def _syn_timer(self, attempt: int) -> None:
        if self.state != TCP_SYN_SENT or attempt != self._syn_attempts:
            return
        if attempt >= _SYN_RETRIES:
            self.state = TCP_CLOSE
            self.device.unregister_socket(self)
            event, self._connect_event = self._connect_event, None
            if event and not event.triggered:
                event.fail(ConnectTimeout("%s:%d" % (self.remote_ip,
                                                     self.remote_port)))
            return
        self._send_syn()

    def send(self, data: bytes) -> None:
        """Segment and queue application data; transmission respects
        the peer's advertised receive window (classic flow control --
        MopEye advertises 65,535 bytes toward the apps, section 3.4)."""
        if self.state not in (TCP_ESTABLISHED, TCP_CLOSE_WAIT):
            raise SocketClosed("send in state 0x%02x" % self.state)
        for start in range(0, len(data), self.MSS):
            self._send_buffer.append(data[start:start + self.MSS])
        self.bytes_sent += len(data)
        self._flush_send_buffer()

    def _inflight(self) -> int:
        return (self._snd_nxt - self._snd_una) % (1 << 32)

    def _flush_send_buffer(self) -> None:
        while self._send_buffer:
            chunk = self._send_buffer[0]
            # Always allow one segment in flight even under a tiny
            # window (stop-and-wait floor; avoids the silly-window
            # deadlock when window < MSS).
            if self._inflight() > 0 and \
                    self._inflight() + len(chunk) > self._peer_window:
                return
            self._send_buffer.popleft()
            flags = ACK | (PSH if not self._send_buffer else 0)
            segment = self._segment(flags, payload=chunk)
            self._snd_nxt = seq_add(self._snd_nxt, len(chunk))
            self._transmit(segment)
        if self._fin_pending and not self._send_buffer:
            self._fin_pending = False
            self._send_fin()

    def recv(self) -> Event:
        """The next chunk of received bytes; ``b""`` signals EOF."""
        event = self.sim.event("recv")
        if self._recv_chunks:
            event.succeed(self._recv_chunks.popleft())
        elif self._eof_delivered or self.state in (TCP_CLOSE,
                                                   TCP_TIME_WAIT):
            event.succeed(b"")
        else:
            self._recv_waiters.append(event)
        return event

    def recv_exactly(self, size: int):
        """Generator: accumulate ``size`` bytes (or until EOF)."""
        buffer = bytearray()
        while len(buffer) < size:
            chunk = yield self.recv()
            if not chunk:
                break
            buffer.extend(chunk)
        return bytes(buffer)

    def close(self) -> None:
        """Orderly close (FIN); defers until buffered data drains."""
        if self.state in (TCP_ESTABLISHED, TCP_CLOSE_WAIT):
            if self._send_buffer:
                self._fin_pending = True
            else:
                self._send_fin()
        elif self.state == TCP_SYN_SENT:
            self.state = TCP_CLOSE
            self.device.unregister_socket(self)

    def _send_fin(self) -> None:
        self._transmit(self._segment(FIN | ACK))
        self._snd_nxt = seq_add(self._snd_nxt, 1)
        self.state = (TCP_FIN_WAIT1 if self.state == TCP_ESTABLISHED
                      else TCP_LAST_ACK)
        self._fin_sent = True

    def abort(self) -> None:
        """RST the connection."""
        if self.state not in (TCP_CLOSE, TCP_TIME_WAIT):
            self._transmit(self._segment(RST | ACK))
        self._teardown(deliver_eof=True)

    def _teardown(self, deliver_eof: bool) -> None:
        self.state = TCP_CLOSE
        self.device.unregister_socket(self)
        self._eof_delivered = True
        if deliver_eof:
            while self._recv_waiters:
                waiter = self._recv_waiters.popleft()
                if not waiter.triggered:
                    waiter.succeed(b"")
        self._notify("read")

    # -- packet input (from device demux) -----------------------------------------
    def handle_segment(self, segment: TCPSegment) -> None:
        if segment.is_rst:
            self._on_rst()
            return
        if self.state == TCP_SYN_SENT:
            if segment.is_syn_ack:
                self._on_syn_ack(segment)
            return
        if segment.is_fin:
            self._on_fin(segment)
            return
        if segment.payload:
            self._on_data(segment)
            return
        # Pure ACK: advance the send window and flush queued data.
        self._register_ack(segment)
        if self._fin_sent and segment.ack == self._snd_nxt:
            if self.state == TCP_FIN_WAIT1:
                self.state = TCP_FIN_WAIT2
            elif self.state == TCP_LAST_ACK:
                self._teardown(deliver_eof=True)

    def _register_ack(self, segment: TCPSegment) -> None:
        acked = (segment.ack - self._snd_una) % (1 << 32)
        if 0 < acked <= self._inflight():
            self._snd_una = segment.ack
        self._peer_window = segment.window
        self._flush_send_buffer()

    def _on_syn_ack(self, segment: TCPSegment) -> None:
        self._rcv_nxt = seq_add(segment.seq, 1)
        self._snd_nxt = seq_add(self._snd_nxt, 1)
        self._snd_una = self._snd_nxt
        self._peer_window = segment.window
        self.peer_mss = segment.mss
        self.state = TCP_ESTABLISHED
        self.connected_at = self.sim.now
        self._transmit(self._segment(ACK))
        event, self._connect_event = self._connect_event, None
        if event and not event.triggered:
            event.succeed(self)
        self._notify("connect")

    def _on_data(self, segment: TCPSegment) -> None:
        self._register_ack(segment)
        if segment.seq != self._rcv_nxt:
            return  # stale duplicate; tunnel/link delivery is in order
        self._rcv_nxt = seq_add(self._rcv_nxt, len(segment.payload))
        self.bytes_received += len(segment.payload)
        # Delayed ACK (RFC 1122): acknowledge every second segment.
        # (No delack timer: nothing in the simulated stacks retransmits
        # on a missing trailing ACK.)
        self._delack_count += 1
        if self._delack_count >= 2:
            self._delack_count = 0
            self._transmit(self._segment(ACK))
        while self._recv_waiters:
            waiter = self._recv_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(segment.payload)
                return
        self._recv_chunks.append(segment.payload)
        self._notify("read")

    def _on_fin(self, segment: TCPSegment) -> None:
        payload = segment.payload
        if payload:
            self._rcv_nxt = seq_add(self._rcv_nxt, len(payload))
            self.bytes_received += len(payload)
            self._recv_chunks.append(payload)
        self._rcv_nxt = seq_add(self._rcv_nxt, 1)
        self._transmit(self._segment(ACK))
        if self.state == TCP_ESTABLISHED:
            self.state = TCP_CLOSE_WAIT
        elif self.state in (TCP_FIN_WAIT1, TCP_FIN_WAIT2):
            self.state = TCP_TIME_WAIT
            self.device.unregister_socket(self)
        self._eof_delivered = True
        while self._recv_waiters:
            waiter = self._recv_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(self._recv_chunks.popleft()
                               if self._recv_chunks else b"")
        self._notify("read")

    def _on_rst(self) -> None:
        self.reset_received = True
        refused = self.state == TCP_SYN_SENT
        event, self._connect_event = self._connect_event, None
        self._teardown(deliver_eof=True)
        if refused and event and not event.triggered:
            event.fail(ConnectionRefused("%s:%d" % (self.remote_ip,
                                                    self.remote_port)))

    def on_unreachable(self) -> None:
        """ICMP destination-unreachable feedback for this flow: fail a
        pending connect now instead of burning five SYN retries."""
        if self.state != TCP_SYN_SENT:
            return
        event, self._connect_event = self._connect_event, None
        self._teardown(deliver_eof=True)
        if event and not event.triggered:
            event.fail(NetworkUnreachable("%s:%d" % (self.remote_ip,
                                                     self.remote_port)))

    # -- views ------------------------------------------------------------------
    @property
    def four_tuple(self) -> Tuple[str, int, str, int]:
        return (self.local_ip, self.local_port,
                self.remote_ip, self.remote_port)

    def __repr__(self) -> str:
        return "<KernelTcpSocket uid=%d %s:%s->%s:%s state=0x%02x>" % (
            self.uid, self.local_ip, self.local_port, self.remote_ip,
            self.remote_port, self.state)


class KernelUdpSocket:
    """A connectionless UDP socket (used by the DNS stub resolver)."""

    def __init__(self, device, uid: int, protected: bool = False,
                 ipv6: bool = False):
        self.device = device
        self.sim: Simulator = device.sim
        self.uid = uid
        self.protected = protected
        self.ipv6 = ipv6
        self.local_ip: Optional[str] = None
        self.local_port: Optional[int] = None
        self.remote_ip: Optional[str] = None
        self.remote_port: Optional[int] = None
        self.closed = False
        self._inbox: Deque[Tuple[bytes, Tuple[str, int]]] = deque()
        self._waiters: Deque[Event] = deque()
        self.state = TCP_CLOSE  # procfs uses 07 for unconnected UDP

    def _ensure_bound(self) -> None:
        if self.local_port is None:
            self.local_ip = self.device.source_ip_for(self)
            self.local_port = self.device.allocate_port()
            self.device.register_socket(self)

    def sendto(self, data: bytes, ip: str, port: int) -> None:
        if self.closed:
            raise SocketClosed("sendto on closed socket")
        self._ensure_bound()
        self.remote_ip, self.remote_port = ip, port
        datagram = UDPDatagram(self.local_port, port, data)
        packet = IPPacket(self.local_ip, ip, PROTO_UDP,
                          datagram.encode(self.local_ip, ip))
        self.device.transmit(self, packet)

    def recvfrom(self) -> Event:
        if self.closed:
            raise SocketClosed("recvfrom on closed socket")
        self._ensure_bound()
        event = self.sim.event("recvfrom")
        if self._inbox:
            event.succeed(self._inbox.popleft())
        else:
            self._waiters.append(event)
        return event

    def handle_datagram(self, datagram: UDPDatagram, src_ip: str) -> None:
        item = (datagram.payload, (src_ip, datagram.src_port))
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(item)
                return
        self._inbox.append(item)

    def close(self) -> None:
        self.closed = True
        if self.local_port is not None:
            self.device.unregister_socket(self)
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.fail(SocketClosed("socket closed"))

    @property
    def protocol(self) -> int:
        return PROTO_UDP

    def __repr__(self) -> str:
        return "<KernelUdpSocket uid=%d %s:%s>" % (
            self.uid, self.local_ip, self.local_port)
