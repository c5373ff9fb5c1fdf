"""Java-NIO-style non-blocking sockets: ``SocketChannel`` + ``Selector``.

MopEye relays data with non-blocking SocketChannels driven by a single
selector (section 2.3), but runs each ``connect()`` in blocking mode in
a temporary thread so the post-connect timestamp is exact (section 2.4).
Both modes are provided here.

The selector also implements the section 3.2 trick: ``wakeup()`` lets
another thread (TunReader) break a pending ``select()`` so one thread
can monitor socket events *and* a packet queue.
"""

from __future__ import annotations

from typing import List, Optional

from repro.phone.ktcp import KernelTcpSocket
from repro.sim.kernel import Event, Simulator
from repro.sim.queues import Signal

OP_READ = 1
OP_WRITE = 4
OP_CONNECT = 8


class SocketChannel:
    """A selectable wrapper over a kernel TCP socket."""

    def __init__(self, device, uid: int, protected: bool = False,
                 ipv6: bool = False):
        self.device = device
        self.sim: Simulator = device.sim
        self.socket = device.create_tcp_socket(uid, protected=protected,
                                               ipv6=ipv6)
        self.socket.listener = self._on_socket_event
        self.selector: Optional["Selector"] = None
        self.key: Optional["SelectionKey"] = None
        # Owner-managed write-pending flag: the paper's "socket write
        # event" is triggered by MopEye placing data in the write buffer.
        self.write_requested = False
        self.connected_event: Optional[Event] = None

    # -- connect ------------------------------------------------------------
    def connect(self, ip: str, port: int) -> Event:
        """Start connecting; the returned event triggers at the instant
        the handshake completes (blocking-connect semantics)."""
        self.connected_event = self.socket.connect(ip, port)
        return self.connected_event

    @property
    def is_connected(self) -> bool:
        from repro.phone.ktcp import TCP_ESTABLISHED, TCP_CLOSE_WAIT
        return self.socket.state in (TCP_ESTABLISHED, TCP_CLOSE_WAIT)

    # -- I/O -------------------------------------------------------------------
    def read(self) -> Optional[bytes]:
        """Non-blocking read: one buffered chunk, ``b""`` for EOF, or
        ``None`` when nothing is ready (Java's return of 0)."""
        if self.socket._recv_chunks:
            return self.socket._recv_chunks.popleft()
        if self.socket._eof_delivered:
            return b""
        return None

    def read_all(self) -> bytes:
        """Drain every buffered chunk."""
        out = bytearray()
        while self.socket._recv_chunks:
            out.extend(self.socket._recv_chunks.popleft())
        return bytes(out)

    def write(self, data: bytes) -> None:
        self.socket.send(data)

    def close(self) -> None:
        self.socket.close()
        if self.selector is not None:
            self.selector._deregister(self)

    def abort(self) -> None:
        self.socket.abort()
        if self.selector is not None:
            self.selector._deregister(self)

    def shutdown_output(self) -> None:
        """Half-close toward the server (relay of a tunnel FIN)."""
        self.socket.close()

    # -- readiness ---------------------------------------------------------------
    @property
    def readable(self) -> bool:
        return self.socket.readable

    @property
    def eof(self) -> bool:
        return self.socket._eof_delivered and not self.socket._recv_chunks

    def request_write(self) -> None:
        self.write_requested = True
        if self.selector is not None:
            self.selector._notify()

    def _on_socket_event(self, _socket: KernelTcpSocket,
                         _kind: str) -> None:
        if self.selector is not None:
            self.selector._notify()

    def __repr__(self) -> str:
        return "<SocketChannel %r>" % self.socket


class SelectionKey:
    def __init__(self, channel: SocketChannel, ops: int,
                 attachment: object = None):
        self.channel = channel
        self.interest_ops = ops
        self.attachment = attachment
        self.valid = True

    def cancel(self) -> None:
        self.valid = False


class Selector:
    """A single-thread readiness monitor with cross-thread wakeup."""

    def __init__(self, device):
        self.device = device
        self.sim: Simulator = device.sim
        self._keys: List[SelectionKey] = []
        self._signal = Signal(self.sim, "selector")
        self.select_rounds = 0
        self.wakeups = 0

    # -- registration (expensive: section 3.4) ------------------------------
    def register(self, channel: SocketChannel, ops: int,
                 attachment: object = None) -> Event:
        """Register a channel.  The returned event completes after the
        register() cost (sometimes milliseconds) and carries the key."""
        key = SelectionKey(channel, ops, attachment)
        self._keys.append(key)
        channel.selector = self
        channel.key = key
        cost = self.device.costs.selector_register.sample()
        done = self.device.busy(cost, "selector.register")
        result = self.sim.event("registered")
        done.callbacks.append(lambda _evt: result.succeed(key))
        # Readiness may already exist.
        self._notify()
        return result

    def _deregister(self, channel: SocketChannel) -> None:
        if channel.key is not None:
            channel.key.cancel()
        self._keys = [k for k in self._keys if k.valid]
        channel.selector = None
        channel.key = None

    # -- readiness ----------------------------------------------------------------
    def _ready_keys(self) -> List[SelectionKey]:
        ready = []
        for key in self._keys:
            if not key.valid:
                continue
            if key.interest_ops & OP_READ and key.channel.readable:
                ready.append(key)
            elif key.interest_ops & OP_WRITE and \
                    key.channel.write_requested:
                ready.append(key)
        return ready

    def _notify(self) -> None:
        self._signal.set()

    def wakeup(self) -> None:
        """Cross-thread wakeup (TunReader -> MainWorker, section 3.2)."""
        self.wakeups += 1
        self._signal.set()

    def select(self):
        """Generator: wait until >= 1 channel is ready *or* a wakeup
        arrives; returns the ready keys (possibly empty on wakeup)."""
        self.select_rounds += 1
        ready = self._ready_keys()
        if ready or self._signal.latched:
            self._signal.clear()
            return ready
        yield self._signal.wait()
        return self._ready_keys()

    def select_process(self) -> Event:
        return self.sim.process(self.select(), name="select")
