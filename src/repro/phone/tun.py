"""The TUN virtual network device behind ``VpnService``.

The TUN fd is a point-to-point IP link: the kernel routes every app's
outgoing IP packet into the *outgoing* queue (read by the VPN app), and
whatever the VPN app writes back is injected into the device's stack as
an incoming packet.

Blocking semantics follow section 3.1 exactly:

* Android 5.0+ exposes ``setBlocking`` via the SDK;
* on 4.0--4.4 the fd can only be made blocking through ``fcntl()`` at
  the native level or Java reflection into ``libcore.io.IoUtils``;
* a blocked ``read()`` cannot be interrupted -- the only way to release
  it is to push a packet through the tunnel (the dummy-packet trick).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.netstack.ip import IPPacket
from repro.sim.kernel import Event, Simulator
from repro.sim.queues import Semaphore


class TunError(Exception):
    """Raised for illegal TUN operations (API gates, closed fd)."""


class TunDevice:
    """A simulated ``/dev/tun`` file descriptor."""

    BLOCKING_API_MIN_SDK = 21  # Android 5.0

    def __init__(self, sim: Simulator, device, mtu: int = 1500):
        self.sim = sim
        self.device = device
        self.mtu = mtu
        self.blocking = False
        self.closed = False
        # Outgoing: kernel -> VPN app, stamped with the enqueue instant
        # so readers' retrieval delay (section 3.1) is measurable.
        self._outgoing: Deque[tuple] = deque()
        self._readers: Deque[Event] = deque()
        self.retrieval_delays: list = []
        # The single fd is shared by every writer thread; contention on
        # it is the directWrite problem of section 3.5.1.
        self.write_lock = Semaphore(sim, 1, name="tun-fd")
        self.reads = 0
        self.writes = 0

    # -- blocking-mode control (section 3.1) ------------------------------
    def set_blocking_via_api(self, blocking: bool) -> None:
        """``ParcelFileDescriptor``-level API, Android 5.0+ only."""
        if self.device.sdk < self.BLOCKING_API_MIN_SDK:
            raise TunError(
                "setBlocking API requires SDK >= %d (device has %d)"
                % (self.BLOCKING_API_MIN_SDK, self.device.sdk))
        self.blocking = blocking

    def set_blocking_via_reflection(self, blocking: bool) -> None:
        """Java reflection into ``libcore.io.IoUtils.setBlocking``,
        present since Android's inception (section 3.1)."""
        self.blocking = blocking

    # -- kernel side -----------------------------------------------------------
    def inject_outgoing(self, packet: IPPacket) -> None:
        """Called by the device's routing layer for each app packet the
        VPN captures."""
        if self.closed:
            return
        if packet.total_length > self.mtu:
            raise TunError("packet exceeds MTU (%d > %d)"
                           % (packet.total_length, self.mtu))
        while self._readers:
            reader = self._readers.popleft()
            if not reader.triggered:
                self.retrieval_delays.append(0.0)
                reader.succeed(packet)
                return
        self._outgoing.append((packet, self.sim.now))

    @property
    def pending_outgoing(self) -> int:
        return len(self._outgoing)

    # -- VPN-app side ---------------------------------------------------------
    def read(self) -> Event:
        """Read one packet in blocking mode: the returned event triggers
        when a packet is available.  There is no timeout and no way to
        interrupt it -- exactly the section 3.1 constraint."""
        if not self.blocking:
            raise TunError("read() used in non-blocking mode; "
                           "use try_read() + your own sleep loop")
        if self.closed:
            raise TunError("read on closed tun fd")
        self.reads += 1
        event = self.sim.event("tun-read")
        if self._outgoing:
            event.succeed(self._pop())
        else:
            self._readers.append(event)
        return event

    def _pop(self) -> IPPacket:
        packet, stamped = self._outgoing.popleft()
        self.retrieval_delays.append(self.sim.now - stamped)
        return packet

    def try_read(self) -> Optional[IPPacket]:
        """Non-blocking read: None when no packet is waiting (the
        ToyVpn/Haystack polling style)."""
        if self.closed:
            raise TunError("read on closed tun fd")
        self.reads += 1
        if self._outgoing:
            return self._pop()
        return None

    def write(self, packet: IPPacket) -> None:
        """Write one response packet toward the apps.  The caller is
        responsible for modelling the syscall cost and for holding
        :attr:`write_lock` if it cares about fd contention."""
        if self.closed:
            raise TunError("write on closed tun fd")
        self.writes += 1
        self.device.deliver_from_tun(packet)

    def close(self) -> None:
        self.closed = True
        while self._readers:
            reader = self._readers.popleft()
            if not reader.triggered:
                reader.fail(TunError("tun fd closed"))
