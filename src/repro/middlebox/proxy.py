"""Transparent split-connection proxy (docs/MIDDLEBOX.md).

Real carriers put Performance-Enhancing Proxies in the TCP path: the
SYN is terminated near the client and the proxy opens its own upstream
connection, so a SYN/SYN-ACK RTT measures the *middlebox*, not the
server -- exactly the confound Zhang & Choffnes detect from
unprivileged devices.  :class:`TransparentProxy` reproduces that lie
at the packet level:

* **client side** -- it claims uplink TCP packets to intercepted ports
  (``Internet.send_from_device`` asks via :meth:`wants`) and answers
  the SYN locally, spoofing the real server's address on every reply.
  This half *is* an :class:`~repro.network.servers.AppServer`: the
  simulated network has one passive-open TCP endpoint, and the proxy
  overrides only its hooks (which SYNs are refused, the connection
  object kept, what follows an accept, a client RST and a client FIN);
* **upstream side** -- it implements the device protocol
  (``source_ip_for``/``allocate_port``/``register_socket``/
  ``transmit``/``deliver_from_network``) so it can drive an ordinary
  :class:`~repro.phone.ktcp.KernelTcpSocket` to the real server and
  splice bytes between the two halves, optionally rewriting the
  response stream.

Policies: interception is port-selective (default 80/443), per-IP
bypassable (collector uploads must never be proxied), and togglable at
runtime -- the fault injector flips :attr:`enabled`, so an installed
but disabled proxy cannot move a byte.  UDP is explicitly out of
scope: :meth:`wants` never claims a non-TCP packet.  DNS-over-TCP on an
intercepted port is refused with RST -- the client gets a clean
``refused`` failure record, never a silent drop.

Determinism: the proxy draws ISNs and nothing else from its own
string-seeded RNG stream and its link/path latencies are constants, so
placing one in a world leaves every other world's draw sequence -- and
every clean operator's shard digest -- untouched.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.netstack.ip import IPPacket, PROTO_TCP
from repro.netstack.tcp_segment import TCPSegment
from repro.netstack.tcp_state import TCPState, TCPStateMachine
from repro.network.link import AccessLink
from repro.network.servers import AppServer, _ServerConnection
from repro.obs import Observability
from repro.phone.ktcp import (
    ConnectionRefused,
    ConnectTimeout,
    KernelTcpSocket,
    NetworkUnreachable,
)
from repro.sim.distributions import Constant
from repro.sim.kernel import Simulator

#: Default interception policy: web ports only, the classic PEP shape.
DEFAULT_INTERCEPT_PORTS = (80, 443)

#: Default middlebox placement: one hop past the access network, so
#: the SYN RTT collapses to roughly the access RTT.
DEFAULT_PROXY_ONEWAY_MS = 0.3
DEFAULT_ACCEPT_DELAY_MS = 0.05


class _ProxyFlow(_ServerConnection):
    """One intercepted connection: the client-side connection plus the
    upstream socket it is spliced to."""

    def __init__(self, machine: TCPStateMachine):
        super().__init__(machine)
        self.sock: Optional[KernelTcpSocket] = None
        #: Client bytes buffered until the upstream connect completes.
        self.pending = bytearray()
        self.established = False
        self.client_fin = False
        self.closed = False


class TransparentProxy(AppServer):
    """A split-connection middlebox attachable per operator world.

    The client half is an :class:`AppServer`: it accepts, refuses,
    re-answers SYNs and tears down exactly the way a server does, and
    overrides only the hooks where a proxy differs."""

    connection_class = _ProxyFlow

    def __init__(self, sim: Simulator, internet, *,
                 ip: str = "198.51.100.1",
                 intercept_ports=DEFAULT_INTERCEPT_PORTS,
                 bypass_ips=(),
                 oneway_ms: float = DEFAULT_PROXY_ONEWAY_MS,
                 accept_delay_ms: float = DEFAULT_ACCEPT_DELAY_MS,
                 rewrite=None,
                 rng: Optional[random.Random] = None,
                 obs: Optional[Observability] = None,
                 name: str = "mbox"):
        super().__init__(sim, [ip], name=name,
                         path_oneway=Constant(oneway_ms),
                         accept_delay=Constant(accept_delay_ms),
                         rng=rng)
        self.internet = internet
        self.ip = ip
        self.intercept_ports = set(intercept_ports)
        self.bypass_ips = set(bypass_ips)
        #: Optional response-rewriting hook: ``bytes -> bytes`` applied
        #: to the upstream byte stream before it is spliced back.
        self.rewrite = rewrite
        self.obs = obs or Observability(sim=sim)
        #: Inert until a fault event enables interception.
        self.enabled = False
        # -- device-protocol state (upstream side) --------------------
        # Constant-latency private link: the upstream hop must never
        # share queue or RNG state with the device's access link.
        self.link = AccessLink(sim, up_latency=Constant(0.0),
                               down_latency=Constant(0.0),
                               operator=name)
        self._next_port = 20000
        self._sockets: Dict[int, KernelTcpSocket] = {}
        internet.attach_device(self)
        internet.install_middlebox(self)

    # -- interception policy -----------------------------------------
    def wants(self, packet: IPPacket, server) -> bool:
        """Claim an uplink TCP packet headed for an intercepted port.
        Non-TCP traffic is out of scope by construction."""
        if not self.enabled or server is None:
            return False
        if packet.protocol != PROTO_TCP:
            return False
        if packet.dst_str in self.bypass_ips:
            return False
        try:
            segment = TCPSegment.decode(packet.payload)
        except Exception:
            return False
        return segment.dst_port in self.intercept_ports

    # -- client side: the AppServer hooks ----------------------------
    def _refuses(self, segment: TCPSegment) -> bool:
        if segment.dst_port != 53:
            return False
        # DNS-over-TCP on an intercepted port: the split proxy does not
        # speak it.  Refuse with RST so the client records a clean
        # `refused` failure -- never a silent drop (docs/MIDDLEBOX.md).
        self.obs.inc("mbox.dns_tcp_refused")
        return True

    def _on_accept(self, key, flow: _ProxyFlow) -> None:
        # The SYN/ACK is already scheduled -- this is the lie being
        # modelled: the client's connect() returns at middlebox RTT.
        # Open the upstream half concurrently.
        self.obs.inc("mbox.intercepted_connects")
        self.sim.process(self._upstream(key, flow),
                         name="%s-upstream" % self.name)

    def _on_client_rst(self, flow: _ProxyFlow) -> None:
        flow.closed = True
        if flow.sock is not None:
            flow.sock.abort()

    def _on_client_fin(self, key, flow: _ProxyFlow) -> None:
        # Half-close upstream once the buffered bytes are out; until
        # the upstream connects, _upstream closes it after the flush.
        flow.client_fin = True
        if flow.established and not flow.pending \
                and flow.sock is not None:
            flow.sock.close()

    def _on_request_bytes(self, key, flow: _ProxyFlow,
                          data: bytes) -> None:
        self.obs.inc("mbox.bytes_up", len(data))
        if flow.established and flow.sock is not None:
            flow.sock.send(data)
        else:
            flow.pending.extend(data)

    # -- upstream side (device role) ---------------------------------
    def _upstream(self, key, flow: _ProxyFlow):
        sock = KernelTcpSocket(self, uid=0, isn_rng=self.rng)
        flow.sock = sock
        try:
            yield sock.connect(flow.machine.remote_ip,
                               flow.machine.remote_port)
        except (ConnectionRefused, ConnectTimeout,
                NetworkUnreachable):
            self.obs.inc("mbox.upstream_failures")
            if not flow.closed and not flow.machine.is_closed:
                self._transmit(key, flow.machine.make_rst())
            flow.closed = True
            self._connections.pop(key, None)
            return
        flow.established = True
        self.obs.inc("mbox.split_connections")
        if flow.pending:
            sock.send(bytes(flow.pending))
            flow.pending.clear()
        if flow.client_fin:
            sock.close()
        while True:
            data = yield sock.recv()
            if not data:
                break
            data = self._apply_rewrite(data)
            if flow.closed:
                return
            self.obs.inc("mbox.bytes_down", len(data))
            for out in flow.machine.deliver(data):
                self._transmit(key, out)
        if flow.closed:
            return
        if sock.reset_received:
            if not flow.machine.is_closed:
                self._transmit(key, flow.machine.make_rst())
            flow.closed = True
            self._connections.pop(key, None)
        elif flow.machine.state in (TCPState.ESTABLISHED,
                                    TCPState.CLOSE_WAIT):
            self._transmit(key, flow.machine.make_fin())

    def _apply_rewrite(self, data: bytes) -> bytes:
        if self.rewrite is None:
            return data
        out = self.rewrite(data)
        if out != data:
            self.obs.inc("mbox.rewritten_bytes", len(out))
        return out

    # -- device protocol (for KernelTcpSocket) -----------------------
    def source_ip_for(self, _sock) -> str:
        return self.ip

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port >= 40000:
            self._next_port = 20000
        return port

    def register_socket(self, sock) -> None:
        self._sockets[sock.local_port] = sock

    def unregister_socket(self, sock) -> None:
        self._sockets.pop(sock.local_port, None)

    def transmit(self, _sock, packet: IPPacket) -> None:
        self.internet.send_from_device(self, packet)

    def deliver_from_network(self, packet: IPPacket) -> None:
        if packet.protocol != PROTO_TCP:
            return
        segment = TCPSegment.decode(packet.payload)
        sock = self._sockets.get(segment.dst_port)
        if sock is None:
            return
        if sock.remote_ip not in (None, packet.src_str):
            return
        if sock.remote_port not in (None, segment.src_port):
            return
        sock.handle_segment(segment)

    def deliver_unreachable(self, packet: IPPacket) -> None:
        segment = TCPSegment.decode(packet.payload)
        sock = self._sockets.get(segment.src_port)
        if sock is not None:
            sock.on_unreachable()

    def __repr__(self) -> str:
        return "<TransparentProxy %s %s ports=%s enabled=%s>" % (
            self.name, self.ip, sorted(self.intercept_ports),
            self.enabled)

