"""MopEyeService: lifecycle and wiring of the Figure 4 architecture.

``start()`` installs the app, establishes the VPN (one-time user
consent), applies the section 3.5.2 exemption, and launches the three
core threads.  ``stop()`` tears them down -- including the section 3.1
dummy-packet trick needed to release a blocked TunReader.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import MopEyeConfig
from repro.core.main_worker import MainWorker
from repro.core.mapping import make_mapper
from repro.core.records import (
    FailureKind,
    FlowRecord,
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)
from repro.core.relay_tcp import FourTuple, TcpClient
from repro.core.relay_udp import UdpRelay
from repro.core.tun_reader import TunReader
from repro.core.tun_writer import TunWriter
from repro.netstack.ip import IPPacket
from repro.netstack.tcp_segment import TCPSegment
from repro.netstack.udp_datagram import UDPDatagram
from repro.obs import Observability
from repro.phone.nio import Selector
from repro.phone.vpn import VpnService


class MopEyeService:
    """The measurement app.  One instance per device."""

    def __init__(self, device, config: Optional[MopEyeConfig] = None,
                 store: Optional[MeasurementStore] = None,
                 dummy_server_ip: Optional[str] = None,
                 obs: Optional[Observability] = None,
                 modalities: bool = False,
                 app_rtt: bool = False):
        self.device = device
        self.sim = device.sim
        self.config = (config or MopEyeConfig()).validate()
        self.store = store or MeasurementStore()
        #: When on, flow close emits the beyond-RTT modality records
        #: (per-direction throughput + attributed energy) alongside
        #: the FlowRecord (docs/MODALITIES.md).  Off by default so the
        #: record stream is unchanged for RTT-only experiments.
        self.modalities = modalities
        #: When on, the relay emits an APP_RTT record per connection
        #: (first request byte to first response byte) alongside the
        #: SYN RTT -- the dual-RTT view the middlebox divergence rule
        #: compares (docs/MIDDLEBOX.md).  Off by default so the record
        #: stream is unchanged for SYN-only experiments.
        self.app_rtt = app_rtt
        self.obs = obs or Observability(sim=self.sim)
        self.vpn = VpnService(device, self.config.package)
        self.uid = self.vpn.owner_uid
        self.selector = Selector(device)
        self.tun_reader = TunReader(self)
        self.tun_writer = TunWriter(self)
        self.main_worker = MainWorker(self)
        self.udp_relay = UdpRelay(self)
        self.mapper = make_mapper(device, self.config, obs=self.obs)
        self.clients: Dict[FourTuple, TcpClient] = {}
        self.flows: List[FlowRecord] = []
        self.domain_of_ip: Dict[str, str] = {}
        self.tun = None
        self.per_socket_protect = False
        self.dummy_server_ip = dummy_server_ip
        self.running = False
        self._threads: List[object] = []
        self.started_at: Optional[float] = None
        #: Process event of the teardown triggered by a VPN revoke;
        #: waiters (the fault injector) yield it before restarting.
        self.revoke_stop = None
        self.vpn.on_revoked = self._on_vpn_revoked

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Establish the VPN and launch TunReader/TunWriter/MainWorker.
        Callable again after stop(): a restart gets fresh thread and
        selector state (counters, being registry-backed, continue)."""
        if self.running:
            raise RuntimeError("MopEye already running")
        if self.started_at is not None:
            # Restart after a stop (e.g. VPN revoke): the old thread
            # generators have exited; rebuild them and drop relay state
            # tied to the torn-down tunnel.
            self.selector = Selector(self.device)
            self.tun_reader = TunReader(self)
            self.tun_writer = TunWriter(self)
            self.main_worker = MainWorker(self)
            self.udp_relay = UdpRelay(self)
            self.clients.clear()
        builder = self.vpn.new_builder()
        self.tun = builder.set_mtu(1500).add_address(
            self.device.tun_address).establish()
        mode = self.config.protect_mode
        if mode == "auto":
            mode = ("disallow"
                    if self.device.sdk >= VpnService.ADD_DISALLOWED_MIN_SDK
                    else "protect")
        if mode == "disallow":
            # One-time call at initialisation (section 3.5.2).
            self.vpn.add_disallowed_application(self.config.package)
            self.per_socket_protect = False
        else:
            self.per_socket_protect = True
        if self.config.tun_read_mode == "blocking":
            # Switch the tun fd to blocking at initialisation (§3.1).
            self.tun_reader.configure_blocking_mode()
        self.running = True
        self.started_at = self.sim.now
        self.device.cpu.started_at = self.sim.now
        self._threads = [
            self.sim.process(self.tun_reader.run(), name="TunReader"),
            self.sim.process(self.main_worker.run(), name="MainWorker"),
        ]
        if self.config.write_scheme == "queueWrite":
            self._threads.append(
                self.sim.process(self.tun_writer.run(), name="TunWriter"))

    def stop(self):
        """Generator: orderly shutdown (run as a process)."""
        if not self.running:
            return
        self.running = False
        self.tun_reader.stop()
        self.main_worker.stop()
        yield from self.tun_writer.stop()
        if self.config.tun_read_mode == "blocking":
            # Release the blocked read() with a dummy packet (§3.1).
            if not self.per_socket_protect:
                # Android 5.0+: MopEye's own packets bypass the tunnel,
                # so trigger another app's request via DownloadManager.
                if self.dummy_server_ip is not None:
                    from repro.phone.download_manager import DownloadManager
                    DownloadManager(self.device).enqueue(
                        self.dummy_server_ip)
            else:
                # Pre-5.0: MopEye can send the dummy packet itself.
                socket = self.device.create_udp_socket(self.uid)
                socket.sendto(b"dummy", "203.0.113.1", 9)
                socket.close()
        # Give threads a moment to observe the flags.
        yield self.sim.timeout(1.0)
        self.vpn.stop()

    def _on_vpn_revoked(self) -> None:
        """The system revoked VPN consent (another VPN app started, or
        the user killed it): tear down like onRevoke() -> onDestroy()."""
        if not self.running:
            return
        self.revoke_stop = self.sim.process(self.stop(),
                                            name="vpn-revoke-stop")

    # -- client management ------------------------------------------------------
    def new_client(self, four_tuple: FourTuple,
                   syn: TCPSegment) -> TcpClient:
        client = TcpClient(self, four_tuple, syn)
        self.clients[four_tuple] = client
        return client

    def remove_client(self, client: TcpClient) -> None:
        self.clients.pop(client.four_tuple, None)

    def spawn_connect_thread(self, client: TcpClient) -> None:
        self.sim.process(client.socket_connect_thread(),
                         name="socket-connect")

    def spawn_udp_relay(self, packet: IPPacket,
                        datagram: UDPDatagram) -> None:
        self.sim.process(self.udp_relay.relay_thread(packet, datagram),
                         name="udp-relay")

    # -- tunnel output --------------------------------------------------------------
    def emit_tunnel_segment(self, client: TcpClient,
                            segment: TCPSegment):
        """Generator: encode a state-machine segment into an IP packet
        toward the app and dispatch it under the write scheme."""
        local_ip = client.machine.local_ip
        remote_ip = client.machine.remote_ip
        cost = self.device.costs.packet_build.sample()
        yield self.device.busy(cost, "mopeye.worker")
        packet = IPPacket(remote_ip, local_ip, 6,
                          segment.encode(remote_ip, local_ip))
        yield from self.emit_packet(packet)

    def emit_packet(self, packet: IPPacket):
        """Generator: dispatch one finished packet to the tunnel.
        Every producer -- TCP state machine and UDP relay alike --
        funnels through here, so ``relay.packets_to_tunnel`` counts
        both (the UDP path used to be missed)."""
        self.obs.inc("relay.packets_to_tunnel")
        yield from self.tun_writer.emit(packet)

    # -- measurement records -----------------------------------------------------------
    def record_tcp(self, client: TcpClient) -> None:
        link = self.device.link
        self.store.add(MeasurementRecord(
            kind=MeasurementKind.TCP,
            rtt_ms=client.rtt_ms,
            timestamp_ms=self.sim.now,
            app_package=client.app_package,
            app_uid=client.app_uid,
            dst_ip=client.four_tuple[2],
            dst_port=client.four_tuple[3],
            domain=self.domain_of_ip.get(client.four_tuple[2]),
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model))

    def record_app_rtt(self, client: TcpClient,
                       rtt_ms: float) -> None:
        """App-layer RTT for one relayed connection: first request
        byte written to first response byte read.  Behind a
        split-connection proxy this still spans the full path while
        the SYN RTT only reaches the middlebox -- the divergence the
        detection rule measures (docs/MIDDLEBOX.md)."""
        if not self.app_rtt:
            return
        link = self.device.link
        self.store.add(MeasurementRecord(
            kind=MeasurementKind.APP_RTT,
            rtt_ms=rtt_ms,
            timestamp_ms=self.sim.now,
            app_package=client.app_package,
            app_uid=client.app_uid,
            dst_ip=client.four_tuple[2],
            dst_port=client.four_tuple[3],
            domain=self.domain_of_ip.get(client.four_tuple[2]),
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model))

    def record_tcp_failure(self, client: TcpClient,
                           failure: str) -> None:
        """The external connect() failed: persist the failure kind and
        the time-to-failure (in rtt_ms) so diagnosis can tell refused
        from timed-out from unreachable destinations."""
        link = self.device.link
        started = client.connect_started_at
        elapsed = (self.sim.now - started
                   if started is not None else 0.0)
        self.store.add(MeasurementRecord(
            kind=MeasurementKind.TCP,
            rtt_ms=max(0.0, elapsed),
            timestamp_ms=self.sim.now,
            app_package=client.app_package,
            app_uid=client.app_uid,
            dst_ip=client.four_tuple[2],
            dst_port=client.four_tuple[3],
            domain=self.domain_of_ip.get(client.four_tuple[2]),
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model,
            failure=failure))

    def record_flow(self, client: TcpClient) -> None:
        """Beyond-RTT metrics: per-connection traffic summary."""
        flow = FlowRecord(
            app_package=client.app_package,
            dst_ip=client.four_tuple[2],
            dst_port=client.four_tuple[3],
            domain=self.domain_of_ip.get(client.four_tuple[2]),
            bytes_up=client.bytes_up,
            bytes_down=client.bytes_down,
            opened_at_ms=client.opened_at,
            duration_ms=self.sim.now - client.opened_at)
        self.flows.append(flow)
        if self.modalities:
            self._record_modalities(client, flow)

    def _record_modalities(self, client: TcpClient,
                           flow: FlowRecord) -> None:
        """Emit the flow's throughput and energy modality records.

        ``rtt_ms`` carries the sample value: bytes moved per
        millisecond of flow lifetime (== KB/s) for the per-direction
        throughput kinds, attributed millijoules for ENERGY.  Energy
        joins the relay's byte counters against the battery constants
        and -- when the device link is RRC-aware -- the promotions the
        flow triggered (see repro.phone.battery.flow_energy_mj).
        """
        from repro.phone.battery import flow_energy_mj
        link = self.device.link
        now = self.sim.now
        common = dict(
            timestamp_ms=now,
            app_package=client.app_package,
            app_uid=client.app_uid,
            dst_ip=client.four_tuple[2],
            dst_port=client.four_tuple[3],
            domain=flow.domain,
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model)
        if flow.duration_ms > 0:
            if flow.bytes_up:
                self.store.add(MeasurementRecord(
                    kind=MeasurementKind.TPUT_UP,
                    rtt_ms=flow.bytes_up / flow.duration_ms,
                    **common))
            if flow.bytes_down:
                self.store.add(MeasurementRecord(
                    kind=MeasurementKind.TPUT_DOWN,
                    rtt_ms=flow.bytes_down / flow.duration_ms,
                    **common))
        promos_full = promos_partial = 0
        machine = getattr(link, "machine", None)
        if machine is not None and \
                client.rrc_promos_at_open is not None:
            full_at_open, partial_at_open = client.rrc_promos_at_open
            promos_full = max(0, machine.promotions_full - full_at_open)
            promos_partial = max(
                0, machine.promotions_partial - partial_at_open)
        energy = flow_energy_mj(
            link.network_type, flow.total_bytes,
            duration_ms=flow.duration_ms,
            promotions_full=promos_full,
            promotions_partial=promos_partial)
        if energy > 0:
            self.store.add(MeasurementRecord(
                kind=MeasurementKind.ENERGY, rtt_ms=energy, **common))

    def record_dns(self, rtt_ms: float, server_ip: str,
                   domain: Optional[str]) -> None:
        link = self.device.link
        self.store.add(MeasurementRecord(
            kind=MeasurementKind.DNS,
            rtt_ms=rtt_ms,
            timestamp_ms=self.sim.now,
            dst_ip=server_ip,
            dst_port=53,
            domain=domain,
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model))

    def record_dns_failure(self, elapsed_ms: float, server_ip: str,
                           domain: Optional[str]) -> None:
        """A relayed DNS query got no reply within the relay deadline:
        persist a timeout-tagged DNS record (rtt_ms = time waited)."""
        link = self.device.link
        self.store.add(MeasurementRecord(
            kind=MeasurementKind.DNS,
            rtt_ms=max(0.0, elapsed_ms),
            timestamp_ms=self.sim.now,
            dst_ip=server_ip,
            dst_port=53,
            domain=domain,
            network_type=link.network_type,
            operator=link.operator,
            device_id=self.device.model,
            failure=FailureKind.TIMEOUT))

    # -- resource accounting (Table 4) ----------------------------------------------------
    def cpu_utilisation(self) -> float:
        elapsed = self.sim.now - (self.started_at or 0.0)
        busy = (self.device.cpu.total("mopeye")
                + self.device.cpu.total("vpn")
                + self.device.cpu.total("selector")
                + self.device.cpu.total("inspection"))
        return busy / elapsed if elapsed > 0 else 0.0

    def memory_bytes(self) -> int:
        return (self.config.base_memory_bytes
                + len(self.clients)
                * self.config.per_connection_buffer_bytes)
