"""tcpdump: the wire-level reference measurement.

A passive tap on the internet fabric pairing each SYN with its SYN/ACK.
The paper uses tcpdump RTTs as ground truth for Table 2; deviations of
MopEye/MobiPerf are computed against these.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netstack.ip import IPPacket, PROTO_TCP
from repro.netstack.tcp_segment import TCPSegment


class TcpdumpCapture:
    """Attach with ``internet.add_tap(capture.tap)``."""

    def __init__(self) -> None:
        # (src_ip, src_port, dst_ip, dst_port) -> SYN timestamp
        self._pending: Dict[Tuple[str, int, str, int], float] = {}
        # Completed handshakes: (four_tuple, syn_ts, rtt_ms)
        self.samples: List[Tuple[Tuple[str, int, str, int], float,
                                 float]] = []
        self.packets_seen = 0

    def tap(self, direction: str, packet: IPPacket,
            timestamp: float) -> None:
        self.packets_seen += 1
        if packet.protocol != PROTO_TCP:
            return
        try:
            segment = TCPSegment.decode(packet.payload)
        except Exception:
            return
        if direction == "up" and segment.is_syn:
            key = (packet.src_str, segment.src_port,
                   packet.dst_str, segment.dst_port)
            # First SYN wins (retransmissions measure from the start).
            self._pending.setdefault(key, timestamp)
        elif direction == "down" and segment.is_syn_ack:
            key = (packet.dst_str, segment.dst_port,
                   packet.src_str, segment.src_port)
            started = self._pending.pop(key, None)
            if started is not None:
                self.samples.append((key, started, timestamp - started))

    # -- views ------------------------------------------------------------
    def rtts(self, dst_ip: Optional[str] = None) -> List[float]:
        return [rtt for (key, _ts, rtt) in self.samples
                if dst_ip is None or key[2] == dst_ip]

    def mean_rtt(self, dst_ip: Optional[str] = None) -> Optional[float]:
        rtts = self.rtts(dst_ip)
        if not rtts:
            return None
        return sum(rtts) / len(rtts)

    def clear(self) -> None:
        self._pending.clear()
        self.samples.clear()
