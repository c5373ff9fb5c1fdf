"""Battery model: CPU + radio energy accounting for Table 4.

A principled replacement for a flat CPU->battery factor: energy is
integrated from

* CPU busy time (per-core active power),
* radio transmission/reception (energy per byte by technology),
* radio tail time (the high-power lingering after each burst -- the
  dominant cellular cost identified by Huang et al. [28]).

Constants are representative of a Nexus-6-class device with a ~3220 mAh
battery and are documented inline; the Table 4 bench uses relative
consumption (MopEye vs Haystack), which is insensitive to their
absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.link import NetworkType

# Representative power/energy constants.
CPU_ACTIVE_MW = 900.0          # one busy core
BATTERY_MWH = 3220 * 3.8       # 3220 mAh at 3.8 V nominal

# Energy per transferred byte (radio TX/RX averaged), uJ/byte.
_ENERGY_PER_BYTE_UJ = {
    NetworkType.WIFI: 0.35,
    NetworkType.LTE: 1.0,
    NetworkType.UMTS: 2.5,
    NetworkType.GPRS: 4.0,
}

# Radio tail: high-power dwell after each activity burst.
_TAIL_MW = {
    NetworkType.WIFI: 120.0,
    NetworkType.LTE: 1080.0,
    NetworkType.UMTS: 800.0,
    NetworkType.GPRS: 400.0,
}
_TAIL_MS = {
    NetworkType.WIFI: 200.0,
    NetworkType.LTE: 10_000.0,
    NetworkType.UMTS: 5_000.0,
    NetworkType.GPRS: 2_000.0,
}

# RRC promotion energy (mJ per full promotion): the promotion delay at
# high-state power (LTE ~260 ms at ~1080 mW, UMTS ~2 s at ~800 mW).
# WiFi has no RRC machine, so promotions are free there.
_PROMOTION_MJ = {
    NetworkType.WIFI: 0.0,
    NetworkType.LTE: 280.0,
    NetworkType.UMTS: 1600.0,
    NetworkType.GPRS: 200.0,
}


def flow_energy_mj(network_type: str, nbytes: int,
                   duration_ms: float = 0.0,
                   promotions_full: int = 0,
                   promotions_partial: int = 0) -> float:
    """Radio energy attributable to one flow, in millijoules.

    Three components, all from the constants above: per-byte TX/RX
    cost, powered-radio dwell over the flow's lifetime (capped at the
    technology's tail timer -- a longer flow re-arms the tail rather
    than paying it repeatedly), and RRC promotion energy when the flow
    triggered promotions (a partial promotion costs half a full one).
    This is the per-app energy modality's sample value (see
    docs/MODALITIES.md); an unknown technology is charged at WiFi
    rates.
    """
    wifi = NetworkType.WIFI
    energy = (_ENERGY_PER_BYTE_UJ.get(network_type,
                                      _ENERGY_PER_BYTE_UJ[wifi])
              * max(0, nbytes) / 1000.0)
    tail_ms = _TAIL_MS.get(network_type, _TAIL_MS[wifi])
    tail_mw = _TAIL_MW.get(network_type, _TAIL_MW[wifi])
    energy += tail_mw * min(max(duration_ms, 0.0), tail_ms) / 1000.0
    promo_mj = _PROMOTION_MJ.get(network_type, 0.0)
    energy += promo_mj * (max(0, promotions_full)
                          + 0.5 * max(0, promotions_partial))
    return energy


@dataclass
class BatteryReport:
    cpu_mwh: float
    radio_bytes_mwh: float
    radio_tail_mwh: float

    @property
    def total_mwh(self) -> float:
        return self.cpu_mwh + self.radio_bytes_mwh \
            + self.radio_tail_mwh

    @property
    def battery_pct(self) -> float:
        return 100.0 * self.total_mwh / BATTERY_MWH

    def scaled_to_hours(self, run_ms: float,
                        hours: float = 1.0) -> float:
        """Battery % this workload would cost if sustained for
        ``hours`` of wall time."""
        if run_ms <= 0:
            return 0.0
        return self.battery_pct * (hours * 3600_000.0 / run_ms)


class BatteryModel:
    """Estimates energy from a device's meters over a run."""

    def __init__(self, device):
        self.device = device

    def report(self, elapsed_ms: float,
               cpu_prefixes: tuple = ("",),
               bytes_transferred: Optional[int] = None,
               burst_count: Optional[int] = None) -> BatteryReport:
        """Integrate energy for a run of ``elapsed_ms``.

        ``cpu_prefixes`` selects which CpuMeter components count (e.g.
        only MopEye's); ``bytes_transferred`` / ``burst_count`` default
        to the access link's counters.
        """
        cpu_ms = sum(self.device.cpu.total(prefix)
                     for prefix in cpu_prefixes)
        cpu_mwh = CPU_ACTIVE_MW * cpu_ms / 3600_000.0

        link = self.device.link
        tech = link.network_type
        if bytes_transferred is None:
            bytes_transferred = link.up.bytes_sent \
                + link.down.bytes_sent
        bytes_mwh = (_ENERGY_PER_BYTE_UJ[tech] * bytes_transferred
                     / 3.6e9)  # uJ -> mWh

        if burst_count is None:
            # One tail per activity gap is an upper bound; approximate
            # bursts as packet groups ~20 packets apart.
            packets = link.up.packets_sent + link.down.packets_sent
            burst_count = max(1, packets // 20)
        tail_ms = min(elapsed_ms,
                      burst_count * _TAIL_MS[tech])
        tail_mwh = _TAIL_MW[tech] * tail_ms / 3600_000.0
        return BatteryReport(cpu_mwh, bytes_mwh, tail_mwh)
